"""Nonlinear least-squares parameter extraction.

Every routine fits a forward model from this package to measured (or
synthetic) spectra and returns a FitResult with per-parameter standard
errors from the Jacobian at the optimum.  The engine is damped least
squares (MINPACK Levenberg-Marquardt via scipy) with finite-difference
Jacobians; rate-like parameters are log-parameterised internally so they
stay positive without explicit bounds.

Peak-fit initialisation is deterministic: center at the argmax, width from
the half-maximum crossing distance, offset at the median.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .em_circuit import KineticInductanceModel, kinetic_inductance_at
from .errors import (
    FitConvergenceError,
    ParameterError,
    RankDeficiencyError,
    SignConventionError,
)
from .optomech import OpticalCavity, _sideband_lorentzians, _three_tone

__all__ = [
    "FitResult",
    "SParamQuad",
    "lorentzian_fit",
    "sqrt_lorentzian_fit",
    "optical_s11_fit",
    "g0_from_damping",
    "bcs_resonance_fit",
    "bidirectional_efficiency",
]


@dataclass
class FitResult:
    """Extracted parameters, 1-sigma errors, and fit diagnostics."""

    params: dict[str, float]
    sigmas: dict[str, float]
    residual_norm: float
    converged: bool
    n_iter: int
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "params": dict(self.params),
            "sigmas": dict(self.sigmas),
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "n_iter": self.n_iter,
            "meta": dict(self.meta),
        }


@dataclass(frozen=True)
class SParamQuad:
    """Peak and background scattering amplitudes of a bidirectional sweep.

    s_oe_pk / s_eo_pk are the fitted up/down-conversion peak amplitudes;
    s_oo_bgd / s_ee_bgd the off-resonant optical and electrical reflections.
    """

    s_oe_pk: float
    s_eo_pk: float
    s_oo_bgd: float
    s_ee_bgd: float

    def __post_init__(self) -> None:
        for name in ("s_oe_pk", "s_eo_pk", "s_oo_bgd", "s_ee_bgd"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be finite and > 0, got {v!r}")


def _solve(residual_fn, p0, names, is_log, weights=None, max_nfev=20000):
    """Run damped least squares in (partially) log space and package the result.

    p0 is given in external units; entries with is_log True are optimised as
    log(p).  Parameter errors come from the pseudo-inverse of J^T J scaled by
    the residual variance, mapped back through the log transform.
    """
    from scipy.optimize import least_squares  # deferred: the package's slowest import

    p0 = np.asarray(p0, dtype=float)
    is_log = np.asarray(is_log, dtype=bool)
    q0 = p0.copy()
    q0[is_log] = np.log(np.maximum(np.abs(p0[is_log]), 1e-300))

    def to_external(q):
        p = q.copy()
        p[is_log] = np.exp(q[is_log])
        return p

    def fun(q):
        r = residual_fn(to_external(q))
        return r if weights is None else r * weights

    res = least_squares(
        fun, q0, method="lm", xtol=1e-13, ftol=1e-13, gtol=1e-14, max_nfev=max_nfev
    )
    p = to_external(res.x)
    n, k = res.fun.size, res.x.size
    if n > k:
        s_sq = 2.0 * res.cost / (n - k)
    else:
        s_sq = 0.0
    cov_q = np.linalg.pinv(res.jac.T @ res.jac) * s_sq
    sig_q = np.sqrt(np.clip(np.diag(cov_q), 0.0, None))
    sig_p = np.where(is_log, np.abs(p) * sig_q, sig_q)
    return res, dict(zip(names, p.tolist())), dict(zip(names, sig_p.tolist()))


def _finish(res, params, sigmas, data_norm, meta=None) -> FitResult:
    resid = float(np.linalg.norm(res.fun)) / max(data_norm, np.finfo(float).tiny)
    if not res.success:
        raise FitConvergenceError(
            f"least squares did not converge (status {res.status}); "
            f"final relative residual {resid:.3e}"
        )
    return FitResult(
        params=params,
        sigmas=sigmas,
        residual_norm=resid,
        converged=True,
        n_iter=int(res.nfev),
        meta=meta or {},
    )


def _halfmax_width(x, y, offset) -> float:
    """Distance between the half-maximum crossings around the peak."""
    i0 = int(np.argmax(y))
    half = offset + (y[i0] - offset) / 2.0
    above = y >= half
    left = i0
    while left > 0 and above[left - 1]:
        left -= 1
    right = i0
    while right < len(y) - 1 and above[right + 1]:
        right += 1
    width = x[right] - x[left]
    if width <= 0:
        width = (x[-1] - x[0]) / 10.0
    return float(width)


def _check_peak_data(x, y, min_points=8):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ParameterError("frequency and value arrays must have equal length")
    if x.size < min_points:
        raise ParameterError(f"need at least {min_points} points, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ParameterError("frequency and value arrays must be finite")
    if np.ptp(y) == 0:
        raise RankDeficiencyError("data is flat; peak parameters are unidentifiable")
    return x, y


def _peak_fit(freq, values, sigma, profile) -> FitResult:
    """Fit offset + profile(A, (G/2)^2, (f-f0)^2 + (G/2)^2) to a single peak."""
    x, y = _check_peak_data(freq, values)
    off0 = float(np.median(y))
    i0 = int(np.argmax(y))
    p0 = [x[i0], _halfmax_width(x, y, off0), y[i0] - off0, off0]

    def resid(p):
        f0, g, a, off = p
        h2 = (g / 2.0) ** 2
        return off + profile(a, h2, (x - f0) ** 2 + h2) - y

    weights = None if sigma is None else 1.0 / np.asarray(sigma, dtype=float)
    res, params, sigmas = _solve(
        resid, p0, ["center", "fwhm", "amplitude", "offset"],
        [False, True, False, False], weights,
    )
    return _finish(res, params, sigmas, float(np.linalg.norm(y)))


def lorentzian_fit(freq, values, sigma=None) -> FitResult:
    """Fit offset + A * (G/2)^2 / ((f-f0)^2 + (G/2)^2).

    Returns params center, fwhm, amplitude, offset.
    """
    return _peak_fit(freq, values, sigma, lambda a, h2, den: a * h2 / den)


def sqrt_lorentzian_fit(freq, values, sigma=None) -> FitResult:
    """Fit offset + A * sqrt((G/2)^2 / ((f-f0)^2 + (G/2)^2)).

    The square-root profile is the amplitude (not power) response of a
    Lorentzian transducer line; params as in lorentzian_fit.
    """
    return _peak_fit(freq, values, sigma, lambda a, h2, den: a * np.sqrt(h2 / den))


def optical_s11_fit(mod_freq_hz, magnitude, carrier_detuning_guess_hz) -> FitResult:
    """Fit |three_tone_s11| to a sideband sweep: kappa_i, kappa_e, carrier detuning.

    All returned rates are ordinary frequencies (Hz).  Both coupling branches
    (over- and under-coupled) are tried from deterministic starts; the lower
    residual wins and meta["undercoupled"] flags the branch.
    """
    x, y = _check_peak_data(mod_freq_hz, magnitude)
    d0 = float(carrier_detuning_guess_hz)
    if not np.isfinite(d0):
        raise ParameterError(f"carrier detuning guess must be finite, got {d0!r}")
    # the dip marks where the lower sideband crosses the cavity
    depth = float(y.min())
    dip_width = _halfmax_width(x, -y, -float(np.median(y)))
    # under the r-convention used here the |S11| dip FWHM is ~kappa/2 (in Hz)
    kappa0 = max(2.0 * dip_width, (x[-1] - x[0]) / 20.0)
    om = 2 * np.pi * x

    def resid(p):
        # exp of a log-parameterised rate can underflow to 0; keep it positive
        ki = max(float(p[0]), 1e-9)
        ke = max(float(p[1]), 1e-9)
        s = _three_tone(2 * np.pi * (ki + ke), 2 * np.pi * ke, 2 * np.pi * p[2], om)
        return np.abs(s) - y

    best = None
    for eta0 in ((1.0 + depth) / 2.0, max((1.0 - depth) / 2.0, 0.05)):
        eta0 = min(max(eta0, 0.02), 0.98)
        p0 = [kappa0 * (1 - eta0), kappa0 * eta0, d0]
        try:
            res, params, sigmas = _solve(
                resid, p0, ["kappa_i_hz", "kappa_e_hz", "delta0_hz"], [True, True, False],
            )
        except FitConvergenceError:
            continue
        if best is None or res.cost < best[0].cost:
            best = (res, params, sigmas)
    if best is None:
        raise FitConvergenceError("optical S11 fit failed from both coupling starts")
    res, params, sigmas = best
    kappa_hz = params["kappa_i_hz"] + params["kappa_e_hz"]
    eta_o = params["kappa_e_hz"] / kappa_hz
    meta = {"kappa_hz": kappa_hz, "eta_o": eta_o, "undercoupled": bool(eta_o < 0.5)}
    return _finish(res, params, sigmas, float(np.linalg.norm(y)), meta)


def g0_from_damping(points, cavity: OpticalCavity, delta: float, omega_m: float,
                    sigmas=None) -> FitResult:
    """Vacuum coupling rate from the linewidth-vs-photon-number trend.

    Fits gamma(n_c) = gamma_m0 + slope * n_c and converts the slope through
    g0 = sqrt(slope / (L+ - L-)) at the given pump detuning.  gamma values
    and the returned g0/gamma_m0 are angular rates (rad/s).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ParameterError("points must be (n_c, gamma) pairs")
    if not np.isfinite(delta):
        raise ParameterError(f"pump detuning must be finite, got {delta!r}")
    n_c, gam = pts[:, 0], pts[:, 1]
    if np.unique(n_c).size < 2:
        raise RankDeficiencyError("all photon numbers identical; slope is unidentifiable")
    if pts.shape[0] < 3:
        raise ParameterError("need at least 3 points for a meaningful linear fit")

    w = np.ones_like(gam) if sigmas is None else 1.0 / np.asarray(sigmas, dtype=float)
    a = np.column_stack([n_c, np.ones_like(n_c)]) * w[:, None]
    b = gam * w
    sol, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    if rank < 2:
        raise RankDeficiencyError("degenerate design matrix in damping fit")
    slope, intercept = sol
    resid = a @ sol - b
    dof = max(len(b) - 2, 1)
    s_sq = float(resid @ resid) / dof if len(b) > 2 else 0.0
    cov = np.linalg.inv(a.T @ a) * s_sq
    sig_slope, sig_intercept = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    lp, lm = _sideband_lorentzians(cavity, omega_m, delta)
    contrast = lp - lm
    if slope * contrast <= 0:
        raise SignConventionError(
            f"fitted slope {slope:.3e} and sideband contrast {contrast:.3e} disagree in "
            "sign; check the detuning convention"
        )
    g0 = float(np.sqrt(slope / contrast))
    sig_g0 = float(sig_slope / (2.0 * g0 * abs(contrast)))
    rel = float(np.linalg.norm(resid / w)) / max(float(np.linalg.norm(gam)), 1e-300)
    return FitResult(
        params={"g0": g0, "gamma_m0": float(intercept)},
        sigmas={"g0": sig_g0, "gamma_m0": float(sig_intercept)},
        residual_norm=rel,
        converged=True,
        n_iter=1,
        meta={"slope": float(slope), "sideband_contrast": float(contrast)},
    )


def bcs_resonance_fit(points, c_match: float = 19e-15) -> FitResult:
    """Fit the matching-resonance-vs-temperature curve.

    points are (temperature_K, frequency_Hz) pairs; c_match is the fixed
    resonator capacitance (it is fully degenerate with the inductance scale,
    so it must be supplied).  Returns t_c, l_kinetic_0, l_geometric; t_c is
    parameterised as max(T) + exp(u) so the fitted film is superconducting
    over the whole data span.
    """
    if not (np.isfinite(c_match) and c_match > 0):
        raise ParameterError(f"c_match must be finite and > 0, got {c_match!r}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ParameterError("points must be (kelvin, hertz) pairs")
    if pts.shape[0] < 4:
        raise ParameterError("need at least 4 temperatures")
    t, f = pts[:, 0], pts[:, 1]
    if np.ptp(t) == 0:
        raise RankDeficiencyError("all points isothermal; temperature curve unidentifiable")
    t_max = float(t.max())

    def curve(t_arr, t_c, lk0, lg):
        model = KineticInductanceModel(l_geometric=lg, l_kinetic_0=lk0, t_c=t_c)
        l_tot = np.asarray(kinetic_inductance_at(model, t_arr))
        return 1.0 / (2.0 * np.pi * np.sqrt(l_tot * c_match))

    l_low = 1.0 / ((2.0 * np.pi * f[np.argmin(t)]) ** 2 * c_match)
    p0 = [0.5, 0.5 * l_low, 0.5 * l_low]  # t_c excess over max(T), lk0, lg

    # all three are log-parameterised by _solve, so t_c = t_max + exp(q) stays
    # above every data temperature and the inductances stay positive
    def resid_ext(p):
        u_ext, lk0, lg = p
        return curve(t, t_max + u_ext, lk0, lg) - f

    res, params, sigmas = _solve(
        resid_ext, p0, ["t_c_excess", "l_kinetic_0", "l_geometric"],
        [True, True, True],
    )
    t_c = t_max + params.pop("t_c_excess")
    params = {"t_c": t_c, **params}
    sigmas = {"t_c": sigmas.pop("t_c_excess"), **sigmas}
    return _finish(res, params, sigmas, float(np.linalg.norm(f)), {"c_match": c_match})


def bidirectional_efficiency(q: SParamQuad) -> float:
    """Conversion efficiency from four calibrating amplitudes.

    eta = S_OE,pk * S_EO,pk / (S_OO,bgd * S_EE,bgd); exactly symmetric under
    exchanging the up- and down-conversion peaks.
    """
    return (q.s_oe_pk * q.s_eo_pk) / (q.s_oo_bgd * q.s_ee_bgd)
