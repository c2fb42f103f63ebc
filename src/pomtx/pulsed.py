"""Time-domain simulation of the pulsed conversion cycle.

One cycle: a square microwave pulse loads the mechanical mode, the mode
decays freely, and a short red-detuned optical pulse samples the remaining
population.  Shot-to-shot mechanical frequency jitter is modelled as
quasi-static: a single detuning draw per cycle.  For a shot with detuning
delta the coherent amplitude obeys

    dbeta/dt = -(gamma/2 + i delta) beta + Omega_d        (drive on)
    dbeta/dt = -(gamma/2 + i delta) beta                  (drive off)

with the closed-form solution used throughout.  The population |beta|^2 is
evaluated in a real, cancellation-free form (see _single_shot) that keeps
the t^2 rise at the start of the pulse.

Every ensemble is one weighted mean over jitter offsets x_j with weights
p_j, sum_j p_j f(x_j) / sum_j p_j.  The two methods differ only in where
(x_j, p_j) come from (see _ensemble): seeded Monte Carlo draws with unit
weights (the default; matches the counting experiment) or deterministic
Gauss-Hermite nodes and weights (used for calibration, where bisection
needs a noise-free objective).  The mean over time separates: each offset
contributes a weight p_j Omega^2 / (gamma^2/4 + delta_j^2) times a beat
term sin^2(delta_j u / 2) at the in-pulse time u = min(t, T), and every
post-pulse point is the mean at the pulse end times e^{-gamma (t - T)}.
The ensemble is therefore evaluated only at the distinct in-pulse times.

Calibration anchors
-------------------
The jitter scale sigma is fixed by requiring the Lorentzian-fit width of
the ensemble conversion line (readout at the end of the standard 26 us
pulse) to equal the measured linewidth.  The quasi-static Gaussian model
then under-predicts the observed loading-efficiency reduction at the
nominal pulse lengths (it gives ~2.2 at 26 us and ~3.8 at 50 us), so the
stated reduction is treated as a second calibration anchor: an effective
loading window is solved such that the model reproduces it.  Both anchors
are stored on the JitterModel and reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import CalibrationError, ParameterError, TableRangeError
from .optomech import (
    DriveTone,
    continuous_efficiency_shape,
    mechanics_to_optics_efficiency,
    swap_probability,
)

if TYPE_CHECKING:  # pragma: no cover
    from .device import DeviceModel

__all__ = [
    "PulseSchedule",
    "JitterModel",
    "CountModel",
    "BudgetStage",
    "EfficiencyBudget",
    "OperatingPoint",
    "PopulationTrace",
    "PenaltyResult",
    "mode_population_trace",
    "conversion_spectrum",
    "calibrate_jitter",
    "anchor_loading_window",
    "loading_efficiency_penalty",
    "fit_decay_rate",
    "fit_rise_time",
    "click_rate",
    "efficiency_budget",
    "per_pump_photon_efficiency",
    "thermal_vs_pulse_energy",
]

_GH_ORDER = 201


@dataclass(frozen=True)
class PulseSchedule:
    """Timing of one conversion cycle.

    mw_drive_rate is the effective coherent drive amplitude Omega_d (rad/s);
    the protocol's shapes and ratios are Omega_d-normalised, so its absolute
    value only sets the population scale.  readout_delay_s is measured from
    the start of the microwave pulse.
    """

    mw_freq_hz: float
    mw_duration_s: float
    mw_drive_rate: float = 1.0
    readout_delay_s: float | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mw_freq_hz) and self.mw_freq_hz > 0):
            raise ParameterError("mw_freq_hz must be > 0")
        if not (np.isfinite(self.mw_duration_s) and self.mw_duration_s > 0):
            raise ParameterError("mw_duration_s must be > 0")
        if self.mw_drive_rate < 0:
            raise ParameterError("mw_drive_rate must be >= 0")
        if self.readout_delay_s is not None and self.readout_delay_s < 0:
            raise ParameterError("readout_delay_s must be >= 0")

    @property
    def readout_at(self) -> float:
        """Readout instant; defaults to the end of the microwave pulse."""
        return self.mw_duration_s if self.readout_delay_s is None else self.readout_delay_s


_DISTRIBUTIONS = ("none", "gaussian-quasi-static")


@dataclass(frozen=True)
class JitterModel:
    """Quasi-static mechanical frequency jitter.

    sigma_hz is the r.m.s. frequency offset drawn once per cycle;
    intrinsic_gamma (rad/s) is the lifetime-limited energy decay rate that
    governs the single-shot dynamics.  line_fwhm_hz records the ensemble
    linewidth the model was calibrated to; loading_window_s records the
    effective pulse length reconciling the stated loading penalty.
    """

    distribution: str = "gaussian-quasi-static"
    sigma_hz: float = 0.0
    intrinsic_gamma: float = 1.0
    line_fwhm_hz: float | None = None
    loading_window_s: float | None = None
    loading_penalty: float | None = None

    def __post_init__(self) -> None:
        if self.distribution not in _DISTRIBUTIONS:
            raise ParameterError(
                f"distribution must be one of {_DISTRIBUTIONS}, got {self.distribution!r}"
            )
        if not (np.isfinite(self.sigma_hz) and self.sigma_hz >= 0):
            raise ParameterError(f"sigma_hz must be finite and >= 0, got {self.sigma_hz!r}")
        if self.distribution == "none" and self.sigma_hz != 0:
            raise ParameterError("distribution 'none' requires sigma_hz = 0")
        if self.intrinsic_gamma <= 0:
            raise ParameterError("intrinsic_gamma must be > 0")
        if self.loading_penalty is not None and self.loading_penalty < 1.0:
            raise ParameterError("loading_penalty must be >= 1")

    @property
    def is_quiet(self) -> bool:
        return self.distribution == "none" or self.sigma_hz == 0.0

    @property
    def is_calibrated(self) -> bool:
        return self.is_quiet or self.line_fwhm_hz is not None


@dataclass(frozen=True)
class CountModel:
    """Detection chain: path/filter/detector efficiency, dark rate, cycle rate."""

    eta_chain: float
    dark_rate: float = 0.0
    pulse_rate: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.eta_chain <= 1.0):
            raise ParameterError("eta_chain must lie in (0, 1]")
        if self.dark_rate < 0:
            raise ParameterError("dark_rate must be >= 0")
        if self.pulse_rate <= 0:
            raise ParameterError("pulse_rate must be > 0")


@dataclass(frozen=True)
class BudgetStage:
    name: str
    factor: float
    note: str


@dataclass(frozen=True)
class EfficiencyBudget:
    """Ordered multiplicative decomposition of the conversion efficiency."""

    stages: tuple[BudgetStage, ...]

    def __post_init__(self) -> None:
        for s in self.stages:
            if not (np.isfinite(s.factor) and 0.0 < s.factor <= 1.0):
                raise ParameterError(f"stage {s.name!r} factor must lie in (0, 1], got {s.factor!r}")

    @property
    def total(self) -> float:
        return math.prod(s.factor for s in self.stages)

    def as_dict(self) -> dict:
        return {
            "stages": [
                {"name": s.name, "factor": s.factor, "provenance": s.note} for s in self.stages
            ],
            "total": self.total,
        }


@dataclass(frozen=True)
class OperatingPoint:
    """Which mode and external conditions a budget is evaluated at."""

    mode: str
    temperature_k: float = 0.02
    optical_pulse: DriveTone | None = None


@dataclass(frozen=True)
class PopulationTrace:
    t_s: np.ndarray
    population: np.ndarray
    n_mc: int
    seed: int | None
    method: str
    sigma_hz: float


@dataclass(frozen=True)
class PenaltyResult:
    value: float
    mc_error: float
    sigma_hz: float
    pulse_s: float
    n_mc: int
    seed: int | None
    method: str


def _single_shot(t, delta, gamma: float, omega_d: float, t_pulse: float):
    """Closed-form |beta(t)|^2 for one quasi-static detuning draw.

    With a = gamma/2 and tin = min(t, T), the driven amplitude is
    Omega (1 - e^{-(a + i delta) tin}) / (a + i delta), whose squared modulus
    is written in the real, cancellation-free form

        Omega^2 [expm1(-a tin)^2 + 4 e^{-a tin} sin^2(delta tin / 2)] / (a^2 + delta^2)

    (it keeps the Omega^2 t^2 rise at t -> 0), times the free decay
    e^{-gamma max(t - T, 0)} after the pulse.
    """
    t = np.asarray(t, dtype=float)
    delta = np.asarray(delta, dtype=float)
    a = gamma / 2.0
    tin = np.minimum(t, t_pulse)
    rise = np.expm1(-a * tin)
    beat = np.sin(0.5 * delta * tin)
    return (
        omega_d**2
        * (rise * rise + 4.0 * np.exp(-a * tin) * beat * beat)
        / (a * a + delta * delta)
        * np.exp(-gamma * np.maximum(t - t_pulse, 0.0))
    )


_CHUNK_ELEMENTS = 2_000_000


@cache
def _unit_gaussian_rule() -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite nodes and weights of N(0, 1), computed once.

    hermegauss solves a _GH_ORDER x _GH_ORDER eigenproblem, which costs several
    times a whole quadrature spectrum, and calibration evaluates dozens of those.
    """
    nodes, weights = hermegauss(_GH_ORDER)
    weights = weights / np.sqrt(2.0 * np.pi)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _ensemble(j: JitterModel, method: str, n_mc: int, seed):
    """Jitter offsets x_j (Hz) and weights p_j of the ensemble mean.

    method="mc" draws n_mc seeded offsets with unit weights; method="quadrature"
    takes the _GH_ORDER Gauss-Hermite nodes and weights of the unit Gaussian,
    scaled to sigma_hz.  This is the one place that reads method.
    """
    if method == "mc":
        if n_mc < 1:
            raise ParameterError(f"n_mc must be >= 1, got {n_mc}")
        return np.random.default_rng(seed).normal(0.0, j.sigma_hz, n_mc), np.ones(n_mc)
    if method == "quadrature":
        nodes, weights = _unit_gaussian_rule()
        return j.sigma_hz * nodes, weights
    raise ParameterError(f"unknown method {method!r}")


def _ensemble_mean(t, deltas, p, gamma: float, omega_d: float, t_pulse: float) -> np.ndarray:
    """Weighted mean of _single_shot(t, delta_j) over the offsets delta_j (rad/s).

    The offset enters only through the weight w_j = p_j Omega^2 / (a^2 + delta_j^2)
    and the beat term sin^2(delta_j u / 2) at the in-pulse time u = min(t, T);
    every post-pulse point is the mean at T times e^{-gamma (t - T)}.  So the
    ensemble is evaluated once per distinct u, and the offset-dependent sum
    sum_j w_j sin^2(delta_j u / 2) is accumulated as a matrix-vector product
    over chunks of offsets, each temporary holding at most _CHUNK_ELEMENTS.
    The product is an einsum rather than BLAS: it adds the offsets in a fixed
    order, so seeded results repeat bit for bit whatever the BLAS threading.
    """
    a = gamma / 2.0
    u, where = np.unique(np.minimum(t, t_pulse), return_inverse=True)
    w = p * omega_d**2 / (a * a + deltas * deltas)
    half_u = 0.5 * u
    beat = np.zeros_like(u)
    chunk = max(1, _CHUNK_ELEMENTS // u.size)
    for lo in range(0, deltas.size, chunk):
        s = np.multiply.outer(deltas[lo : lo + chunk], half_u)
        np.sin(s, out=s)
        np.square(s, out=s)
        beat += np.einsum("i,ij->j", w[lo : lo + chunk], s)
    rise = np.expm1(-a * u)
    mean_u = (rise * rise * w.sum() + 4.0 * np.exp(-a * u) * beat) / p.sum()
    return mean_u[where.reshape(t.shape)] * np.exp(-gamma * np.maximum(t - t_pulse, 0.0))


def mode_population_trace(
    s: PulseSchedule,
    j: JitterModel,
    t_grid,
    *,
    detuning_hz: float = 0.0,
    n_mc: int = 10_000,
    seed: int | None = 12345,
    method: str = "mc",
) -> PopulationTrace:
    """Ensemble-averaged mode population over one cycle.

    detuning_hz is the nominal drive-minus-mode offset; each realization adds
    one quasi-static jitter draw on top.  method="mc" averages n_mc seeded
    draws in chunks (order-independent to well below 1e-10 relative);
    method="quadrature" integrates the Gaussian with Gauss-Hermite nodes and
    is deterministic.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ParameterError("t_grid must not be empty")
    if np.any(t < 0):
        raise ParameterError("t_grid times must be >= 0")
    if not np.isfinite(detuning_hz):
        raise ParameterError(f"detuning_hz must be finite, got {detuning_hz!r}")
    x, p = _ensemble(j, method, n_mc, seed)
    gamma, om, tp = j.intrinsic_gamma, s.mw_drive_rate, s.mw_duration_s

    if j.is_quiet:
        pop = _single_shot(t, 2 * np.pi * detuning_hz, gamma, om, tp)
        return PopulationTrace(t, pop, 0, seed, "analytic", 0.0)

    pop = _ensemble_mean(t, 2 * np.pi * (detuning_hz + x), p, gamma, om, tp)
    if method == "mc":
        return PopulationTrace(t, pop, n_mc, seed, "mc", j.sigma_hz)
    return PopulationTrace(t, pop, 0, None, "quadrature", j.sigma_hz)


def conversion_spectrum(
    s: PulseSchedule,
    j: JitterModel,
    freq_grid_hz,
    mode_freq_hz: float,
    *,
    n_mc: int = 10_000,
    seed: int | None = 12345,
    method: str = "mc",
) -> np.ndarray:
    """Readout population versus microwave drive frequency.

    Rows are (drive frequency Hz, mean population at the readout instant).
    The same draws are reused across the grid (common random numbers), so a
    fixed seed gives a smooth, reproducible line.
    """
    f = np.asarray(freq_grid_hz, dtype=float)
    if f.size == 0:
        raise ParameterError("freq_grid must not be empty")
    if not np.all(np.isfinite(f)):
        raise ParameterError("freq_grid must be finite")
    x, p = _ensemble(j, method, n_mc, seed)
    gamma, om, tp = j.intrinsic_gamma, s.mw_drive_rate, s.mw_duration_s
    t_read = s.readout_at

    offsets = f - mode_freq_hz
    if j.is_quiet:
        counts = _single_shot(t_read, 2 * np.pi * offsets, gamma, om, tp)
    else:
        counts = np.empty_like(offsets)
        # _single_shot holds up to four offsets x draws temporaries at once
        chunk = max(1, _CHUNK_ELEMENTS // (4 * x.size))
        for lo in range(0, offsets.size, chunk):
            d = 2 * np.pi * (offsets[lo : lo + chunk, None] - x[None, :])
            shots = _single_shot(t_read, d, gamma, om, tp)
            counts[lo : lo + chunk] = np.einsum("ij,j->i", shots, p) / p.sum()
    return np.column_stack([f, counts])


def calibrate_jitter(
    target_fwhm_hz: float,
    schedule: PulseSchedule,
    intrinsic_gamma: float,
    *,
    span_hz: float = 250e3,
    n_points: int = 201,
) -> JitterModel:
    """Solve for the Gaussian sigma that reproduces the measured linewidth.

    The objective is the Lorentzian-fit width of the quadrature ensemble
    spectrum on the given schedule (the same estimator applied to the
    measured line), evaluated on a fixed +-span_hz grid.  Deterministic.
    """
    from scipy.optimize import brentq

    from .extraction import lorentzian_fit

    if target_fwhm_hz <= 0:
        raise ParameterError("target_fwhm_hz must be > 0")
    grid = np.linspace(-span_hz, span_hz, n_points)

    def fitted_width(sigma_hz: float) -> float:
        jm = JitterModel("gaussian-quasi-static", sigma_hz, intrinsic_gamma) if sigma_hz > 0 \
            else JitterModel("none", 0.0, intrinsic_gamma)
        spec = conversion_spectrum(schedule, jm, grid, 0.0, method="quadrature")
        return lorentzian_fit(spec[:, 0], spec[:, 1]).params["fwhm"]

    base = fitted_width(0.0)
    if base >= target_fwhm_hz:
        raise CalibrationError(
            f"pulse-limited linewidth {base:.0f} Hz already exceeds the "
            f"{target_fwhm_hz:.0f} Hz target; no positive sigma fits"
        )
    sigma = brentq(lambda s: fitted_width(s) - target_fwhm_hz, 1.0, 3.0 * target_fwhm_hz, xtol=0.5)
    return JitterModel(
        "gaussian-quasi-static", float(sigma), intrinsic_gamma, line_fwhm_hz=target_fwhm_hz
    )


def anchor_loading_window(
    j: JitterModel, penalty_target: float = 6.9, *, bracket=(5e-6, 2e-3)
) -> JitterModel:
    """Solve the effective loading window reproducing a stated penalty.

    The quasi-static model's penalty grows monotonically with pulse length,
    so a target reduction maps to a unique window; the result is stored on
    the model as loading_window_s.
    """
    from scipy.optimize import brentq

    if j.is_quiet:
        raise CalibrationError("a quiet jitter model has no loading penalty to anchor")
    if not j.is_calibrated:
        raise CalibrationError("calibrate sigma against the measured linewidth first")
    if penalty_target <= 1.0:
        raise ParameterError("penalty_target must exceed 1")
    lo, hi = bracket

    def penalty(tp: float) -> float:
        return loading_efficiency_penalty(j, tp, method="quadrature").value

    p_hi = penalty(hi)
    if p_hi < penalty_target:
        raise CalibrationError(
            f"penalty target {penalty_target} unreachable: even a {hi*1e6:.0f} us "
            f"loading window only reaches {p_hi:.2f} at sigma = {j.sigma_hz:.0f} Hz"
        )
    window = brentq(lambda tp: penalty(tp) - penalty_target, lo, hi, xtol=1e-9)
    return replace(j, loading_window_s=float(window))


def loading_efficiency_penalty(
    j: JitterModel,
    pulse_s: float | None = None,
    *,
    n_mc: int = 10_000,
    seed: int | None = 12345,
    method: str = "mc",
    t_points: int = 2001,
) -> PenaltyResult:
    """Ratio of quiet to jittered ensemble peak population.

    Peaks are taken at the optimal readout instant for each case (searched
    over a dense grid spanning the loading pulse).  With an explicit pulse_s
    any jitter model is accepted; without one, the model's anchored
    loading_window_s is used and the model must be calibrated.  The Monte
    Carlo mc_error is the sample standard error (ddof=1) of the n_mc
    single-shot populations at the jittered peak instant, propagated to the
    ratio; it leaves out the scatter of the peak instant itself.
    """
    if pulse_s is None:
        if j.is_quiet:
            pulse_s = 26e-6
        else:
            if not j.is_calibrated:
                raise CalibrationError(
                    "jitter model is not calibrated; calibrate sigma (and the loading "
                    "window) or pass an explicit pulse_s"
                )
            if j.loading_window_s is None:
                raise CalibrationError(
                    "no anchored loading window on this model; run anchor_loading_window "
                    "or pass an explicit pulse_s"
                )
            pulse_s = j.loading_window_s
    if pulse_s <= 0:
        raise ParameterError("pulse_s must be > 0")
    x, p = _ensemble(j, method, n_mc, seed)
    if method == "mc" and n_mc < 2:
        raise ParameterError(f"n_mc must be >= 2 for a Monte Carlo error, got {n_mc}")

    if j.is_quiet:
        return PenaltyResult(1.0, 0.0, 0.0, pulse_s, 0, seed, "analytic")

    t = np.linspace(0.0, pulse_s, t_points)
    gamma = j.intrinsic_gamma
    deltas = 2 * np.pi * x
    mean = _ensemble_mean(t, deltas, p, gamma, 1.0, pulse_s)
    i_star = int(np.argmax(mean))
    value = float(_single_shot(t, 0.0, gamma, 1.0, pulse_s).max() / mean[i_star])
    if method == "quadrature":
        return PenaltyResult(value, 0.0, j.sigma_hz, pulse_s, 0, None, "quadrature")
    at_peak = _single_shot(t[i_star], deltas, gamma, 1.0, pulse_s)
    se = at_peak.std(ddof=1) / np.sqrt(n_mc)
    return PenaltyResult(
        value, float(value * se / mean[i_star]), j.sigma_hz, pulse_s, n_mc, seed, "mc"
    )


def _fit_points(t, population, what: str):
    t = np.asarray(t, dtype=float)
    y = np.asarray(population, dtype=float)
    if t.size < 3 or t.shape != y.shape:
        raise ParameterError(
            f"{what} needs at least 3 (t, population) points of matching shape, got "
            f"{t.size} times and {y.size} populations"
        )
    if not np.ptp(t) > 0:
        raise ParameterError(f"{what} needs a nonzero time span")
    return t, y


def fit_decay_rate(t, population) -> float:
    """Exponential decay rate from a log-linear least-squares fit (1/s)."""
    t, y = _fit_points(t, population, "decay-rate fit")
    if np.any(y <= 0):
        raise ParameterError("population must be positive for a log-linear decay fit")
    slope = np.polyfit(t, np.log(y), 1)[0]
    return float(-slope)


def fit_rise_time(t, population) -> float:
    """Saturation time constant tau of A (1 - exp(-t/tau))^2 on a rising trace.

    This is the amplitude-buildup form a coherently driven mode follows for
    sigma = 0, where it recovers tau = 2/gamma exactly.
    """
    from scipy.optimize import least_squares

    t, y = _fit_points(t, population, "rise-time fit")

    def resid(p):
        a, tau = p
        rise = -np.expm1(-t / tau)
        return a * rise * rise - y

    res = least_squares(resid, [float(y.max()), float(t.max() / 3.0)], method="lm")
    return float(abs(res.x[1]))


def click_rate(population: float, p_sw: float, c: CountModel) -> float:
    """Detected rate: pulse_rate * population * p_sw * eta_chain + dark_rate."""
    if population < 0:
        raise ParameterError("population must be >= 0")
    return c.pulse_rate * population * p_sw * c.eta_chain + c.dark_rate


def efficiency_budget(device: "DeviceModel", op: OperatingPoint) -> EfficiencyBudget:
    """Stage-by-stage conversion efficiency at an operating point.

    Stages: microwave line attenuation (config), power delivery into the
    motional resistance from the circuit model at the operating temperature,
    the jitter loading penalty (calibration anchor), and the pulsed
    mechanics-to-optics efficiency p_sw * eta_o.
    """
    from .em_circuit import electromechanical_efficiency

    if op.mode not in device.mechanical:
        raise ParameterError(
            f"budget stage 'electromechanical-network': unknown mode {op.mode!r}; "
            f"config defines {sorted(device.mechanical)}"
        )
    mode = device.mechanical[op.mode]

    att_db = device.losses.mw_line_attenuation_db
    att = 10.0 ** (-att_db / 10.0)
    stages = [
        BudgetStage(
            "mw-line-attenuation", att, f"config losses.mw_line_attenuation_db = {att_db}"
        )
    ]

    matching = device.matching_at(op.temperature_k)
    bvd = device.bvd_for(op.mode)
    eta_em = float(electromechanical_efficiency(matching, bvd, mode.omega_m))
    stages.append(
        BudgetStage(
            "electromechanical-network",
            eta_em,
            f"circuit model at {op.temperature_k} K, mode {op.mode}",
        )
    )

    penalty = device.jitter.loading_penalty
    if penalty is None:
        raise ParameterError(
            "budget stage 'jitter-loading-penalty': config jitter.loading_penalty is missing"
        )
    stages.append(
        BudgetStage(
            "jitter-loading-penalty",
            1.0 / penalty,
            f"config jitter.loading_penalty = {penalty} (calibration anchor)",
        )
    )

    pulse = op.optical_pulse
    if pulse is None:
        raise ParameterError(
            "budget stage 'mechanics-to-optics': operating point has no optical pulse"
        )
    p_sw = swap_probability(device.optical, mode, pulse)
    eta_mo = mechanics_to_optics_efficiency(p_sw, device.optical.eta_o)
    stages.append(
        BudgetStage(
            "mechanics-to-optics",
            eta_mo,
            f"p_sw = {p_sw:.4g} at {pulse.energy_at_device_j:.3g} J (device plane) "
            f"x eta_o = {device.optical.eta_o:.3g}",
        )
    )
    return EfficiencyBudget(stages=tuple(stages))


def per_pump_photon_efficiency(c0: float, eta_electrical: float, eta_o: float) -> float:
    """Total conversion efficiency per intracavity pump photon.

    Evaluates the continuous-conversion shape at n_c = 1 (cooperativity C0,
    linear regime for C0 << 1) times the optical outcoupling and the
    electrical-to-mechanical stage.
    """
    if c0 < 0:
        raise ParameterError("c0 must be >= 0")
    return 4.0 * continuous_efficiency_shape(c0) * eta_o * eta_electrical


def _isotonic(y: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators: nondecreasing projection of y."""
    means: list[float] = []
    sizes: list[int] = []
    for v in np.asarray(y, dtype=float):
        m, n = float(v), 1
        while means and means[-1] > m:
            n_prev = sizes.pop()
            m = (means.pop() * n_prev + m * n) / (n_prev + n)
            n += n_prev
        means.append(m)
        sizes.append(n)
    return np.repeat(means, sizes)


def thermal_vs_pulse_energy(table, energy_j: float) -> float:
    """Measured-noise lookup: thermal phonons versus optical pulse energy.

    The table rows (energy_j, n_th) are isotonic-regularised (absorption
    heating only grows with pulse energy) and interpolated linearly.
    Queries outside the tabulated span raise instead of extrapolating.
    """
    arr = np.asarray(table, dtype=float)
    if arr.size == 0:
        raise ParameterError("noise table is empty")
    arr = np.atleast_2d(arr)
    if arr.shape[1] != 2:
        raise ParameterError("noise table rows must be (energy_j, n_th)")
    e, n = arr[:, 0], arr[:, 1]
    if np.any(np.diff(e) <= 0):
        raise ParameterError("noise table energies must be strictly increasing")
    if not (e[0] <= energy_j <= e[-1]):
        raise TableRangeError(
            f"pulse energy {energy_j:.3g} J outside tabulated span "
            f"[{e[0]:.3g}, {e[-1]:.3g}] J; refusing to extrapolate"
        )
    return float(np.interp(energy_j, e, _isotonic(n)))
