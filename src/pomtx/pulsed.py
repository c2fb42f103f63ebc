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
the t^2 rise at the start of the pulse.  Ensembles are averaged either by
seeded Monte Carlo (the default; matches the counting experiment) or by
deterministic Gauss-Hermite quadrature (used for calibration, where
bisection needs a noise-free objective).  The Monte Carlo mean separates:
each draw contributes a weight Omega^2 / (gamma^2/4 + delta^2) times a
beat term sin^2(delta u / 2) at the in-pulse time u = min(t, T), and every
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
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
from scipy.optimize import brentq, least_squares

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
    the start of the microwave pulse.  repetition_period_s must leave many
    mechanical lifetimes between cycles so the mode re-thermalises.
    """

    mw_freq_hz: float
    mw_duration_s: float
    mw_drive_rate: float = 1.0
    readout_delay_s: float | None = None
    optical_pulse: DriveTone | None = None
    repetition_period_s: float = 1e-3

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mw_freq_hz) and self.mw_freq_hz > 0):
            raise ParameterError("mw_freq_hz must be > 0")
        if not (np.isfinite(self.mw_duration_s) and self.mw_duration_s > 0):
            raise ParameterError("mw_duration_s must be > 0")
        if self.mw_drive_rate < 0:
            raise ParameterError("mw_drive_rate must be >= 0")
        if self.repetition_period_s <= 0:
            raise ParameterError("repetition_period_s must be > 0")
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
        if self.sigma_hz < 0:
            raise ParameterError("sigma_hz must be >= 0")
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


def _mc_mean(t, deltas, gamma: float, omega_d: float, t_pulse: float) -> np.ndarray:
    """Mean of _single_shot(t, delta_j) over the draws delta_j (rad/s).

    The draw enters only through the weight w_j = Omega^2 / (a^2 + delta_j^2)
    and the beat term sin^2(delta_j u / 2) at the in-pulse time u = min(t, T);
    every post-pulse point is the mean at T times e^{-gamma (t - T)}.  So the
    ensemble is evaluated once per distinct u, and the draw-dependent sum
    sum_j w_j sin^2(delta_j u / 2) is accumulated as a matrix-vector product
    over chunks of draws, each temporary holding at most _CHUNK_ELEMENTS.
    The product is an einsum rather than BLAS: it adds the draws in a fixed
    order, so seeded results repeat bit for bit whatever the BLAS threading.
    """
    a = gamma / 2.0
    u, where = np.unique(np.minimum(t, t_pulse), return_inverse=True)
    w = omega_d**2 / (a * a + deltas * deltas)
    half_u = 0.5 * u
    beat = np.zeros_like(u)
    chunk = max(1, _CHUNK_ELEMENTS // u.size)
    for lo in range(0, deltas.size, chunk):
        s = np.multiply.outer(deltas[lo : lo + chunk], half_u)
        np.sin(s, out=s)
        np.square(s, out=s)
        beat += np.einsum("i,ij->j", w[lo : lo + chunk], s)
    rise = np.expm1(-a * u)
    mean_u = (rise * rise * w.sum() + 4.0 * np.exp(-a * u) * beat) / deltas.size
    return mean_u[where.reshape(t.shape)] * np.exp(-gamma * np.maximum(t - t_pulse, 0.0))


def _check_n_mc(n_mc: int) -> None:
    if n_mc < 1:
        raise ParameterError(f"n_mc must be >= 1, got {n_mc}")


def _gh_nodes():
    nodes, weights = hermegauss(_GH_ORDER)
    return nodes, weights / np.sqrt(2.0 * np.pi)


def _draws(j: JitterModel, n_mc: int, seed):
    rng = np.random.default_rng(seed)
    if j.is_quiet:
        return np.zeros(n_mc)
    return rng.normal(0.0, j.sigma_hz, n_mc)


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
    if method == "mc":
        _check_n_mc(n_mc)
    gamma, om, tp = j.intrinsic_gamma, s.mw_drive_rate, s.mw_duration_s

    if j.is_quiet:
        pop = _single_shot(t, 2 * np.pi * detuning_hz, gamma, om, tp)
        return PopulationTrace(t, pop, 0, seed, "analytic", 0.0)

    if method == "quadrature":
        nodes, w = _gh_nodes()
        pop = np.zeros_like(t)
        for x, wi in zip(nodes, w):
            pop += wi * _single_shot(t, 2 * np.pi * (detuning_hz + j.sigma_hz * x), gamma, om, tp)
        return PopulationTrace(t, pop, 0, None, "quadrature", j.sigma_hz)

    if method != "mc":
        raise ParameterError(f"unknown method {method!r}")
    deltas = 2 * np.pi * (detuning_hz + _draws(j, n_mc, seed))
    pop = _mc_mean(t, deltas, gamma, om, tp)
    return PopulationTrace(t, pop, n_mc, seed, "mc", j.sigma_hz)


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
    if method == "mc":
        _check_n_mc(n_mc)
    gamma, om, tp = j.intrinsic_gamma, s.mw_drive_rate, s.mw_duration_s
    t_read = s.readout_at

    offsets = f - mode_freq_hz
    if j.is_quiet:
        counts = _single_shot(t_read, 2 * np.pi * offsets, gamma, om, tp)
    elif method == "quadrature":
        nodes, w = _gh_nodes()
        counts = np.zeros_like(offsets)
        for x, wi in zip(nodes, w):
            counts += wi * _single_shot(t_read, 2 * np.pi * (offsets - j.sigma_hz * x), gamma, om, tp)
    elif method == "mc":
        draws = _draws(j, n_mc, seed)
        counts = np.empty_like(offsets)
        chunk = max(1, _CHUNK_ELEMENTS // n_mc)
        for lo in range(0, offsets.size, chunk):
            d = 2 * np.pi * (offsets[lo : lo + chunk, None] - draws[None, :])
            counts[lo : lo + chunk] = _single_shot(t_read, d, gamma, om, tp).mean(axis=1)
    else:
        raise ParameterError(f"unknown method {method!r}")
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


def _penalty_quadrature(j: JitterModel, pulse_s: float, drive_rate: float = 1.0,
                        t_points: int = 2001) -> float:
    t = np.linspace(0.0, pulse_s, t_points)
    gamma = j.intrinsic_gamma
    quiet_peak = _single_shot(t, 0.0, gamma, drive_rate, pulse_s).max()
    if j.is_quiet:
        return 1.0
    nodes, w = _gh_nodes()
    mean = np.zeros_like(t)
    for x, wi in zip(nodes, w):
        mean += wi * _single_shot(t, 2 * np.pi * j.sigma_hz * x, gamma, drive_rate, pulse_s)
    return float(quiet_peak / mean.max())


def anchor_loading_window(
    j: JitterModel, penalty_target: float = 6.9, *, bracket=(5e-6, 2e-3)
) -> JitterModel:
    """Solve the effective loading window reproducing a stated penalty.

    The quasi-static model's penalty grows monotonically with pulse length,
    so a target reduction maps to a unique window; the result is stored on
    the model as loading_window_s.
    """
    if j.is_quiet:
        raise CalibrationError("a quiet jitter model has no loading penalty to anchor")
    if not j.is_calibrated:
        raise CalibrationError("calibrate sigma against the measured linewidth first")
    if penalty_target <= 1.0:
        raise ParameterError("penalty_target must exceed 1")
    lo, hi = bracket
    p_hi = _penalty_quadrature(j, hi)
    if p_hi < penalty_target:
        raise CalibrationError(
            f"penalty target {penalty_target} unreachable: even a {hi*1e6:.0f} us "
            f"loading window only reaches {p_hi:.2f} at sigma = {j.sigma_hz:.0f} Hz"
        )
    window = brentq(
        lambda tp: _penalty_quadrature(j, tp) - penalty_target, lo, hi, xtol=1e-9
    )
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
    if method == "mc":
        _check_n_mc(n_mc)

    if j.is_quiet:
        return PenaltyResult(1.0, 0.0, 0.0, pulse_s, 0, seed, "analytic")

    if method == "quadrature":
        value = _penalty_quadrature(j, pulse_s, t_points=t_points)
        return PenaltyResult(value, 0.0, j.sigma_hz, pulse_s, 0, None, "quadrature")
    if method != "mc":
        raise ParameterError(f"unknown method {method!r}")

    t = np.linspace(0.0, pulse_s, t_points)
    gamma = j.intrinsic_gamma
    quiet_peak = _single_shot(t, 0.0, gamma, 1.0, pulse_s).max()
    deltas = 2 * np.pi * _draws(j, n_mc, seed)
    mean = _mc_mean(t, deltas, gamma, 1.0, pulse_s)
    i_star = int(np.argmax(mean))
    at_peak = _single_shot(t[i_star], deltas, gamma, 1.0, pulse_s)
    se = at_peak.std(ddof=1) / np.sqrt(n_mc) if n_mc > 1 else 0.0
    value = float(quiet_peak / mean[i_star])
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
    y = y.astype(float).copy()
    w = np.ones_like(y)
    blocks = [[i] for i in range(len(y))]
    vals = list(y)
    wts = list(w)
    i = 0
    while i < len(vals) - 1:
        if vals[i] > vals[i + 1] + 0.0:
            merged_w = wts[i] + wts[i + 1]
            merged_v = (vals[i] * wts[i] + vals[i + 1] * wts[i + 1]) / merged_w
            vals[i : i + 2] = [merged_v]
            wts[i : i + 2] = [merged_w]
            blocks[i : i + 2] = [blocks[i] + blocks[i + 1]]
            i = max(i - 1, 0)
        else:
            i += 1
    out = np.empty_like(y)
    for v, idx in zip(vals, blocks):
        out[idx] = v
    return out


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
