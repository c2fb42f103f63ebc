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
weights (the default; matches the counting experiment) or the nodes and
weights of a trapezoid rule for the Gaussian, sized from the longest
in-pulse time evaluated so that it is exact to round-off (used for
calibration, where bisection needs a noise-free objective).  The mean over
time separates: each offset contributes a weight p_j Omega^2 /
(gamma^2/4 + delta_j^2) times a beat term sin^2(delta_j u / 2) at the
in-pulse time u = min(t, T), and every post-pulse point is the mean at
the pulse end times e^{-gamma (t - T)}.  The ensemble is therefore
evaluated only at the distinct in-pulse times.  On a trace those times
are usually an even lattice (a linspace grid), and the beat is summed
there by angle addition from every 16th time, so a draw takes a few trig
calls per 16 times instead of one per time (see _lattice_beat); every
other ensemble keeps one sine per draw and time.
The conversion spectrum, one readout instant over many drive offsets f_i,
does not go through _single_shot: its beat sin(pi (f_i - x_j) tin)
separates into trig functions of f_i and of x_j (see _readout_mean), so
it takes a few trig calls per offset and per draw, not one per pair.

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

from .errors import CalibrationError, FitConvergenceError, ParameterError, TableRangeError
from .optomech import DriveTone, mechanics_to_optics_efficiency, swap_probability

if TYPE_CHECKING:  # pragma: no cover
    from .device import DeviceModel

__all__ = [
    "PulseSchedule",
    "JitterModel",
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
    "efficiency_budget",
    "thermal_vs_pulse_energy",
]


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
        if not (np.isfinite(self.mw_drive_rate) and self.mw_drive_rate >= 0):
            raise ParameterError(
                f"mw_drive_rate must be finite and >= 0, got {self.mw_drive_rate!r}"
            )
        if self.readout_delay_s is not None and not (
            np.isfinite(self.readout_delay_s) and self.readout_delay_s >= 0
        ):
            raise ParameterError(
                f"readout_delay_s must be finite and >= 0, got {self.readout_delay_s!r}"
            )

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
        if not (np.isfinite(self.intrinsic_gamma) and self.intrinsic_gamma > 0):
            raise ParameterError(
                f"intrinsic_gamma must be finite and > 0, got {self.intrinsic_gamma!r}"
            )
        if self.loading_penalty is not None and not (
            np.isfinite(self.loading_penalty) and self.loading_penalty >= 1.0
        ):
            raise ParameterError(
                f"loading_penalty must be finite and >= 1, got {self.loading_penalty!r}"
            )

    @property
    def is_quiet(self) -> bool:
        return self.distribution == "none" or self.sigma_hz == 0.0

    @property
    def is_calibrated(self) -> bool:
        return self.is_quiet or self.line_fwhm_hz is not None


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
# Elements per temporary of _ensemble_mean; results do not depend on it
_BLOCK_ELEMENTS = 1 << 18


# Half-width of the quadrature rule and its margin past the beat's reach,
# both in standard deviations, and the most nodes it may take
_RULE_SPAN = 9.0
_RULE_MAX_NODES = 4096


def _rule_size(j: JitterModel, u_max: float) -> tuple[float, int]:
    """Spacing (standard deviations) and node count of the quadrature rule (see _ensemble)."""
    s = 2.0 * np.pi * j.sigma_hz * min(u_max, 80.0 / j.intrinsic_gamma)
    h = 2.0 * np.pi / (s + _RULE_SPAN)
    return h, 2 * math.ceil(_RULE_SPAN / h) + 1


def _ensemble(j: JitterModel, method: str, n_mc: int, seed, u_max: float):
    """Jitter offsets x_j (Hz) and weights p_j of the ensemble mean.

    method="mc" draws n_mc seeded offsets with unit weights.  This is the one
    place that reads method.  method="quadrature" takes the trapezoid rule
    of N(0, sigma^2), sized for in-pulse times up to u_max: nodes z_k = k h
    standard deviations out to +-_RULE_SPAN, weights h e^{-z_k^2/2} / sqrt(2 pi).
    A shot is an entire function of the offset (the poles of 1 / (a^2 + delta^2)
    cancel against its numerator) whose beat oscillates at up to
    s = 2 pi sigma u radians per standard deviation, and the rule of spacing
    h aliases that content at 2 pi / h.  With h = 2 pi / (s + _RULE_SPAN) the
    Gaussian-broadened content left there is below e^{-40} (Trefethen and
    Weideman, SIAM Rev. 56 (2014) 385).  Past u = 80 / gamma, e^{-gamma u / 2}
    < e^{-40} and the shot is the Lorentzian 1 / (a^2 + delta^2) to that
    share, whose poles +-i a keep the aliasing below e^{-a s / (2 pi sigma)}
    = e^{-40} too, so s stops growing there.  A rule of more than
    _RULE_MAX_NODES nodes is refused rather than truncated.
    """
    if method == "mc":
        if n_mc < 1:
            raise ParameterError(f"n_mc must be >= 1, got {n_mc}")
        if seed is not None and seed < 0:
            raise ParameterError(f"seed must be a non-negative integer, got {seed}")
        return np.random.default_rng(seed).normal(0.0, j.sigma_hz, n_mc), np.ones(n_mc)
    if method == "quadrature":
        h, nodes = _rule_size(j, u_max)
        if nodes > _RULE_MAX_NODES:
            raise ParameterError(
                f"quadrature at sigma = {j.sigma_hz:.0f} Hz over {u_max * 1e6:.4g} us needs "
                f"{nodes} nodes, more than {_RULE_MAX_NODES}; use --method mc"
            )
        k = nodes // 2
        z = h * np.arange(-k, k + 1)
        return j.sigma_hz * z, h / math.sqrt(2.0 * np.pi) * np.exp(-0.5 * z * z)
    raise ParameterError(f"unknown method {method!r}")


def _dense_beat(half_u, deltas, w, chunk: int) -> np.ndarray:
    """sum_j w_j sin^2(delta_j u_k / 2) with one sine per draw and time (see _ensemble_mean)."""
    beat = np.zeros_like(half_u)
    # column blocks of at least two columns, so each keeps the full width's bits
    width = max(2, _BLOCK_ELEMENTS // min(chunk, deltas.size))
    edges = list(range(0, half_u.size, width)) + [half_u.size]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    for lo in range(0, deltas.size, chunk):
        for c0, c1 in zip(edges[:-1], edges[1:]):
            s = np.multiply.outer(deltas[lo : lo + chunk], half_u[c0:c1])
            np.sin(s, out=s)
            np.square(s, out=s)
            beat[c0:c1] += np.einsum("i,ij->j", w[lo : lo + chunk], s)
    return beat


def _ensemble_mean(
    t, deltas, p, gamma: float, omega_d: float, t_pulse: float, chunk: int | None = None,
    *, lattice: bool = False,
) -> np.ndarray:
    """Weighted mean of _single_shot(t, delta_j) over the offsets delta_j (rad/s).

    The offset enters only through the weight w_j = p_j Omega^2 / (a^2 + delta_j^2)
    and the beat term sin^2(delta_j u / 2) at the in-pulse time u = min(t, T);
    every post-pulse point is the mean at T times e^{-gamma (t - T)}.  So the
    ensemble is evaluated once per distinct u, and the offset-dependent sum
    sum_j w_j sin^2(delta_j u / 2) is accumulated as a matrix-vector product
    over chunks of _CHUNK_ELEMENTS / n_u offsets (or chunk offsets, when given).
    The product is an einsum rather than BLAS: it adds the offsets in a fixed
    order, so seeded results repeat bit for bit whatever the BLAS threading.
    With two or more distinct u, each column's sum is also independent of the
    other columns, so a subset of times with the same chunk gives the same bits.
    That also lets each chunk be taken in blocks of columns, each temporary
    holding about _BLOCK_ELEMENTS: the chunks fix the bits, the blocks only the
    memory.

    With lattice=True, the leading run of distinct u that lies on an even
    lattice (_lattice_run) is summed by _lattice_beat instead.  The rest goes
    through the dense kernel above, and so does every lattice time whose sum
    cancels to below _LATTICE_CANCEL of the terms it is formed from, where
    the expansion's round-off would be too large a share of it.  The lattice
    path agrees with the dense one to round-off, not bit for bit, so only the
    trace takes it.
    """
    a = gamma / 2.0
    u, where = np.unique(np.minimum(t, t_pulse), return_inverse=True)
    w = p * omega_d**2 / (a * a + deltas * deltas)
    n_lat = _lattice_run(u) if lattice else 0
    beat = np.empty_like(u)
    dense = np.ones(u.size, dtype=bool)
    if n_lat:
        beat[:n_lat], size = _lattice_beat(u[:n_lat], deltas, w)
        dense[:n_lat] = beat[:n_lat] < _LATTICE_CANCEL * size
    if dense.any():
        chunk = chunk or max(1, _CHUNK_ELEMENTS // u.size)
        beat[dense] = _dense_beat(0.5 * u[dense], deltas, w, chunk)
    rise = np.expm1(-a * u)
    mean_u = (rise * rise * w.sum() + 4.0 * np.exp(-a * u) * beat) / p.sum()
    return mean_u[where.reshape(t.shape)] * np.exp(-gamma * np.maximum(t - t_pulse, 0.0))


# Veltkamp's splitter 2^27 + 1: splits a double into two 26-bit halves
_SPLIT = 134217729.0


def _two_product(x, y):
    """x * y as hi + lo, exact for doubles (Dekker's product, no fma needed)."""
    hi = x * y
    xs, ys = x * _SPLIT, y * _SPLIT
    xh, yh = xs - (xs - x), ys - (ys - y)
    xl, yl = x - xh, y - yh
    return hi, ((xh * yh - hi) + xh * yl + xl * yh) + xl * yl


def _sin_cos_pi(x, tin: float):
    """sin and cos of pi x tin, with the product carried to double-double precision.

    A rounded angle is off by up to eps |pi x tin| radians; the angle's low
    part brings that back to round-off in the result, so the difference of two
    large, nearly equal angles stays accurate.
    """
    q, q_lo = _two_product(x, tin)
    hi, lo = _two_product(np.pi, q)
    lo = lo + np.pi * q_lo
    s, c = np.sin(hi), np.cos(hi)
    return s + c * lo, c - s * lo


# Lattice times per anchor of _lattice_beat, and draws per chunk
_LATTICE_STRIDE = 16
_LATTICE_CHUNK = 2048
# A time within this many ulps of its lattice point is on the lattice
_LATTICE_ULPS = 4
# A lattice sum below this share of its terms' size is summed densely instead
_LATTICE_CANCEL = 1.0 / 16.0


def _lattice_run(u) -> int:
    """Length of the leading run of the increasing times u that is evenly spaced.

    The run's spacing is h = (u_{n-1} - u_0) / (n - 1), and every u_k in it is
    within _LATTICE_ULPS ulps of u_0 + k h.  A linspace grid qualifies whole.
    A single time is no run.
    """
    if u.size < 2:
        return 0
    eps = np.finfo(float).eps
    gaps = np.diff(u)
    uneven = np.abs(gaps - gaps[0]) > 2 * _LATTICE_ULPS * eps * u[1:]
    n = int(np.argmax(uneven)) + 1 if uneven.any() else u.size
    while n > 2:
        h = (u[n - 1] - u[0]) / (n - 1)
        k = np.arange(n)
        off = np.abs(u[:n] - (u[0] + k * h)) > _LATTICE_ULPS * eps * u[:n]
        if not off.any():
            break
        n = int(np.argmax(off))
    return n if n > 1 else 0


def _lattice_beat(u, deltas, w) -> tuple[np.ndarray, np.ndarray]:
    """sum_j w_j sin^2(delta_j u_k / 2) on an even lattice u_k = u_0 + k h (see _lattice_run).

    Every B-th time (B = _LATTICE_STRIDE) is an anchor: with k = b B + r the
    angle is A_jb + R_jr, A_jb = delta_j u_{bB} / 2 and R_jr = delta_j r h / 2, and

        sin^2(A + R) = sA^2 cR^2 + 2 sA cA sR cR + cA^2 sR^2,

    so the sum over draws is three contractions of (anchors x draws) against
    (residuals x draws) arrays.  The residuals come from one sine and cosine
    per draw by rotation (doubling the rotated block each step), so a draw
    takes 2 K / B + 2 trig calls for K times instead of K.  A lattice time
    sits within _LATTICE_ULPS ulps of its u_k, so its angle is off by a few
    ulps, as the dense kernel's rounded angle is.  The contractions are
    einsums over chunks of _LATTICE_CHUNK draws in a fixed order, so seeded
    results repeat bit for bit whatever the BLAS threading, and no temporary
    holds more than about _BLOCK_ELEMENTS.

    Returns the sums and, per time, the size sum_j w_j (sA^2 cR^2 + cA^2 sR^2)
    of the terms they cancel from: where the beats of all draws pass close
    to zero together, the round-off of that size dominates the sum.
    """
    n = u.size
    stride = min(_LATTICE_STRIDE, n)
    half_anchor = 0.5 * u[::stride]
    half_step = 0.5 * (u[-1] - u[0]) / (n - 1)
    terms = np.zeros((3, half_anchor.size, stride))
    chunk = max(1, min(_LATTICE_CHUNK, _BLOCK_ELEMENTS // max(half_anchor.size, stride)))
    for lo in range(0, deltas.size, chunk):
        d, wd = deltas[lo : lo + chunk], w[lo : lo + chunk]
        angle = np.multiply.outer(half_anchor, d)
        s_a, c_a = np.sin(angle), np.cos(angle)
        s_r, c_r = np.empty((stride, d.size)), np.empty((stride, d.size))
        s_r[0], c_r[0] = 0.0, 1.0
        s, c = np.sin(d * half_step), np.cos(d * half_step)  # m steps, m = 1, 2, 4, ...
        m = 1
        while m < stride:
            k = min(m, stride - m)
            s_r[m : m + k] = s_r[:k] * c + c_r[:k] * s
            c_r[m : m + k] = c_r[:k] * c - s_r[:k] * s
            s, c = 2.0 * s * c, (c - s) * (c + s)
            m += k
        ws, wc = wd * s_a, wd * c_a
        terms[0] += np.einsum("bj,rj->br", ws * s_a, c_r * c_r)
        terms[1] += np.einsum("bj,rj->br", 2.0 * ws * c_a, s_r * c_r)
        terms[2] += np.einsum("bj,rj->br", wc * c_a, s_r * s_r)
    size = terms[0] + terms[2]
    return (size + terms[1]).ravel()[:n], size.ravel()[:n]


# Elements per temporary of the readout kernel: a few of them stay in cache
_READOUT_CHUNK_ELEMENTS = 1 << 15


def _readout_mean(offsets, x, p, gamma: float, omega_d: float, t_pulse: float, t_read: float):
    """Weighted mean of _single_shot(t_read, 2 pi (f_i - x_j)) over the draws x_j (Hz).

    At the fixed readout instant, with tin = min(t_read, T), a shot depends on
    d = 2 pi (f_i - x_j) only through g = 1 / (a^2 + d^2) and sin^2(d tin / 2).
    The sine separates: sin(theta_i - phi_j) = sin theta_i cos phi_j -
    cos theta_i sin phi_j with theta_i = pi f_i tin and phi_j = pi x_j tin,
    so the kernel takes 2 (n_f + n_draws) trig calls instead of n_f n_draws.
    The difference is formed before it is squared (expanding the square into
    three products leaves an absolute round-off that swamps a small beat),
    the angles keep their exact value (_sin_cos_pi), and g is formed in Hz
    from x_j - f_i, so a draw close to an offset keeps its relative accuracy.
    G = sum_j p_j g and B = sum_j p_j g sin^2 are accumulated over chunks of
    draws with einsum, in a fixed order, so seeded results repeat bit for bit.
    """
    a = gamma / 2.0
    tin = min(t_read, t_pulse)
    sin_f, cos_f = _sin_cos_pi(offsets, tin)
    sin_x, cos_x = _sin_cos_pi(x, tin)
    a_hz2 = (a / (2.0 * np.pi)) ** 2
    g_sum = np.zeros_like(offsets)
    b_sum = np.zeros_like(offsets)
    chunk = max(1, _READOUT_CHUNK_ELEMENTS // offsets.size)
    for lo in range(0, x.size, chunk):
        part = slice(lo, lo + chunk)
        g = np.subtract.outer(x[part], offsets)
        np.square(g, out=g)
        g += a_hz2
        np.reciprocal(g, out=g)
        b = np.multiply.outer(cos_x[part], sin_f)
        b -= np.multiply.outer(sin_x[part], cos_f)
        np.square(b, out=b)
        b *= g
        g_sum += np.einsum("i,ij->j", p[part], g)
        b_sum += np.einsum("i,ij->j", p[part], b)
    rise = np.expm1(-a * tin)
    decay = np.exp(-gamma * max(t_read - t_pulse, 0.0))
    return (
        omega_d**2
        * (rise * rise * g_sum + 4.0 * np.exp(-a * tin) * b_sum)
        / (4.0 * np.pi**2 * p.sum())
        * decay
    )


# Knot strides of the peak search, coarse to dense; the last must be 1
_PEAK_STRIDES = (128, 32, 8, 1)
# Relative round-off allowance of the peak search.  A sum of n nonnegative
# terms is off by at most ~n eps relative (~1e-12 at 1e4 draws), so each bound
# is widened by this plus 4 n eps.
_BOUND_SLACK = 1e-9


def _in_pulse_peak(t, deltas, p, gamma: float) -> tuple[int, float]:
    """First argmax of _ensemble_mean on an increasing in-pulse grid, and its value.

    Exact multi-level branch-and-bound over the grid for a unit drive.  The
    mean is first evaluated at every _PEAK_STRIDES[0]-th point and the last
    one.  Each shot obeys |beta_j(u)| <= min(u, 2 / sqrt(a^2 + delta_j^2)) and
    |beta_j'(u)| = e^{-a u}, so on an interval [u0, u1] between evaluated
    points the mean's slope is at most
    L = 2 e^{-a u0} sum_j p_j min(u1, 2 / sqrt(a^2 + delta_j^2)) / sum_j p_j,
    and the mean inside is at most (m0 + m1) / 2 + L (u1 - u0) / 2.  At each
    further stride, the intervals whose bound, widened by the round-off slack,
    falls below the best value so far are dropped, and the points of that
    stride inside the others are evaluated in one call; at stride 1 that is
    every remaining point.  Unevaluated points stay -inf.  Every evaluated
    column uses the dense call's offset chunks, so it carries the dense bits,
    and every skipped one lies strictly below the maximum: the index is the
    dense np.argmax's, first-index ties included.
    """
    n = t.size
    chunk = max(1, _CHUNK_ELEMENTS // n)
    a = gamma / 2.0
    cap = 2.0 / np.sqrt(a * a + deltas * deltas)
    # the slope bounds take the intervals in blocks of about _BLOCK_ELEMENTS
    rows = max(1, _BLOCK_ELEMENTS // deltas.size)
    slack = _BOUND_SLACK + 4 * deltas.size * np.finfo(float).eps
    mean = np.full(n, -np.inf)
    knots = np.unique(np.append(np.arange(0, n, _PEAK_STRIDES[0]), n - 1))
    mean[knots] = _ensemble_mean(t[knots], deltas, p, gamma, 1.0, t[-1], chunk)
    lo, hi = knots[:-1], knots[1:]
    for stride in _PEAK_STRIDES[1:]:
        gap = hi - lo > 1
        lo, hi = lo[gap], hi[gap]
        if not lo.size:
            break
        reach = np.concatenate([
            np.minimum.outer(t[hi[i : i + rows]], cap) @ p for i in range(0, hi.size, rows)
        ]) / p.sum()
        slope = 2.0 * np.exp(-a * t[lo]) * reach
        upper = 0.5 * (mean[lo] + mean[hi] + slope * (t[hi] - t[lo]))
        live = upper * (1.0 + slack) >= mean.max()
        edges = [np.append(np.arange(i, k, stride), k) for i, k in zip(lo[live], hi[live])]
        if not edges:
            break
        cols = np.concatenate([e[1:-1] for e in edges])
        if cols.size == 1:
            # einsum sums a lone column as a contiguous dot product, in another order
            cols = np.append(cols, knots[0])
        if cols.size:
            mean[cols] = _ensemble_mean(t[cols], deltas, p, gamma, 1.0, t[-1], chunk)
        lo = np.concatenate([e[:-1] for e in edges])
        hi = np.concatenate([e[1:] for e in edges])
    i_star = int(np.argmax(mean))
    return i_star, float(mean[i_star])


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
    draws; method="quadrature" integrates the Gaussian with the trapezoid
    rule of _ensemble, sized for the longest in-pulse time on the grid.  Both
    are deterministic, and a seeded trace repeats bit for bit.
    The leading evenly spaced run of in-pulse times is summed by the lattice
    kernel (_lattice_beat) and any other time by the dense one; both agree
    with a long-double evaluation of the per-shot formula to 1e-11 relative,
    or to a few ulps of each shot's angle where beats pass close to zero.
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0:
        raise ParameterError("t_grid must not be empty")
    if not np.all(t >= 0):
        raise ParameterError("t_grid times must be >= 0")
    if not np.isfinite(detuning_hz):
        raise ParameterError(f"detuning_hz must be finite, got {detuning_hz!r}")
    gamma, om, tp = j.intrinsic_gamma, s.mw_drive_rate, s.mw_duration_s
    x, p = _ensemble(j, method, n_mc, seed, min(t.max(), tp))

    if j.is_quiet:
        pop = _single_shot(t, 2 * np.pi * detuning_hz, gamma, om, tp)
        return PopulationTrace(t, pop, 0, seed, "analytic", 0.0)

    pop = _ensemble_mean(t, 2 * np.pi * (detuning_hz + x), p, gamma, om, tp, lattice=True)
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
    fixed seed gives a smooth, reproducible line.  A jittered ensemble is
    summed by the separable readout kernel (_readout_mean), which agrees with
    the per-shot formula to ~1e-14 relative; a quiet model is one shot per
    offset.
    """
    f = np.asarray(freq_grid_hz, dtype=float)
    if f.size == 0:
        raise ParameterError("freq_grid must not be empty")
    if not np.all(np.isfinite(f)):
        raise ParameterError("freq_grid must be finite")
    gamma, om, tp = j.intrinsic_gamma, s.mw_drive_rate, s.mw_duration_s
    t_read = s.readout_at
    x, p = _ensemble(j, method, n_mc, seed, min(t_read, tp))

    offsets = f - mode_freq_hz
    if j.is_quiet:
        counts = _single_shot(t_read, 2 * np.pi * offsets, gamma, om, tp)
    else:
        counts = _readout_mean(offsets, x, p, gamma, om, tp, t_read)
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
    sigma is bracketed on [1 Hz, target / 2]: on the default grid, sigma =
    target / 2 gives a width above the target for targets from 28 kHz to
    4 MHz.
    """
    from ._solvers import brent_root
    from .extraction import lorentzian_fit

    if not (np.isfinite(target_fwhm_hz) and target_fwhm_hz > 0):
        raise ParameterError(f"target_fwhm_hz must be finite and > 0, got {target_fwhm_hz!r}")
    grid = np.linspace(-span_hz, span_hz, n_points)

    def excess_width(sigma_hz: float) -> float:
        jm = JitterModel("gaussian-quasi-static", sigma_hz, intrinsic_gamma)
        spec = conversion_spectrum(schedule, jm, grid, 0.0, method="quadrature")
        return lorentzian_fit(spec[:, 0], spec[:, 1]).params["fwhm"] - target_fwhm_hz

    lo, hi = 1.0, target_fwhm_hz / 2.0
    f_lo = excess_width(lo)
    if f_lo >= 0:
        raise CalibrationError(
            f"pulse-limited linewidth {f_lo + target_fwhm_hz:.0f} Hz already exceeds the "
            f"{target_fwhm_hz:.0f} Hz target; no positive sigma fits"
        )
    f_hi = excess_width(hi)
    if f_hi <= 0:
        raise CalibrationError(
            f"the fitted width is {f_lo + target_fwhm_hz:.0f} Hz at sigma = {lo:.0f} Hz and "
            f"{f_hi + target_fwhm_hz:.0f} Hz at sigma = {hi:.0f} Hz; neither end reaches "
            f"the {target_fwhm_hz:.0f} Hz target from the other side"
        )
    sigma = brent_root(excess_width, lo, hi, f_lo, f_hi, xtol=0.5)
    return JitterModel(
        "gaussian-quasi-static", float(sigma), intrinsic_gamma, line_fwhm_hz=target_fwhm_hz
    )


def anchor_loading_window(
    j: JitterModel, penalty_target: float = 6.9, *, bracket=(5e-6, 2e-3)
) -> JitterModel:
    """Solve the effective loading window reproducing a stated penalty.

    The quasi-static model's penalty grows monotonically with pulse length,
    so a target reduction maps to a unique window; the result is stored on
    the model as loading_window_s.  The root is bracketed by doubling the
    window from bracket[0], up to bracket[1], until the penalty reaches the
    target, so a long window (whose quadrature rule takes more nodes) is
    evaluated only when the target needs it.
    """
    from ._solvers import brent_root

    if j.is_quiet:
        raise CalibrationError("a quiet jitter model has no loading penalty to anchor")
    if not j.is_calibrated:
        raise CalibrationError("calibrate sigma against the measured linewidth first")
    if penalty_target <= 1.0:
        raise ParameterError("penalty_target must exceed 1")
    shortest, longest = bracket

    def excess_penalty(tp: float) -> float:
        return loading_efficiency_penalty(j, tp, method="quadrature").value - penalty_target

    lo = hi = shortest
    f_lo = f_hi = excess_penalty(lo)
    if f_lo > 0:
        raise CalibrationError(
            f"penalty target {penalty_target} too low: a {lo*1e6:.0f} us loading window "
            f"already reaches {f_lo + penalty_target:.2f} at sigma = {j.sigma_hz:.0f} Hz"
        )
    while f_hi < 0:
        if hi >= longest:
            raise CalibrationError(
                f"penalty target {penalty_target} unreachable: even a {hi*1e6:.0f} us "
                f"loading window only reaches {f_hi + penalty_target:.2f} at sigma = "
                f"{j.sigma_hz:.0f} Hz"
            )
        lo, f_lo = hi, f_hi
        hi = min(2.0 * hi, longest)
        if _rule_size(j, hi)[1] > _RULE_MAX_NODES:
            raise CalibrationError(
                f"penalty target {penalty_target} unreachable: {f_lo + penalty_target:.2f} at "
                f"a {lo*1e6:.0f} us loading window, and the quadrature rule for {hi*1e6:.0f} us "
                f"at sigma = {j.sigma_hz:.0f} Hz needs more than {_RULE_MAX_NODES} nodes"
            )
        f_hi = excess_penalty(hi)
    window = brent_root(excess_penalty, lo, hi, f_lo, f_hi, xtol=1e-9)
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

    Peaks are taken at the optimal readout instant for each case, on a grid of
    t_points >= 2 instants spanning the loading pulse.  The jittered peak is
    the first argmax of the ensemble mean on that grid, found by an exact
    multi-level branch-and-bound (_in_pulse_peak): the mean is evaluated at
    every 128th instant and the last, then a slope bound on each interval
    between evaluated instants rules out the intervals that cannot reach the
    best value so far, each bound widened by a relative slack of
    1e-9 + 4 n eps for n offsets, and every 32nd, 8th and finally every
    instant of the remaining intervals is evaluated in turn, with the full
    grid's offset chunks.  So the index, value and mc_error are bit-identical
    to evaluating every instant.  With an explicit pulse_s any
    jitter model is accepted; without one, the model's anchored
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
    if not (np.isfinite(pulse_s) and pulse_s > 0):
        raise ParameterError(f"pulse_s must be finite and > 0, got {pulse_s!r}")
    if t_points < 2:
        raise ParameterError(f"t_points must be >= 2, got {t_points}")
    x, p = _ensemble(j, method, n_mc, seed, pulse_s)
    if method == "mc" and n_mc < 2:
        raise ParameterError(f"n_mc must be >= 2 for a Monte Carlo error, got {n_mc}")

    if j.is_quiet:
        return PenaltyResult(1.0, 0.0, 0.0, pulse_s, 0, seed, "analytic")

    t = np.linspace(0.0, pulse_s, t_points)
    gamma = j.intrinsic_gamma
    deltas = 2 * np.pi * x
    i_star, peak = _in_pulse_peak(t, deltas, p, gamma)
    value = float(_single_shot(t, 0.0, gamma, 1.0, pulse_s).max() / peak)
    if method == "quadrature":
        return PenaltyResult(value, 0.0, j.sigma_hz, pulse_s, 0, None, "quadrature")
    at_peak = _single_shot(t[i_star], deltas, gamma, 1.0, pulse_s)
    se = at_peak.std(ddof=1) / np.sqrt(n_mc)
    return PenaltyResult(
        value, float(value * se / peak), j.sigma_hz, pulse_s, n_mc, seed, "mc"
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
    sigma = 0, where it recovers tau = 2/gamma exactly.  A trace that is
    already flat from its second sample does not resolve tau: the fit fails
    (FitConvergenceError) when tau comes out below the spacing of the first
    two samples, or when the residuals do not depend on it at all.
    """
    from ._solvers import levenberg_marquardt
    from .extraction import _require_every_column

    t, y = _fit_points(t, population, "rise-time fit")

    def resid(p):
        a, tau = p
        rise = -np.expm1(-t / tau)
        return a * rise * rise - y

    res = levenberg_marquardt(resid, [float(y.max()), float(t.max() / 3.0)])
    _require_every_column(res, ("amplitude", "rise_time"))
    tau = float(abs(res.x[1]))
    if not tau >= t[1] - t[0]:
        raise FitConvergenceError(
            f"rise time {tau:.3g} s is below the {t[1] - t[0]:.3g} s sample spacing: "
            "the trace is saturated before its second sample"
        )
    return tau


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
