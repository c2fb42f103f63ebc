"""Independent physics references and seeded fit-data generators.

Nothing here calls pomtx.  The device constants are those of the shipped
``paper_device`` config, recorded here so that a wrong value loaded by the
program shows up as a failed check instead of moving the reference with it.
Every rate below is ordinary frequency (Hz) unless the name says ``omega``.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

TWO_PI = 2.0 * math.pi
K_BOLTZMANN = 1.380649e-23  # J/K, exact in SI-2019

# paper_device, default mode 2.799GHz
KAPPA_HZ = 4.17e9
KAPPA_E_HZ = 2.54e9
MODES = {  # name: (freq_hz, gamma_hz, g0_hz)
    "2.799GHz": (2.799e9, 67e3, 700e3),
    "2.790GHz": (2.790e9, 191e3, 272e3),
}
DEFAULT_MODE = "2.799GHz"
TAU_ENERGY_S = 61.4e-6
C_RES_F = 0.17e-15
K_EFF_SQ = 1.59e-6
R_LOSS_OHM = 3.0
Z_SOURCE_OHM = 50.0
C_MATCH_F = 17.16e-15
MW_DURATION_S = 26e-6
TRACE_DURATION_S = 50e-6
JITTER_SIGMA_HZ = 27482.86888178036
LOADING_WINDOW_S = 9.980604007029865e-05
E14_DEFAULT_C_PER_CM2 = -0.1

# `pomtx budget` total for the paper device at any temperature in
# TEMPERATURE_BAND_K (the film's kinetic inductance is flat there).
BUDGET_TOTAL = 6.628733660533627e-08
TEMPERATURE_BAND_K = (0.01, 0.3)

_GH_NODES, _GH_WEIGHTS = hermegauss(161)
_GH_WEIGHTS = _GH_WEIGHTS / math.sqrt(TWO_PI)


# ---------------------------------------------------------------- pulsed


def single_shot_population(t, delta, gamma, t_pulse):
    """|beta(t)|^2 of one drive cycle at angular detuning delta (unit drive).

    During the pulse beta = (1 - exp(-s t))/s with s = gamma/2 + i delta;
    afterwards the population decays at gamma.  Broadcasts t against delta.
    """
    s = gamma / 2.0 + 1j * np.asarray(delta, dtype=float)
    t = np.asarray(t, dtype=float)
    loaded = np.abs(-np.expm1(-s * np.minimum(t, t_pulse)) / s) ** 2
    return loaded * np.exp(-gamma * np.clip(t - t_pulse, 0.0, None))


def ensemble_moments(t, mean_offset_hz, sigma_hz, gamma, t_pulse):
    """First and second moments of the single-shot population over the jitter.

    The detuning is Gaussian, mean_offset_hz + sigma_hz * N(0, 1); mean_offset_hz
    may be an array (one entry per frequency of a spectrum).  Returns (E[X],
    E[X^2]) with shape broadcast(t, mean_offset_hz).
    """
    t = np.asarray(t, dtype=float)[..., None]
    mu = np.asarray(mean_offset_hz, dtype=float)[..., None]
    x = single_shot_population(t, TWO_PI * (mu + sigma_hz * _GH_NODES), gamma, t_pulse)
    return x @ _GH_WEIGHTS, (x * x) @ _GH_WEIGHTS


def mc_standard_error(t, mean_offset_hz, sigma_hz, gamma, t_pulse, n_mc):
    """Standard error of an n_mc-draw Monte Carlo mean of the population."""
    m1, m2 = ensemble_moments(t, mean_offset_hz, sigma_hz, gamma, t_pulse)
    return np.sqrt(np.clip(m2 - m1 * m1, 0.0, None) / n_mc), m1


def penalty_standard_error(pulse_s, sigma_hz, gamma, n_mc, t_points=2001):
    """Standard error of the Monte Carlo loading penalty quiet_peak / mean(t*)."""
    t = np.linspace(0.0, pulse_s, t_points)
    m1, _ = ensemble_moments(t, 0.0, sigma_hz, gamma, pulse_s)
    i_star = int(np.argmax(m1))
    se, mean = mc_standard_error(t[i_star], 0.0, sigma_hz, gamma, pulse_s, n_mc)
    quiet_peak = float(single_shot_population(t, 0.0, gamma, pulse_s).max())
    penalty = quiet_peak / float(mean)
    return penalty * float(se) / float(mean), penalty


# ---------------------------------------------------------- optomechanics


def sideband_contrast(omega_m, kappa):
    """L+ - L- at the red sideband (detuning -omega_m), angular units."""
    delta = -omega_m
    lp = kappa / (kappa**2 / 4.0 + (delta + omega_m) ** 2)
    lm = kappa / (kappa**2 / 4.0 + (delta - omega_m) ** 2)
    return lp - lm


def red_sideband_linewidth_hz(n_c, mode=DEFAULT_MODE, g0_hz=None, gamma_hz=None):
    """Optically broadened mechanical linewidth gamma(n_c) in Hz."""
    f_m, gamma0, g0 = MODES[mode]
    g0 = g0 if g0_hz is None else g0_hz
    gamma0 = gamma0 if gamma_hz is None else gamma_hz
    contrast = sideband_contrast(TWO_PI * f_m, TWO_PI * KAPPA_HZ)
    omega = TWO_PI * gamma0 + np.asarray(n_c, dtype=float) * (TWO_PI * g0) ** 2 * contrast
    return omega / TWO_PI


def cooperativity(n_c, mode=DEFAULT_MODE):
    """C = n_c * 4 g0^2 / (kappa gamma_m0)."""
    _, gamma0, g0 = MODES[mode]
    return np.asarray(n_c, dtype=float) * 4.0 * g0**2 / (KAPPA_HZ * gamma0)


def three_tone_magnitude(mod_hz, kappa_hz, kappa_e_hz, carrier_hz):
    """|S11| of a phase-modulated carrier, r(D) = 1 - ke/(k/2 - 2iD)."""

    def r(d):
        return 1.0 - kappa_e_hz / (kappa_hz / 2.0 - 2j * d)

    om = np.asarray(mod_hz, dtype=float)
    r0 = r(carrier_hz)
    return np.abs((np.conj(r0) * r(carrier_hz + om) + r0 * np.conj(r(carrier_hz - om))) / 2.0)


# -------------------------------------------------------------- circuit


def _motional(omega_m, gamma_m):
    c_m = C_RES_F * K_EFF_SQ / (1.0 - K_EFF_SQ)
    l_m = 1.0 / (omega_m**2 * c_m)
    r_m = (gamma_m / omega_m**2) * (1.0 / K_EFF_SQ - 1.0) / C_RES_F
    return r_m, l_m, c_m


def matching_grid(l_h, c_f, mode=DEFAULT_MODE):
    """|S11| and delivery efficiency at the mode frequency for L, C arrays."""
    f_m, gamma_hz, _ = MODES[mode]
    omega = TWO_PI * f_m
    r_m, l_m, c_m = _motional(omega, TWO_PI * gamma_hz)
    z_mot = r_m + 1j * omega * l_m + 1.0 / (1j * omega * c_m)
    z_par = 1.0 / (1j * omega * (np.asarray(c_f) + C_RES_F) + 1.0 / z_mot)
    z_in = R_LOSS_OHM + 1j * omega * np.asarray(l_h) + z_par
    s11 = np.abs((z_in - Z_SOURCE_OHM) / (z_in + Z_SOURCE_OHM))
    v_node = z_par / (Z_SOURCE_OHM + z_in)
    eta = 0.5 * np.abs(v_node / z_mot) ** 2 * r_m * 8.0 * Z_SOURCE_OHM
    return s11, eta


def bcs_resonance_hz(t_k, t_c, l_kinetic_0, l_geometric, c_f):
    """Matching resonance of a BCS kinetic-inductance film at temperature t_k."""
    t = np.asarray(t_k, dtype=float)
    delta0 = 1.764 * K_BOLTZMANN * t_c
    delta = np.minimum(delta0, delta0 * 1.74 * np.sqrt(np.clip(1.0 - t / t_c, 0.0, None)))
    denom = (delta / delta0) * np.tanh(delta / (2.0 * K_BOLTZMANN * np.maximum(t, 1e-9)))
    l_tot = l_geometric + l_kinetic_0 / denom
    return 1.0 / (TWO_PI * np.sqrt(l_tot * c_f))


# ------------------------------------------------------------ piezo


def piezo_out_of_plane(phi_deg, e14_c_per_cm2=E14_DEFAULT_C_PER_CM2):
    """(e31, e32, Frobenius norm) of the rotated zincblende tensor, C/m^2."""
    e14 = e14_c_per_cm2 * 1e4
    b2 = math.cos(2.0 * math.radians(phi_deg))
    return -e14 / 2.0 * b2, e14 / 2.0 * b2, abs(e14) / 2.0 * math.sqrt(6.0)


# ---------------------------------------------------- seeded fit inputs


def lorentzian_data(rng, sqrt_profile=False):
    """Noisy (sqrt-)Lorentzian line around the default mode; returns x, y, truth."""
    f_m = MODES[DEFAULT_MODE][0]
    truth = {
        "center": f_m + rng.uniform(-20e3, 20e3),
        "fwhm": rng.uniform(50e3, 90e3),
        "amplitude": rng.uniform(0.5, 2.0),
        "offset": rng.uniform(0.0, 0.2),
    }
    x = np.linspace(f_m - 300e3, f_m + 300e3, 241)
    shape = (truth["fwhm"] / 2) ** 2 / ((x - truth["center"]) ** 2 + (truth["fwhm"] / 2) ** 2)
    if sqrt_profile:
        shape = np.sqrt(shape)
    y = truth["offset"] + truth["amplitude"] * shape
    y = y + rng.normal(0.0, 0.005 * truth["amplitude"], x.size)
    return x, y, truth


def s11_optical_data(rng):
    """Noisy three-tone sweep; returns x, y, truth, carrier guess for argv."""
    kappa = KAPPA_HZ * rng.uniform(0.9, 1.1)
    eta_o = rng.uniform(0.55, 0.65)
    carrier = rng.uniform(7.6e9, 8.4e9)
    x = np.linspace(4e9, 12e9, 801)
    y = three_tone_magnitude(x, kappa, eta_o * kappa, carrier) + rng.normal(0.0, 0.002, x.size)
    truth = {"kappa_hz": kappa, "eta_o": eta_o, "delta0_hz": carrier}
    return x, y, truth, carrier * (1.0 + rng.uniform(-0.03, 0.03))


def damping_data(rng):
    """Noisy linewidth-vs-photon-number points on the default mode.

    Two points sit at low photon number so that the fitted intercept gamma_m0
    is pinned, not extrapolated from a line that is 18x larger at the top.
    """
    n_c = np.sort(np.concatenate([rng.uniform(10.0, 100.0, 2), rng.uniform(100.0, 2500.0, 6)]))
    g0 = MODES[DEFAULT_MODE][2] * rng.uniform(0.85, 1.15)
    gamma0 = MODES[DEFAULT_MODE][1] * rng.uniform(0.9, 1.1)
    y = red_sideband_linewidth_hz(n_c, g0_hz=g0, gamma_hz=gamma0)
    y = y * (1.0 + rng.normal(0.0, 0.001, y.size))
    return n_c, y, {"g0_hz": g0, "gamma_m0_hz": gamma0}


def bcs_data(rng):
    """Matching resonance vs temperature with the config's C_match + C_res."""
    t = np.linspace(0.02, 7.4, 12)
    truth = {
        "t_c": rng.uniform(7.8, 8.4),
        "l_kinetic_0": 130e-9 * rng.uniform(0.85, 1.15),
        "l_geometric": 50e-9 * rng.uniform(0.85, 1.15),
    }
    f = bcs_resonance_hz(t, truth["t_c"], truth["l_kinetic_0"], truth["l_geometric"],
                         C_MATCH_F + C_RES_F)
    f = f * (1.0 + rng.normal(0.0, 1e-7, f.size))
    return t, f, truth


def write_csv(path, header, columns):
    """Write columns as a CSV with a header row and round-tripping floats."""
    rows = zip(*(np.asarray(c, dtype=float) for c in columns))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def read_csv(path):
    """Header and float rows of a CSV written by pomtx or write_csv."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data
