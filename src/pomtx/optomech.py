"""Optical cavity response and the optomechanical interaction.

Covers the optical side of the transducer: single-tone reflection, the
three-tone (phase-modulation) reflection used to calibrate the cavity rates,
intracavity photon number, dynamical optomechanical damping, cooperativity,
pulse swap probability, Stokes leakage, and sideband-asymmetry thermometry.

Reflection convention: the single-tone coefficient is implemented as

    r(Delta) = 1 - kappa_e / (kappa/2 - 2i Delta)

Note the factor 2 in front of Delta.  Under this convention the half-depth
full width of the |r|^2 dip is kappa/2, not kappa; fitted kappa values
absorb the convention, so fits and forward model are self-consistent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentAsymmetryError, ParameterError

hbar = 6.62607015e-34 / (2 * math.pi)  # J s; h is exact in SI-2019

__all__ = [
    "OpticalCavity",
    "MechanicalMode",
    "DriveTone",
    "cavity_reflection",
    "three_tone_s11",
    "intracavity_photons",
    "optomechanical_damping",
    "cooperativity",
    "single_photon_cooperativity",
    "continuous_efficiency_shape",
    "swap_probability",
    "mechanics_to_optics_efficiency",
    "stokes_leakage",
    "thermal_occupation",
]


@dataclass(frozen=True)
class OpticalCavity:
    """Optical mode: resonance, total linewidth (FWHM), external coupling, all rad/s."""

    omega_c: float
    kappa: float
    kappa_e: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.omega_c) and self.omega_c > 0):
            raise ParameterError(f"omega_c must be > 0, got {self.omega_c!r}")
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ParameterError(f"kappa must be > 0, got {self.kappa!r}")
        if not (np.isfinite(self.kappa_e) and 0 < self.kappa_e <= self.kappa):
            raise ParameterError(
                f"kappa_e must satisfy 0 < kappa_e <= kappa, got {self.kappa_e!r}"
            )

    @property
    def kappa_i(self) -> float:
        """Intrinsic loss rate kappa - kappa_e."""
        return self.kappa - self.kappa_e

    @property
    def eta_o(self) -> float:
        """Overcoupling ratio kappa_e/kappa; the optical interface efficiency."""
        return self.kappa_e / self.kappa


@dataclass(frozen=True)
class MechanicalMode:
    """Mechanical mode: frequency, zero-power linewidth, vacuum coupling (rad/s).

    tau_energy is the energy decay time of the mode (s).  It is optional and,
    when present, sets the lifetime-limited linewidth 1/tau_energy used by the
    pulsed protocol; gamma_m0 is the measured (dephasing-broadened) linewidth
    that enters cooperativity and damping fits.
    """

    omega_m: float
    gamma_m0: float
    g0: float
    tau_energy: float | None = None

    def __post_init__(self) -> None:
        for name in ("omega_m", "gamma_m0", "g0"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be > 0, got {v!r}")
        if self.tau_energy is not None and not (
            np.isfinite(self.tau_energy) and self.tau_energy > 0
        ):
            raise ParameterError(f"tau_energy must be > 0, got {self.tau_energy!r}")


@dataclass(frozen=True)
class DriveTone:
    """Optical pump tone, continuous (power_w) or pulsed (energy_j + length_s).

    coupling_eta is the fiber-to-waveguide power efficiency; energies and
    powers are referenced to the fiber launch, and *_at_device properties
    give the on-chip values.
    """

    omega_l: float
    power_w: float | None = None
    energy_j: float | None = None
    length_s: float | None = None
    coupling_eta: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.omega_l) and self.omega_l > 0):
            raise ParameterError(f"omega_l must be > 0, got {self.omega_l!r}")
        if not (0.0 < self.coupling_eta <= 1.0):
            raise ParameterError(f"coupling_eta must lie in (0, 1], got {self.coupling_eta!r}")
        if (self.power_w is None) == (self.energy_j is None):
            raise ParameterError("specify exactly one of power_w (CW) or energy_j (pulsed)")
        if self.power_w is not None and self.power_w < 0:
            raise ParameterError("power_w must be >= 0")
        if self.energy_j is not None:
            if self.energy_j < 0:
                raise ParameterError("energy_j must be >= 0")
            if self.length_s is None or self.length_s <= 0:
                raise ParameterError("pulsed tone needs length_s > 0")

    @classmethod
    def continuous(cls, omega_l: float, power_w: float, coupling_eta: float = 1.0) -> "DriveTone":
        return cls(omega_l=omega_l, power_w=power_w, coupling_eta=coupling_eta)

    @classmethod
    def pulsed(
        cls, omega_l: float, energy_j: float, length_s: float, coupling_eta: float = 1.0
    ) -> "DriveTone":
        return cls(omega_l=omega_l, energy_j=energy_j, length_s=length_s, coupling_eta=coupling_eta)

    def detuning(self, cavity: OpticalCavity) -> float:
        """Delta = omega_l - omega_c."""
        return self.omega_l - cavity.omega_c

    @property
    def power_at_device_w(self) -> float:
        if self.power_w is None:
            raise ParameterError("not a continuous tone")
        return self.power_w * self.coupling_eta

    @property
    def energy_at_device_j(self) -> float:
        if self.energy_j is None:
            raise ParameterError("not a pulsed tone")
        return self.energy_j * self.coupling_eta

    @property
    def photons(self) -> float:
        """Photon number in the pulse at the device plane."""
        return self.energy_at_device_j / (hbar * self.omega_l)


def cavity_reflection(c: OpticalCavity, delta):
    """Single-tone reflection r(Delta) = 1 - kappa_e/(kappa/2 - 2i Delta)."""
    delta = np.asarray(delta, dtype=float)
    r = 1.0 - c.kappa_e / (c.kappa / 2.0 - 2j * delta)
    return r if r.ndim else complex(r)


def three_tone_s11(c: OpticalCavity, carrier_detuning: float, mod_freq):
    """Demodulated reflection of a carrier with two in-phase sidebands.

    A carrier at detuning Delta_0 and equal-amplitude sidebands at
    Delta_0 +/- Omega each reflect with their own r; the detected component
    at the modulation frequency, normalised to unit off-resonant background,
    is

        S11(Omega) = ( r(Delta_0)* r(Delta_0+Omega) + r(Delta_0) r(Delta_0-Omega)* ) / 2

    For an overcoupled cavity |S11| dips below 0.5 when a sideband crosses
    the resonance.
    """
    r0 = cavity_reflection(c, carrier_detuning)
    rp = cavity_reflection(c, np.asarray(carrier_detuning, dtype=float) + np.asarray(mod_freq))
    rm = cavity_reflection(c, np.asarray(carrier_detuning, dtype=float) - np.asarray(mod_freq))
    s = (np.conj(r0) * rp + r0 * np.conj(rm)) / 2.0
    s = np.asarray(s)
    return s if s.ndim else complex(s)


def intracavity_photons(c: OpticalCavity, d: DriveTone) -> float:
    """Steady-state intracavity photon number for a continuous drive.

    n_c = (P_dev / hbar omega_l) * kappa_e / (Delta^2 + (kappa/2)^2)

    For short pulses the appropriate reference plane (incident energy versus
    the intracavity average over the pulse) is ambiguous at the tens-of-percent
    level; cooperativities quoted for pulsed operation inherit that spread, so
    this function deliberately reports only the steady-state CW value.
    """
    delta = d.detuning(c)
    rate_in = d.power_at_device_w / (hbar * d.omega_l)
    return rate_in * c.kappa_e / (delta**2 + (c.kappa / 2.0) ** 2)


def _sideband_lorentzians(c: OpticalCavity, omega_m: float, delta: float):
    lp = c.kappa / (c.kappa**2 / 4.0 + (delta + omega_m) ** 2)
    lm = c.kappa / (c.kappa**2 / 4.0 + (delta - omega_m) ** 2)
    return lp, lm


def optomechanical_damping(c: OpticalCavity, m: MechanicalMode, n_c, delta: float):
    """Power-dependent linewidth gamma = gamma_m0 + n_c g0^2 (L+ - L-).

    L+- = kappa / (kappa^2/4 + (delta +- omega_m)^2).  On the red sideband
    (delta = -omega_m) the slope in n_c is positive: optical cooling broadens
    the line.
    """
    n_c = np.asarray(n_c, dtype=float)
    if np.any(n_c < 0):
        raise ParameterError("n_c must be >= 0")
    lp, lm = _sideband_lorentzians(c, m.omega_m, delta)
    g = m.gamma_m0 + n_c * m.g0**2 * (lp - lm)
    return g if g.ndim else float(g)


def cooperativity(c: OpticalCavity, m: MechanicalMode, n_c) -> float:
    """Multiphoton cooperativity C = n_c * 4 g0^2/(kappa gamma_m0)."""
    n_c = np.asarray(n_c, dtype=float)
    if np.any(n_c < 0):
        raise ParameterError("n_c must be >= 0")
    c_om = n_c * single_photon_cooperativity(c, m)
    return c_om if c_om.ndim else float(c_om)


def single_photon_cooperativity(c: OpticalCavity, m: MechanicalMode) -> float:
    """C0 = 4 g0^2 / (kappa gamma_m0)."""
    return 4.0 * m.g0**2 / (c.kappa * m.gamma_m0)


def continuous_efficiency_shape(c_om):
    """Conversion-efficiency shape C/(1+C)^2; maximum 1/4 exactly at C = 1."""
    c_om = np.asarray(c_om, dtype=float)
    if np.any(c_om < 0):
        raise ParameterError("cooperativity must be >= 0")
    y = c_om / (1.0 + c_om) ** 2
    return y if y.ndim else float(y)


def swap_probability(c: OpticalCavity, m: MechanicalMode, d: DriveTone) -> float:
    """Phonon-to-photon swap probability of a red-detuned pulse.

    p_sw = 1 - exp( -4 eta_o g0^2 E_p / (hbar omega_l (omega_m^2 + (kappa/2)^2)) )

    with E_p the pulse energy at the device plane.  Monotone in E_p and
    saturating at 1.
    """
    e_p = d.energy_at_device_j
    x = 4.0 * c.eta_o * m.g0**2 * e_p / (hbar * d.omega_l * (m.omega_m**2 + (c.kappa / 2.0) ** 2))
    return float(-np.expm1(-x))


def mechanics_to_optics_efficiency(p_sw: float, eta_o: float) -> float:
    """Mechanics-to-optics stage efficiency p_sw * eta_o (bounded by eta_o)."""
    if not (0.0 <= p_sw <= 1.0 and 0.0 <= eta_o <= 1.0):
        raise ParameterError("p_sw and eta_o must lie in [0, 1]")
    return p_sw * eta_o


def stokes_leakage(p_sw: float, omega_m: float, kappa: float) -> dict:
    """Residual two-mode-squeezing noise from imperfect sideband resolution.

    Returns the leakage 0.12 * p_sw (added noise phonons per pulse) and the
    sideband resolution ratio omega_m/kappa.
    """
    if not 0.0 <= p_sw <= 1.0:
        raise ParameterError("p_sw must lie in [0, 1]")
    return {"leakage": 0.12 * p_sw, "resolved_ratio": omega_m / kappa}


def thermal_occupation(gamma_red: float, gamma_blue: float) -> tuple[float, float]:
    """Phonon occupation from sideband asymmetry, with Poisson uncertainty.

    Red (anti-Stokes) counts scale with n_th and blue (Stokes) with n_th + 1,
    so n_th = G_R / (G_B - G_R).  The inputs are background-subtracted counts;
    sqrt(N) statistics are propagated to first order.
    """
    if gamma_red < 0:
        raise ParameterError("gamma_red must be >= 0")
    if gamma_blue <= gamma_red:
        raise InconsistentAsymmetryError(
            f"gamma_blue={gamma_blue} must exceed gamma_red={gamma_red}; "
            "check background subtraction / pulse calibration"
        )
    diff = gamma_blue - gamma_red
    n_th = gamma_red / diff
    # dn/dR = B/(B-R)^2, dn/dB = -R/(B-R)^2, var(N) = N
    sigma = np.sqrt(gamma_blue**2 * gamma_red + gamma_red**2 * gamma_blue) / diff**2
    return n_th, float(sigma)
