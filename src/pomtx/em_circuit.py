"""Lumped-element model of the electrical interface.

Topology (source to ground):

    50-ohm source -- R_loss -- L_match --+-- C_match --- gnd
                                         |
                                         +-- C_res ----- gnd
                                         |
                                         +-- R_m L_m C_m gnd   (motional branch)

The piezo resonator is a Butterworth-van Dyke circuit: a static plate
capacitance C_res shunting a series R_m-L_m-C_m branch that represents the
mechanical mode.  The matching stage is a spiral inductor L_match with its
parasitic capacitance to ground C_match and a small series loss R_loss.
Power dissipated in R_m is power converted into mechanical motion, so the
electromechanical delivery efficiency is P(R_m) / P_available.

All impedance/scattering functions accept scalar or ndarray angular
frequency and broadcast; they share one unvalidated network kernel, which
match_design also evaluates over a whole grid of L and C values at once.
Angular frequency (rad/s) is used throughout this module; conversion from
ordinary frequency happens at the file/CLI boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

K_BOLTZMANN = 1.380649e-23  # J/K, exact in SI-2019

__all__ = [
    "BvdParams",
    "MatchingParams",
    "KineticInductanceModel",
    "MotionalBranch",
    "bvd_motional_branch",
    "input_impedance",
    "electrical_s11",
    "matched_load",
    "electromechanical_efficiency",
    "MatchDesign",
    "match_design",
    "kinetic_inductance_at",
    "resonance_vs_temperature",
    "keff_from_admittance",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParameterError(msg)


def _finite_positive(value: float, name: str) -> None:
    _require(np.isfinite(value) and value > 0, f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class BvdParams:
    """Piezo resonator in the Butterworth-van Dyke picture.

    c_res      static capacitance between the electrodes (F)
    k_eff_sq   electromechanical coupling coefficient C_m/(C_m+C_res)
    omega_m    mechanical angular frequency (rad/s)
    gamma_m    mechanical angular linewidth (rad/s)
    """

    c_res: float
    k_eff_sq: float
    omega_m: float
    gamma_m: float

    def __post_init__(self) -> None:
        _finite_positive(self.c_res, "c_res")
        _finite_positive(self.omega_m, "omega_m")
        _finite_positive(self.gamma_m, "gamma_m")
        _require(
            np.isfinite(self.k_eff_sq) and 0.0 < self.k_eff_sq < 1.0,
            f"k_eff_sq must lie in (0, 1), got {self.k_eff_sq!r}",
        )


@dataclass(frozen=True)
class MatchingParams:
    """LC matching resonator: series inductor, shunt capacitance, series loss."""

    l_match: float
    c_match: float
    r_loss: float = 0.0
    z_source: float = 50.0

    def __post_init__(self) -> None:
        _finite_positive(self.l_match, "l_match")
        _finite_positive(self.c_match, "c_match")
        _finite_positive(self.z_source, "z_source")
        _require(np.isfinite(self.r_loss) and self.r_loss >= 0, "r_loss must be >= 0")

    @property
    def z_match(self) -> float:
        """Characteristic impedance sqrt(L/C) of the matching resonator."""
        return float(np.sqrt(self.l_match / self.c_match))


@dataclass(frozen=True)
class KineticInductanceModel:
    """Temperature-dependent inductance of a superconducting thin film.

    Total inductance is l_geometric plus a kinetic term that grows toward
    the critical temperature following the BCS surface-impedance form

        L_k(T) = L_k(0) / [ (Delta(T)/Delta(0)) * tanh(Delta(T) / 2 k_B T) ]

    with the standard gap interpolation Delta(T) = Delta(0) * 1.74 *
    sqrt(1 - T/T_c) near T_c, clipped at Delta(0) for low temperatures,
    and Delta(0) = 1.764 k_B T_c.
    """

    l_geometric: float
    l_kinetic_0: float
    t_c: float

    def __post_init__(self) -> None:
        _finite_positive(self.l_geometric, "l_geometric")
        _finite_positive(self.l_kinetic_0, "l_kinetic_0")
        _finite_positive(self.t_c, "t_c")


@dataclass(frozen=True)
class MotionalBranch:
    """Series R-L-C equivalent of one mechanical mode."""

    r_m: float
    l_m: float
    c_m: float


def bvd_motional_branch(p: BvdParams) -> MotionalBranch:
    """Derive the motional R_m, L_m, C_m from (C_res, k_eff^2, omega_m, gamma_m).

    C_m follows from k_eff^2 = C_m/(C_m + C_res); L_m from the series
    resonance omega_m = 1/sqrt(L_m C_m); and the motional resistance is

        R_m = (gamma_m / omega_m^2) * (1/k_eff^2 - 1) / C_res
    """
    c_m = p.c_res * p.k_eff_sq / (1.0 - p.k_eff_sq)
    l_m = 1.0 / (p.omega_m**2 * c_m)
    r_m = (p.gamma_m / p.omega_m**2) * (1.0 / p.k_eff_sq - 1.0) / p.c_res
    return MotionalBranch(r_m=r_m, l_m=l_m, c_m=c_m)


def _check_omega(omega) -> np.ndarray:
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega) & (omega > 0)):
        raise ParameterError("omega must be finite and > 0 (the network is a capacitive open at DC)")
    return omega


def _network(l, c, r_loss: float, z_source: float, b: BvdParams | None, omega):
    """Input impedance and delivery efficiency of the LC + BVD network.

    No validation; l, c and omega broadcast, so a grid of l and c values is
    one array evaluation.  Returns (Z_in, eta_em), with eta_em None when
    ``b`` is None (no motional branch to deliver power to).
    """
    y_shunt = 1j * omega * c
    if b is not None:
        y_shunt = y_shunt + 1j * omega * b.c_res
        br = bvd_motional_branch(b)
        z_mot = br.r_m + 1j * omega * br.l_m + 1.0 / (1j * omega * br.c_m)
        y_shunt = y_shunt + 1.0 / z_mot
    z_par = 1.0 / y_shunt
    z_in = r_loss + 1j * omega * l + z_par
    if b is None:
        return z_in, None
    # unit-amplitude source; P_avail = V^2 / (8 Z_src)
    v_node = 1.0 / (z_source + z_in) * z_par
    p_rm = 0.5 * np.abs(v_node / z_mot) ** 2 * br.r_m
    return z_in, p_rm / (1.0 / (8.0 * z_source))


def input_impedance(m: MatchingParams, b: BvdParams | None, omega):
    """Impedance of the passive network seen from the source terminals.

    ``b=None`` drops the piezo entirely (a bare test resonator).  Re(Z) >= 0
    for every frequency since the network is passive.
    """
    z, _ = _network(m.l_match, m.c_match, m.r_loss, m.z_source, b, _check_omega(omega))
    return z if z.ndim else complex(z)


def electrical_s11(m: MatchingParams, b: BvdParams | None, omega):
    """Reflection coefficient (Z - Z_src)/(Z + Z_src) at the source reference."""
    z, _ = _network(m.l_match, m.c_match, m.r_loss, m.z_source, b, _check_omega(omega))
    gamma = (z - m.z_source) / (z + m.z_source)
    return gamma if gamma.ndim else complex(gamma)


def matched_load(z_match: float, z_source: float) -> float:
    """Load resistance a resonant L-section transforms to z_source: Z_match^2/Z_0."""
    _finite_positive(z_match, "z_match")
    _finite_positive(z_source, "z_source")
    return z_match**2 / z_source


def electromechanical_efficiency(m: MatchingParams, b: BvdParams, omega):
    """Fraction of the source's available power dissipated in R_m.

    Available power for a source of peak amplitude V behind Z_src is
    V^2/(8 Z_src); the conjugate-matched lossless network reaches 1.
    """
    _require(b is not None, "electromechanical_efficiency needs the piezo (b is None)")
    _, eta = _network(m.l_match, m.c_match, m.r_loss, m.z_source, b, _check_omega(omega))
    return eta if eta.ndim else float(eta)


@dataclass(frozen=True)
class MatchDesign:
    """|S11| and eta_em over a grid of matching resonators, and its best point.

    The meshes are (n_L, n_C) with L along axis 0.  The best point is the
    first minimum of |S11| in row-major order (L outer, C inner);
    ``on_grid_edge`` is true when it sits on the first or last L or C value,
    where the true optimum may lie outside the grid.
    """

    l_mesh: np.ndarray
    c_mesh: np.ndarray
    s11_abs: np.ndarray
    eta_em: np.ndarray
    best_index: tuple[int, int]
    match_freq_hz: float

    @property
    def on_grid_edge(self) -> bool:
        (i, j), (n_l, n_c) = self.best_index, self.s11_abs.shape
        return i in (0, n_l - 1) or j in (0, n_c - 1)

    def best(self) -> dict:
        """The best point as report fields."""
        ij = self.best_index
        return {
            "l_match_h": float(self.l_mesh[ij]),
            "c_match_f": float(self.c_mesh[ij]),
            "s11_abs": float(self.s11_abs[ij]),
            "eta_em": float(self.eta_em[ij]),
            "match_freq_hz": self.match_freq_hz,
            "on_grid_edge": self.on_grid_edge,
        }


def _grid(values, name: str) -> np.ndarray:
    grid = np.asarray(values, dtype=float)
    _require(grid.ndim == 1 and grid.size > 0, f"{name} grid must be a non-empty 1-D array")
    bad = ~(np.isfinite(grid) & (grid > 0))
    if bad.any():  # name the first offending value, as MatchingParams would
        _finite_positive(float(grid[bad][0]), name)
    return grid


def match_design(b: BvdParams, omega: float, l_grid, c_grid, r_loss: float = 0.0,
                 z_source: float = 50.0) -> MatchDesign:
    """|S11| and eta_em at angular frequency omega over every (L, C) of the grids.

    Each grid and parameter is validated once, as MatchingParams would
    validate one point; the network is then one array evaluation.
    """
    l_grid = _grid(l_grid, "l_match")
    c_grid = _grid(c_grid, "c_match")
    # r_loss and z_source are checked as MatchingParams checks them
    MatchingParams(float(l_grid[0]), float(c_grid[0]), r_loss, z_source)
    _finite_positive(omega, "omega")
    z, eta = _network(l_grid[:, None], c_grid[None, :], r_loss, z_source, b, float(omega))
    s11_abs = np.abs((z - z_source) / (z + z_source))
    i, j = np.unravel_index(int(np.argmin(s11_abs)), s11_abs.shape)
    l_mesh, c_mesh = np.meshgrid(l_grid, c_grid, indexing="ij")
    f = 1.0 / (2.0 * np.pi * np.sqrt(l_grid[i] * (c_grid[j] + b.c_res)))
    return MatchDesign(l_mesh, c_mesh, s11_abs, eta, (int(i), int(j)), float(f))


def _bcs_gap(t, t_c: float):
    """Delta(T): 1.764 k_B T_c with the 1.74 sqrt(1 - T/T_c) interpolation."""
    delta0 = 1.764 * K_BOLTZMANN * t_c
    t = np.asarray(t, dtype=float)
    interp = delta0 * 1.74 * np.sqrt(np.clip(1.0 - t / t_c, 0.0, None))
    return np.minimum(delta0, interp)


def kinetic_inductance_at(k: KineticInductanceModel, t):
    """Total film inductance l_geometric + L_k(T) at temperature t (K)."""
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0) & (t < k.t_c)):
        raise ParameterError(
            f"temperature must satisfy 0 <= T < T_c = {k.t_c} K (film is normal above T_c)"
        )
    delta0 = 1.764 * K_BOLTZMANN * k.t_c
    delta = _bcs_gap(t, k.t_c)
    # tanh argument diverges harmlessly as T -> 0; clip T to avoid 0/0
    t_safe = np.maximum(t, 1e-9)
    denom = (delta / delta0) * np.tanh(delta / (2.0 * K_BOLTZMANN * t_safe))
    l_total = k.l_geometric + k.l_kinetic_0 / denom
    return l_total if l_total.ndim else float(l_total)


def resonance_vs_temperature(k: KineticInductanceModel, c_match: float, t_grid):
    """Matching-circuit resonance f(T) = 1/(2 pi sqrt(L_total(T) C)).

    Monotone nonincreasing in T because L_k grows toward T_c; strictly
    decreasing wherever the gap change is representable (below roughly
    0.5 K the kinetic term is exponentially flat and constant in float64).
    Returns a list of (temperature_K, frequency_Hz) pairs.
    """
    _finite_positive(c_match, "c_match")
    t_grid = np.asarray(t_grid, dtype=float)
    l_tot = np.asarray(kinetic_inductance_at(k, t_grid))
    f = 1.0 / (2.0 * np.pi * np.sqrt(l_tot * c_match))
    return list(zip(t_grid.tolist(), np.atleast_1d(f).tolist()))


def keff_from_admittance(f_s: float, f_p: float) -> float:
    """Coupling coefficient from series/parallel admittance resonances.

    k_eff^2 = (f_p^2 - f_s^2) / f_p^2, in [0, 1).
    """
    _finite_positive(f_s, "f_s")
    _finite_positive(f_p, "f_p")
    if f_s > f_p:
        raise ParameterError(f"series resonance f_s={f_s} must not exceed parallel f_p={f_p}")
    return (f_p**2 - f_s**2) / f_p**2
