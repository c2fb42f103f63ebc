"""Device configuration: the complete parameter set of one transducer.

Configs are JSON with units spelled out in the field names (kappa_hz,
c_res_f, l_match_h, ...).  load_config validates every invariant in one
pass and reports all violations together with dotted field paths; it also
returns a provenance map recording where each value came from, which the
CLI embeds in every report.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .em_circuit import BvdParams, KineticInductanceModel, MatchingParams, kinetic_inductance_at
from .errors import ParameterError, ValidationError
from .optomech import DriveTone, MechanicalMode, OpticalCavity
from .pulsed import JitterModel

__all__ = ["Losses", "PulseDefaults", "DeviceModel", "load_config", "paper_device_path"]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Losses:
    """Scalar loss chain outside the device model proper."""

    eta_coup: float
    eta_chain: float
    mw_line_attenuation_db: float

    def __post_init__(self) -> None:
        if not (0.0 < self.eta_coup <= 1.0):
            raise ParameterError("eta_coup must lie in (0, 1]")
        if not (0.0 < self.eta_chain <= 1.0):
            raise ParameterError("eta_chain must lie in (0, 1]")
        if self.mw_line_attenuation_db < 0:
            raise ParameterError("mw_line_attenuation_db must be >= 0")


@dataclass(frozen=True)
class PulseDefaults:
    """Default pulsed-protocol timing for CLI commands."""

    mw_duration_s: float = 26e-6
    trace_duration_s: float = 50e-6
    optical_energy_j: float = 80e-15
    optical_length_s: float = 40e-9
    repetition_period_s: float = 1e-3


@dataclass(frozen=True)
class DeviceModel:
    """One transducer: optical cavity, named mechanical modes, electrical stage."""

    optical: OpticalCavity
    mechanical: dict[str, MechanicalMode]
    c_res: float
    k_eff_sq: float
    matching: MatchingParams
    kinetic: KineticInductanceModel | None
    losses: Losses
    jitter: JitterModel
    noise_table: tuple[tuple[float, float], ...]
    pulse: PulseDefaults
    default_mode: str
    name: str = "device"

    def mode(self, name: str | None = None) -> MechanicalMode:
        key = self.default_mode if name is None else name
        try:
            return self.mechanical[key]
        except KeyError:
            raise ParameterError(
                f"unknown mechanical mode {key!r}; config defines {sorted(self.mechanical)}"
            ) from None

    def bvd_for(self, mode_name: str | None = None) -> BvdParams:
        m = self.mode(mode_name)
        return BvdParams(
            c_res=self.c_res, k_eff_sq=self.k_eff_sq, omega_m=m.omega_m, gamma_m=m.gamma_m0
        )

    def matching_at(self, temperature_k: float) -> MatchingParams:
        """Matching network with the film inductance at the given temperature."""
        if self.kinetic is None:
            return self.matching
        l_tot = float(kinetic_inductance_at(self.kinetic, temperature_k))
        return MatchingParams(
            l_match=l_tot,
            c_match=self.matching.c_match,
            r_loss=self.matching.r_loss,
            z_source=self.matching.z_source,
        )

    def red_pulse(self, energy_j: float | None = None, length_s: float | None = None,
                  mode_name: str | None = None) -> DriveTone:
        """Red-detuned readout pulse at omega_c - omega_m (fiber-launched energy)."""
        m = self.mode(mode_name)
        return DriveTone.pulsed(
            omega_l=self.optical.omega_c - m.omega_m,
            energy_j=self.pulse.optical_energy_j if energy_j is None else energy_j,
            length_s=self.pulse.optical_length_s if length_s is None else length_s,
            coupling_eta=self.losses.eta_coup,
        )

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "default_mode": self.default_mode,
            "optical": {
                "freq_hz": self.optical.omega_c / TWO_PI,
                "kappa_hz": self.optical.kappa / TWO_PI,
                "kappa_e_hz": self.optical.kappa_e / TWO_PI,
            },
            "mechanical": {
                name: {
                    "freq_hz": m.omega_m / TWO_PI,
                    "gamma_hz": m.gamma_m0 / TWO_PI,
                    "g0_hz": m.g0 / TWO_PI,
                    **({"tau_energy_s": m.tau_energy} if m.tau_energy is not None else {}),
                }
                for name, m in self.mechanical.items()
            },
            "electrical": {
                "bvd": {"c_res_f": self.c_res, "k_eff_sq": self.k_eff_sq},
                "matching": {
                    "l_match_h": self.matching.l_match,
                    "c_match_f": self.matching.c_match,
                    "r_loss_ohm": self.matching.r_loss,
                    "z_source_ohm": self.matching.z_source,
                },
            },
            "losses": {
                "eta_coup": self.losses.eta_coup,
                "eta_chain": self.losses.eta_chain,
                "mw_line_attenuation_db": self.losses.mw_line_attenuation_db,
            },
            "jitter": {
                "distribution": self.jitter.distribution,
                "sigma_hz": self.jitter.sigma_hz,
                **({"line_fwhm_hz": self.jitter.line_fwhm_hz}
                   if self.jitter.line_fwhm_hz is not None else {}),
                **({"loading_window_s": self.jitter.loading_window_s}
                   if self.jitter.loading_window_s is not None else {}),
                **({"loading_penalty": self.jitter.loading_penalty}
                   if self.jitter.loading_penalty is not None else {}),
            },
            "pulse": {
                "mw_duration_s": self.pulse.mw_duration_s,
                "trace_duration_s": self.pulse.trace_duration_s,
                "optical_energy_j": self.pulse.optical_energy_j,
                "optical_length_s": self.pulse.optical_length_s,
                "repetition_period_s": self.pulse.repetition_period_s,
            },
            "noise_table": [list(row) for row in self.noise_table],
        }
        if self.kinetic is not None:
            out["electrical"]["kinetic"] = {
                "l_geometric_h": self.kinetic.l_geometric,
                "l_kinetic_0_h": self.kinetic.l_kinetic_0,
                "t_c_k": self.kinetic.t_c,
            }
        return out


def paper_device_path() -> Path:
    """Path of the shipped reference-device config."""
    return Path(resources.files("pomtx").joinpath("data/paper_device.json"))


def resolve_config_path(spec: str | os.PathLike) -> Path:
    """Resolve a config argument: literal path, $POMTX_CONFIG_DIR entry, or shipped name."""
    p = Path(spec)
    if p.exists():
        return p
    env_dir = os.environ.get("POMTX_CONFIG_DIR")
    if env_dir:
        candidate = Path(env_dir) / p
        if candidate.exists():
            return candidate
        candidate = Path(env_dir) / f"{p}.json"
        if candidate.exists():
            return candidate
    if str(spec) in ("paper_device", "paper_device.json"):
        return paper_device_path()
    return p  # let the open() fail with a normal file error


class _Checker:
    """Accumulates violations while pulling typed fields out of nested dicts."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.violations: list[str] = []

    def section(self, path: str, required: bool = True) -> dict | None:
        node = self.raw
        for part in path.split("."):
            if not isinstance(node, dict) or part not in node:
                if required:
                    self.violations.append(f"{path}: missing required section")
                return None
            node = node[part]
        if not isinstance(node, dict):
            self.violations.append(f"{path}: must be an object")
            return None
        return node

    def number(self, section: dict | None, path: str, key: str, *, required=True,
               default=None, minimum=None, maximum=None, exclusive_min=False):
        if section is None:
            return default
        if key not in section:
            if required:
                self.violations.append(f"{path}.{key}: missing required field")
            return default
        v = section[key]
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            self.violations.append(f"{path}.{key}: must be a number, got {v!r}")
            return default
        v = float(v)
        if not math.isfinite(v):
            self.violations.append(f"{path}.{key}: must be finite")
            return default
        if minimum is not None and (v <= minimum if exclusive_min else v < minimum):
            cmp = ">" if exclusive_min else ">="
            self.violations.append(f"{path}.{key}: must be {cmp} {minimum}, got {v}")
            return default
        if maximum is not None and v > maximum:
            self.violations.append(f"{path}.{key}: must be <= {maximum}, got {v}")
            return default
        return v


def load_config(path: str | os.PathLike) -> tuple[DeviceModel, dict[str, str]]:
    """Parse and fully validate a device config.

    Returns (model, provenance) where provenance maps each field path to
    "config:<path>" or "default".  Raises ValidationError listing every
    violation, or a parse error with line/column for malformed JSON.
    """
    path = resolve_config_path(path)
    text = path.read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(
            [f"{path}: JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}"]
        ) from None
    if not isinstance(raw, dict):
        raise ValidationError([f"{path}: top level must be an object"])

    ck = _Checker(raw)
    prov: dict[str, str] = {}
    src = f"config:{path}"

    def mark(field_path: str, from_config: bool = True) -> None:
        prov[field_path] = src if from_config else "default"

    # --- optical ---
    opt = ck.section("optical")
    f_c = ck.number(opt, "optical", "freq_hz", minimum=0, exclusive_min=True)
    kappa_hz = ck.number(opt, "optical", "kappa_hz", minimum=0, exclusive_min=True)
    kappa_e_hz = ck.number(opt, "optical", "kappa_e_hz", minimum=0, exclusive_min=True)
    if kappa_hz is not None and kappa_e_hz is not None and kappa_e_hz > kappa_hz:
        ck.violations.append(
            f"optical.kappa_e_hz: external coupling {kappa_e_hz} exceeds total linewidth {kappa_hz}"
        )
    for k in ("freq_hz", "kappa_hz", "kappa_e_hz"):
        mark(f"optical.{k}")

    # --- mechanical modes ---
    mech_raw = ck.section("mechanical")
    mechanical: dict[str, MechanicalMode] = {}
    if mech_raw is not None:
        if not mech_raw:
            ck.violations.append("mechanical: must define at least one named mode")
        for name, node in mech_raw.items():
            if not isinstance(node, dict):
                ck.violations.append(f"mechanical.{name}: must be an object")
                continue
            pfx = f"mechanical.{name}"
            f_m = ck.number(node, pfx, "freq_hz", minimum=0, exclusive_min=True)
            g_m = ck.number(node, pfx, "gamma_hz", minimum=0, exclusive_min=True)
            g0 = ck.number(node, pfx, "g0_hz", minimum=0, exclusive_min=True)
            tau = ck.number(node, pfx, "tau_energy_s", required=False, minimum=0,
                            exclusive_min=True)
            for k in ("freq_hz", "gamma_hz", "g0_hz"):
                mark(f"{pfx}.{k}")
            if tau is not None:
                mark(f"{pfx}.tau_energy_s")
            if None not in (f_m, g_m, g0):
                mechanical[name] = MechanicalMode(
                    omega_m=TWO_PI * f_m, gamma_m0=TWO_PI * g_m, g0=TWO_PI * g0,
                    tau_energy=tau,
                )

    default_mode = raw.get("default_mode")
    if not isinstance(default_mode, str):
        ck.violations.append("default_mode: missing or not a string")
    elif mech_raw is not None and default_mode not in mech_raw:
        ck.violations.append(f"default_mode: {default_mode!r} is not a defined mechanical mode")
    mark("default_mode")

    # --- electrical ---
    bvd = ck.section("electrical.bvd")
    c_res = ck.number(bvd, "electrical.bvd", "c_res_f", minimum=0, exclusive_min=True)
    k2 = ck.number(bvd, "electrical.bvd", "k_eff_sq", minimum=0, maximum=1.0, exclusive_min=True)
    if k2 is not None and k2 >= 1.0:
        ck.violations.append(f"electrical.bvd.k_eff_sq: must be < 1, got {k2}")
    mark("electrical.bvd.c_res_f")
    mark("electrical.bvd.k_eff_sq")

    mt = ck.section("electrical.matching")
    l_match = ck.number(mt, "electrical.matching", "l_match_h", minimum=0, exclusive_min=True)
    c_match = ck.number(mt, "electrical.matching", "c_match_f", minimum=0, exclusive_min=True)
    r_loss = ck.number(mt, "electrical.matching", "r_loss_ohm", required=False, default=0.0,
                       minimum=0)
    z_src = ck.number(mt, "electrical.matching", "z_source_ohm", required=False, default=50.0,
                      minimum=0, exclusive_min=True)
    mark("electrical.matching.l_match_h")
    mark("electrical.matching.c_match_f")
    mark("electrical.matching.r_loss_ohm", from_config=bool(mt and "r_loss_ohm" in mt))
    mark("electrical.matching.z_source_ohm", from_config=bool(mt and "z_source_ohm" in mt))

    kin_raw = ck.section("electrical.kinetic", required=False)
    kinetic = None
    if kin_raw is not None:
        l_geo = ck.number(kin_raw, "electrical.kinetic", "l_geometric_h", minimum=0,
                          exclusive_min=True)
        l_k0 = ck.number(kin_raw, "electrical.kinetic", "l_kinetic_0_h", minimum=0,
                         exclusive_min=True)
        t_c = ck.number(kin_raw, "electrical.kinetic", "t_c_k", minimum=0, exclusive_min=True)
        for k in ("l_geometric_h", "l_kinetic_0_h", "t_c_k"):
            mark(f"electrical.kinetic.{k}")
        if None not in (l_geo, l_k0, t_c):
            kinetic = KineticInductanceModel(l_geometric=l_geo, l_kinetic_0=l_k0, t_c=t_c)
            if l_match is not None and abs(l_geo + l_k0 - l_match) > 0.01 * l_match:
                ck.violations.append(
                    "electrical.kinetic: l_geometric_h + l_kinetic_0_h = "
                    f"{l_geo + l_k0:.4g} H must equal matching.l_match_h = {l_match:.4g} H "
                    "within 1% (the matching inductor is the film inductance at T -> 0)"
                )

    # --- losses ---
    ls = ck.section("losses")
    eta_coup = ck.number(ls, "losses", "eta_coup", minimum=0, maximum=1.0, exclusive_min=True)
    eta_chain = ck.number(ls, "losses", "eta_chain", minimum=0, maximum=1.0, exclusive_min=True)
    att_db = ck.number(ls, "losses", "mw_line_attenuation_db", minimum=0)
    for k in ("eta_coup", "eta_chain", "mw_line_attenuation_db"):
        mark(f"losses.{k}")

    # --- jitter ---
    jt = ck.section("jitter", required=False)
    jitter_kwargs: dict = {"distribution": "none", "sigma_hz": 0.0}
    if jt is not None:
        dist = jt.get("distribution", "gaussian-quasi-static")
        if dist not in ("none", "gaussian-quasi-static"):
            ck.violations.append(f"jitter.distribution: unknown value {dist!r}")
            dist = "none"
        sigma = ck.number(jt, "jitter", "sigma_hz", required=False, default=0.0, minimum=0)
        jitter_kwargs = {
            "distribution": dist,
            "sigma_hz": sigma if dist != "none" else 0.0,
            "line_fwhm_hz": ck.number(jt, "jitter", "line_fwhm_hz", required=False,
                                      minimum=0, exclusive_min=True),
            "loading_window_s": ck.number(jt, "jitter", "loading_window_s", required=False,
                                          minimum=0, exclusive_min=True),
            "loading_penalty": ck.number(jt, "jitter", "loading_penalty", required=False,
                                         minimum=1.0),
        }
        for k in jt:
            mark(f"jitter.{k}")

    # --- pulse defaults ---
    pl = ck.section("pulse", required=False)
    pulse_kwargs = {}
    if pl is not None:
        for key, attr in (
            ("mw_duration_s", "mw_duration_s"),
            ("trace_duration_s", "trace_duration_s"),
            ("optical_energy_j", "optical_energy_j"),
            ("optical_length_s", "optical_length_s"),
            ("repetition_period_s", "repetition_period_s"),
        ):
            v = ck.number(pl, "pulse", key, required=False, minimum=0, exclusive_min=True)
            if v is not None:
                pulse_kwargs[attr] = v
                mark(f"pulse.{key}")

    # --- noise table ---
    noise_rows: list[tuple[float, float]] = []
    if "noise_table" in raw:
        nt = raw["noise_table"]
        if not isinstance(nt, list):
            ck.violations.append("noise_table: must be a list of [energy_j, n_th] rows")
        else:
            last_e = -math.inf
            for i, row in enumerate(nt):
                if (not isinstance(row, list)) or len(row) != 2 or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in row
                ):
                    ck.violations.append(f"noise_table[{i}]: must be [energy_j, n_th] numbers")
                    continue
                e, n = float(row[0]), float(row[1])
                if e <= last_e:
                    ck.violations.append(f"noise_table[{i}]: energies must be strictly increasing")
                if n < 0:
                    ck.violations.append(f"noise_table[{i}]: n_th must be >= 0")
                last_e = e
                noise_rows.append((e, n))
        mark("noise_table")

    # the pulsed dynamics take the default mode's lifetime; enabled jitter needs one
    intrinsic_gamma = 1.0
    mode = mechanical.get(default_mode) if isinstance(default_mode, str) else None
    if mode is not None:
        if mode.tau_energy is not None:
            intrinsic_gamma = 1.0 / mode.tau_energy
        elif jitter_kwargs["distribution"] != "none":
            ck.violations.append(
                f"mechanical.{default_mode}.tau_energy_s: required when jitter is enabled"
            )

    if ck.violations:
        raise ValidationError(ck.violations)

    model = DeviceModel(
        optical=OpticalCavity(
            omega_c=TWO_PI * f_c, kappa=TWO_PI * kappa_hz, kappa_e=TWO_PI * kappa_e_hz
        ),
        mechanical=mechanical,
        c_res=c_res,
        k_eff_sq=k2,
        matching=MatchingParams(l_match=l_match, c_match=c_match, r_loss=r_loss, z_source=z_src),
        kinetic=kinetic,
        losses=Losses(eta_coup=eta_coup, eta_chain=eta_chain, mw_line_attenuation_db=att_db),
        jitter=JitterModel(intrinsic_gamma=intrinsic_gamma, **jitter_kwargs),
        noise_table=tuple(noise_rows),
        pulse=PulseDefaults(**pulse_kwargs),
        default_mode=default_mode,
        name=str(raw.get("name", path.stem)),
    )
    return model, prov
