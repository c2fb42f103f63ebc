"""Device configuration: the complete parameter set of one transducer.

Configs are JSON with units spelled out in the field names (kappa_hz,
c_res_f, l_match_h, ...).  The shipped data/device_config.schema.json is the
one statement of the format: load_config checks a config against it, then
adds the rules a schema cannot state (kappa_e <= kappa, default_mode names a
mode, the kinetic split sums to l_match_h, enabled jitter needs the default
mode's lifetime, noise-table energies increase).  Every violation is reported
at once with its dotted field path.  load_config also returns a provenance
map recording where each value came from, which the CLI embeds in every
report.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import os
from dataclasses import dataclass, fields
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




@functools.cache
def _schema() -> dict:
    """The shipped config schema, read once per process."""
    return json.loads(
        resources.files("pomtx").joinpath("data/device_config.schema.json").read_text()
    )


_BOUNDS = (("exclusiveMinimum", ">", operator.gt), ("minimum", ">=", operator.ge),
           ("exclusiveMaximum", "<", operator.lt), ("maximum", "<=", operator.le))


def _number_problem(v, schema: dict) -> str | None:
    if not isinstance(v, float):  # load_config parses every JSON number as a float
        return f"must be a number, got {v!r}"
    for key, cmp, holds in _BOUNDS:
        if key in schema and not holds(v, schema[key]):
            return f"must be {cmp} {schema[key]}, got {v}"
    if not math.isfinite(v):  # +inf passes a lower bound; no field takes it
        return "must be finite"
    return None


def _walk(value, schema: dict, path: str, violations: list[str], prov: dict[str, str],
          src: str) -> None:
    """Check one config value against its schema node, recursing into objects.

    Covers the keywords the shipped schema uses.  Each violation is appended
    with its dotted path.  Each valid leaf is marked in prov as coming from
    src; an absent optional field with a schema default is filled in and
    marked "default".
    """
    kind = schema.get("type")
    if kind == "object":
        if not isinstance(value, dict):
            violations.append(f"{path}: must be an object")
            return
        if len(value) < schema.get("minProperties", 0):
            violations.append(f"{path}: must define at least {schema['minProperties']} entry")
        props = schema.get("properties", {})
        for key, sub in props.items():
            sub_path = f"{path}.{key}" if path else key
            if key in value:
                _walk(value[key], sub, sub_path, violations, prov, src)
            elif key in schema.get("required", ()):
                noun = "section" if sub.get("type") == "object" else "field"
                violations.append(f"{sub_path}: missing required {noun}")
            elif "default" in sub:
                value[key] = sub["default"]
                prov[sub_path] = "default"
        if "additionalProperties" in schema:
            for key in [k for k in value if k not in props]:
                _walk(value[key], schema["additionalProperties"], f"{path}.{key}", violations,
                      prov, src)
        return
    n_before = len(violations)
    if kind == "array":  # the noise table: [energy_j, n_th] rows of finite numbers
        if not isinstance(value, list):
            violations.append(f"{path}: must be a list of [energy_j, n_th] rows")
            return
        cells = schema["items"]["prefixItems"]
        n_th_min = cells[1]["minimum"]
        for i, row in enumerate(value):
            if not (isinstance(row, list) and len(row) == len(cells)
                    and all(isinstance(v, float) for v in row)):
                violations.append(f"{path}[{i}]: must be [energy_j, n_th] numbers")
            elif row[1] < n_th_min:
                violations.append(f"{path}[{i}]: n_th must be >= {n_th_min}")
            else:  # the schema admits any number; the table is interpolated
                violations.extend(f"{path}[{i}][{k}]: must be finite"
                                  for k, v in enumerate(row) if not math.isfinite(v))
    elif "enum" in schema:
        if value not in schema["enum"]:
            violations.append(f"{path}: unknown value {value!r}")
    elif kind == "string":
        if not isinstance(value, str):
            violations.append(f"{path}: must be a string, got {value!r}")
    elif (problem := _number_problem(value, schema)) is not None:
        violations.append(f"{path}: {problem}")
    if len(violations) == n_before:
        prov[path] = src


def load_config(path: str | os.PathLike) -> tuple[DeviceModel, dict[str, str]]:
    """Parse and fully validate a device config.

    Returns (model, provenance) where provenance maps each field path to
    "config:<path>" or "default".  Raises ValidationError listing every
    violation, or a parse error with line/column for malformed JSON.
    """
    path = resolve_config_path(path)
    text = path.read_text()
    try:
        raw = json.loads(text, parse_int=float)
    except json.JSONDecodeError as e:
        raise ValidationError(
            [f"{path}: JSON parse error at line {e.lineno}, column {e.colno}: {e.msg}"]
        ) from None
    if not isinstance(raw, dict):
        raise ValidationError([f"{path}: top level must be an object"])

    violations: list[str] = []
    prov: dict[str, str] = {}
    _walk(raw, _schema(), "", violations, prov, f"config:{path}")
    prov.pop("name", None)  # a label, not a device parameter

    # --- the rules a schema cannot state, each on fields that passed the walk ---
    opt = raw.get("optical")
    if "optical.kappa_hz" in prov and "optical.kappa_e_hz" in prov \
            and opt["kappa_e_hz"] > opt["kappa_hz"]:
        violations.append(
            f"optical.kappa_e_hz: external coupling {opt['kappa_e_hz']} exceeds total "
            f"linewidth {opt['kappa_hz']}"
        )

    default_mode, mech = raw.get("default_mode"), raw.get("mechanical")
    jt = raw.get("jitter", {"distribution": "none"})
    dist = jt.get("distribution", "gaussian-quasi-static") if isinstance(jt, dict) else "none"
    if "default_mode" in prov and isinstance(mech, dict):
        tau_path = f"mechanical.{default_mode}.tau_energy_s"
        if default_mode not in mech:
            violations.append(f"default_mode: {default_mode!r} is not a defined mechanical mode")
        # the pulsed dynamics take the default mode's lifetime
        elif dist == "gaussian-quasi-static" and isinstance(mech[default_mode], dict) \
                and tau_path not in prov:
            violations.append(f"{tau_path}: required when jitter is enabled")

    kin_paths = [f"electrical.kinetic.{k}" for k in ("l_geometric_h", "l_kinetic_0_h", "t_c_k")]
    if all(p in prov for p in ("electrical.matching.l_match_h", *kin_paths)):
        l_match = raw["electrical"]["matching"]["l_match_h"]
        kin = raw["electrical"]["kinetic"]
        l_sum = kin["l_geometric_h"] + kin["l_kinetic_0_h"]
        if abs(l_sum - l_match) > 0.01 * l_match:
            violations.append(
                f"electrical.kinetic: l_geometric_h + l_kinetic_0_h = {l_sum:.4g} H must equal "
                f"matching.l_match_h = {l_match:.4g} H within 1% (the matching inductor is the "
                "film inductance at T -> 0)"
            )

    if "noise_table" in prov:
        last_e = -math.inf
        for i, (e, _) in enumerate(raw["noise_table"]):
            if e <= last_e:
                violations.append(f"noise_table[{i}]: energies must be strictly increasing")
            last_e = e

    if violations:
        raise ValidationError(violations)

    # --- model construction: every field is present (or defaulted) and valid ---
    el, ls, pl = raw["electrical"], raw["losses"], raw.get("pulse", {})
    mt, kin = el["matching"], el.get("kinetic")
    mechanical = {
        name: MechanicalMode(omega_m=TWO_PI * m["freq_hz"], gamma_m0=TWO_PI * m["gamma_hz"],
                             g0=TWO_PI * m["g0_hz"], tau_energy=m.get("tau_energy_s"))
        for name, m in mech.items()
    }
    tau = mechanical[default_mode].tau_energy
    model = DeviceModel(
        optical=OpticalCavity(omega_c=TWO_PI * opt["freq_hz"], kappa=TWO_PI * opt["kappa_hz"],
                              kappa_e=TWO_PI * opt["kappa_e_hz"]),
        mechanical=mechanical,
        c_res=el["bvd"]["c_res_f"],
        k_eff_sq=el["bvd"]["k_eff_sq"],
        matching=MatchingParams(l_match=mt["l_match_h"], c_match=mt["c_match_f"],
                                r_loss=mt["r_loss_ohm"], z_source=mt["z_source_ohm"]),
        kinetic=None if kin is None else KineticInductanceModel(
            l_geometric=kin["l_geometric_h"], l_kinetic_0=kin["l_kinetic_0_h"], t_c=kin["t_c_k"]
        ),
        losses=Losses(eta_coup=ls["eta_coup"], eta_chain=ls["eta_chain"],
                      mw_line_attenuation_db=ls["mw_line_attenuation_db"]),
        jitter=JitterModel(
            distribution=dist,
            sigma_hz=jt.get("sigma_hz", 0.0) if dist != "none" else 0.0,
            intrinsic_gamma=1.0 if tau is None else 1.0 / tau,
            line_fwhm_hz=jt.get("line_fwhm_hz"),
            loading_window_s=jt.get("loading_window_s"),
            loading_penalty=jt.get("loading_penalty"),
        ),
        noise_table=tuple(tuple(row) for row in raw.get("noise_table", ())),
        pulse=PulseDefaults(**{f.name: pl[f.name] for f in fields(PulseDefaults) if f.name in pl}),
        default_mode=default_mode,
        name=raw.get("name", path.stem),
    )
    return model, prov
