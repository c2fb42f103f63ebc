"""Seeded ops of the three workloads and their correctness checks.

An op is one or more ``pomtx`` CLI commands, optionally preceded by library
calls; ``cli-cold`` runs each command as a fresh interpreter, the two warm
workloads call ``pomtx.cli.main`` in-process.  Every input (argv values and
fit CSVs) comes from the workload RNG.  Each op carries a check that reads
what the program wrote and compares it with an independent reference
(``reference.py``) or with the program's deterministic quadrature path;
checks run untimed and untraced.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

# A command as the installed `pomtx` console script runs it.
CLI_ENTRY = "import sys; from pomtx.cli import main; sys.exit(main())"

# Monte Carlo results must agree with the quadrature path within this many
# standard errors; the errors are computed from the exact second moment.
MC_SIGMAS = 6.0
# Fitted rise time and line width of a Monte Carlo trace/line against the
# same fit on the quadrature one: seed-to-seed spreads are about 1.3% and
# 0.8% at the default sizes, so these are over 7 standard deviations.
RISE_TIME_REL = 0.10
LINE_FWHM_REL = 0.06
# The program's quadrature and the benchmark's own Gauss-Hermite mean are
# both converged far below this share of the peak.
QUADRATURE_REL = 1e-6
# Bands drawn for the calibration targets.  calibrate_jitter's bracket
# [1 Hz, 3 x target] stops holding just above 70 kHz.
FWHM_BAND_HZ = (61e3, 69e3)
PENALTY_BAND = (6.2, 7.6)


@dataclass
class Op:
    """One timed unit of work and the check of what it produced."""

    name: str
    commands: list[list[str]]
    check: Callable[["Executor"], list[str]]
    library: Callable[[], None] | None = None


def command_key(argv: list[str]) -> str:
    return f"fit.{argv[1]}" if argv[0] == "fit" else argv[0]


@dataclass
class OpResult:
    name: str
    latency_s: float
    commands_s: dict[str, float]
    errors: list[str]


class Executor:
    """Runs ops cold (one interpreter per command) or warm (in-process)."""

    def __init__(self, workdir: str, env: dict, cold: bool, tracer=None):
        self.workdir = workdir
        self.env = env
        self.cold = cold
        self.tracer = tracer
        self.op_count = 0

    def command(self, argv: list[str]) -> tuple[int, str]:
        if self.cold:
            proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], cwd=self.workdir,
                                  env=self.env, capture_output=True, text=True, timeout=170)
            return proc.returncode, proc.stderr
        return self.in_process(argv)

    @staticmethod
    def in_process(argv: list[str]) -> tuple[int, str]:
        from pomtx.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = main(argv)
        return rc, out.getvalue()

    def execute(self, op: Op) -> OpResult:
        tr = self.tracer
        if tr is not None:
            tr.op_id = self.op_count
            tr.active = True
        self.op_count += 1
        errors: list[str] = []
        commands_s: dict[str, float] = {}
        t0 = time.perf_counter()
        try:
            with tr.span(f"op.{op.name}", "op") if tr else contextlib.nullcontext():
                if op.library is not None:
                    op.library()
                for argv in op.commands:
                    key = command_key(argv)
                    tc = time.perf_counter()
                    with tr.span(f"cli.{key}", "cli") if tr else contextlib.nullcontext():
                        rc, text = self.command(argv)
                    commands_s[key] = time.perf_counter() - tc
                    if rc != 0:
                        errors.append(f"{key}: exit {rc}: {text.strip()[-300:]}")
                        break
        except Exception as e:  # an op that raises counts as failed; the run goes on
            errors.append(f"{op.name}: {type(e).__name__}: {e}")
        latency = time.perf_counter() - t0
        if tr is not None:
            tr.active = False
        if not errors:
            try:
                errors = op.check(self)
            except Exception as e:
                errors = [f"{op.name} check: {type(e).__name__}: {e}"]
        return OpResult(op.name, latency, commands_s, errors)


# ------------------------------------------------------------ helpers


def _g(value: float) -> float:
    """Round a drawn value to the digits written into argv."""
    return float(f"{value:.6g}")


def _seed(rng) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)["results"]


def _close(name: str, got: float, want: float, rel: float, errors: list, abs_tol=0.0):
    if not (math.isfinite(got) and abs(got - want) <= rel * abs(want) + abs_tol):
        errors.append(f"{name}: got {got!r}, want {want!r} (rel {rel:g}, abs {abs_tol:g})")


def _files(tag: str) -> list[str]:
    return ["--out", f"{tag}.json", "--csv", f"{tag}.csv"]


def _with_method_quadrature(argv: list[str], tag: str) -> list[str]:
    """The same argv with --method quadrature and outputs under another tag."""
    base = argv[: argv.index("--out")]
    return base + ["--method", "quadrature"] + _files(tag)


# ---------------------------------------------------------- pulsed ops


def pulse_trace_argv(rng, tag: str) -> list[str]:
    return ["pulse-trace", "--seed", str(_seed(rng)), "--pulse-us", f"{_g(rng.uniform(30, 70))}",
            "--detuning-hz", f"{_g(rng.uniform(-20e3, 20e3))}", *_files(tag)]


def spectrum_argv(rng, tag: str) -> list[str]:
    return ["spectrum", "--seed", str(_seed(rng)), "--pulse-us", f"{_g(rng.uniform(20, 40))}",
            *_files(tag)]


def _flag(argv: list[str], name: str, default: float) -> float:
    return float(argv[argv.index(name) + 1]) if name in argv else default


def _within_mc_error(label: str, mc, quad, se, mean, errors: list) -> None:
    """Check Monte Carlo rows against the program's quadrature rows.

    Each Monte Carlo row must be within MC_SIGMAS standard errors of its
    quadrature row. The quadrature rows must match the independent ensemble
    mean, which catches a fault in the single-shot kernel both paths share.
    """
    excess = np.abs(mc[:, 1] - quad[:, 1]) - (MC_SIGMAS * se + 1e-9 * quad[:, 1].max())
    if np.any(excess > 0):
        i = int(np.argmax(excess))
        errors.append(f"{label} {mc[i, 0]:.6g}: off the quadrature result by "
                      f"{abs(mc[i, 1] - quad[i, 1]) / se[i]:.1f} standard errors")
    off = np.abs(quad[:, 1] - mean).max() / mean.max()
    if not off <= QUADRATURE_REL:
        errors.append(f"{label}: quadrature result off the independent mean by {off:.2e} "
                      "of its peak")


def check_pulse_trace(ex: Executor, argv: list[str]) -> list[str]:
    """MC trace and penalties against the quadrature run of the same argv."""
    errors: list[str] = []
    tag = argv[argv.index("--out") + 1][: -len(".json")]
    rc, text = ex.in_process(_with_method_quadrature(argv, f"{tag}_ref"))
    if rc != 0:
        return [f"pulse-trace reference: exit {rc}: {text[-300:]}"]
    got, want = _report(f"{tag}.json"), _report(f"{tag}_ref.json")
    _, mc = ref.read_csv(f"{tag}.csv")
    _, quad = ref.read_csv(f"{tag}_ref.csv")
    gamma = 1.0 / ref.TAU_ENERGY_S
    pulse_s = _flag(argv, "--pulse-us", ref.TRACE_DURATION_S * 1e6) * 1e-6
    n_mc = int(_flag(argv, "--n-mc", 10_000))
    if mc.shape != (int(_flag(argv, "--points", 1201)), 2) or not np.array_equal(
            mc[:, 0], quad[:, 0]):
        return [f"pulse-trace: CSV shape {mc.shape} or time grid differs from the reference"]
    se, mean = ref.mc_standard_error(mc[:, 0], _flag(argv, "--detuning-hz", 0.0),
                                     ref.JITTER_SIGMA_HZ, gamma, pulse_s, n_mc)
    _within_mc_error("pulse-trace population at t (s)", mc, quad, se, mean, errors)
    _close("pulse-trace decay_rate_per_s", got["decay_rate_per_s"], gamma, 1e-6, errors)
    _close("pulse-trace rise_time_s", got["rise_time_s"], want["rise_time_s"], RISE_TIME_REL,
           errors)
    for key, window in (("penalty_at_this_pulse", pulse_s),
                        ("penalty_at_anchor_window", ref.LOADING_WINDOW_S)):
        se_p, _ = ref.penalty_standard_error(window, ref.JITTER_SIGMA_HZ, gamma, n_mc)
        _close(f"pulse-trace {key}", got[key], want[key], 0.0, errors, MC_SIGMAS * se_p)
    if not 4.0 <= got["penalty_at_anchor_window"] <= 10.0:
        errors.append(f"pulse-trace: anchored penalty {got['penalty_at_anchor_window']} "
                      "outside [4, 10]")
    if not (math.isfinite(got["penalty_mc_error"]) and got["penalty_mc_error"] > 0):
        errors.append(f"pulse-trace: penalty_mc_error {got['penalty_mc_error']!r}")
    return errors


def check_spectrum(ex: Executor, argv: list[str]) -> list[str]:
    """MC conversion line against the quadrature line of the same argv."""
    errors: list[str] = []
    tag = argv[argv.index("--out") + 1][: -len(".json")]
    rc, text = ex.in_process(_with_method_quadrature(argv, f"{tag}_ref"))
    if rc != 0:
        return [f"spectrum reference: exit {rc}: {text[-300:]}"]
    header, mc = ref.read_csv(f"{tag}.csv")
    _, quad = ref.read_csv(f"{tag}_ref.csv")
    if header != ["freq_hz", "counts_rel"] or mc.shape != (201, 2) or not np.array_equal(
            mc[:, 0], quad[:, 0]):
        return [f"spectrum: CSV header {header} or shape {mc.shape} or grid differs"]
    f_m = ref.MODES[ref.DEFAULT_MODE][0]
    pulse_s = _flag(argv, "--pulse-us", ref.MW_DURATION_S * 1e6) * 1e-6
    se, mean = ref.mc_standard_error(pulse_s, mc[:, 0] - f_m, ref.JITTER_SIGMA_HZ,
                                     1.0 / ref.TAU_ENERGY_S, pulse_s,
                                     int(_flag(argv, "--n-mc", 1e4)))
    _within_mc_error("spectrum counts at (Hz)", mc, quad, se, mean, errors)
    fwhm = _report(f"{tag}.json")["lorentzian_fit"]["params"]["fwhm"]
    want = _report(f"{tag}_ref.json")["lorentzian_fit"]["params"]["fwhm"]
    _close("spectrum fitted fwhm", fwhm, want, LINE_FWHM_REL, errors)
    return errors


def pulsed_op(rng, index: int) -> Op:
    """pulse-trace then spectrum at the default Monte Carlo sizes."""
    trace = pulse_trace_argv(rng, f"trace{index}")
    spec = spectrum_argv(rng, f"spectrum{index}")
    return Op("pulsed", [trace, spec],
              lambda ex: check_pulse_trace(ex, trace) + check_spectrum(ex, spec))


# ------------------------------------------------------------- fit ops


def fit_inputs(rng, tag: str) -> list[tuple[list[str], Callable[[], list[str]]]]:
    """Write the five fit CSVs; return each fit's argv and check."""
    out = []

    def add(model, argv_extra, truth, tol, meta_keys=()):
        report = f"{tag}_fit_{model}.json"

        def check():
            res = _report(report)
            errors = [] if res["converged"] else [f"fit {model}: not converged"]
            values = {**res["params"], **{k: res["meta"][k] for k in meta_keys}}
            for key, (rel, abs_tol) in tol.items():
                _close(f"fit {model} {key}", values[key], truth[key], rel, errors, abs_tol)
            return errors

        out.append((["fit", model, *argv_extra, "--seed", str(_seed(rng)), "--out", report],
                    check))

    for model, sqrt_profile in (("lorentzian", False), ("sqrt-lorentzian", True)):
        x, y, truth = ref.lorentzian_data(rng, sqrt_profile)
        path = f"{tag}_{model}.csv"
        ref.write_csv(path, ["freq_hz", "mag"], [x, y])
        add(model, ["--in", path], truth,
            {"center": (0.0, 0.02 * truth["fwhm"]), "fwhm": (0.03, 0.0),
             "amplitude": (0.03, 0.0), "offset": (0.0, 0.02 * truth["amplitude"])})

    x, y, truth, guess = ref.s11_optical_data(rng)
    ref.write_csv(f"{tag}_s11.csv", ["freq_hz", "mag"], [x, y])
    add("s11-optical", ["--in", f"{tag}_s11.csv", "--carrier-detuning-hz", f"{_g(guess)}"],
        truth, {"kappa_hz": (0.02, 0.0), "eta_o": (0.0, 0.02), "delta0_hz": (0.01, 0.0)},
        meta_keys=("kappa_hz", "eta_o"))

    n_c, gamma_hz, truth = ref.damping_data(rng)
    ref.write_csv(f"{tag}_damping.csv", ["n_c", "gamma_hz"], [n_c, gamma_hz])
    add("damping", ["--in", f"{tag}_damping.csv"], truth,
        {"g0_hz": (0.03, 0.0), "gamma_m0_hz": (0.05, 0.0)}, meta_keys=("g0_hz", "gamma_m0_hz"))

    t, f, truth = ref.bcs_data(rng)
    ref.write_csv(f"{tag}_bcs.csv", ["temperature_k", "freq_hz"], [t, f])
    add("bcs", ["--in", f"{tag}_bcs.csv"], truth,
        {"t_c": (0.02, 0.0), "l_kinetic_0": (0.05, 0.0), "l_geometric": (0.05, 0.0)})
    return out


# ----------------------------------------------------- circuit and misc


_MATCH_REF: dict = {}


def _match_reference():
    """Independent |S11|/eta over the default 81 x 81 design grid (computed once)."""
    if not _MATCH_REF:
        l_grid = np.linspace(100e-9, 300e-9, 81)
        c_grid = np.linspace(5e-15, 30e-15, 81)
        l_mesh, c_mesh = np.meshgrid(l_grid, c_grid, indexing="ij")
        s11, eta = ref.matching_grid(l_mesh.ravel(), c_mesh.ravel())
        _MATCH_REF.update(l=l_mesh.ravel(), c=c_mesh.ravel(), s11=s11, eta=eta)
    return _MATCH_REF


def check_match_design(tag: str) -> list[str]:
    errors: list[str] = []
    want = _match_reference()
    header, rows = ref.read_csv(f"{tag}.csv")
    if header != ["l_match_h", "c_match_f", "s11_abs", "eta_em"] or rows.shape != (81 * 81, 4):
        return [f"match-design: CSV header {header} or shape {rows.shape}"]
    order = np.lexsort((rows[:, 1], rows[:, 0]))
    rows = rows[order]
    for col, key in ((0, "l"), (1, "c"), (2, "s11"), (3, "eta")):
        if not np.allclose(rows[:, col], want[key], rtol=1e-9, atol=0.0):
            errors.append(f"match-design: column {header[col]} differs from the reference")
    best = _report(f"{tag}.json")["best"]
    s11_at, eta_at = ref.matching_grid(best["l_match_h"], best["c_match_f"])
    _close("match-design best s11_abs", best["s11_abs"], float(s11_at), 1e-6, errors)
    _close("match-design best eta_em", best["eta_em"], float(eta_at), 1e-6, errors)
    if best["s11_abs"] > want["s11"].min() * (1 + 1e-9):
        errors.append(f"match-design: best |S11| {best['s11_abs']} above the grid minimum "
                      f"{want['s11'].min()}")
    f_match = 1.0 / (ref.TWO_PI * math.sqrt(best["l_match_h"] * (best["c_match_f"] + ref.C_RES_F)))
    _close("match-design match_freq_hz", best["match_freq_hz"], f_match, 1e-9, errors)
    return errors


def check_budget(tag: str) -> list[str]:
    errors: list[str] = []
    res = _report(f"{tag}.json")
    _close("budget total", res["total"], ref.BUDGET_TOTAL, 1e-6, errors)
    _close("budget stage product", math.prod(s["factor"] for s in res["stages"]),
           res["total"], 1e-12, errors)
    return errors


def check_s21(tag: str, n_cs: list[float]) -> list[str]:
    errors: list[str] = []
    res = _report(f"{tag}.json")
    grid = np.linspace(2.78e9, 2.82e9, 2001)
    for n_c in n_cs:
        header, rows = ref.read_csv(f"{tag}_nc{n_c:g}.csv")
        if header != ["freq_hz", "amplitude"] or rows.shape != (2001, 2) or not np.allclose(
                rows[:, 0], grid, rtol=1e-15, atol=0):
            errors.append(f"s21 n_c={n_c:g}: CSV header {header} or shape {rows.shape}")
            continue
        amp = rows[:, 1]
        f_peak = rows[int(np.argmax(amp)), 0]
        if not (np.all(np.isfinite(amp)) and amp.min() >= 0) or min(
                abs(f_peak - m[0]) for m in ref.MODES.values()) > 1e6:
            errors.append(f"s21 n_c={n_c:g}: amplitude not finite/non-negative or peak at "
                          f"{f_peak:.6g} Hz, away from every mode")
        for mode, details in res["modes"][f"{n_c:g}"].items():
            _close(f"s21 {mode} cooperativity", details["cooperativity"],
                   float(ref.cooperativity(n_c, mode)), 1e-9, errors)
            _close(f"s21 {mode} fwhm_hz", details["fwhm_hz"],
                   float(ref.red_sideband_linewidth_hz(n_c, mode)), 1e-9, errors)
    return errors


def check_sweep_power(tag: str) -> list[str]:
    errors: list[str] = []
    res = _report(f"{tag}.json")
    header, rows = ref.read_csv(f"{tag}.csv")
    n_c = np.linspace(1, 3000, 300)
    if header != ["n_c", "fwhm_hz", "rel_output"] or rows.shape != (300, 3):
        return [f"sweep-power: CSV header {header} or shape {rows.shape}"]
    c_om = ref.cooperativity(n_c)
    rel_out = 4.0 * c_om / (1.0 + c_om) ** 2 * ref.KAPPA_E_HZ / ref.KAPPA_HZ
    for col, want in ((0, n_c), (1, ref.red_sideband_linewidth_hz(n_c)), (2, rel_out)):
        if not np.allclose(rows[:, col], want, rtol=1e-9, atol=0):
            errors.append(f"sweep-power: column {header[col]} differs from the reference")
    _close("sweep-power c0", res["c0"], float(ref.cooperativity(1.0)), 1e-9, errors)
    _close("sweep-power peak_n_c", res["peak_n_c"], float(n_c[np.argmax(rel_out)]), 1e-12, errors)
    return errors


def check_piezo(tag: str, phi_deg: float) -> list[str]:
    errors: list[str] = []
    res = _report(f"{tag}.json")
    e31, e32, norm = ref.piezo_out_of_plane(phi_deg)
    _close("piezo e31", res["out_of_plane"]["e31"], e31, 1e-12, errors, 1e-9)
    _close("piezo e32", res["out_of_plane"]["e32"], e32, 1e-12, errors, 1e-9)
    _close("piezo frobenius_norm", res["frobenius_norm"], norm, 1e-12, errors)
    return errors


def cli_cycle(rng, index: int) -> list[Op]:
    """Every subcommand once at its default sizes, argv values drawn from rng."""
    c = f"c{index}"

    def op(name, argv, check):
        return Op(name, [argv], lambda ex: check())

    temp = _g(rng.uniform(*ref.TEMPERATURE_BAND_K))
    n_cs = [_g(v) for v in rng.uniform(50, 3000, 2)]
    phi = _g(rng.uniform(0, 90))
    ops = [
        op("budget", ["budget", "--temperature-k", f"{temp}", "--seed", str(_seed(rng)),
                      "--out", f"{c}_budget.json"], lambda: check_budget(f"{c}_budget")),
        op("s21", ["s21", "--nc", ",".join(f"{v:g}" for v in n_cs), "--seed", str(_seed(rng)),
                   *_files(f"{c}_s21")], lambda: check_s21(f"{c}_s21", n_cs)),
        op("sweep-power", ["sweep-power", "--seed", str(_seed(rng)), *_files(f"{c}_sweep")],
           lambda: check_sweep_power(f"{c}_sweep")),
    ]
    trace = pulse_trace_argv(rng, f"{c}_trace")
    spec = spectrum_argv(rng, f"{c}_spectrum")
    ops += [
        Op("pulse-trace", [trace], lambda ex: check_pulse_trace(ex, trace)),
        Op("spectrum", [spec], lambda ex: check_spectrum(ex, spec)),
        op("piezo-tensor", ["piezo-tensor", "--phi-deg", f"{phi}", "--seed", str(_seed(rng)),
                            *_files(f"{c}_piezo")], lambda: check_piezo(f"{c}_piezo", phi)),
        op("match-design", ["match-design", "--seed", str(_seed(rng)), *_files(f"{c}_match")],
           lambda: check_match_design(f"{c}_match")),
    ]
    ops += [op(command_key(argv), argv, check) for argv, check in fit_inputs(rng, c)]
    return ops


# ------------------------------------------------------ design session


def session_op(rng, index: int) -> Op:
    """Calibrate sigma, anchor the loading window, five fits, one design search."""
    import pomtx
    from pomtx import pulsed

    tag = f"s{index}"
    target_fwhm = _g(rng.uniform(*FWHM_BAND_HZ))
    target_penalty = _g(rng.uniform(*PENALTY_BAND))
    fits = fit_inputs(rng, tag)
    state: dict = {}

    def library():
        device, _ = pomtx.load_config("paper_device")
        schedule = pulsed.PulseSchedule(mw_freq_hz=device.mode().omega_m / ref.TWO_PI,
                                        mw_duration_s=device.pulse.mw_duration_s)
        calibrated = pulsed.calibrate_jitter(target_fwhm, schedule, device.jitter.intrinsic_gamma)
        state.update(schedule=schedule, calibrated=calibrated,
                     anchored=pulsed.anchor_loading_window(calibrated, target_penalty))

    def check(ex):
        errors: list[str] = []
        calibrated, anchored = state["calibrated"], state["anchored"]
        grid = np.linspace(-250e3, 250e3, 201)
        line = pulsed.conversion_spectrum(state["schedule"], calibrated, grid, 0.0,
                                          method="quadrature")
        fwhm = pomtx.lorentzian_fit(line[:, 0], line[:, 1]).params["fwhm"]
        _close("calibrate_jitter objective", fwhm, target_fwhm, 1e-3, errors)
        _close("calibrated line fwhm", fwhm, 67e3, 0.10, errors)
        penalty = pulsed.loading_efficiency_penalty(anchored, method="quadrature").value
        _close("anchor_loading_window objective", penalty, target_penalty, 1e-3, errors)
        if not 4.0 <= penalty <= 10.0:
            errors.append(f"anchored penalty {penalty} outside [4, 10]")
        for _, fit_check in fits:
            errors += fit_check()
        return errors + check_match_design(f"{tag}_match")

    commands = [argv for argv, _ in fits]
    commands.append(["match-design", "--seed", str(_seed(rng)), *_files(f"{tag}_match")])
    return Op("session", commands, check, library=library)
