"""Command-line interface.

One subcommand per standard analysis: efficiency budget, electro-optic S21
spectra, power sweeps, pulsed traces and conversion spectra, the fit
family, the rotated piezo tensor, and a matching-network design search.
Every run writes a JSON report (inputs, seed, versions, provenance,
results); data-bearing commands also write plot-ready CSV.

Exit codes: 0 success, 2 usage, 3 validation, 4 fit non-convergence, 5 I/O.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import cache

import numpy as np

from . import __version__, em_circuit, extraction, optomech, piezo, pulsed
from .device import load_config
from .errors import (
    CalibrationError,
    FitError,
    ParameterError,
    SpectrumFormatError,
    TableRangeError,
    TransducerError,
    ValidationError,
)
from .reports import base_report, write_report
from .spectra import load_spectrum, read_table, write_table

TWO_PI = 2.0 * np.pi


def _span(text: str) -> np.ndarray:
    """Parse lo:hi:n into a linspace grid (an infinite bound gives NaN points)."""
    try:
        lo, hi, n = text.split(":")
        with np.errstate(invalid="ignore"):
            grid = np.linspace(float(lo), float(hi), int(n))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi:n, got {text!r}") from None
    if grid.size < 2:
        raise argparse.ArgumentTypeError("span needs at least 2 points")
    grid.flags.writeable = False  # a default grid is shared by every run of the parser
    return grid


def _nc_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return values


def _add_common(p: argparse.ArgumentParser, config: bool = True) -> None:
    if config:
        p.add_argument("--config", default="paper_device",
                       help="config path, name under $POMTX_CONFIG_DIR, or 'paper_device'")
    p.add_argument("--seed", type=int, default=12345, help="RNG seed recorded in the report")
    p.add_argument("--out", default=None, help="report JSON path")
    p.add_argument("--csv", default=None, help="data CSV path (commands that emit data)")


def _report_paths(args, command: str) -> tuple[str, str]:
    out = args.out or f"pomtx_{command.replace(' ', '_')}_report.json"
    csv = args.csv or out.replace("_report.json", ".csv").replace(".json", ".csv")
    return out, csv


def _device(args, rep):
    """Load --config and record its provenance in the report."""
    device, rep["provenance"] = load_config(args.config)
    return device


def cmd_budget(args, rep, csv):
    device = _device(args, rep)
    mode_name = args.mode or device.default_mode
    op = pulsed.OperatingPoint(
        mode=mode_name,
        temperature_k=args.temperature_k,
        optical_pulse=device.red_pulse(mode_name=mode_name),
    )
    budget = pulsed.efficiency_budget(device, op)
    rep["results"] = budget.as_dict()
    rep["results"]["operating_point"] = {
        "mode": op.mode,
        "temperature_k": op.temperature_k,
        "optical_energy_at_device_j": op.optical_pulse.energy_at_device_j,
    }
    return [], f"total conversion efficiency: {budget.total:.3e}"


def _s21_amplitudes(device, freqs_hz, nc_values, temperature_k):
    """Relative electro-optic transduction amplitude across the mode band, per n_c.

    Per mode: circuit delivery eta_em(f) x outcoupling x 4C/(1+C)^2, with a
    unit-peak Lorentzian of the optically broadened linewidth; modes add in
    power.  eta_em does not depend on n_c, so it is evaluated once per mode.
    Yields (n_c, amplitude, per-mode details).
    """
    matching = device.matching_at(temperature_k)
    eta_em = {
        name: np.asarray(em_circuit.electromechanical_efficiency(
            matching, device.bvd_for(name), TWO_PI * freqs_hz))
        for name in device.mechanical
    }
    for n_c in nc_values:
        total = np.zeros_like(freqs_hz)
        details = {}
        for name, mode in device.mechanical.items():
            gamma, c_om, shape = optomech.red_sideband_response(device.optical, mode, n_c)
            lor = (gamma / 2) ** 2 / ((TWO_PI * freqs_hz - mode.omega_m) ** 2 + (gamma / 2) ** 2)
            total += eta_em[name] * shape * lor
            details[name] = {
                "fwhm_hz": gamma / TWO_PI,
                "cooperativity": c_om,
                "peak_shape": shape,
            }
        yield n_c, np.sqrt(total), details


def cmd_s21(args, rep, csv):
    device = _device(args, rep)
    tables, per_nc = [], {}
    for n_c, amp, details in _s21_amplitudes(device, args.span, args.nc, args.temperature_k):
        per_nc[f"{n_c:g}"] = details
        tables.append((csv.replace(".csv", f"_nc{n_c:g}.csv"), ["freq_hz", "amplitude"],
                       [args.span, amp]))
    files = [path for path, _, _ in tables]
    rep["results"] = {"files": files, "modes": per_nc}
    return tables, f"wrote {', '.join(files)}"


def cmd_sweep_power(args, rep, csv):
    device = _device(args, rep)
    mode = device.mode(args.mode)
    n_c = args.nc_span
    gamma, c_om, rel_out = optomech.red_sideband_response(device.optical, mode, n_c)
    i_pk = int(np.argmax(rel_out))
    rep["results"] = {
        "file": csv,
        "mode": args.mode or device.default_mode,
        "c0": optomech.single_photon_cooperativity(device.optical, mode),
        "peak_n_c": n_c[i_pk],
        "peak_cooperativity": c_om[i_pk],
    }
    table = (csv, ["n_c", "fwhm_hz", "rel_output"], [n_c, gamma / TWO_PI, rel_out])
    return [table], f"wrote {csv}"


def _pulsed_setup(args, rep, default_pulse_s: str):
    """Mode, jitter model and pulse schedule of a pulsed command.

    The jitter model takes the selected mode's own lifetime.  --pulse-us,
    whenever given, replaces the config's pulse.<default_pulse_s>, so a zero
    or negative length fails PulseSchedule validation.
    """
    device = _device(args, rep)
    name = args.mode or device.default_mode
    mode = device.mode(args.mode)
    if mode.tau_energy is None:
        raise ParameterError(
            f"mechanical.{name}.tau_energy_s: required for pulsed dynamics on mode {name}; "
            "the config gives this mode no energy lifetime"
        )
    gamma = 1.0 / mode.tau_energy
    if args.sigma_hz is None:
        jm = replace(device.jitter, intrinsic_gamma=gamma)
    else:
        rep["provenance"]["jitter.sigma_hz"] = "override:--sigma-hz"
        jm = pulsed.JitterModel("none", 0.0, gamma) if args.sigma_hz == 0 \
            else pulsed.JitterModel("gaussian-quasi-static", args.sigma_hz, gamma)
    pulse_s = getattr(device.pulse, default_pulse_s) if args.pulse_us is None \
        else args.pulse_us * 1e-6
    sched = pulsed.PulseSchedule(mw_freq_hz=mode.omega_m / TWO_PI, mw_duration_s=pulse_s)
    return mode, jm, sched


def _mc_error(penalty: pulsed.PenaltyResult) -> float | None:
    """The penalty's Monte Carlo error, or None where it took no random draws."""
    return penalty.mc_error if penalty.method == "mc" else None


def cmd_pulse_trace(args, rep, csv):
    mode, jm, sched = _pulsed_setup(args, rep, "trace_duration_s")
    pulse_s = sched.mw_duration_s
    if args.points < 1:
        raise ParameterError(f"--points must be >= 1, got {args.points}")
    t_grid = np.linspace(0.0, pulse_s + 4.0 * mode.tau_energy, args.points)
    trace = pulsed.mode_population_trace(
        sched, jm, t_grid, detuning_hz=args.detuning_hz,
        n_mc=args.n_mc, seed=args.seed, method=args.method,
    )
    rising = t_grid <= pulse_s
    decaying = t_grid >= pulse_s
    results = {
        "file": csv,
        "pulse_s": pulse_s,
        "sigma_hz": jm.sigma_hz,
        "rise_time_s": pulsed.fit_rise_time(t_grid[rising], trace.population[rising]),
        "decay_rate_per_s": pulsed.fit_decay_rate(t_grid[decaying], trace.population[decaying]),
    }
    at_pulse = pulsed.loading_efficiency_penalty(
        jm, pulse_s, n_mc=args.n_mc, seed=args.seed, method=args.method
    )
    results["penalty_at_this_pulse"] = at_pulse.value
    results["penalty_at_this_pulse_mc_error"] = _mc_error(at_pulse)
    if jm.loading_window_s is not None:
        anchored = pulsed.loading_efficiency_penalty(
            jm, n_mc=args.n_mc, seed=args.seed, method=args.method
        )
        results["penalty_at_anchor_window"] = anchored.value
        results["penalty_mc_error"] = _mc_error(anchored)
        results["anchor_window_s"] = jm.loading_window_s
    rep["results"] = results
    return [(csv, ["time_s", "population"], [trace.t_s, trace.population])], f"wrote {csv}"


def cmd_spectrum(args, rep, csv):
    _, jm, sched = _pulsed_setup(args, rep, "mw_duration_s")
    f_m = sched.mw_freq_hz
    grid = args.span if args.span is not None else np.linspace(f_m - 250e3, f_m + 250e3, 201)
    spec = pulsed.conversion_spectrum(
        sched, jm, grid, f_m, n_mc=args.n_mc, seed=args.seed, method=args.method
    )
    fit = extraction.lorentzian_fit(spec[:, 0], spec[:, 1])
    rep["results"] = {
        "file": csv,
        "sigma_hz": jm.sigma_hz,
        "lorentzian_fit": fit.as_dict(),
    }
    table = (csv, ["freq_hz", "counts_rel"], [spec[:, 0], spec[:, 1]])
    return [table], f"fitted FWHM: {fit.params['fwhm']/1e3:.1f} kHz"


def cmd_fit(args, rep, csv):
    if args.model in ("lorentzian", "sqrt-lorentzian"):
        spec = load_spectrum(args.infile)
        fn = extraction.lorentzian_fit if args.model == "lorentzian" \
            else extraction.sqrt_lorentzian_fit
        fit = fn(spec.freq_hz, spec.magnitude, sigma=spec.sigma)
    elif args.model == "s11-optical":
        spec = load_spectrum(args.infile)
        if args.carrier_detuning_hz is None:
            raise ParameterError("fit s11-optical requires --carrier-detuning-hz")
        fit = extraction.optical_s11_fit(spec.freq_hz, spec.magnitude, args.carrier_detuning_hz)
    elif args.model == "damping":
        device = _device(args, rep)
        mode = device.mode(args.mode)
        rows = read_table(args.infile, ("n_c", "gamma_hz"))
        delta = TWO_PI * args.delta_hz if args.delta_hz is not None else -mode.omega_m
        fit = extraction.g0_from_damping(
            np.column_stack([rows[:, 0], TWO_PI * rows[:, 1]]),
            device.optical, delta, mode.omega_m,
        )
        fit.meta["g0_hz"] = fit.params["g0"] / TWO_PI
        fit.meta["gamma_m0_hz"] = fit.params["gamma_m0"] / TWO_PI
    else:  # bcs; argparse restricts the choices
        rows = read_table(args.infile, ("temperature_k", "freq_hz"))
        c_eff = args.c_match_f
        if c_eff is None:
            device = _device(args, rep)
            c_eff = device.matching.c_match + device.c_res
        fit = extraction.bcs_resonance_fit(rows, c_match=c_eff)

    rep["results"] = fit.as_dict()
    summary = ", ".join(f"{k}={v:.6g}" for k, v in fit.params.items())
    return [], f"{args.model}: {summary}"


def cmd_piezo_tensor(args, rep, csv):
    phi = np.deg2rad(args.phi_deg)
    tensor = piezo.rotated_piezo_tensor(phi, args.e14, unit=args.unit)
    coupling = piezo.out_of_plane_coupling(phi, args.e14, unit=args.unit)
    rep["results"] = {
        "phi_rad": phi,
        "e14_si": tensor.e14,
        "entries_si": tensor.entries,
        "out_of_plane": coupling,
        "frobenius_norm": tensor.frobenius_norm(),
        "file": csv,
    }
    table = (csv, ["row"] + [f"col{j}" for j in range(1, 7)],
             [np.arange(1, 4)] + [tensor.entries[:, j] for j in range(6)])
    return [table], f"e31={coupling['e31']:.4g} C/m^2, e32={coupling['e32']:.4g} C/m^2"


def cmd_match_design(args, rep, csv):
    device = _device(args, rep)
    omega = device.mode(args.mode).omega_m
    design = em_circuit.match_design(
        device.bvd_for(args.mode), omega,
        args.l_span if args.l_span is not None else np.linspace(100e-9, 300e-9, 81),
        args.c_span if args.c_span is not None else np.linspace(5e-15, 30e-15, 81),
        r_loss=device.matching.r_loss, z_source=device.matching.z_source,
    )
    best = design.best()
    rep["results"] = {"best": best, "file": csv, "target_freq_hz": omega / TWO_PI}
    table = (csv, ["l_match_h", "c_match_f", "s11_abs", "eta_em"],
             [design.l_mesh.ravel(), design.c_mesh.ravel(),
              design.s11_abs.ravel(), design.eta_em.ravel()])
    edge = "; on the grid edge, widen --l-span/--c-span" if best["on_grid_edge"] else ""
    return [table], (
        f"best |S11|={best['s11_abs']:.4f} at L={best['l_match_h']*1e9:.1f} nH, "
        f"C={best['c_match_f']*1e15:.2f} fF{edge}"
    )


def _run(args) -> int:
    """Run one subcommand, then write its CSVs, its report and one stdout line.

    A command fills rep["results"] and returns (tables, message); nothing is
    written until it has returned, so a failed run leaves no file behind.
    """
    command = f"fit {args.model}" if args.command == "fit" else args.command
    inputs = {k: (v.tolist() if isinstance(v, np.ndarray) else v)
              for k, v in vars(args).items() if not callable(v)}
    rep = base_report(command, inputs, args.seed)
    out, csv = _report_paths(args, command)
    tables, message = args.func(args, rep, csv)
    for path, header, columns in tables:
        write_table(path, header, columns)
    write_report(out, rep)
    print(f"{message}  (report: {out})")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argv parser, built once per process: building it costs more than a small run."""
    ap = argparse.ArgumentParser(
        prog="pomtx",
        description="Piezo-optomechanical microwave-to-optics transducer toolkit",
    )
    ap.add_argument("--version", action="version", version=f"pomtx {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", help="stage-by-stage conversion efficiency")
    _add_common(p)
    p.add_argument("--mode", default=None)
    p.add_argument("--temperature-k", type=float, default=0.02)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("s21", help="electro-optic transduction spectra")
    _add_common(p)
    p.add_argument("--nc", type=_nc_list, required=True, help="comma-separated photon numbers")
    p.add_argument("--span", type=_span, default=_span("2.78e9:2.82e9:2001"), help="lo:hi:n in Hz")
    p.add_argument("--temperature-k", type=float, default=0.02)
    p.set_defaults(func=cmd_s21)

    p = sub.add_parser("sweep-power", help="linewidth and output vs photon number")
    _add_common(p)
    p.add_argument("--mode", default=None)
    p.add_argument("--nc-span", type=_span, default=_span("1:3000:300"), help="lo:hi:n")
    p.set_defaults(func=cmd_sweep_power)

    p = sub.add_parser("pulse-trace", help="ensemble mode population over one cycle")
    _add_common(p)
    p.add_argument("--mode", default=None)
    p.add_argument("--pulse-us", type=float, default=None)
    p.add_argument("--points", type=int, default=1201)
    p.add_argument("--n-mc", type=int, default=10000)
    p.add_argument("--method", choices=("mc", "quadrature"), default="mc")
    p.add_argument("--sigma-hz", type=float, default=None, help="override config jitter sigma")
    p.add_argument("--detuning-hz", type=float, default=0.0)
    p.set_defaults(func=cmd_pulse_trace)

    p = sub.add_parser("spectrum", help="pulsed conversion line vs drive frequency")
    _add_common(p)
    p.add_argument("--mode", default=None)
    p.add_argument("--span", type=_span, default=None, help="lo:hi:n in Hz")
    p.add_argument("--pulse-us", type=float, default=None)
    p.add_argument("--n-mc", type=int, default=10000)
    p.add_argument("--method", choices=("mc", "quadrature"), default="mc")
    p.add_argument("--sigma-hz", type=float, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fit", help="least-squares parameter extraction")
    p.add_argument("model", choices=("lorentzian", "sqrt-lorentzian", "s11-optical",
                                     "damping", "bcs"))
    p.add_argument("--in", dest="infile", required=True)
    _add_common(p)
    p.add_argument("--mode", default=None)
    p.add_argument("--carrier-detuning-hz", type=float, default=None)
    p.add_argument("--delta-hz", type=float, default=None,
                   help="pump detuning for damping fits (default: red sideband)")
    p.add_argument("--c-match-f", type=float, default=None,
                   help="fixed capacitance for bcs fits (default: config C_match + C_res)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("piezo-tensor", help="rotated piezoelectric tensor")
    _add_common(p, config=False)
    p.add_argument("--phi-deg", type=float, default=0.0)
    p.add_argument("--e14", type=float, default=-0.1)
    p.add_argument("--unit", choices=("C/cm^2", "C/m^2"), default="C/cm^2")
    p.set_defaults(func=cmd_piezo_tensor)

    p = sub.add_parser("match-design", help="grid search for the matching network")
    _add_common(p)
    p.add_argument("--mode", default=None)
    p.add_argument("--l-span", type=_span, default=None, help="lo:hi:n in henry")
    p.add_argument("--c-span", type=_span, default=None, help="lo:hi:n in farad")
    p.set_defaults(func=cmd_match_design)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else int(e.code)
    try:
        return _run(args)
    except (ValidationError, ParameterError, SpectrumFormatError,
            TableRangeError, CalibrationError) as e:
        print(f"pomtx: validation error: {e}", file=sys.stderr)
        return 3
    except FitError as e:
        print(f"pomtx: fit error: {e}", file=sys.stderr)
        return 4
    except OSError as e:
        print(f"pomtx: I/O error: {e}", file=sys.stderr)
        return 5
    except TransducerError as e:  # anything else domain-specific
        print(f"pomtx: error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
