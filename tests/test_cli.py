import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pomtx.cli import main
from pomtx.optomech import OpticalCavity, three_tone_s11
from pomtx.spectra import write_table

TWO_PI = 2.0 * np.pi


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


class TestBudgetCommand:
    def test_budget_report(self, tmp_path):
        assert main(["budget", "--out", "rep.json"]) == 0
        rep = read_report(tmp_path / "rep.json")
        assert rep["command"] == "budget"
        assert rep["results"]["total"] == pytest.approx(6.8e-8, rel=0.15)
        names = [s["name"] for s in rep["results"]["stages"]]
        assert names == [
            "mw-line-attenuation",
            "electromechanical-network",
            "jitter-loading-penalty",
            "mechanics-to-optics",
        ]
        assert all(s["provenance"] for s in rep["results"]["stages"])
        assert rep["provenance"]["optical.kappa_hz"].startswith("config:")
        assert rep["seed"] == 12345

    def test_byte_identical_reports_modulo_timestamp(self, tmp_path):
        cmd = ["budget", "--out", "rep.json", "--seed", "7"]
        assert main(cmd) == 0
        first = (tmp_path / "rep.json").read_bytes()
        assert main(cmd) == 0
        second = (tmp_path / "rep.json").read_bytes()

        def strip_timestamp(raw):
            d = json.loads(raw)
            d.pop("timestamp")
            return json.dumps(d, sort_keys=True).encode()

        assert strip_timestamp(first) == strip_timestamp(second)


class TestSpectraCommands:
    def test_s21_emits_two_spectra(self, tmp_path):
        rc = main([
            "s21", "--nc", "142,1665", "--span", "2.78e9:2.82e9:2001",
            "--out", "s21.json", "--csv", "s21.csv",
        ])
        assert rc == 0
        rep = read_report(tmp_path / "s21.json")
        assert len(rep["results"]["files"]) == 2
        for f, n_c in zip(rep["results"]["files"], (142.0, 1665.0)):
            arr = np.loadtxt(tmp_path / f, delimiter=",", skiprows=1)
            assert arr.shape == (2001, 2)
            # peaks sit at the two mechanical modes
            freqs = arr[:, 0]
            amp = arr[:, 1]
            for f_mode in (2.790e9, 2.799e9):
                window = np.abs(freqs - f_mode) < 2e6
                assert amp[window].max() > 3 * np.median(amp)
        # broader line at higher photon number
        d = rep["results"]["modes"]
        assert d["1665"]["2.799GHz"]["fwhm_hz"] > d["142"]["2.799GHz"]["fwhm_hz"]

    def test_sweep_power(self, tmp_path):
        rc = main(["sweep-power", "--nc-span", "1:3000:200", "--out", "sw.json",
                   "--csv", "sw.csv"])
        assert rc == 0
        arr = np.loadtxt(tmp_path / "sw.csv", delimiter=",", skiprows=1)
        assert arr.shape == (200, 3)
        rep = read_report(tmp_path / "sw.json")
        assert rep["results"]["peak_cooperativity"] == pytest.approx(1.0, abs=0.05)

    def test_spectrum_and_fit_round_trip(self, tmp_path):
        rc = main([
            "spectrum", "--method", "quadrature", "--out", "spec.json",
            "--csv", "spec.csv",
        ])
        assert rc == 0
        rep = read_report(tmp_path / "spec.json")
        assert rep["results"]["lorentzian_fit"]["params"]["fwhm"] == pytest.approx(
            67e3, rel=0.02
        )
        # feed the emitted CSV back through the fit command
        rows = np.loadtxt(tmp_path / "spec.csv", delimiter=",", skiprows=1)
        write_table(tmp_path / "line.csv", ["freq_hz", "mag"], [rows[:, 0], rows[:, 1]])
        rc = main(["fit", "lorentzian", "--in", "line.csv", "--out", "fit.json"])
        assert rc == 0
        fit = read_report(tmp_path / "fit.json")
        assert fit["results"]["params"]["fwhm"] == pytest.approx(67e3, rel=0.02)

    def test_fit_reads_the_spectrum_csv_as_written(self, tmp_path):
        assert main(["spectrum", "--method", "quadrature", "--out", "spec.json",
                     "--csv", "spec.csv"]) == 0
        assert (tmp_path / "spec.csv").read_text().startswith("freq_hz,counts_rel\n")
        assert main(["fit", "lorentzian", "--in", "spec.csv", "--out", "fit.json"]) == 0
        fitted = read_report(tmp_path / "fit.json")["results"]["params"]["fwhm"]
        reported = read_report(tmp_path / "spec.json")["results"]["lorentzian_fit"]
        assert fitted == reported["params"]["fwhm"]

    def test_spectrum_fit_errors_match_a_column_scaled_reference(self, tmp_path):
        # the counts are ~1e-10 and the centre ~2.8e9 Hz, so the Jacobian
        # columns differ by ~15 orders of magnitude; an unscaled inverse of
        # J^T J used to report the centre and width errors as ~0 Hz
        assert main(["spectrum", "--out", "spec.json", "--csv", "spec.csv"]) == 0
        fit = read_report(tmp_path / "spec.json")["results"]["lorentzian_fit"]
        x, y = np.loadtxt(tmp_path / "spec.csv", delimiter=",", skiprows=1).T
        f0, g, a, off = (fit["params"][k] for k in ("center", "fwhm", "amplitude", "offset"))
        den = (x - f0) ** 2 + (g / 2) ** 2
        shape = (g / 2) ** 2 / den
        jac = np.column_stack([2 * a * shape * (x - f0) / den,
                               2 * a * shape * (1 - shape) / g, shape, np.ones_like(x)])
        r = off + a * shape - y
        scale = np.linalg.norm(jac, axis=0)
        cov = np.linalg.inv((jac / scale).T @ (jac / scale)) / np.outer(scale, scale)
        want = np.sqrt(np.diag(cov) * (r @ r) / (x.size - 4))
        for name, w in zip(("center", "fwhm", "amplitude", "offset"), want):
            assert fit["sigmas"][name] == pytest.approx(w, rel=0.10), name
        assert 200 < fit["sigmas"]["center"] < 400
        assert 700 < fit["sigmas"]["fwhm"] < 1400

    def test_s21_evaluates_the_circuit_once_per_mode(self, monkeypatch):
        from pomtx import cli

        calls = []
        circuit = cli.em_circuit.electromechanical_efficiency

        def counting(*args, **kwargs):
            calls.append(args)
            return circuit(*args, **kwargs)

        monkeypatch.setattr(cli.em_circuit, "electromechanical_efficiency", counting)
        assert main(["s21", "--nc", "142,1665,3000,5000", "--span", "2.78e9:2.82e9:201",
                     "--out", "s21.json", "--csv", "s21.csv"]) == 0
        assert len(calls) == 2
        assert len(read_report("s21.json")["results"]["files"]) == 4

    @pytest.mark.parametrize("nc", [",", " , ,"])
    def test_s21_empty_photon_number_list_is_a_usage_error(self, nc, capsys, tmp_path):
        assert main(["s21", "--nc", nc, "--out", "s.json", "--csv", "s.csv"]) == 2
        assert "expected comma-separated numbers" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_pulse_trace_quadrature(self, tmp_path):
        rc = main([
            "pulse-trace", "--method", "quadrature", "--points", "801",
            "--out", "tr.json", "--csv", "tr.csv",
        ])
        assert rc == 0
        rep = read_report(tmp_path / "tr.json")
        assert 10e-6 < rep["results"]["rise_time_s"] < 25e-6
        assert rep["results"]["decay_rate_per_s"] == pytest.approx(1 / 61.4e-6, rel=0.02)
        assert 4.0 <= rep["results"]["penalty_at_anchor_window"] <= 10.0
        # a deterministic penalty has no Monte Carlo error to report
        assert rep["results"]["penalty_at_this_pulse_mc_error"] is None
        assert rep["results"]["penalty_mc_error"] is None

    def test_pulse_trace_sigma_override_marks_provenance(self, tmp_path):
        rc = main([
            "pulse-trace", "--sigma-hz", "0", "--points", "401",
            "--out", "tr0.json", "--csv", "tr0.csv",
        ])
        assert rc == 0
        rep = read_report(tmp_path / "tr0.json")
        assert rep["provenance"]["jitter.sigma_hz"] == "override:--sigma-hz"
        assert rep["results"]["sigma_hz"] == 0.0
        assert rep["results"]["penalty_at_this_pulse"] == 1.0
        # quiet rise is the gamma-limited 2/gamma = 2 tau_m
        assert rep["results"]["rise_time_s"] == pytest.approx(2 * 61.4e-6, rel=0.02)

    def test_spectrum_mc_path(self, tmp_path):
        rc = main([
            "spectrum", "--n-mc", "4000", "--seed", "5",
            "--out", "mc.json", "--csv", "mc.csv",
        ])
        assert rc == 0
        rep = read_report(tmp_path / "mc.json")
        assert rep["results"]["lorentzian_fit"]["params"]["fwhm"] == pytest.approx(
            67e3, rel=0.10
        )

    def test_pulse_trace_reports_per_pulse_penalty_error(self, tmp_path):
        rc = main([
            "pulse-trace", "--n-mc", "500", "--points", "201",
            "--out", "mc.json", "--csv", "mc.csv",
        ])
        assert rc == 0
        res = read_report(tmp_path / "mc.json")["results"]
        assert 0 < res["penalty_at_this_pulse_mc_error"] < res["penalty_at_this_pulse"]
        assert 0 < res["penalty_mc_error"] < res["penalty_at_anchor_window"]


class TestParserReuse:
    """main() builds its parser once per process, so runs must not leak into each other."""

    RUNS = [
        ["s21", "--nc", "100,1000"],
        ["sweep-power"],
        ["s21", "--nc", "10", "--span", "2.79e9:2.8e9:11"],
        ["sweep-power", "--nc-span", "1:50:7"],
    ]

    def test_repeated_runs_write_identical_files(self, tmp_path, monkeypatch):
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            monkeypatch.chdir(tmp_path / d)
            for i, argv in enumerate(self.RUNS):
                assert main(argv + ["--out", f"r{i}.json", "--csv", f"r{i}.csv"]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            a, b = (tmp_path / d / name for d in ("a", "b"))
            if name.endswith(".json"):
                a, b = (read_report(p) for p in (a, b))
                a.pop("timestamp"), b.pop("timestamp")
                assert a == b, name
            else:
                assert a.read_bytes() == b.read_bytes(), name

    def test_default_grids_are_read_only(self):
        from pomtx.cli import build_parser

        assert build_parser() is build_parser()
        for argv, dest in ((["s21", "--nc", "1"], "span"), (["sweep-power"], "nc_span")):
            grid = getattr(build_parser().parse_args(argv), dest)
            assert not grid.flags.writeable
            with pytest.raises(ValueError):
                grid[0] = 0.0


class TestInvalidPulsedInputs:
    @pytest.mark.parametrize("argv", [
        ["pulse-trace", "--n-mc", "0"],
        ["spectrum", "--n-mc", "-3"],
        ["pulse-trace", "--points", "1"],
        ["pulse-trace", "--points", "2"],
        ["pulse-trace", "--points", "3"],
        ["pulse-trace", "--points", "5"],
        ["pulse-trace", "--points", "-4"],
        ["pulse-trace", "--pulse-us", "0"],
        ["spectrum", "--pulse-us", "0"],
        ["pulse-trace", "--n-mc", "1"],
        ["spectrum", "--span", "2.7989e9:2.7991e9:5", "--method", "quadrature"],
    ])
    def test_invalid_sizes_exit_3(self, argv, capsys, tmp_path):
        assert main(argv + ["--out", "bad.json", "--csv", "bad.csv"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("pomtx: validation error:")
        assert "Traceback" not in err
        # several cases fail only after the trace or spectrum is computed
        assert list(tmp_path.iterdir()) == []

    def test_saturated_rise_time_exits_4(self, capsys, tmp_path):
        # a 10 ms pulse sampled every ~100 us is flat from the second sample on
        argv = ["pulse-trace", "--pulse-us", "10000", "--points", "101", "--n-mc", "64",
                "--out", "sat.json", "--csv", "sat.csv"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("pomtx: fit error:") and "rise_time" in err
        assert list(tmp_path.iterdir()) == []

    def test_quadrature_past_the_node_ceiling_exits_3(self, capsys, tmp_path):
        # 100 kHz of jitter over a 5 ms pulse would take about 8900 nodes
        argv = ["pulse-trace", "--method", "quadrature", "--sigma-hz", "1e5", "--pulse-us",
                "5000", "--points", "101", "--out", "q.json", "--csv", "q.csv"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("pomtx: validation error:") and "use --method mc" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["pulse-trace", "spectrum"])
    def test_mode_without_lifetime_exits_3(self, command, capsys):
        argv = [command, "--mode", "2.790GHz", "--method", "quadrature",
                "--out", "m.json", "--csv", "m.csv"]
        assert main(argv) == 3
        assert "mechanical.2.790GHz.tau_energy_s" in capsys.readouterr().err


class TestFitCommands:
    def test_fit_s11_on_self_generated_sweep(self, tmp_path):
        cav = OpticalCavity(
            omega_c=TWO_PI * 192.743e12, kappa=TWO_PI * 4.17e9, kappa_e=TWO_PI * 2.54e9
        )
        grid = np.linspace(4e9, 12e9, 801)
        mag = np.abs(three_tone_s11(cav, TWO_PI * 8e9, TWO_PI * grid))
        write_table(tmp_path / "sweep.csv", ["freq_hz", "mag"], [grid, mag])
        rc = main([
            "fit", "s11-optical", "--in", "sweep.csv",
            "--carrier-detuning-hz", "8.4e9", "--out", "s11.json",
        ])
        assert rc == 0
        rep = read_report(tmp_path / "s11.json")
        assert rep["results"]["meta"]["eta_o"] == pytest.approx(0.6091, abs=0.001)
        assert rep["results"]["meta"]["kappa_hz"] == pytest.approx(4.17e9, rel=1e-3)

    def test_fit_damping_round_trip(self, tmp_path, device, cavity, mode_2799):
        from pomtx.optomech import optomechanical_damping

        n_c = np.array([50.0, 300.0, 900.0, 1800.0])
        gam = np.asarray(optomechanical_damping(cavity, mode_2799, n_c, -mode_2799.omega_m))
        write_table(tmp_path / "damping.csv", ["n_c", "gamma_hz"], [n_c, gam / TWO_PI])
        rc = main(["fit", "damping", "--in", "damping.csv", "--out", "damp.json"])
        assert rc == 0
        rep = read_report(tmp_path / "damp.json")
        assert rep["results"]["meta"]["g0_hz"] == pytest.approx(700e3, rel=1e-6)

    def test_fit_bcs_round_trip(self, tmp_path, device):
        from pomtx.em_circuit import kinetic_inductance_at

        t = np.linspace(0.02, 7.6, 12)
        l = np.asarray(kinetic_inductance_at(device.kinetic, t))
        c_eff = device.matching.c_match + device.c_res
        f = 1 / (TWO_PI * np.sqrt(l * c_eff))
        write_table(tmp_path / "bcs.csv", ["temperature_k", "freq_hz"], [t, f])
        rc = main(["fit", "bcs", "--in", "bcs.csv", "--out", "bcs.json"])
        assert rc == 0
        rep = read_report(tmp_path / "bcs.json")
        assert rep["results"]["params"]["t_c"] == pytest.approx(8.0, rel=0.01)

    def test_fit_sqrt_lorentzian(self, tmp_path):
        grid = np.linspace(2.799e9 - 300e3, 2.799e9 + 300e3, 241)
        y = 0.1 + 0.9 * np.sqrt((33.5e3) ** 2 / ((grid - 2.799e9) ** 2 + (33.5e3) ** 2))
        write_table(tmp_path / "amp.csv", ["freq_hz", "mag"], [grid, y])
        rc = main(["fit", "sqrt-lorentzian", "--in", "amp.csv", "--out", "sq.json"])
        assert rc == 0
        rep = read_report(tmp_path / "sq.json")
        assert rep["results"]["params"]["fwhm"] == pytest.approx(67e3, rel=1e-6)

    @pytest.mark.parametrize("bad_sigma", [0.0, -0.01, np.nan])
    @pytest.mark.parametrize("model", ["lorentzian", "sqrt-lorentzian"])
    def test_non_positive_or_nan_sigma_exits_3(self, model, bad_sigma, capsys,
                                                tmp_path_factory, tmp_path):
        grid = np.linspace(2.799e9 - 200e3, 2.799e9 + 200e3, 41)
        y = 0.1 + 0.9 * (33.5e3) ** 2 / ((grid - 2.799e9) ** 2 + (33.5e3) ** 2)
        sigma = np.full(41, 0.01)
        sigma[17] = bad_sigma
        line = tmp_path_factory.mktemp("inputs") / "line.csv"
        write_table(line, ["freq_hz", "mag", "sigma"], [grid, y, sigma])
        assert main(["fit", model, "--in", str(line), "--out", "f.json"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "sigma" in err
        assert list(tmp_path.iterdir()) == []

    def test_rank_deficient_fit_exits_4(self, tmp_path):
        grid = np.linspace(1e9, 2e9, 32)
        write_table(tmp_path / "flat.csv", ["freq_hz", "mag"], [grid, np.full(32, 0.5)])
        assert main(["fit", "lorentzian", "--in", "flat.csv", "--out", "f.json"]) == 4

    def test_non_converging_fit_exits_4(self, tmp_path, monkeypatch, capsys):
        from pomtx import _solvers

        solve = _solvers.levenberg_marquardt
        monkeypatch.setattr(_solvers, "levenberg_marquardt",
                            lambda fun, x0, **kw: solve(fun, x0, **{**kw, "max_nfev": 2}))
        grid = np.linspace(2.799e9 - 300e3, 2.799e9 + 300e3, 61)
        y = 0.1 + 1.0 / (1.0 + ((grid - 2.7991e9) / 33e3) ** 2)
        write_table(tmp_path / "line.csv", ["freq_hz", "mag"], [grid, y])
        assert main(["fit", "lorentzian", "--in", "line.csv", "--out", "f.json"]) == 4
        assert "did not converge (status 5)" in capsys.readouterr().err
        assert not (tmp_path / "f.json").exists()

    def test_s11_guess_below_the_sweep_exits_4(self, fit_inputs, capsys, tmp_path):
        # both starts run off to rates of 1e83 Hz and more, where |S11| no
        # longer depends on any parameter: a failed fit, not zero errors
        argv = ["fit", "s11-optical", "--in", fit_inputs["s11"],
                "--carrier-detuning-hz=-1e7", "--out", "f.json"]
        assert main(argv) == 4
        assert "failed from both coupling starts" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_input_exits_5(self):
        assert main(["fit", "lorentzian", "--in", "does_not_exist.csv"]) == 5


class TestMiscCommands:
    def test_piezo_tensor(self, tmp_path):
        rc = main(["piezo-tensor", "--phi-deg", "0", "--out", "pz.json", "--csv", "pz.csv"])
        assert rc == 0
        rep = read_report(tmp_path / "pz.json")
        assert rep["results"]["out_of_plane"]["e31"] == pytest.approx(500.0)
        assert rep["results"]["out_of_plane"]["e32"] == pytest.approx(-500.0)
        rows = (tmp_path / "pz.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + 3 rows

    def test_match_design_small_grid(self, tmp_path):
        rc = main([
            "match-design", "--l-span", "150e-9:250e-9:11",
            "--c-span", "10e-15:25e-15:11", "--out", "md.json", "--csv", "md.csv",
        ])
        assert rc == 0
        rep = read_report(tmp_path / "md.json")
        best = rep["results"]["best"]
        arr = np.loadtxt(tmp_path / "md.csv", delimiter=",", skiprows=1)
        assert best["s11_abs"] <= arr[:, 2].min() + 1e-12
        # the optimum resonates near the mechanical mode
        assert best["match_freq_hz"] == pytest.approx(2.799e9, abs=60e6)

    def test_match_design_reports_grid_edge(self, tmp_path, capsys):
        argv = ["match-design", "--out", "md.json", "--csv", "md.csv"]
        assert main(argv) == 0
        best = read_report(tmp_path / "md.json")["results"]["best"]
        assert best["l_match_h"] == 300e-9 and best["on_grid_edge"] is True
        assert "grid edge" in capsys.readouterr().out
        rows = np.loadtxt(tmp_path / "md.csv", delimiter=",", skiprows=1)
        assert rows.shape == (81 * 81, 4)
        # L outer, C inner
        assert np.all(np.diff(rows[:, 0]) >= 0) and rows[1, 1] > rows[0, 1]

        argv = ["match-design", "--l-span", "150e-9:250e-9:11",
                "--c-span", "10e-15:25e-15:11", "--out", "in.json", "--csv", "in.csv"]
        assert main(argv) == 0
        assert read_report(tmp_path / "in.json")["results"]["best"]["on_grid_edge"] is False
        assert "grid edge" not in capsys.readouterr().out

    @pytest.mark.parametrize("span", [
        "--l-span=0:1e-7:3", "--c-span=-1e-15:3e-14:5", "--l-span=nan:1e-7:3",
    ])
    def test_match_design_invalid_grid_exits_3(self, span, tmp_path, capsys):
        assert main(["match-design", span, "--out", "md.json", "--csv", "md.csv"]) == 3
        err = capsys.readouterr().err
        assert "must be finite and > 0" in err and "Traceback" not in err
        assert not (tmp_path / "md.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["budget", "--temperature-k", "nan"],
        ["s21", "--nc", "100", "--temperature-k", "nan"],
    ])
    def test_nan_temperature_exits_3_naming_temperature(self, argv, capsys):
        assert main(argv + ["--out", "t.json", "--csv", "t.csv"]) == 3
        assert "temperature must satisfy" in capsys.readouterr().err

    def test_s21_writes_no_spectrum_when_a_later_photon_number_fails(self, tmp_path):
        assert main(["s21", "--nc", "100,-5", "--out", "s.json", "--csv", "s.csv"]) == 3
        assert list(tmp_path.iterdir()) == []

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_bad_flag_exits_2(self):
        assert main(["budget", "--no-such-flag"]) == 2

    def test_invalid_config_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"default_mode": "x"}')
        assert main(["budget", "--config", str(bad)]) == 3

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "pomtx" in capsys.readouterr().out


# every float flag and span bound of every subcommand; {v} is the non-finite value
_NON_FINITE_ARGV = [
    "budget --temperature-k={v}",
    "s21 --nc={v}",
    "s21 --nc 100 --temperature-k={v}",
    "s21 --nc 100 --span={v}:2.8e9:5",
    "s21 --nc 100 --span=2.78e9:{v}:5",
    "sweep-power --nc-span={v}:10:3",
    "sweep-power --nc-span=1:{v}:3",
    "pulse-trace --method quadrature --points 50 --pulse-us={v}",
    "pulse-trace --method quadrature --points 50 --sigma-hz={v}",
    "pulse-trace --method quadrature --points 50 --detuning-hz={v}",
    "spectrum --method quadrature --pulse-us={v}",
    "spectrum --method quadrature --sigma-hz={v}",
    "spectrum --method quadrature --span={v}:2.8e9:50",
    "spectrum --method quadrature --span=2.7989e9:{v}:50",
    "fit s11-optical --in {s11} --carrier-detuning-hz={v}",
    "fit damping --in {damping} --delta-hz={v}",
    "fit bcs --in {bcs} --c-match-f={v}",
    "piezo-tensor --phi-deg={v}",
    "piezo-tensor --e14={v}",
    "match-design --l-span={v}:3e-7:3",
    "match-design --l-span=1e-7:{v}:3",
    "match-design --c-span={v}:3e-14:3",
    "match-design --c-span=5e-15:{v}:3",
]


@pytest.fixture(scope="module")
def fit_inputs(tmp_path_factory):
    """Valid input tables for the fit commands, outside the working directory."""
    d = tmp_path_factory.mktemp("fit_inputs")
    cav = OpticalCavity(omega_c=TWO_PI * 192.743e12, kappa=TWO_PI * 4.17e9,
                        kappa_e=TWO_PI * 2.54e9)
    grid = np.linspace(4e9, 12e9, 101)
    write_table(d / "s11.csv", ["freq_hz", "mag"],
                [grid, np.abs(three_tone_s11(cav, TWO_PI * 8e9, TWO_PI * grid))])
    write_table(d / "damping.csv", ["n_c", "gamma_hz"],
                [[50.0, 300.0, 900.0], [70e3, 85e3, 120e3]])
    t = np.linspace(0.02, 7.6, 6)
    write_table(d / "bcs.csv", ["temperature_k", "freq_hz"], [t, 2.8e9 - 1e6 * t**2])
    return {name: str(d / f"{name}.csv") for name in ("s11", "damping", "bcs")}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("template", _NON_FINITE_ARGV)
def test_non_finite_flag_exits_2_or_3_leaving_no_file(template, value, fit_inputs, capsys,
                                                      tmp_path):
    argv = template.format(v=value, **fit_inputs).split()
    assert main(argv) in (2, 3)
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cold_start_loads_no_scipy_solvers_or_constants(tmp_path, fit_inputs):
    """No subcommand, every fit model included, loads any scipy or jsonschema module."""
    probe = (
        "import sys, pomtx, pomtx.cli\n"
        f"fits = {fit_inputs!r}\n"
        "runs = [['budget'], ['s21', '--nc', '100,1000'], ['sweep-power'],\n"
        "        ['pulse-trace', '--n-mc', '500', '--points', '201'],\n"
        "        ['spectrum', '--n-mc', '500', '--csv', 'line.csv'],\n"
        "        ['spectrum', '--method', 'quadrature'], ['piezo-tensor'], ['match-design'],\n"
        "        ['fit', 'lorentzian', '--in', 'line.csv'],\n"
        "        ['fit', 'sqrt-lorentzian', '--in', 'line.csv'],\n"
        "        ['fit', 's11-optical', '--in', fits['s11'], '--carrier-detuning-hz', '8e9'],\n"
        "        ['fit', 'damping', '--in', fits['damping']],\n"
        "        ['fit', 'bcs', '--in', fits['bcs']]]\n"
        "for argv in runs:\n"
        "    assert pomtx.cli.main(argv + ['--out', 'rep.json']) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"


def test_import_loads_no_numpy_polynomial():
    """The quadrature rule needs no polynomial module: importing pomtx loads none."""
    probe = ("import sys, pomtx, pomtx.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
