"""Every subcommand, run on generated finite numeric flags, ends with a documented
exit code (0 success, 2 usage, 3 validation, 4 fit, 5 I/O) and never with a
traceback.  Sizes stay small: at most 64 Monte Carlo draws and 101 points per
grid axis.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pomtx.cli import main
from pomtx.optomech import OpticalCavity, three_tone_s11
from pomtx.spectra import write_table

TWO_PI = 2.0 * np.pi
EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ = settings(deadline=None, max_examples=40, derandomize=True)


def magnitudes(lo: float, hi: float):
    """0, or a float of either sign with magnitude between 10**lo and 10**hi."""
    return st.one_of(
        st.just(0.0),
        st.builds(lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(lo, hi)),
    )


def span(lo: float, hi: float):
    """A lo:hi:n grid flag with n up to 101 (n < 2 is a usage error)."""
    return st.builds(lambda a, b, n: f"{a!r}:{b!r}:{n}",
                     magnitudes(lo, hi), magnitudes(lo, hi), st.integers(-1, 101))


def flags(**options):
    """argv fragments: each flag absent or present as flag=value (so a value
    that starts with '-' is not taken for an option)."""
    parts = [st.one_of(st.just([]), value.map(lambda v, f=flag: [f"{f}={v}"]))
             for flag, value in options.items()]
    return st.tuples(*parts).map(lambda groups: [a for g in groups for a in g])


MODE = st.sampled_from(["2.799GHz", "2.790GHz", "9GHz"])
SEED = st.one_of(st.integers(-3, 3), st.integers(0, 2**70))
PULSED = dict(
    mode=MODE, seed=SEED, pulse_us=magnitudes(-2, 4), n_mc=st.integers(-2, 64),
    method=st.sampled_from(["mc", "quadrature"]), sigma_hz=magnitudes(0, 7),
)


def dashed(**options):
    return flags(**{"--" + k.replace("_", "-"): v for k, v in options.items()})


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Output directory plus one valid input table per fit model."""
    d = tmp_path_factory.mktemp("fuzz")
    cav = OpticalCavity(omega_c=TWO_PI * 192.743e12, kappa=TWO_PI * 4.17e9,
                        kappa_e=TWO_PI * 2.54e9)
    grid = np.linspace(4e9, 12e9, 101)
    write_table(d / "s11.csv", ["freq_hz", "mag"],
                [grid, np.abs(three_tone_s11(cav, TWO_PI * 8e9, TWO_PI * grid))])
    line = np.linspace(2.799e9 - 300e3, 2.799e9 + 300e3, 61)
    write_table(d / "line.csv", ["freq_hz", "mag"],
                [line, 0.1 + 1.0 / (1.0 + ((line - 2.799e9) / 33e3) ** 2)])
    write_table(d / "damping.csv", ["n_c", "gamma_hz"],
                [[50.0, 300.0, 900.0], [70e3, 85e3, 120e3]])
    t = np.linspace(0.02, 7.6, 6)
    write_table(d / "bcs.csv", ["temperature_k", "freq_hz"], [t, 2.8e9 - 1e6 * t**2])
    return d


def run(argv, workdir):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(workdir / "rep.json"), "--csv", str(workdir / "rep.csv")])
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code


@FUZZ
@given(extra=dashed(mode=MODE, seed=SEED, temperature_k=magnitudes(-4, 2)))
def test_budget(workdir, extra):
    run(["budget", *extra], workdir)


@FUZZ
@given(nc=st.lists(magnitudes(-1, 5), min_size=1, max_size=3),
       extra=dashed(span=span(8, 10), temperature_k=magnitudes(-4, 2), seed=SEED))
def test_s21(workdir, nc, extra):
    run(["s21", "--nc=" + ",".join(repr(v) for v in nc), *extra], workdir)


@FUZZ
@given(extra=dashed(mode=MODE, nc_span=span(-1, 5), seed=SEED))
def test_sweep_power(workdir, extra):
    run(["sweep-power", *extra], workdir)


@FUZZ
@given(extra=dashed(points=st.integers(-2, 101), detuning_hz=magnitudes(0, 7), **PULSED))
@example(extra=["--seed=-1"])
@example(extra=["--pulse-us=10000"])  # a saturated rise: the fit drives tau towards 0
def test_pulse_trace(workdir, extra):
    # the default --points and --n-mc are larger than the caps
    defaults = ["--points", "101", "--n-mc", "64"]
    run(["pulse-trace", *defaults, *extra], workdir)


@FUZZ
@given(extra=dashed(span=span(8, 10), **PULSED))
def test_spectrum(workdir, extra):
    defaults = ["--n-mc", "64", "--span", "2.7985e9:2.7995e9:41"]
    run(["spectrum", *defaults, *extra], workdir)


@FUZZ
@given(model=st.sampled_from(["lorentzian", "sqrt-lorentzian", "s11-optical", "damping", "bcs"]),
       extra=dashed(carrier_detuning_hz=magnitudes(6, 11), delta_hz=magnitudes(6, 11),
                    c_match_f=magnitudes(-17, -12), mode=MODE, seed=SEED))
@example(model="s11-optical", extra=["--carrier-detuning-hz=-1e7"])  # rates overflow
@example(model="s11-optical", extra=["--carrier-detuning-hz=-5232991.146814947"])  # and underflow
def test_fit(workdir, model, extra):
    table = {"lorentzian": "line", "sqrt-lorentzian": "line", "s11-optical": "s11"}
    infile = workdir / f"{table.get(model, model)}.csv"
    run(["fit", model, "--in", str(infile), *extra], workdir)


@FUZZ
@given(extra=dashed(phi_deg=magnitudes(-3, 6), e14=magnitudes(-3, 3),
                    unit=st.sampled_from(["C/cm^2", "C/m^2"]), seed=SEED))
def test_piezo_tensor(workdir, extra):
    run(["piezo-tensor", *extra], workdir)


@FUZZ
@given(extra=dashed(l_span=span(-9, -5), c_span=span(-16, -12), mode=MODE, seed=SEED))
def test_match_design(workdir, extra):
    run(["match-design", *extra], workdir)
