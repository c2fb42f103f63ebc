"""The numpy Levenberg-Marquardt and Brent solvers against scipy as the oracle.

scipy is a test dependency only: the fits and calibrations are run once with
pomtx's own solvers and once with scipy.optimize swapped in on the same
residual functions, and the results must agree.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomtx import _solvers, extraction, pulsed
from pomtx._solvers import LMResult, brent_root, levenberg_marquardt
from pomtx.em_circuit import KineticInductanceModel, kinetic_inductance_at
from pomtx.optomech import OpticalCavity, three_tone_s11

optimize = pytest.importorskip("scipy.optimize")

TWO_PI = 2.0 * np.pi
GRID = np.linspace(2.799e9 - 300e3, 2.799e9 + 300e3, 241)


def scipy_lm(fun, x0, *, ftol=1e-8, xtol=1e-8, gtol=1e-8, max_nfev=None):
    """least_squares(method="lm") in the shape of levenberg_marquardt's result."""
    res = optimize.least_squares(fun, x0, method="lm", ftol=ftol, xtol=xtol, gtol=gtol)
    scale = np.linalg.norm(res.jac, axis=0)
    scale[scale == 0.0] = 1.0
    return LMResult(res.x, res.fun, res.cost, res.jac / scale, scale, res.nfev,
                    res.success, res.status)


def scipy_brentq(f, a, b, fa, fb, *, xtol):
    return optimize.brentq(f, a, b, xtol=xtol)


def with_scipy(fn, *args, **kwargs):
    """Run fn with scipy's solvers in place of pomtx's."""
    with mock.patch.object(_solvers, "levenberg_marquardt", scipy_lm), \
            mock.patch.object(_solvers, "brent_root", scipy_brentq):
        return fn(*args, **kwargs)


def assert_same_fit(ours, theirs, rel=1e-8, in_sigma=1e-3, floor=0.0):
    """Parameters agree to rel, or to in_sigma standard errors.

    floor is the size of the data: a parameter that is zero to rounding (an
    offset of a noiseless line) only has to agree to rel * floor.
    """
    assert ours.converged and theirs.converged
    for name, want in theirs.params.items():
        got = ours.params[name]
        assert (abs(got - want) <= rel * max(abs(want), floor)
                or abs(got - want) <= in_sigma * ours.sigmas[name]), name


def lorentzian(x, f0, g, a, off, sqrt=False):
    shape = (g / 2) ** 2 / ((x - f0) ** 2 + (g / 2) ** 2)
    return off + a * (np.sqrt(shape) if sqrt else shape)


class TestLevenbergMarquardtAgainstScipy:
    def test_acceptance_peaks(self):
        rng = np.random.default_rng(42)
        clean = lorentzian(GRID, 2.799e9, 67e3, 1.8, 0.15)
        for y in (clean, clean + rng.normal(0, 0.018, GRID.size)):
            for fit in (extraction.lorentzian_fit, extraction.sqrt_lorentzian_fit):
                assert_same_fit(fit(GRID, y), with_scipy(fit, GRID, y), floor=y.max())

    def test_acceptance_optical_s11(self):
        grid = np.linspace(4e9, 12e9, 801)
        for kappa_e, kappa_i in ((2.54e9, 1.63e9), (2e9, 2e9), (0.834e9, 3.336e9)):
            cav = OpticalCavity(omega_c=1.0, kappa=TWO_PI * (kappa_e + kappa_i),
                                kappa_e=TWO_PI * kappa_e)
            mag = np.abs(three_tone_s11(cav, TWO_PI * 8e9, TWO_PI * grid))
            ours = extraction.optical_s11_fit(grid, mag, 8.5e9)
            theirs = with_scipy(extraction.optical_s11_fit, grid, mag, 8.5e9)
            assert ours.meta["undercoupled"] == theirs.meta["undercoupled"]
            assert_same_fit(ours, theirs)

    def test_acceptance_bcs(self):
        c_match = 17.33e-15
        t = np.linspace(0.02, 7.6, 12)
        model = KineticInductanceModel(l_geometric=50e-9, l_kinetic_0=130e-9, t_c=8.0)
        f = 1 / (TWO_PI * np.sqrt(np.asarray(kinetic_inductance_at(model, t)) * c_match))
        f = f * (1 + np.random.default_rng(3).normal(0, 1e-7, f.size))
        pts = np.column_stack([t, f])
        assert_same_fit(extraction.bcs_resonance_fit(pts, c_match),
                        with_scipy(extraction.bcs_resonance_fit, pts, c_match))

    def test_acceptance_rise_time(self):
        j = pulsed.JitterModel("gaussian-quasi-static", 27.5e3, 1 / 61.4e-6)
        for pulse_s in (26e-6, 50e-6, 300e-6):
            t = np.linspace(0.0, pulse_s, 301)
            trace = pulsed.mode_population_trace(
                pulsed.PulseSchedule(mw_freq_hz=2.799e9, mw_duration_s=pulse_s), j, t,
                method="quadrature")
            ours = pulsed.fit_rise_time(t, trace.population)
            theirs = with_scipy(pulsed.fit_rise_time, t, trace.population)
            assert ours == pytest.approx(theirs, rel=1e-8)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        center_khz=st.floats(-100.0, 100.0),
        fwhm_khz=st.floats(20.0, 200.0),
        amplitude=st.floats(1e-12, 1e3),
        offset_frac=st.floats(-0.5, 0.5),
        noise=st.sampled_from([0.0, 1e-3, 1e-2]),
        sqrt=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_generated_peaks(self, center_khz, fwhm_khz, amplitude, offset_frac,
                             noise, sqrt, seed):
        y = lorentzian(GRID, 2.799e9 + 1e3 * center_khz, 1e3 * fwhm_khz, amplitude,
                       offset_frac * amplitude, sqrt)
        y = y + np.random.default_rng(seed).normal(0.0, noise * amplitude, GRID.size)
        fit = extraction.sqrt_lorentzian_fit if sqrt else extraction.lorentzian_fit
        assert_same_fit(fit(GRID, y), with_scipy(fit, GRID, y), floor=np.abs(y).max())

    def test_scaled_jacobian_of_a_badly_scaled_problem(self):
        # residuals of ~1e9 and Jacobian columns seven orders of magnitude
        # apart; jac_scaled * scale is the Jacobian at the solution
        t = np.linspace(0.0, 1.0, 20)

        def resid(p):
            return 1e9 * ((p[0] - 0.3) * t + (1e7 * p[1] - 0.2) * t * t)

        res = levenberg_marquardt(resid, [1.0, 1e-7], ftol=1e-13, xtol=1e-13, gtol=1e-14)
        assert res.success and res.status in (1, 2, 3, 4)
        np.testing.assert_allclose(res.x, [0.3, 2e-8], rtol=1e-9)
        np.testing.assert_allclose(res.jac_scaled * res.scale,
                                   1e9 * np.column_stack([t, 1e7 * t * t]), rtol=1e-6)

    def test_non_finite_start_is_a_failed_fit(self):
        res = levenberg_marquardt(lambda p: np.full(5, np.nan) * p[0], [1.0, 2.0])
        assert not res.success and res.status == -1

    def test_evaluation_budget_stops_the_fit(self):
        res = levenberg_marquardt(lambda p: np.array([p[0] ** 2 - 2.0, 1e-3 * p[1]]),
                                  [10.0, 1.0], max_nfev=3)
        assert not res.success and res.status == 5 and res.nfev == 3


class TestBrentAgainstScipy:
    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        root=st.floats(-10.0, 10.0),
        left=st.floats(1e-3, 20.0),
        right=st.floats(1e-3, 20.0),
        kind=st.sampled_from(["cubic", "tanh", "exp", "step"]),
        xtol=st.sampled_from([1e-12, 1e-9, 1e-3, 0.5]),
    )
    def test_generated_functions(self, root, left, right, kind, xtol):
        f = {
            "cubic": lambda x: (x - root) ** 3 + 0.1 * (x - root),
            "tanh": lambda x: math.tanh(3.0 * (x - root)) - 0.01 * (x - root),
            "exp": lambda x: math.expm1(x - root),
            "step": lambda x: -1.0 if x < root else 1.0 + x - root,
        }[kind]
        a, b = root - left, root + right
        ours = brent_root(f, a, b, f(a), f(b), xtol=xtol)
        theirs = optimize.brentq(f, a, b, xtol=xtol)
        assert abs(ours - theirs) <= xtol + 4 * np.finfo(float).eps * abs(theirs)
        assert abs(ours - root) <= 2 * xtol + 1e-9 * max(1.0, abs(root))

    def test_ends_must_bracket(self):
        with pytest.raises(ValueError, match="do not bracket"):
            brent_root(lambda x: x * x + 1, -1.0, 1.0, 2.0, 2.0, xtol=1e-9)

    def test_calibration_matches_scipy(self, device):
        sched = pulsed.PulseSchedule(mw_freq_hz=2.799e9, mw_duration_s=26e-6)
        gamma = 1 / device.mode().tau_energy
        for target in (61e3, 67e3, 69e3):
            ours = pulsed.calibrate_jitter(target, sched, gamma)
            theirs = with_scipy(pulsed.calibrate_jitter, target, sched, gamma)
            assert ours.sigma_hz == pytest.approx(theirs.sigma_hz, abs=0.5)

    def test_anchor_matches_scipy_bit_for_bit(self, device):
        for target in (6.2, 6.9, 7.6):
            ours = pulsed.anchor_loading_window(device.jitter, target)
            theirs = with_scipy(pulsed.anchor_loading_window, device.jitter, target)
            assert ours.loading_window_s == theirs.loading_window_s
