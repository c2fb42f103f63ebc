import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pomtx.pulsed as pulsed
from pomtx.errors import CalibrationError, FitConvergenceError, ParameterError, TableRangeError
from pomtx.extraction import lorentzian_fit
from pomtx.optomech import DriveTone, swap_probability
from pomtx.pulsed import (
    BudgetStage,
    EfficiencyBudget,
    JitterModel,
    OperatingPoint,
    PulseSchedule,
    anchor_loading_window,
    calibrate_jitter,
    conversion_spectrum,
    efficiency_budget,
    fit_decay_rate,
    fit_rise_time,
    loading_efficiency_penalty,
    mode_population_trace,
    thermal_vs_pulse_energy,
)
from pomtx.pulsed import _ensemble, _ensemble_mean, _in_pulse_peak, _isotonic, _single_shot

TWO_PI = 2.0 * np.pi
TAU_M = 61.4e-6
GAMMA = 1.0 / TAU_M


def oracle_population(t, delta, gamma, t_pulse, omega_d=1.0):
    """Independent closed-form single-shot solution used as the test oracle."""
    s = gamma / 2.0 + 1j * delta
    t = np.asarray(t, dtype=float)
    beta_end = omega_d * (1.0 - np.exp(-s * t_pulse)) / s
    during = np.abs(omega_d * (1.0 - np.exp(-s * np.minimum(t, t_pulse))) / s) ** 2
    after = np.abs(beta_end) ** 2 * np.exp(-gamma * np.clip(t - t_pulse, 0, None))
    return np.where(t <= t_pulse, during, after)


def oracle_gauss_average(fn, sigma_hz, order=301):
    """Average fn(delta_rad) over a centered Gaussian via Hermite quadrature."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    weights = weights / np.sqrt(2 * np.pi)
    acc = None
    for x, w in zip(nodes, weights):
        val = w * fn(TWO_PI * sigma_hz * x)
        acc = val if acc is None else acc + val
    return acc


def quadrature_nodes(j, u_max):
    """Node count of the quadrature rule for in-pulse times up to u_max, from its sizing:
    spacing 2 pi / (2 pi sigma min(u_max, 80 / gamma) + 9) out to +-9 standard deviations."""
    reach = TWO_PI * j.sigma_hz * min(u_max, 80.0 / j.intrinsic_gamma)
    return 2 * math.ceil(9.0 * (reach + 9.0) / TWO_PI) + 1


def past_node_ceiling(j, method, u_max):
    return method == "quadrature" and quadrature_nodes(j, u_max) > pulsed._RULE_MAX_NODES


def sched(pulse_s, freq_hz=2.799e9):
    return PulseSchedule(mw_freq_hz=freq_hz, mw_duration_s=pulse_s)


def quiet():
    return JitterModel("none", 0.0, GAMMA)


def gaussian(sigma_hz, **kw):
    return JitterModel("gaussian-quasi-static", sigma_hz, GAMMA, **kw)


class TestSingleShotDynamics:
    def test_free_decay_matches_lifetime(self):
        t = np.linspace(26e-6, 300e-6, 400)
        trace = mode_population_trace(sched(26e-6), quiet(), t)
        n0 = trace.population[0]
        np.testing.assert_allclose(
            trace.population, n0 * np.exp(-(t - t[0]) / TAU_M), rtol=1e-12
        )

    def test_decay_fit_within_one_percent(self):
        t = np.linspace(26e-6, 326e-6, 301)
        trace = mode_population_trace(sched(26e-6), quiet(), t)
        rate = fit_decay_rate(t, trace.population)
        assert rate == pytest.approx(1.0 / TAU_M, rel=0.01)

    def test_driven_steady_state(self):
        t = np.array([40 * TAU_M])
        trace = mode_population_trace(sched(t[0] * 1.01, freq_hz=2.799e9), quiet(), t)
        assert trace.population[0] == pytest.approx(1.0 / (GAMMA / 2) ** 2, rel=1e-6)

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            mode_population_trace(sched(26e-6), quiet(), [])

    def test_quiet_rise_time_is_two_over_gamma(self):
        t = np.linspace(0, 50e-6, 2001)
        trace = mode_population_trace(sched(50e-6), quiet(), t)
        assert fit_rise_time(t, trace.population) == pytest.approx(2.0 / GAMMA, rel=0.01)


def complex_closed_form(t, delta, gamma, t_pulse, omega_d=1.0):
    """|Omega (1 - e^{-s min(t,T)}) / s|^2 e^{-gamma max(t-T, 0)} with complex expm1."""
    s = gamma / 2.0 + 1j * delta
    t = np.asarray(t, dtype=float)
    amp = omega_d * -np.expm1(-s * np.minimum(t, t_pulse)) / s
    return np.abs(amp) ** 2 * np.exp(-gamma * np.maximum(t - t_pulse, 0.0))


class TestRealKernel:
    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        t_frac=st.one_of(st.just(0.0), st.floats(1e-9, 4.0)),
        t_pulse=st.floats(1e-6, 1e-3),
        delta_hz=st.floats(-1e6, 1e6),
        omega_d=st.floats(0.1, 10.0),
    )
    def test_matches_complex_closed_form(self, t_frac, t_pulse, delta_hz, omega_d):
        t = t_frac * t_pulse
        got = _single_shot(t, TWO_PI * delta_hz, GAMMA, omega_d, t_pulse)
        want = complex_closed_form(t, TWO_PI * delta_hz, GAMMA, t_pulse, omega_d)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(
        n_t=st.integers(1, 40),
        n_mc=st.integers(1, 400),
        chunk=st.integers(1, 400),
        block=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_column_blocks_keep_the_ensemble_bits(self, n_t, n_mc, chunk, block, seed):
        # the draw chunks fix the summation order; the column blocks must not
        x, p = _ensemble(gaussian(27e3), "mc", n_mc, seed, 50e-6)
        t = np.linspace(0.0, 60e-6, n_t)
        whole = _ensemble_mean(t, TWO_PI * x, p, GAMMA, 1.0, 50e-6, chunk)
        with mock.patch.object(pulsed, "_BLOCK_ELEMENTS", block):
            blocked = _ensemble_mean(t, TWO_PI * x, p, GAMMA, 1.0, 50e-6, chunk)
        assert np.array_equal(blocked, whole)

    def test_keeps_quadratic_rise_at_pulse_start(self):
        t_pulse, omega_d = 26e-6, 3.0
        t = 1e-9 * t_pulse
        for delta in (0.0, TWO_PI * 27e3, TWO_PI * 250e3):
            got = _single_shot(t, delta, GAMMA, omega_d, t_pulse)
            assert got == pytest.approx(omega_d**2 * t**2, rel=1e-8, abs=0)

    def test_mc_trace_straddling_pulse_end_matches_brute_force(self):
        j = gaussian(27e3)
        t_pulse, n_mc, seed = 26e-6, 3000, 5
        # repeated times, points on both sides of T and T itself
        t = np.concatenate([np.linspace(2e-6, 60e-6, 59), [26e-6, 26e-6, 10e-6, 150e-6]])
        mc = mode_population_trace(sched(t_pulse), j, t, n_mc=n_mc, seed=seed,
                                   detuning_hz=4e3)
        deltas = TWO_PI * (4e3 + np.random.default_rng(seed).normal(0.0, j.sigma_hz, n_mc))
        brute = oracle_population(t[None, :], deltas[:, None], GAMMA, t_pulse).mean(axis=0)
        np.testing.assert_allclose(mc.population, brute, rtol=1e-10, atol=0)

    def test_penalty_error_is_sample_standard_error_at_argmax(self):
        j = gaussian(27e3)
        pulse_s, n_mc, seed, n_t = 26e-6, 2000, 8, 201
        p = loading_efficiency_penalty(j, pulse_s, n_mc=n_mc, seed=seed, t_points=n_t)
        t = np.linspace(0.0, pulse_s, n_t)
        deltas = TWO_PI * np.random.default_rng(seed).normal(0.0, j.sigma_hz, n_mc)
        vals = oracle_population(t[None, :], deltas[:, None], GAMMA, pulse_s)
        mean = vals.mean(axis=0)
        i_star = int(np.argmax(mean))
        se = vals[:, i_star].std(ddof=1) / np.sqrt(n_mc)
        value = oracle_population(t, 0.0, GAMMA, pulse_s).max() / mean[i_star]
        assert p.value == pytest.approx(value, rel=1e-10)
        assert p.mc_error == pytest.approx(value * se / mean[i_star], rel=1e-9)

    def test_seeded_ensembles_repeat_bit_for_bit(self):
        j = gaussian(27e3)
        grid = np.linspace(-100e3, 100e3, 41)
        runs = [
            (
                conversion_spectrum(sched(26e-6), j, grid, 0.0, n_mc=3000, seed=4),
                loading_efficiency_penalty(j, 26e-6, n_mc=3000, seed=4),
            )
            for _ in range(2)
        ]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]


class TestInvalidSizes:
    @pytest.mark.parametrize("n_mc", [0, -3])
    def test_mc_entry_points_reject_empty_ensembles(self, n_mc):
        j = gaussian(27e3)
        with pytest.raises(ParameterError, match="n_mc"):
            mode_population_trace(sched(26e-6), j, [1e-6, 2e-6], n_mc=n_mc)
        with pytest.raises(ParameterError, match="n_mc"):
            conversion_spectrum(sched(26e-6), j, [0.0], 0.0, n_mc=n_mc)
        with pytest.raises(ParameterError, match="n_mc"):
            loading_efficiency_penalty(j, 26e-6, n_mc=n_mc)

    def test_penalty_error_needs_two_draws(self):
        with pytest.raises(ParameterError, match="n_mc must be >= 2"):
            loading_efficiency_penalty(gaussian(27e3), 26e-6, n_mc=1, seed=1)

    @pytest.mark.parametrize("t_points", [-3, 0, 1])
    def test_penalty_needs_two_grid_points(self, t_points):
        with pytest.raises(ParameterError, match="t_points must be >= 2"):
            loading_efficiency_penalty(gaussian(27e3), 26e-6, n_mc=100, t_points=t_points)

    @pytest.mark.parametrize("jitter", [quiet(), gaussian(27e3)], ids=["quiet", "gaussian"])
    def test_unknown_method_rejected(self, jitter):
        with pytest.raises(ParameterError, match="unknown method"):
            mode_population_trace(sched(26e-6), jitter, [1e-6, 2e-6], method="bogus")
        with pytest.raises(ParameterError, match="unknown method"):
            conversion_spectrum(sched(26e-6), jitter, [0.0], 0.0, method="bogus")
        with pytest.raises(ParameterError, match="unknown method"):
            loading_efficiency_penalty(jitter, 26e-6, method="bogus")

    @pytest.mark.parametrize("fit", [fit_rise_time, fit_decay_rate])
    def test_fits_need_three_points_over_a_nonzero_span(self, fit):
        with pytest.raises(ParameterError, match="at least 3"):
            fit([1e-6, 2e-6], [1.0, 2.0])
        with pytest.raises(ParameterError, match="nonzero time span"):
            fit([5e-6, 5e-6, 5e-6], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_jitter_detuning_and_grid_rejected(self, value):
        with pytest.raises(ParameterError, match="sigma_hz must be finite"):
            gaussian(value)
        j = gaussian(27e3)
        with pytest.raises(ParameterError, match="detuning_hz must be finite"):
            mode_population_trace(sched(26e-6), j, [1e-6, 2e-6], detuning_hz=value,
                                  method="quadrature")
        with pytest.raises(ParameterError, match="freq_grid must be finite"):
            conversion_spectrum(sched(26e-6), j, [2.799e9, value], 2.799e9,
                                method="quadrature")

    @pytest.mark.parametrize("method", ["mc", "quadrature"])
    def test_nan_time_and_pulse_rejected(self, method):
        # the quadrature rule is sized from the longest time, which NaN leaves undefined
        j = gaussian(27e3)
        with pytest.raises(ParameterError, match="t_grid times must be >= 0"):
            mode_population_trace(sched(26e-6), j, [1e-6, np.nan], n_mc=10, method=method)
        with pytest.raises(ParameterError, match="pulse_s must be finite"):
            loading_efficiency_penalty(j, np.nan, n_mc=10, method=method)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["mw_drive_rate", "readout_delay_s"])
    def test_non_finite_schedule_fields_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            PulseSchedule(2.799e9, 26e-6, **{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["intrinsic_gamma", "loading_penalty"])
    def test_non_finite_jitter_fields_rejected(self, field, value):
        with pytest.raises(ParameterError, match=f"{field} must be finite"):
            JitterModel("gaussian-quasi-static", 27e3, **{field: value})


class TestEnsembleAgainstQuadratureOracle:
    def test_trace_mc_matches_oracle(self):
        j = gaussian(27e3)
        t = np.linspace(0, 60e-6, 301)
        mc = mode_population_trace(sched(50e-6), j, t, n_mc=20000, seed=7)
        expected = oracle_gauss_average(
            lambda d: oracle_population(t, d, GAMMA, 50e-6), j.sigma_hz
        )
        np.testing.assert_allclose(mc.population, expected, rtol=0.05)

    def test_quadrature_trace_matches_oracle_tightly(self):
        j = gaussian(27e3)
        t = np.linspace(0, 60e-6, 301)
        quad = mode_population_trace(sched(50e-6), j, t, method="quadrature")
        expected = oracle_gauss_average(
            lambda d: oracle_population(t, d, GAMMA, 50e-6), j.sigma_hz
        )
        np.testing.assert_allclose(quad.population, expected, rtol=1e-6)

    def test_mc_mean_matches_sequential_fsum(self):
        # the chunked accumulator must agree with a sequential compensated sum
        j = gaussian(27e3)
        t = np.array([10e-6, 26e-6, 40e-6])
        n_mc, seed = 4000, 99
        mc = mode_population_trace(sched(26e-6), j, t, n_mc=n_mc, seed=seed)
        draws = np.random.default_rng(seed).normal(0.0, j.sigma_hz, n_mc)
        for k, tk in enumerate(t):
            vals = [float(oracle_population(np.array([tk]), TWO_PI * d, GAMMA, 26e-6)[0])
                    for d in draws]
            assert mc.population[k] == pytest.approx(math.fsum(vals) / n_mc, rel=1e-10)

    def test_mc_determinism_and_seed_sensitivity(self):
        j = gaussian(27e3)
        t = np.linspace(0, 50e-6, 101)
        a = mode_population_trace(sched(50e-6), j, t, n_mc=2000, seed=11)
        b = mode_population_trace(sched(50e-6), j, t, n_mc=2000, seed=11)
        c = mode_population_trace(sched(50e-6), j, t, n_mc=2000, seed=12)
        assert np.array_equal(a.population, b.population)
        assert not np.array_equal(a.population, c.population)

    def test_negative_seed_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            mode_population_trace(sched(50e-6), gaussian(27e3), np.linspace(0, 50e-6, 11),
                                  n_mc=10, seed=-1)


class TestCalibration:
    def test_sigma_reproduces_config(self, device):
        mode = device.mode()
        j = calibrate_jitter(67e3, sched(device.pulse.mw_duration_s), 1.0 / mode.tau_energy)
        assert j.sigma_hz == pytest.approx(device.jitter.sigma_hz, abs=1.0)
        assert j.line_fwhm_hz == 67e3

    def test_calibrated_line_fits_at_target(self, device):
        j = gaussian(device.jitter.sigma_hz, line_fwhm_hz=67e3)
        spec = conversion_spectrum(
            sched(26e-6), j, np.linspace(-250e3, 250e3, 201), 0.0, method="quadrature"
        )
        fit = lorentzian_fit(spec[:, 0], spec[:, 1])
        assert fit.params["fwhm"] == pytest.approx(67e3, rel=0.001)

    def test_unreachable_target_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_jitter(1e3, sched(26e-6), GAMMA)  # pulse limit ~27 kHz > 1 kHz

    @pytest.mark.parametrize("target", [80e3, 120e3, 600e3])
    def test_broad_targets_calibrate(self, target):
        # the bracket [1 Hz, target / 2] holds well past the measured 67 kHz
        j = calibrate_jitter(target, sched(26e-6), GAMMA)
        spec = conversion_spectrum(
            sched(26e-6), j, np.linspace(-250e3, 250e3, 201), 0.0, method="quadrature"
        )
        assert lorentzian_fit(spec[:, 0], spec[:, 1]).params["fwhm"] == pytest.approx(
            target, rel=1e-3)

    def test_non_bracketing_target_is_a_calibration_error(self, monkeypatch):
        # a line that does not widen with sigma: both bracket ends stay below the target
        spectrum = pulsed.conversion_spectrum
        monkeypatch.setattr(pulsed, "conversion_spectrum",
                            lambda s, j, *args, **kw: spectrum(s, gaussian(10e3), *args, **kw))
        with pytest.raises(CalibrationError, match="Hz at sigma = 33500 Hz; neither end"):
            calibrate_jitter(67e3, sched(26e-6), GAMMA)

    @pytest.mark.parametrize("target", [0.0, -1.0, math.nan, math.inf])
    def test_target_must_be_finite_and_positive(self, target):
        with pytest.raises(ParameterError):
            calibrate_jitter(target, sched(26e-6), GAMMA)


class TestConversionSpectrum:
    def test_quiet_long_pulse_linewidth_is_intrinsic(self):
        # steady-state line: FWHM -> gamma/2pi = 2.59 kHz
        grid = np.linspace(-20e3, 20e3, 4001)
        spec = conversion_spectrum(sched(2e-3), quiet(), grid, 0.0)
        y = spec[:, 1]
        i0 = int(np.argmax(y))
        half = y[i0] / 2
        left = np.interp(half, y[: i0 + 1], grid[: i0 + 1])
        right = np.interp(half, y[i0:][::-1], grid[i0:][::-1])
        assert right - left == pytest.approx(GAMMA / TWO_PI, rel=0.05)

    def test_calibrated_mc_line_within_ten_percent(self, device):
        j = dataclasses.replace(device.jitter)
        f_m = 2.799e9
        grid = np.linspace(f_m - 250e3, f_m + 250e3, 201)
        spec = conversion_spectrum(sched(26e-6), j, grid, f_m, n_mc=10000, seed=7)
        fit = lorentzian_fit(spec[:, 0], spec[:, 1])
        assert fit.params["fwhm"] == pytest.approx(67e3, rel=0.10)
        assert fit.params["center"] == pytest.approx(f_m, abs=3e3)

    def test_quadrature_spectrum_symmetric(self):
        j = gaussian(27e3)
        grid = np.linspace(-200e3, 200e3, 401)
        spec = conversion_spectrum(sched(26e-6), j, grid, 0.0, method="quadrature")
        np.testing.assert_allclose(spec[:, 1], spec[::-1, 1], rtol=1e-9)

    def test_mc_spectrum_symmetric_within_error(self):
        j = gaussian(27e3)
        grid = np.linspace(-200e3, 200e3, 81)
        spec = conversion_spectrum(sched(26e-6), j, grid, 0.0, n_mc=20000, seed=3)
        asym = np.abs(spec[:, 1] - spec[::-1, 1]) / spec[:, 1].max()
        assert np.max(asym) < 0.05

    def test_far_detuned_drive_loads_nothing(self):
        spec = conversion_spectrum(sched(26e-6), gaussian(27e3), np.array([50e6]), 0.0,
                                   method="quadrature")
        on = conversion_spectrum(sched(26e-6), gaussian(27e3), np.array([0.0]), 0.0,
                                 method="quadrature")
        assert spec[0, 1] < 1e-4 * on[0, 1]


def longdouble_counts(s, j, grid, mode_freq_hz, n_mc, seed, method):
    """conversion_spectrum's counts from _single_shot's formula, shot by shot in long double."""
    x, p = _ensemble(j, method, n_mc, seed, min(s.readout_at, s.mw_duration_s))
    ld = np.longdouble
    offsets = np.asarray(grid, dtype=float) - mode_freq_hz
    d = 2 * ld(np.pi) * np.subtract.outer(offsets.astype(ld), x.astype(ld))
    gamma = ld(j.intrinsic_gamma)
    a = gamma / 2
    t_read, t_pulse = ld(s.readout_at), ld(s.mw_duration_s)
    tin = min(t_read, t_pulse)
    rise = np.expm1(-a * tin)
    beat = np.sin(d * tin / 2)
    shots = (rise * rise + 4 * np.exp(-a * tin) * beat * beat) / (a * a + d * d)
    weights = p.astype(ld)
    mean = (shots * weights).sum(axis=1) / weights.sum()
    decay = np.exp(-gamma * max(t_read - t_pulse, ld(0)))
    return (ld(s.mw_drive_rate) ** 2 * mean * decay).astype(float)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double on this platform")
class TestReadoutKernelAgainstLongDouble:
    """The separable readout kernel against the per-shot formula in long double."""

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        sigma_hz=st.floats(1.0, 3e6),
        gamma=st.floats(1e2, 1e6),
        pulse_s=st.floats(0.1e-6, 3e-3),
        readout=st.one_of(st.none(), st.floats(1e-4, 10.0)),
        span_hz=st.floats(0.0, 7e6),
        n_points=st.integers(1, 41),
        near_hz=st.floats(-1e3, 1e3),
        n_mc=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(["mc", "quadrature"]),
        omega_d=st.floats(0.1, 10.0),
    )
    def test_counts_within_1e_11_of_oracle(
        self, sigma_hz, gamma, pulse_s, readout, span_hz, n_points, near_hz, n_mc, seed,
        method, omega_d,
    ):
        s = PulseSchedule(2.799e9, pulse_s, omega_d,
                          None if readout is None else readout * pulse_s)
        j = JitterModel("gaussian-quasi-static", sigma_hz, gamma)
        if past_node_ceiling(j, method, min(s.readout_at, pulse_s)):
            with pytest.raises(ParameterError, match="use --method mc"):
                conversion_spectrum(s, j, [0.0], 0.0, method=method)
            return
        x, _ = _ensemble(j, method, n_mc, seed, min(s.readout_at, pulse_s))
        # grid points close to draws, where two large angles nearly cancel
        grid = np.concatenate([np.linspace(-span_hz, span_hz, n_points), x[:3] + near_hz])
        counts = conversion_spectrum(s, j, grid, 0.0, n_mc=n_mc, seed=seed, method=method)
        want = longdouble_counts(s, j, grid, 0.0, n_mc, seed, method)
        # atol only absorbs counts that the post-pulse decay takes below the normal range
        np.testing.assert_allclose(counts[:, 1], want, rtol=1e-11, atol=1e-300)


def longdouble_trace(s, j, t, detuning_hz, n_mc, seed, method):
    """mode_population_trace's population from _single_shot's formula, shot by shot in long double.

    Also returns each time's mean of |d shot / d ln theta| at the beat angle
    theta = delta u / 2: the population's sensitivity to a relative error in
    the angles, which every double-precision kernel rounds.
    """
    x, p = _ensemble(j, method, n_mc, seed, min(t.max(), s.mw_duration_s))
    ld = np.longdouble
    d = 2 * ld(np.pi) * (ld(detuning_hz) + x.astype(ld))[:, None]
    gamma = ld(j.intrinsic_gamma)
    a = gamma / 2
    t_ld, t_pulse = t.astype(ld), ld(s.mw_duration_s)
    # a shot depends on t only through tin = min(t, T) before the decay factor
    u, where = np.unique(np.minimum(t_ld, t_pulse), return_inverse=True)
    weights = p.astype(ld)[:, None] / p.astype(ld).sum()
    mean, sens = np.empty((2, u.size), dtype=ld)
    cols = max(1, (1 << 18) // x.size)  # columns per block, to bound the temporaries
    for c in range(0, u.size, cols):
        tin = u[c : c + cols]
        theta = d * tin / 2
        beat = np.sin(theta)
        shots = (np.expm1(-a * tin) ** 2 + 4 * np.exp(-a * tin) * beat * beat) / (a * a + d * d)
        slope = 4 * np.exp(-a * tin) * np.abs(theta * np.sin(2 * theta)) / (a * a + d * d)
        mean[c : c + cols] = (shots * weights).sum(axis=0)
        sens[c : c + cols] = (slope * weights).sum(axis=0)
    scale = ld(s.mw_drive_rate) ** 2 * np.exp(-gamma * np.maximum(t_ld - t_pulse, ld(0)))
    return (mean[where] * scale).astype(float), (sens[where] * scale).astype(float)


# Angle error allowed on top of rtol, in ulps: a lattice time lies within
# pulsed._LATTICE_ULPS ulps of its lattice point, and every angle is rounded
ANGLE_ULPS = 8


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double on this platform")
class TestTraceKernelAgainstLongDouble:
    """The trace's lattice and dense kernels against the per-shot formula in long double.

    Each column must be within rtol 1e-11, or within ANGLE_ULPS ulps of its
    angles: where a few shots' beats pass close to zero, a rounded angle
    alone moves a column by more than 1e-11 relative, in the dense kernel too.
    """

    # every draw's beat is zero at t = 24 us, a time between two anchors,
    # where the lattice sum cancels almost exactly
    @example(sigma_hz=1.0, gamma=100.0, pulse_s=2e-3, detuning_hz=1 / 24e-6, n_points=1001,
             start=0.0, stop=0.5, grid="uniform", n_mc=1, seed=0, method="mc", omega_d=1.0)
    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(
        sigma_hz=st.floats(1.0, 3e6),
        gamma=st.floats(1e2, 1e6),
        pulse_s=st.floats(0.1e-6, 3e-3),
        detuning_hz=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
        n_points=st.integers(2, 1300),
        start=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
        stop=st.floats(0.5, 4.0),
        grid=st.sampled_from(["uniform", "ends-at-pulse", "irregular"]),
        n_mc=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(["mc", "quadrature"]),
        omega_d=st.floats(0.1, 10.0),
    )
    def test_population_within_1e_11_of_oracle(
        self, sigma_hz, gamma, pulse_s, detuning_hz, n_points, start, stop, grid, n_mc, seed,
        method, omega_d,
    ):
        s = PulseSchedule(2.799e9, pulse_s, omega_d)
        j = JitterModel("gaussian-quasi-static", sigma_hz, gamma)
        if grid == "uniform":  # the pulse end on or off the lattice, or past the grid
            t = np.linspace(start * pulse_s, stop * pulse_s, n_points)
        elif grid == "ends-at-pulse":  # the pulse end is the last lattice time
            t = np.append(np.linspace(start * pulse_s, pulse_s, n_points), [2 * pulse_s])
        else:
            t = np.geomspace(1e-3 * pulse_s, stop * pulse_s, n_points)
        u = np.unique(np.minimum(t, pulse_s))
        in_pulse = np.count_nonzero(u < pulse_s)
        if grid != "irregular" and in_pulse > 1:  # a lone time is no run
            assert pulsed._lattice_run(u) >= in_pulse
        if past_node_ceiling(j, method, u[-1]):
            with pytest.raises(ParameterError, match="use --method mc"):
                mode_population_trace(s, j, t, detuning_hz=detuning_hz, method=method)
            return
        got = mode_population_trace(s, j, t, detuning_hz=detuning_hz, n_mc=n_mc, seed=seed,
                                    method=method).population
        want, slope = longdouble_trace(s, j, t, detuning_hz, n_mc, seed, method)
        eps = np.finfo(float).eps
        # 1e-300 only absorbs populations below the normal range (t ~ 1e-158 s)
        tol = 1e-11 * want + ANGLE_ULPS * eps * slope + 1e-300
        assert np.all(np.abs(got - want) <= tol)


class TestRiseTime:
    def test_jittered_rise_band_quadrature(self, device):
        j = dataclasses.replace(device.jitter)
        t = np.linspace(0, 50e-6, 2001)
        trace = mode_population_trace(sched(50e-6), j, t, method="quadrature")
        tau_rise = fit_rise_time(t, trace.population)
        assert 10e-6 <= tau_rise <= 25e-6

    def test_jittered_rise_band_mc(self, device):
        j = dataclasses.replace(device.jitter)
        t = np.linspace(0, 50e-6, 2001)
        trace = mode_population_trace(sched(50e-6), j, t, n_mc=10000, seed=7)
        tau_rise = fit_rise_time(t, trace.population)
        assert 10e-6 <= tau_rise <= 25e-6
        # faster than the gamma-limited quiet rise, slower than nothing
        assert tau_rise < 2.0 / GAMMA
        # and faster than the energy decay time
        assert tau_rise < TAU_M

    @pytest.mark.parametrize("tau", [2e-5, 2e-6])
    def test_saturated_trace_fails_the_fit(self, tau):
        # already flat at the second sample, 1e-4 s in
        t = np.linspace(0.0, 1e-3, 11)
        with pytest.raises(FitConvergenceError, match="below the 0.0001 s sample spacing"):
            fit_rise_time(t, 3.0 * np.expm1(-t / tau) ** 2)

    def test_undriven_trace_fails_the_fit(self):
        # a zero drive loads nothing, and a zero amplitude leaves tau undetermined
        t = np.linspace(0.0, 50e-6, 101)
        trace = mode_population_trace(PulseSchedule(2.799e9, 50e-6, 0.0), gaussian(27e3), t,
                                      n_mc=100)
        assert not trace.population.any()
        with pytest.raises(FitConvergenceError, match="do not depend on rise_time"):
            fit_rise_time(t, trace.population)


class TestPenalty:
    def test_quiet_penalty_exactly_one(self):
        p = loading_efficiency_penalty(quiet(), 26e-6)
        assert p.value == 1.0
        assert p.mc_error == 0.0

    def test_monotone_in_sigma(self):
        vals = [
            loading_efficiency_penalty(gaussian(s), 26e-6, method="quadrature").value
            for s in (5e3, 10e3, 20e3, 40e3, 80e3, 160e3)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 5.0  # large sigma detunes almost every shot

    def test_longer_loading_window_increases_penalty(self):
        j = gaussian(27e3)
        p26 = loading_efficiency_penalty(j, 26e-6, method="quadrature").value
        p50 = loading_efficiency_penalty(j, 50e-6, method="quadrature").value
        assert 1.5 < p26 < 3.0  # honest value at the short conversion pulse
        assert 3.0 < p50 < 4.5  # and at the trace pulse
        assert p50 > p26

    def test_anchor_window_reproduces_target(self, device):
        j = gaussian(device.jitter.sigma_hz, line_fwhm_hz=67e3)
        j = anchor_loading_window(j, 6.9)
        assert j.loading_window_s == pytest.approx(device.jitter.loading_window_s, rel=1e-3)
        p = loading_efficiency_penalty(j, method="quadrature")
        assert p.value == pytest.approx(6.9, rel=1e-6)

    def test_anchored_mc_penalty_in_band(self, device):
        j = dataclasses.replace(device.jitter)
        p = loading_efficiency_penalty(j, n_mc=10000, seed=12345)
        assert 4.0 <= p.value <= 10.0
        assert 0 < p.mc_error < 0.5

    def test_mc_convergence_with_doubled_ensemble(self):
        j = gaussian(27e3)
        p1 = loading_efficiency_penalty(j, 50e-6, n_mc=5000, seed=21)
        p2 = loading_efficiency_penalty(j, 50e-6, n_mc=10000, seed=22)
        assert abs(p1.value - p2.value) < 2 * (p1.mc_error + p2.mc_error)

    def test_anchor_target_below_the_bracket_rejected(self, device):
        # a 5 us window already gives ~1.06; the root finder never sees an
        # unbracketed target
        with pytest.raises(CalibrationError, match="too low.*reaches 1.06"):
            anchor_loading_window(device.jitter, 1.001)

    def test_unreachable_anchor_target_rejected(self):
        # a 1 kHz jitter scale saturates near the CW limit well below 6.9
        j = gaussian(1e3, line_fwhm_hz=67e3)
        with pytest.raises(CalibrationError, match="unreachable"):
            anchor_loading_window(j, 6.9)

    def test_uncalibrated_model_needs_explicit_pulse(self):
        j = gaussian(30e3)  # no line_fwhm_hz anchor
        with pytest.raises(CalibrationError):
            loading_efficiency_penalty(j)
        j2 = gaussian(30e3, line_fwhm_hz=67e3)  # calibrated but no window anchor
        with pytest.raises(CalibrationError):
            loading_efficiency_penalty(j2)
        assert loading_efficiency_penalty(j, 26e-6).value > 1.0


def exact_means(u, mu, sigma_hz, gamma):
    """Gaussian ensemble mean of a unit-drive shot at in-pulse times u, by scipy's quad_vec.

    A shot is |int_0^u e^{-(a + i delta) s} ds|^2 with a = gamma / 2.  Its mean
    over delta ~ N(mu, (2 pi sigma)^2) takes e^{i delta tau} to the Gaussian's
    characteristic function, which leaves the one-dimensional integral

        (1 / a) int_0^u (e^{-a tau} - e^{-a (2 u - tau)}) cos(mu tau) g(tau) dtau

    with g(tau) = e^{-(2 pi sigma tau)^2 / 2}, cut where g has fallen to e^{-72}.
    """
    integrate = pytest.importorskip("scipy.integrate")
    u = np.asarray(u, dtype=float)
    a, rate = gamma / 2.0, TWO_PI * sigma_hz
    top = np.minimum(u, 12.0 / rate)

    def integrand(v):
        tau = v * top
        return (top * (np.exp(-a * tau) - np.exp(-a * (2.0 * u - tau))) * np.cos(mu * tau)
                * np.exp(-0.5 * (rate * tau) ** 2) / a)

    return integrate.quad_vec(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-14, norm="max")[0]


class TestLongPulseQuadrature:
    """The quadrature rule past the reach of a fixed 201-node rule (sigma_omega u > 21)."""

    @pytest.mark.parametrize("pulse_s", [200e-6, 2e-3], ids=["200us", "2ms"])
    def test_penalty_matches_exact_mean(self, device, pulse_s):
        j = device.jitter
        t = np.linspace(0.0, pulse_s, 2001)
        quiet_peak = _single_shot(t, 0.0, j.intrinsic_gamma, 1.0, pulse_s).max()
        want = quiet_peak / exact_means(t, 0.0, j.sigma_hz, j.intrinsic_gamma).max()
        got = loading_efficiency_penalty(j, pulse_s, method="quadrature").value
        assert got == pytest.approx(want, rel=1e-12)

    def test_trace_column_matches_exact_mean(self, device):
        j, detuning_hz = device.jitter, 15e3
        t = np.linspace(0.0, 300e-6, 301)
        trace = mode_population_trace(sched(300e-6), j, t, detuning_hz=detuning_hz,
                                      method="quadrature")
        want = exact_means(300e-6, TWO_PI * detuning_hz, j.sigma_hz, j.intrinsic_gamma)
        assert trace.population[-1] == pytest.approx(float(want), rel=1e-12)

    def test_spectrum_matches_exact_mean(self, device):
        j, offsets = device.jitter, np.array([0.0, 15e3, -40e3])
        s = PulseSchedule(2.799e9, 300e-6, mw_drive_rate=3.0)
        counts = conversion_spectrum(s, j, offsets, 0.0, method="quadrature")[:, 1]
        want = [9.0 * exact_means(300e-6, TWO_PI * f, j.sigma_hz, j.intrinsic_gamma)
                for f in offsets]
        np.testing.assert_allclose(counts, want, rtol=1e-12)

    @pytest.mark.parametrize("u_max", [26e-6, 2e-3, math.inf], ids=["26us", "2ms", "inf"])
    def test_rule_integrates_gaussian_moments(self, u_max):
        # the trapezoid rule of N(0, sigma^2) integrates its low moments to round-off
        j = gaussian(33e3)
        x, p = _ensemble(j, "quadrature", 0, None, u_max)
        assert x.size == quadrature_nodes(j, u_max)
        z = x / j.sigma_hz
        assert p.sum() == pytest.approx(1.0, rel=1e-14)
        assert (p * z**2).sum() == pytest.approx(1.0, rel=1e-13)
        assert (p * z**4).sum() == pytest.approx(3.0, rel=1e-13)

    def test_anchor_reaches_a_long_window_target(self, device):
        j = anchor_loading_window(device.jitter, 12.0)
        assert 150e-6 < j.loading_window_s < 300e-6
        p = loading_efficiency_penalty(j, n_mc=100_000)
        assert abs(p.value - 12.0) < 3 * p.mc_error

    def test_anchor_past_the_node_ceiling_is_a_calibration_error(self):
        # at 200 kHz the doubling reaches 1.28 ms, whose rule needs ~4600 nodes,
        # before the penalty reaches 150; the anchor has no Monte Carlo to fall back on
        j = gaussian(200e3, line_fwhm_hz=400e3)
        assert quadrature_nodes(j, 1.28e-3) > pulsed._RULE_MAX_NODES
        with pytest.raises(CalibrationError, match="unreachable.*needs more than 4096 nodes"):
            anchor_loading_window(j, 150.0)


def dense_penalty(j, pulse_s, n_mc, seed, method, t_points=2001):
    """Peak index, value and mc_error from the mean on every grid column."""
    x, p = _ensemble(j, method, n_mc, seed, pulse_s)
    deltas = TWO_PI * x
    t = np.linspace(0.0, pulse_s, t_points)
    mean = _ensemble_mean(t, deltas, p, j.intrinsic_gamma, 1.0, pulse_s)
    i = int(np.argmax(mean))
    value = float(_single_shot(t, 0.0, j.intrinsic_gamma, 1.0, pulse_s).max() / mean[i])
    if method == "quadrature":
        return i, value, 0.0
    shots = _single_shot(t[i], deltas, j.intrinsic_gamma, 1.0, pulse_s)
    return i, value, float(value * (shots.std(ddof=1) / np.sqrt(n_mc)) / mean[i])


def searched_index(j, pulse_s, n_mc, seed, method, t_points=2001):
    x, p = _ensemble(j, method, n_mc, seed, pulse_s)
    t = np.linspace(0.0, pulse_s, t_points)
    return _in_pulse_peak(t, TWO_PI * x, p, j.intrinsic_gamma)[0]


class TestPeakSearch:
    """The branch-and-bound peak search against the dense grid, bit for bit."""

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        sigma_hz=st.floats(1e3, 150e3),
        tau_s=st.floats(10e-6, 200e-6),
        pulse_s=st.floats(5e-6, 2e-3),
        seed=st.integers(0, 2**32 - 1),
        n_mc=st.integers(2, 400),
        method=st.sampled_from(["mc", "quadrature"]),
        t_points=st.one_of(st.just(2001), st.integers(2, 300)),
    )
    def test_matches_dense_grid_bit_for_bit(
        self, sigma_hz, tau_s, pulse_s, seed, n_mc, method, t_points
    ):
        j = JitterModel("gaussian-quasi-static", sigma_hz, 1.0 / tau_s)
        if past_node_ceiling(j, method, pulse_s):
            with pytest.raises(ParameterError, match="use --method mc"):
                loading_efficiency_penalty(j, pulse_s, method=method, t_points=t_points)
            return
        i, value, mc_error = dense_penalty(j, pulse_s, n_mc, seed, method, t_points)
        got = loading_efficiency_penalty(j, pulse_s, n_mc=n_mc, seed=seed, method=method,
                                         t_points=t_points)
        assert searched_index(j, pulse_s, n_mc, seed, method, t_points) == i
        assert got.value == value
        assert got.mc_error == mc_error

    @pytest.mark.parametrize("method", ["mc", "quadrature"])
    @pytest.mark.parametrize("pulse_s", [26e-6, None, 300e-6], ids=["26us", "anchored", "300us"])
    def test_default_sizes_match_dense_grid_bit_for_bit(self, device, pulse_s, method):
        # 10 000 draws span several offset chunks, so the chunk boundaries count
        j = device.jitter
        pulse_s = pulse_s or j.loading_window_s
        i, value, mc_error = dense_penalty(j, pulse_s, 10_000, 12345, method)
        got = loading_efficiency_penalty(j, pulse_s, method=method)
        assert searched_index(j, pulse_s, 10_000, 12345, method) == i
        assert (got.value, got.mc_error) == (value, mc_error)

    def test_long_window_interior_peak(self, device):
        # past saturation the Monte Carlo peak sits inside the pulse
        i, value, mc_error = dense_penalty(device.jitter, 2e-3, 10_000, 12345, "mc")
        assert i == 729
        assert searched_index(device.jitter, 2e-3, 10_000, 12345, "mc") == i
        got = loading_efficiency_penalty(device.jitter, 2e-3, n_mc=10_000, seed=12345)
        assert (got.value, got.mc_error) == (value, mc_error)

    def test_every_evaluated_column_carries_the_dense_bits(self, device, monkeypatch):
        # past saturation the finer levels evaluate hundreds of columns, each
        # with the dense grid's offset chunks
        x, p = _ensemble(device.jitter, "mc", 10_000, 12345, 2e-3)
        deltas, gamma = TWO_PI * x, device.jitter.intrinsic_gamma
        t = np.linspace(0.0, 2e-3, 2001)
        dense = _ensemble_mean(t, deltas, p, gamma, 1.0, t[-1])
        seen = {}

        def recording(tt, *args, **kwargs):
            out = _ensemble_mean(tt, *args, **kwargs)
            seen.update(zip(np.searchsorted(t, tt).tolist(), out.tolist()))
            return out

        monkeypatch.setattr(pulsed, "_ensemble_mean", recording)
        _in_pulse_peak(t, deltas, p, gamma)
        assert len(seen) > 500
        assert all(dense[i] == value for i, value in seen.items())

    @pytest.fixture
    def evaluated_columns(self, monkeypatch):
        """Column count of every _ensemble_mean call the search makes."""
        columns = []

        def counting(t, *args, **kwargs):
            columns.append(np.size(t))
            return _ensemble_mean(t, *args, **kwargs)

        monkeypatch.setattr(pulsed, "_ensemble_mean", counting)
        return columns

    def test_anchored_window_evaluates_few_columns(self, device, evaluated_columns):
        loading_efficiency_penalty(device.jitter)
        assert 0 < sum(evaluated_columns) <= 100

    def test_never_evaluates_a_lone_column(self, evaluated_columns):
        # here only the short interval before the last knot can hold the peak,
        # so a finer level has a single new point to evaluate; einsum would sum
        # a lone column in another order than the grid's
        j = gaussian(1e3)
        i, value, mc_error = dense_penalty(j, 5e-6, 500, 3, "mc", t_points=163)
        evaluated_columns.clear()
        got = loading_efficiency_penalty(j, 5e-6, n_mc=500, seed=3, t_points=163)
        assert len(evaluated_columns) > 1 and min(evaluated_columns) == 2
        assert (got.value, got.mc_error) == (value, mc_error)


class TestEfficiencyBudget:
    def test_paper_operating_point(self, device):
        op = OperatingPoint(
            mode="2.799GHz", temperature_k=0.02, optical_pulse=device.red_pulse()
        )
        budget = efficiency_budget(device, op)
        by_name = {s.name: s.factor for s in budget.stages}
        e2m = (
            by_name["mw-line-attenuation"]
            * by_name["electromechanical-network"]
            * by_name["jitter-loading-penalty"]
        )
        assert e2m == pytest.approx(3.6e-6, rel=0.02)
        assert 1.8e-2 <= by_name["mechanics-to-optics"] <= 2.1e-2
        assert budget.total == pytest.approx(6.8e-8, rel=0.15)

    def test_total_is_exact_product(self, device):
        op = OperatingPoint(mode="2.799GHz", optical_pulse=device.red_pulse())
        budget = efficiency_budget(device, op)
        prod = math.prod(s.factor for s in budget.stages)
        assert budget.total == prod
        assert all(0 < s.factor <= 1 for s in budget.stages)
        assert all(s.note for s in budget.stages)

    def test_unity_stages(self):
        b = EfficiencyBudget(
            stages=(BudgetStage("a", 1.0, "x"), BudgetStage("b", 1.0, "y"))
        )
        assert b.total == 1.0

    def test_stage_factor_domain(self):
        with pytest.raises(ParameterError):
            EfficiencyBudget(stages=(BudgetStage("bad", 1.5, ""),))

    def test_missing_pulse_names_stage(self, device):
        op = OperatingPoint(mode="2.799GHz", optical_pulse=None)
        with pytest.raises(ParameterError, match="mechanics-to-optics"):
            efficiency_budget(device, op)

    def test_missing_penalty_names_stage(self, device):
        stripped = dataclasses.replace(device.jitter, loading_penalty=None)
        dev = dataclasses.replace(device, jitter=stripped)
        op = OperatingPoint(mode="2.799GHz", optical_pulse=device.red_pulse())
        with pytest.raises(ParameterError, match="jitter-loading-penalty"):
            efficiency_budget(dev, op)

    def test_unknown_mode_names_stage(self, device):
        op = OperatingPoint(mode="9.999GHz", optical_pulse=device.red_pulse())
        with pytest.raises(ParameterError, match="electromechanical-network"):
            efficiency_budget(device, op)


class TestThermalVsPulseEnergy:
    def test_paper_anchor_rows(self, device, cavity, mode_2799):
        table = device.noise_table
        assert thermal_vs_pulse_energy(table, 40e-15) == pytest.approx(0.55, abs=1e-9)
        # energy where the mechanics-to-optics efficiency is 8e-3: invert
        # p_sw(E) = 1 - exp(-c E) using a 1 fJ probe to get the coefficient
        p_target = 8e-3 / cavity.eta_o
        probe = DriveTone.pulsed(cavity.omega_c - mode_2799.omega_m, 1e-15, 40e-9)
        coeff = -math.log1p(-swap_probability(cavity, mode_2799, probe)) / 1e-15
        e_8em3 = -math.log1p(-p_target) / coeff
        n = thermal_vs_pulse_energy(table, e_8em3)
        assert n == pytest.approx(0.36, abs=1e-3)

    def test_single_row_table(self):
        assert thermal_vs_pulse_energy([(40e-15, 0.55)], 40e-15) == 0.55

    def test_midpoints_bounded_by_neighbours(self):
        table = [(10e-15, 0.2), (20e-15, 0.4), (40e-15, 0.7)]
        mid = thermal_vs_pulse_energy(table, 15e-15)
        assert 0.2 <= mid <= 0.4
        mid2 = thermal_vs_pulse_energy(table, 30e-15)
        assert 0.4 <= mid2 <= 0.7

    def test_out_of_range_refused(self):
        with pytest.raises(TableRangeError):
            thermal_vs_pulse_energy([(10e-15, 0.2), (20e-15, 0.4)], 50e-15)
        with pytest.raises(TableRangeError):
            thermal_vs_pulse_energy([(10e-15, 0.2), (20e-15, 0.4)], 1e-15)

    def test_unsorted_table_rejected(self):
        with pytest.raises(ParameterError):
            thermal_vs_pulse_energy([(20e-15, 0.4), (10e-15, 0.2)], 15e-15)

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30))
    def test_isotonic_is_the_nondecreasing_least_squares_fit(self, values):
        y = np.array(values)
        fit = _isotonic(y)
        resid = y - fit
        # optimality of the projection onto the nondecreasing cone: the residual
        # sums to zero, is orthogonal to the fit, and has no positive tail sum
        assert np.all(np.diff(fit) >= 0)
        assert resid.sum() == pytest.approx(0.0, abs=1e-9)
        assert np.dot(resid, fit) == pytest.approx(0.0, abs=1e-9)
        assert np.all(np.cumsum(resid[::-1]) <= 1e-9)
        np.testing.assert_array_equal(_isotonic(np.sort(y)), np.sort(y))

    def test_isotonic_regularisation(self):
        # a non-monotone middle row is pooled with its neighbour
        table = [(10e-15, 0.5), (20e-15, 0.4), (30e-15, 0.6)]
        v = thermal_vs_pulse_energy(table, 20e-15)
        assert v == pytest.approx(0.45, rel=1e-12)
        lo = thermal_vs_pulse_energy(table, 10e-15)
        hi = thermal_vs_pulse_energy(table, 30e-15)
        assert lo <= v <= hi
