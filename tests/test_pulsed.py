import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomtx.errors import CalibrationError, ParameterError, TableRangeError
from pomtx.extraction import lorentzian_fit
from pomtx.optomech import DriveTone, swap_probability
from pomtx.pulsed import (
    BudgetStage,
    CountModel,
    EfficiencyBudget,
    JitterModel,
    OperatingPoint,
    PulseSchedule,
    anchor_loading_window,
    calibrate_jitter,
    click_rate,
    conversion_spectrum,
    efficiency_budget,
    fit_decay_rate,
    fit_rise_time,
    loading_efficiency_penalty,
    mode_population_trace,
    per_pump_photon_efficiency,
    thermal_vs_pulse_energy,
)
from pomtx.pulsed import _isotonic, _single_shot

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
            calibrate_jitter(1e3, sched(26e-6), GAMMA)  # pulse limit ~34 kHz > 1 kHz


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


class TestClickRate:
    def test_affine_in_population(self):
        c = CountModel(eta_chain=0.1, dark_rate=3.0, pulse_rate=1000.0)
        p_sw = 0.032
        pops = np.array([0.0, 0.5, 1.0, 4.0])
        rates = np.array([click_rate(p, p_sw, c) for p in pops])
        slope = c.pulse_rate * p_sw * c.eta_chain
        np.testing.assert_allclose(rates, c.dark_rate + slope * pops, rtol=1e-12)

    def test_zero_population_dark_only(self):
        c = CountModel(eta_chain=0.1, dark_rate=0.0, pulse_rate=1000.0)
        assert click_rate(0.0, 0.032, c) == 0.0

    def test_single_phonon_rate(self):
        # oracle: direct product
        c = CountModel(eta_chain=0.61 * 0.1, dark_rate=0.0, pulse_rate=500.0)
        assert click_rate(1.0, 0.032, c) == pytest.approx(500.0 * 0.032 * 0.061, rel=1e-12)

    def test_thermal_background_vs_loaded_peak(self):
        # red-pulse background over on-resonance counts follows the population
        # ratio; with a loaded peak a few phonons high the background sits at
        # the ~10% level as in the measured conversion scan
        c = CountModel(eta_chain=0.1, dark_rate=0.0, pulse_rate=1000.0)
        n_th, n_loaded = 0.55, 4.0
        ratio = click_rate(n_th, 0.032, c) / click_rate(n_th + n_loaded, 0.032, c)
        assert ratio == pytest.approx(n_th / (n_th + n_loaded), rel=1e-12)
        assert ratio < 0.2


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


class TestPerPumpPhotonEfficiency:
    def test_paper_figure_of_merit(self):
        eta = per_pump_photon_efficiency(7.0e-3, 3.6e-6, 0.61)
        assert eta == pytest.approx(0.75e-7, rel=0.25)

    def test_zero_cooperativity(self):
        assert per_pump_photon_efficiency(0.0, 3.6e-6, 0.61) == 0.0

    def test_linear_regime_doubling(self):
        lo = per_pump_photon_efficiency(1e-5, 3.6e-6, 0.61)
        hi = per_pump_photon_efficiency(2e-5, 3.6e-6, 0.61)
        assert hi == pytest.approx(2 * lo, rel=1e-3)


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
