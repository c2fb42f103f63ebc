import numpy as np
import pytest

from pomtx.errors import (
    FitConvergenceError,
    ParameterError,
    RankDeficiencyError,
    SignConventionError,
)
from pomtx.extraction import (
    SParamQuad,
    _solve,
    bcs_resonance_fit,
    bidirectional_efficiency,
    g0_from_damping,
    lorentzian_fit,
    optical_s11_fit,
    sqrt_lorentzian_fit,
)
from pomtx.em_circuit import KineticInductanceModel, kinetic_inductance_at
from pomtx.optomech import OpticalCavity, optomechanical_damping, three_tone_s11

TWO_PI = 2.0 * np.pi


def lorentzian(x, f0, g, a, off):
    return off + a * (g / 2) ** 2 / ((x - f0) ** 2 + (g / 2) ** 2)


def sqrt_lorentzian(x, f0, g, a, off):
    return off + a * np.sqrt((g / 2) ** 2 / ((x - f0) ** 2 + (g / 2) ** 2))


def _three_tone_magnitude_background(mod_hz, d0_hz, kappa_hz):
    # |r(d0)* r(d0+om)| for a critically coupled cavity: the carrier and the
    # upper sideband are the only surviving reflections at the dip
    def r(delta_hz):
        return 1 - (kappa_hz / 2) / (kappa_hz / 2 - 2j * delta_hz)

    return abs(np.conj(r(d0_hz)) * r(d0_hz + mod_hz))


TRUE = dict(f0=2.799e9, g=67e3, a=1.8, off=0.15)
GRID = np.linspace(2.799e9 - 300e3, 2.799e9 + 300e3, 241)


class TestLorentzianFit:
    def test_noiseless_round_trip(self):
        y = lorentzian(GRID, TRUE["f0"], TRUE["g"], TRUE["a"], TRUE["off"])
        fit = lorentzian_fit(GRID, y)
        assert fit.converged
        assert fit.residual_norm < 1e-8
        assert fit.params["center"] == pytest.approx(TRUE["f0"], rel=1e-9)
        assert fit.params["fwhm"] == pytest.approx(TRUE["g"], rel=1e-9)
        assert fit.params["amplitude"] == pytest.approx(TRUE["a"], rel=1e-9)
        assert fit.params["offset"] == pytest.approx(TRUE["off"], rel=1e-6)

    def test_one_percent_noise_recovery(self):
        rng = np.random.default_rng(42)
        y = lorentzian(GRID, TRUE["f0"], TRUE["g"], TRUE["a"], TRUE["off"])
        y = y + rng.normal(0, 0.01 * TRUE["a"], y.size)
        fit = lorentzian_fit(GRID, y)
        assert fit.params["fwhm"] == pytest.approx(TRUE["g"], rel=0.02)
        assert fit.params["amplitude"] == pytest.approx(TRUE["a"], rel=0.02)
        assert fit.params["center"] == pytest.approx(TRUE["f0"], abs=0.02 * TRUE["g"])

    def test_ensemble_bias_and_sigma_honesty(self):
        # 100 noisy realisations: bias well below the noise scale and the
        # reported sigmas consistent with the observed scatter
        rng = np.random.default_rng(2024)
        clean = lorentzian(GRID, TRUE["f0"], TRUE["g"], TRUE["a"], TRUE["off"])
        fwhms, sigs = [], []
        for _ in range(100):
            fit = lorentzian_fit(GRID, clean + rng.normal(0, 0.01 * TRUE["a"], clean.size))
            fwhms.append(fit.params["fwhm"])
            sigs.append(fit.sigmas["fwhm"])
        fwhms = np.array(fwhms)
        assert abs(np.mean(fwhms) - TRUE["g"]) / TRUE["g"] < 0.005
        assert np.std(fwhms) < 2 * np.mean(sigs)
        assert np.std(fwhms) > 0.3 * np.mean(sigs)

    def test_amplitude_rescaling_leaves_shape_parameters(self):
        y = lorentzian(GRID, TRUE["f0"], TRUE["g"], TRUE["a"], TRUE["off"])
        f1 = lorentzian_fit(GRID, y)
        f2 = lorentzian_fit(GRID, 137.0 * y)
        assert f2.params["center"] == pytest.approx(f1.params["center"], rel=1e-9)
        assert f2.params["fwhm"] == pytest.approx(f1.params["fwhm"], rel=1e-9)
        assert f2.params["amplitude"] == pytest.approx(137.0 * f1.params["amplitude"], rel=1e-9)

    def test_sigma_scaling_with_density(self):
        rng = np.random.default_rng(7)
        sig_by_n = {}
        for n in (200, 2000):
            grid = np.linspace(2.799e9 - 300e3, 2.799e9 + 300e3, n)
            y = lorentzian(grid, TRUE["f0"], TRUE["g"], TRUE["a"], TRUE["off"])
            fit = lorentzian_fit(grid, y + rng.normal(0, 0.01, n))
            sig_by_n[n] = fit.sigmas["fwhm"]
        ratio = sig_by_n[200] / sig_by_n[2000]
        assert ratio == pytest.approx(np.sqrt(10), rel=0.3)

    def test_flat_data_rank_deficient(self):
        with pytest.raises(RankDeficiencyError):
            lorentzian_fit(GRID, np.full(GRID.size, 0.3))

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            lorentzian_fit(GRID[:5], np.ones(5))


class TestSqrtLorentzianFit:
    def test_noiseless_round_trip(self):
        y = sqrt_lorentzian(GRID, TRUE["f0"], TRUE["g"], TRUE["a"], TRUE["off"])
        fit = sqrt_lorentzian_fit(GRID, y)
        assert fit.residual_norm < 1e-8
        for name, val in (("center", TRUE["f0"]), ("fwhm", TRUE["g"]),
                          ("amplitude", TRUE["a"]), ("offset", TRUE["off"])):
            assert fit.params[name] == pytest.approx(val, rel=1e-6)

    def test_synthetic_transduction_amplitude_trace(self, cavity, mode_2799):
        # amplitude of the transduced line: sqrt of the power Lorentzian with
        # the optically broadened width
        n_c = 800.0
        gamma = optomechanical_damping(cavity, mode_2799, n_c, -mode_2799.omega_m)
        rng = np.random.default_rng(5)
        grid = np.linspace(2.799e9 - 400e3, 2.799e9 + 400e3, 321)
        y = sqrt_lorentzian(grid, 2.799e9, gamma / TWO_PI, 0.9, 0.05)
        fit = sqrt_lorentzian_fit(grid, y + rng.normal(0, 0.009, grid.size))
        assert fit.params["fwhm"] == pytest.approx(gamma / TWO_PI, rel=0.02)

    def test_ensemble_bias(self):
        rng = np.random.default_rng(11)
        clean = sqrt_lorentzian(GRID, TRUE["f0"], TRUE["g"], TRUE["a"], TRUE["off"])
        fwhms = []
        for _ in range(100):
            fit = sqrt_lorentzian_fit(GRID, clean + rng.normal(0, 0.01, clean.size))
            fwhms.append(fit.params["fwhm"])
        assert abs(np.mean(fwhms) - TRUE["g"]) / TRUE["g"] < 0.005


class TestOpticalS11Fit:
    KAPPA_E = 2.54e9
    KAPPA_I = 4.17e9 - 2.54e9
    D0 = 8e9

    def synthetic(self, kappa_e_hz, kappa_i_hz, d0_hz=D0, n=801):
        grid = np.linspace(4e9, 12e9, n)
        cav = OpticalCavity(
            omega_c=1.0, kappa=TWO_PI * (kappa_e_hz + kappa_i_hz),
            kappa_e=TWO_PI * kappa_e_hz,
        )
        return grid, np.abs(three_tone_s11(cav, TWO_PI * d0_hz, TWO_PI * grid))

    def test_paper_round_trip(self):
        grid, mag = self.synthetic(self.KAPPA_E, self.KAPPA_I)
        fit = optical_s11_fit(grid, mag, carrier_detuning_guess_hz=8.5e9)
        assert fit.residual_norm < 1e-8
        kappa = fit.meta["kappa_hz"]
        assert kappa == pytest.approx(4.17e9, rel=1e-3)
        assert fit.params["kappa_e_hz"] == pytest.approx(self.KAPPA_E, rel=1e-3)
        assert fit.meta["eta_o"] == pytest.approx(0.61, abs=0.001)
        assert fit.meta["undercoupled"] is False
        assert fit.params["delta0_hz"] == pytest.approx(self.D0, rel=1e-6)

    def test_critical_coupling_recovered(self):
        # at critical coupling the resonant sideband reflects with r = 0, so
        # its interference term vanishes and the three-tone dip bottoms out at
        # half the carrier-sideband background rather than zero
        kappa = 4.0e9
        grid, mag = self.synthetic(kappa / 2, kappa / 2)
        fit = optical_s11_fit(grid, mag, carrier_detuning_guess_hz=8e9)
        assert fit.meta["eta_o"] == pytest.approx(0.5, abs=1e-3)
        i0 = int(np.argmin(mag))
        background = _three_tone_magnitude_background(grid[i0], 8e9, kappa)
        assert mag.min() == pytest.approx(background / 2, rel=0.02)

    def test_undercoupled_branch_flagged(self):
        kappa = 4.17e9
        grid, mag = self.synthetic(0.2 * kappa, 0.8 * kappa)
        assert mag.min() > 0.5  # undercoupled devices never dip below one half
        fit = optical_s11_fit(grid, mag, carrier_detuning_guess_hz=8e9)
        assert fit.meta["undercoupled"] is True
        assert fit.params["kappa_e_hz"] == pytest.approx(0.2 * kappa, rel=0.01)


class TestSolve:
    def test_parameter_the_residuals_ignore_fails_naming_it(self):
        data = np.linspace(0.0, 1.0, 8)
        with pytest.raises(FitConvergenceError, match="do not depend on b at the solution"):
            _solve(lambda p: p[0] * data - data, [2.0, 1.0], ["a", "b"], [False, False])


class TestG0FromDamping:
    def test_round_trip_mode_2799(self, cavity, mode_2799):
        n_c = np.array([50.0, 200.0, 600.0, 1400.0])
        gam = np.asarray(
            optomechanical_damping(cavity, mode_2799, n_c, -mode_2799.omega_m)
        )
        fit = g0_from_damping(
            np.column_stack([n_c, gam]), cavity, -mode_2799.omega_m, mode_2799.omega_m
        )
        assert fit.params["g0"] == pytest.approx(mode_2799.g0, rel=1e-9)
        assert fit.params["gamma_m0"] == pytest.approx(mode_2799.gamma_m0, rel=1e-9)

    def test_round_trip_mode_2790(self, cavity, mode_2790):
        n_c = np.array([100.0, 900.0, 2700.0, 5000.0])
        gam = np.asarray(
            optomechanical_damping(cavity, mode_2790, n_c, -mode_2790.omega_m)
        )
        rng = np.random.default_rng(3)
        gam = gam * (1 + rng.normal(0, 1e-3, gam.size))
        fit = g0_from_damping(
            np.column_stack([n_c, gam]), cavity, -mode_2790.omega_m, mode_2790.omega_m
        )
        assert fit.params["g0"] == pytest.approx(mode_2790.g0, rel=0.02)

    def test_identical_points_rank_deficient(self, cavity, mode_2799):
        pts = np.array([[100.0, 1e5], [100.0, 1e5]])
        with pytest.raises(RankDeficiencyError):
            g0_from_damping(pts, cavity, -mode_2799.omega_m, mode_2799.omega_m)

    def test_two_points_insufficient(self, cavity, mode_2799):
        pts = np.array([[100.0, 1e5], [200.0, 2e5]])
        with pytest.raises(ParameterError):
            g0_from_damping(pts, cavity, -mode_2799.omega_m, mode_2799.omega_m)

    def test_negative_slope_sign_convention(self, cavity, mode_2799):
        n_c = np.array([50.0, 500.0, 1500.0])
        gam = mode_2799.gamma_m0 - n_c * 1e2  # anti-damping trend on the red side
        with pytest.raises(SignConventionError):
            g0_from_damping(
                np.column_stack([n_c, gam]), cavity, -mode_2799.omega_m, mode_2799.omega_m
            )


class TestBcsResonanceFit:
    C_MATCH = 17.33e-15
    TRUE = dict(t_c=8.0, l_kinetic_0=130e-9, l_geometric=50e-9)

    def curve(self, t, t_c, lk0, lg):
        model = KineticInductanceModel(l_geometric=lg, l_kinetic_0=lk0, t_c=t_c)
        l = np.asarray(kinetic_inductance_at(model, t))
        return 1 / (TWO_PI * np.sqrt(l * self.C_MATCH))

    def test_round_trip(self):
        t = np.linspace(0.02, 7.6, 12)
        f = self.curve(t, **{k: v for k, v in zip(("t_c", "lk0", "lg"),
                                                  self.TRUE.values())})
        fit = bcs_resonance_fit(np.column_stack([t, f]), c_match=self.C_MATCH)
        assert fit.residual_norm < 1e-8
        assert fit.params["t_c"] == pytest.approx(8.0, rel=0.005)
        assert fit.params["l_kinetic_0"] == pytest.approx(130e-9, rel=0.005)
        assert fit.params["l_geometric"] == pytest.approx(50e-9, rel=0.005)

    def test_temperature_independent_data_drops_kinetic_term(self):
        # flat data is degenerate between l_kinetic_0 -> 0 and t_c -> inf
        # (both make the kinetic term constant); the fit runs t_c up until the
        # kinetic term is constant in float64 over the span, where the residuals
        # no longer depend on t_c: a failed fit, not a t_c with zero error
        t = np.linspace(0.1, 6.0, 10)
        f = np.full(t.size, 2.85e9)
        with pytest.raises(FitConvergenceError, match="do not depend on t_c_excess"):
            bcs_resonance_fit(np.column_stack([t, f]), c_match=self.C_MATCH)

    def test_fitted_tc_above_data_span(self):
        t = np.linspace(1.0, 9.0, 14)
        f = self.curve(t, 9.5, 130e-9, 50e-9)
        fit = bcs_resonance_fit(np.column_stack([t, f]), c_match=self.C_MATCH)
        assert fit.params["t_c"] > 9.0
        assert fit.params["t_c"] == pytest.approx(9.5, rel=0.02)

    def test_isothermal_rank_deficient(self):
        pts = np.column_stack([np.full(5, 4.0), np.linspace(2.8e9, 2.85e9, 5)])
        with pytest.raises(RankDeficiencyError):
            bcs_resonance_fit(pts, c_match=self.C_MATCH)

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            bcs_resonance_fit(np.array([[1.0, 2.8e9], [2.0, 2.79e9]]), c_match=self.C_MATCH)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("fit", [lorentzian_fit, sqrt_lorentzian_fit])
    def test_peak_data_must_be_finite(self, fit):
        y = lorentzian(GRID, **TRUE)
        for x, v in ((GRID, np.where(GRID == GRID[7], np.nan, y)),
                     (np.where(GRID == GRID[7], np.inf, GRID), y)):
            with pytest.raises(ParameterError, match="must be finite"):
                fit(x, v)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_scalar_arguments_must_be_finite(self, value, cavity, mode_2799):
        grid = np.linspace(4e9, 12e9, 101)
        mag = np.abs(three_tone_s11(cavity, TWO_PI * 8e9, TWO_PI * grid))
        with pytest.raises(ParameterError, match="carrier detuning guess must be finite"):
            optical_s11_fit(grid, mag, value)
        pts = np.array([[50.0, 1e5], [300.0, 2e5], [900.0, 5e5]])
        with pytest.raises(ParameterError, match="pump detuning must be finite"):
            g0_from_damping(pts, cavity, value, mode_2799.omega_m)
        t = np.linspace(0.02, 7.6, 6)
        with pytest.raises(ParameterError, match="c_match must be finite and > 0"):
            bcs_resonance_fit(np.column_stack([t, 2.8e9 - 1e6 * t**2]), c_match=value)


class TestBidirectionalEfficiency:
    def test_all_equal_gives_unity(self):
        assert bidirectional_efficiency(SParamQuad(3.0, 3.0, 3.0, 3.0)) == 1.0

    def test_constructed_gain(self):
        g = 1.3e-3
        s_oo, s_ee = 0.8, 1.7
        peak = g * np.sqrt(s_oo * s_ee)
        eta = bidirectional_efficiency(SParamQuad(peak, peak, s_oo, s_ee))
        assert eta == pytest.approx(g**2, rel=1e-12)

    def test_swap_symmetry_exact(self):
        q1 = SParamQuad(0.011, 0.023, 0.9, 1.4)
        q2 = SParamQuad(0.023, 0.011, 0.9, 1.4)
        assert bidirectional_efficiency(q1) == bidirectional_efficiency(q2)

    def test_sibling_device_scale(self):
        # quad constructed to the stated per-photon electrical-to-mechanical
        # efficiency of the sibling device
        eta_target = 3.4e-6
        peak = np.sqrt(eta_target) * np.sqrt(1.0 * 1.0)
        eta = bidirectional_efficiency(SParamQuad(peak, peak, 1.0, 1.0))
        assert eta == pytest.approx(3.4e-6, rel=1e-9)

    def test_zero_background_rejected(self):
        with pytest.raises(ParameterError):
            SParamQuad(1.0, 1.0, 0.0, 1.0)
