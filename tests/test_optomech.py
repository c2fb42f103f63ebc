import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.constants import hbar

from pomtx.errors import InconsistentAsymmetryError, ParameterError
from pomtx.optomech import (
    DriveTone,
    MechanicalMode,
    OpticalCavity,
    cavity_reflection,
    continuous_efficiency_shape,
    cooperativity,
    intracavity_photons,
    mechanics_to_optics_efficiency,
    optomechanical_damping,
    red_sideband_response,
    single_photon_cooperativity,
    stokes_leakage,
    swap_probability,
    thermal_occupation,
    three_tone_s11,
)

TWO_PI = 2.0 * np.pi


class TestCavityReflection:
    def test_critical_coupling_nulls(self):
        c = OpticalCavity(omega_c=TWO_PI * 193e12, kappa=TWO_PI * 4e9, kappa_e=TWO_PI * 2e9)
        assert cavity_reflection(c, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_full_overcoupling_phase_flip(self):
        c = OpticalCavity(omega_c=TWO_PI * 193e12, kappa=TWO_PI * 4e9, kappa_e=TWO_PI * 4e9)
        assert cavity_reflection(c, 0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_paper_device_on_resonance(self, cavity):
        r = cavity_reflection(cavity, 0.0)
        assert r.imag == pytest.approx(0.0, abs=1e-15)
        assert r.real == pytest.approx(1 - 2 * 2.54 / 4.17, rel=1e-9)
        assert r.real == pytest.approx(-0.218, abs=0.001)

    def test_single_minimum_and_far_detuned_limit(self, cavity):
        delta = np.linspace(-10, 10, 2001) * cavity.kappa
        mag = np.abs(cavity_reflection(cavity, delta))
        assert np.all(mag <= 1 + 1e-12)
        i_min = int(np.argmin(mag))
        assert delta[i_min] == pytest.approx(0.0, abs=cavity.kappa * 0.02)
        assert np.all(np.diff(mag[: i_min + 1]) <= 1e-15)
        assert np.all(np.diff(mag[i_min:]) >= -1e-15)
        assert abs(cavity_reflection(cavity, 1e6 * cavity.kappa) - 1.0) < 1e-5


class TestThreeToneS11:
    def test_paper_sweep_dip(self, cavity):
        mod = TWO_PI * np.linspace(4e9, 12e9, 4001)
        mag = np.abs(three_tone_s11(cavity, TWO_PI * 8e9, mod))
        i0 = int(np.argmin(mag))
        assert mag[i0] < 0.5
        # dip where the lower sideband crosses the cavity
        assert mod[i0] / TWO_PI == pytest.approx(8e9, abs=0.25e9)
        # under the printed r-convention the dip FWHM is ~kappa/2
        depth = 1 - mag
        half = depth[i0] / 2
        left = mod[:i0][np.argmin(np.abs(depth[:i0] - half))]
        right = mod[i0:][np.argmin(np.abs(depth[i0:] - half))]
        assert 0.3 * cavity.kappa < right - left < 0.7 * cavity.kappa

    def test_matches_the_three_reflection_formula(self, cavity):
        def r(delta):  # written out here, independent of the package's kernel
            return 1 - cavity.kappa_e / (cavity.kappa / 2 - 2j * delta)

        d0 = TWO_PI * 8e9
        mods = [TWO_PI * f for f in (1e9, 7.9e9, 8.3e9, 15e9)]
        want = [(r(d0).conjugate() * r(d0 + om) + r(d0) * r(d0 - om).conjugate()) / 2
                for om in mods]
        assert three_tone_s11(cavity, d0, mods) == pytest.approx(want, rel=1e-12)
        assert [three_tone_s11(cavity, d0, om) for om in mods] == pytest.approx(want, rel=1e-12)

    def test_off_resonant_background(self, cavity):
        # both sidebands far away: carrier-only interference
        d0 = TWO_PI * 8e9
        s_far = three_tone_s11(cavity, d0, TWO_PI * 20e12)
        r0 = cavity_reflection(cavity, d0)
        assert abs(s_far - r0.real) < 1e-3

    def test_decoupled_cavity_flat(self):
        c = OpticalCavity(
            omega_c=TWO_PI * 193e12, kappa=TWO_PI * 4.17e9, kappa_e=TWO_PI * 4.17e-3
        )
        mod = TWO_PI * np.linspace(4e9, 12e9, 101)
        mag = np.abs(three_tone_s11(c, TWO_PI * 8e9, mod))
        np.testing.assert_allclose(mag, 1.0, atol=1e-9)


class TestIntracavityPhotons:
    def test_zero_power(self, cavity, mode_2799):
        d = DriveTone.continuous(cavity.omega_c - mode_2799.omega_m, 0.0)
        assert intracavity_photons(cavity, d) == 0.0

    def test_paper_red_sideband_microwatt(self, cavity, mode_2799):
        d = DriveTone.continuous(cavity.omega_c - mode_2799.omega_m, 1e-6)
        n = intracavity_photons(cavity, d)
        # oracle: scalar arithmetic with hbar*omega_l = 1.277e-19 J
        rate = 1e-6 / (hbar * d.omega_l)
        expected = rate * cavity.kappa_e / (mode_2799.omega_m**2 + (cavity.kappa / 2) ** 2)
        assert n == pytest.approx(expected, rel=1e-9)
        assert n == pytest.approx(2.6e2, rel=0.02)

    def test_detuning_ratio(self, cavity, mode_2799):
        p = 1e-6
        on = DriveTone.continuous(cavity.omega_c, p)
        red = DriveTone.continuous(cavity.omega_c - mode_2799.omega_m, p)
        ratio = intracavity_photons(cavity, on) / intracavity_photons(cavity, red)
        # detuning factor times the photon-energy ratio of the two tones
        expected = (
            (mode_2799.omega_m**2 + (cavity.kappa / 2) ** 2) / (cavity.kappa / 2) ** 2
        ) * (red.omega_l / on.omega_l)
        assert ratio == pytest.approx(expected, rel=1e-9)
        assert ratio == pytest.approx(2.80, abs=0.02)

    def test_fiber_coupling_applies(self, cavity, mode_2799):
        full = DriveTone.continuous(cavity.omega_c, 1e-6, coupling_eta=1.0)
        half = DriveTone.continuous(cavity.omega_c, 1e-6, coupling_eta=0.5)
        assert intracavity_photons(cavity, half) == pytest.approx(
            intracavity_photons(cavity, full) / 2, rel=1e-12
        )


class TestOptomechanicalDamping:
    def test_zero_photons(self, cavity, mode_2799):
        assert optomechanical_damping(cavity, mode_2799, 0.0, -mode_2799.omega_m) == (
            mode_2799.gamma_m0
        )

    def test_exactly_linear_in_nc(self, cavity, mode_2799):
        n_c = np.array([10.0, 500.0, 2000.0])
        g = np.asarray(optomechanical_damping(cavity, mode_2799, n_c, -mode_2799.omega_m))
        coeffs, residuals, *_ = np.polyfit(n_c, g, 1, full=True)
        assert residuals[0] / np.sum(g**2) < 1e-24

    def test_red_sideband_cooling_slope(self, cavity, mode_2799):
        g1000 = optomechanical_damping(cavity, mode_2799, 1000.0, -mode_2799.omega_m)
        # oracle: explicit L+- arithmetic
        lp = cavity.kappa / (cavity.kappa**2 / 4 + (-mode_2799.omega_m + mode_2799.omega_m) ** 2)
        lm = cavity.kappa / (cavity.kappa**2 / 4 + (-2 * mode_2799.omega_m) ** 2)
        assert g1000 == pytest.approx(mode_2799.gamma_m0 + 1000 * mode_2799.g0**2 * (lp - lm),
                                      rel=1e-12)
        assert g1000 > mode_2799.gamma_m0

    def test_symmetric_sidebands_cancel(self, cavity, mode_2799):
        assert optomechanical_damping(cavity, mode_2799, 5000.0, 0.0) == pytest.approx(
            mode_2799.gamma_m0, rel=1e-12
        )


class TestCooperativity:
    def test_paper_mode_2799(self, cavity, mode_2799):
        assert single_photon_cooperativity(cavity, mode_2799) == pytest.approx(7.0e-3, rel=0.03)

    def test_paper_mode_2790(self, cavity, mode_2790):
        assert single_photon_cooperativity(cavity, mode_2790) == pytest.approx(3.7e-4, rel=0.05)

    def test_multiphoton_at_148(self, cavity, mode_2799):
        assert cooperativity(cavity, mode_2799, 148.0) == pytest.approx(1.04, rel=0.03)


class TestEfficiencyShape:
    def test_peak_value_exact(self):
        assert continuous_efficiency_shape(1.0) == 0.25

    def test_zero(self):
        assert continuous_efficiency_shape(0.0) == 0.0

    def test_argmax_on_dyadic_grid(self):
        grid = np.arange(0, 4097) / 1024.0  # contains 1.0 exactly
        y = np.asarray(continuous_efficiency_shape(grid))
        assert grid[np.argmax(y)] == 1.0
        assert y.max() == 0.25

    def test_near_peak_operating_points(self):
        # the measured optimum cooperativities sit within 0.1% of the peak
        for c in (1.04, 1.01):
            assert continuous_efficiency_shape(c) > 0.999 * 0.25


class TestRedSidebandResponse:
    @pytest.mark.parametrize("n_c", [0.0, 148.0, 1665.0, np.linspace(1.0, 3000.0, 300)])
    def test_equals_separate_calls_bit_for_bit(self, cavity, mode_2799, n_c):
        gamma, c_om, peak = red_sideband_response(cavity, mode_2799, n_c)
        ref_c = cooperativity(cavity, mode_2799, n_c)
        ref = (optomechanical_damping(cavity, mode_2799, n_c, -mode_2799.omega_m), ref_c,
               4.0 * continuous_efficiency_shape(ref_c) * cavity.eta_o)
        for got, want in zip((gamma, c_om, peak), ref):
            assert type(got) is type(want)
            assert np.array_equal(got, want)

    def test_peak_is_eta_o_at_unit_cooperativity(self):
        # 4 g0^2 / (kappa gamma_m0) = 1 exactly, so n_c = 1 gives C = 1
        cav = OpticalCavity(omega_c=1e15, kappa=4.0, kappa_e=2.5)
        mode = MechanicalMode(omega_m=10.0, gamma_m0=1.0, g0=1.0)
        _, c_om, peak = red_sideband_response(cav, mode, 1.0)
        assert c_om == 1.0 and peak == cav.eta_o

    @pytest.mark.parametrize("n_c", [np.nan, np.inf, -np.inf, -1.0, [1.0, np.nan]])
    def test_non_finite_or_negative_photon_number_rejected(self, cavity, mode_2799, n_c):
        for fn in (lambda: optomechanical_damping(cavity, mode_2799, n_c, -mode_2799.omega_m),
                   lambda: cooperativity(cavity, mode_2799, n_c),
                   lambda: red_sideband_response(cavity, mode_2799, n_c)):
            with pytest.raises(ParameterError, match="n_c must be finite and >= 0"):
                fn()


def paper_pulse(cavity, mode, energy_device_j):
    return DriveTone.pulsed(
        omega_l=cavity.omega_c - mode.omega_m, energy_j=energy_device_j, length_s=40e-9
    )


class TestSwapProbability:
    def test_zero_energy(self, cavity, mode_2799):
        assert swap_probability(cavity, mode_2799, paper_pulse(cavity, mode_2799, 0.0)) == 0.0

    def test_paper_40fj(self, cavity, mode_2799):
        d = paper_pulse(cavity, mode_2799, 40e-15)
        assert d.photons == pytest.approx(314e3, rel=0.01)
        p = swap_probability(cavity, mode_2799, d)
        assert 0.029 <= p <= 0.035

    def test_fiber_plane_vs_device_plane(self, cavity, mode_2799):
        launched = DriveTone.pulsed(
            cavity.omega_c - mode_2799.omega_m, energy_j=80e-15, length_s=40e-9,
            coupling_eta=0.5,
        )
        at_device = paper_pulse(cavity, mode_2799, 40e-15)
        assert swap_probability(cavity, mode_2799, launched) == pytest.approx(
            swap_probability(cavity, mode_2799, at_device), rel=1e-12
        )

    def test_small_energy_doubling(self, cavity, mode_2799):
        p1 = swap_probability(cavity, mode_2799, paper_pulse(cavity, mode_2799, 1e-15))
        p2 = swap_probability(cavity, mode_2799, paper_pulse(cavity, mode_2799, 2e-15))
        assert p2 == pytest.approx(2 * p1, rel=0.03)

    def test_small_energy_linear_coefficient(self, cavity, mode_2799):
        e = 5e-15
        d = paper_pulse(cavity, mode_2799, e)
        p = swap_probability(cavity, mode_2799, d)
        assert p < 0.01
        coeff = 4 * cavity.eta_o * mode_2799.g0**2 / (
            hbar * d.omega_l * (mode_2799.omega_m**2 + (cavity.kappa / 2) ** 2)
        )
        assert p / e == pytest.approx(coeff, rel=0.01)

    def test_monotone_concave_bounded(self, cavity, mode_2799):
        energies = np.linspace(0, 5e-12, 200)
        p = np.array(
            [swap_probability(cavity, mode_2799, paper_pulse(cavity, mode_2799, e))
             for e in energies]
        )
        assert np.all(p < 1)
        assert np.all(np.diff(p) > 0)
        assert np.all(np.diff(p, 2) < 1e-12)
        big = swap_probability(cavity, mode_2799, paper_pulse(cavity, mode_2799, 1e-9))
        assert big > 0.9999


class TestMechanicsToOptics:
    def test_paper_composition(self):
        assert mechanics_to_optics_efficiency(0.032, 0.61) == pytest.approx(1.95e-2, abs=5e-5)

    def test_saturation_bound(self):
        assert mechanics_to_optics_efficiency(1.0, 0.61) == 0.61

    def test_low_noise_operating_point(self):
        p = 0.008 / 0.61
        assert mechanics_to_optics_efficiency(p, 0.61) == pytest.approx(8e-3, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterError):
            mechanics_to_optics_efficiency(1.5, 0.6)


class TestStokesLeakage:
    def test_paper_operating_point(self):
        out = stokes_leakage(0.032, TWO_PI * 2.799e9, TWO_PI * 4.17e9)
        assert out["leakage"] == pytest.approx(3.8e-3, rel=0.02)
        assert out["leakage"] < 0.01

    def test_zero(self):
        assert stokes_leakage(0.0, 1.0, 1.0)["leakage"] == 0.0

    def test_resolution_ratio(self):
        out = stokes_leakage(0.01, TWO_PI * 2.799e9, TWO_PI * 4.17e9)
        assert out["resolved_ratio"] == pytest.approx(0.671, abs=0.005)


class TestThermalOccupation:
    def test_equal_weight(self):
        n, _ = thermal_occupation(1000.0, 2000.0)
        assert n == pytest.approx(1.0, rel=1e-12)

    def test_paper_ratio(self):
        # oracle: n/(n+1) = 0.3548 inverts to n = 0.55
        n, _ = thermal_occupation(0.355 * 1e4, 1e4)
        assert n == pytest.approx(0.55, abs=0.01)

    def test_ground_state(self):
        n, sig = thermal_occupation(0.0, 500.0)
        assert n == 0.0
        assert sig == 0.0

    def test_inconsistent_rates(self):
        with pytest.raises(InconsistentAsymmetryError):
            thermal_occupation(2000.0, 1000.0)
        with pytest.raises(ParameterError):
            thermal_occupation(-1.0, 1000.0)

    def test_poisson_uncertainty(self):
        # oracle: var = (B^2 R + R^2 B)/(B-R)^4 by direct propagation
        r, b = 900.0, 2500.0
        _, sig = thermal_occupation(r, b)
        expected = np.sqrt(b**2 * r + r**2 * b) / (b - r) ** 2
        assert sig == pytest.approx(expected, rel=1e-12)

    @settings(deadline=None, max_examples=80, derandomize=True)
    @given(
        gamma=st.floats(1e-3, 1e6),
        n=st.floats(0.0, 1e3),
    )
    def test_forward_inverse_identity(self, gamma, n):
        n_hat, _ = thermal_occupation(gamma * n, gamma * (n + 1.0))
        assert n_hat == pytest.approx(n, rel=1e-12, abs=1e-12)
