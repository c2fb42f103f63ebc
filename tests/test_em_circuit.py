import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomtx import em_circuit, optomech
from pomtx.em_circuit import (
    BvdParams,
    KineticInductanceModel,
    MatchDesign,
    MatchingParams,
    bvd_motional_branch,
    electrical_s11,
    electromechanical_efficiency,
    input_impedance,
    keff_from_admittance,
    kinetic_inductance_at,
    match_design,
    matched_load,
    resonance_vs_temperature,
)
from pomtx.errors import ParameterError

TWO_PI = 2.0 * np.pi

PAPER_BVD = dict(c_res=0.17e-15, k_eff_sq=1.59e-6)


def paper_bvd(omega_m=TWO_PI * 2.8e9, q=1e5):
    return BvdParams(omega_m=omega_m, gamma_m=omega_m / q, **PAPER_BVD)


def bvd_67k():
    # measured linewidth of the 2.799 GHz mode
    return BvdParams(omega_m=TWO_PI * 2.799e9, gamma_m=TWO_PI * 67e3, **PAPER_BVD)


class TestMotionalBranch:
    def test_paper_resistance(self):
        br = bvd_motional_branch(paper_bvd())
        assert br.r_m == pytest.approx(2.1e6, rel=0.05)

    def test_linear_in_gamma(self):
        b1 = paper_bvd()
        b2 = BvdParams(c_res=b1.c_res, k_eff_sq=b1.k_eff_sq, omega_m=b1.omega_m,
                       gamma_m=2 * b1.gamma_m)
        assert bvd_motional_branch(b2).r_m == pytest.approx(
            2 * bvd_motional_branch(b1).r_m, rel=1e-12
        )

    def test_double_q_halves_resistance(self):
        # oracle: direct evaluation of the formula at both quality factors
        r1 = bvd_motional_branch(paper_bvd(q=1e5)).r_m
        r2 = bvd_motional_branch(paper_bvd(q=2e5)).r_m
        assert r2 == pytest.approx(r1 / 2, rel=1e-12)
        assert r2 == pytest.approx(1.05e6, rel=0.05)

    def test_round_trip(self):
        p = bvd_67k()
        br = bvd_motional_branch(p)
        k2 = br.c_m / (br.c_m + p.c_res)
        assert k2 == pytest.approx(p.k_eff_sq, rel=1e-12)
        assert 1 / np.sqrt(br.l_m * br.c_m) == pytest.approx(p.omega_m, rel=1e-9)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            BvdParams(c_res=-1e-15, k_eff_sq=1e-6, omega_m=1e9, gamma_m=1e3)
        with pytest.raises(ParameterError):
            BvdParams(c_res=1e-15, k_eff_sq=1.5, omega_m=1e9, gamma_m=1e3)
        with pytest.raises(ParameterError):
            BvdParams(c_res=1e-15, k_eff_sq=float("nan"), omega_m=1e9, gamma_m=1e3)


class TestInputImpedance:
    def test_bare_resonance_extremum(self):
        # decoupled motional branch: |Z| minimum at 1/sqrt(L (C_match + C_res))
        m = MatchingParams(l_match=180e-9, c_match=17.16e-15, r_loss=3.0)
        b = BvdParams(c_res=0.17e-15, k_eff_sq=1e-30, omega_m=TWO_PI * 2.8e9,
                      gamma_m=TWO_PI * 28e3)
        w0 = 1 / np.sqrt(m.l_match * (m.c_match + b.c_res))
        grid = np.linspace(0.9 * w0, 1.1 * w0, 20001)
        z = input_impedance(m, b, grid)
        w_min = grid[np.argmin(np.abs(z))]
        assert w_min == pytest.approx(w0, rel=1e-3)
        assert abs(input_impedance(m, b, w0)) == pytest.approx(m.r_loss, rel=1e-2)

    def test_low_frequency_capacitive(self):
        m = MatchingParams(l_match=180e-9, c_match=17.16e-15, r_loss=3.0)
        b = bvd_67k()
        w = TWO_PI * 1e3
        z = input_impedance(m, b, w)
        # C_res in parallel with C_match dominates; C_m in the motional branch
        # is negligible (k_eff^2 suppressed)
        c_tot = m.c_match + b.c_res
        assert abs(z) == pytest.approx(1 / (w * c_tot), rel=1e-2)
        assert np.angle(z, deg=True) == pytest.approx(-90.0, abs=1.0)

    def test_dc_domain_error(self):
        m = MatchingParams(l_match=180e-9, c_match=19e-15)
        with pytest.raises(ParameterError):
            input_impedance(m, None, 0.0)

    def test_loaded_q_of_reflection_dip(self):
        # test-inductor configuration: L = 180 nH, C = 19 fF, R_loss = 3 ohm
        m = MatchingParams(l_match=180e-9, c_match=19e-15, r_loss=3.0)
        b = paper_bvd()
        w = TWO_PI * np.linspace(2.0e9, 3.4e9, 200001)
        g2 = np.abs(electrical_s11(m, b, w)) ** 2
        i0 = int(np.argmin(g2))
        depth = 1 - g2[i0]
        half = 1 - depth / 2
        left = w[:i0][np.argmin(np.abs(g2[:i0] - half))]
        right = w[i0:][np.argmin(np.abs(g2[i0:] - half))]
        q_loaded = w[i0] / (right - left)
        assert 52 < q_loaded < 68
        w0 = 1 / np.sqrt(m.l_match * (m.c_match + b.c_res))
        assert w[i0] == pytest.approx(w0, rel=5e-3)


class TestElectricalS11:
    def test_matched_point_zero(self):
        # series RLC with R_loss = Z0 presents exactly Z0 on resonance
        m = MatchingParams(l_match=180e-9, c_match=19e-15, r_loss=50.0)
        w0 = 1 / np.sqrt(m.l_match * m.c_match)
        assert abs(electrical_s11(m, None, w0)) < 1e-6

    def test_dc_limit_open(self):
        m = MatchingParams(l_match=180e-9, c_match=19e-15, r_loss=3.0)
        g = electrical_s11(m, None, TWO_PI * 1.0)
        assert abs(g - 1.0) < 1e-3

    def test_phase_wraps_two_pi_when_overcoupled(self):
        m = MatchingParams(l_match=180e-9, c_match=19e-15, r_loss=3.0)
        w0 = 1 / np.sqrt(m.l_match * m.c_match)
        w = np.linspace(0.5 * w0, 1.5 * w0, 100001)
        phase = np.unwrap(np.angle(electrical_s11(m, None, w)))
        assert np.ptp(phase) == pytest.approx(TWO_PI, rel=0.1)

    def test_energy_bookkeeping(self):
        # power into R_loss plus power into R_m equals the delivered power
        # P_avail (1 - |Gamma|^2) at every frequency
        m = MatchingParams(l_match=180e-9, c_match=17.16e-15, r_loss=3.0)
        b = bvd_67k()
        w = TWO_PI * np.linspace(2.5e9, 3.2e9, 4001)
        z = input_impedance(m, b, w)
        gam = electrical_s11(m, b, w)
        i_in = 1.0 / (m.z_source + z)
        p_avail = 1.0 / (8 * m.z_source)
        p_delivered = p_avail * (1 - np.abs(gam) ** 2)
        p_rloss = 0.5 * np.abs(i_in) ** 2 * m.r_loss
        p_rm = np.asarray(electromechanical_efficiency(m, b, w)) * p_avail
        np.testing.assert_allclose(p_rloss + p_rm, p_delivered, rtol=1e-9)

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(
        l=st.floats(20e-9, 1e-6),
        c=st.floats(1e-15, 100e-15),
        rl=st.floats(0.0, 20.0),
        k2=st.floats(1e-9, 1e-3),
        f=st.floats(1e8, 2e10),
    )
    def test_passivity_and_bounded_reflection(self, l, c, rl, k2, f):
        m = MatchingParams(l_match=l, c_match=c, r_loss=rl)
        b = BvdParams(c_res=0.17e-15, k_eff_sq=k2, omega_m=TWO_PI * 2.8e9,
                      gamma_m=TWO_PI * 50e3)
        z = input_impedance(m, b, TWO_PI * f)
        assert z.real >= -1e-9 * abs(z)
        assert abs(electrical_s11(m, b, TWO_PI * f)) <= 1 + 1e-9


class TestMatchedLoad:
    def test_paper_value(self):
        assert matched_load(3.1e3, 50.0) == pytest.approx(192.2e3, rel=1e-3)

    def test_identity(self):
        assert matched_load(50.0, 50.0) == pytest.approx(50.0, rel=1e-12)

    def test_from_l_over_c(self):
        z = np.sqrt(180e-9 / 19e-15)
        assert matched_load(z, 50.0) == pytest.approx(189.5e3, rel=1e-2)

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(l=st.floats(1e-9, 1e-5), c=st.floats(1e-16, 1e-12))
    def test_linear_in_l_over_c(self, l, c):
        base = matched_load(np.sqrt(l / c), 50.0)
        halved_c = matched_load(np.sqrt(l / (c / 2)), 50.0)
        assert halved_c == pytest.approx(2 * base, rel=1e-9)


class TestElectromechanicalEfficiency:
    def test_conjugate_matched_lossless_reaches_unity(self):
        # L-match solved analytically against R_m at the motional resonance
        b = bvd_67k()
        r_m = bvd_motional_branch(b).r_m
        w = b.omega_m
        z0 = 50.0
        wc_t = np.sqrt(r_m / z0 - 1) / r_m
        c_total = wc_t / w
        l = wc_t * r_m * z0 / w
        m = MatchingParams(l_match=l, c_match=c_total - b.c_res, r_loss=0.0, z_source=z0)
        eta = electromechanical_efficiency(m, b, w)
        assert eta == pytest.approx(1.0, abs=1e-6)
        assert abs(electrical_s11(m, b, w)) < 1e-3

    def test_detached_motional_branch_gives_zero(self):
        m = MatchingParams(l_match=180e-9, c_match=17.16e-15, r_loss=3.0)
        b = BvdParams(c_res=0.17e-15, k_eff_sq=1e-30, omega_m=TWO_PI * 2.799e9,
                      gamma_m=TWO_PI * 67e3)
        assert electromechanical_efficiency(m, b, b.omega_m) < 1e-12

    def test_detuned_matching_penalty(self):
        # matching resonance 50 MHz above the mode vs aligned: the static
        # model gives a gain factor consistent with (and above) the measured
        # temperature-tuning gain of 1.7-2.2
        b = bvd_67k()
        m_det = MatchingParams(l_match=180e-9, c_match=17.16e-15, r_loss=3.0)
        f_match = 1 / (TWO_PI * np.sqrt(m_det.l_match * (m_det.c_match + b.c_res)))
        assert f_match - b.omega_m / TWO_PI == pytest.approx(50e6, abs=5e6)
        c_aligned = 1 / (b.omega_m**2 * m_det.l_match) - b.c_res
        m_al = MatchingParams(l_match=180e-9, c_match=c_aligned, r_loss=3.0)
        eta_det = electromechanical_efficiency(m_det, b, b.omega_m)
        eta_al = electromechanical_efficiency(m_al, b, b.omega_m)
        assert 1.5 < eta_al / eta_det < 8.0

    def test_bounded(self):
        m = MatchingParams(l_match=180e-9, c_match=17.16e-15, r_loss=3.0)
        b = bvd_67k()
        w = TWO_PI * np.linspace(1e9, 5e9, 2001)
        eta = np.asarray(electromechanical_efficiency(m, b, w))
        assert np.all(eta >= 0)
        assert np.all(eta <= 1 + 1e-12)

    @pytest.mark.parametrize("omega", [np.nan, np.inf, [TWO_PI * 2.8e9, np.nan], 0.0])
    def test_non_finite_or_non_positive_frequency_rejected(self, omega):
        m = MatchingParams(l_match=180e-9, c_match=17.16e-15, r_loss=3.0)
        for fn in (input_impedance, electrical_s11, electromechanical_efficiency):
            with pytest.raises(ParameterError, match="omega must be finite and > 0"):
                fn(m, bvd_67k(), omega)


class TestKineticInductance:
    MODEL = KineticInductanceModel(l_geometric=50e-9, l_kinetic_0=130e-9, t_c=8.0)

    def test_zero_temperature_limit(self):
        assert kinetic_inductance_at(self.MODEL, 1e-6) == pytest.approx(180e-9, rel=1e-12)

    def test_monotone_in_temperature(self):
        assert kinetic_inductance_at(self.MODEL, 0.9 * 8.0) > kinetic_inductance_at(
            self.MODEL, 0.5 * 8.0
        )
        # nonincreasing everywhere; strict above ~0.5 K where the gap change
        # is representable in float64 (exponentially flat below)
        t = np.linspace(0.02, 7.9, 200)
        l = np.asarray(kinetic_inductance_at(self.MODEL, t))
        assert np.all(np.diff(l) >= 0)
        t = np.linspace(0.6, 7.9, 200)
        l = np.asarray(kinetic_inductance_at(self.MODEL, t))
        assert np.all(np.diff(l) > 0)

    def test_normal_state_error(self):
        with pytest.raises(ParameterError):
            kinetic_inductance_at(self.MODEL, 8.0)
        with pytest.raises(ParameterError):
            kinetic_inductance_at(self.MODEL, -0.1)

    @pytest.mark.parametrize("t", [np.nan, [0.02, np.nan], np.inf])
    def test_non_finite_temperature_rejected(self, t):
        with pytest.raises(ParameterError, match="temperature must satisfy"):
            kinetic_inductance_at(self.MODEL, t)

    def test_resonance_red_shift_calibration(self):
        # the shipped film model produces a ~60 MHz base-to-4K red shift
        curve = resonance_vs_temperature(self.MODEL, 17.33e-15, [0.02, 4.0])
        shift = curve[0][1] - curve[1][1]
        assert shift == pytest.approx(60e6, abs=4e6)

    def test_resonance_strictly_decreasing(self):
        t = np.linspace(0.6, 7.5, 150)
        f = np.array([row[1] for row in resonance_vs_temperature(self.MODEL, 17.33e-15, t)])
        assert np.all(np.diff(f) < 0)
        # oracle: direct 1/sqrt(LC) on the independently computed inductance
        l = np.asarray(kinetic_inductance_at(self.MODEL, t))
        np.testing.assert_allclose(f, 1 / (TWO_PI * np.sqrt(l * 17.33e-15)), rtol=1e-12)


class TestKeffFromAdmittance:
    def test_degenerate_resonances(self):
        assert keff_from_admittance(2.8e9, 2.8e9) == 0.0

    def test_round_trip_paper_value(self):
        k2 = 1.59e-6
        f_s = 2.8e9
        f_p = f_s / np.sqrt(1 - k2)
        assert keff_from_admittance(f_s, f_p) == pytest.approx(k2, rel=1e-12)

    def test_simple_ratio(self):
        assert keff_from_admittance(3.0, 5.0) == pytest.approx(0.64, rel=1e-12)

    def test_ordering_error(self):
        with pytest.raises(ParameterError):
            keff_from_admittance(5.0, 3.0)


def test_si_constants_equal_scipy_bit_for_bit():
    scipy_constants = pytest.importorskip("scipy.constants")
    assert em_circuit.K_BOLTZMANN == scipy_constants.k
    assert optomech.hbar == scipy_constants.hbar


class TestMatchDesign:
    """The grid evaluation against the validating scalar functions."""

    W = TWO_PI * 2.799e9
    L_GRID = np.linspace(100e-9, 300e-9, 81)
    C_GRID = np.linspace(5e-15, 30e-15, 81)

    @staticmethod
    def scalar_loop(b, omega, l_grid, c_grid, r_loss, z_source):
        """Reference: one MatchingParams and two network evaluations per point."""
        s11 = np.empty((l_grid.size, c_grid.size))
        eta = np.empty_like(s11)
        best = None
        for i, l_h in enumerate(l_grid):
            for j, c_f in enumerate(c_grid):
                m = MatchingParams(l_match=l_h, c_match=c_f, r_loss=r_loss, z_source=z_source)
                s11[i, j] = abs(electrical_s11(m, b, omega))
                eta[i, j] = electromechanical_efficiency(m, b, omega)
                if best is None or s11[i, j] < s11[best]:
                    best = (i, j)
        return s11, eta, best

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        l_lo=st.floats(1e-9, 1e-6), l_ratio=st.floats(1.01, 10.0), n_l=st.integers(1, 6),
        c_lo=st.floats(1e-16, 1e-13), c_ratio=st.floats(1.01, 10.0), n_c=st.integers(1, 6),
        r_loss=st.floats(0.0, 10.0), q=st.floats(1e3, 1e6),
    )
    def test_meshes_match_scalar_functions(self, l_lo, l_ratio, n_l, c_lo, c_ratio, n_c,
                                           r_loss, q):
        b = paper_bvd(omega_m=self.W, q=q)
        l_grid = np.linspace(l_lo, l_lo * l_ratio, n_l)
        c_grid = np.linspace(c_lo, c_lo * c_ratio, n_c)
        d = match_design(b, self.W, l_grid, c_grid, r_loss=r_loss, z_source=50.0)
        s11, eta, _ = self.scalar_loop(b, self.W, l_grid, c_grid, r_loss, 50.0)
        assert d.l_mesh.shape == d.c_mesh.shape == d.s11_abs.shape == (n_l, n_c)
        np.testing.assert_array_equal(d.l_mesh[:, 0], l_grid)
        np.testing.assert_array_equal(d.c_mesh[0], c_grid)
        np.testing.assert_allclose(d.s11_abs, s11, rtol=1e-14, atol=0)
        np.testing.assert_allclose(d.eta_em, eta, rtol=1e-14, atol=0)

    def test_default_grid_best_is_the_scalar_loops_and_on_the_edge(self, device):
        b = device.bvd_for()
        r_loss, z_source = device.matching.r_loss, device.matching.z_source
        d = match_design(b, b.omega_m, self.L_GRID, self.C_GRID, r_loss, z_source)
        _, _, best = self.scalar_loop(b, b.omega_m, self.L_GRID, self.C_GRID, r_loss, z_source)
        assert d.best_index == best
        point = d.best()
        assert point["l_match_h"] == 300e-9  # the upper L bound
        assert point["s11_abs"] == pytest.approx(0.7165, abs=1e-4)
        assert point["on_grid_edge"] is True
        assert point["match_freq_hz"] == pytest.approx(
            1.0 / (TWO_PI * np.sqrt(point["l_match_h"] * (point["c_match_f"] + b.c_res))),
            rel=1e-15,
        )

    def test_interior_best_is_not_on_the_edge(self, device):
        b = device.bvd_for()
        d = match_design(b, b.omega_m, np.linspace(150e-9, 250e-9, 11),
                         np.linspace(10e-15, 25e-15, 11),
                         device.matching.r_loss, device.matching.z_source)
        i, j = d.best_index
        assert 0 < i < 10 and 0 < j < 10
        assert d.on_grid_edge is False

    @pytest.mark.parametrize("index, edge", [
        ((0, 2), True), ((4, 2), True), ((2, 0), True), ((2, 5), True),
        ((0, 0), True), ((2, 3), False), ((1, 1), False), ((3, 4), False),
    ])
    def test_on_grid_edge_is_any_first_or_last_row_or_column(self, index, edge):
        s11 = np.ones((5, 6))
        s11[index] = 0.5
        l_mesh, c_mesh = np.meshgrid(np.arange(1.0, 6.0), np.arange(1.0, 7.0), indexing="ij")
        d = MatchDesign(l_mesh, c_mesh, s11, s11, index, 1.0)
        assert d.on_grid_edge is edge

    @pytest.mark.parametrize("l_grid, c_grid, message", [
        ([0.0, 1e-7], [1e-14], "l_match must be finite and > 0, got 0.0"),
        ([1e-7, np.nan], [1e-14], "l_match must be finite and > 0, got nan"),
        ([1e-7], [-1e-15, 3e-14], "c_match must be finite and > 0, got -1e-15"),
        ([1e-7], [1e-14, np.inf], "c_match must be finite and > 0, got inf"),
        ([], [1e-14], "l_match grid must be a non-empty 1-D array"),
    ])
    def test_invalid_grids_rejected(self, l_grid, c_grid, message):
        with pytest.raises(ParameterError, match=message):
            match_design(bvd_67k(), self.W, l_grid, c_grid)

    def test_invalid_network_parameters_rejected(self):
        with pytest.raises(ParameterError, match="r_loss"):
            match_design(bvd_67k(), self.W, [1e-7], [1e-14], r_loss=-1.0)
        with pytest.raises(ParameterError, match="z_source"):
            match_design(bvd_67k(), self.W, [1e-7], [1e-14], z_source=0.0)
        with pytest.raises(ParameterError, match="omega"):
            match_design(bvd_67k(), np.nan, [1e-7], [1e-14])
