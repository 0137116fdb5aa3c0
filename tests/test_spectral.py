import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandlab import (FlowParams, ell_of_eta, ell_t, eta_star,
                     flow_point, select_parameters, stieltjes_m)


class TestStieltjes:
    def test_boundary_at_zero(self):
        assert stieltjes_m(0.0) == pytest.approx(1j)

    def test_z_eq_i_against_independent_roots(self):
        # solve 1 + z m + m^2 = 0 with numpy's polynomial root finder
        m = stieltjes_m(1j)
        roots = np.roots([1.0, 1j, 1.0])
        ref = next(r for r in roots if r.imag > 0)
        assert abs(m - ref) < 1e-14
        assert m == pytest.approx(1j * (np.sqrt(5) - 1) / 2)

    def test_self_consistency_on_grid(self):
        for E in np.linspace(-1.9, 1.9, 21):
            for eta in np.geomspace(1e-3, 3.0, 21):
                z = complex(E, eta)
                m = stieltjes_m(z)
                assert abs(1 + z * m + m * m) < 1e-13
                assert m.imag > 0
                assert abs(m) < 1

    def test_boundary_modulus_one(self):
        for E in np.linspace(-1.9, 1.9, 11):
            assert abs(abs(stieltjes_m(E)) - 1) < 1e-14

    def test_edge_rejected(self):
        with pytest.raises(ValueError):
            stieltjes_m(2.0)
        with pytest.raises(ValueError):
            stieltjes_m(-2.5)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(-2.5, 2.5), st.floats(1e-4, 5.0))
    def test_branch_consistency(self, E, eta):
        m = stieltjes_m(complex(E, eta))
        assert m.imag > 0


class TestSelectParameters:
    def test_z_eq_i_derived_values(self):
        p = select_parameters(1j, 0.5)
        assert p.t_f == pytest.approx((3 - np.sqrt(5)) / 2, abs=1e-12)
        assert p.t_i == pytest.approx((3 - np.sqrt(5)) / 4, abs=1e-12)
        assert p.E_target == pytest.approx(0.0, abs=1e-12)

    def test_defining_identities_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            z = complex(rng.uniform(-1.9, 1.9), rng.uniform(0.01, 2.0))
            p = select_parameters(z, 0.3)
            r1, r2 = p.identity_residuals()
            assert r1 < 1e-12 and r2 < 1e-12

    def test_eta_to_zero_tf_to_one(self):
        t_prev = 0.0
        for eta in (0.1, 0.01, 1e-4):
            p = select_parameters(complex(0.5, eta), 0.2)
            assert p.t_f > t_prev
            t_prev = p.t_f
        assert p.t_f > 0.999

    def test_bulk_guard(self):
        with pytest.raises(ValueError):
            select_parameters(complex(1.99, 0.1), 0.2)

    def test_flow_params_invariants(self):
        with pytest.raises(ValueError):
            FlowParams(t_i=0.5, t_f=0.4, E_target=0.0, epsilon0=0.2, z=1j)


class TestFlowPoint:
    def test_endpoint(self):
        p = select_parameters(1j, 0.5)
        assert flow_point(p, 1.0) == pytest.approx(p.E_target)

    def test_t_f_is_sqrt_tf_z(self):
        p = select_parameters(0.4 + 0.7j, 0.3)
        assert abs(flow_point(p, p.t_f) - np.sqrt(p.t_f) * p.z) < 1e-12

    def test_Et_closed_form(self):
        # E_t = (1+t) sqrt(t_f) E / (1+t_f)
        z = 0.9 + 0.25j
        p = select_parameters(z, 0.4)
        for t in np.linspace(p.t_i, 0.999, 17):
            zt = flow_point(p, t)
            expected = (1 + t) * np.sqrt(p.t_f) * z.real / (1 + p.t_f)
            assert zt.real == pytest.approx(expected, abs=1e-12)

    def test_invariance_along_flow(self):
        p = select_parameters(0.3 + 0.4j, 0.25)
        mE = p.m_target
        for t in np.linspace(p.t_i, 0.999, 100):
            zt = flow_point(p, t)
            assert abs(1 + zt * mE + t * mE * mE) < 1e-12

    def test_eta_ratio_constant(self):
        p = select_parameters(-0.7 + 0.6j, 0.35)
        ratios = [flow_point(p, t).imag / (1 - t)
                  for t in np.linspace(p.t_i, 0.999, 40)]
        assert np.ptp(ratios) < 1e-12
        # the constant is Im m(E_target) = Im m(z) / sqrt(t_f)
        assert ratios[0] == pytest.approx(p.m_target.imag, abs=1e-12)
        assert ratios[0] == pytest.approx(p.m_source.imag / np.sqrt(p.t_f),
                                          abs=1e-12)

    def test_out_of_range(self):
        p = select_parameters(1j, 0.5)
        with pytest.raises(ValueError):
            flow_point(p, p.t_i - 0.01)


class TestScales:
    def test_ell_zero_lambda(self):
        assert ell_of_eta(0.0, 0.5, 10) == 1.0

    def test_ell_cap(self):
        assert ell_of_eta(1.0, 1e-8, 100) == 100.0

    def test_ell_arithmetic(self):
        assert ell_of_eta(0.5, 0.04, 100) == pytest.approx(3.5)

    def test_ell_t_mirrors(self):
        assert ell_t(0.5, 0.96, 100) == pytest.approx(ell_of_eta(0.5, 0.04, 100))
        assert ell_t(0.0, 0.5, 7) == 1.0
        assert ell_t(1.0, 1 - 1e-8, 9) == 9.0

    def test_eta_star_d2(self):
        assert eta_star(8, 0.5, 4096, 2) == pytest.approx(1 / 4096)

    def test_eta_star_d1_arithmetic(self):
        val = eta_star(33, 1.0, 495, 1)
        assert val == pytest.approx(1 / 1089 + 1 / 495, rel=1e-12)
        assert val == pytest.approx(0.002938, abs=1e-6)

    def test_eta_star_large_lambda(self):
        assert eta_star(10, 1e9, 1000, 1) == pytest.approx(1e-3)

    def test_eta_star_degenerate(self):
        assert eta_star(1, 0.0, 100, 1) == np.inf
