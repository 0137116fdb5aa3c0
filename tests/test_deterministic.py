import numpy as np
import pytest

from bandlab import (BlockLattice, KLoopCalculator, LoopSignature,
                     build_translation_invariant, cut_signature,
                     evolution_kernel_apply, interaction_strength, k_loop,
                     khat_loop, kloop_flow_derivative_residual,
                     mean_field_matrix,
                     random_walk_representation, stieltjes_m, theta,
                     theta_decay_report, theta_entrywise, ward_residual,
                     finite_difference_report)
from bandlab.deterministic import (PropagatorError, loop_size_guard,
                                   parse_charges, propagator_invariants)
from bandlab.profiles import KERNELS
from bandlab.spectral import ell_t


@pytest.fixture(scope="module")
def band55():
    lat = BlockLattice(d=1, W=5, n=5)
    return lat, build_translation_invariant(lat, KERNELS["uniform"], 1)


# boundary value at a bulk energy: |m| = 1 (flow convention)
M_FLOW = stieltjes_m(0.3)


def naive_khat(charges, S, m):
    """Oracle: the recursion written as plain nested loops (small N only)."""
    N = S.shape[0]

    def mval(s):
        return m if s > 0 else np.conj(m)

    if len(charges) == 1:
        return np.full(N, mval(charges[0]), dtype=complex)
    n1 = len(charges)
    R = np.linalg.inv(np.eye(N) - mval(charges[0]) * mval(charges[-1]) * S)
    lower = naive_khat(charges[1:], S, m)
    out = np.zeros((N,) * n1, dtype=complex)
    for idx in np.ndindex(*out.shape):
        rotated = idx[1:-1] + (idx[0],)
        val = mval(charges[0]) * lower[rotated] * R[idx[0], idx[-1]]
        for k in range(2, n1):
            left = naive_khat(charges[:k], S, m)
            right = naive_khat(charges[k - 1:], S, m)
            for x in range(N):
                for y in range(N):
                    val += (mval(charges[0])
                            * left[idx[:k - 1] + (y,)] * S[x, y]
                            * right[idx[k - 1:-1] + (x,)] * R[x, idx[-1]])
        out[idx] = val
    return out


class TestThetaEntrywise:
    def test_zero_weight_identity(self, band55):
        lat, prof = band55
        th = theta_entrywise(prof.assemble(), 0.0, 0.5)
        assert np.abs(th - np.eye(lat.N)).max() == 0

    def test_mean_field_rank_one_inverse(self):
        # each diagonal block of (1 - c S_E)^{-1} is I + (c/W^d) J / (1 - c)
        lat = BlockLattice(d=1, W=4, n=3)
        m = stieltjes_m(0.5 + 0.4j)
        c = abs(m) ** 2
        th = theta_entrywise(mean_field_matrix(lat), m, np.conj(m))
        block = np.eye(4) + (c / 4) * np.ones((4, 4)) / (1 - c)
        for a in range(3):
            sl = slice(4 * a, 4 * a + 4)
            assert np.abs(th[sl, sl] - block).max() < 1e-12
        off = th[0:4, 4:8]
        assert np.abs(off).max() < 1e-14

    def test_row_sums_doubly_stochastic(self, band55):
        # rows of (1 - |m|^2 S)^{-1} solve against the all-ones vector
        lat, prof = band55
        S = prof.assemble()
        m = stieltjes_m(0.2 + 0.3j)
        c = abs(m) ** 2
        th = theta_entrywise(S, m, np.conj(m))
        ones = np.ones(lat.N)
        independent = np.linalg.solve(np.eye(lat.N) - c * S, ones)
        assert np.abs(th.sum(axis=1) - independent).max() < 1e-10
        assert np.abs(th.sum(axis=1) - 1 / (1 - c)).max() < 1e-10

    def test_singular_raises(self, band55):
        lat, prof = band55
        # m(s)m(s') = 1 with row sums 1 makes 1 - S exactly singular
        with pytest.raises(PropagatorError):
            theta_entrywise(prof.assemble(), 1.0, 1.0)


class TestTheta:
    def test_mean_field_block_diagonal(self):
        lat = BlockLattice(d=1, W=4, n=3)
        m = stieltjes_m(0.1 + 0.7j)
        th = theta(lat, mean_field_matrix(lat), (1, -1), m)
        expected = np.eye(3) / (1 - abs(m) ** 2)
        assert np.abs(th - expected).max() < 1e-12

    def test_transposition_swap(self, band55):
        lat, prof = band55
        St = 0.7 * prof.assemble()
        a = theta(lat, St, (1, 1), M_FLOW)
        b = theta(lat, St, (1, 1), M_FLOW)
        assert np.array_equal(a, b)
        pm = theta(lat, St, (1, -1), M_FLOW)
        assert np.array_equal(pm, theta(lat, St, (-1, 1), M_FLOW))
        inv = propagator_invariants(lat, pm)
        assert inv["transposition"] < 1e-12
        assert inv["translation"] < 1e-12
        assert inv["parity"] < 1e-12

    def test_same_charge_fast_decay(self, band55):
        lat, prof = band55
        St = 0.9 * prof.assemble()
        row = np.abs(theta(lat, St, (1, 1), M_FLOW)[0])
        assert row[2] < row[1] < row[0]
        assert row[2] < 5e-2 * row[0]


class TestKhatLoop:
    def test_order_one(self, band55):
        lat, prof = band55
        sig = LoopSignature(charges=(1,), indices=(7,))
        assert khat_loop(lat, prof.assemble(), M_FLOW, sig) == \
            pytest.approx(M_FLOW)
        sig = LoopSignature(charges=(-1,), indices=(3,))
        assert khat_loop(lat, prof.assemble(), M_FLOW, sig) == \
            pytest.approx(np.conj(M_FLOW))

    def test_order_two_closed_form(self, band55):
        lat, prof = band55
        St = 0.7 * prof.assemble()
        calc = KLoopCalculator(lat, St, M_FLOW)
        got = calc.khat_tensor((1, -1))
        closed = theta_entrywise(St, M_FLOW, np.conj(M_FLOW))
        assert np.abs(got - abs(M_FLOW) ** 2 * closed).max() < 1e-12

    def test_zero_profile_delta_chain(self):
        lat = BlockLattice(d=1, W=2, n=3)
        S0 = np.zeros((6, 6))
        calc = KLoopCalculator(lat, S0, M_FLOW)
        got = calc.khat_tensor((1, -1, 1))
        expected = np.zeros((6, 6, 6), dtype=complex)
        prod = M_FLOW * np.conj(M_FLOW) * M_FLOW
        for x in range(6):
            expected[x, x, x] = prod
        assert np.abs(got - expected).max() < 1e-14

    def test_recursion_against_naive_loops(self):
        # independent oracle: same recursion, nested python loops
        lat = BlockLattice(d=1, W=2, n=2)
        rng = np.random.default_rng(9)
        raw = rng.random((4, 4))
        S = 0.6 * (raw + raw.T) / (raw + raw.T).sum(axis=1).max()
        m = stieltjes_m(-0.4)
        calc = KLoopCalculator(lat, S, m)
        for charges in [(1, -1), (1, 1, -1), (1, -1, 1, -1)]:
            got = calc.khat_tensor(charges)
            assert np.abs(got - naive_khat(charges, S, m)).max() < 1e-12

    def test_shift_invariance(self, band55):
        lat, prof = band55
        St = 0.7 * prof.assemble()
        calc = KLoopCalculator(lat, St, M_FLOW)
        t1 = calc.khat_tensor((1, 1, -1))
        t2 = calc.khat_tensor((1, -1, 1))
        # K(s, x) = K(tau s, tau x): t1[x1,x2,x3] = t2[x2,x3,x1]
        assert np.abs(t1 - t2.transpose(2, 0, 1)).max() < 1e-12

    def test_memoization(self, band55):
        lat, prof = band55
        calc = KLoopCalculator(lat, 0.5 * prof.assemble(), M_FLOW)
        first = calc.khat_tensor((1, -1))
        assert calc.khat_tensor((1, -1)) is first

    def test_size_guard(self):
        lat = BlockLattice(d=1, W=10, n=100)
        with pytest.raises(MemoryError):
            loop_size_guard(lat, 3)
        small = BlockLattice(d=1, W=5, n=5)
        loop_size_guard(small, 3)

    def test_charge_parsing(self):
        assert parse_charges("+-") == (1, -1)
        assert parse_charges([1, -1, 1]) == (1, -1, 1)
        with pytest.raises(ValueError):
            parse_charges("+x")


class TestKLoop:
    def test_fast_path_matches_recursion(self, band55):
        lat, prof = band55
        St = 0.7 * prof.assemble()
        calc = KLoopCalculator(lat, St, M_FLOW)
        for pair in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            a = calc.k_tensor(pair, via="theta")
            b = calc.k_tensor(pair, via="recursion")
            assert np.abs(a - b).max() < 1e-12

    def test_order_one_constant(self, band55):
        lat, prof = band55
        sig = LoopSignature(charges=(1,), indices=(2,))
        assert k_loop(lat, prof.assemble(), M_FLOW, sig) == \
            pytest.approx(M_FLOW)

    def test_translation_invariance(self, band55):
        lat, prof = band55
        St = 0.7 * prof.assemble()
        calc = KLoopCalculator(lat, St, M_FLOW)
        T = calc.k_tensor((1, 1, -1), via="recursion")
        for shift in (1, 3):
            for a in range(lat.n):
                for b in range(lat.n):
                    for c in range(lat.n):
                        assert abs(T[(a + shift) % lat.n,
                                     (b + shift) % lat.n,
                                     (c + shift) % lat.n]
                                   - T[a, b, c]) < 1e-12

    def test_parity_symmetry(self, band55):
        lat, prof = band55
        St = 0.7 * prof.assemble()
        T = KLoopCalculator(lat, St, M_FLOW).k_tensor((1, -1, -1),
                                                      via="recursion")
        n = lat.n
        for a in range(n):
            for b2 in range(n):
                for b3 in range(n):
                    plus = T[a, (a + b2) % n, (a + b3) % n]
                    minus = T[a, (a - b2) % n, (a - b3) % n]
                    assert abs(plus - minus) < 1e-12


class TestWard:
    def test_order_two_closed_form(self, band55):
        # row-sum identity: sum_b K2 = W^-d / (1 - t) entrywise at |m| = 1
        lat, prof = band55
        t = 0.7
        St = t * prof.assemble()
        eta_t = (1 - t) * M_FLOW.imag
        calc = KLoopCalculator(lat, St, M_FLOW)
        lhs = calc.k_tensor((1, -1)).sum(axis=-1)
        scalar = M_FLOW.imag / (lat.W * eta_t)
        assert np.abs(lhs - scalar).max() < 1e-12
        assert scalar == pytest.approx(1 / (lat.W * (1 - t)))
        assert ward_residual(lat, St, M_FLOW, eta_t, (1, -1)) < 1e-10

    def test_order_three(self, band55):
        lat, prof = band55
        t = 0.7
        St = t * prof.assemble()
        eta_t = (1 - t) * M_FLOW.imag
        calc = KLoopCalculator(lat, St, M_FLOW)
        for charges in [(1, 1, -1), (1, -1, -1), (-1, -1, 1), (-1, 1, 1)]:
            assert ward_residual(lat, St, M_FLOW, eta_t, charges,
                                 calc=calc) < 1e-9

    def test_eta_linearity(self, band55):
        # doubling eta halves the right-hand side, breaking the identity
        lat, prof = band55
        t = 0.5
        St = t * prof.assemble()
        eta_t = (1 - t) * M_FLOW.imag
        assert ward_residual(lat, St, M_FLOW, eta_t, (1, -1)) < 1e-10
        off = ward_residual(lat, St, M_FLOW, 2 * eta_t, (1, -1))
        assert off == pytest.approx(0.5, rel=1e-6)

    def test_charge_precondition(self, band55):
        lat, prof = band55
        with pytest.raises(ValueError):
            ward_residual(lat, prof.assemble(), M_FLOW, 0.1, (1, 1))

    def test_single_cell(self, band55):
        lat, prof = band55
        t = 0.7
        St = t * prof.assemble()
        eta_t = (1 - t) * M_FLOW.imag
        r = ward_residual(lat, St, M_FLOW, eta_t, (1, 1, -1),
                          indices=(0, 2))
        assert r < 1e-9


class TestCutSignature:
    def test_cut_r_order_two(self):
        sig = LoopSignature(charges=(1, -1), indices=("a1", "a2"))
        out = cut_signature("R", sig, 1, 2, "new")
        assert out.charges == (1, -1)
        assert out.indices == ("a1", "new")

    def test_cut_l_lengths(self):
        sig = LoopSignature(charges=(1, 1, -1, -1),
                            indices=tuple("wxyz"))
        out = cut_signature("L", sig, 2, 3, "b")
        assert out.order == 4
        assert out.indices == ("w", "b", "y", "z")
        assert out.charges == (1, 1, -1, -1)

    def test_length_composition(self):
        # len(L-cut) + len(R-cut) = n + 2
        for order in (2, 3, 4):
            sig = LoopSignature(charges=(1,) * order,
                                indices=tuple(range(order)))
            for k in range(1, order):
                for l in range(k + 1, order + 1):
                    lo = cut_signature("L", sig, k, l, "b")
                    ro = cut_signature("R", sig, k, l, "b")
                    assert lo.order + ro.order == order + 2
                    assert lo.order == order + k - l + 1
                    assert ro.order == l - k + 1

    def test_bad_order(self):
        sig = LoopSignature(charges=(1, -1), indices=(0, 1))
        with pytest.raises(ValueError):
            cut_signature("L", sig, 2, 2, "b")
        with pytest.raises(ValueError):
            cut_signature("Q", sig, 1, 2, "b")


@pytest.fixture(scope="module")
def setup33():
    lat = BlockLattice(d=1, W=3, n=3)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    t_f, t = 0.8, 0.6
    St = t_f * prof.assemble() + (t - t_f) * mean_field_matrix(lat)
    assert St.min() >= 0
    return lat, St


class TestFlowDerivative:

    def test_order_two_residual(self, setup33):
        lat, St = setup33
        r = kloop_flow_derivative_residual(lat, St, M_FLOW, (1, -1), 1e-3)
        assert r < 1e-4

    def test_second_order_in_dt(self, setup33):
        lat, St = setup33
        r1 = kloop_flow_derivative_residual(lat, St, M_FLOW, (1, -1), 1e-3)
        r2 = kloop_flow_derivative_residual(lat, St, M_FLOW, (1, -1), 5e-4)
        assert r2 < r1 / 3

    def test_order_three(self, setup33):
        lat, St = setup33
        r = kloop_flow_derivative_residual(lat, St, M_FLOW, (1, 1, -1), 1e-3)
        assert r < 1e-4

    def test_order_one_vanishes(self, setup33):
        lat, St = setup33
        r = kloop_flow_derivative_residual(lat, St, M_FLOW, (1,), 1e-3)
        assert r == 0.0


@pytest.fixture(scope="module")
def kernel_setup():
    lat = BlockLattice(d=1, W=5, n=5)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    t = 0.8
    St = t * prof.assemble()
    thetas = {}
    for pair in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        thetas[pair] = theta(lat, St, pair, M_FLOW)
    return lat, thetas, t


class TestEvolutionKernel:

    def test_identity_at_s_eq_t(self, kernel_setup):
        lat, thetas, t = kernel_setup
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 5))
        out = evolution_kernel_apply(lat, t, t, (1, -1), M_FLOW, thetas, A)
        assert np.abs(out - A).max() < 1e-14

    def test_outer_product_oracle(self, kernel_setup):
        # U applied to e_a (x) e_b is the outer product of kernel columns
        lat, thetas, t = kernel_setup
        s = 0.7
        A = np.zeros((5, 5))
        A[1, 3] = 1.0
        out = evolution_kernel_apply(lat, s, t, (1, -1), M_FLOW, thetas, A)
        m1 = np.eye(5) + (t - s) * M_FLOW * np.conj(M_FLOW) \
            * thetas[(1, -1)]
        m2 = np.eye(5) + (t - s) * np.conj(M_FLOW) * M_FLOW \
            * thetas[(-1, 1)]
        oracle = np.outer(m1[:, 1], m2[:, 3])
        assert np.abs(out - oracle).max() < 1e-12

    def test_three_tensor_matches_matrix_oracle(self, kernel_setup):
        lat, thetas, t = kernel_setup
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 5, 5))
        out = evolution_kernel_apply(lat, 0.75, t, (1, -1, 1), M_FLOW,
                                     thetas, A)

        def axis_mat(pair):
            mm = (M_FLOW if pair[0] > 0 else np.conj(M_FLOW)) \
                * (M_FLOW if pair[1] > 0 else np.conj(M_FLOW))
            return np.eye(5) + (t - 0.75) * mm * thetas[pair]

        ref = np.einsum("ai,bj,ck,ijk->abc", axis_mat((1, -1)),
                        axis_mat((-1, 1)), axis_mat((1, 1)), A)
        assert np.abs(out - ref).max() < 1e-12

    def test_contraction_bound(self, kernel_setup):
        # sup-norm contraction at rate (eta_s/eta_t)^2 = ((1-s)/(1-t))^2
        lat, thetas, t = kernel_setup
        s = 0.6
        rng = np.random.default_rng(2)
        bound = ((1 - s) / (1 - t)) ** 2
        for _ in range(25):
            A = rng.standard_normal((5, 5))
            out = evolution_kernel_apply(lat, s, t, (1, -1), M_FLOW,
                                         thetas, A)
            assert np.abs(out).max() <= 10 * bound * np.abs(A).max()

    def test_arity_cap(self, kernel_setup):
        lat, thetas, t = kernel_setup
        with pytest.raises(ValueError):
            evolution_kernel_apply(lat, 0.7, t, (1, -1, 1, -1), M_FLOW,
                                   thetas, np.zeros((5,) * 4))


class TestRandomWalkRep:
    def test_mean_field_closed_form(self):
        # S_t = t S_E with c_ker = t: S_ker = 0, K = identity on blocks
        lat = BlockLattice(d=1, W=4, n=3)
        t = 0.6
        St = t * mean_field_matrix(lat)
        rep = random_walk_representation(lat, St, t)
        assert np.abs(rep.K - np.eye(3)).max() < 1e-12
        assert rep.t_hat == pytest.approx(t)
        assert rep.residual < 1e-8
        assert np.abs(rep.theta - np.eye(3) / (1 - t)).max() < 1e-10

    @pytest.mark.parametrize("t", [0.5, 0.9])
    def test_banded_identity(self, band55, t):
        lat, prof = band55
        St = t * prof.assemble()
        c_ker = 0.5 * lat.W * St[:lat.W, :lat.W].min()
        rep = random_walk_representation(lat, St, c_ker)
        assert rep.residual < 1e-8
        assert np.abs(rep.K.sum(axis=1) - 1).max() < 1e-10
        assert rep.K.min() >= 0
        assert rep.row_deficit == pytest.approx(1 - t + c_ker)

    def test_cker_too_large(self, band55):
        lat, prof = band55
        St = 0.5 * prof.assemble()
        with pytest.raises(ValueError) as err:
            random_walk_representation(lat, St, 0.49)
        assert "admissible" in str(err.value)


class TestDecayReport:
    def test_mean_field_no_tail(self):
        lat = BlockLattice(d=1, W=3, n=7)
        m = stieltjes_m(0.4 + 0.5j)
        p = theta(lat, mean_field_matrix(lat), (1, -1), m)
        rep = theta_decay_report(lat, p, ell=1.0)
        assert rep.decay_length == 0.0

    @pytest.mark.parametrize("t", [0.5, 0.9])
    def test_band_decay_scale(self, t):
        lat = BlockLattice(d=1, W=5, n=25)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        lam = np.sqrt(interaction_strength(prof))
        St = t * prof.assemble()
        ell = ell_t(lam, t, lat.n)
        p = theta(lat, St, (1, -1), M_FLOW)
        rep = theta_decay_report(lat, p, ell)
        assert rep.monotone_ok
        assert 0 < rep.decay_length <= 3 * ell

    def test_same_charge_order_one(self):
        lat = BlockLattice(d=1, W=5, n=25)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        St = 0.9 * prof.assemble()
        p = theta(lat, St, (1, 1), M_FLOW)
        rep = theta_decay_report(lat, p, ell=1.0)
        assert rep.decay_length <= 3.0

    def test_csv_rows_shape(self, band55):
        lat, prof = band55
        p = theta(lat, 0.5 * prof.assemble(), (1, -1), M_FLOW)
        rows = list(theta_decay_report(lat, p, 1.0).to_csv_rows())
        assert len(rows) == len(np.unique(lat.block_distance_matrix[0]))
        assert all(len(r) == 5 for r in rows)


class TestFiniteDifference:
    def test_parity_pairs_vanish(self):
        lat = BlockLattice(d=1, W=5, n=15)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        t = 0.5
        St = t * prof.assemble()
        th = theta(lat, St, (1, -1), M_FLOW)[0]
        # [y] = -[x]: first difference is zero by parity
        for x in range(1, lat.n // 2):
            assert abs(th[x] - th[(-x) % lat.n]) < 1e-13

    def test_max_ratios_finite(self):
        lat = BlockLattice(d=1, W=5, n=15)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        t = 0.5
        lam = np.sqrt(interaction_strength(prof))
        p = theta(lat, t * prof.assemble(), (1, -1), M_FLOW)
        rep = finite_difference_report(lat, p, lam, t)
        assert np.isfinite(rep.max_first_ratio)
        assert np.isfinite(rep.max_second_ratio)
        assert rep.first_samples > 0 and rep.second_samples > 0
        assert rep.max_first_ratio < 50
        assert rep.max_second_ratio < 50


@pytest.fixture(scope="module")
def k3_setup():
    lat = BlockLattice(d=1, W=5, n=25)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    t = 0.5
    St = t * prof.assemble()
    lam = np.sqrt(interaction_strength(prof))
    calc = KLoopCalculator(lat, St, M_FLOW, max_bytes=1 << 31,
                           site_cap=1e10)
    return lat, calc, t, lam


class TestKLoopBoundDiagnostics:
    def test_fast_decay(self, k3_setup):
        # loops separated far beyond ell_t (safety factor 5) drop below
        # 1e-8 of the central value
        lat, calc, t, lam = k3_setup
        T = calc.k_tensor((1, 1, -1), via="recursion")
        center = abs(T[0, 0, 0])
        ell = ell_t(lam, t, lat.n)
        far = int(np.ceil(5 * ell))
        worst = 0.0
        for a in range(lat.n):
            for b in range(lat.n):
                sep = max(lat.block_distance(0, a), lat.block_distance(0, b),
                          lat.block_distance(a, b))
                if sep >= far:
                    worst = max(worst, abs(T[0, a, b]))
        assert worst < 1e-8 * center

    def test_upper_bound_scales(self, k3_setup):
        # max |K^(n)| <= C (W ell_t (1-t))^{-n+1} with a moderate constant
        lat, calc, t, lam = k3_setup
        ell = ell_t(lam, t, lat.n)
        unit = lat.W * ell**lat.d * (1 - t)
        k2 = np.abs(calc.k_tensor((1, -1), via="theta")).max()
        assert k2 * unit < 10
        k3 = np.abs(calc.k_tensor((1, 1, -1), via="recursion")).max()
        assert k3 * unit**2 < 10

    def test_improved_bound_off_diagonal(self, k3_setup):
        # cells with distinct blocks gain the lambda^2/(lambda^2 + eta) factor
        lat, calc, t, lam = k3_setup
        ell = ell_t(lam, t, lat.n)
        unit = lat.W * ell**lat.d * (1 - t)
        eta_t = (1 - t) * M_FLOW.imag
        gain = lam**2 / (lam**2 + eta_t)
        T = calc.k_tensor((1, -1), via="theta")
        off = np.abs(T - np.diag(np.diagonal(T))).max()
        assert off * unit < 10 * gain
