import itertools
import warnings

import numpy as np
import pytest

from bandlab import (BlockLattice, KLoopCalculator,
                     build_translation_invariant, diffusion_predictions,
                     project_matrix, interaction_strength,
                     kloop_flow_derivative_residual, mean_field_profile,
                     stieltjes_m, theta, theta_decay_report,
                     theta_entrywise, ward_residual,
                     finite_difference_report, wegner_orbital_profile)
from bandlab.cli import build_profile
from bandlab.deterministic import (PropagatorError, charge_m,
                                   loop_size_guard, parse_charges)
from bandlab.profiles import KERNELS, _affine_blocks
from bandlab.spectral import ell_t
from oracles import (core_split, project_tensor, random_walk_kernel,
                     random_walk_theta)


@pytest.fixture(scope="module")
def band55():
    lat = BlockLattice(d=1, W=5, n=5)
    return lat, build_translation_invariant(lat, KERNELS["uniform"], 1)


# boundary value at a bulk energy: |m| = 1 (flow convention)
M_FLOW = stieltjes_m(0.3)


def _blocks_of(prof, t):
    """The blocks of t S."""
    return _affine_blocks(prof.lattice, prof.blocks, t, 0.0)


class DenseLoops:
    """Oracle: the loop recursion on an assembled N x N S, with dense LU
    resolvents and full N^k tensors (small N only)."""

    def __init__(self, S, m):
        self.S, self.m = S, m
        self._khat = {}

    def khat_tensor(self, charges):
        charges = parse_charges(charges)
        if charges not in self._khat:
            self._khat[charges] = self._recurse(charges)
        return self._khat[charges]

    def _recurse(self, charges):
        order = len(charges)
        N = self.S.shape[0]
        m1 = charge_m(self.m, charges[0])
        if order == 1:
            return np.full(N, m1, dtype=complex)
        R = theta_entrywise(self.S, m1 * charge_m(self.m, charges[-1]), 1.0)
        # rotated lower tensor evaluated at (x2, ..., x_{order-1}, x1)
        T = np.moveaxis(self.khat_tensor(charges[1:]), -1, 0)
        rshape = (N,) + (1,) * (order - 2) + (N,)
        out = m1 * T[..., None] * R.reshape(rshape)
        for k in range(2, order):
            B = self.khat_tensor(charges[:k])          # (x1..x_{k-1}, y)
            C = np.tensordot(B, self.S, axes=([-1], [1]))  # (x1..x_{k-1}, x)
            D = self.khat_tensor(charges[k - 1:])      # (x_k.., x)
            E = np.einsum("px,qx,xj->pqj", C.reshape(-1, N), D.reshape(-1, N),
                          R, optimize=True)
            out += m1 * E.reshape(out.shape)
        return out


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
        th = theta_entrywise(mean_field_profile(lat).assemble(), m, np.conj(m))
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

    def test_stack_checks_each_matrix_and_names_the_first_failure(self,
                                                                  band55):
        # stacks longer than the solver's chunk of matrices
        lat, prof = band55
        S = prof.assemble()
        stack = np.stack([c * S for c in np.linspace(0.1, 0.6, 20)])
        X = theta_entrywise(stack, 1.0, 1.0)
        for s, x in zip(stack, X):
            assert x.tobytes() == theta_entrywise(s, 1.0, 1.0).tobytes()
        # 1 - S is singular; only the first failing matrix is named
        for first in (1, 17):
            bad = np.stack([0.5 * S] * first + [S, S])
            with pytest.raises(PropagatorError,
                               match=f"at momentum {first}:"):
                theta_entrywise(bad, 1.0, 1.0)

    def test_exactly_singular_raises_without_warning(self):
        # 1 - S with S = I is the zero matrix: the solve itself fails, and
        # the failure is a PropagatorError, not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagatorError, match="singular"):
                theta_entrywise(np.eye(4), 1.0, 1.0)


class TestTheta:
    def test_mean_field_block_diagonal(self):
        lat = BlockLattice(d=1, W=4, n=3)
        m = stieltjes_m(0.1 + 0.7j)
        th = theta(mean_field_profile(lat), 1.0, (1, -1), m)
        expected = np.eye(3) / (1 - abs(m) ** 2)
        assert np.abs(th - expected).max() < 1e-12

    def test_transposition_swap(self, band55):
        lat, prof = band55
        a = theta(prof, 0.7, (1, 1), M_FLOW)
        b = theta(prof, 0.7, (1, 1), M_FLOW)
        assert np.array_equal(a, b)
        pm = theta(prof, 0.7, (1, -1), M_FLOW)
        assert np.array_equal(pm, theta(prof, 0.7, (-1, 1), M_FLOW))
        # (1 - c S)^-1 is symmetric because every profile is
        assert np.abs(pm - pm.T).max() < 1e-12

    def test_same_charge_fast_decay(self, band55):
        lat, prof = band55
        row = np.abs(theta(prof, 0.9, (1, 1), M_FLOW)[0])
        assert row[2] < row[1] < row[0]
        assert row[2] < 5e-2 * row[0]


def dense_theta(profile, t, pair, m):
    """Oracle: block projection of the dense N x N residual-checked solve."""
    return project_matrix(profile.lattice, theta_entrywise(
        t * profile.assemble(), charge_m(m, pair[0]), charge_m(m, pair[1])))


@pytest.fixture(scope="module", params=[
    (kind, d) for kind in ("translation_invariant", "wegner_orbital",
                           "block_flat", "mean_field") for d in (1, 2)],
    ids=lambda p: f"{p[0]}-d{p[1]}")
def model_profile(request):
    """A small profile of every [model] type, built as the CLI builds it."""
    kind, d = request.param
    W, n, cutoff = (5, 7, 1) if d == 1 else (3, 5, 2)
    return build_profile({"model": {
        "type": kind, "d": d, "W": W, "n": n, "kernel": "uniform",
        "cutoff": cutoff, "neighbor_weight": 0.1, "wegner_alpha": 0.05,
        "wegner_gamma": 0.5}})


def assert_entrywise_close(fast, dense):
    """Every entry within 1e-12 of itself; exact zeros of the dense
    solve (mean-field off-diagonal blocks) within 1e-28 of the largest."""
    scale = np.abs(dense).max()
    assert (np.abs(fast - dense)
            <= 1e-12 * np.abs(dense) + 1e-28 * scale).all()


class TestThetaBlockFourier:
    """The per-momentum propagator against the dense N x N oracle."""

    @pytest.mark.parametrize("t", [0.3, 0.9])
    @pytest.mark.parametrize("pair", [(1, -1), (1, 1)])
    def test_matches_dense(self, model_profile, pair, t):
        assert_entrywise_close(theta(model_profile, t, pair, M_FLOW),
                               dense_theta(model_profile, t, pair, M_FLOW))

    def test_diffusion_predictions_match_dense(self, model_profile):
        z = 0.2 + 0.4j
        m = stieltjes_m(z)
        assert abs(m) < 1
        wd = model_profile.lattice.block_volume
        pred_abs2, pred_gg = diffusion_predictions(model_profile, z)
        assert_entrywise_close(pred_abs2, abs(m) ** 2 * dense_theta(
            model_profile, 1.0, (1, -1), m).real / wd)
        assert_entrywise_close(pred_gg, m**2 * dense_theta(
            model_profile, 1.0, (1, 1), m) / wd)

    def test_singular_on_both_paths(self, model_profile):
        # t = 1, (+,-), |m| = 1: the zero momentum of 1 - S is singular
        with pytest.raises(PropagatorError):
            theta(model_profile, 1.0, (1, -1), M_FLOW)
        with pytest.raises(PropagatorError):
            dense_theta(model_profile, 1.0, (1, -1), M_FLOW)


def block_sums(lattice, full):
    """The oracle's loop summed as ``khat_tensor`` keeps it: the first site
    over block 0, sites 2..n-1 over their blocks, the last site kept."""
    order = full.ndim
    m, wd = lattice.block_count, lattice.block_volume
    view = full[:wd].reshape((wd,) + (m, wd) * (order - 2) + (lattice.N,))
    return view.sum(axis=(0,) + tuple(range(2, 2 * order - 3, 2)))


class TestKhatLoop:
    def test_order_one(self, band55):
        lat, prof = band55
        calc = KLoopCalculator(lat, prof.blocks, M_FLOW)
        assert np.array_equal(calc.khat_tensor((1,)),
                              np.full(lat.N, M_FLOW))
        assert np.array_equal(calc.khat_tensor((-1,)),
                              np.full(lat.N, np.conj(M_FLOW)))

    def test_order_two_closed_form(self, band55):
        # |m|^2 times the column sums of block row 0 of (1 - |m|^2 t S)^-1
        lat, prof = band55
        calc = KLoopCalculator(lat, _blocks_of(prof, 0.7), M_FLOW)
        got = calc.khat_tensor((1, -1))
        closed = theta_entrywise(0.7 * prof.assemble(), M_FLOW,
                                 np.conj(M_FLOW))
        want = abs(M_FLOW) ** 2 * closed[:lat.block_volume].sum(axis=0)
        assert got.shape == (lat.N,)
        assert np.abs(got - want).max() < 1e-12

    def test_zero_profile_delta_chain(self):
        # Khat = m m-bar m on the diagonal x_1 = x_2 = x_3 only, so its
        # block sums live at a_2 = 0 and y in block 0
        lat = BlockLattice(d=1, W=2, n=3)
        calc = KLoopCalculator(lat, {}, M_FLOW)
        got = calc.khat_tensor((1, -1, 1))
        expected = np.zeros((3, 6), dtype=complex)
        expected[0, :2] = M_FLOW * np.conj(M_FLOW) * M_FLOW
        assert np.abs(got - expected).max() < 1e-14

    def test_recursion_against_naive_loops(self):
        # independent oracle of the dense oracle: same recursion, nested
        # python loops, on an S with no block translation invariance
        rng = np.random.default_rng(9)
        raw = rng.random((4, 4))
        S = 0.6 * (raw + raw.T) / (raw + raw.T).sum(axis=1).max()
        m = stieltjes_m(-0.4)
        calc = DenseLoops(S, m)
        for charges in [(1, -1), (1, 1, -1), (1, -1, 1, -1)]:
            got = calc.khat_tensor(charges)
            assert np.abs(got - naive_khat(charges, S, m)).max() < 1e-12

    def test_memoization(self, band55):
        # every order's block sums are built once, the lower orders by the
        # recursion itself, and none can be written to
        lat, prof = band55
        calc = KLoopCalculator(lat, _blocks_of(prof, 0.5), M_FLOW)
        third = calc.khat_tensor((1, -1, 1))
        second = calc.khat_tensor((1, -1))
        assert calc.khat_tensor((1, -1, 1)) is third
        assert calc.khat_tensor("+-") is second
        assert not third.flags.writeable and not second.flags.writeable

    def test_size_guard(self):
        # 16 n^(d(order-2)) N bytes against 1 GiB: the d=2 reference
        # lattice (81 blocks, N = 2025) needs 2.6 MB at order 3, 213 MB at
        # order 4 and 17 GB at order 5
        d2 = BlockLattice(d=2, W=5, n=9)
        loop_size_guard(d2, 3)
        loop_size_guard(d2, 4)
        with pytest.raises(MemoryError):
            loop_size_guard(d2, 5)
        readme = BlockLattice(d=1, W=33, n=15)
        loop_size_guard(readme, 3, max_bytes=16 * 15 * 495)
        with pytest.raises(MemoryError):
            loop_size_guard(readme, 3, max_bytes=16 * 15 * 495 - 1)

    def test_oversized_order_is_refused_before_any_work(self, monkeypatch):
        # the guard runs before the recursion asks for a lower order
        import bandlab.deterministic as det

        def refuse(*args):
            raise AssertionError("a resolvent was built")

        monkeypatch.setattr(det, "_momentum_inverses", refuse)
        calc = KLoopCalculator(BlockLattice(d=2, W=5, n=9), {}, M_FLOW)
        with pytest.raises(MemoryError, match="1.72e\\+10 bytes"):
            calc.k_tensor((1, 1, -1, -1, 1))

    def test_charge_parsing(self):
        assert parse_charges("+-") == (1, -1)
        assert parse_charges([1, -1, 1]) == (1, -1, 1)
        with pytest.raises(ValueError):
            parse_charges("+x")


def _uniform(d, W, n):
    lat = BlockLattice(d=d, W=W, n=n)
    return build_translation_invariant(lat, KERNELS["uniform"], 1)


def _oracle_contexts():
    """(name, lattice, blocks of t S, t S assembled, m, top order)."""
    out = []
    m0, m3 = stieltjes_m(0.0), stieltjes_m(0.3)
    # c05: d=1 W=5 n=5 at t = 0.7; c06 adds d=2 W=3 n=3, whose order-4
    # dense tensor (81^4 entries) is too large, so d=2 W=2 n=3 takes it
    for name, (d, W, n), m, top in (("c05", (1, 5, 5), m0, 4),
                                    ("c06-d1", (1, 5, 5), m3, 4),
                                    ("c06-d2", (2, 3, 3), m3, 3),
                                    ("d2-order4", (2, 2, 3), m3, 4)):
        prof = _uniform(d, W, n)
        out.append((name, prof.lattice, _blocks_of(prof, 0.7),
                    0.7 * prof.assemble(), m, top))
    # c07: t_f S + (t - t_f) S_E on d=1 W=3 n=3
    prof = _uniform(1, 3, 3)
    se = mean_field_profile(prof.lattice).assemble()
    out.append(("c07", prof.lattice,
                _affine_blocks(prof.lattice, prof.blocks, 0.8, -0.2),
                0.8 * prof.assemble() - 0.2 * se, m3, 4))
    prof = wegner_orbital_profile(BlockLattice(d=1, W=3, n=4), 0.05, 0.5)
    out.append(("wegner", prof.lattice, _blocks_of(prof, 0.6),
                0.6 * prof.assemble(), m3, 4))
    return out


class TestReducedAgainstDense:
    """The block-level recursion against the dense N x N oracle, every
    charge vector of orders 2 to the context's top order."""

    @pytest.mark.parametrize("context", _oracle_contexts(),
                             ids=lambda c: c[0])
    def test_tensors_match(self, context):
        _, lat, blocks, S, m, top = context
        calc = KLoopCalculator(lat, blocks, m)
        dense = DenseLoops(S, m)
        for order in range(2, top + 1):
            for charges in itertools.product((1, -1), repeat=order):
                full = dense.khat_tensor(charges)
                sums = block_sums(lat, full)
                assert np.abs(calc.khat_tensor(charges) - sums).max() \
                    < 1e-12 * np.abs(sums).max()
                K = project_tensor(lat, full)
                assert np.abs(calc.k_tensor(charges) - K).max() \
                    < 1e-12 * np.abs(K).max()


class TestBlockResolvent:
    def test_matches_dense_inverse(self, model_profile):
        lat = model_profile.lattice
        calc = KLoopCalculator(lat, _blocks_of(model_profile, 0.7), M_FLOW)
        N, wd = lat.N, lat.block_volume
        for c in (abs(M_FLOW) ** 2, M_FLOW**2):
            dense = theta_entrywise(0.7 * model_profile.assemble(), c, 1.0)
            blocks = calc.resolvent(c)
            assert sorted(blocks) == list(range(lat.block_count))
            # R[[a], [b]] is the block of offset [b] - [a]
            row = np.array([blocks[off] for off in range(lat.block_count)])
            R = row[lat.block_offset_matrix].transpose(0, 2, 1, 3)
            assert np.abs(R.reshape(N, N) - dense).max() \
                < 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("corrupt", [
        lambda X: X * (1 + 1e-6), lambda X: np.full_like(X, np.nan)],
        ids=["off-by-1e-6", "nan"])
    def test_real_space_residual_fails(self, band55, monkeypatch, corrupt):
        # per-momentum inverses that pass their own solve but are wrong
        # (or NaN) must trip the block residual of R
        import bandlab.deterministic as det
        lat, prof = band55
        solve = det.theta_entrywise
        monkeypatch.setattr(det, "theta_entrywise",
                            lambda *a: corrupt(solve(*a)))
        calc = KLoopCalculator(lat, _blocks_of(prof, 0.7), M_FLOW)
        with pytest.raises(PropagatorError, match="block resolvent"):
            calc.k_tensor((1, -1))

    def test_singular_momentum_raises(self, band55):
        # t = 1, |m| = 1, (+,-): the zero momentum of 1 - S is singular
        lat, prof = band55
        calc = KLoopCalculator(lat, prof.blocks, M_FLOW)
        with pytest.raises(PropagatorError):
            calc.k_tensor((1, -1))


def _symbol(lat, blocks):
    """Oracle: the full stack of S(p) = sum_x e^(-2 pi i p.x/n) S_x."""
    wd = lat.block_volume
    dense = np.zeros((lat.block_count, wd, wd))
    for off, blk in blocks.items():
        dense[off] = blk
    return np.fft.fftn(dense.reshape((lat.n,) * lat.d + (wd, wd)),
                       axes=tuple(range(lat.d))).reshape(-1, wd, wd)


def _random_blocks(lat, seed):
    """Real blocks with S_(-x) = S_x^T and no symmetry beyond it, so each
    S(p) is Hermitian and no two momenta but p and -p share a spectrum."""
    rng = np.random.default_rng(seed)
    raw = rng.random((lat.block_count,) + (lat.block_volume,) * 2)
    return {x: (raw[x] + raw[lat.block_negate(x)].T) / (2 * raw.size)
            for x in range(lat.block_count)}


class TestConjugatePairs:
    """A real coupling solves one momentum of each pair {p, -p}."""

    @pytest.mark.parametrize("d, W, n, solved", [(2, 2, 9, 41),
                                                 (1, 3, 8, 5)])
    def test_representative_count(self, d, W, n, solved, monkeypatch):
        # an even n has the momentum n/2 = -n/2, solved once as 0 is
        import bandlab.deterministic as det
        lat = _uniform(d, W, n).lattice
        solve, sizes = det.theta_entrywise, []

        def sized_solve(S, *args):
            sizes.append(len(S))
            return solve(S, *args)

        monkeypatch.setattr(det, "theta_entrywise", sized_solve)
        det._momentum_inverses(lat, _blocks_of(_uniform(d, W, n), 0.7), 1.0)
        assert sizes == [solved]

    @pytest.mark.parametrize("d, W, n", [(1, 3, 8), (1, 4, 7), (2, 2, 9),
                                         (2, 3, 4)])
    @pytest.mark.parametrize("c", [abs(M_FLOW) ** 2, M_FLOW**2,
                                   stieltjes_m(0.0) ** 2])
    def test_inverses_against_the_full_stack(self, d, W, n, c, monkeypatch):
        import bandlab.deterministic as det
        prof = _uniform(d, W, n)
        lat = prof.lattice
        blocks = _blocks_of(prof, 0.7)
        solve, stacks = det.theta_entrywise, []

        def kept(S, *args):
            stacks.append(S)
            return solve(S, *args)

        monkeypatch.setattr(det, "theta_entrywise", kept)
        got = det._momentum_inverses(lat, blocks, c)
        full = solve(_symbol(lat, blocks), c, 1.0)
        assert np.abs(got - full).max() <= 1e-12
        if np.imag(c) == 0:
            # every solved momentum keeps its own solve, p = -p included,
            # and the mirror -p takes the conjugate
            mirror = lat.block_offset_matrix[:, 0]
            solved = np.arange(lat.block_count) <= mirror
            pairs = mirror != np.arange(lat.block_count)
            assert pairs.any()
            assert np.array_equal(got[solved], solve(stacks[0], c, 1.0))
            assert np.array_equal(got[pairs], got[mirror][pairs].conj())

    def test_nonreal_coupling_solves_every_momentum(self, monkeypatch):
        import bandlab.deterministic as det
        solve, sizes = det.theta_entrywise, []

        def sized_solve(S, *args):
            sizes.append(len(S))
            return solve(S, *args)

        monkeypatch.setattr(det, "theta_entrywise", sized_solve)
        m = stieltjes_m(0.3)
        assert np.imag(m * m) != 0
        theta(_uniform(2, 3, 5), 0.7, (1, 1), m)
        assert sizes == [25]

    def test_failure_names_the_full_momentum_index(self):
        # c = 1/lambda for an eigenvalue lambda of S(p*) makes p* and -p*
        # singular. p* = (2, 2) is index 12 of the 25 momenta, -p* index
        # 18, and p* is entry 8 of the solved stack
        import bandlab.deterministic as det
        lat = BlockLattice(d=2, W=2, n=5)
        blocks = _random_blocks(lat, seed=3)
        lam = np.linalg.eigvalsh(_symbol(lat, blocks)[12])[-1]
        with pytest.raises(PropagatorError, match=r"at momentum (12|18)\b"):
            det._momentum_inverses(lat, blocks, 1 / lam)


class TestMomentumProduct:
    """R applied per block momentum against the real-space block product."""

    @pytest.mark.parametrize("d, W, n, orders", [
        (1, 5, 7, (2, 3, 4)), (1, 4, 8, (2, 3, 4)), (2, 3, 5, (2, 3)),
        (2, 2, 4, (2, 3))])
    def test_matches_real_space_product(self, d, W, n, orders):
        import bandlab.deterministic as det
        prof = _uniform(d, W, n)
        lat = prof.lattice
        blocks = _blocks_of(prof, 0.7)
        calc = KLoopCalculator(lat, blocks, M_FLOW)
        rng = np.random.default_rng(5)
        for c in (abs(M_FLOW) ** 2, M_FLOW**2):
            R = calc.resolvent(c)
            inverses = det._momentum_inverses(lat, blocks, c)
            for order in orders:
                X = rng.standard_normal((lat.block_count ** (order - 2),
                                         2 * lat.N)).view(complex)
                want = det._times_s(lat, R, X)
                got = det._times_momenta(lat, X, inverses)
                assert got.shape == want.shape
                assert np.abs(got - want).max() \
                    <= 1e-13 * np.abs(want).max()


class TestKLoop:
    def test_fast_path_matches_recursion(self, band55):
        lat, prof = band55
        calc = KLoopCalculator(lat, _blocks_of(prof, 0.7), M_FLOW)
        for pair in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            mm = charge_m(M_FLOW, pair[0]) * charge_m(M_FLOW, pair[1])
            a = mm * theta(prof, 0.7, pair, M_FLOW) / lat.block_volume
            b = calc.k_tensor(pair)
            assert np.abs(a - b).max() < 1e-12

    def test_order_one_constant(self, band55):
        lat, prof = band55
        calc = KLoopCalculator(lat, prof.blocks, M_FLOW)
        assert calc.k_tensor((1,))[2] == pytest.approx(M_FLOW)

    def test_parity_symmetry(self, band55):
        lat, prof = band55
        calc = KLoopCalculator(lat, _blocks_of(prof, 0.7), M_FLOW)
        T = calc.k_tensor((1, -1, -1))
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
        eta_t = (1 - t) * M_FLOW.imag
        calc = KLoopCalculator(lat, _blocks_of(prof, t), M_FLOW)
        lhs = calc.k_tensor((1, -1)).sum(axis=-1)
        scalar = M_FLOW.imag / (lat.W * eta_t)
        assert np.abs(lhs - scalar).max() < 1e-12
        assert scalar == pytest.approx(1 / (lat.W * (1 - t)))
        assert ward_residual(calc, eta_t, (1, -1)) < 1e-10

    def test_order_three(self, band55):
        lat, prof = band55
        t = 0.7
        eta_t = (1 - t) * M_FLOW.imag
        calc = KLoopCalculator(lat, _blocks_of(prof, t), M_FLOW)
        for charges in [(1, 1, -1), (1, -1, -1), (-1, -1, 1), (-1, 1, 1)]:
            assert ward_residual(calc, eta_t, charges) < 1e-9

    def test_eta_linearity(self, band55):
        # doubling eta halves the right-hand side, breaking the identity
        lat, prof = band55
        t = 0.5
        eta_t = (1 - t) * M_FLOW.imag
        calc = KLoopCalculator(lat, _blocks_of(prof, t), M_FLOW)
        assert ward_residual(calc, eta_t, (1, -1)) < 1e-10
        off = ward_residual(calc, 2 * eta_t, (1, -1))
        assert off == pytest.approx(0.5, rel=1e-6)

    def test_charge_precondition(self, band55):
        lat, prof = band55
        with pytest.raises(ValueError):
            ward_residual(KLoopCalculator(lat, prof.blocks, M_FLOW), 0.1,
                          (1, 1))

    def test_single_cell(self, band55):
        lat, prof = band55
        t = 0.7
        eta_t = (1 - t) * M_FLOW.imag
        calc = KLoopCalculator(lat, _blocks_of(prof, t), M_FLOW)
        # the identity at the one cell (a_1, a_2) = (0, 2), written out
        lhs = calc.k_tensor((1, 1, -1)).sum(axis=-1)
        rhs = (calc.k_tensor((1, 1)) - calc.k_tensor((-1, 1))) \
            / (2j * lat.block_volume * eta_t)
        scale = max(np.abs(lhs).max(), np.abs(rhs).max())
        assert abs(lhs[0, 2] - rhs[0, 2]) / scale < 1e-9


@pytest.fixture(scope="module")
def setup33():
    """The loop calculator at (S_t, m) on the W=3, n=3 lattice."""
    lat = BlockLattice(d=1, W=3, n=3)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    t_f, t = 0.8, 0.6
    blocks = _affine_blocks(lat, prof.blocks, t_f, t - t_f)
    assert min(blk.min() for blk in blocks.values()) >= 0
    return KLoopCalculator(lat, blocks, M_FLOW)


class TestFlowDerivative:

    def test_order_two_residual(self, setup33):
        assert kloop_flow_derivative_residual(setup33, (1, -1), 1e-3) < 1e-4

    def test_second_order_in_dt(self, setup33):
        r1 = kloop_flow_derivative_residual(setup33, (1, -1), 1e-3)
        r2 = kloop_flow_derivative_residual(setup33, (1, -1), 5e-4)
        assert r2 < r1 / 3

    def test_order_three(self, setup33):
        assert kloop_flow_derivative_residual(setup33, (1, 1, -1), 1e-3) < 1e-4

    def test_order_four(self, setup33):
        # Cut_L keeps four charges at (k, l) = (2, 3); a misplaced summed
        # block in either cut breaks the equation
        assert kloop_flow_derivative_residual(setup33, (1, 1, -1, -1),
                                              1e-3) < 1e-4

    def test_order_one_vanishes(self, setup33):
        assert kloop_flow_derivative_residual(setup33, (1,), 1e-3) == 0.0

    def test_shared_calculator_gives_the_fresh_residual(self, setup33):
        # the centre loops come from the caller's calculator, whose memoized
        # tensors are the ones a fresh calculator would compute
        setup33.k_tensor((1, 1, -1))
        fresh = KLoopCalculator(setup33.lattice, setup33.blocks, setup33.m)
        for charges in ((1, -1), (1, 1, -1)):
            assert kloop_flow_derivative_residual(setup33, charges, 1e-3) \
                == kloop_flow_derivative_residual(fresh, charges, 1e-3)


class TestEvolutionKernel:
    def test_contraction_bound(self):
        # the order-2 kernel U_{s,t} A = L A R^T, with L and R the factors
        # I + (t - s) m m' Theta of the pairs (+,-) and (-,+), contracts in
        # sup norm at rate (eta_s/eta_t)^2 = ((1-s)/(1-t))^2
        lat = BlockLattice(d=1, W=5, n=5)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        s, t = 0.6, 0.8
        k = (t - s) * M_FLOW * np.conj(M_FLOW)
        L = np.eye(5) + k * theta(prof, t, (1, -1), M_FLOW)
        R = np.eye(5) + k * theta(prof, t, (-1, 1), M_FLOW)
        rng = np.random.default_rng(2)
        bound = ((1 - s) / (1 - t)) ** 2
        for _ in range(25):
            A = rng.standard_normal((5, 5))
            assert np.abs(L @ A @ R.T).max() <= 10 * bound * np.abs(A).max()


def _random_walk(prof, t, c_ker):
    """The oracle's kernel K for t S, Theta = P((1 - t S)^-1) from theta,
    and the relative max-norm residual of Theta's random-walk form."""
    K = random_walk_kernel(prof, t, c_ker)
    th = theta(prof, t, (1, 1), 1.0).real
    residual = np.abs(th - random_walk_theta(K, t, c_ker)).max()
    return K, th, float(residual / np.abs(th).max())


class TestRandomWalkRep:
    def test_mean_field_closed_form(self):
        # t S_E with c_ker = t: S_ker = 0, K = identity on blocks
        lat = BlockLattice(d=1, W=4, n=3)
        t = 0.6
        se = mean_field_profile(lat)
        K, th, residual = _random_walk(se, t, t)
        assert np.abs(K - np.eye(3)).max() < 1e-12
        # effective time t_hat = c_ker / (1 - t + c_ker)
        assert t / core_split(se, t, t)[1] == pytest.approx(t)
        assert residual < 1e-8
        assert np.abs(th - np.eye(3) / (1 - t)).max() < 1e-10

    @pytest.mark.parametrize("t", [0.5, 0.9])
    def test_banded_identity(self, band55, t):
        lat, prof = band55
        c_ker = 0.5 * lat.W * (t * prof.block_at(0).min())
        K, _, residual = _random_walk(prof, t, c_ker)
        assert residual < 1e-8
        assert np.abs(K.sum(axis=1) - 1).max() < 1e-10
        assert K.min() >= 0
        assert core_split(prof, t, c_ker)[1] == pytest.approx(1 - t + c_ker)

    def test_cker_too_large(self, band55):
        _, prof = band55
        with pytest.raises(ValueError) as err:
            random_walk_kernel(prof, 0.5, 0.49)
        assert "admissible" in str(err.value)

    def test_matches_dense(self, model_profile):
        # oracle: the dense N x N inverses the representation is built from
        lat = model_profile.lattice
        t = 0.7
        c_ker = 0.5 * lat.block_volume * (t * model_profile.block_at(0).min())
        K, th, residual = _random_walk(model_profile, t, c_ker)
        S = t * model_profile.assemble()
        eye = np.eye(lat.N)
        se = mean_field_profile(lat).assemble()
        deficit = 1.0 - S.sum(axis=1).mean() + c_ker
        assert core_split(model_profile, t, c_ker)[1] \
            == pytest.approx(deficit, rel=1e-14)
        assert_entrywise_close(th, project_matrix(
            lat, np.linalg.inv(eye - S)))
        assert_entrywise_close(K, deficit * project_matrix(
            lat, np.linalg.inv(eye - (S - c_ker * se))))
        assert residual < 1e-12


class TestDecayReport:
    def test_mean_field_no_tail(self):
        lat = BlockLattice(d=1, W=3, n=7)
        m = stieltjes_m(0.4 + 0.5j)
        p = theta(mean_field_profile(lat), 1.0, (1, -1), m)
        rep = theta_decay_report(lat, p, ell=1.0)
        assert rep.decay_length == 0.0

    @pytest.mark.parametrize("t", [0.5, 0.9])
    def test_band_decay_scale(self, t):
        lat = BlockLattice(d=1, W=5, n=25)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        lam = np.sqrt(interaction_strength(prof))
        ell = ell_t(lam, t, lat.n)
        p = theta(prof, t, (1, -1), M_FLOW)
        rep = theta_decay_report(lat, p, ell)
        assert rep.monotone_ok
        assert 0 < rep.decay_length <= 3 * ell

    def test_same_charge_order_one(self):
        lat = BlockLattice(d=1, W=5, n=25)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        p = theta(prof, 0.9, (1, 1), M_FLOW)
        rep = theta_decay_report(lat, p, ell=1.0)
        assert rep.decay_length <= 3.0

    def test_csv_rows_shape(self, band55):
        lat, prof = band55
        p = theta(prof, 0.5, (1, -1), M_FLOW)
        rows = list(theta_decay_report(lat, p, 1.0).to_csv_rows())
        assert len(rows) == len(np.unique(lat.block_distance_matrix[0]))
        assert all(len(r) == 5 for r in rows)


class TestFiniteDifference:
    def test_parity_pairs_vanish(self):
        lat = BlockLattice(d=1, W=5, n=15)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        th = theta(prof, 0.5, (1, -1), M_FLOW)[0]
        # [y] = -[x]: first difference is zero by parity
        for x in range(1, lat.n // 2):
            assert abs(th[x] - th[(-x) % lat.n]) < 1e-13

    def test_max_ratios_finite(self):
        lat = BlockLattice(d=1, W=5, n=15)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        t = 0.5
        lam = np.sqrt(interaction_strength(prof))
        p = theta(prof, t, (1, -1), M_FLOW)
        rep = finite_difference_report(lat, p, lam, t)
        assert np.isfinite(rep.max_first_ratio)
        assert np.isfinite(rep.max_second_ratio)
        assert rep.max_first_ratio < 50
        assert rep.max_second_ratio < 50


def loop_finite_differences(lattice, th, lam, t, max_pairs=4096, seed=7):
    """Oracle: the finite-difference ratios as plain Python loops."""
    th = th[0]
    m = lattice.block_count
    denom = lam**2 + 1.0 - t
    pairs = list(itertools.combinations(range(m), 2))
    if len(pairs) > max_pairs:
        rng = np.random.default_rng(seed)
        pairs = [pairs[i] for i in
                 rng.choice(len(pairs), size=max_pairs, replace=False)]
    r1 = 0.0
    for x, y in pairs:
        dist = lattice.block_distance(x, y)
        bx = (lattice.block_distance(0, x) + 1) ** (lattice.d - 1)
        by = (lattice.block_distance(0, y) + 1) ** (lattice.d - 1)
        r1 = max(r1, abs(th[x] - th[y]) * denom * (bx + by) / dist)
    r2 = 0.0
    count2 = 0
    for x in range(m):
        for y in range(1, m):
            xp = lattice.block_shift(x, y)
            xm = lattice.block_shift(x, lattice.block_negate(y))
            dy = lattice.block_distance(0, y)
            val = abs(th[xp] + th[xm] - 2 * th[x])
            r2 = max(r2, val * denom * (lattice.block_distance(0, x) + 1)
                     ** lattice.d / dy**2)
            count2 += 1
            if count2 >= max_pairs:
                break
        if count2 >= max_pairs:
            break
    return r1, r2


class TestFiniteDifferenceVectorized:
    """The array form is bit-identical to the loop form it replaced."""

    @pytest.mark.parametrize("d, W, n, cutoff", [(1, 5, 15, 1),
                                                  (2, 3, 11, 2)])
    @pytest.mark.parametrize("pair", [(1, -1), (1, 1)])
    @pytest.mark.parametrize("max_pairs", [4096, 50])
    def test_bit_identical_to_loops(self, monkeypatch, d, W, n, cutoff, pair,
                                    max_pairs):
        # d=2, n=11: 7260 pairs and 14520 cells, so both caps apply
        lat = BlockLattice(d=d, W=W, n=n)
        prof = build_translation_invariant(lat, KERNELS["uniform"], cutoff)
        lam = np.sqrt(interaction_strength(prof))
        th = theta(prof, 0.5, pair, M_FLOW)
        monkeypatch.setattr("bandlab.deterministic._MAX_PAIRS", max_pairs)
        rep = finite_difference_report(lat, th, lam, 0.5)
        assert (rep.max_first_ratio, rep.max_second_ratio) == \
            loop_finite_differences(lat, th, lam, 0.5, max_pairs)


@pytest.fixture(scope="module")
def k3_setup():
    lat = BlockLattice(d=1, W=5, n=25)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    t = 0.5
    lam = np.sqrt(interaction_strength(prof))
    calc = KLoopCalculator(lat, _blocks_of(prof, t), M_FLOW)
    return lat, calc, t, lam


class TestKLoopBoundDiagnostics:
    def test_fast_decay(self, k3_setup):
        # loops separated far beyond ell_t (safety factor 5) drop below
        # 1e-8 of the central value
        lat, calc, t, lam = k3_setup
        T = calc.k_tensor((1, 1, -1))
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
        k2 = np.abs(calc.k_tensor((1, -1))).max()
        assert k2 * unit < 10
        k3 = np.abs(calc.k_tensor((1, 1, -1))).max()
        assert k3 * unit**2 < 10

    def test_improved_bound_off_diagonal(self, k3_setup):
        # cells with distinct blocks gain the lambda^2/(lambda^2 + eta) factor
        lat, calc, t, lam = k3_setup
        ell = ell_t(lam, t, lat.n)
        unit = lat.W * ell**lat.d * (1 - t)
        eta_t = (1 - t) * M_FLOW.imag
        gain = lam**2 / (lam**2 + eta_t)
        T = calc.k_tensor((1, -1))
        off = np.abs(T - np.diag(np.diagonal(T))).max()
        assert off * unit < 10 * gain
