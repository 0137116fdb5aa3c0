import io

import numpy as np
import pytest

from bandlab import (BlockLattice, LoopSignature, SampleConfig,
                     build_translation_invariant, diffusion_predictions,
                     eigen_stats, flow_increment, g_loop, green,
                     law_scale, mean_field_matrix,
                     mean_field_profile, run_ensemble, sample_H,
                     stieltjes_m, stream_for, ward_gate_residual)
from bandlab.montecarlo import (block_traces, deloc_replica_fn,
                                diffusion_replica_fn, locallaw_replica_fn,
                                que_replica_fn, read_observations,
                                write_observation)
from bandlab.profiles import KERNELS, block_flat_profile


@pytest.fixture(scope="module")
def band_small():
    lat = BlockLattice(d=1, W=5, n=5)
    prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
    return lat, prof.assemble()


class TestStreams:
    def test_replica_reproducible(self, band_small):
        lat, S = band_small
        h1 = sample_H(S, stream_for(123, 7))
        h2 = sample_H(S, stream_for(123, 7))
        assert np.array_equal(h1, h2)

    def test_replicas_differ(self, band_small):
        lat, S = band_small
        h1 = sample_H(S, stream_for(123, 0))
        h2 = sample_H(S, stream_for(123, 1))
        assert not np.array_equal(h1, h2)

    def test_seed_changes_draws(self, band_small):
        lat, S = band_small
        h1 = sample_H(S, stream_for(1, 0))
        h2 = sample_H(S, stream_for(2, 0))
        assert not np.array_equal(h1, h2)


class TestSampleH:
    def test_hermitian_exact(self, band_small):
        lat, S = band_small
        H = sample_H(S, stream_for(0, 0))
        assert np.array_equal(H, H.conj().T)
        assert np.all(np.diagonal(H).imag == 0)

    def test_exact_zeros_outside_band(self, band_small):
        lat, S = band_small
        H = sample_H(S, stream_for(0, 1))
        assert np.all(H[S == 0] == 0)

    def test_second_moments(self, band_small):
        # E|H_xy|^2 = S_xy and E H_xy^2 = 0 within 5 stderr over 4000 draws
        lat, S = band_small
        reps = 4000
        acc = np.zeros_like(S)
        acc2 = np.zeros_like(S, dtype=complex)
        for r in range(reps):
            H = sample_H(S, stream_for(99, r))
            acc += np.abs(H) ** 2
            acc2 += H * H
        mean = acc / reps
        # |H|^2 has variance ~ S^2 per draw (exponential-type tails)
        tol = 5 * np.maximum(S, 1e-3) / np.sqrt(reps)
        assert np.abs(mean - S).max() < tol.max()
        off = ~np.eye(lat.N, dtype=bool)
        assert np.abs(acc2 / reps)[off].max() < 5 * S.max() / np.sqrt(reps) * 3

    def test_two_point_correlation_matches_profile(self, band_small):
        lat, S = band_small
        reps = 2000
        picks = [(0, 3), (2, 7), (10, 10), (0, 24)]
        acc = {p: 0.0 for p in picks}
        for r in range(reps):
            H = sample_H(S, stream_for(7, r))
            for p in picks:
                acc[p] += abs(H[p]) ** 2
        for p in picks:
            got = acc[p] / reps
            assert got == pytest.approx(S[p], abs=5 * max(S[p], 0.02)
                                        / np.sqrt(reps))


class TestFlowIncrement:
    def test_t0_identity(self, band_small):
        lat, S = band_small
        H = sample_H(S, stream_for(0, 0))
        out = flow_increment(H, lat, 0.3, 0.3, stream_for(0, 1))
        assert np.array_equal(out, H)

    def test_cross_block_increments_vanish(self, band_small):
        lat, S = band_small
        H0 = np.zeros((lat.N, lat.N), dtype=complex)
        out = flow_increment(H0, lat, 0.2, 0.7, stream_for(5, 0))
        se = mean_field_matrix(lat)
        assert np.all(out[se == 0] == 0)

    def test_within_block_variance(self, band_small):
        lat, S = band_small
        reps, dt = 3000, 0.5
        acc = 0.0
        H0 = np.zeros((lat.N, lat.N), dtype=complex)
        for r in range(reps):
            delta = flow_increment(H0, lat, 0.0, dt, stream_for(17, r))
            acc += abs(delta[0, 1]) ** 2
        expected = dt / lat.W
        assert acc / reps == pytest.approx(expected,
                                           abs=5 * expected / np.sqrt(reps))

    def test_flow_matches_direct_sampling_in_distribution(self):
        # variance profile of H_ti + increment equals S_tf = t_f * S_RBM
        lat = BlockLattice(d=1, W=3, n=3)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        S = prof.assemble()
        se = mean_field_matrix(lat)
        t_i, t_f = 0.7, 0.9
        S_ti = t_f * S + (t_i - t_f) * se
        assert S_ti.min() >= 0
        reps = 3000
        acc_flow = np.zeros_like(S)
        acc_direct = np.zeros_like(S)
        for r in range(reps):
            h = sample_H(S_ti, stream_for(31, r))
            h = flow_increment(h, lat, t_i, t_f, stream_for(32, r))
            acc_flow += np.abs(h) ** 2
            acc_direct += np.abs(sample_H(t_f * S, stream_for(33, r))) ** 2
        diff = np.abs(acc_flow - acc_direct) / reps
        sigma = 5 * (t_f * S + 0.02) / np.sqrt(reps)
        assert (diff < sigma).all()

    def test_rejects_backwards(self, band_small):
        lat, S = band_small
        with pytest.raises(ValueError):
            flow_increment(np.zeros((lat.N, lat.N)), lat, 0.5, 0.4,
                           stream_for(0, 0))


class TestGreen:
    def test_zero_matrix(self):
        z = 0.3 + 0.5j
        gf = green(np.zeros((8, 8)), z)
        assert np.abs(gf.G + np.eye(8) / z).max() < 1e-14

    def test_imaginary_sign(self, band_small):
        lat, S = band_small
        H = sample_H(S, stream_for(3, 0))
        gf = green(H, 0.1 + 0.2j)
        assert np.trace(gf.G).imag > 0
        gf2 = green(H, 0.1 - 0.2j)
        assert np.trace(gf2.G).imag < 0

    def test_eigen_cross_check(self):
        # solve path against an independent eigendecomposition path
        lat = BlockLattice(d=1, W=4, n=8)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        H = sample_H(prof.assemble(), stream_for(11, 0))
        z = -0.2 + 0.15j
        gf = green(H, z)
        evals, evecs = np.linalg.eigh(H)
        G2 = (evecs / (evals - z)) @ evecs.conj().T
        assert np.abs(gf.G - G2).max() < 1e-9

    def test_real_z_rejected(self):
        with pytest.raises(ValueError):
            green(np.zeros((4, 4)), 0.5)

    def test_ward_gate(self, band_small):
        lat, S = band_small
        for r in range(5):
            gf = green(sample_H(S, stream_for(21, r)), 0.2j)
            assert ward_gate_residual(gf) < 1e-10


class TestGLoop:
    def test_order_one_unwound(self, band_small):
        lat, S = band_small
        gf = green(sample_H(S, stream_for(4, 0)), 0.3j)
        sig = LoopSignature(charges=(1,), indices=(2,))
        direct = gf.G[lat.block_sites(2), lat.block_sites(2)].sum() / lat.W
        assert g_loop(gf, lat, sig) == pytest.approx(direct)

    def test_order_two_degenerate_whole_lattice(self):
        lat = BlockLattice(d=1, W=6, n=1)
        prof = mean_field_profile(lat)
        gf = green(sample_H(prof.assemble(), stream_for(6, 0)), 0.4j)
        sig = LoopSignature(charges=(1, -1), indices=(0, 0))
        expected = (np.abs(gf.G) ** 2).sum() / lat.W**2
        assert g_loop(gf, lat, sig) == pytest.approx(expected)

    def test_against_naive_matrix_product(self):
        lat = BlockLattice(d=1, W=4, n=8)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        gf = green(sample_H(prof.assemble(), stream_for(8, 0)), 0.1 + 0.3j)
        for charges, blocks in [((1, -1), (1, 5)), ((1, 1, -1), (0, 3, 6)),
                                ((1, -1, 1, -1), (7, 2, 4, 1))]:
            sig = LoopSignature(charges=charges, indices=blocks)
            # oracle: assemble the full alternating product
            prod = np.eye(lat.N, dtype=complex)
            for s, a in zip(charges, blocks):
                G = gf.G if s > 0 else gf.G.conj().T
                E = np.zeros((lat.N, lat.N))
                sites = lat.block_sites(a)
                E[sites, sites] = 1.0 / lat.W
                prod = prod @ G @ E
            assert g_loop(gf, lat, sig) == pytest.approx(np.trace(prod),
                                                         abs=1e-12)

    def test_arity_cap(self, band_small):
        lat, S = band_small
        gf = green(sample_H(S, stream_for(4, 1)), 0.3j)
        sig = LoopSignature(charges=(1,) * 5, indices=(0,) * 5)
        with pytest.raises(ValueError):
            g_loop(gf, lat, sig)


class TestSampleObservables:
    def test_block_traces_oracle(self, band_small):
        lat, S = band_small
        gf = green(sample_H(S, stream_for(9, 0)), 0.5j)
        bt = block_traces(lat, gf.G)
        for a in range(lat.n):
            direct = np.diagonal(gf.G)[lat.block_sites(a)].sum() / lat.W
            assert bt[a] == pytest.approx(direct)

    def test_local_law_zero_matrix(self, band_small):
        # S = 0 samples H = 0, so G = -1/z exactly
        lat, _ = band_small
        z = 0.1 + 0.4j
        m = stieltjes_m(z)
        fn, _ = locallaw_replica_fn(lat, np.zeros((lat.N, lat.N)), z)
        out = fn(0, stream_for(0, 0))
        assert out["block_residual"].max() == pytest.approx(abs(-1 / z - m))
        assert out["entry_sq"].max() == pytest.approx(abs(-1 / z - m) ** 2)

    def test_eigen_stats_normalization(self, band_small):
        lat, S = band_small
        H = sample_H(S, stream_for(13, 0))
        stats = eigen_stats(H, (-2.5, 2.5), lat)
        # block masses of each eigenvector sum to 1
        sums = stats.block_overlaps.sum(axis=1)
        assert np.abs(sums - 1).max() < 1e-10
        assert stats.sup_norms.max() <= 1.0

    def test_eigen_stats_diagonal_localized(self):
        lat = BlockLattice(d=1, W=1, n=30)
        S = mean_field_profile(lat).assemble()
        assert np.array_equal(S, np.eye(30))
        H = sample_H(S, stream_for(14, 0))
        stats = eigen_stats(H, (-1.5, 1.5), lat)
        assert stats.window_indices.size > 0
        assert stats.sup_norms.min() == pytest.approx(1.0)

    def test_eigen_window_filter(self, band_small):
        lat, S = band_small
        H = sample_H(S, stream_for(15, 0))
        stats = eigen_stats(H, (-0.5, 0.5), lat)
        inside = stats.eigenvalues[stats.window_indices]
        assert np.all((inside >= -0.5) & (inside <= 0.5))

    def test_cross_overlap_identity_sum(self, band_small):
        # summing the QUE overlap matrices over all blocks gives I
        lat, S = band_small
        H = sample_H(S, stream_for(16, 0))
        stats = eigen_stats(H, (-1.0, 1.0), lat, keep_vectors=True)
        k = stats.window_indices.size
        total = sum(stats.cross_overlap(lat, a) for a in range(lat.n))
        assert np.abs(total - np.eye(k)).max() < 1e-10


class TestDiffusionPredictions:
    def test_block_flat_rank_one_oracle(self):
        # flat blocks: prediction reduces to the n x n block-level inverse
        lat = BlockLattice(d=1, W=4, n=6)
        prof = block_flat_profile(lat, 0.2)
        S = prof.assemble()
        z = 0.1 + 0.3j
        m = stieltjes_m(z)
        pred_abs2, pred_gg = diffusion_predictions(lat, S, z)
        B = np.zeros((6, 6))
        for a in range(6):
            B[a, a] = 0.6
            B[a, (a + 1) % 6] = 0.2
            B[a, (a - 1) % 6] = 0.2
        c1 = abs(m) ** 2
        oracle1 = c1 * np.linalg.inv(np.eye(6) - c1 * B) / lat.W
        assert np.abs(pred_abs2 - oracle1).max() < 1e-12
        c2 = m**2
        oracle2 = c2 * np.linalg.inv(np.eye(6) - c2 * B) / lat.W
        assert np.abs(pred_gg - oracle2).max() < 1e-12

    def test_prediction_is_k2_tensor(self, band_small):
        # the block prediction coincides with the order-2 primitive loop
        from bandlab import KLoopCalculator
        lat, S = band_small
        z = 0.2 + 0.4j
        m = stieltjes_m(z)
        pred_abs2, pred_gg = diffusion_predictions(lat, S, z)
        calc = KLoopCalculator(lat, S, m)
        k2 = calc.k_tensor((1, -1), via="theta")
        assert np.abs(pred_abs2 - k2.real).max() < 1e-13
        k2pp = calc.k_tensor((1, 1), via="theta")
        assert np.abs(pred_gg - k2pp).max() < 1e-13


class TestRunEnsemble:
    def test_single_replica_mean(self):
        cfg = SampleConfig(master_seed=5, replicas=1)

        def fn(r, rng):
            return {"x": np.array([1.0, 2.0]), "y": 3.0}

        res = run_ensemble(cfg, fn)
        assert np.array_equal(res.mean("x"), [1.0, 2.0])
        assert res.mean("y") == 3.0

    def test_parallel_merge_identical(self, band_small):
        lat, S = band_small
        fn, reducers = locallaw_replica_fn(lat, S, 0.3j)
        res1 = run_ensemble(SampleConfig(master_seed=2, replicas=6,
                                         parallelism=1), fn, reducers)
        res4 = run_ensemble(SampleConfig(master_seed=2, replicas=6,
                                         parallelism=4), fn, reducers)
        for key in res1.sums:
            assert np.array_equal(res1.sums[key], res4.sums[key])
            assert np.array_equal(res1.sumsq[key], res4.sumsq[key])
        for key in res1.maxima:
            assert np.array_equal(res1.maxima[key], res4.maxima[key])

    def test_stderr_scaling(self):
        def fn(r, rng):
            return {"g": rng.standard_normal()}

        r1 = run_ensemble(SampleConfig(master_seed=3, replicas=400), fn)
        r2 = run_ensemble(SampleConfig(master_seed=3, replicas=1600), fn)
        ratio = r1.stderr("g") / r2.stderr("g")
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_failures_recorded(self):
        def fn(r, rng):
            if r == 2:
                raise RuntimeError("boom")
            return {"v": float(r)}

        res = run_ensemble(SampleConfig(master_seed=1, replicas=4), fn)
        assert len(res.failures) == 1
        assert res.failures[0][0] == 2
        assert res.completed == 3
        assert res.mean("v") == pytest.approx((0 + 1 + 3) / 3)

    def test_max_reducer(self):
        def fn(r, rng):
            return {"m": float(r)}

        res = run_ensemble(SampleConfig(master_seed=1, replicas=5), fn,
                           reducers={"m": "max"})
        assert res.max("m") == 4.0

    def test_deloc_and_que_replicas_run(self, band_small):
        lat, S = band_small
        fn, red = deloc_replica_fn(lat, S, (-1.5, 1.5))
        res = run_ensemble(SampleConfig(master_seed=10, replicas=2), fn, red)
        assert 0 < res.max("sup_norm_sq") <= 1
        fn, red = que_replica_fn(lat, S, (-0.2, 0.2))
        res = run_ensemble(SampleConfig(master_seed=10, replicas=2), fn, red)
        assert res.max("overlap_dev_sq") >= 0

    def test_diffusion_mean_tracks_prediction(self, band_small):
        lat, S = band_small
        pred_abs2, _ = diffusion_predictions(lat, S, 0.5j)
        fn, red = diffusion_replica_fn(lat, S, 0.5j)
        res = run_ensemble(SampleConfig(master_seed=3, replicas=20), fn, red)
        assert res.failures == []
        assert res.max("ward_violation") == 0
        mean_abs2 = res.mean("abs2").real
        assert mean_abs2.shape == res.stderr("gg").shape == (5, 5)
        # the MC mean tracks the prediction at this eta within a few percent
        relative = np.abs(mean_abs2 - pred_abs2) / pred_abs2.max()
        assert relative.max() < 0.1

    def test_diffusion_replica_shapes(self, band_small):
        lat, S = band_small
        fn, red = diffusion_replica_fn(lat, S, 0.5j)
        out = fn(0, stream_for(1, 0))
        assert out["abs2"].shape == (5, 5)
        assert out["gg"].shape == (5, 5)
        assert out["ward_violation"] == 0.0


class TestObservableStream:
    def test_round_trip(self):
        buf = io.BytesIO()
        write_observation(buf, 3, 1, np.array([1.5, -2.25]))
        write_observation(buf, 4, 2, np.array([0.125]))
        buf.seek(0)
        records = list(read_observations(buf))
        assert records[0][0] == 3 and records[0][1] == 1
        assert np.array_equal(records[0][2], [1.5, -2.25])
        assert records[1][0] == 4
        assert np.array_equal(records[1][2], [0.125])


class TestAdjointConsistency:
    def test_green_conjugate_z(self, band_small):
        # G(conj z) equals the adjoint of G(z) for Hermitian H
        lat, S = band_small
        H = sample_H(S, stream_for(41, 0))
        z = 0.4 + 0.3j
        g1 = green(H, z)
        g2 = green(H, np.conj(z))
        assert np.abs(g2.G - g1.G.conj().T).max() < 1e-11


class TestTwoDimensional:
    def test_estimators_on_2d_lattice(self):
        lat = BlockLattice(d=2, W=3, n=3)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        S = prof.assemble()
        H = sample_H(S, stream_for(55, 0))
        assert np.array_equal(H, H.conj().T)
        gf = green(H, 0.1 + 0.4j)
        assert ward_gate_residual(gf) < 1e-10
        bt = block_traces(lat, gf.G)
        assert bt.shape == (9,)
        for a in (0, 4, 8):
            direct = np.diagonal(gf.G)[lat.block_sites(a)].sum() / 9
            assert bt[a] == pytest.approx(direct)
        stats = eigen_stats(H, (-1.5, 1.5), lat)
        assert np.abs(stats.block_overlaps.sum(axis=1) - 1).max() < 1e-10
        pred_abs2, pred_gg = diffusion_predictions(lat, S, 0.1 + 0.4j)
        assert pred_abs2.shape == (9, 9)
        # per-pair block sums against a direct double loop
        from bandlab.montecarlo import diffusion_replica_fn
        fn, red = diffusion_replica_fn(lat, S, 0.1 + 0.4j)
        out = fn(0, stream_for(55, 0))
        a, b = 2, 7
        direct = sum(abs(gf.G[x, y]) ** 2
                     for x in lat.block_sites(a)
                     for y in lat.block_sites(b)) / 81
        assert out["abs2"][a, b] == pytest.approx(direct)


class TestLocalLawScaling:
    def test_doubling_eta_keeps_normalized_residual_order_one(self):
        # the predicted scale 1/(W^d ell^d eta) absorbs the eta dependence
        lat = BlockLattice(d=1, W=15, n=9)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        S = prof.assemble()
        from bandlab import interaction_strength
        lam = np.sqrt(interaction_strength(prof))
        normalized = {}
        for eta in (0.2, 0.4):
            z = complex(0.0, eta)
            fn, red = locallaw_replica_fn(lat, S, z)
            res = run_ensemble(SampleConfig(master_seed=77, replicas=30,
                                            parallelism=2), fn, red)
            scale = 1.0 / law_scale(lat, lam, eta)
            normalized[eta] = float(res.mean("entry_sq").max()) / scale
        # both sit at order one; the ratio stays within a factor ~2
        for v in normalized.values():
            assert 0.1 < v < 5.0
        ratio = normalized[0.2] / normalized[0.4]
        assert 0.4 < ratio < 2.5


class TestLoopConvergence:
    def test_three_loop_mean_matches_primitive_loop(self):
        # the sampled 3-loop converges to its deterministic limit: two
        # fully independent computation paths (resolvent sampling vs the
        # loop recursion) meet at every probed block triple
        from bandlab import KLoopCalculator
        lat = BlockLattice(d=1, W=9, n=5)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        S = prof.assemble()
        z = 0.0 + 0.5j
        m = stieltjes_m(z)
        K3 = KLoopCalculator(lat, S, m).k_tensor((1, -1, 1), via="recursion")
        triples = [(0, 0, 0), (0, 1, 2), (0, 2, 4), (1, 1, 3)]
        reps = 1200
        acc = {tr: 0j for tr in triples}
        acc2 = {tr: 0.0 for tr in triples}
        for r in range(reps):
            gf = green(sample_H(S, stream_for(314, r)), z)
            for tr in triples:
                v = g_loop(gf, lat,
                           LoopSignature(charges=(1, -1, 1), indices=tr))
                acc[tr] += v
                acc2[tr] += abs(v) ** 2
        for tr in triples:
            mean = acc[tr] / reps
            se = np.sqrt((acc2[tr] / reps - abs(mean) ** 2) / reps)
            tol = 5 * se + 0.02 * abs(K3[tr]) + 1e-7
            assert abs(mean - K3[tr]) <= tol, (tr, abs(mean - K3[tr]), tol)
