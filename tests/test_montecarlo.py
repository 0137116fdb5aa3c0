import gc
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import bandlab.montecarlo as mc
from bandlab import (BlockLattice, SampleConfig,
                     build_translation_invariant, diffusion_predictions,
                     eigen_stats, green, law_scale, mean_field_profile,
                     run_ensemble, sample_H, stieltjes_m, stream_for,
                     ward_gate_residual)
from bandlab.montecarlo import (GreenSolveError, block_traces, build_band,
                                deloc_replica_fn, diffusion_replica_fn,
                                locallaw_replica_fn, que_replica_fn)
from bandlab.cli import que_window
from bandlab.lattice import project_matrix
from bandlab.profiles import KERNELS, VarianceProfile, block_flat_profile
from oracles import block_sites, dense_draw, dense_H, rows_of


@pytest.fixture(scope="module")
def band_profile():
    lat = BlockLattice(d=1, W=5, n=5)
    return build_translation_invariant(lat, KERNELS["uniform"], 1)


@pytest.fixture(scope="module")
def band_small(band_profile):
    return band_profile.lattice, build_band(band_profile)


def block_overlap(vectors, lattice, a):
    """Oracle of que's batched overlaps: sum_{x in [a]} conj(u_i) u_j."""
    U = vectors[block_sites(lattice, a)]
    return U.conj().T @ U


def sup_norms(vectors):
    """max_x |u(x)|^2 of each column u of ``vectors``."""
    return (np.abs(vectors) ** 2).max(axis=0)


def dense_band(N):
    """The band of one N-site block: every entry in the support, one layer."""
    return build_band(mean_field_profile(BlockLattice(d=1, W=N, n=1)))


def drawn_rows(band, rng):
    """H drawn into a fresh LayerRows, the one form that H takes."""
    return sample_H(band, rng, out=mc.LayerRows(band))


class TestStreams:
    def test_replica_reproducible(self, band_small):
        lat, band = band_small
        h1 = drawn_rows(band, stream_for(123, 7))
        h2 = drawn_rows(band, stream_for(123, 7))
        assert np.array_equal(h1.data, h2.data)

    def test_replicas_differ(self, band_small):
        lat, band = band_small
        h1 = drawn_rows(band, stream_for(123, 0))
        h2 = drawn_rows(band, stream_for(123, 1))
        assert not np.array_equal(h1.data, h2.data)

    def test_seed_changes_draws(self, band_small):
        lat, band = band_small
        h1 = drawn_rows(band, stream_for(1, 0))
        h2 = drawn_rows(band, stream_for(2, 0))
        assert not np.array_equal(h1.data, h2.data)


class TestSampleH:
    def test_hermitian_exact(self, band_small):
        lat, band = band_small
        H = dense_H(drawn_rows(band, stream_for(0, 0)))
        assert np.array_equal(H, H.conj().T)
        assert np.all(np.diagonal(H).imag == 0)

    def test_exact_zeros_outside_band(self, band_profile, band_small):
        lat, band = band_small
        S = band_profile.assemble()
        H = dense_H(drawn_rows(band, stream_for(0, 1)))
        assert np.all(H[S == 0] == 0)
        # the band's support is the strictly upper nonzeros of S, row-major,
        # and every entry on it is drawn
        assert np.array_equal(np.stack([band.rows, band.cols]),
                              np.stack(np.nonzero(np.triu(S, 1))))
        assert np.all(H[S > 0] != 0)

    def test_second_moments(self, band_profile, band_small):
        # E|H_xy|^2 = S_xy and E H_xy^2 = 0 within 5 stderr over 4000 draws
        lat, band = band_small
        S = band_profile.assemble()
        reps = 4000
        acc = np.zeros_like(S)
        acc2 = np.zeros_like(S, dtype=complex)
        for r in range(reps):
            H = dense_H(drawn_rows(band, stream_for(99, r)))
            acc += np.abs(H) ** 2
            acc2 += H * H
        mean = acc / reps
        # |H|^2 has variance ~ S^2 per draw (exponential-type tails)
        tol = 5 * np.maximum(S, 1e-3) / np.sqrt(reps)
        assert np.abs(mean - S).max() < tol.max()
        # entry by entry: |H_xy|^2 / S_xy is Exp(1) off the diagonal
        # (variance 1) and chi^2_1 on it (variance 2); zero off the support
        sigma = S * np.where(np.eye(lat.N, dtype=bool), np.sqrt(2), 1.0) \
            / np.sqrt(reps)
        assert np.all(np.abs(mean - S) <= 5 * sigma)
        off = ~np.eye(lat.N, dtype=bool)
        assert np.abs(acc2 / reps)[off].max() < 5 * S.max() / np.sqrt(reps) * 3

    def test_two_point_correlation_matches_profile(self, band_profile,
                                                   band_small):
        lat, band = band_small
        S = band_profile.assemble()
        reps = 2000
        picks = [(0, 3), (2, 7), (10, 10), (0, 24)]
        acc = {p: 0.0 for p in picks}
        for r in range(reps):
            H = dense_H(drawn_rows(band, stream_for(7, r)))
            for p in picks:
                acc[p] += abs(H[p]) ** 2
        for p in picks:
            got = acc[p] / reps
            assert got == pytest.approx(S[p], abs=5 * max(S[p], 0.02)
                                        / np.sqrt(reps))


class TestGreen:
    def test_zero_matrix(self):
        z = 0.3 + 0.5j
        band = dense_band(8)
        gf = green(band, mc.LayerRows(band), z)
        assert np.abs(gf.G + np.eye(8) / z).max() < 1e-14

    def test_imaginary_sign(self, band_small):
        lat, band = band_small
        H = drawn_rows(band, stream_for(3, 0))
        gf = green(band, H, 0.1 + 0.2j)
        assert np.trace(gf.G).imag > 0
        gf2 = green(band, H, 0.1 - 0.2j)
        assert np.trace(gf2.G).imag < 0

    def test_eigen_cross_check(self):
        # solve path against an independent eigendecomposition path
        lat = BlockLattice(d=1, W=4, n=8)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        band = build_band(prof)
        H = drawn_rows(band, stream_for(11, 0))
        z = -0.2 + 0.15j
        gf = green(band, H, z)
        evals, evecs = np.linalg.eigh(dense_H(H))
        G2 = (evecs / (evals - z)) @ evecs.conj().T
        assert np.abs(gf.G - G2).max() < 1e-9

    def test_real_z_rejected(self):
        band = dense_band(4)
        with pytest.raises(ValueError):
            green(band, mc.LayerRows(band), 0.5)

    def test_ward_gate(self, band_small):
        lat, band = band_small
        for r in range(5):
            gf = green(band, drawn_rows(band, stream_for(21, r)), 0.2j)
            assert ward_gate_residual(gf) < 1e-10

    def test_inverse_is_a_solve_against_the_identity(self, monkeypatch):
        # np.linalg.inv runs the same pivoted LU solve as np.linalg.solve
        # against the identity, so G keeps its bits with either
        solve = np.linalg.solve
        for name in sorted(_RING_LATTICES):
            band = _ring_band(name)
            H = drawn_rows(band, stream_for(8, 0))
            for z in (0.1 + 0.2j, -0.7 + 0.05j):
                G = green(band, H, z).G
                with monkeypatch.context() as m:
                    m.setattr(np.linalg, "inv",
                              lambda P: solve(P, np.eye(len(P))))
                    assert green(band, H, z).G.tobytes() == G.tobytes()


class TestSampleObservables:
    def test_block_traces_oracle(self, band_small):
        lat, band = band_small
        gf = green(band, drawn_rows(band, stream_for(9, 0)), 0.5j)
        bt = block_traces(lat, gf.G)
        for a in range(lat.n):
            direct = np.diagonal(gf.G)[block_sites(lat, a)].sum() / lat.W
            assert bt[a] == pytest.approx(direct)

    def test_local_law_zero_matrix(self, band_small):
        # S = 0 samples H = 0, so G = -1/z exactly
        lat, _ = band_small
        z = 0.1 + 0.4j
        m = stieltjes_m(z)
        fn, _ = locallaw_replica_fn(build_band(VarianceProfile(lat, {})), z)
        out = fn(0, stream_for(0, 0))
        assert out["block_residual"].max() == pytest.approx(abs(-1 / z - m))
        assert out["entry_sq"].max() == pytest.approx(abs(-1 / z - m) ** 2)

    def test_entry_sq_is_the_dense_shift(self, band_small):
        # only the diagonal of |G - m I|^2 is shifted, bit for bit
        lat, band = band_small
        z = 0.1 + 0.4j
        fn, _ = locallaw_replica_fn(band, z)
        G = green(band, drawn_rows(band, stream_for(3, 0)), z).G
        dense = np.abs(G - stieltjes_m(z) * np.eye(lat.N)) ** 2
        assert np.array_equal(fn(0, stream_for(3, 0))["entry_sq"], dense)

    def test_eigen_stats_normalization(self, band_small):
        lat, band = band_small
        H = drawn_rows(band, stream_for(13, 0))
        vectors = eigen_stats(band, H, (-2.5, 2.5))
        # every eigenvector is in the window, and each is a unit vector
        assert vectors.shape == (lat.N, lat.N)
        sums = (np.abs(vectors) ** 2).sum(axis=0)
        assert np.abs(sums - 1).max() < 1e-10
        assert sup_norms(vectors).max() <= 1.0

    def test_eigen_stats_diagonal_localized(self):
        lat = BlockLattice(d=1, W=1, n=30)
        prof = mean_field_profile(lat)
        assert np.array_equal(prof.assemble(), np.eye(30))
        band = build_band(prof)
        H = drawn_rows(band, stream_for(14, 0))
        vectors = eigen_stats(band, H, (-1.5, 1.5))
        assert vectors.shape[1] > 0
        assert sup_norms(vectors).min() == pytest.approx(1.0)

    def test_eigen_window_filter(self, band_small):
        lat, band = band_small
        rows = drawn_rows(band, stream_for(15, 0))
        vectors = eigen_stats(band, rows, (-0.5, 0.5))
        H = dense_H(rows)
        # the kept vectors are eigenvectors with eigenvalues in the window
        inside = np.einsum("xk,xy,yk->k", vectors.conj(), H, vectors).real
        assert np.all((inside >= -0.5) & (inside <= 0.5))
        assert np.abs(H @ vectors - vectors * inside).max() < 1e-10
        evals = np.linalg.eigvalsh(H)
        assert vectors.shape[1] == ((evals >= -0.5) & (evals <= 0.5)).sum()

    def test_cross_overlap_identity_sum(self, band_small):
        # summing the QUE overlap matrices over all blocks gives I
        lat, band = band_small
        H = drawn_rows(band, stream_for(16, 0))
        vectors = eigen_stats(band, H, (-1.0, 1.0))
        k = vectors.shape[1]
        total = sum(block_overlap(vectors, lat, a) for a in range(lat.n))
        assert np.abs(total - np.eye(k)).max() < 1e-10

    @pytest.mark.parametrize("window", [(-1.0, 1.0), (-0.2, 0.2)])
    def test_que_overlaps_match_the_per_block_oracle(self, band_small,
                                                     window):
        # the batched product over every block gives the per-block bits
        lat, band = band_small
        fn, _ = que_replica_fn(band, window)
        vectors = eigen_stats(band, drawn_rows(band, stream_for(16, 0)),
                              window)
        k = vectors.shape[1]
        assert k > 0
        target = lat.block_volume / lat.N * np.eye(k)
        dev = max(float(np.abs(block_overlap(vectors, lat, a) - target).max())
                  for a in range(lat.block_count))
        assert fn(0, stream_for(16, 0))["overlap_dev_sq"] == dev**2


class TestDiffusionPredictions:
    def test_block_flat_rank_one_oracle(self):
        # flat blocks: prediction reduces to the n x n block-level inverse
        lat = BlockLattice(d=1, W=4, n=6)
        prof = block_flat_profile(lat, 0.2)
        z = 0.1 + 0.3j
        m = stieltjes_m(z)
        pred_abs2, pred_gg = diffusion_predictions(prof, z)
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

    def test_prediction_is_k2_tensor(self, band_profile, band_small):
        # the block prediction coincides with the order-2 primitive loop
        from bandlab import KLoopCalculator
        lat = band_profile.lattice
        z = 0.2 + 0.4j
        m = stieltjes_m(z)
        pred_abs2, pred_gg = diffusion_predictions(band_profile, z)
        calc = KLoopCalculator(lat, band_profile.blocks, m)
        k2 = calc.k_tensor((1, -1))
        assert np.abs(pred_abs2 - k2.real).max() < 1e-13
        k2pp = calc.k_tensor((1, 1))
        assert np.abs(pred_gg - k2pp).max() < 1e-13


class TestRunEnsemble:
    def test_single_replica_mean(self):
        cfg = SampleConfig(master_seed=5, replicas=1)

        def fn(r, rng):
            return {"x": np.array([1.0, 2.0]), "y": 3.0}

        res = run_ensemble(cfg, fn)
        assert np.array_equal(res.mean("x"), [1.0, 2.0])
        assert res.mean("y") == 3.0

    def test_real_observable_merges_as_reals(self):
        # the first replica's sum and squared modulus, 2 * 8 N^2 bytes; a
        # complex copy on the way would add 16 N^2 more
        N = 400
        x = np.random.default_rng(0).standard_normal((N, N))
        cfg = SampleConfig(master_seed=5, replicas=1, parallelism=1)
        peak = _second_call_peak(run_ensemble,
                                 [(cfg, lambda r, rng: {"x": x})] * 2)
        assert peak < 3 * 8 * N * N
        # a sums-only key keeps its sum alone, 8 N^2 bytes, however many
        # replicas come
        for replicas in (1, 3):
            cfg = SampleConfig(master_seed=5, replicas=replicas)
            peak = _second_call_peak(
                run_ensemble,
                [(cfg, lambda r, rng: {"x": x}, {"x": "sum"})] * 2)
            assert peak < 1.25 * 8 * N * N

    def test_parallel_merge_identical(self, band_small):
        lat, band = band_small
        fn, reducers = locallaw_replica_fn(band, 0.3j)
        res1 = run_ensemble(SampleConfig(master_seed=2, replicas=6,
                                         parallelism=1), fn, reducers)
        res4 = run_ensemble(SampleConfig(master_seed=2, replicas=6,
                                         parallelism=4), fn, reducers)
        assert res1.sums.keys() == res4.sums.keys()
        for key in res1.sums:
            assert np.array_equal(res1.sums[key], res4.sums[key])
        # entry_sq is merged by its sums only
        assert res1.sumsq.keys() == res4.sumsq.keys() == {"block_residual"}
        for key in res1.sumsq:
            assert np.array_equal(res1.sumsq[key], res4.sumsq[key])
        assert res1.values.keys() == res4.values.keys() == {"ward_residual"}
        for key in res1.values:
            assert np.array_equal(res1.values[key], res4.values[key])

    @staticmethod
    def _record(failing=()):
        """A replica_fn that logs, as each replica starts, how many were
        started and not yet consumed; later replicas of each window finish
        first, so a consumer that waited for the whole ensemble or took
        replicas out of order would show."""
        lock = threading.Lock()
        log = {"started": 0, "consumed": 0, "outstanding": []}

        def fn(r, rng):
            with lock:
                log["started"] += 1
                log["outstanding"].append(log["started"] - log["consumed"])
            time.sleep(0.002 * (3 - r % 4))
            if r in failing:
                raise RuntimeError(f"injected failure {r}")
            return {"x": float(r), "r": r}

        return fn, log

    @pytest.mark.parametrize("par", [2, 8])
    def test_merge_is_bounded_and_in_order(self, par):
        fn, log = self._record()
        taken = []
        for r, res in mc._in_order(lambda r: fn(r, None), 24, par):
            log["consumed"] += 1
            taken.append(res["r"])
        assert log["started"] == 24
        assert max(log["outstanding"]) <= 2 * par
        assert taken == list(range(24))
        fn, _ = self._record()
        res = run_ensemble(SampleConfig(master_seed=1, replicas=24,
                                        parallelism=par), fn, {"r": "each"})
        assert res.values["r"].tolist() == list(range(24))
        assert res.completed == 24 and res.mean("x") == 11.5

    def test_failures_merge_in_index_order(self):
        fn, _ = self._record(failing={13, 2, 21})
        res = run_ensemble(SampleConfig(master_seed=1, replicas=24,
                                        parallelism=2), fn, {"r": "each"})
        assert [r for r, _ in res.failures] == [2, 13, 21]
        assert res.failures[0][1] == "RuntimeError: injected failure 2"
        assert res.values["r"].tolist() == [r for r in range(24)
                                            if r not in (2, 13, 21)]

    def test_stderr_scaling(self):
        def fn(r, rng):
            return {"g": rng.standard_normal()}

        r1 = run_ensemble(SampleConfig(master_seed=3, replicas=400), fn)
        r2 = run_ensemble(SampleConfig(master_seed=3, replicas=1600), fn)
        ratio = r1.stderr("g") / r2.stderr("g")
        assert ratio == pytest.approx(2.0, rel=0.25)

    def test_stderr_of_a_sums_only_key_names_it(self):
        def fn(r, rng):
            return {"g": rng.standard_normal(3), "h": float(r)}

        res = run_ensemble(SampleConfig(master_seed=3, replicas=4), fn,
                           {"g": "sum"})
        assert set(res.sumsq) == {"h"}
        assert res.mean("g").shape == (3,)
        with pytest.raises(ValueError, match="'g' was merged by its sums"):
            res.stderr("g")
        assert res.stderr("h") > 0

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

    def test_each_reducer(self):
        # every completed replica's value in replica order: a NaN keeps
        # its place, a failed replica leaves none, and nothing is summed
        def fn(r, rng):
            if r == 2:
                raise RuntimeError("boom")
            return {"m": np.nan if r == 1 else float(r)}

        res = run_ensemble(SampleConfig(master_seed=1, replicas=5), fn,
                           reducers={"m": "each"})
        assert res.completed == 4 and res.sums == {}
        np.testing.assert_array_equal(res.values["m"], [0.0, np.nan, 3, 4])
        assert np.isnan(res.values["m"].max())

    def test_each_arrays_match_across_parallelism(self, band_small):
        lat, band = band_small
        fn, red = que_replica_fn(band, (-0.3, 0.3))
        runs = [run_ensemble(SampleConfig(master_seed=6, replicas=7,
                                          parallelism=par), fn, red).values
                for par in (1, 2, 8)]
        assert runs[0]["window_count"].shape == (7,)
        for other in runs[1:]:
            assert other.keys() == runs[0].keys() \
                == {"overlap_dev_sq", "window_count"}
            for key in other:
                assert other[key].dtype == runs[0][key].dtype
                assert np.array_equal(other[key], runs[0][key])

    def test_deloc_and_que_replicas_run(self, band_small):
        lat, band = band_small
        fn, red = deloc_replica_fn(band, (-1.5, 1.5))
        res = run_ensemble(SampleConfig(master_seed=10, replicas=2), fn, red)
        assert res.values["sup_norm_sq"].shape == (2,)
        assert 0 < res.values["sup_norm_sq"].max() <= 1
        assert (res.values["window_count"] > 0).all()
        fn, red = que_replica_fn(band, (-0.2, 0.2))
        res = run_ensemble(SampleConfig(master_seed=10, replicas=2), fn, red)
        assert (res.values["overlap_dev_sq"] >= 0).all()

    def test_diffusion_mean_tracks_prediction(self, band_profile, band_small):
        lat, band = band_small
        pred_abs2, _ = diffusion_predictions(band_profile, 0.5j)
        fn, red = diffusion_replica_fn(band, 0.5j)
        res = run_ensemble(SampleConfig(master_seed=3, replicas=20), fn, red)
        assert res.failures == []
        assert res.values["ward_residual"].max() <= 1e-10
        mean_abs2 = res.mean("abs2").real
        assert mean_abs2.shape == res.stderr("gg").shape == (5, 5)
        # the MC mean tracks the prediction at this eta within a few percent
        relative = np.abs(mean_abs2 - pred_abs2) / pred_abs2.max()
        assert relative.max() < 0.1

    @pytest.mark.parametrize("model", [(1, 33, 15, 1), (2, 3, 5, 1)])
    def test_gg_projection_is_the_dense_one_bit_for_bit(self, model):
        # diffusion projects G o G^T block row by block row; the dense
        # product is the oracle, on the README band and on a d = 2 band
        band = _band_of(model)
        G = green(band, drawn_rows(band, stream_for(20260809, 0)), 0.2j).G
        assert mc._project_gg(band, G).tobytes() == \
            project_matrix(band.lattice, G * G.T).tobytes()

    def test_diffusion_replica_shapes(self, band_small):
        lat, band = band_small
        fn, red = diffusion_replica_fn(band, 0.5j)
        out = fn(0, stream_for(1, 0))
        assert out["abs2"].shape == (5, 5)
        assert out["gg"].shape == (5, 5)
        assert out["ward_residual"] <= 1e-10


class TestAdjointConsistency:
    def test_green_conjugate_z(self, band_small):
        # G(conj z) equals the adjoint of G(z) for Hermitian H
        lat, band = band_small
        H = drawn_rows(band, stream_for(41, 0))
        z = 0.4 + 0.3j
        g1 = green(band, H, z)
        g2 = green(band, H, np.conj(z))
        assert np.abs(g2.G - g1.G.conj().T).max() < 1e-11


class TestTwoDimensional:
    def test_estimators_on_2d_lattice(self):
        lat = BlockLattice(d=2, W=3, n=3)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        band = build_band(prof)
        rows = drawn_rows(band, stream_for(55, 0))
        H = dense_H(rows)
        assert np.array_equal(H, H.conj().T)
        gf = green(band, rows, 0.1 + 0.4j)
        assert ward_gate_residual(gf) < 1e-10
        bt = block_traces(lat, gf.G)
        assert bt.shape == (9,)
        for a in (0, 4, 8):
            direct = np.diagonal(gf.G)[block_sites(lat, a)].sum() / 9
            assert bt[a] == pytest.approx(direct)
        vectors = eigen_stats(band, rows, (-1.5, 1.5))
        total = sum(block_overlap(vectors, lat, a)
                    for a in range(lat.block_count))
        assert np.abs(total - np.eye(vectors.shape[1])).max() < 1e-10
        pred_abs2, pred_gg = diffusion_predictions(prof, 0.1 + 0.4j)
        assert pred_abs2.shape == (9, 9)
        # per-pair block sums against a direct double loop
        from bandlab.montecarlo import diffusion_replica_fn
        fn, red = diffusion_replica_fn(band, 0.1 + 0.4j)
        out = fn(0, stream_for(55, 0))
        a, b = 2, 7
        direct = sum(abs(gf.G[x, y]) ** 2
                     for x in block_sites(lat, a)
                     for y in block_sites(lat, b)) / 81
        assert out["abs2"][a, b] == pytest.approx(direct)


class TestLocalLawScaling:
    def test_doubling_eta_keeps_normalized_residual_order_one(self):
        # the predicted scale 1/(W^d ell^d eta) absorbs the eta dependence
        lat = BlockLattice(d=1, W=15, n=9)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        band = build_band(prof)
        from bandlab import interaction_strength
        lam = np.sqrt(interaction_strength(prof))
        normalized = {}
        for eta in (0.2, 0.4):
            z = complex(0.0, eta)
            fn, red = locallaw_replica_fn(band, z)
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
        band = build_band(prof)
        z = 0.0 + 0.5j
        m = stieltjes_m(z)
        K3 = KLoopCalculator(lat, prof.blocks, m).k_tensor((1, -1, 1))
        triples = [(0, 0, 0), (0, 1, 2), (0, 2, 4), (1, 1, 3)]
        reps = 1200
        acc = {tr: 0j for tr in triples}
        acc2 = {tr: 0.0 for tr in triples}
        rows = mc.LayerRows(band)
        for r in range(reps):
            gf = green(band, sample_H(band, stream_for(314, r), out=rows), z)
            mats = (gf.G, gf.G.conj().T, gf.G)
            for tr in triples:
                # W^-3 tr(G E_a G^* E_b G E_c) through the block slices
                blocks = [block_sites(lat, a) for a in tr]
                prod = mats[0][np.ix_(blocks[-1], blocks[0])]
                for i in (1, 2):
                    prod = prod @ mats[i][np.ix_(blocks[i - 1], blocks[i])]
                v = complex(np.trace(prod) / lat.block_volume**3)
                acc[tr] += v
                acc2[tr] += abs(v) ** 2
        for tr in triples:
            mean = acc[tr] / reps
            se = np.sqrt((acc2[tr] / reps - abs(mean) ** 2) / reps)
            tol = 5 * se + 0.02 * abs(K3[tr]) + 1e-7
            assert abs(mean - K3[tr]) <= tol, (tr, abs(mean - K3[tr]), tol)


def _band_of(model):
    """The band of a uniform profile at (d, W, n, cutoff)."""
    d, W, n, cutoff = model
    return build_band(build_translation_invariant(
        BlockLattice(d=d, W=W, n=n), KERNELS["uniform"], cutoff))


def _runs(H, wd, a):
    """Block a's runs in the dense H: the runs of consecutive blocks that its
    block row couples to, as site offsets (lo, hi) from its first site."""
    b = np.flatnonzero(H[a * wd:(a + 1) * wd].reshape(wd, -1, wd).any(
        axis=(0, 2)))
    return [(wd * int(r[0] - a), wd * int(r[-1] + 1 - a))
            for r in np.split(b, np.flatnonzero(np.diff(b) != 1) + 1)]


def _dense_green(H, z):
    """The dense oracle of ``green``: one N x N LU against N columns."""
    N = H.shape[0]
    return np.linalg.solve(H - z * np.eye(N), np.eye(N, dtype=complex))


def _dense_residual(H, G, z):
    """The dense oracle of the block residual."""
    N = H.shape[0]
    A = H - z * np.eye(N)
    return float(np.abs(A @ G - np.eye(N)).max() / max(1.0, np.abs(G).max()))


def _philox_words(rng):
    """64-bit Philox outputs consumed so far: 4 * counter + buffer position
    differs from the draw count by a constant."""
    state = rng.bit_generator.state
    counter = sum(int(v) << (64 * i)
                  for i, v in enumerate(state["state"]["counter"]))
    return 4 * counter + int(state["buffer_pos"])


# (d, W, n, cutoff) of a uniform profile, or None for the one-block
# lattice of dense_band(6), and the layer cuts the band takes for them
_RING_LATTICES = {
    "d1-readme": ((1, 33, 15, 1), tuple(range(0, 496, 33))),
    "d1-W3-n4": ((1, 3, 4, 1), (0, 3, 6, 9, 12)),
    "d1-reach2-uneven": ((1, 4, 7, 2), (0, 12, 20, 28)),
    # layer rows of widths 21, 21, 18 and 21: the plan reads a block's
    # runs at the width of its own layer's rows
    "d1-reach2-four-uneven": ((1, 3, 9, 2), (0, 9, 15, 21, 27)),
    "d1-ring-of-3": ((1, 5, 3, 1), (0, 5, 10, 15)),
    "d2-W3-n3": ((2, 3, 3, 1), (0, 27, 54, 81)),
    "d2-W3-n5": ((2, 3, 5, 2), (0, 135, 225)),
    "d2-W3-n5-five-layers": ((2, 3, 5, 1), (0, 45, 90, 135, 180, 225)),
    "one-layer": (None, (0, 6)),
}


class TestBandHotPath:
    @pytest.mark.parametrize("name", sorted(_RING_LATTICES))
    def test_ring_green_matches_dense_solve(self, name):
        band = _ring_band(name)
        assert band.cuts == _RING_LATTICES[name][1]
        for r, z in enumerate((0.1 + 0.2j, -0.7 + 0.05j)):
            H = drawn_rows(band, stream_for(8, r))
            gf = green(band, H, z)
            dense = dense_H(H)
            assert np.abs(gf.G - _dense_green(dense, z)).max() < 1e-12
            assert abs(gf.residual - _dense_residual(dense, gf.G, z)) < 1e-14

    def test_block_residual_sees_every_entry(self):
        # a wrong entry anywhere in G shows in the block residual as in the
        # dense one: anywhere, in the ring-wrap couplings of block 0 with
        # block n^d - 1 and back, and in the rows of every run of block
        # 0; (d, W, n, cutoff), those runs, and the entries
        cases = [((1, 5, 5, 1), [(0, 10), (20, 25)],
                  [(0, 0), (3, 21), (24, 7), (2, 22), (22, 2)]),
                 ((2, 3, 5, 2), [(0, 108), (126, 153), (171, 225)],
                  [(0, 0), (4, 220), (220, 4), (137, 5), (184, 200)])]
        for (d, W, n, cutoff), runs, entries in cases:
            band = build_band(build_translation_invariant(
                BlockLattice(d=d, W=W, n=n), KERNELS["uniform"], cutoff))
            H = drawn_rows(band, stream_for(8, 0))
            assert _runs(dense_H(H), band.lattice.block_volume, 0) == runs
            G = green(band, H, 0.2j).G
            for x, y in entries:
                bad = G.copy()
                bad[x, y] += 1e-6
                res = mc.GreenFunction(
                    z=0.2j, G=bad,
                    peak=mc._residual_peak(band, H, bad, 0.2j)).residual
                assert res > 1e-7
                assert abs(res - _dense_residual(dense_H(H), bad, 0.2j)) \
                    < 1e-14

    @pytest.mark.parametrize("which", ["first", "middle", "closure"])
    def test_one_corrupted_pivot_fails_the_solve(self, band_small,
                                                 monkeypatch, which):
        # failing control: one pivot inverse off by a relative 1e-6 (the
        # first chain pivot, a middle one, or the closure's S) trips
        # green's residual gate
        lat, band = band_small
        layers = len(band.cuts) - 1
        bad = {"first": 0, "middle": layers // 2, "closure": layers - 1}[which]
        inverse, calls = np.linalg.inv, []

        def corrupt(P):
            calls.append(P)
            return inverse(P) * (1 + 1e-6 * (len(calls) - 1 == bad))

        monkeypatch.setattr(np.linalg, "inv", corrupt)
        with pytest.raises(GreenSolveError, match="resolvent residual"):
            green(band, drawn_rows(band, stream_for(8, 0)), 0.2j)
        # one inverse per layer: the chain pivots in order, then S
        assert [len(P) for P in calls] == list(np.diff(band.cuts))

    def test_nan_H_raises(self, band_small):
        lat, band = band_small
        H = mc.LayerRows(band)
        H.data[:] = np.nan
        with pytest.raises(GreenSolveError):
            green(band, H, 0.2j)

    @pytest.mark.parametrize("factory", [locallaw_replica_fn,
                                         diffusion_replica_fn])
    def test_nan_ward_residual_is_a_violation(self, factory, band_small,
                                              monkeypatch):
        # the command gates every replica's residual, so a NaN must keep
        # its replica's place whatever its neighbours hold
        lat, band = band_small
        residuals = iter([1e-16, np.nan, 1e-16])
        monkeypatch.setattr(mc, "ward_gate_residual",
                            lambda gf: next(residuals))
        res = run_ensemble(SampleConfig(master_seed=1, replicas=3),
                           *factory(band, 0.5j))
        assert res.completed == 3
        assert np.isnan(res.values["ward_residual"]).tolist() == [False, True,
                                                                  False]
        assert np.isnan(res.values["ward_residual"].max())

    @pytest.mark.parametrize("name, block", [(None, 2), (None, 4),
                                             ("d2-W3-n5", 22)])
    def test_one_nan_entry_of_G_fails(self, band_small, monkeypatch, name,
                                      block):
        # one NaN entry of G, with H finite: in an interior block row (2)
        # or a ring-wrap one (4) of the d = 1 band_small, and at d = 2 in a
        # block row that only a block's second or later run reads (22).
        # The block residual is NaN, and green's gate raises on it
        band = band_small[1] if name is None else _ring_band(name)
        wd = band.lattice.block_volume
        if name is not None:
            assert all(not lo <= (block - x // wd) * wd < hi
                       for x, _, _, ((lo, hi, _), *_) in band.plan)
        H = drawn_rows(band, stream_for(8, 0))
        x = block * wd + 1
        G = green(band, H, 0.2j).G.copy()
        G[x, 7] = np.nan
        assert np.isnan(mc.GreenFunction(
            z=0.2j, G=G, peak=mc._residual_peak(band, H, G, 0.2j)).residual)
        peak = mc._residual_peak

        def poisoned(band, H, G, z):
            G[x, 7] = np.nan
            return peak(band, H, G, z)

        monkeypatch.setattr(mc, "_residual_peak", poisoned)
        with pytest.raises(GreenSolveError, match="residual nan"):
            green(band, H, 0.2j)

    @pytest.mark.parametrize("name", sorted(_RING_LATTICES))
    def test_plan_reads_each_block_row_once(self, name):
        # the residual's plan takes every block once, in order, with that
        # block's runs in the dense H; each run's slice of the layer rows
        # is the block row's columns there, and the runs hold all of it
        band = _ring_band(name)
        wd = band.lattice.block_volume
        H = drawn_rows(band, stream_for(8, 0))
        dense = dense_H(H)
        assert [x for x, *_ in band.plan] == list(range(0, band.lattice.N,
                                                         wd))
        for x, i, row, runs in band.plan:
            assert [(lo, hi) for lo, hi, _ in runs] == _runs(dense, wd,
                                                             x // wd)
            block = dense[x:x + wd].copy()
            for lo, hi, col in runs:
                assert H.rows[i][row:row + wd, col:col + hi - lo].tobytes() \
                    == block[:, x + lo:x + hi].tobytes()
                block[:, x + lo:x + hi] = 0
            assert (block == 0).all()

    @pytest.mark.parametrize("model, plan", [
        # the README band, one block a layer: block a reads blocks a - 1
        # to a + 1 as one run from column 0 of its layer's rows, and the
        # ring-wrap blocks 0 and 14 read two runs, the wrapped one where
        # their layer's rows hold it
        ((1, 33, 15, 1),
         ((0, 0, 0, ((0, 66, 0), (462, 495, 66))),)
         + tuple((33 * a, a, 0, ((-33, 66, 0),)) for a in range(1, 14))
         + ((462, 14, 0, ((-462, -429, 0), (-33, 33, 33))),)),
        ((1, 3, 4, 1),
         ((0, 0, 0, ((0, 6, 0), (9, 12, 6))), (3, 1, 0, ((-3, 6, 0),)),
          (6, 2, 0, ((-3, 6, 0),)), (9, 3, 0, ((-9, -6, 0), (-3, 3, 3))))),
        # a ring of 3: every block reads the whole ring as one run
        ((1, 5, 3, 1),
         ((0, 0, 0, ((0, 15, 0),)), (5, 1, 0, ((-5, 10, 0),)),
          (10, 2, 0, ((-10, 5, 0),)))),
        # layers of 3, 2 and 2 blocks, each layer's rows all 28 sites in
        # order: a block's row is its place in its layer, and a run's
        # column is its first site
        ((1, 4, 7, 2),
         ((0, 0, 0, ((0, 12, 0), (20, 28, 20))),
          (4, 0, 4, ((-4, 12, 0), (20, 24, 24))),
          (8, 0, 8, ((-8, 12, 0),)), (12, 1, 0, ((-8, 12, 4),)),
          (16, 1, 4, ((-8, 12, 8),)),
          (20, 2, 0, ((-20, -16, 0), (-8, 8, 12))),
          (24, 2, 4, ((-24, -16, 0), (-8, 4, 16))))),
    ])
    def test_plan_of_known_bands(self, model, plan):
        # (x, layer, row, ((lo, hi, col), ...)) of each block, by hand
        assert _band_of(model).plan == plan

    def test_readme_config_draws_only_the_support(self):
        lat = BlockLattice(d=1, W=33, n=15)
        band = build_band(build_translation_invariant(
            lat, KERNELS["uniform"], 1))
        rng = stream_for(20260809, 0)
        start = _philox_words(rng)
        drawn_rows(band, rng)
        words = _philox_words(rng) - start
        # 67 sites within distance 33 of each site: 495 * 66 / 2 pairs
        assert band.rows.size == 16335
        assert words <= 1.05 * (2 * band.rows.size + lat.N)
        # the dense sampler drew 2 N^2 + N
        assert words < (2 * lat.N ** 2 + lat.N) / 10


class TestLayerRows:
    """H as its layer rows, as every replica keeps it."""

    @pytest.mark.parametrize("name", sorted(_RING_LATTICES))
    def test_layer_row_draw_equals_the_dense_draw(self, name):
        # entry by entry on every block of a layer with itself and its ring
        # neighbours, and the dense draw holds nothing outside those blocks
        band = _ring_band(name)
        cuts = band.cuts
        H = dense_draw(band, stream_for(8, 0))
        rows = drawn_rows(band, stream_for(8, 0))
        covered = np.zeros(H.shape, dtype=bool)
        for i, spans in enumerate(band.spans):
            lay = slice(cuts[i], cuts[i + 1])
            assert rows.rows[i].shape == (lay.stop - lay.start,
                                          sum(s.stop - s.start
                                              for s in spans.values()))
            for j in spans:
                other = slice(cuts[j], cuts[j + 1])
                assert rows.block(i, j).tobytes() == H[lay, other].tobytes()
                covered[lay, other] = True
        assert (H[~covered] == 0).all()

    @pytest.mark.parametrize("name", sorted(_RING_LATTICES))
    def test_green_on_layer_rows_matches_the_dense_oracle(self, name):
        # green reads the blocks A_ij as views of the layer rows, and
        # restores their diagonal bit for bit
        band = _ring_band(name)
        for r, z in enumerate((0.1 + 0.2j, -0.7 + 0.05j)):
            H = dense_draw(band, stream_for(8, r))
            rows = drawn_rows(band, stream_for(8, r))
            before = rows.data.tobytes()
            gf = green(band, rows, z)
            assert rows.data.tobytes() == before
            assert np.abs(gf.G - _dense_green(H, z)).max() < 1e-12
            assert abs(gf.residual - _dense_residual(H, gf.G, z)) < 1e-14

    @pytest.mark.parametrize("model, widths, size", [
        # 15 layers of 33 sites over 99 columns: a fifth of N x N
        ((1, 33, 15, 1), (99,) * 15, 495 ** 2 // 5),
        # layers of 675, 450, 450 and 450 sites: 3/4 of N x N
        ((2, 5, 9, 2), (1575, 1575, 1350, 1575), 3088125),
    ])
    def test_reference_configs_keep_a_fraction_of_n_by_n(self, model,
                                                         widths, size):
        band = _band_of(model)
        assert band.width == widths
        assert band.size == size == sum(
            w * (hi - lo) for w, lo, hi in zip(widths, band.cuts,
                                               band.cuts[1:]))

    @pytest.mark.parametrize("name", sorted(_RING_LATTICES))
    def test_product_matches_the_dense_product(self, name):
        # one gathered product per layer, also where a ring of one, two or
        # three layers makes a layer's neighbours collapse, and H untouched
        band = _ring_band(name)
        H = drawn_rows(band, stream_for(8, 0))
        before = H.data.tobytes()
        V = np.random.default_rng(4).standard_normal(
            (band.lattice.N, 12)).view(complex)
        dense = dense_H(H)
        for X in (V, V[:, 0]):
            assert np.abs(H @ X - dense @ X).max() < 1e-13
        assert H.data.tobytes() == before


# C-level calls of one README-config replica after its thread's first, as
# sys.setprofile sees them (c_call events: builtins and methods of C
# types; ufunc calls are not among them), with numpy 2.4.6 and the garbage
# collector paused around the counted call, so that no other object's
# finalizer is counted. Each small call hands the GIL to the other worker
# threads, so no change may add any: each cap is its replica's count plus
# 3. locallaw's replica makes 285 calls, diffusion's 313, deloc's replica 1
# 375, and que's replica 3, whose window holds one pair, 1134. A failure
# names the five lines that made the most calls.
_REPLICA_C_CALLS = {"locallaw": 288, "diffusion": 316, "deloc": 378,
                    "que": 1137}


@pytest.mark.parametrize("command", sorted(_REPLICA_C_CALLS))
def test_replica_numpy_calls_do_not_grow(command):
    profile = _readme_profile()
    band = build_band(profile)
    fn, _ = {
        "locallaw": lambda: locallaw_replica_fn(band, 0.1j),
        "diffusion": lambda: diffusion_replica_fn(band, 0.1j),
        "deloc": lambda: deloc_replica_fn(band, (-1.5, 1.5)),
        "que": lambda: que_replica_fn(band, que_window(profile, 0.0, 0.1)[0]),
    }[command]()
    first, second = (2, 3) if command == "que" else (0, 1)
    calls = []

    def count(frame, event, arg):
        if event == "c_call":
            calls.append((frame.f_code, frame.f_lineno))

    with mc._single_threaded_blas():
        fn(first, stream_for(20260809, first))
        gc.collect()
        gc.disable()
        sys.setprofile(count)
        try:
            out = fn(second, stream_for(20260809, second))
        finally:
            sys.setprofile(None)
            gc.enable()
    busiest = [f"{code.co_filename}:{line} {code.co_name}: {n}"
               for (code, line), n in Counter(calls).most_common(5)]
    assert 0 < len(calls) <= _REPLICA_C_CALLS[command], \
        f"{len(calls)} C calls; the most from\n" + "\n".join(busiest)
    if command == "que":
        assert out["window_count"] == 1


class TestWorkerBuffers:
    """sample_H, green and eigen_stats on caller buffers, as the replicas
    run them: H's layer rows per worker thread, and G or the eigen
    buffers."""

    @pytest.mark.parametrize("factory", [
        lambda band: locallaw_replica_fn(band, 0.2j),
        lambda band: deloc_replica_fn(band, (-1.5, 1.5))],
        ids=["locallaw", "deloc"])
    def test_thread_keeps_layer_rows_for_their_band_only(self, factory):
        # two bands of N = 495 with different supports, alternated on one
        # thread: each replica equals, bit for bit, the same replica on a
        # fresh thread, which layer rows kept by N would not give
        fns = [factory(_band_of((1, 33, 15, 1)))[0],
               factory(_band_of((1, 11, 45, 1)))[0]]

        def on_thread(calls):
            out = []
            thread = threading.Thread(target=lambda: out.extend(
                {key: np.asarray(val).tobytes()
                 for key, val in fn(r, stream_for(9, r)).items()}
                for fn, r in calls))
            with mc._single_threaded_blas():
                thread.start()
                thread.join(timeout=120)
            assert not thread.is_alive()
            return out

        calls = [(fn, r) for r in (0, 1) for fn in fns]
        assert on_thread(calls) == [on_thread([c])[0] for c in calls]

    def test_sample_H_writes_only_the_support_and_diagonal(self,
                                                           band_profile,
                                                           band_small):
        lat, band = band_small
        buf = mc.LayerRows(band)
        buf.data[:] = 7.0
        assert sample_H(band, stream_for(5, 0), out=buf) is buf
        # the entries that the layer rows hold off the band keep their 7
        held = mc.LayerRows(band)
        held.data[:] = 1.0
        S = band_profile.assemble()
        off_band = (dense_H(held) == 1.0) & (S == 0) \
            & ~np.eye(lat.N, dtype=bool)
        assert off_band.any() and (dense_H(buf)[off_band] == 7.0).all()

    def test_sample_H_into_a_used_buffer_is_a_fresh_draw(self, band_small):
        lat, band = band_small
        buf = mc.LayerRows(band)
        sample_H(band, stream_for(5, 0), out=buf)
        H = sample_H(band, stream_for(5, 1), out=buf)
        assert H is buf
        assert H.data.tobytes() == \
            drawn_rows(band, stream_for(5, 1)).data.tobytes()

    @pytest.mark.parametrize("name", sorted(_RING_LATTICES))
    def test_green_into_a_buffer_is_bitwise_green(self, name):
        band = _ring_band(name)
        N = band.lattice.N
        H = drawn_rows(band, stream_for(8, 0))
        # NaN everywhere: every entry of G must be written
        G = np.full((N, N), np.nan, dtype=complex)
        gf = green(band, H, 0.1 + 0.2j, out=G)
        assert gf.G is G
        assert G.tobytes() == green(band, H, 0.1 + 0.2j).G.tobytes()

    @pytest.mark.parametrize("factory", [locallaw_replica_fn,
                                         diffusion_replica_fn])
    def test_observables_do_not_alias_the_buffers(self, band_small, factory):
        lat, band = band_small
        fn, _ = factory(band, 0.3 + 0.2j)
        first = fn(0, stream_for(6, 0))
        kept = {k: np.array(v, copy=True) for k, v in first.items()}
        fn(1, stream_for(6, 1))
        for key, val in first.items():
            assert np.asarray(val).tobytes() == kept[key].tobytes()

    @pytest.mark.parametrize("factory", [locallaw_replica_fn,
                                         diffusion_replica_fn])
    def test_merges_match_across_parallelism(self, band_small, factory):
        # replicas on reused buffers give the merge of replicas each run on
        # fresh ones, at any worker count; a short switch interval makes
        # the workers interleave, which a buffer shared between them
        # would not survive
        lat, band = band_small
        z, replicas = 0.3 + 0.2j, 9
        fresh = [factory(band, z)[0](r, stream_for(6, r))
                 for r in range(replicas)]
        fn, red = factory(band, z)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = [run_ensemble(SampleConfig(master_seed=6,
                                              replicas=replicas,
                                              parallelism=par), fn, red)
                    for par in (1, 2, 8)]
        finally:
            sys.setswitchinterval(interval)
        for res in runs:
            for key, how in red.items():
                if how == "each":
                    want = np.array([f[key] for f in fresh])
                    assert res.values[key].tobytes() == want.tobytes()
                else:
                    want = np.asarray(fresh[0][key], dtype=res.sums[key].dtype)
                    for f in fresh[1:]:
                        want = want + f[key]
                    assert res.sums[key].tobytes() == want.tobytes()

    def test_locallaw_replica_allocates_its_entry_sq_and_a_block_row(self):
        # the thread's H and G are allocated by its first replica; a later
        # one allocates the N x N reals of |G|^2, which it returns as
        # entry_sq, and less than one W^d x N complex block row besides
        band = build_band(_readme_profile())
        lat = band.lattice
        N = lat.N
        fn, _ = locallaw_replica_fn(band, 0.2j)
        peak = _second_call_peak(fn, [(r, stream_for(20260809, r))
                                      for r in (0, 1)])
        assert peak < N * N * 8 + lat.block_volume * N * 16

    @pytest.mark.parametrize("factory", [locallaw_replica_fn,
                                         diffusion_replica_fn])
    def test_worker_keeps_G_layer_rows_and_scratch_but_no_dense_H(self,
                                                                  factory):
        # what a worker's first replica leaves allocated is its G, H's
        # layer rows and the scratch buffer, with 64 KiB for small caches:
        # an N x N H would not fit in that slack
        band = build_band(_readme_profile())
        lat = band.lattice
        N, wd = lat.N, lat.block_volume
        fn, _ = factory(band, 0.2j)
        rows = 16 * band.size
        assert rows == 16 * 15 * 33 * 99
        slack = rows + 16 * mc._CHUNK_BLOCKS * wd * N + 64 * 1024
        assert slack < 16 * N * N
        assert _first_replica(fn)[0] < 16 * N * N + slack

    @pytest.mark.parametrize("command", ["deloc", "que"])
    def test_eigen_worker_keeps_layer_rows(self, command):
        # an eigen worker's first replica leaves H's layer rows allocated,
        # and deloc's scratch buffer, in which it takes the sup-norm, and
        # zheevr buffers besides: its N x N input a and eigenvectors z, N
        # reals and 2 N integers. que's replica 3 holds one pair, so its
        # window runs shift-invert, and that replica allocates no N x N
        # complex array at all
        profile = _readme_profile()
        band = build_band(profile)
        N, wd = band.lattice.N, band.lattice.block_volume
        kept = 16 * band.size
        if command == "deloc":
            fn, _ = deloc_replica_fn(band, (-1.5, 1.5))
            replica = 0
            kept += 16 * mc._CHUNK_BLOCKS * wd * N + 2 * 16 * N * N
        else:
            fn, _ = que_replica_fn(band, que_window(profile, 0.0, 0.1)[0])
            replica = 3
            assert fn(3, stream_for(20260809, 3))["window_count"] == 1
        left, peak = _first_replica(fn, replica)
        assert kept <= left < kept + 64 * 1024
        if command == "que":
            assert peak < 16 * N * N

    @pytest.mark.parametrize("command", ["deloc", "que"])
    def test_eigen_replica_peak_stays_below_one_n_by_n(self, command):
        # after the thread's first replica, deloc and que draw into the
        # thread's H, and deloc's zheevr writes into the thread's buffers:
        # neither allocates an N x N array.
        # que's replica 3 holds one pair in its window
        profile = _readme_profile()
        band = build_band(profile)
        N = band.lattice.N
        if command == "deloc":
            fn, _ = deloc_replica_fn(band, (-1.5, 1.5))
            replicas = (0, 1)
        else:
            fn, _ = que_replica_fn(band, que_window(profile, 0.0, 0.1)[0])
            replicas = (2, 3)
        peak = _second_call_peak(fn, [(r, stream_for(20260809, r))
                                      for r in replicas])
        assert peak < N * N * 16
        if command == "que":
            assert fn(3, stream_for(20260809, 3))["window_count"] == 1

    def test_deloc_replica_on_an_overwritten_buffer_is_a_fresh_draw(
            self, band_small):
        # zheevr leaves garbage above the diagonal of the thread's input
        # buffer, off the band too; each replica on that buffer gives the
        # bits of the same replica run on a fresh thread's buffers
        lat, band = band_small
        fn, _ = deloc_replica_fn(band, (-1.5, 1.5))
        for r in range(4):
            reused = fn(r, stream_for(7, r))
            fresh = []
            worker = threading.Thread(target=lambda: fresh.append(
                deloc_replica_fn(band, (-1.5, 1.5))[0](r, stream_for(7, r))))
            worker.start()
            worker.join()
            assert reused == fresh[0]
            assert reused["window_count"] > 0

    def test_green_peak_stays_below_two_block_rows(self):
        # after the thread's first call, green on layer rows into a buffer
        # allocates less than 2 W^d N complex numbers (1.48 measured): the
        # ring closure and the block residual run through the thread's
        # W^d x N buffers, and H's diagonal is shifted in its own storage
        band = build_band(_readme_profile())
        lat = band.lattice
        H = drawn_rows(band, stream_for(20260809, 0))
        G = np.empty((lat.N, lat.N), dtype=complex)
        peak = _second_call_peak(green, [(band, H, 0.2j, G)] * 2)
        assert peak < 2 * lat.block_volume * lat.N * 16


def _first_replica(fn, replica=0):
    """(bytes still allocated after fn(replica, rng), its result dropped,
    peak bytes during the call), on a fresh thread on one BLAS thread,
    taken before the thread ends and its buffers with it. A first thread
    runs it untraced, so that what the process makes once (numpy's lazy
    imports, bandlab's caches) is made."""
    seen = []

    def run():
        with mc._single_threaded_blas():
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                fn(replica, stream_for(20260809, replica))
                after, peak = tracemalloc.get_traced_memory()
                seen.append((after - before, peak - before))
            finally:
                if started:
                    tracemalloc.stop()

    for target in (lambda: fn(replica, stream_for(20260809, replica)), run):
        worker = threading.Thread(target=target)
        worker.start()
        worker.join()
    return seen[0]


def _second_call_peak(fn, args):
    """Peak bytes tracemalloc sees in fn(*args[1]), on one BLAS thread,
    after an untraced fn(*args[0]) on the same thread."""
    with mc._single_threaded_blas():
        fn(*args[0])
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            fn(*args[1])
            return tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()


def _readme_profile():
    lat = BlockLattice(d=1, W=33, n=15)
    return build_translation_invariant(lat, KERNELS["uniform"], 1)


def _que_deviations(band, vectors):
    """|sum_{x in [a]} conj(u_i) u_j - share delta_ij| of every block; they
    do not depend on the eigenvectors' phases."""
    lat = band.lattice
    U = vectors.reshape(lat.block_count, lat.block_volume, -1)
    share = lat.block_volume / lat.N
    return np.abs(U.conj().transpose(0, 2, 1) @ U
                  - share * np.eye(vectors.shape[1]))


def _window_stats(band, H, window, all_pairs=None):
    """eigen_stats of H's layer rows on the solver that the crossover picks
    (``all_pairs`` None), or forced through the crossover share: every pair
    by zheevr (True) or shift-invert (False)."""
    with pytest.MonkeyPatch.context() as mp:
        if all_pairs is not None:
            mp.setattr(mc, "_ALL_PAIRS_SHARE", 0.0 if all_pairs else 1.0)
        return eigen_stats(band, H, window)


def _assert_matches_eigh(band, rows, window, all_pairs):
    """A window's pairs against the full np.linalg.eigh on a closed window:
    equal counts, and eigenvalues (the Rayleigh quotients of the vectors),
    sup-norms and que deviations to 1e-12; the layer rows stay as drawn."""
    H, drawn = dense_H(rows), rows.data.tobytes()
    evals, evecs = np.linalg.eigh(H)
    inside = (evals >= window[0]) & (evals <= window[1])
    ref = evecs[:, inside]
    vectors = _window_stats(band, rows, window, all_pairs)
    assert rows.data.tobytes() == drawn
    assert vectors.shape == ref.shape
    quotients = np.einsum("xk,xy,yk->k", vectors.conj(), H, vectors).real
    assert np.abs(quotients - evals[inside]).max(initial=0) < 1e-12
    assert np.abs(sup_norms(vectors)
                  - sup_norms(ref)).max(initial=0) < 1e-12
    assert np.abs(_que_deviations(band, vectors)
                  - _que_deviations(band, ref)).max(initial=0) < 1e-12
    return ref.shape[1]


needs_zheevr = pytest.mark.skipif(
    mc._openblas() is None or mc._openblas().zheevr is None,
    reason="numpy's OpenBLAS has no LAPACKE_zheevr")


class TestEigenSolver:
    """Both solvers of eigen_stats against np.linalg.eigh, their oracle:
    zheevr's every pair (``all_pairs``) and shift-invert on the layer
    ring, each forced through the crossover share, and the crossover
    rule that picks between them."""

    @pytest.mark.parametrize("seed", [20260809, 1, 2])
    def test_readme_config_windows(self, seed):
        profile = _readme_profile()
        band = build_band(profile)
        H = drawn_rows(band, stream_for(seed, 0))
        # deloc's window holds most of the spectrum, que's about one
        # eigenvalue; que_epsilon = -1 widens it to about 22
        assert _assert_matches_eigh(band, H, (-1.5, 1.5), True) > 400
        narrow, wide = (que_window(profile, 0.0, epsilon)[0]
                        for epsilon in (0.1, -1.0))
        _assert_matches_eigh(band, H, narrow, False)
        assert _assert_matches_eigh(band, H, wide, False) > 10

    @pytest.mark.parametrize("all_pairs", [True, False])
    def test_empty_and_whole_windows(self, band_small, all_pairs):
        lat, band = band_small
        H = drawn_rows(band, stream_for(17, 0))
        assert _assert_matches_eigh(band, H, (5.0, 6.0), all_pairs) == 0
        # a window of one point (lo = hi) is empty, not an error
        assert _assert_matches_eigh(band, H, (0.3, 0.3), all_pairs) == 0
        assert _assert_matches_eigh(band, H, (-10.0, 10.0),
                                    all_pairs) == lat.N

    @pytest.mark.parametrize("k,solver", [(2, "shift-invert"),
                                          (3, "zheevr")])
    def test_the_window_count_picks_the_solver(self, monkeypatch, k, solver):
        # N = 128: a window of at most N / 64 = 2 pairs runs shift-invert,
        # the only path that solves on the ring, a wider one zheevr
        band = build_band(build_translation_invariant(
            BlockLattice(d=1, W=8, n=16), KERNELS["uniform"], 1))
        H = drawn_rows(band, stream_for(36, 0))
        edges = np.sort(np.abs(np.linalg.eigvalsh(dense_H(H))))
        half = (edges[k - 1] + edges[k]) / 2
        solves, solve = [], mc._RingLDL.solve
        monkeypatch.setattr(mc._RingLDL, "solve", lambda self, *args: (
            solves.append(1), solve(self, *args))[1])
        assert _assert_matches_eigh(band, H, (-half, half), None) == k
        assert bool(solves) == (solver == "shift-invert")

    @pytest.mark.parametrize("k", [0, 1, 132, 133])
    def test_sup_norm_sq_is_the_dense_maximum(self, k):
        # deloc's pass over chunks of step = 4 W^d = 132 columns against
        # the dense max|u|^2, bit for bit: no column, one, one whole chunk
        # and one column past it
        band = build_band(_readme_profile())
        assert 2 * mc._CHUNK_BLOCKS * band.lattice.block_volume == 132
        V = np.random.default_rng(k).standard_normal(
            (band.lattice.N, 2 * k)).view(complex)
        assert mc._sup_norm_sq(band, V) == float(
            (np.abs(V) ** 2).max(initial=0.0))

    def test_sup_norm_sq_of_the_readme_deloc_window(self):
        # about 420 eigenvectors span 4 chunks; after the thread's first
        # call the pass allocates no N x k temporary (1.5 kB measured)
        band = build_band(_readme_profile())
        H = drawn_rows(band, stream_for(20260809, 0))
        V = eigen_stats(band, H, (-1.5, 1.5))
        N, k = V.shape
        assert 3 * 132 < k <= 4 * 132
        assert mc._sup_norm_sq(band, V) == float(
            (np.abs(V) ** 2).max(initial=0.0))
        peak = _second_call_peak(mc._sup_norm_sq, [(band, V)] * 2)
        assert peak < 8 * N * k / 100

    def test_an_empty_deloc_window_skips_zheevr(self, band_small,
                                                monkeypatch):
        # the inertia count stops an empty window before any eigensolve
        lat, band = band_small
        eigh = np.linalg.eigh

        def refuse(a, *args):
            if len(a) == lat.N:
                raise AssertionError("an N x N eigensolve of an empty window")
            return eigh(a, *args)

        monkeypatch.setattr(mc, "_zheevr", lambda lib, a, out: refuse(a))
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        fn, _ = deloc_replica_fn(band, (5.0, 6.0))
        assert fn(0, stream_for(37, 0)) == {"sup_norm_sq": 0.0,
                                            "window_count": 0}

    @pytest.mark.parametrize("factory", [deloc_replica_fn, que_replica_fn])
    def test_an_empty_window_makes_no_probe(self, band_small, monkeypatch,
                                            factory):
        # the count ends an empty window: it has no pair to probe
        lat, band = band_small

        def refuse(*args):
            raise AssertionError("a probe of an empty window")

        monkeypatch.setattr(mc, "_probed", refuse)
        fn, _ = factory(band, (5.0, 6.0))
        assert fn(0, stream_for(37, 0))["window_count"] == 0

    @pytest.mark.parametrize("profile", ["d2", "wegner_orbital"])
    @pytest.mark.parametrize("all_pairs", [True, False])
    def test_other_profiles(self, profile, all_pairs):
        from bandlab import wegner_orbital_profile

        lat = BlockLattice(d=2, W=3, n=5)
        if profile == "d2":
            prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        else:
            prof = wegner_orbital_profile(lat, 0.05, 0.5)
        band = build_band(prof)
        for r in range(2):
            H = drawn_rows(band, stream_for(23, r))
            for window in ((-1.5, 1.5), (-0.3, 0.3)):
                assert _assert_matches_eigh(band, H, window, all_pairs) > 0

    @pytest.mark.parametrize("lookup", ["none", "no_zheevr"])
    def test_falls_back_to_eigh(self, band_small, monkeypatch, lookup):
        # the all-pairs path; shift-invert never calls an N x N solver
        lat, band = band_small
        H = drawn_rows(band, stream_for(18, 0))
        lib = mc._openblas()
        if lookup == "none":
            monkeypatch.setattr(mc, "_openblas", lambda: None)
        elif lib is None:
            pytest.skip("numpy has no bundled OpenBLAS")
        else:
            monkeypatch.setattr(mc, "_openblas",
                                lambda: lib._replace(zheevr=None))
        calls, eigh = [], np.linalg.eigh

        def counted(A):
            calls.append(A.shape)
            return eigh(A)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        evals, evecs = eigh(dense_H(H))
        ref = evecs[:, (evals >= -1.0) & (evals <= 1.0)]
        assert np.array_equal(eigen_stats(band, H, (-1.0, 1.0)), ref)
        # one N x N eigh; without any LAPACKE routine the inertia count's
        # W x W pivots take eigh too
        assert [c for c in calls if c != (lat.W, lat.W)] == [(lat.N, lat.N)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("factory", [deloc_replica_fn, que_replica_fn])
    def test_nan_entry_fails_the_replica(self, band_small, monkeypatch,
                                         factory, bad):
        # without the gate a non-finite H can give NaN eigenvalues, an
        # empty window and a vacuous replica instead of a failed one
        lat, band = band_small
        draw = mc.sample_H

        def poisoned(band, rng, out):
            H = draw(band, rng, out=out)
            H.block(0, 1)[3, 2] = bad       # H_3,7
            return H

        monkeypatch.setattr(mc, "sample_H", poisoned)
        res = run_ensemble(SampleConfig(master_seed=4, replicas=2),
                           *factory(band, (-10.0, 10.0)))
        assert res.completed == 0
        assert [r for r, _ in res.failures] == [0, 1]
        assert all(msg == "EigenSolveError: H is not finite"
                   for _, msg in res.failures)

    @needs_zheevr
    def test_lapack_failure_raises(self, band_small):
        # LAPACKE's own NaN check answers with info = -6
        lat, band = band_small
        H = dense_H(drawn_rows(band, stream_for(20, 0)))
        H[1, 1] = np.nan
        with pytest.raises(mc.EigenSolveError, match="info -6"):
            mc._zheevr(mc._openblas(), np.asfortranarray(H),
                       mc._eigen_buffers(lat.N))

    @needs_zheevr
    def test_row_major_H_is_refused(self, band_small):
        # LAPACK reads its argument column-major: eigen_stats passes the
        # Fortran-ordered view a.T, and a C-ordered array is refused
        lat, band = band_small
        H = dense_H(drawn_rows(band, stream_for(20, 0)))
        with pytest.raises(ValueError, match="Fortran-ordered"):
            mc._zheevr(mc._openblas(), H, mc._eigen_buffers(lat.N))

    @pytest.mark.parametrize("all_pairs", [True, False])
    def test_corrupted_eigenvector_trips_the_probe(self, band_small,
                                                   monkeypatch, all_pairs):
        lat, band = band_small
        H = drawn_rows(band, stream_for(21, 0))
        _window_stats(band, H, (-1.5, 1.5), all_pairs)
        probe = mc._probed

        def corrupted(H, norm, evals, vectors):
            vectors = vectors.copy()
            vectors[5, vectors.shape[1] // 2] += 1e-6
            return probe(H, norm, evals, vectors)

        monkeypatch.setattr(mc, "_probed", corrupted)
        with pytest.raises(mc.EigenSolveError, match="eigenpair residual"):
            _window_stats(band, H, (-1.5, 1.5), all_pairs)


def _ring_band(name):
    """The band of a _RING_LATTICES entry, the Wegner orbital one of
    d = 2, W = 3, n = 5, or the README one."""
    from bandlab import wegner_orbital_profile

    if name == "wegner_orbital":
        return build_band(wegner_orbital_profile(BlockLattice(d=2, W=3, n=5),
                                                 0.05, 0.5))
    if name == "readme":
        return build_band(_readme_profile())
    model, _ = _RING_LATTICES[name]
    if model is None:
        return dense_band(6)
    d, W, n, cutoff = model
    return build_band(build_translation_invariant(
        BlockLattice(d=d, W=W, n=n), KERNELS["uniform"], cutoff))


def _edge_H(band):
    """The layer rows of a block diagonal H, each block a quarter of the
    all-ones W x W matrix: at W = 5 its eigenvalues are 1.25 and 0
    exactly."""
    lat = band.lattice
    return rows_of(band, np.kron(np.eye(lat.n),
                                 np.full((lat.W, lat.W), 0.25)) + 0j)


_WINDOW_BANDS = ["readme", "d1-reach2-uneven", "d2-W3-n5", "wegner_orbital",
                 "one-layer", "d1-ring-of-3"]


class TestRingWindow:
    """Windows from the band's layer ring: inertia counts, shift-invert
    pairs, and the failures that fail a replica."""

    @pytest.mark.parametrize("name", _WINDOW_BANDS)
    def test_inertia_counts_and_solves_match_the_dense_oracle(self, name):
        band = _ring_band(name)
        H = drawn_rows(band, stream_for(31, 0))
        dense, drawn = dense_H(H), H.data.tobytes()
        evals = np.linalg.eigvalsh(dense)
        Y = np.random.default_rng(3).standard_normal((len(dense), 4)) + 0j
        for shift in (-2.5, -0.41, 0.0, 0.173, 1.2):
            ldl = mc._RingLDL(band, H, shift, 1e-12)
            # the count shifts H's diagonal in place and restores it
            assert H.data.tobytes() == drawn
            assert ldl.negatives == (evals < shift).sum()
            X = ldl.solve(Y)
            assert np.abs(dense @ X - shift * X - Y).max() < 1e-12 * max(
                1.0, np.abs(X).max())

    @pytest.mark.parametrize("name", _WINDOW_BANDS)
    def test_windows_match_eigh(self, name):
        band = _ring_band(name)
        N = band.lattice.N
        for r in range(2):
            H = drawn_rows(band, stream_for(32, r))
            assert _assert_matches_eigh(band, H, (5.0, 6.0), False) == 0
            assert _assert_matches_eigh(band, H, (0.21, 0.21), False) == 0
            assert _assert_matches_eigh(band, H, (-10.0, 10.0), False) == N
        # about a tenth of the spectrum, and more than a couple of pairs
        half = 0.3 if N > 100 else 0.5
        if name == "readme":
            window = que_window(_readme_profile(), 0.0, -1.0)[0]
        else:
            window = (-half, half)
        assert _assert_matches_eigh(band, H, window, False) > 2

    @pytest.mark.parametrize("lookup", ["none", "no_zhetrf"])
    def test_pivots_without_zhetrf_take_eigh(self, monkeypatch, lookup):
        # a numpy build without LAPACKE_zhetrf factors each pivot by eigh:
        # the same counts and pairs
        band = _ring_band("d1-reach2-uneven")
        H = drawn_rows(band, stream_for(33, 0))
        lib = mc._openblas()
        if lookup == "none":
            monkeypatch.setattr(mc, "_openblas", lambda: None)
        elif lib is None:
            pytest.skip("numpy has no bundled OpenBLAS")
        else:
            monkeypatch.setattr(mc, "_openblas",
                                lambda: lib._replace(zhetrf=None))
        assert _assert_matches_eigh(band, H, (-0.5, 0.5), False) > 2
        assert _assert_matches_eigh(band, H, (-10.0, 10.0),
                                    False) == band.lattice.N

    @pytest.mark.parametrize("window", [(-0.5, 0.0), (1.25, 2.0)])
    @pytest.mark.parametrize("factory", [deloc_replica_fn, que_replica_fn])
    def test_eigenvalue_on_a_window_edge_fails(self, band_small, monkeypatch,
                                               factory, window):
        # failing control: an edge on one of _edge_H's eigenvalues makes a
        # pivot singular there, and the shift is not moved to count past it
        lat, band = band_small
        H = _edge_H(band)

        def fixed(band, rng, out):
            out.data[...] = H.data
            return out

        monkeypatch.setattr(mc, "sample_H", fixed)
        res = run_ensemble(SampleConfig(master_seed=1, replicas=2),
                           *factory(band, window))
        assert res.completed == 0
        assert all(msg.startswith("EigenSolveError: a pivot of H - ")
                   and "is singular" in msg for _, msg in res.failures)
        # a window whose edges and centre miss both eigenvalues counts
        # them exactly
        res = run_ensemble(SampleConfig(master_seed=1, replicas=1),
                           *factory(band, (-0.5, 0.75)))
        assert res.values["window_count"].tolist() == [20]

    def test_a_singular_pivot_leaves_H_as_it_was(self, band_small):
        # the count raises at either eigenvalue of _edge_H, and H's
        # diagonal, shifted in place, comes back bit for bit
        lat, band = band_small
        H = _edge_H(band)
        drawn = H.data.tobytes()
        for shift in (0.0, 1.25):
            with pytest.raises(mc.EigenSolveError, match="is singular"):
                mc._RingLDL(band, H, shift, 1e-12)
            assert H.data.tobytes() == drawn

    def test_no_convergence_within_the_cap_fails(self, band_small,
                                                 monkeypatch):
        lat, band = band_small
        H = drawn_rows(band, stream_for(34, 0))
        assert _window_stats(band, H, (-0.5, 0.5), False).shape[1]
        monkeypatch.setattr(mc, "_MAX_ITERATIONS", 2)
        with pytest.raises(mc.EigenSolveError,
                           match="did not converge in 2 steps"):
            _window_stats(band, H, (-0.5, 0.5), False)

    @pytest.mark.parametrize("error,match", [
        (1, "Ritz value .* outside the window"),
        (-1, "Ritz values in the window, the inertia counts")])
    def test_a_miscount_fails(self, band_small, monkeypatch, error, match):
        # failing controls: an inertia count one too high leaves a Ritz
        # value outside the window, one too low one Ritz value too many in it
        lat, band = band_small
        H = drawn_rows(band, stream_for(34, 0))
        assert _window_stats(band, H, (-0.5, 0.5), False).shape[1] > 2

        class Miscounted(mc._RingLDL):
            def __init__(self, band, H, shift, tol):
                super().__init__(band, H, shift, tol)
                if shift == 0.5:
                    self.negatives += error

        monkeypatch.setattr(mc, "_RingLDL", Miscounted)
        with pytest.raises(mc.EigenSolveError, match=match):
            _window_stats(band, H, (-0.5, 0.5), False)

    def test_start_block_draws_nothing_from_the_replica_stream(
            self, band_small, monkeypatch):
        lat, band = band_small
        monkeypatch.setattr(mc, "_ALL_PAIRS_SHARE", 1.0)
        fn, _ = que_replica_fn(band, (-0.5, 0.5))
        used, fresh = stream_for(35, 0), stream_for(35, 0)
        assert fn(0, used)["window_count"] > 0
        drawn_rows(band, fresh)
        assert _philox_words(used) == _philox_words(fresh)

    def test_refined_solves_pass_where_unrefined_ones_stall(self,
                                                            monkeypatch):
        # failing control: at the centre of README replica 0 a chain pivot
        # is nearly singular, and solves without refinement stall above
        # the Ritz tolerance; refined from 1e-9 ||H||_F on they converge
        profile = _readme_profile()
        band = build_band(profile)
        H = drawn_rows(band, stream_for(20260809, 0))
        window = que_window(profile, 0.0, -1.0)[0]
        assert _assert_matches_eigh(band, H, window, False) > 10
        solve = mc._RingLDL.solve
        monkeypatch.setattr(mc._RingLDL, "solve",
                            lambda self, R, refine=True: solve(self, R, False))
        with pytest.raises(mc.EigenSolveError, match="did not converge"):
            _window_stats(band, H, window, False)
