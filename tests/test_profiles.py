import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from bandlab import (BlockLattice, VarianceProfile, block_flat_profile,
                     build_translation_invariant, build_wegner_orbital,
                     interaction_strength, mean_field_profile,
                     profile_to_text, validate)
from bandlab.cli import build_profile
from bandlab.profiles import (KERNELS, P_SAMPLES, ProfileError, _affine_blocks,
                              wegner_gamma_max)
from oracles import (block_sites, core_split, flow_profile, profile_from_text,
                     site_distance_matrix, translation_invariant_profile,
                     walk_irreducibility)


def brute_lambda2(S, lat):
    """Oracle: direct double sum of eq-style off-diagonal block mass."""
    total = 0.0
    for a in range(lat.block_count):
        for b in range(lat.block_count):
            if a == b:
                continue
            total += S[np.ix_(block_sites(lat, a), block_sites(lat, b))].sum()
    return total / lat.N


def _sha(prof):
    return hashlib.sha256(profile_to_text(prof).encode()).hexdigest()


def _model(kind, d, W, n, cutoff=1):
    return build_profile({"model": {
        "type": kind, "d": d, "W": W, "n": n, "kernel": "exponential",
        "cutoff": cutoff, "neighbor_weight": 0.1, "wegner_alpha": 0.05,
        "wegner_gamma": 0.5}})


# every model type at d = 1 and 2, n even and odd, W = 1, cutoff up to 3
_WALK_MODELS = [
    (kind, d, W, n) for kind in ("wegner_orbital", "block_flat",
                                 "mean_field")
    for d, W, n in ((1, 1, 7), (1, 4, 6), (2, 1, 8), (2, 3, 5))] + [
    ("translation_invariant", d, W, n, cutoff)
    for d, W, n, cutoff in ((1, 1, 8, 3), (1, 3, 5, 2), (1, 4, 9, 1),
                            (1, 5, 8, 3), (2, 1, 7, 3), (2, 1, 8, 2),
                            (2, 3, 6, 2), (2, 5, 9, 2), (2, 2, 9, 3))]


@pytest.fixture
def band55():
    lat = BlockLattice(d=1, W=5, n=5)
    return build_translation_invariant(lat, KERNELS["uniform"], 1)


class TestBuilders:
    def test_uniform_band_entries(self, band55):
        S = band55.assemble()
        lat = band55.lattice
        D = site_distance_matrix(lat)
        expected = np.where(D <= 5, 1.0 / 11.0, 0.0)
        assert np.abs(S - expected).max() < 1e-15

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("d,W,n,cutoff", [(1, 5, 5, 1), (1, 4, 7, 2),
                                              (2, 3, 5, 2), (2, 4, 9, 3)])
    def test_entries_match_kernel_of_distance(self, kernel, d, W, n, cutoff):
        # oracle: the kernel on the full N x N periodic distance matrix,
        # cut at cutoff*W and divided by the common row sum
        lat = BlockLattice(d=d, W=W, n=n)
        prof = build_translation_invariant(lat, KERNELS[kernel], cutoff)
        D = site_distance_matrix(lat)
        weights = np.where(D <= cutoff * W,
                           np.vectorize(KERNELS[kernel], otypes=[float])(D),
                           0.0)
        expected = weights / weights[0].sum()
        assert np.abs(prof.assemble() - expected).max() \
            <= 1e-15 * expected.max()
        assert set(prof.blocks) == {
            b for b in range(lat.block_count)
            if (D[np.ix_(block_sites(lat, 0), block_sites(lat, b))]
                <= cutoff * W).any()}

    @pytest.mark.parametrize("kernel,d,W,n,cutoff", [
        ("gaussian", 1, 5, 5, 1), ("linear", 2, 3, 5, 2)])
    def test_normalisation_ignores_the_site_order(self, kernel, d, W, n,
                                                  cutoff, monkeypatch):
        # relabel the sites inside every block: block 0's first row then
        # holds the same weights in another order, and the blocks come out
        # relabeled but otherwise bit-identical
        lat = BlockLattice(d=d, W=W, n=n)
        base = build_translation_invariant(lat, KERNELS[kernel], cutoff)
        wd, m = lat.block_volume, lat.block_count
        perm = np.random.default_rng(0).permutation(wd)
        distances = BlockLattice.block0_site_distances

        def relabeled(self, blocks):
            dist = distances(self, blocks)
            k = len(blocks)
            return dist[perm][:, (np.arange(k)[:, None] * wd + perm).ravel()]

        monkeypatch.setattr(BlockLattice, "block0_site_distances", relabeled)
        moved = build_translation_invariant(lat, KERNELS[kernel], cutoff)
        back = np.ix_(np.argsort(perm), np.argsort(perm))
        assert set(moved.blocks) == set(base.blocks)
        for off, blk in base.blocks.items():
            assert np.array_equal(moved.blocks[off][back], blk)

    # W = 1 puts a whole block at each distance from block 0, so a block
    # within reach that the builder leaves out shows in the digest
    @pytest.mark.parametrize("d,W,n", [
        (1, 1, 7), (1, 1, 8), (1, 2, 7), (1, 3, 5), (1, 4, 6), (1, 5, 9),
        (1, 7, 8), (2, 1, 5), (2, 1, 8), (2, 2, 6), (2, 3, 5), (2, 3, 8),
        (2, 2, 9)])
    def test_matches_the_full_distance_table(self, d, W, n):
        lat = BlockLattice(d=d, W=W, n=n)
        for kernel, cutoff in itertools.product(sorted(KERNELS), (1, 2, 3)):
            try:
                want = translation_invariant_profile(lat, KERNELS[kernel],
                                                     cutoff, kernel)
            except ProfileError:
                with pytest.raises(ProfileError):
                    build_translation_invariant(lat, KERNELS[kernel], cutoff)
                continue
            got = build_translation_invariant(lat, KERNELS[kernel], cutoff,
                                              kernel)
            assert _sha(got) == _sha(want), (kernel, cutoff)

    @pytest.mark.parametrize("d,W,n,cutoff", [
        (1, 1, 8, 3), (1, 4, 7, 2), (2, 1, 8, 3), (2, 3, 5, 1),
        (2, 5, 9, 2), (2, 4, 9, 3)])
    def test_measures_only_the_blocks_within_reach(self, d, W, n, cutoff,
                                                   monkeypatch):
        # the uniform kernel weighs every site within reach, so the blocks
        # of the profile are exactly the blocks with a site within reach
        lat = BlockLattice(d=d, W=W, n=n)
        distances, asked = BlockLattice.block0_site_distances, []

        def spy(self, blocks):
            asked.append(list(blocks))
            return distances(self, blocks)

        monkeypatch.setattr(BlockLattice, "block0_site_distances", spy)
        prof = build_translation_invariant(lat, KERNELS["uniform"], cutoff)
        assert asked == [sorted(prof.blocks)]

    def test_negative_kernel_rejected(self):
        lat = BlockLattice(d=1, W=3, n=5)
        with pytest.raises(ProfileError, match="nonnegative"):
            build_translation_invariant(lat, lambda r: 1.0 - r, 1)

    def test_rows_and_symmetry(self, band55):
        S = band55.assemble()
        assert np.abs(S.sum(axis=1) - 1).max() < 1e-12
        assert np.array_equal(S, S.T)
        assert S.min() >= 0

    def test_wraparound_overlap_rejected(self):
        lat = BlockLattice(d=1, W=5, n=2)
        with pytest.raises(ProfileError):
            build_translation_invariant(lat, KERNELS["uniform"], 1)

    def test_zero_row_rejected(self):
        lat = BlockLattice(d=1, W=3, n=5)
        with pytest.raises(ProfileError):
            build_translation_invariant(lat, lambda r: 0.0, 1)

    def test_mean_field(self):
        lat = BlockLattice(d=1, W=3, n=2)
        S = mean_field_profile(lat).assemble()
        expected = np.zeros((6, 6))
        expected[:3, :3] = 1 / 3
        expected[3:, 3:] = 1 / 3
        assert np.array_equal(S, expected)
        assert np.abs(S.sum(axis=1) - 1).max() == 0

    def test_mean_field_no_interaction(self):
        lat = BlockLattice(d=2, W=3, n=3)
        assert interaction_strength(mean_field_profile(lat)) == 0.0

    def test_wegner_flat_reduces_to_mean_field(self):
        lat = BlockLattice(d=1, W=4, n=4)
        wd = lat.block_volume
        V = np.full((wd, wd), 1.0 / wd)
        prof = build_wegner_orbital(lat, V, {})
        se = mean_field_profile(lat).assemble()
        assert np.abs(prof.assemble() - se).max() < 1e-15

    def test_wegner_lambda2_brute_force(self):
        lat = BlockLattice(d=1, W=4, n=5)
        wd = lat.block_volume
        alpha = 0.07
        V = np.full((wd, wd), (1 - 2 * alpha) / wd)
        flat = np.full((wd, wd), alpha / wd)
        prof = build_wegner_orbital(lat, V, {1: flat, lat.n - 1: flat})
        lam2 = interaction_strength(prof)
        assert lam2 == pytest.approx(2 * alpha, abs=1e-14)
        assert lam2 == pytest.approx(brute_lambda2(prof.assemble(), lat))

    def test_wegner_transpose_violation(self):
        lat = BlockLattice(d=1, W=2, n=4)
        V = np.full((2, 2), 0.3)
        bad = np.array([[0.1, 0.2], [0.0, 0.1]])
        with pytest.raises(ProfileError):
            build_wegner_orbital(lat, V, {1: bad, 3: bad})

    def test_wegner_diagonal_absorb(self):
        # non-constant raw rows: the builder normalizes through V's diagonal
        lat = BlockLattice(d=1, W=3, n=3)
        V = np.array([[0.2, 0.05, 0.02],
                      [0.05, 0.1, 0.05],
                      [0.02, 0.05, 0.2]])
        prof = build_wegner_orbital(lat, V, {})
        assert prof.row_sum_deviation() < 1e-12
        assert prof.builder_params["normalization"] == "diagonal_absorb"

    def test_wegner_global_rescale(self):
        # constant raw rows 1.25 with zeros in V, which diagonal_absorb
        # would refuse: a single division normalizes every block
        lat = BlockLattice(d=1, W=3, n=3)
        V = np.array([[0.25, 0.0, 0.25],
                      [0.0, 0.5, 0.0],
                      [0.25, 0.0, 0.25]])
        A = {1: np.full((3, 3), 0.125), 2: np.full((3, 3), 0.125)}
        prof = build_wegner_orbital(lat, V, A)
        assert prof.builder_params["normalization"] == "global_rescale"
        assert np.abs(prof.row_sums - 1.0).max() <= 1e-15
        for off, blk in {0: V, **A}.items():
            assert np.array_equal(prof.blocks[off], blk / 1.25)

    def test_wegner_gamma_max_is_the_last_nonnegative_ripple(self):
        # the ripple factors 1 + gamma cos(pi k/W), |k| < W, rounded as the
        # builder rounds them: all >= 0 at the end, one < 0 an ulp past it
        for W in range(3, 2049):
            cos = np.cos(np.pi * np.arange(1 - W, W) / W)
            top = wegner_gamma_max(W)
            assert (1 + top * cos).min() >= 0
            assert (1 + np.nextafter(top, np.inf) * cos).min() < 0
        assert wegner_gamma_max(1) == wegner_gamma_max(2) == np.inf

    def test_block_flat_rows(self):
        lat = BlockLattice(d=1, W=3, n=5)
        prof = block_flat_profile(lat, 0.2)
        assert prof.row_sum_deviation() < 1e-12
        assert interaction_strength(prof) == pytest.approx(0.4)


class TestInteractionStrength:
    def test_globally_flat(self):
        # S = 1/N everywhere: lambda^2 = 1 - n^{-d}
        lat = BlockLattice(d=1, W=3, n=4)
        wd = lat.block_volume
        blocks = {off: np.full((wd, wd), 1.0 / lat.N)
                  for off in range(lat.block_count)}
        prof = VarianceProfile(lat, blocks)
        lam2 = interaction_strength(prof)
        assert lam2 == pytest.approx(1 - 1 / lat.n, abs=1e-14)
        assert lam2 == pytest.approx(brute_lambda2(prof.assemble(), lat))

    def test_uniform_band_brute_force(self, band55):
        lam2 = interaction_strength(band55)
        assert lam2 == pytest.approx(brute_lambda2(band55.assemble(),
                                                   band55.lattice))
        assert lam2 == pytest.approx(6.0 / 11.0, abs=1e-14)

    def test_translation_relabeling_invariance(self, band55):
        # relabeling blocks by a torus shift permutes sites; lambda^2 fixed
        lat = band55.lattice
        S = band55.assemble()
        shift = np.roll(np.arange(lat.N), lat.W)
        S2 = S[np.ix_(shift, shift)]
        assert brute_lambda2(S2, lat) == pytest.approx(
            interaction_strength(band55))


class TestValidate:
    def test_uniform_band_report(self, band55):
        rep = validate(band55)
        assert rep.doubly_stochastic
        assert rep.row_sum_deviation < 1e-12
        assert rep.fullness == pytest.approx(5.0 / 11.0, abs=1e-12)
        assert rep.flatness <= 3.0
        assert rep.parity_checked and rep.parity_ok
        assert rep.interaction_ok
        assert rep.irreducibility_ratio > 0
        lo, hi = rep.isotropy_range
        assert 0 < lo <= hi

    def test_mean_field_report(self):
        lat = BlockLattice(d=1, W=5, n=5)
        rep = validate(mean_field_profile(lat))
        assert rep.fullness == pytest.approx(1.0)
        assert rep.lambda2 == 0.0
        assert not rep.interaction_ok

    def test_parity_requires_odd_W(self):
        lat = BlockLattice(d=1, W=4, n=4)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 1)
        with pytest.raises(ProfileError):
            validate(prof, check_parity=True)
        rep = validate(prof, check_parity=False)
        assert not rep.parity_checked

    def test_irreducibility_closed_form(self):
        # nearest-neighbor block model: 1 - phi(p) = 2 w (1 - cos p)
        lat = BlockLattice(d=1, W=3, n=9)
        prof = block_flat_profile(lat, 0.15)
        rep = validate(prof)
        grid = np.linspace(-np.pi, np.pi, P_SAMPLES, endpoint=False)
        grid = grid[np.abs(grid) > 1e-9]
        ratios = 2 * 0.15 * (1 - np.cos(grid)) / (0.3 * grid**2)
        assert rep.irreducibility_ratio == pytest.approx(ratios.min(),
                                                         rel=1e-9)

    @pytest.mark.parametrize("model", _WALK_MODELS, ids=str)
    def test_irreducibility_matches_the_step_list(self, model):
        # oracle: the cosine of every grid momentum against every step
        prof = _model(*model)
        rep = validate(prof, check_parity=False)
        ratio, iso = walk_irreducibility(prof)
        assert abs(rep.irreducibility_ratio - ratio) <= 1e-13 * abs(ratio)
        assert np.allclose(rep.isotropy_range, iso, rtol=1e-13, atol=0)

    def test_gaussian_kernel_parity(self):
        lat = BlockLattice(d=1, W=5, n=7)
        prof = build_translation_invariant(lat, KERNELS["gaussian"], 2)
        rep = validate(prof)
        assert rep.parity_ok


@pytest.mark.parametrize("kind", ["translation_invariant", "wegner_orbital",
                                  "block_flat", "mean_field"])
@pytest.mark.parametrize("d", [1, 2])
class TestValidateFromBlocks:
    @staticmethod
    def profile(kind, d):
        W, n, cutoff = (5, 7, 1) if d == 1 else (3, 5, 2)
        return build_profile({"model": {
            "type": kind, "d": d, "W": W, "n": n, "kernel": "uniform",
            "cutoff": cutoff, "neighbor_weight": 0.1, "wegner_alpha": 0.05,
            "wegner_gamma": 0.5}})

    def test_flatness_matches_dense(self, kind, d):
        # oracle: largest entry and reach read off the assembled N x N matrix
        prof = self.profile(kind, d)
        lat = prof.lattice
        S = prof.assemble()
        reach = site_distance_matrix(lat)[S > 0].max() / lat.W
        assert validate(prof).flatness == max(S.max() * lat.block_volume,
                                              reach)

    def test_never_assembles_the_profile(self, kind, d, monkeypatch):
        def refuse(self):
            raise AssertionError("validate assembled the N x N profile")

        prof = self.profile(kind, d)
        monkeypatch.setattr(VarianceProfile, "assemble", refuse)
        assert validate(prof).doubly_stochastic


def test_builder_and_validate_form_no_distance_table():
    # the d = 2 reference config; one W^d x N int64 distance table there is
    # 25 * 2025 * 8 bytes, and neither step may hold that much at once
    cfg = {"model": {"type": "translation_invariant", "d": 2, "W": 5,
                     "n": 9, "kernel": "uniform", "cutoff": 2}}
    prof = build_profile(cfg)
    validate(prof)
    for step in (lambda: build_profile(cfg), lambda: validate(prof)):
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 * 2025 * 8


def test_profile_path_forms_no_block_table():
    # d = 2, W = 1, n = 60: 3600 blocks, where one m x m int64 table of
    # block offsets or distances would hold 104 MB; the builder and
    # validate read the profile's own offsets alone
    lat = BlockLattice(d=2, W=1, n=60)
    tracemalloc.start()
    try:
        validate(build_translation_invariant(lat, KERNELS["uniform"], 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestOffsetBoundary:
    """Every entrance of a block offset refuses, naming it, anything but an
    integer in [0, n^d): a float is not truncated, and a negative offset
    does not wrap around the torus."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bad", ["-1", "n^d", "1.5"])
    def test_bad_offset_is_named(self, d, bad):
        lat = BlockLattice(d=d, W=2, n=4)
        m = lat.block_count
        off = {"-1": -1, "n^d": m, "1.5": 1.5}[bad]
        flat = np.full((lat.block_volume,) * 2, 0.1)
        message = f"block offset {off} is not an integer in [0, {m})"
        with pytest.raises(ProfileError, match=re.escape(message)):
            VarianceProfile(lat, {0: flat, off: flat})
        with pytest.raises(ProfileError, match=re.escape(message)):
            build_wegner_orbital(lat, flat, {off: flat})
        with pytest.raises(ProfileError, match=re.escape(message)):
            mean_field_profile(lat).block_at(off)

    def test_numpy_integers_are_offsets(self):
        lat = BlockLattice(d=2, W=2, n=4)
        flat = np.full((4, 4), 0.1)
        prof = VarianceProfile(lat, {np.int64(0): flat})
        assert list(prof.blocks) == [0]
        assert prof.block_at(np.int32(0)) is prof.blocks[0]


def _family(prof, t_f, t):
    """The member t_f S + (t - t_f) S_E at flow time t of the family that
    criteria 7 and 9 run on."""
    return VarianceProfile(prof.lattice, _affine_blocks(
        prof.lattice, prof.blocks, t_f, t - t_f))


class TestFlow:
    def test_flow_identity_at_t0(self, band55):
        out = flow_profile(band55, 0.3, 0.3)
        assert np.abs(out.assemble() - band55.assemble()).max() == 0

    def test_flow_scales_mean_field(self):
        lat = BlockLattice(d=1, W=3, n=4)
        half = VarianceProfile(lat, {0: np.full((3, 3), 0.5 / 3)})
        out = flow_profile(half, 0.0, 0.5)
        se = mean_field_profile(lat).assemble()
        assert np.abs(out.assemble() - se).max() < 1e-15

    def test_flow_entrywise_oracle(self, band55):
        t0, t = 0.2, 0.55
        out = flow_profile(band55, t0, t)
        expected = band55.assemble() + (t - t0) * mean_field_profile(
            band55.lattice).assemble()
        assert np.abs(out.assemble() - expected).max() < 1e-15
        assert out.row_sums == pytest.approx(1 + (t - t0))

    def test_family_endpoint(self, band55):
        t_f = 0.8
        member = _family(band55, t_f, t_f)
        assert np.abs(member.assemble() - t_f * band55.assemble()).max() \
            < 1e-15

    def test_family_flow_closure(self, band55):
        # flowing the time-t member up to t_f recovers the endpoint
        # entrywise
        t_f, t = 0.8, 0.6
        member = _family(band55, t_f, t)
        flowed = flow_profile(member, t, t_f)
        assert np.abs(flowed.assemble()
                      - t_f * band55.assemble()).max() < 1e-12

    def test_family_of_mean_field(self):
        lat = BlockLattice(d=1, W=3, n=4)
        se = mean_field_profile(lat)
        member = _family(se, 0.9, 0.5)
        assert np.abs(member.assemble()
                      - 0.5 * se.assemble()).max() < 1e-15


class TestDecomposeCore:
    def test_full_mean_field(self):
        lat = BlockLattice(d=1, W=3, n=4)
        se = mean_field_profile(lat)
        ker, deficit = core_split(se, 1.0, 1.0)
        assert np.abs(ker.assemble()).max() == 0
        assert deficit == pytest.approx(1.0)

    def test_zero_cker(self, band55):
        # c_ker = 0 leaves S_t untouched; deficit 1 - t + c_ker is 0 at t=1
        ker, deficit = core_split(band55, 1.0, 0.0)
        assert np.abs(ker.assemble() - band55.assemble()).max() == 0
        assert deficit == pytest.approx(0.0, abs=1e-15)

    def test_half_admissible_nonneg(self, band55):
        t = 0.7
        admissible = t * band55.block_at(0).min() * band55.lattice.block_volume
        ker, deficit = core_split(band55, t, admissible / 2)
        assert ker.assemble().min() >= 0
        assert deficit == pytest.approx(1 - t + admissible / 2)

    def test_too_large_rejected(self, band55):
        with pytest.raises(ProfileError) as err:
            core_split(band55, 1.0, 0.99)
        assert "admissible" in str(err.value)


class TestSerialization:
    def test_bit_exact_roundtrip(self, band55):
        text = profile_to_text(band55)
        back = profile_from_text(text)
        assert back.lattice == band55.lattice
        assert set(back.blocks) == set(band55.blocks)
        for off in band55.blocks:
            assert np.array_equal(back.blocks[off], band55.blocks[off],
                                  equal_nan=True)
        assert profile_to_text(back) == text

    def test_roundtrip_awkward_floats(self):
        lat = BlockLattice(d=1, W=2, n=3)
        rng = np.random.default_rng(0)
        blk0 = rng.random((2, 2)) * 1e-17
        blk0 = (blk0 + blk0.T) / 2
        blk1 = rng.random((2, 2)) * np.pi
        blocks = {0: blk0, 1: blk1, 2: blk1.T}
        prof = VarianceProfile(lat, blocks)
        back = profile_from_text(profile_to_text(prof))
        for off in blocks:
            assert np.array_equal(back.blocks[off], prof.blocks[off])


class TestInvariantEnforcement:
    def test_negative_entries_rejected(self):
        lat = BlockLattice(d=1, W=2, n=2)
        with pytest.raises(ProfileError):
            VarianceProfile(lat, {0: np.array([[0.5, -0.1], [-0.1, 0.5]])})

    def test_transpose_pairing_enforced(self):
        lat = BlockLattice(d=1, W=2, n=4)
        blk = np.array([[0.1, 0.2], [0.3, 0.1]])
        with pytest.raises(ProfileError):
            VarianceProfile(lat, {0: np.eye(2) * 0.1, 1: blk, 3: blk})

    def test_blocks_read_only(self, band55):
        with pytest.raises(ValueError):
            band55.blocks[0][0, 0] = 5.0
        with pytest.raises(ValueError):
            band55.assemble()[0, 0] = 5.0


class TestDegenerateSupport:
    def test_in_block_support_has_zero_interaction(self):
        # cutoff 0 confines the kernel to single sites: no off-block mass
        lat = BlockLattice(d=1, W=5, n=5)
        prof = build_translation_invariant(lat, KERNELS["uniform"], 0)
        assert interaction_strength(prof) == 0.0
        rep = validate(prof)
        assert not rep.interaction_ok


class TestTwoDimensionalFullness:
    def test_band_reach_vs_block_diameter(self):
        # an L1 band of width W does not cover the in-block diameter
        # 2(W-1) in d=2: cutoff 1 loses the core condition, cutoff 2 keeps it
        lat = BlockLattice(d=2, W=3, n=3)
        narrow = build_translation_invariant(lat, KERNELS["uniform"], 1)
        assert validate(narrow).fullness == 0.0
        lat2 = BlockLattice(d=2, W=3, n=5)
        wide = build_translation_invariant(lat2, KERNELS["uniform"], 2)
        rep = validate(wide)
        assert rep.fullness > 0
        assert rep.parity_ok and rep.doubly_stochastic
