import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandlab import BlockLattice, project_matrix
from oracles import (block_sites, periodic_distance, project_tensor,
                     site_distance_matrix)


def brute_periodic_distance(xc, yc, L):
    """Oracle: minimum L1 distance over all periodic images."""
    best = None
    for shifts in itertools.product((-L, 0, L), repeat=len(xc)):
        d = sum(abs(u - v + s) for u, v, s in zip(xc, yc, shifts))
        best = d if best is None else min(best, d)
    return best


def assert_blocks_partition_sites(lat):
    """block_sites maps (block, offset) one-to-one onto the sites."""
    sites = np.concatenate([block_sites(lat, a)
                            for a in range(lat.block_count)])
    assert np.array_equal(np.sort(sites), np.arange(lat.N))


class TestAddressing:
    def test_site_to_block_origin(self):
        lat = BlockLattice(d=1, W=5, n=3)
        assert 0 in block_sites(lat, 0)

    def test_site_to_block_interior(self):
        lat = BlockLattice(d=1, W=5, n=3)
        assert 7 in block_sites(lat, 1)
        assert 7 not in block_sites(lat, 0)

    def test_site_to_block_2d(self):
        # brute force over the W-grid partition of Z_9^2: the site at (4, 8)
        # lies in block 5, at offset (1, 2), so it is site 5 * 9 + 1 * 3 + 2
        lat = BlockLattice(d=2, W=3, n=3)
        expected = None
        for b0, b1 in itertools.product(range(3), repeat=2):
            rows = range(3 * b0, 3 * b0 + 3)
            cols = range(3 * b1, 3 * b1 + 3)
            if 4 in rows and 8 in cols:
                expected = b0 * 3 + b1
        assert expected == 5
        x = expected * lat.block_volume + 1 * lat.W + 2
        assert lat.site_coords(x) == (4, 8)
        assert [a for a in range(lat.block_count)
                if x in block_sites(lat, a)] == [expected]
        # every site decodes into its own block, and no two sites coincide
        coords = [lat.site_coords(y) for y in range(lat.N)]
        assert len(set(coords)) == lat.N
        for y, (c0, c1) in enumerate(coords):
            assert lat.block_index((c0 // lat.W, c1 // lat.W)) == \
                y // lat.block_volume

    @pytest.mark.parametrize("d,W,n", [(1, 5, 3), (2, 3, 3), (2, 2, 5)])
    def test_blocks_are_site_ranges(self, d, W, n):
        lat = BlockLattice(d=d, W=W, n=n)
        for a in range(lat.block_count):
            assert np.array_equal(block_sites(lat, a),
                                  np.arange(a * W**d, (a + 1) * W**d))

    def test_out_of_range(self):
        lat = BlockLattice(d=1, W=5, n=3)
        with pytest.raises(ValueError):
            lat.site_coords(15)
        with pytest.raises(ValueError):
            block_sites(lat, 3)

    @pytest.mark.parametrize("d,W,n", [(1, 5, 3), (2, 3, 3), (2, 2, 5),
                                       (1, 7, 14)])
    def test_site_block_offset_roundtrip(self, d, W, n):
        assert_blocks_partition_sites(BlockLattice(d=d, W=W, n=n))

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            BlockLattice(d=3, W=5, n=3)


class TestDistances:
    def test_wraparound(self):
        lat = BlockLattice(d=1, W=5, n=3)
        assert periodic_distance(lat, 1, 14) == 2

    def test_zero(self):
        lat = BlockLattice(d=1, W=5, n=3)
        assert periodic_distance(lat, 7, 7) == 0

    def test_2d_value(self):
        lat = BlockLattice(d=2, W=3, n=3)
        assert periodic_distance(lat, (0, 0), (4, 5)) == 8
        assert periodic_distance(lat, (0, 0), (4, 5)) == \
            brute_periodic_distance((0, 0), (4, 5), 9)

    def test_block_wraparound(self):
        lat = BlockLattice(d=1, W=3, n=5)
        assert lat.block_distance(0, 4) == 1
        assert lat.block_distance(2, 2) == 0

    def test_block_2d(self):
        lat = BlockLattice(d=2, W=2, n=4)
        assert lat.block_distance((0, 0), (2, 3)) == 3
        assert lat.block_distance((0, 0), (2, 3)) == \
            brute_periodic_distance((0, 0), (2, 3), 4)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 44), st.integers(0, 44), st.integers(0, 44))
    def test_metric_properties(self, x, y, z):
        lat = BlockLattice(d=1, W=5, n=9)
        dxy = periodic_distance(lat, x, y)
        assert dxy == periodic_distance(lat, y, x)
        assert dxy <= (periodic_distance(lat, x, z)
                       + periodic_distance(lat, z, y))

    def test_distance_matrix_matches_scalar(self):
        for lat in (BlockLattice(d=1, W=4, n=4), BlockLattice(d=2, W=2, n=3)):
            D = site_distance_matrix(lat)
            for x in range(lat.N):
                for y in range(lat.N):
                    assert D[x, y] == periodic_distance(lat, x, y)

    def test_block0_rows_match_scalar(self):
        for lat in (BlockLattice(d=1, W=3, n=4), BlockLattice(d=2, W=3, n=3)):
            D = lat.block0_site_distances(list(range(lat.block_count)))
            assert D.shape == (lat.block_volume, lat.N)
            for i, x in enumerate(block_sites(lat, 0)):
                for y in range(lat.N):
                    assert D[i, y] == periodic_distance(lat, x, y)
            # a list of blocks, in any order, gives their columns in turn
            blocks = [lat.block_count - 1, 0, 2]
            sites = np.concatenate([block_sites(lat, b) for b in blocks])
            assert np.array_equal(lat.block0_site_distances(blocks),
                                  D[:, sites])

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_centered_block_coords(self, n):
        for d in (1, 2):
            lat = BlockLattice(d=d, W=2, n=n)
            c = lat.centered_block_coords
            assert c.shape == (d, lat.block_count)
            assert ((-n / 2 < c) & (c <= n / 2)).all()
            for b in range(lat.block_count):
                assert lat.block_index(c[:, b]) == b

    def test_brackets(self):
        lat = BlockLattice(d=1, W=5, n=3)
        assert lat.block_distance(0, 1) + 1 == 2


class TestProjection:
    def test_identity(self):
        lat = BlockLattice(d=1, W=4, n=3)
        assert np.allclose(project_matrix(lat, np.eye(lat.N)), np.eye(3))

    def test_all_ones(self):
        lat = BlockLattice(d=1, W=4, n=3)
        P = project_matrix(lat, np.ones((lat.N, lat.N)))
        assert np.allclose(P, 4.0)

    def test_random_binary_oracle(self):
        # direct double sum on a W=2, n=2, d=1 lattice
        lat = BlockLattice(d=1, W=2, n=2)
        rng = np.random.default_rng(3)
        A = rng.integers(0, 2, size=(4, 4)).astype(float)
        P = project_matrix(lat, A)
        for a in range(2):
            for b in range(2):
                s = sum(A[x, y] for x in block_sites(lat, a)
                        for y in block_sites(lat, b))
                assert P[a, b] == pytest.approx(s / 2.0)

    def test_project_matrix_2d_oracle(self):
        lat = BlockLattice(d=2, W=2, n=2)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((lat.N, lat.N))
        P = project_matrix(lat, A)
        for a in range(4):
            for b in range(4):
                s = A[np.ix_(block_sites(lat, a), block_sites(lat, b))].sum()
                assert P[a, b] == pytest.approx(s / 4.0)

    def test_linearity(self):
        lat = BlockLattice(d=1, W=3, n=4)
        rng = np.random.default_rng(11)
        A = rng.standard_normal((lat.N, lat.N))
        B = rng.standard_normal((lat.N, lat.N))
        lhs = project_matrix(lat, 2.5 * A - 0.5 * B)
        rhs = 2.5 * project_matrix(lat, A) - 0.5 * project_matrix(lat, B)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_tensor_constant(self):
        lat = BlockLattice(d=1, W=2, n=3)
        A = np.full((6, 6, 6), 3.25)
        T = project_tensor(lat, A)
        assert np.allclose(T, 3.25)

    def test_tensor_indicator(self):
        lat = BlockLattice(d=1, W=2, n=3)
        A = np.zeros(6)
        A[3] = 1.0
        T = project_tensor(lat, A)
        expected = np.zeros(3)
        expected[1] = 1.0 / 2.0
        assert np.allclose(T, expected)

    def test_tensor_triple_sum_oracle(self):
        # arity-3 average on L=4, W=2 against the direct triple sum
        lat = BlockLattice(d=1, W=2, n=2)
        rng = np.random.default_rng(7)
        A = rng.standard_normal((4, 4, 4))
        T = project_tensor(lat, A)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    s = sum(A[x, y, z]
                            for x in block_sites(lat, a)
                            for y in block_sites(lat, b)
                            for z in block_sites(lat, c))
                    assert T[a, b, c] == pytest.approx(s / 8.0)

    def test_shape_mismatch(self):
        lat = BlockLattice(d=1, W=2, n=2)
        with pytest.raises(ValueError):
            project_matrix(lat, np.zeros((3, 3)))


class TestLargeRoundTrip:
    def test_site_roundtrip_ten_thousand(self):
        for lat in (BlockLattice(d=1, W=100, n=100),
                    BlockLattice(d=2, W=10, n=10)):
            assert lat.N == 10**4
            assert_blocks_partition_sites(lat)
