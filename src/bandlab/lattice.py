"""Periodic block geometry of Z_L^d.

The lattice has side length L = n*W and is partitioned into n^d axis-aligned
blocks of linear size W, numbered row-major. Site a W^d + i is the site at
row-major offset i inside block a, so a site axis splits into (block,
offset) axes by a reshape to (n^d, W^d). Sites and blocks are addressed by
these integers or by coordinate tuples; every public function accepts both
forms. Distances are periodic L^1 (graph) distances on the torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BlockLattice",
    "project_matrix",
]


def _as_coords(idx, d, side):
    """Normalize a site/block address to a coordinate tuple on a torus."""
    if np.isscalar(idx):
        x = int(idx)
        if not 0 <= x < side**d:
            raise ValueError(f"index {x} out of range for side {side}, d={d}")
        return divmod(x, side) if d == 2 else (x,)
    c = tuple(int(v) % side for v in idx)
    if len(c) != d:
        raise ValueError(f"coordinate {idx} has wrong arity for d={d}")
    return c


def _flatten(coords, side):
    out = 0
    for c in coords:
        out = out * side + c
    return out


@dataclass(frozen=True)
class BlockLattice:
    """Torus Z_L^d (L = n*W) partitioned into n^d blocks of side W.

    Parameters
    ----------
    d : dimension, 1 or 2
    W : block linear size (band width), >= 1
    n : number of blocks per side, >= 1
    """

    d: int
    W: int
    n: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d}")
        if self.W < 1 or self.n < 1:
            raise ValueError("W and n must be positive integers")

    @property
    def L(self) -> int:
        return self.n * self.W

    @property
    def N(self) -> int:
        return self.L**self.d

    @property
    def block_count(self) -> int:
        return self.n**self.d

    @property
    def block_volume(self) -> int:
        return self.W**self.d

    # ---- site/block addressing -------------------------------------------

    def site_coords(self, x) -> tuple:
        """Coordinates on Z_L^d of site x, decoded as (block, offset)."""
        if not np.isscalar(x):
            return _as_coords(x, self.d, self.L)
        if not 0 <= int(x) < self.N:
            raise ValueError(f"site {x} out of range for N={self.N}")
        a, i = divmod(int(x), self.block_volume)
        return tuple(u * self.W + v for u, v in zip(
            self.block_coords(a), _as_coords(i, self.d, self.W)))

    def block_index(self, a) -> int:
        return _flatten(_as_coords(a, self.d, self.n), self.n)

    def block_coords(self, a) -> tuple:
        return _as_coords(a, self.d, self.n)

    def block_negate(self, a) -> int:
        """Representative of -[a] on the block torus."""
        return self.block_index([-v for v in self.block_coords(a)])

    def block_shift(self, a, b) -> int:
        """Representative of [a] + [b] on the block torus."""
        return self.block_index([u + v for u, v in zip(self.block_coords(a),
                                                       self.block_coords(b))])

    # ---- periodic distances ----------------------------------------------

    def block_distance(self, a, b) -> int:
        """Periodic L^1 distance ||[a] - [b]||_n on the block torus."""
        ac = self.block_coords(a)
        bc = self.block_coords(b)
        return sum(min((u - v) % self.n, (v - u) % self.n)
                   for u, v in zip(ac, bc))

    def block0_site_distances(self, blocks) -> np.ndarray:
        """(W^d, k W^d) periodic L^1 distances from the sites of block 0 to
        the sites of the k listed blocks, block by block in site order."""
        inner = _grid(self.W, self.d)
        sites = (self.W * _grid(self.n, self.d)[:, blocks, None]
                 + inner[:, None, :]).reshape(self.d, -1)
        return _torus_distances(inner, sites, self.L)

    @cached_property
    def block_distance_matrix(self) -> np.ndarray:
        """(block_count, block_count) array of periodic block distances."""
        blocks = _grid(self.n, self.d)
        return _torus_distances(blocks, blocks, self.n)

    @cached_property
    def centered_block_coords(self) -> np.ndarray:
        """(d, n^d) block coordinates, each taken in (-n/2, n/2]."""
        half = (self.n - 1) // 2
        return (_grid(self.n, self.d) + half) % self.n - half

    @cached_property
    def block_offset_matrix(self) -> np.ndarray:
        """(block_count, block_count) array of flattened offsets [b] - [a].

        A block-translation-invariant block matrix with row 0 ``r`` is
        ``r[block_offset_matrix]``.
        """
        coords = _grid(self.n, self.d)
        diff = (coords[:, None, :] - coords[:, :, None]) % self.n
        return np.ravel_multi_index(tuple(diff), (self.n,) * self.d)


def _grid(side: int, d: int) -> np.ndarray:
    """(d, side^d) coordinates of the points of Z_side^d, row-major; int32
    keeps the distance tables built from them small and fast."""
    return np.indices((side,) * d, dtype=np.int32).reshape(d, -1)


def _torus_distances(xs: np.ndarray, ys: np.ndarray, side: int) -> np.ndarray:
    """Periodic L^1 distances on Z_side^d between the points (columns) of
    the coordinate arrays ``xs`` and ``ys``, summed axis by axis."""
    diffs = (np.abs(x[:, None] - y) for x, y in zip(xs, ys))
    return sum(np.minimum(diff, side - diff) for diff in diffs)


def project_matrix(lattice: BlockLattice, A: np.ndarray) -> np.ndarray:
    """Block projection P(A)_[a][b] = W^-d sum_{x in [a], y in [b]} A_xy."""
    N = lattice.N
    if A.shape != (N, N):
        raise ValueError(f"expected shape {(N, N)}, got {A.shape}")
    m, wd = lattice.block_count, lattice.block_volume
    return A.reshape(m, wd, m, wd).sum(axis=(1, 3)) / wd

