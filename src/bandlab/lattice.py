"""Periodic block geometry of Z_L^d.

The lattice has side length L = n*W and is partitioned into n^d axis-aligned
blocks of linear size W, numbered row-major. Site a W^d + i is the site at
row-major offset i inside block a, so a site axis splits into (block,
offset) axes by a reshape to (n^d, W^d). Blocks are addressed by these
integers alone: sums and negatives of block offsets are taken on integer
index arrays, through the row-major coordinates of the torus Z_n^d.
Distances are periodic L^1 (graph) distances on the torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BlockLattice",
    "project_matrix",
]


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

    # ---- block arithmetic ------------------------------------------------

    def block_shift(self, a, b) -> np.ndarray:
        """Flat index of [a] + [b] on the block torus, for integer index
        arrays ``a`` and ``b`` that broadcast together."""
        grid = _grid(self.n, self.d)
        return np.ravel_multi_index(tuple(c[a] + c[b] for c in grid),
                                    (self.n,) * self.d, mode="wrap")

    def block_negate(self, a) -> np.ndarray:
        """Flat index of -[a] on the block torus, for an integer index
        array ``a``."""
        grid = _grid(self.n, self.d)
        return np.ravel_multi_index(tuple(-c[a] for c in grid),
                                    (self.n,) * self.d, mode="wrap")

    # ---- periodic distances ----------------------------------------------

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

