"""Periodic block geometry of Z_L^d.

The lattice has side length L = n*W and is partitioned into n^d axis-aligned
blocks of linear size W. Sites and blocks are addressed by canonical flattened
integers (row-major) or by coordinate tuples; every public function accepts
both forms. Distances are periodic L^1 (graph) distances on the torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BlockLattice",
    "project_matrix",
    "project_tensor",
]


def _as_coords(idx, d, side):
    """Normalize a site/block address to a coordinate tuple on a torus."""
    if np.isscalar(idx):
        x = int(idx)
        if not 0 <= x < side**d:
            raise ValueError(f"index {x} out of range for side {side}, d={d}")
        if d == 1:
            return (x,)
        return (x // side, x % side)
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
        return _as_coords(x, self.d, self.L)

    def block_index(self, a) -> int:
        return _flatten(_as_coords(a, self.d, self.n), self.n)

    def block_coords(self, a) -> tuple:
        return _as_coords(a, self.d, self.n)

    def block_sites(self, a) -> np.ndarray:
        """Sorted array of the W^d site indices belonging to block a."""
        ac = _as_coords(a, self.d, self.n)
        if self.d == 1:
            return np.arange(ac[0] * self.W, (ac[0] + 1) * self.W)
        r0 = np.arange(ac[0] * self.W, (ac[0] + 1) * self.W)
        r1 = np.arange(ac[1] * self.W, (ac[1] + 1) * self.W)
        return (r0[:, None] * self.L + r1[None, :]).ravel()

    def block_negate(self, a) -> int:
        """Representative of -[a] on the block torus."""
        ac = self.block_coords(a)
        return _flatten(tuple((-v) % self.n for v in ac), self.n)

    def block_shift(self, a, b) -> int:
        """Representative of [a] + [b] on the block torus."""
        ac = self.block_coords(a)
        bc = self.block_coords(b)
        return _flatten(tuple((u + v) % self.n for u, v in zip(ac, bc)), self.n)

    def centered_block_coords(self, a) -> tuple:
        """Signed representative of [a] with components in (-n/2, n/2]."""
        return tuple(v - self.n if v > self.n // 2 else v
                     for v in self.block_coords(a))

    # ---- periodic distances ----------------------------------------------

    def periodic_distance(self, x, y) -> int:
        """Periodic L^1 graph distance ||x - y||_L between sites."""
        xc = self.site_coords(x)
        yc = self.site_coords(y)
        return sum(min((u - v) % self.L, (v - u) % self.L)
                   for u, v in zip(xc, yc))

    def block_distance(self, a, b) -> int:
        """Periodic L^1 distance ||[a] - [b]||_n on the block torus."""
        ac = self.block_coords(a)
        bc = self.block_coords(b)
        return sum(min((u - v) % self.n, (v - u) % self.n)
                   for u, v in zip(ac, bc))

    def block_bracket(self, a, b) -> int:
        """<[a] - [b]> = ||[a] - [b]||_n + 1."""
        return self.block_distance(a, b) + 1

    @cached_property
    def site_distance_matrix(self) -> np.ndarray:
        """(N, N) array of periodic L^1 site distances."""
        return _torus_distances(self.L, self.L, self.d)

    def block0_site_distances(self) -> np.ndarray:
        """(W^d, N) rows of :attr:`site_distance_matrix` for the sites of
        block 0, in ``block_sites(0)`` order, without forming the rest."""
        return _torus_distances(self.W, self.L, self.d)

    @cached_property
    def block_distance_matrix(self) -> np.ndarray:
        """(block_count, block_count) array of periodic block distances."""
        return _torus_distances(self.n, self.n, self.d)

    @cached_property
    def block_offset_matrix(self) -> np.ndarray:
        """(block_count, block_count) array of flattened offsets [b] - [a].

        A block-translation-invariant block matrix with row 0 ``r`` is
        ``r[block_offset_matrix]``.
        """
        shape = (self.n,) * self.d
        coords = np.indices(shape).reshape(self.d, -1)
        diff = (coords[:, None, :] - coords[:, :, None]) % self.n
        return np.ravel_multi_index(tuple(diff), shape)


def _torus_distances(rows: int, side: int, d: int) -> np.ndarray:
    """Periodic L^1 distances on Z_side^d from the points with every
    coordinate in [0, rows) to all points, both flattened row-major."""
    diff = np.abs(np.arange(rows)[:, None] - np.arange(side)[None, :])
    one_d = np.minimum(diff, side - diff)
    if d == 1:
        return one_d
    return (one_d[:, None, :, None] + one_d[None, :, None, :]) \
        .reshape(rows**2, side**2)


def _blocked_shape(lattice: BlockLattice, arity: int) -> tuple:
    """Reshape target exposing (block, offset) factors of every tensor axis."""
    per_axis = (lattice.n, lattice.W) * lattice.d
    return per_axis * arity


def project_matrix(lattice: BlockLattice, A: np.ndarray) -> np.ndarray:
    """Block projection P(A)_[a][b] = W^-d sum_{x in [a], y in [b]} A_xy."""
    N = lattice.N
    if A.shape != (N, N):
        raise ValueError(f"expected shape {(N, N)}, got {A.shape}")
    B = A.reshape(_blocked_shape(lattice, 2))
    offset_axes = tuple(2 * i + 1 for i in range(2 * lattice.d))
    out = B.sum(axis=offset_axes) / lattice.block_volume
    m = lattice.block_count
    return out.reshape(m, m)


def project_tensor(lattice: BlockLattice, A: np.ndarray) -> np.ndarray:
    """Averaged tensor [A]_a = W^{-arity*d} sum over the block cells.

    Unlike :func:`project_matrix` this is a plain average (the W^{-arity*d}
    normalization), matching the primitive-loop convention.
    """
    arity = A.ndim
    if arity > 4:
        raise ValueError(f"tensor arity {arity} not supported (max 4)")
    if any(s != lattice.N for s in A.shape):
        raise ValueError(f"every axis must have length N={lattice.N}")
    B = A.reshape(_blocked_shape(lattice, arity))
    offset_axes = tuple(2 * i + 1 for i in range(arity * lattice.d))
    out = B.mean(axis=offset_axes)
    m = lattice.block_count
    return out.reshape((m,) * arity)
