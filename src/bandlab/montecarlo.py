"""Seeded sampling of Gaussian band matrices and the quantitative estimators.

Replica r of a run keyed by ``master_seed`` always draws from the Philox
stream spawned at (master_seed, r), so any replica can be reproduced
bit-exactly regardless of parallelism or execution order. Ensemble merges
happen in replica-index order, and replica work runs on single-threaded
BLAS, making aggregated reports byte-identical across worker counts and
core counts. numpy's bundled OpenBLAS is the only BLAS and LAPACK bandlab
calls, so pinning its thread count covers every solve and eigensolve.

A replica never forms the N x N profile: each command builds one
:class:`Band` from the profile's blocks, whole, with the layout of H's
layers, the draw's positions and the residual's plan. Replicas sample H
on its support, and the resolvent comes from recursive Green's functions
along a chain of layers, closed into their ring by a Schur complement,
with its residual checked one block row at a time, on slices of H's layer
rows and of G's rows. The order of the draws is versioned by
``STREAM_VERSION``. Every replica keeps H in one form, its
:class:`LayerRows`: each layer's rows over the columns of the layer and
its two ring neighbours, all that H holds off zero. Each thread
keeps its buffers in one store (:func:`_kept`): H's :class:`LayerRows`, a
scratch buffer of two W^d x N block rows, and for ``locallaw`` and
``diffusion`` an N x N G; for ``deloc`` and ``que``, once a window takes
every pair, zheevr's N x N input and eigenvectors.

Replica threads share the GIL, and numpy releases it around every call on
more than a few hundred numbers, so each small call of a replica is a
hand-off to the other threads. The resolvent path keeps its calls few
without changing a bit of G: ``np.linalg.inv`` inverts each pivot, H's
diagonal is shifted by -z in place for the solve instead of copied per
layer, the block residual takes one product per run of a block, and |G|^2
is formed once per replica (:attr:`GreenFunction.abs2`) for the Ward gate
and the observables. The residual's normalisation max(1, max|G|) can only
lower max|(H - z)G - I|, so a solve forms it only when that peak is above
the tolerance.

``deloc`` and ``que`` read the eigenpairs in a window through one
:func:`eigen_stats`. A block LDL^H of H - s at a real shift s on the same
ring of layers, with H's diagonal shifted in place as for the resolvent and
its pivots factored by LAPACK zhetrf, counts the eigenvalues below s by
their inertia. The count at the window's edges ends an empty window, and
picks the solver of any other: a wide window (``deloc``'s) takes every
pair from LAPACK zheevr (Dhillon-Parlett MRRR), called through ctypes in
that same OpenBLAS on a dense copy of H's upper triangle, and a narrow
one (``que``'s) runs shift-invert subspace iteration at its centre on the
ring's solves, with H applied one layer's rows at a time.
"""

from __future__ import annotations

import ctypes
import glob
import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .lattice import BlockLattice, project_matrix
# theta_entrywise is not called here; the benchmark's tracer test checks
# that it wraps this module's binding of it (bench/test_bench.py)
from .deterministic import theta, theta_entrywise  # noqa: F401
from .profiles import VarianceProfile
from .spectral import ell_of_eta, stieltjes_m

__all__ = [
    "STREAM_VERSION",
    "SampleConfig",
    "Band",
    "build_band",
    "GreenFunction",
    "GreenSolveError",
    "EigenSolveError",
    "stream_for",
    "LayerRows",
    "sample_H",
    "green",
    "ward_gate_residual",
    "block_traces",
    "law_scale",
    "eigen_stats",
    "diffusion_predictions",
    "run_ensemble",
    "EnsembleResult",
    "locallaw_replica_fn",
    "diffusion_replica_fn",
    "deloc_replica_fn",
    "que_replica_fn",
]


_RESIDUAL_TOL = 1e-10

# A pivot of the ring's LDL^H at a real shift whose inverse has an entry
# of modulus 1 / (_SINGULAR_TOL ||H||_F) or more is singular there: the
# sign that it adds to the count is then rounding. Shift-invert converges
# at Ritz residuals of _RITZ_TOL ||H||_F, a few hundred times the floor
# that its refined solves reach, and fails after _MAX_ITERATIONS steps.
_SINGULAR_TOL = 1e-12
_RITZ_TOL = 1e-14
_MAX_ITERATIONS = 200
# Unrefined solves leave Ritz residuals of up to about 1e-11 ||H||_F at
# the README config; shift-invert refines its solves from _REFINE_TOL on.
_REFINE_TOL = 1e-9

# Version of the order in which replicas draw from their Philox streams;
# reports carry it, and a change of the draw order bumps it. Version 2
# draws normals on the band's support only, in row-major order of the
# sites. Version 3 numbers the sites block by block; at d = 1 that is the
# same numbering, so its draws equal version 2's there.
STREAM_VERSION = 3


class GreenSolveError(RuntimeError):
    """Raised when a resolvent solve misses the residual target."""


class EigenSolveError(RuntimeError):
    """Raised when an eigensolve has a non-finite input, fails in LAPACK or
    misses the residual target."""


@dataclass(frozen=True)
class SampleConfig:
    """Seeding and scheduling for one Monte Carlo run."""

    master_seed: int
    replicas: int
    parallelism: int = 1

    def __post_init__(self):
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")


def stream_for(master_seed: int, replica: int) -> np.random.Generator:
    """Counter-based per-replica stream: Philox keyed by (seed, replica)."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(replica,))
    return np.random.Generator(np.random.Philox(ss))


# ---- the band: what a replica needs of the profile ------------------------------

# compared by identity: a kept buffer of H fits only its own band
@dataclass(frozen=True, eq=False)
class Band:
    """A profile's block band: the support of H, the ring of layers on
    which :class:`LayerRows` keeps H, and the residual's plan there. Built
    whole, once per command, by :func:`build_band`; every replica shares it.

    - ``rows``, ``cols``, ``sd``: the strictly upper-triangular support of
      S sorted by (row, column), and the standard deviations sqrt(S_xy / 2)
      of the real and imaginary parts there; ``diag_sd`` is sqrt(S_xx).
    - ``cuts``: site boundaries 0 = c_0 < ... < c_p = N of the layers,
      contiguous runs of block rows along the first block coordinate, and
      ``slices`` their sites. Each layer spans at least the profile's reach
      along that coordinate, so H couples a layer only to itself and its
      two ring neighbours; ``ends`` are the layers of the chain 0..p-2
      that the last layer couples to.
    - Layer i's rows are kept over the columns of layers i - 1, i and i + 1
      on the ring, in ascending site order: C-ordered from position
      ``base[i]`` of a flat buffer of ``size`` numbers, ``width[i]``
      columns a row. ``spans[i]`` maps each of those layers j to the slice
      of its columns there, so A_ij is a view, and ``sites[i]`` lists the
      sites of those columns. ``upper``, ``lower`` and ``diag`` are the
      positions there of the support (in the band's order), of its mirror
      image and of the diagonal.
    - ``plan``, the residual's: one entry (x, i, row, ((lo, hi, col),
      ...)) per block [a], in order. x is [a]'s first site, i its layer
      and row the first of its rows in layer i's rows. The runs are those
      of consecutive blocks among [a] and the blocks it couples to, as
      site offsets (lo, hi) from x, and col is a run's first column in
      layer i's rows.
    """

    lattice: BlockLattice
    rows: np.ndarray
    cols: np.ndarray
    sd: np.ndarray
    diag_sd: np.ndarray
    cuts: tuple
    slices: tuple
    ends: tuple
    base: tuple
    width: tuple
    spans: tuple
    sites: tuple
    size: int
    upper: np.ndarray
    lower: np.ndarray
    diag: np.ndarray
    plan: tuple


def build_band(profile: VarianceProfile) -> Band:
    """The :class:`Band` of ``profile``, from its blocks; nothing N x N."""
    lat = profile.lattice
    m, wd, N = lat.block_count, lat.block_volume, lat.N
    offsets = sorted(profile.blocks)
    shift = lat.block_shift(np.arange(m)[:, None], offsets)
    # seeded with empty arrays: an empty profile (S = 0) has no support
    empty = np.zeros(0, dtype=int)
    rows, cols, var = [empty], [empty], [empty.astype(float)]
    for k, off in enumerate(offsets):
        blk = profile.blocks[off]
        i, j = np.nonzero(blk)
        # entry (i, j) of block (a, b) sits at sites (a W^d + i, b W^d + j)
        x = (wd * np.arange(m)[:, None] + i).ravel()
        y = (wd * shift[:, k, None] + j).ravel()
        upper = x < y
        rows.append(x[upper])
        cols.append(y[upper])
        var.append(np.tile(blk[i, j], m)[upper])
    rows, cols, var = (np.concatenate(v) for v in (rows, cols, var))
    order = np.argsort(rows * N + cols)
    rows, cols, sd = rows[order], cols[order], np.sqrt(var[order] / 2.0)
    # the layer map below peaks without the sort's temporaries
    del var, order
    reach = int(np.abs(lat.centered_block_coords[0, offsets]).max(initial=0))
    split = np.array_split(np.arange(lat.n), lat.n // max(reach, 1))
    cuts = tuple(int(first) * (N // lat.n) for first, *_ in split) + (N,)
    p = len(cuts) - 1
    # at[i, j]: the first column of layer j in layer i's rows
    at = np.zeros((p, p), dtype=int)
    base, width, spans, size = [], [], [], 0
    for i in range(p):
        span, end = {}, 0
        for j in sorted({(i - 1) % p, i, (i + 1) % p}):
            span[j] = slice(end, end + cuts[j + 1] - cuts[j])
            at[i, j], end = span[j].start, span[j].stop
        base.append(size)
        width.append(end)
        spans.append(span)
        size += (cuts[i + 1] - cuts[i]) * end
    layer = np.repeat(np.arange(p), np.diff(cuts))
    starts, widths, first = (np.array(v) for v in (base, width, cuts))

    def column(i, y):
        """The column of site y in layer i's rows."""
        j = layer[y]
        return at[i, j] + y - first[j]

    def flat(x, y):
        """The position of H_xy in the flat buffer; y lies in layer x's
        rows."""
        i = layer[x]
        return starts[i] + (x - first[i]) * widths[i] + column(i, y)

    plan = []
    for a, r in enumerate(shift):
        # sorted in Python: np.unique's first call faults in 1.6 MB of code
        b = np.array(sorted({a, *r}))
        x = a * wd
        i = int(layer[x])
        plan.append((x, i, x - cuts[i], tuple(
            (wd * int(c[0] - a), wd * int(c[-1] + 1 - a),
             int(column(i, wd * c[0])))
            for c in np.split(b, np.flatnonzero(np.diff(b) != 1) + 1))))
    diag = np.arange(N)
    return Band(
        lattice=lat, rows=rows, cols=cols, sd=sd,
        diag_sd=np.tile(np.sqrt(np.diagonal(profile.block_at(0))), m),
        cuts=cuts, slices=tuple(slice(*c) for c in zip(cuts, cuts[1:])),
        ends=tuple(sorted({0, p - 2})) if p > 1 else (),
        base=tuple(base), width=tuple(width), spans=tuple(spans),
        sites=tuple(np.concatenate([np.arange(cuts[j], cuts[j + 1])
                                    for j in span]) for span in spans),
        size=size, upper=flat(rows, cols), lower=flat(cols, rows),
        diag=flat(diag, diag), plan=tuple(plan))


# ---- sampling -----------------------------------------------------------------

class LayerRows:
    """H as its layer rows: each layer's rows over the columns of the
    layers it couples to, laid out as its :class:`Band` says in one flat
    complex buffer ``data``, created zeroed. ``rows[i]`` is layer i's rows
    as a C-ordered view. At the README config that is 15 layers of 33 rows
    over 99 columns, a fifth of N x N."""

    def __init__(self, band: Band):
        cuts = band.cuts
        self.band = band
        self.data = np.zeros(band.size, dtype=complex)
        self.rows = tuple(
            self.data[b:b + (hi - lo) * w].reshape(hi - lo, w)
            for b, w, lo, hi in zip(band.base, band.width, cuts, cuts[1:]))

    def block(self, i: int, j: int) -> np.ndarray:
        """Block (i, j) of layers of H, a view; j is i or one of its ring
        neighbours."""
        return self.rows[i][:, self.band.spans[i][j]]

    def __matmul__(self, V: np.ndarray) -> np.ndarray:
        """H @ V for V of N rows: one product per layer, of its rows and
        V's rows at the sites of their columns."""
        out = np.empty(V.shape, dtype=complex)
        cuts = self.band.cuts
        for rows, sites, lo, hi in zip(self.rows, self.band.sites, cuts,
                                       cuts[1:]):
            np.matmul(rows, V[sites], out=out[lo:hi])
        return out


def sample_H(band: Band, rng: np.random.Generator,
             out: LayerRows) -> LayerRows:
    """Hermitian Gaussian matrix with E|H_xy|^2 = S_xy and E H_xy^2 = 0.

    Off-diagonal entries are complex with independent real/imaginary parts
    of variance S_xy/2; the diagonal is real N(0, S_xx). Normals are drawn
    only on the band's support (real parts, imaginary parts, then the
    diagonal: 2 |support| + N of them), so entries with S_xy = 0 are
    exactly zero.

    H is written into ``out``, the band's :class:`LayerRows`, and only
    the support and the diagonal are written: layer rows created zeroed
    and only ever filled by this band stay exactly zero off the band.
    """
    k = band.rows.size
    normals = rng.standard_normal(2 * k + band.lattice.N)
    vals = (normals[:k] + 1j * normals[k:2 * k]) * band.sd
    out.data[band.upper] = vals
    out.data[band.lower] = vals.conj()
    out.data[band.diag] = normals[2 * k:] * band.diag_sd
    return out


# ---- Green's function -----------------------------------------------------------

@dataclass
class GreenFunction:
    """G = (H - z)^-1 of one sample, and ``peak``, the largest modulus of
    an entry of its block residual (H - z)G - I."""

    z: complex
    G: np.ndarray
    peak: float

    @cached_property
    def abs2(self) -> np.ndarray:
        """|G_xy|^2, formed on first use and then shared by every reader."""
        sq = np.abs(self.G)
        return np.square(sq, out=sq)

    @cached_property
    def residual(self) -> float:
        """peak / max(1, max|G|). The square root of max|G|^2 is max|G|
        bit for bit, so it is read off :attr:`abs2`."""
        return self.peak / max(1.0, math.sqrt(self.abs2.max()))


# Block rows, of W^d x N complex numbers, in each thread's scratch buffer.
# The ring closure's fill and diffusion's G o G^T take this many block rows
# at a time through it, each batch in one call; the block residual sums a
# block's row in the first and forms each later run's product in the
# second.
_CHUNK_BLOCKS = 2


def green(band: Band, H: LayerRows, z: complex,
          out: np.ndarray | None = None) -> GreenFunction:
    """Resolvent (H - z)^{-1} by recursive Green's functions along the chain
    of layers 0..p-2, closed into the ring by the Schur complement of p-1.

    ``H`` is the band's :class:`LayerRows`. A_ij are the layer blocks of
    H - z, views of H's layer rows while its diagonal is shifted by -z in
    place (:func:`_shifted`), so H must not be read by another thread
    during the call. G's diagonal blocks keep the chain's pivots gL_k =
    (A_kk - A_k,k-1 gL_k-1 A_k-1,k)^-1, and the chain inverse T^-1 is
    filled in bottom-up with Up_k = -gL_k A_k,k+1, Lo_k = -A_k+1,k
    gL_k: row slab Up_k G_k+1,rest, column slab G_rest,k+1 Lo_k, and G_kk =
    gL_k + Up_k G_k+1,k (Svizhenko et al., J. Appl. Phys. 91, 2343 (2002)).
    With the last layer's couplings B, B', X = T^-1 B and S = A_LL - B'X:
    G_LL = S^-1, G_LC = -S^-1 B'T^-1, and each chain block row takes G_CC =
    T^-1 - X G_LC and G_CL = -X S^-1 from one product X [G_LC G_LL], a
    batch of block rows at a time. ``np.linalg.inv``, one pivoted LU solve
    against the identity, inverts every pivot; one layer is the dense
    inverse. With ``out``, an N x N complex buffer, G is written into it.
    The residual max|(H - z)G - I| / max(1, max|G|) is taken from the
    band's blocks; above the tolerance, or NaN, it raises GreenSolveError.
    The normalisation can only lower max|(H - z)G - I|, so it is formed
    only when that is above the tolerance.
    """
    z = complex(z)
    if z.imag == 0:
        raise ValueError("green requires Im z != 0")
    cuts, lay, wd = band.cuts, band.slices, band.lattice.block_volume
    last, M, N = len(lay) - 1, cuts[-2], cuts[-1]
    G = np.empty((N, N), dtype=complex) if out is None else out
    buf = _worker_scratch(band)
    with _shifted(H.data, band.diag, z):
        A = H.block  # block (i, j) of H - z, a view

        # a chain pivot is kept negated in G until the fill reaches it: Up_k
        # and Lo_k take it so, and a sign moved between the factors of a
        # product, or from a subtrahend to an addend, leaves the bits
        for k in range(last):
            P = A(k, k)
            if k:
                P = P + A(k, k - 1) @ G[lay[k - 1], lay[k - 1]] @ A(k - 1, k)
            if k < last - 1:
                np.negative(np.linalg.inv(P), out=G[lay[k], lay[k]])
            else:
                G[lay[k], lay[k]] = np.linalg.inv(P)
        for k in reversed(range(last - 1)):
            neg, rest = G[lay[k], lay[k]], slice(cuts[k + 1], M)
            up, lo = neg @ A(k, k + 1), A(k + 1, k) @ neg
            np.matmul(up, G[lay[k + 1], rest], out=G[lay[k], rest])
            np.matmul(G[rest, lay[k + 1]], lo, out=G[rest, lay[k]])
            np.subtract(up @ G[lay[k + 1], lay[k]], neg, out=neg)
        L = lay[last]
        _sum_of_products(G[:M, L], [(G[:M, lay[e]], A(e, last))
                                    for e in band.ends], buf)
        S = A(last, last)
        if band.ends:
            coupled = (A(last, e) @ G[lay[e], L] for e in band.ends)
            S = S - sum(coupled, next(coupled))
        G[L, L] = np.linalg.inv(S)
        neg = -G[L, L]
        _sum_of_products(G[L, :M], [(neg @ A(last, e), G[lay[e], :M])
                                    for e in band.ends], buf)
    # gemm's bits depend on its row count, so the batch keeps W^d rows a
    # product
    for c in range(0, M, len(buf)):
        rows = G[c:min(c + len(buf), M)]
        prod = buf[:len(rows)]
        np.matmul(rows[:, M:].reshape(-1, wd, N - M), G[L],
                  out=prod.reshape(-1, wd, N))
        rows[:, M:] = 0.0
        rows -= prod
    gf = GreenFunction(z=z, G=G, peak=_residual_peak(band, H, G, z))
    if not (gf.peak <= _RESIDUAL_TOL or gf.residual <= _RESIDUAL_TOL):
        raise GreenSolveError(f"resolvent residual {gf.residual:.3e} above "
                              f"{_RESIDUAL_TOL:.1e}")
    return gf


@contextmanager
def _shifted(data: np.ndarray, diag: np.ndarray, z: complex):
    """H - z in H's own storage for the body: H's flat buffer ``data`` is
    shifted in place at ``diag``, an index array of its diagonal's positions
    (a slice would save a view), and restored bit for bit from a copy."""
    saved = data[diag]
    data[diag] = saved - z
    try:
        yield
    finally:
        data[diag] = saved


_buffers = threading.local()


def _kept(name: str, key, make):
    """The calling thread's buffer ``name`` while it was made for ``key``,
    else a fresh ``make()``, kept in its place. The scratch rows are kept
    by shape, zheevr's buffers by N, and H's layer rows, alone or with G,
    by band: only their own band's draws leave them zero off the band. A
    worker's buffers go with its thread, which ends with
    :func:`run_ensemble`'s pool; the main thread's stay until replaced."""
    held = getattr(_buffers, name, None)
    if held is None or held[0] != key:
        held = (key, make())
        setattr(_buffers, name, held)
    return held[1]


def _worker_scratch(band: Band) -> np.ndarray:
    """The calling thread's complex buffer of ``_CHUNK_BLOCKS`` block rows
    of the band; no call reads what an earlier one left in it."""
    shape = (_CHUNK_BLOCKS * band.lattice.block_volume, band.lattice.N)
    return _kept("scratch", shape, lambda: np.empty(shape, dtype=complex))


def _sum_of_products(out, pairs, part):
    """out = the sum of a @ b over ``pairs``, in the row chunks that a
    contiguous view of ``part`` holds; ``out`` overlaps no factor."""
    step = part.size // max(out.shape[1], 1)
    for c in range(0, len(out) if pairs else 0, step):
        s = out[c:c + step]
        t = part.reshape(-1)[:s.size].reshape(s.shape)
        np.matmul(pairs[0][0][c:c + step], pairs[0][1], out=s)
        for a, b in pairs[1:]:
            s += np.matmul(a[c:c + step], b, out=t)


def _residual_peak(band: Band, H: LayerRows, G: np.ndarray,
                   z: complex) -> float:
    """max|(H - z)G - I| over every entry, with H, the band's
    :class:`LayerRows`, read only on the runs of :attr:`Band.plan`.

    A block's row R of (H - z)G is one product per run, of a slice of H's
    layer rows and G's rows of the run, while H's diagonal is shifted by -z
    in place. The first run's product goes into the first block row of the
    thread's scratch buffer, and each later one into its second, to be
    added in. Each product keeps the W^d x N shape of one block row. The
    blocks' maxima are kept in an array, whose max keeps a NaN."""
    wd, N = band.lattice.block_volume, band.lattice.N
    buf = _worker_scratch(band)
    R, prod = buf[:wd], buf[wd:2 * wd]
    entries = R.reshape(-1)
    # |R| overwrites R's real parts; an imaginary part left beside |R_xy|
    # is at most |R_xy|, so the max of all of them is max|R|
    flat = entries.view(float)
    peaks = np.empty(len(band.plan))
    with _shifted(H.data, band.diag, z):
        for b, (x, i, row, runs) in enumerate(band.plan):
            h = H.rows[i][row:row + wd]
            for k, (lo, hi, col) in enumerate(runs):
                np.matmul(h[:, col:col + hi - lo], G[x + lo:x + hi],
                          out=prod if k else R)
                if k:
                    R += prod
            # the identity's entries in R: (r, x + r) for r < W^d
            entries[x:x + wd * (N + 1):N + 1] -= 1.0
            np.abs(entries, out=flat[::2])
            peaks[b] = flat.max()
    return float(peaks.max())


def ward_gate_residual(gf: GreenFunction) -> float:
    """Per-sample Ward identity sum_y |G_xy|^2 = Im G_xx / eta.

    Returns max_x |lhs - rhs| / max(1, max lhs); used as a health gate.
    """
    lhs = gf.abs2.sum(axis=1)
    rhs = np.diagonal(gf.G).imag / gf.z.imag
    return float(np.abs(lhs - rhs).max() / max(1.0, lhs.max()))


# ---- numpy's OpenBLAS ------------------------------------------------------------

class _OpenBLAS(NamedTuple):
    """The entry points bandlab calls in numpy's bundled OpenBLAS; a LAPACKE
    routine the build lacks is None."""

    get_threads: object
    set_threads: object
    config: str           # openblas_get_config(): the version and core
    zheevr: object        # LAPACKE_zheevr
    zhetrf: object        # LAPACKE_zhetrf, Bunch-Kaufman LDL^H
    zhetri: object        # LAPACKE_zhetri, the inverse from zhetrf's factors
    lapack_int: type      # ctypes.c_int64 for the ILP64 ("64_") build
    int_dtype: np.dtype   # np.dtype(lapack_int), for the integer arrays


@cache
def _openblas() -> _OpenBLAS | None:
    """numpy's bundled OpenBLAS, read through ctypes from the loaded library,
    or None when there is none. Every entry point comes from one handle,
    named with the library's symbol prefix and suffix; the suffix "64_"
    marks 64-bit LAPACK integers."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get, set_, config = (
                    getattr(lib, f"{prefix}openblas_{name}{suffix}", None)
                    for name in ("get_num_threads", "set_num_threads",
                                 "get_config"))
                if get is None or set_ is None or config is None:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                config.argtypes, config.restype = [], ctypes.c_char_p
                lapack_int = ctypes.c_int64 if suffix == "64_" \
                    else ctypes.c_int32
                ptr, dbl = ctypes.c_void_p, ctypes.c_double
                char = ctypes.c_char
                # the arguments after (layout, ...): zheevr's are (jobz,
                # range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z,
                # ldz, isuppz); zhetrf's and zhetri's (uplo, n, a, lda, ipiv)
                signatures = {
                    "zheevr": [char, char, char, lapack_int, ptr, lapack_int,
                               dbl, dbl, lapack_int, lapack_int, dbl,
                               ctypes.POINTER(lapack_int), ptr, ptr,
                               lapack_int, ptr],
                    "zhetrf": [char, lapack_int, ptr, lapack_int, ptr],
                    "zhetri": [char, lapack_int, ptr, lapack_int, ptr],
                }
                routines = {}
                for name, args in signatures.items():
                    fn = getattr(lib, f"{prefix}LAPACKE_{name}{suffix}", None)
                    if fn is not None:
                        fn.argtypes, fn.restype = [ctypes.c_int] + args, \
                            lapack_int
                    routines[name] = fn
                return _OpenBLAS(get, set_, config().decode(),
                                 lapack_int=lapack_int,
                                 int_dtype=np.dtype(lapack_int), **routines)
    return None


_COL_MAJOR = 102                   # LAPACK_COL_MAJOR


class _EigenBuffers(NamedTuple):
    """What an eigensolve of an N x N Hermitian H reads and writes: the
    C-ordered ``a`` that holds H, the eigenvalues ``w``, the
    Fortran-ordered eigenvectors ``z`` and zheevr's ``isuppz``."""

    a: np.ndarray
    w: np.ndarray
    z: np.ndarray
    isuppz: np.ndarray


def _eigen_buffers(N: int) -> _EigenBuffers:
    """The calling thread's :class:`_EigenBuffers` for N x N; no call reads
    what an earlier one left in them."""
    return _kept("eigen", N, lambda: _EigenBuffers(
        np.empty((N, N), dtype=complex), np.empty(N),
        np.empty((N, N), dtype=complex, order="F"),
        np.empty(2 * N, dtype=getattr(_openblas(), "int_dtype", np.int64))))


def _zheevr(lib: _OpenBLAS, a: np.ndarray, out: _EigenBuffers):
    """(eigenvalues, eigenvectors) of the Hermitian H that ``a`` holds,
    every pair by MRRR from LAPACKE_zheevr, written into ``out``.

    ``a`` is Fortran-ordered, so LAPACK reads H from a's own storage with
    no copy; it overwrites a's lower triangle and diagonal and leaves the
    strict upper triangle as it was.
    """
    N = a.shape[0]
    if a.shape != (N, N) or not a.flags.f_contiguous:
        raise ValueError(f"H must be a square Fortran-ordered array, not "
                         f"of shape {a.shape}")
    found = lib.lapack_int(0)
    info = lib.zheevr(_COL_MAJOR, b"V", b"A", b"L", N, a.ctypes.data, N,
                      0.0, 0.0, 0, 0, 0.0, ctypes.byref(found),
                      out.w.ctypes.data, out.z.ctypes.data, N,
                      out.isuppz.ctypes.data)
    if info:
        raise EigenSolveError(f"LAPACKE_zheevr failed with info {info}")
    return out.w, out.z


def _pivot(P: np.ndarray):
    """(negatives, P^-1) for a Hermitian pivot P; P^-1 is None when P is
    exactly singular.

    LAPACKE_zhetrf factors P = L D L^H by Bunch-Kaufman pivoting and zhetri
    inverts it from those factors. By Sylvester's law D has P's inertia;
    each 2 x 2 block of D, marked by a pair of equal negative entries of
    ipiv, has a negative determinant by the pivoting rule, so it holds one
    negative eigenvalue. A build without those routines takes P's
    eigenvalues and inverse from np.linalg.eigh.
    """
    lib = _openblas()
    if lib is None or lib.zhetrf is None or lib.zhetri is None:
        d, Q = np.linalg.eigh(P)
        return int((d < 0).sum()), (Q / d) @ Q.conj().T
    n = len(P)
    a = np.array(P, dtype=complex, order="F")
    ipiv = np.empty(n, dtype=lib.int_dtype)
    info = lib.zhetrf(_COL_MAJOR, b"L", n, a.ctypes.data, n, ipiv.ctypes.data)
    if info < 0:
        raise EigenSolveError(f"LAPACKE_zhetrf failed with info {info}")
    two = ipiv < 0
    negatives = int(np.count_nonzero(a.diagonal().real[~two] < 0)
                    + np.count_nonzero(two) // 2)
    if info > 0:
        return negatives, None
    lib.zhetri(_COL_MAJOR, b"L", n, a.ctypes.data, n, ipiv.ctypes.data)
    np.copyto(a, a.T.conj(), where=_strict_upper(n))
    return negatives, a


@cache
def _strict_upper(n: int) -> np.ndarray:
    """The mask of an n x n matrix's strictly upper triangle, where zhetri
    leaves the inverse's adjoint unwritten."""
    return np.triu(np.ones((n, n), dtype=bool), 1)


class _RingLDL:
    """Block LDL^H of H - shift, at a real shift, over the band's layer ring.

    The chain of layers 0..p-2 gives the pivots P_k = A_kk - A_k,k-1
    P_k-1^-1 A_k-1,k. With the last layer's couplings B, Y = L^-1 B by
    forward substitution along the chain and Z_k = P_k^-1 Y_k, the ring
    closes with S = A_LL - B'T^-1 B = A_LL - Y'Z. By Sylvester's law and
    Haynsworth's inertia additivity (Linear Algebra Appl. 1, 1968),
    ``negatives``, the count of negative eigenvalues of the P_k and of S,
    is #{lambda(H) < shift}. The constructor reads A_ij, the blocks of H -
    shift, as views of H's :class:`LayerRows` with its diagonal in
    :func:`_shifted`.

    :meth:`solve` applies (H - shift)^-1 from the same pieces. Elimination
    across layers without pivoting loses digits when a chain pivot is
    nearly singular, so each solve takes one step of iterative refinement,
    which restores a backward error of a few ulps.

    A pivot or S whose inverse has an entry of modulus 1 / ``tol`` or more
    is singular at the shift and raises EigenSolveError; the shift is
    never moved, as that would move the count at the window's edge.
    """

    def __init__(self, band: Band, H: LayerRows, shift: float, tol: float):
        self.H, self.shift, self.tol = H, shift, tol
        self.A = H.block    # block (i, j) of H, a view: of H - shift below
        self.lay = lay = band.slices
        self.last = last = len(lay) - 1
        self.M = M = band.cuts[-2]
        self.ends = band.ends   # the layers that B couples
        self.negatives = 0
        Y = np.zeros((M, band.lattice.N - M), dtype=complex)
        for e in self.ends:
            Y[lay[e]] = self.A(e, last)
        self.Z = Z = np.empty_like(Y)
        self.inv, self.up = [], []     # P_k^-1 and P_k^-1 A_k,k+1
        with _shifted(H.data, band.diag, shift):
            for k in range(last):
                P = self.A(k, k)
                if k:
                    below = self.A(k, k - 1)
                    P = P - below @ self.up[-1]
                    Y[lay[k]] -= below @ Z[lay[k - 1]]
                self.inv.append(self._factor(P))
                np.matmul(self.inv[k], Y[lay[k]], out=Z[lay[k]])
                if k < last - 1:
                    self.up.append(self.inv[k] @ self.A(k, k + 1))
            self.S_inv = self._factor(self.A(last, last) - Y.conj().T @ Z)

    def _factor(self, P):
        negatives, inv = _pivot(P)
        biggest = np.inf if inv is None else np.abs(inv).max()
        if not biggest < 1 / self.tol:
            raise EigenSolveError(f"a pivot of H - {self.shift!r} is "
                                  f"singular: max|P^-1| = {biggest:.3e}")
        self.negatives += negatives
        return inv

    def _back(self, U):
        """U_k -= P_k^-1 A_k,k+1 U_k+1, from the chain's end: (L^H)^-1 U."""
        for k in reversed(range(self.last - 1)):
            U[self.lay[k]] -= self.up[k] @ U[self.lay[k + 1]]
        return U

    @cached_property
    def X(self):
        """T^-1 B, by back substitution from Z."""
        return self._back(self.Z.copy())

    def _ring_solve(self, R):
        """(H - shift)^-1 R unrefined: the chain by substitution, then the
        last layer through S^-1, and the chain's correction X x."""
        lay, last = self.lay, self.last
        U = np.empty((self.M, R.shape[1]), dtype=complex)
        for k in range(last):
            w = R[lay[k]]
            if k:
                w = w - self.A(k, k - 1) @ U[lay[k - 1]]
            U[lay[k]] = self.inv[k] @ w
        self._back(U)
        x = self.S_inv @ (R[self.M:] - sum(self.A(last, e) @ U[lay[e]]
                                           for e in self.ends))
        return np.concatenate([U - self.X @ x, x])

    def solve(self, R: np.ndarray, refine: bool = True) -> np.ndarray:
        """(H - shift)^-1 R, refined once unless ``refine`` is false."""
        Z = self._ring_solve(R)
        if refine:
            Z += self._ring_solve(R - self.H @ Z + self.shift * Z)
        return Z


# ---- per-sample observables -------------------------------------------------------

def block_traces(lattice: BlockLattice, G: np.ndarray) -> np.ndarray:
    """W^-d sum_{x in [a]} G_xx for every block [a]."""
    return np.diagonal(G).reshape(lattice.block_count, -1).sum(axis=1) \
        / lattice.block_volume


def law_scale(lattice: BlockLattice, lam: float, eta: float) -> float:
    """W^d ell^d eta: the local law's residual scale is its inverse, and
    the diffusion profile's fluctuation scale its inverse square."""
    ell = ell_of_eta(lam, eta, lattice.n)
    return lattice.block_volume * ell**lattice.d * eta


def _probed(H: LayerRows, scale: float, evals: np.ndarray,
            vectors: np.ndarray) -> np.ndarray:
    """``vectors`` once the pairs (evals, vectors) pass the probe
    max|H(Vc) - V(Lc)| / scale <= tolerance for c = (1, ..., 1), where
    ``scale`` is max(1, ||H||_F); EigenSolveError otherwise."""
    x = vectors.sum(axis=1)
    resid = float(np.abs(H @ x - vectors @ evals).max() / scale)
    if not resid <= _RESIDUAL_TOL:
        raise EigenSolveError(f"eigenpair residual {resid:.3e} above "
                              f"{_RESIDUAL_TOL:.1e}")
    return vectors


def _sup_norm_sq(band: Band, vectors: np.ndarray) -> float:
    """max |u(x)|^2 over the columns u of ``vectors``, 0.0 for none, over
    chunks of columns in the thread's scratch buffer, viewed as floats.
    Squaring is monotone, so max|u| squared is max|u|^2 bit for bit."""
    N, k = vectors.shape
    flat = _worker_scratch(band).reshape(-1)
    step = 2 * flat.size // N
    # an N x step Fortran-ordered view: a chunk's columns are contiguous
    mag = flat.view(float)[:N * step].reshape(step, N).T
    sup = 0.0
    for c in range(0, k, step):
        # the last chunk's slice of mag ends where its vectors' slice does
        part = np.abs(vectors[:, c:c + step], out=mag[:, :k - c])
        sup = max(sup, part.max())
    return float(sup * sup)


# A window of more than _ALL_PAIRS_SHARE N eigenvalues takes every pair
# from zheevr, a narrower one shift-invert. Measured with the inertia count
# on both sides (one BLAS thread), the two cross near k = 8-9 at N = 495
# and near k = 32 at N = 2025, both about N / 64.
_ALL_PAIRS_SHARE = 1 / 64


def eigen_stats(band: Band, H: LayerRows,
                window: tuple[float, float]) -> np.ndarray:
    """The N x k eigenvectors of H with eigenvalues in ``window`` (closed),
    one a column in ascending order of their eigenvalues.

    H is the band's :class:`LayerRows`, which the call leaves as it was.
    The window's count k comes from the inertia of
    H - hi and H - lo on the band's layer ring (:class:`_RingLDL`); an
    eigenvalue on an edge makes a pivot singular and raises, and an empty
    window stops there. The solver is picked by k (spectrum slicing:
    Parlett, The Symmetric Eigenvalue Problem, 1980):

    - Above ``_ALL_PAIRS_SHARE`` N, every pair comes from LAPACK zheevr
      (MRRR) in numpy's bundled OpenBLAS, or from ``np.linalg.eigh``
      without that routine. H's strict upper triangle and diagonal are
      copied into the thread's C-ordered buffer ``a``, zeroed first,
      which zheevr reads as the Fortran-ordered a.T: its lower triangle
      is that of conj(H), so zheevr finds H's eigenvalues and the
      conjugates of its eigenvectors, written into the thread's eigen
      buffers. The window's vectors, a view of those, are conjugated in
      place. zheevr's window count must equal k.
    - Otherwise shift-invert subspace iteration at the window's centre
      (Ericsson-Ruhe, Math. Comp. 35, 1980) runs on a block of p = k +
      (k + 4) vectors, whose start is drawn from a fixed generator, never
      from the replica's stream. Each step solves by :class:`_RingLDL`,
      takes the Rayleigh-Ritz pairs of (H - centre)^-1, whose k of largest
      modulus are the window's, and refines those k by Rayleigh-Ritz with
      H. They converge with factors |lambda - centre| / |lambda_p+1 -
      centre|, which the guard k + 4 keeps below about a half on an even
      spectrum. The solves are refined once the residuals of the k pairs,
      |Hv - theta v|, reach 1e-9 ||H||_F or stop halving, and the
      iteration stops one step after they first reach 1e-14 ||H||_F.

    Raises EigenSolveError for a non-finite H, a pivot singular at a shift,
    a LAPACK failure, a zheevr count other than k, no convergence within
    the iteration cap, one of the k Ritz values outside the window, a count
    of Ritz values in the window other than k, or a failed probe.
    """
    # ||H||_F: the layer rows hold each entry of H once
    norm = math.sqrt(np.vdot(H.data, H.data).real)
    if not math.isfinite(norm):
        raise EigenSolveError("H is not finite")
    scale = max(1.0, norm)
    tol = _SINGULAR_TOL * scale
    lo, hi = window
    N = band.lattice.N
    k = (_RingLDL(band, H, hi, tol).negatives
         - _RingLDL(band, H, lo, tol).negatives)
    if k == 0:
        return np.zeros((N, 0), dtype=complex)
    if k > _ALL_PAIRS_SHARE * N:
        lib, buffers = _openblas(), _eigen_buffers(N)
        a = buffers.a
        a.fill(0.0)
        a[band.rows, band.cols] = H.data[band.upper]
        a.reshape(-1)[::N + 1] = H.data[band.diag]
        if lib is None or lib.zheevr is None:
            evals, evecs = np.linalg.eigh(a.T)
        else:
            evals, evecs = _zheevr(lib, a.T, buffers)
        # the eigenvalues come in ascending order
        first = np.searchsorted(evals, lo)
        end = np.searchsorted(evals, hi, "right")
        if end - first != k:
            raise EigenSolveError(f"zheevr found {end - first} eigenvalues "
                                  f"in the window, the inertia counts {k}")
        vectors = evecs[:, first:end]
        np.negative(vectors.imag, out=vectors.imag)
        return _probed(H, scale, evals[first:end], vectors)
    centre = (lo + hi) / 2
    ring = _RingLDL(band, H, centre, tol)
    p = min(N, 2 * k + 4)
    start = np.random.default_rng(0).standard_normal((N, 2 * p)).view(complex)
    Q = np.linalg.qr(start)[0]
    converged, refine, resid = False, False, np.inf
    for _ in range(_MAX_ITERATIONS):
        Z = ring.solve(Q, refine)
        # Ritz pairs of (H - centre)^-1: the k of largest modulus are the
        # window's; a mix of far eigenvectors cannot pose as one of them
        mu, Y = np.linalg.eigh(Q.conj().T @ Z)
        order = np.argsort(-np.abs(mu), kind="stable")
        V = Q @ Y[:, order[:k]]
        HV = H @ V
        theta, R = np.linalg.eigh(V.conj().T @ HV)
        V, HV = V @ R, HV @ R
        last, resid = resid, np.linalg.norm(HV - V * theta, axis=0).max()
        if converged:
            break
        converged = resid <= _RITZ_TOL * norm
        # unrefined solves cost half, but stall at the factorization's
        # backward error: refine from the first step near convergence or
        # not halving the residual
        refine = refine or resid <= _REFINE_TOL * norm or resid > last / 2
        Q = np.linalg.qr(Z @ Y[:, order])[0]
    else:
        raise EigenSolveError(f"shift-invert did not converge in "
                              f"{_MAX_ITERATIONS} steps: Ritz residual "
                              f"{resid:.3e}")
    outside = theta[(theta < lo) | (theta > hi)]
    if outside.size:
        raise EigenSolveError(f"Ritz value {outside[0]!r} outside the window "
                              f"[{lo!r}, {hi!r}]")
    estimates = centre + 1 / mu
    inside = int(((estimates >= lo) & (estimates <= hi)).sum())
    if inside != k:
        raise EigenSolveError(f"{inside} Ritz values in the window, the "
                              f"inertia counts {k}")
    return _probed(H, scale, theta, V)


def diffusion_predictions(profile: VarianceProfile, z: complex):
    """Deterministic block predictions for |G_xy|^2 and G_xy G_yx averages.

    Returns (pred_abs2, pred_gg): W^{-2d} sums over block pairs of
    |m|^2 (1-|m|^2 S)^{-1} and m^2 (1-m^2 S)^{-1}, i.e. the block
    propagators Theta(+,-) and Theta(+,+) at t = 1 scaled by |m|^2 / W^d
    and m^2 / W^d.
    """
    m = stieltjes_m(z)
    wd = profile.lattice.block_volume
    pred_abs2 = (abs(m) ** 2) * theta(profile, 1.0, m * np.conj(m)).real / wd
    pred_gg = (m**2) * theta(profile, 1.0, m * m) / wd
    return pred_abs2, pred_gg


# ---- ensemble driver ----------------------------------------------------------------

@dataclass
class EnsembleResult:
    """Order-independent merge of per-replica observable dictionaries:
    ``sums`` of the 'mean' and 'sum' keys, ``sumsq`` of the 'mean' keys
    only, and for each 'each' key the array of its completed replicas'
    values in replica-index order."""

    replicas: int
    sums: dict
    sumsq: dict
    values: dict
    failures: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.replicas - len(self.failures)

    def mean(self, key):
        return self.sums[key] / self.completed

    def stderr(self, key):
        if key in self.sums and key not in self.sumsq:
            raise ValueError(f"{key!r} was merged by its sums only: its "
                             f"spread was not kept")
        r = self.completed
        if r < 2:
            return np.zeros_like(np.real(self.sums[key]))
        mean = self.sums[key] / r
        var = (self.sumsq[key] / r - np.abs(mean) ** 2) * r / (r - 1)
        return np.sqrt(np.maximum(var.real, 0.0) / r)


@contextmanager
def _single_threaded_blas():
    """Run the body on one OpenBLAS thread; restore the count afterwards.

    Replica threads are the unit of parallelism, and a BLAS call's rounding
    depends on its thread count, so pinning it keeps every replica's bits
    independent of the worker count and of the machine's cores. numpy's
    OpenBLAS is the only BLAS bandlab calls, so the pin covers all of them.
    Without a bundled OpenBLAS the body runs unpinned.
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.get_threads()
    lib.set_threads(1)
    try:
        yield
    finally:
        lib.set_threads(before)


def _in_order(one, replicas: int, parallelism: int):
    """Yield (r, one(r)) in replica-index order.

    At most 2 * parallelism replicas are submitted and not yet consumed:
    replica r + 2 * parallelism is submitted only after the caller has
    taken replica r, so memory stays O(parallelism).
    """
    window = 2 * parallelism
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        pending = deque(pool.submit(one, r)
                        for r in range(min(window, replicas)))
        for r in range(replicas):
            yield r, pending.popleft().result()
            if r + window < replicas:
                pending.append(pool.submit(one, r + window))


def run_ensemble(config: SampleConfig, replica_fn,
                 reducers: dict | None = None) -> EnsembleResult:
    """Run ``replica_fn(replica_index, rng) -> dict`` over all replicas.

    Values are merged per key: 'mean' keys (the default) accumulate sums
    and squared magnitudes, and 'sum' keys, whose spread no report reads,
    only sums, so an array observable costs the same memory for any
    replica count; 'each' keys keep every completed replica's value.
    Merging follows replica-index order as results arrive, and BLAS runs on
    one thread for the whole call, so results do not depend on parallelism.
    Failed replicas are recorded and excluded.
    """
    reducers = reducers or {}

    def one(r):
        try:
            return replica_fn(r, stream_for(config.master_seed, r))
        except Exception as exc:
            return exc

    sums, sumsq, values = {}, {}, {}
    failures = []
    with _single_threaded_blas():
        for r, res in _in_order(one, config.replicas, config.parallelism):
            if isinstance(res, Exception):
                failures.append((r, f"{type(res).__name__}: {res}"))
                continue
            for key, val in res.items():
                how = reducers.get(key, "mean")
                if how == "each":
                    values.setdefault(key, []).append(val)
                    continue
                val = np.asarray(val)
                if key not in sums:
                    sums[key] = val.astype(complex if np.iscomplexobj(val)
                                           else float)
                    if how == "mean":
                        sumsq[key] = np.abs(sums[key]) ** 2
                else:
                    sums[key] += val
                    if how == "mean":
                        sumsq[key] += np.abs(val) ** 2
    return EnsembleResult(replicas=config.replicas, sums=sums, sumsq=sumsq,
                          values={k: np.array(v) for k, v in values.items()},
                          failures=failures)


# ---- replica closures for the statistical experiments ----------------------------------

def _resolvent_replica_fn(band: Band, z: complex, observe):
    """fn(replica, rng) -> observe(gf) and the Ward residual, for the
    GreenFunction gf of the replica's H at z.

    Each thread keeps H's :class:`LayerRows` and an N x N complex G as one
    entry of its buffers (:func:`_kept`), remade for another band. The
    Ward residual is taken before ``observe`` runs, so an observable may
    write into |G|^2; none aliases H or G."""
    N = band.lattice.N

    def fn(replica, rng):
        H, G = _kept("H, G", band, lambda: (LayerRows(band),
                                            np.empty((N, N), dtype=complex)))
        gf = green(band, sample_H(band, rng, out=H), z, out=G)
        ward = ward_gate_residual(gf)
        return {**observe(gf), "ward_residual": ward}

    return fn


def locallaw_replica_fn(band: Band, z: complex):
    """Local-law observables: per-block trace residuals and entrywise law."""
    lattice = band.lattice
    m = stieltjes_m(z)
    diag = np.diag_indices(lattice.N)

    def observe(gf):
        # |G - m I|^2 without an N x N identity: only the diagonal shifts.
        # The Ward gate has read |G|^2, so the replica's array is reused
        entry_sq = gf.abs2
        entry_sq[diag] = np.abs(np.diagonal(gf.G) - m) ** 2
        return {"block_residual": np.abs(block_traces(lattice, gf.G) - m),
                "entry_sq": entry_sq}

    return _resolvent_replica_fn(band, z, observe), {
        "block_residual": "mean", "entry_sq": "sum", "ward_residual": "each"}


def _project_gg(band: Band, G: np.ndarray) -> np.ndarray:
    """project_matrix(lattice, G * G.T) bit for bit, from the products of
    G's block rows and block columns, ``_CHUNK_BLOCKS`` block rows at a
    time in the thread's scratch buffer: no N x N temporary."""
    lat = band.lattice
    m, wd, N = lat.block_count, lat.block_volume, lat.N
    buf = _worker_scratch(band)
    out = np.empty((m, m), dtype=complex)
    for a in range(0, m, _CHUNK_BLOCKS):
        rows = slice(a * wd, min(a + _CHUNK_BLOCKS, m) * wd)
        prod = np.multiply(G[rows], G[:, rows].T,
                           out=buf[:rows.stop - rows.start])
        out[a:a + _CHUNK_BLOCKS] = prod.reshape(-1, wd, m, wd).sum(
            axis=(1, 3))
    return np.divide(out, wd, out=out)


def diffusion_replica_fn(band: Band, z: complex):
    """Quantum-diffusion observables: block-pair averages of |G|^2, G G."""
    lattice = band.lattice
    wd = lattice.block_volume

    def observe(gf):
        return {"abs2": project_matrix(lattice, gf.abs2) / wd,
                "gg": _project_gg(band, gf.G) / wd}

    return _resolvent_replica_fn(band, z, observe), {
        "abs2": "mean", "gg": "mean", "ward_residual": "each"}


def _eigen_replica_fn(band: Band, window: tuple[float, float], observe):
    """fn(replica, rng) -> observe(vectors) and the window count, for the
    eigenvectors of the replica's H in ``window`` (:func:`eigen_stats`).

    Each thread keeps H's :class:`LayerRows` among its buffers
    (:func:`_kept`), remade for another band."""
    def fn(replica, rng):
        H = _kept("H", band, lambda: LayerRows(band))
        vectors = eigen_stats(band, sample_H(band, rng, out=H), window)
        return {**observe(vectors), "window_count": vectors.shape[1]}

    return fn


def deloc_replica_fn(band: Band, window: tuple[float, float]):
    """Delocalization observables: the largest windowed eigenvector
    sup-norm."""
    def observe(vectors):
        return {"sup_norm_sq": _sup_norm_sq(band, vectors)}

    return _eigen_replica_fn(band, window, observe), {
        "sup_norm_sq": "each", "window_count": "each"}


def que_replica_fn(band: Band, window: tuple[float, float]):
    """QUE observables: worst block-mass overlap deviation in the
    window."""
    lattice = band.lattice
    share = lattice.block_volume / lattice.N

    def observe(vectors):
        k = vectors.shape[1]
        dev = 0.0
        if k:
            # overlap matrices sum_{x in [a]} conj(u_i) u_j of every block
            U = vectors.reshape(lattice.block_count, -1, k)
            overlaps = U.conj().transpose(0, 2, 1) @ U
            dev = float(np.abs(overlaps - share * np.eye(k)).max())
        return {"overlap_dev_sq": dev**2}

    return _eigen_replica_fn(band, window, observe), {
        "overlap_dev_sq": "each", "window_count": "each"}
