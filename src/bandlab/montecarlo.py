"""Seeded sampling of Gaussian band matrices and the quantitative estimators.

Replica r of a run keyed by ``master_seed`` always draws from the Philox
stream spawned at (master_seed, r), so any replica can be reproduced
bit-exactly regardless of parallelism or execution order. Ensemble merges
happen in replica-index order, and replica work runs on single-threaded
BLAS, making aggregated reports byte-identical across worker counts and
core counts. numpy's bundled OpenBLAS is the only BLAS and LAPACK bandlab
calls, so pinning its thread count covers every solve and eigensolve.

A replica never forms the N x N profile: each command builds one
:class:`Band` from the profile's blocks, and replicas sample H on its
support and solve for the resolvent layer by layer around its ring, with
each pivot inverted once and applied by matrix products. The order of the
draws is versioned by ``STREAM_VERSION``. The ``locallaw`` and
``diffusion`` replicas write H and G into one pair of N x N buffers per
worker thread instead of allocating them per replica.

The windowed eigenpairs of ``deloc`` and ``que`` come from LAPACK zheevr
(Dhillon-Parlett MRRR for the whole spectrum, bisection and inverse
iteration for a window by value), called through ctypes in that same
OpenBLAS; a numpy build without it falls back to ``np.linalg.eigh``.
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
from functools import cache
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
    "sample_H",
    "green",
    "ward_gate_residual",
    "block_traces",
    "law_scale",
    "eigen_stats",
    "EigenStats",
    "diffusion_predictions",
    "run_ensemble",
    "EnsembleResult",
    "locallaw_replica_fn",
    "diffusion_replica_fn",
    "deloc_replica_fn",
    "que_replica_fn",
]


_RESIDUAL_TOL = 1e-10

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

@dataclass(frozen=True)
class Band:
    """The sparsity of a block random band matrix, read off a profile's blocks.

    Built once per command by :func:`build_band`; every replica shares it.

    - ``rows``, ``cols``, ``sd``: the strictly upper-triangular support of
      S sorted by (row, column), and the standard deviations sqrt(S_xy / 2)
      of the real and imaginary parts there; ``diag_sd`` is sqrt(S_xx).
    - ``cuts``: site boundaries 0 = c_0 < ... < c_p = N of the layers,
      contiguous runs of block rows along the first block coordinate. Each
      layer spans at least the profile's reach along that coordinate, so
      H couples a layer only to itself and its two ring neighbours.
    - ``plan``: the residual plan, (n^d, k) blocks [a] + x for each of the
      k nonzero block offsets x of the profile.
    """

    lattice: BlockLattice
    rows: np.ndarray
    cols: np.ndarray
    sd: np.ndarray
    diag_sd: np.ndarray
    cuts: tuple
    plan: np.ndarray


def build_band(profile: VarianceProfile) -> Band:
    """The :class:`Band` of ``profile``, from its blocks; nothing N x N."""
    lat = profile.lattice
    m, wd = lat.block_count, lat.block_volume
    offsets = sorted(profile.blocks)
    plan = np.array([[lat.block_shift(a, off) for off in offsets]
                     for a in range(lat.block_count)], dtype=int)
    # seeded with empty arrays: an empty profile (S = 0) has no support
    empty = np.zeros(0, dtype=int)
    rows, cols, var = [empty], [empty], [empty.astype(float)]
    for k, off in enumerate(offsets):
        blk = profile.blocks[off]
        i, j = np.nonzero(blk)
        # entry (i, j) of block (a, b) sits at sites (a W^d + i, b W^d + j)
        x = (wd * np.arange(m)[:, None] + i).ravel()
        y = (wd * plan[:, k, None] + j).ravel()
        upper = x < y
        rows.append(x[upper])
        cols.append(y[upper])
        var.append(np.tile(blk[i, j], m)[upper])
    rows, cols, var = (np.concatenate(v) for v in (rows, cols, var))
    order = np.argsort(rows * lat.N + cols)
    diag_sd = np.tile(np.sqrt(np.diagonal(profile.block_at(0))), m)
    reach = max((abs(lat.centered_block_coords(off)[0]) for off in offsets),
                default=0)
    layers = np.array_split(np.arange(lat.n), lat.n // max(reach, 1))
    per_row = lat.N // lat.n
    cuts = tuple(int(first) * per_row for first, *_ in layers) + (lat.N,)
    return Band(lattice=lat, rows=rows[order], cols=cols[order],
                sd=np.sqrt(var[order] / 2.0), diag_sd=diag_sd, cuts=cuts,
                plan=plan)


# ---- sampling -----------------------------------------------------------------

def sample_H(band: Band, rng: np.random.Generator,
             out: np.ndarray | None = None) -> np.ndarray:
    """Hermitian Gaussian matrix with E|H_xy|^2 = S_xy and E H_xy^2 = 0.

    Off-diagonal entries are complex with independent real/imaginary parts
    of variance S_xy/2; the diagonal is real N(0, S_xx). Normals are drawn
    only on the band's support (real parts, imaginary parts, then the
    diagonal: 2 |support| + N of them), so entries with S_xy = 0 are
    exactly zero.

    With ``out``, an N x N complex buffer, H is written into it and only
    the support and the diagonal are written: a buffer created zeroed and
    only ever filled by this band stays exactly zero off the band.
    """
    N, k = band.lattice.N, band.rows.size
    normals = rng.standard_normal(2 * k + N)
    vals = (normals[:k] + 1j * normals[k:2 * k]) * band.sd
    H = np.zeros((N, N), dtype=complex) if out is None else out
    H[band.rows, band.cols] = vals
    H[band.cols, band.rows] = vals.conj()
    H[np.diag_indices(N)] = normals[2 * k:] * band.diag_sd
    return H


# ---- Green's function -----------------------------------------------------------

@dataclass
class GreenFunction:
    z: complex
    G: np.ndarray
    residual: float


def green(band: Band, H: np.ndarray, z: complex,
          out: np.ndarray | None = None) -> GreenFunction:
    """Resolvent (H - z)^{-1} by block elimination around the ring of layers.

    ``H`` must vanish off the band, as :func:`sample_H` draws it. Layers
    0..p-2 are eliminated in order; each pivot is inverted once and applied
    by matrix products. Layer p-1 closes the ring, so the fill of the
    wrap-around couplings stays in its column (F) and row (E). Eliminated
    right-hand sides of layer k are zero beyond the columns of layers 0..k
    and are not carried; until back substitution they are kept in G's rows
    of layer k. Back substitution is one product per layer,
    [-Z -Y] @ [G_last; G_(k+1)], written into G's rows. With one layer
    this is the dense inverse. With ``out``, an N x N complex buffer, G is
    written into it. The residual max|(H - z)G - I| / max(1, max|G|) is
    taken from the band's blocks; above the tolerance, or NaN, it raises
    GreenSolveError.
    """
    z = complex(z)
    if z.imag == 0:
        raise ValueError("green requires Im z != 0")
    cuts = band.cuts
    layer = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    width = np.diff(cuts)
    last = len(layer) - 1
    N, w_last = cuts[-1], width[-1]

    def A(i, j):
        """Block (i, j) of H - z."""
        blk = H[layer[i], layer[j]]
        return blk - z * np.eye(blk.shape[0]) if i == j else blk

    G = np.empty((N, N), dtype=complex) if out is None else out
    # rows [0, w_last) hold the last layer's right-hand side (I in its own
    # columns), then G_last; in back substitution the next w_max rows hold
    # G_(k+1) and the last w_max layer k's eliminated right-hand side
    w_max = max(width[:-1], default=0)
    stack = np.empty((w_last + 2 * w_max, N), dtype=complex)
    rhs_last = stack[:w_last]
    rhs_last[:] = 0.0
    rhs_last[:, cuts[-2]:] = np.eye(w_last)
    D = A(last, last)
    if last:
        # layer 0's pivot P, its couplings C = [F U] to the last layer (the
        # fill column F) and to layer 1, and the last layer's fill row E
        P, E = A(0, 0), A(last, 0)
        C = np.hstack([A(0, last)] + ([A(0, 1)] if last > 1 else []))
    steps = []
    for k in range(last):
        # width of layer k + 1, unless that is the last layer, which F holds
        w_next = width[k + 1] if k + 1 < last else 0
        inv = _inverse(P)
        # -P^-1 [F U L]: [-Z -Y], and for k > 0 the map -P^-1 L of layer
        # (k - 1)'s eliminated right-hand side, L = A(k, k - 1)
        M = inv @ C
        np.negative(M, out=M)
        ZY = M[:, :w_last + w_next]
        # layer k's eliminated right-hand side P^-1 [-L R_(k-1), I]
        Rk = G[layer[k], :cuts[k + 1]]
        Rk[:, cuts[k]:] = inv
        if k:
            np.matmul(M[:, w_last + w_next:], G[layer[k - 1], :cuts[k]],
                      out=Rk[:, :cuts[k]])
        EZY = E @ ZY
        D += EZY[:, :w_last]
        rhs_last[:, :cuts[k + 1]] -= E @ Rk
        steps.append(ZY)
        if not w_next:
            break
        low = A(k + 1, k)
        LZY = low @ ZY
        P = A(k + 1, k + 1) + LZY[:, w_last:]
        F, E = LZY[:, :w_last], EZY[:, w_last:]
        if k + 2 == last:
            F += A(k + 1, last)
            E += A(last, k + 1)
        U = [A(k + 1, k + 2)] if k + 2 < last else []
        C = np.hstack([F] + U + [low])
    np.matmul(_inverse(D), rhs_last, out=G[layer[last]])
    if last:
        rhs_last[:] = G[layer[last]]
    for k in reversed(range(last)):
        ZY, rows = steps[k], G[layer[k]]
        # the product overwrites the eliminated right-hand side kept in
        # these rows, so it waits in the stack's last rows
        Rk = stack[w_last + w_max:w_last + w_max + width[k], :cuts[k + 1]]
        Rk[:] = rows[:, :cuts[k + 1]]
        np.matmul(ZY, stack[:ZY.shape[1]], out=rows)
        rows[:, :cuts[k + 1]] += Rk
        if k:
            stack[w_last:w_last + width[k]] = rows
    resid = _band_residual(band, H, G, z)
    if not resid <= _RESIDUAL_TOL:
        raise GreenSolveError(f"resolvent residual {resid:.3e} above "
                              f"{_RESIDUAL_TOL:.1e}")
    return GreenFunction(z=z, G=G, residual=resid)


def _inverse(P: np.ndarray) -> np.ndarray:
    """P^-1 by one pivoted LU solve against the identity."""
    return np.linalg.solve(P, np.eye(len(P), dtype=complex))


def _band_residual(band: Band, H: np.ndarray, G: np.ndarray,
                   z: complex) -> float:
    """max|(H - z)G - I| / max(1, max|G|), with H read only on the blocks
    of the residual plan: one W^d x kW^d @ kW^d x N product per block [a]
    for the k nonzero block offsets, so no N x N temporary is formed.

    The block rows partition G, so max|G| is taken block by block too.
    The maxima are kept in arrays, whose max keeps a NaN.
    """
    lat = band.lattice
    m, wd = lat.block_count, lat.block_volume
    Hb, Gb = H.reshape(m, wd, m, wd), G.reshape(m, wd, lat.N)
    diag = np.arange(wd)
    worst, gmax = np.empty(m), np.empty(m)
    for a, blocks in enumerate(band.plan):
        Ga = Gb[a]
        R = Hb[a][:, blocks].reshape(wd, -1) @ Gb[blocks].reshape(-1, lat.N)
        R -= z * Ga
        R[diag, a * wd + diag] -= 1.0
        worst[a] = np.abs(R).max()
        gmax[a] = np.abs(Ga).max()
    return float(worst.max() / max(1.0, gmax.max()))


def ward_gate_residual(gf: GreenFunction) -> float:
    """Per-sample Ward identity sum_y |G_xy|^2 = Im G_xx / eta.

    Returns max_x |lhs - rhs| / max(1, max lhs); used as a health gate.
    """
    sq = np.abs(gf.G)
    lhs = np.square(sq, out=sq).sum(axis=1)
    rhs = np.diagonal(gf.G).imag / gf.z.imag
    return float(np.abs(lhs - rhs).max() / max(1.0, lhs.max()))


# ---- numpy's OpenBLAS ------------------------------------------------------------

class _OpenBLAS(NamedTuple):
    """The entry points bandlab calls in numpy's bundled OpenBLAS."""

    get_threads: object
    set_threads: object
    zheevr: object        # LAPACKE_zheevr, or None when the build lacks it
    lapack_int: type      # ctypes.c_int64 for the ILP64 ("64_") build


@cache
def _openblas() -> _OpenBLAS | None:
    """numpy's bundled OpenBLAS, read through ctypes from the loaded library,
    or None when there is none. The thread getter and setter and LAPACKE
    come from one handle, named with the library's symbol prefix and
    suffix; the suffix "64_" marks 64-bit LAPACK integers."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                              None)
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}",
                               None)
                if get is None or set_ is None:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                lapack_int = ctypes.c_int64 if suffix == "64_" \
                    else ctypes.c_int32
                zheevr = getattr(lib, f"{prefix}LAPACKE_zheevr{suffix}", None)
                if zheevr is not None:
                    ptr, dbl, char = ctypes.c_void_p, ctypes.c_double, \
                        ctypes.c_char
                    # (layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu,
                    #  abstol, m, w, z, ldz, isuppz)
                    zheevr.argtypes = [ctypes.c_int, char, char, char,
                                       lapack_int, ptr, lapack_int, dbl, dbl,
                                       lapack_int, lapack_int, dbl,
                                       ctypes.POINTER(lapack_int), ptr, ptr,
                                       lapack_int, ptr]
                    zheevr.restype = lapack_int
                return _OpenBLAS(get, set_, zheevr, lapack_int)
    return None


_COL_MAJOR = 102                   # LAPACK_COL_MAJOR


def _zheevr(lib: _OpenBLAS, H: np.ndarray, window):
    """(eigenvalues, eigenvectors) of Hermitian H from LAPACKE_zheevr:
    every pair by MRRR when ``window`` is None, else the pairs with
    eigenvalues in (lo, hi] by bisection and inverse iteration.

    LAPACK overwrites its input, so it gets a Fortran-ordered copy of H; a
    row-major call would make LAPACKE transpose N x N copies. Columns of the
    eigenvector array past the count found are never written.
    """
    N = H.shape[0]
    if H.shape != (N, N):
        raise ValueError(f"H must be square, not of shape {H.shape}")
    a = np.array(H, dtype=complex, order="F")
    w = np.empty(N)
    z = np.empty((N, N), dtype=complex, order="F")
    isuppz = np.empty(2 * N, dtype=lib.lapack_int)
    found = lib.lapack_int(0)
    kind, (vl, vu) = (b"A", (0.0, 0.0)) if window is None else (b"V", window)
    info = lib.zheevr(_COL_MAJOR, b"V", kind, b"L", N, a.ctypes.data, N,
                      vl, vu, 0, 0, 0.0, ctypes.byref(found), w.ctypes.data,
                      z.ctypes.data, N, isuppz.ctypes.data)
    if info:
        raise EigenSolveError(f"LAPACKE_zheevr failed with info {info}")
    return w[:found.value], z[:, :found.value]


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


@dataclass
class EigenStats:
    sup_norms: np.ndarray          # ||u_k||_inf^2 for windowed vectors
    vectors: np.ndarray            # (N, windowed) eigenvectors in the window


def eigen_stats(H: np.ndarray, window: tuple[float, float], *,
                full_spectrum: bool = False) -> EigenStats:
    """The eigenvectors of H with eigenvalues in ``window`` (closed) and
    their sup-norms.

    The pairs come from LAPACK zheevr in numpy's bundled OpenBLAS, which
    computes only the window's pairs; with ``full_spectrum`` it computes
    every pair by MRRR and the window is kept afterwards, which is faster
    when the window holds most of the spectrum. Without that routine the
    full ``np.linalg.eigh`` serves instead.

    Raises EigenSolveError when H is not finite, when LAPACK reports a
    failure, or when the windowed pairs (V, L) fail the probe
    max|H(Vc) - V(Lc)| / max(1, ||H||_F) <= tolerance for c = (1, ..., 1).
    """
    norm = math.sqrt(np.vdot(H, H).real)
    if not math.isfinite(norm):
        raise EigenSolveError("H is not finite")
    lo, hi = window
    lib = _openblas()
    if lib is None or lib.zheevr is None:
        evals, evecs = np.linalg.eigh(H)
    else:
        # LAPACK takes a window by value only when lo < hi
        by_value = not full_spectrum and lo < hi
        evals, evecs = _zheevr(lib, H, window if by_value else None)
    keep = (evals >= lo) & (evals <= hi)
    evals, vectors = evals[keep], evecs[:, keep]
    resid = float(np.abs(H @ vectors.sum(axis=1) - vectors @ evals).max()
                  / max(1.0, norm))
    if not resid <= _RESIDUAL_TOL:
        raise EigenSolveError(f"eigenpair residual {resid:.3e} above "
                              f"{_RESIDUAL_TOL:.1e}")
    return EigenStats(sup_norms=(np.abs(vectors) ** 2).max(axis=0),
                      vectors=vectors)


def diffusion_predictions(profile: VarianceProfile, z: complex):
    """Deterministic block predictions for |G_xy|^2 and G_xy G_yx averages.

    Returns (pred_abs2, pred_gg): W^{-2d} sums over block pairs of
    |m|^2 (1-|m|^2 S)^{-1} and m^2 (1-m^2 S)^{-1}, i.e. the block
    propagators Theta(+,-) and Theta(+,+) at t = 1 scaled by |m|^2 / W^d
    and m^2 / W^d.
    """
    m = stieltjes_m(z)
    wd = profile.lattice.block_volume
    pred_abs2 = (abs(m) ** 2) * theta(profile, 1.0, (1, -1), m).real / wd
    pred_gg = (m**2) * theta(profile, 1.0, (1, 1), m) / wd
    return pred_abs2, pred_gg


# ---- ensemble driver ----------------------------------------------------------------

@dataclass
class EnsembleResult:
    """Order-independent merge of per-replica observable dictionaries:
    ``sums`` and ``sumsq`` of the 'mean' keys, and for each 'each' key
    the array of its completed replicas' values in replica-index order."""

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
    and squared magnitudes, so an array observable costs the same memory
    for any replica count; 'each' keys keep every completed replica's value.
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
                if reducers.get(key, "mean") == "each":
                    values.setdefault(key, []).append(val)
                    continue
                val = np.asarray(val)
                if key not in sums:
                    sums[key] = val.astype(complex if np.iscomplexobj(val)
                                           else float)
                    sumsq[key] = np.abs(val.astype(complex)) ** 2
                else:
                    sums[key] += val
                    sumsq[key] += np.abs(val) ** 2
    return EnsembleResult(replicas=config.replicas, sums=sums, sumsq=sumsq,
                          values={k: np.array(v) for k, v in values.items()},
                          failures=failures)


# ---- replica closures for the statistical experiments ----------------------------------

def _worker_buffers(N: int):
    """buffers() -> the (H, G) pair of N x N complex buffers of the calling
    thread, allocated on its first call there. H is created zeroed, so
    :func:`sample_H` with ``out=H`` keeps it exactly zero off the band."""
    local = threading.local()

    def buffers():
        pair = getattr(local, "pair", None)
        if pair is None:
            pair = local.pair = (np.zeros((N, N), dtype=complex),
                                 np.empty((N, N), dtype=complex))
        return pair

    return buffers


def locallaw_replica_fn(band: Band, z: complex):
    """Local-law observables: per-block trace residuals and entrywise law.

    H and G live in per-worker buffers; no observable aliases them."""
    lattice = band.lattice
    m = stieltjes_m(z)
    diag = np.diag_indices(lattice.N)
    buffers = _worker_buffers(lattice.N)

    def fn(replica, rng):
        H, G = buffers()
        gf = green(band, sample_H(band, rng, out=H), z, out=G)
        ward = ward_gate_residual(gf)
        # |G - m I|^2 without an N x N identity: only the diagonal shifts
        entry_sq = np.abs(G)
        np.square(entry_sq, out=entry_sq)
        entry_sq[diag] = np.abs(np.diagonal(G) - m) ** 2
        return {
            "block_residual": np.abs(block_traces(lattice, G) - m),
            "entry_sq": entry_sq,
            "ward_residual": ward,
        }

    return fn, {"block_residual": "mean", "entry_sq": "mean",
                "ward_residual": "each"}


def diffusion_replica_fn(band: Band, z: complex):
    """Quantum-diffusion observables: block-pair averages of |G|^2, G G.

    H and G live in per-worker buffers; no observable aliases them."""
    lattice = band.lattice
    wd = lattice.block_volume
    buffers = _worker_buffers(lattice.N)

    def fn(replica, rng):
        H, G = buffers()
        gf = green(band, sample_H(band, rng, out=H), z, out=G)
        abs2 = project_matrix(lattice, np.abs(G) ** 2) / wd
        gg = project_matrix(lattice, G * G.T) / wd
        return {"abs2": abs2, "gg": gg,
                "ward_residual": ward_gate_residual(gf)}

    return fn, {"abs2": "mean", "gg": "mean", "ward_residual": "each"}


def deloc_replica_fn(band: Band, window: tuple[float, float]):
    """Delocalization observables: windowed eigenvector sup-norms."""

    def fn(replica, rng):
        H = sample_H(band, rng)
        # the window holds most of the spectrum: MRRR for all pairs is
        # faster than bisection and inverse iteration for the window's
        stats = eigen_stats(H, window, full_spectrum=True)
        sup = float(stats.sup_norms.max()) if stats.sup_norms.size else 0.0
        return {"sup_norm_sq": sup, "window_count": stats.sup_norms.size}

    return fn, {"sup_norm_sq": "each", "window_count": "each"}


def que_replica_fn(band: Band, window: tuple[float, float]):
    """QUE observables: worst block-mass overlap deviation in the window."""
    lattice = band.lattice
    share = lattice.block_volume / lattice.N

    def fn(replica, rng):
        H = sample_H(band, rng)
        stats = eigen_stats(H, window)
        k = stats.sup_norms.size
        dev = 0.0
        if k:
            # overlap matrices sum_{x in [a]} conj(u_i) u_j of every block
            U = stats.vectors.reshape(lattice.block_count, -1, k)
            overlaps = U.conj().transpose(0, 2, 1) @ U
            dev = float(np.abs(overlaps - share * np.eye(k)).max())
        return {"overlap_dev_sq": dev**2, "window_count": k}

    return fn, {"overlap_dev_sq": "each", "window_count": "each"}
