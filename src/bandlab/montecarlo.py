"""Seeded sampling of Gaussian band matrices and the quantitative estimators.

Replica r of a run keyed by ``master_seed`` always draws from the Philox
stream spawned at (master_seed, r), so any replica can be reproduced
bit-exactly regardless of parallelism or execution order. Ensemble merges
happen in replica-index order, and replica work runs on single-threaded
BLAS, making aggregated reports byte-identical across worker counts and
core counts. numpy's bundled OpenBLAS is the only BLAS and LAPACK bandlab
calls, so pinning its thread count covers every solve and eigh.
"""

from __future__ import annotations

import ctypes
import glob
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .lattice import BlockLattice, project_matrix
# theta_entrywise is not called here; the benchmark's tracer test checks
# that it wraps this module's binding of it (bench/test_bench.py)
from .deterministic import theta, theta_entrywise  # noqa: F401
from .profiles import VarianceProfile
from .spectral import ell_of_eta, stieltjes_m

__all__ = [
    "SampleConfig",
    "GreenFunction",
    "GreenSolveError",
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


class GreenSolveError(RuntimeError):
    """Raised when a resolvent solve misses the residual target."""


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


# ---- sampling -----------------------------------------------------------------

def sample_H(S: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Hermitian Gaussian matrix with E|H_xy|^2 = S_xy and E H_xy^2 = 0.

    Off-diagonal entries are complex with independent real/imaginary parts
    of variance S_xy/2; the diagonal is real N(0, S_xx). Entries with
    S_xy = 0 are exactly zero.
    """
    N = S.shape[0]
    X = rng.standard_normal((N, N))
    Y = rng.standard_normal((N, N))
    diag = rng.standard_normal(N)
    M = (X + 1j * Y) * np.sqrt(S / 2.0)
    H = np.triu(M, 1)
    H = H + H.conj().T
    np.fill_diagonal(H, diag * np.sqrt(np.diagonal(S)))
    return H


# ---- Green's function -----------------------------------------------------------

@dataclass
class GreenFunction:
    z: complex
    G: np.ndarray
    residual: float


def green(H: np.ndarray, z: complex) -> GreenFunction:
    """Resolvent (H - z)^{-1} by dense solve with a max-norm residual check."""
    z = complex(z)
    if z.imag == 0:
        raise ValueError("green requires Im z != 0")
    N = H.shape[0]
    A = H - z * np.eye(N)
    G = np.linalg.solve(A, np.eye(N, dtype=complex))
    resid = float(np.abs(A @ G - np.eye(N)).max() / max(1.0, np.abs(G).max()))
    if resid > _RESIDUAL_TOL:
        raise GreenSolveError(f"resolvent residual {resid:.3e} above "
                              f"{_RESIDUAL_TOL:.1e}")
    return GreenFunction(z=z, G=G, residual=resid)


def ward_gate_residual(gf: GreenFunction) -> float:
    """Per-sample Ward identity sum_y |G_xy|^2 = Im G_xx / eta.

    Returns max_x |lhs - rhs| / max(1, max lhs); used as a health gate.
    """
    lhs = (np.abs(gf.G) ** 2).sum(axis=1)
    rhs = np.diagonal(gf.G).imag / gf.z.imag
    return float(np.abs(lhs - rhs).max() / max(1.0, lhs.max()))


# ---- per-sample observables -------------------------------------------------------

def block_traces(lattice: BlockLattice, G: np.ndarray) -> np.ndarray:
    """W^-d sum_{x in [a]} G_xx for every block [a]."""
    diag = np.diagonal(G)
    shape = (lattice.n, lattice.W) * lattice.d
    axes = tuple(2 * i + 1 for i in range(lattice.d))
    return diag.reshape(shape).sum(axis=axes).reshape(lattice.block_count) \
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

    def cross_overlap(self, lattice: BlockLattice, block) -> np.ndarray:
        """QUE overlap matrix sum_{x in [a]} conj(u_i) u_j for the window."""
        U = self.vectors[lattice.block_sites(lattice.block_index(block))]
        return U.conj().T @ U


def eigen_stats(H: np.ndarray, window: tuple[float, float]) -> EigenStats:
    """Full eigendecomposition; keeps the eigenvectors inside the window
    and their sup-norms."""
    evals, evecs = np.linalg.eigh(H)
    lo, hi = window
    vectors = evecs[:, (evals >= lo) & (evals <= hi)]
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
    """Order-independent merge of per-replica observable dictionaries."""

    replicas: int
    sums: dict
    sumsq: dict
    maxima: dict
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

    def max(self, key):
        return self.maxima[key]


@cache
def _openblas_threads():
    """(get, set) thread-count functions of numpy's bundled OpenBLAS, read
    through ctypes from the loaded library, or None when there is none."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "lib*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is None or set_ is None:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _single_threaded_blas():
    """Run the body on one OpenBLAS thread; restore the count afterwards.

    Replica threads are the unit of parallelism, and a BLAS call's rounding
    depends on its thread count, so pinning it keeps every replica's bits
    independent of the worker count and of the machine's cores. numpy's
    OpenBLAS is the only BLAS bandlab calls, so the pin covers all of them.
    Without a bundled OpenBLAS the body runs unpinned.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _in_order(one, replicas: int, parallelism: int):
    """Yield (r, one(r)) in replica-index order.

    With workers, at most 2 * parallelism replicas are submitted and not
    yet consumed: replica r + 2 * parallelism is submitted only after the
    caller has taken replica r, so memory stays O(parallelism).
    """
    if parallelism == 1:
        for r in range(replicas):
            yield r, one(r)
        return
    window = 2 * parallelism
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        pending = deque(pool.submit(one, r)
                        for r in range(min(window, replicas)))
        for r in range(replicas):
            yield r, pending.popleft().result()
            if r + window < replicas:
                pending.append(pool.submit(one, r + window))


def run_ensemble(config: SampleConfig, replica_fn, reducers: dict | None = None,
                 stream=None) -> EnsembleResult:
    """Run ``replica_fn(replica_index, rng) -> dict`` over all replicas.

    Values are merged per key: 'mean' keys accumulate sums and squared
    magnitudes; 'max' keys keep the running elementwise maximum. Merging
    follows replica-index order as results arrive, and BLAS runs on one
    thread for the whole call, so results do not depend on parallelism.
    Failed replicas are recorded and excluded. ``stream`` (optional
    callable) is called as ``stream(replica_index, result)`` for every
    completed replica, in merge order, before its values are merged.
    """
    reducers = reducers or {}

    def one(r):
        try:
            return replica_fn(r, stream_for(config.master_seed, r))
        except Exception as exc:
            return exc

    sums, sumsq, maxima = {}, {}, {}
    failures = []
    with _single_threaded_blas():
        for r, res in _in_order(one, config.replicas, config.parallelism):
            if isinstance(res, Exception):
                failures.append((r, f"{type(res).__name__}: {res}"))
                continue
            if stream is not None:
                stream(r, res)
            for key, val in res.items():
                val = np.asarray(val)
                if reducers.get(key, "mean") == "max":
                    maxima[key] = val if key not in maxima \
                        else np.maximum(maxima[key], val)
                else:
                    if key not in sums:
                        sums[key] = val.astype(complex if np.iscomplexobj(val)
                                               else float)
                        sumsq[key] = np.abs(val.astype(complex)) ** 2
                    else:
                        sums[key] = sums[key] + val
                        sumsq[key] = sumsq[key] + np.abs(val) ** 2
    return EnsembleResult(replicas=config.replicas, sums=sums, sumsq=sumsq,
                          maxima=maxima, failures=failures)


# ---- replica closures for the statistical experiments ----------------------------------

def locallaw_replica_fn(lattice: BlockLattice, S: np.ndarray, z: complex,
                        ward_tol: float = 1e-10):
    """Local-law observables: per-block trace residuals and entrywise law."""
    m = stieltjes_m(z)
    eye = np.eye(lattice.N)

    def fn(replica, rng):
        H = sample_H(S, rng)
        gf = green(H, z)
        ward = ward_gate_residual(gf)
        return {
            "block_residual": np.abs(block_traces(lattice, gf.G) - m),
            "entry_sq": np.abs(gf.G - m * eye) ** 2,
            "ward_residual": ward,
            "ward_violation": float(ward > ward_tol),
        }

    return fn, {"block_residual": "mean", "entry_sq": "mean",
                "ward_residual": "max", "ward_violation": "max"}


def diffusion_replica_fn(lattice: BlockLattice, S: np.ndarray, z: complex,
                         ward_tol: float = 1e-10):
    """Quantum-diffusion observables: block-pair averages of |G|^2, G G."""
    wd = lattice.block_volume

    def fn(replica, rng):
        H = sample_H(S, rng)
        gf = green(H, z)
        ward = ward_gate_residual(gf)
        abs2 = project_matrix(lattice, np.abs(gf.G) ** 2) / wd
        gg = project_matrix(lattice, gf.G * gf.G.T) / wd
        return {
            "abs2": abs2,
            "gg": gg,
            "ward_residual": ward,
            "ward_violation": float(ward > ward_tol),
        }

    return fn, {"abs2": "mean", "gg": "mean", "ward_residual": "max",
                "ward_violation": "max"}


def deloc_replica_fn(S: np.ndarray, window: tuple[float, float]):
    """Delocalization observables: windowed eigenvector sup-norms."""

    def fn(replica, rng):
        H = sample_H(S, rng)
        stats = eigen_stats(H, window)
        sup = float(stats.sup_norms.max()) if stats.sup_norms.size else 0.0
        return {
            "sup_norm_sq": sup,
            "window_count": float(stats.sup_norms.size),
        }

    return fn, {"sup_norm_sq": "max", "window_count": "mean"}


def que_replica_fn(lattice: BlockLattice, S: np.ndarray,
                   window: tuple[float, float]):
    """QUE observables: worst block-mass overlap deviation in the window."""
    wd = lattice.block_volume
    N = lattice.N

    def fn(replica, rng):
        H = sample_H(S, rng)
        stats = eigen_stats(H, window)
        k = stats.sup_norms.size
        dev = 0.0
        if k:
            target = wd / N * np.eye(k)
            for a in range(lattice.block_count):
                ov = stats.cross_overlap(lattice, a)
                dev = max(dev, float(np.abs(ov - target).max()))
        return {"overlap_dev_sq": dev**2, "window_count": float(k),
                "window_empty": float(k == 0)}

    return fn, {"overlap_dev_sq": "max", "window_count": "mean",
                "window_empty": "mean"}
