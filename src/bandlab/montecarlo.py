"""Seeded sampling of Gaussian band matrices and the quantitative estimators.

Replica r of a run keyed by ``master_seed`` always draws from the Philox
stream spawned at (master_seed, r), so any replica can be reproduced
bit-exactly regardless of parallelism or execution order. Ensemble merges
happen in replica-index order, making aggregated reports byte-identical
across worker counts.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .lattice import BlockLattice, project_matrix
from .deterministic import LoopSignature, theta_entrywise
from .profiles import mean_field_matrix
from .spectral import ell_of_eta, stieltjes_m

__all__ = [
    "SampleConfig",
    "GreenFunction",
    "GreenSolveError",
    "stream_for",
    "sample_H",
    "flow_increment",
    "green",
    "ward_gate_residual",
    "g_loop",
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
    "write_observation",
    "read_observations",
]


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


def flow_increment(H0: np.ndarray, lattice: BlockLattice, t0: float, t: float,
                   rng: np.random.Generator) -> np.ndarray:
    """One-shot Gaussian increment of the mean-field matrix flow.

    H_t = H_0 + Delta with E|Delta_xy|^2 = (t - t0) (S_E)_xy; the increment
    is sampled exactly (the flow is Gaussian, no time stepping).
    """
    if t < t0:
        raise ValueError(f"flow requires t >= t0, got {t} < {t0}")
    if t == t0:
        return H0.copy()
    delta = sample_H((t - t0) * mean_field_matrix(lattice), rng)
    return H0 + delta


# ---- Green's function -----------------------------------------------------------

@dataclass
class GreenFunction:
    z: complex
    G: np.ndarray
    residual: float


def green(H: np.ndarray, z: complex, residual_tol: float = 1e-10
          ) -> GreenFunction:
    """Resolvent (H - z)^{-1} by dense solve with a max-norm residual check."""
    z = complex(z)
    if z.imag == 0:
        raise ValueError("green requires Im z != 0")
    N = H.shape[0]
    A = H - z * np.eye(N)
    G = np.linalg.solve(A, np.eye(N, dtype=complex))
    resid = float(np.abs(A @ G - np.eye(N)).max() / max(1.0, np.abs(G).max()))
    if resid > residual_tol:
        raise GreenSolveError(f"resolvent residual {resid:.3e} above "
                              f"{residual_tol:.1e}")
    return GreenFunction(z=z, G=G, residual=resid)


def ward_gate_residual(gf: GreenFunction) -> float:
    """Per-sample Ward identity sum_y |G_xy|^2 = Im G_xx / eta.

    Returns max_x |lhs - rhs| / max(1, max lhs); used as a health gate.
    """
    lhs = (np.abs(gf.G) ** 2).sum(axis=1)
    rhs = np.diagonal(gf.G).imag / gf.z.imag
    return float(np.abs(lhs - rhs).max() / max(1.0, lhs.max()))


def _g_sigma(gf: GreenFunction, sigma: int) -> np.ndarray:
    return gf.G if sigma > 0 else gf.G.conj().T


def g_loop(gf: GreenFunction, lattice: BlockLattice, sig: LoopSignature
           ) -> complex:
    """G-loop: trace of the alternating product of G(sigma_i) E_[a_i]."""
    order = sig.order
    if order > 4:
        raise ValueError("G-loops are supported up to order 4")
    blocks = [lattice.block_sites(lattice.block_index(a))
              for a in sig.indices]
    mats = [_g_sigma(gf, s) for s in sig.charges]
    # tr(G1 P1 G2 P2 ...) accumulated through the block slices
    acc = mats[0][np.ix_(blocks[-1], blocks[0])]
    for i in range(1, order):
        acc = acc @ mats[i][np.ix_(blocks[i - 1], blocks[i])]
    return complex(np.trace(acc) / lattice.block_volume**order)


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
    eigenvalues: np.ndarray
    window: tuple[float, float]
    window_indices: np.ndarray
    sup_norms: np.ndarray          # ||u_k||_inf^2 for windowed vectors
    block_overlaps: np.ndarray     # (windowed, block_count)
    vectors: np.ndarray | None = None

    def cross_overlap(self, lattice: BlockLattice, block) -> np.ndarray:
        """QUE overlap matrix sum_{x in [a]} conj(u_i) u_j for the window."""
        if self.vectors is None:
            raise ValueError("eigen_stats was called without keep_vectors")
        sites = lattice.block_sites(lattice.block_index(block))
        U = self.vectors[sites][:, self.window_indices]
        return U.conj().T @ U


def eigen_stats(H: np.ndarray, window: tuple[float, float],
                lattice: BlockLattice, keep_vectors: bool = False
                ) -> EigenStats:
    """Full eigendecomposition with window sup-norms and block overlaps."""
    evals, evecs = np.linalg.eigh(H)
    lo, hi = window
    idx = np.nonzero((evals >= lo) & (evals <= hi))[0]
    probs = np.abs(evecs[:, idx]) ** 2
    sup = probs.max(axis=0) if idx.size else np.zeros(0)
    shape = (lattice.n, lattice.W) * lattice.d + (idx.size,)
    axes = tuple(2 * i + 1 for i in range(lattice.d))
    overlaps = probs.reshape(shape).sum(axis=axes) \
        .reshape(lattice.block_count, idx.size).T
    return EigenStats(eigenvalues=evals, window=(float(lo), float(hi)),
                      window_indices=idx, sup_norms=sup,
                      block_overlaps=overlaps,
                      vectors=evecs if keep_vectors else None)


def diffusion_predictions(lattice: BlockLattice, S: np.ndarray, z: complex):
    """Deterministic block predictions for |G_xy|^2 and G_xy G_yx averages.

    Returns (pred_abs2, pred_gg): W^{-2d} sums over block pairs of
    |m|^2 (1-|m|^2 S)^{-1} and m^2 (1-m^2 S)^{-1}.
    """
    m = stieltjes_m(z)
    wd = lattice.block_volume
    ew_pm = theta_entrywise(S, m, np.conj(m))
    ew_pp = theta_entrywise(S, m, m)
    pred_abs2 = (abs(m) ** 2) * project_matrix(lattice, ew_pm).real / wd
    pred_gg = (m**2) * project_matrix(lattice, ew_pp) / wd
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


def run_ensemble(config: SampleConfig, replica_fn, reducers: dict | None = None,
                 stream=None) -> EnsembleResult:
    """Run ``replica_fn(replica_index, rng) -> dict`` over all replicas.

    Values are merged per key: 'mean' keys accumulate sums and squared
    magnitudes; 'max' keys keep the running elementwise maximum. Merging
    follows replica-index order, so results do not depend on parallelism.
    Failed replicas are recorded and excluded; ``stream`` (optional callable)
    receives (replica_index, result) for raw-observable logging.
    """
    reducers = reducers or {}

    def one(r):
        return replica_fn(r, stream_for(config.master_seed, r))

    results = []
    if config.parallelism > 1:
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            futures = [pool.submit(one, r) for r in range(config.replicas)]
            for r, fut in enumerate(futures):
                try:
                    results.append((r, fut.result()))
                except Exception as exc:
                    results.append((r, exc))
    else:
        for r in range(config.replicas):
            try:
                results.append((r, one(r)))
            except Exception as exc:
                results.append((r, exc))

    sums, sumsq, maxima = {}, {}, {}
    failures = []
    for r, res in results:
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


def deloc_replica_fn(lattice: BlockLattice, S: np.ndarray,
                     window: tuple[float, float]):
    """Delocalization observables: windowed eigenvector sup-norms."""

    def fn(replica, rng):
        H = sample_H(S, rng)
        stats = eigen_stats(H, window, lattice)
        sup = float(stats.sup_norms.max()) if stats.sup_norms.size else 0.0
        return {
            "sup_norm_sq": sup,
            "window_count": float(stats.window_indices.size),
        }

    return fn, {"sup_norm_sq": "max", "window_count": "mean"}


def que_replica_fn(lattice: BlockLattice, S: np.ndarray,
                   window: tuple[float, float]):
    """QUE observables: worst block-mass overlap deviation in the window."""
    wd = lattice.block_volume
    N = lattice.N

    def fn(replica, rng):
        H = sample_H(S, rng)
        stats = eigen_stats(H, window, lattice, keep_vectors=True)
        k = stats.window_indices.size
        dev = 0.0
        if k:
            target = wd / N * np.eye(k)
            for a in range(lattice.block_count):
                ov = stats.cross_overlap(lattice, a)
                dev = max(dev, float(np.abs(ov - target).max()))
        return {"overlap_dev_sq": dev**2, "window_count": float(k)}

    return fn, {"overlap_dev_sq": "max", "window_count": "mean"}


# ---- raw observable stream --------------------------------------------------------------

_RECORD_HEADER = struct.Struct("<QII")


def write_observation(fh, replica: int, obs_id: int,
                      values: np.ndarray) -> None:
    """Append one record: replica index, observable id, float64 payload."""
    data = np.atleast_1d(np.asarray(values, dtype="<f8")).ravel()
    fh.write(_RECORD_HEADER.pack(replica, obs_id, data.size))
    fh.write(data.tobytes())


def read_observations(fh):
    """Yield (replica, obs_id, values) records written by write_observation."""
    while True:
        head = fh.read(_RECORD_HEADER.size)
        if not head:
            return
        replica, obs_id, count = _RECORD_HEADER.unpack(head)
        payload = fh.read(8 * count)
        yield replica, obs_id, np.frombuffer(payload, dtype="<f8").copy()
