"""Variance profiles: construction, validation, flow, and serialization.

A profile stores one W^d x W^d block per block offset (block translation
invariance is structural: S|_{[a],[a]+[x]} is the same matrix for every [a]).
No command forms the full N x N matrix; ``assemble`` builds a fresh one on
each call.
"""

from __future__ import annotations

import base64
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import BlockLattice

__all__ = [
    "VarianceProfile",
    "ValidationReport",
    "ProfileError",
    "build_translation_invariant",
    "build_wegner_orbital",
    "wegner_orbital_profile",
    "wegner_gamma_max",
    "block_flat_profile",
    "mean_field_profile",
    "validate",
    "interaction_strength",
    "profile_to_text",
    "KERNELS",
]

_ROWSUM_TOL = 1e-12
EPS_INTER = 0.1     # validate's interaction threshold is W^(-d + EPS_INTER)
P_SAMPLES = 64      # momenta per axis of validate's irreducibility grid


class ProfileError(ValueError):
    """Raised when a profile violates a construction precondition."""


def _offset(lattice: BlockLattice, off) -> int:
    """``off`` as a block offset; anything but an integer in [0, n^d) is
    refused."""
    if not (isinstance(off, numbers.Integral)
            and 0 <= off < lattice.block_count):
        raise ProfileError(f"block offset {off} is not an integer in "
                           f"[0, {lattice.block_count})")
    return int(off)


@dataclass
class VarianceProfile:
    """Block-translation-invariant variance profile.

    ``blocks`` maps a flattened block offset [x] in [0, n^d) to the
    W^d x W^d real matrix S|_{[a],[a]+[x]} (identical for all [a]).
    Missing offsets are zero blocks.
    """

    lattice: BlockLattice
    blocks: dict[int, np.ndarray]
    builder: str = "custom"
    builder_params: dict = field(default_factory=dict)

    def __post_init__(self):
        wd = self.lattice.block_volume
        clean = {}
        for off, blk in self.blocks.items():
            off = _offset(self.lattice, off)
            arr = np.ascontiguousarray(blk, dtype=float)
            if arr.shape != (wd, wd):
                raise ProfileError(f"block at offset {off} has shape {arr.shape}")
            if arr.min() < 0:
                raise ProfileError(f"negative entry in block at offset {off}")
            arr.setflags(write=False)
            clean[off] = arr
        object.__setattr__(self, "blocks", clean)
        negs = self.lattice.block_negate(list(clean)).tolist()
        for (off, blk), neg in zip(clean.items(), negs):
            other = clean.get(neg)
            if other is None or not np.array_equal(blk.T, other):
                raise ProfileError(
                    f"transpose symmetry violated between offsets {off} and {neg}")

    # ---- assembly ----------------------------------------------------------

    def block_at(self, offset) -> np.ndarray:
        wd = self.lattice.block_volume
        return self.blocks.get(_offset(self.lattice, offset),
                               np.zeros((wd, wd)))

    def assemble(self) -> np.ndarray:
        """Full N x N matrix, built afresh and returned read-only."""
        lat = self.lattice
        m, wd = lat.block_count, lat.block_volume
        S = np.zeros((m, wd, m, wd))
        rows = np.arange(m)
        # block (a, b) of S is the block of offset [b] - [a]
        cols = lat.block_shift(rows[:, None], list(self.blocks))
        for k, blk in enumerate(self.blocks.values()):
            S[rows, :, cols[:, k]] = blk
        S = S.reshape(lat.N, lat.N)
        S.setflags(write=False)
        return S

    @cached_property
    def row_sums(self) -> np.ndarray:
        """Row sums of S over one block's W^d rows (every block has the
        same); read-only."""
        rows = np.asarray(sum(blk.sum(axis=1) for blk in self.blocks.values()))
        rows.setflags(write=False)
        return rows

    def row_sum_deviation(self) -> float:
        return float(np.abs(self.row_sums - 1.0).max())


# ---- builders ---------------------------------------------------------------

KERNELS = {
    "uniform": lambda r: 1.0,
    "exponential": lambda r: float(np.exp(-r)),
    "gaussian": lambda r: float(np.exp(-(r**2))),
    "linear": lambda r: 1.0 / (1.0 + r),
}


def mean_field_profile(lattice: BlockLattice) -> VarianceProfile:
    """The mean-field profile S_E (flat diagonal blocks, no interaction)."""
    wd = lattice.block_volume
    blocks = {0: np.full((wd, wd), 1.0 / wd)}
    return VarianceProfile(lattice, blocks, builder="mean_field")


def build_translation_invariant(lattice: BlockLattice, kernel, cutoff: int,
                                name: str = "custom") -> VarianceProfile:
    """Profile S_xy proportional to kernel(||x-y||_L), truncated at cutoff*W.

    The kernel is evaluated on periodic distances; rows are constant by full
    translation invariance, so a single global normalization yields exact
    double stochasticity.
    """
    if cutoff * lattice.W >= lattice.L / 2:
        raise ProfileError(
            f"cutoff*W = {cutoff * lattice.W} overlaps its own periodic image "
            f"(needs < L/2 = {lattice.L / 2})")
    reach = cutoff * lattice.W
    # block 0's rows are the whole profile by translation invariance; its
    # nearest sites in block c lie sum_i [c_i != 0]((|c_i| - 1)W + 1) away
    c = np.abs(lattice.centered_block_coords)
    near = np.flatnonzero(np.where(c > 0, (c - 1) * lattice.W + 1, 0)
                          .sum(axis=0) <= reach).tolist()
    dist = lattice.block0_site_distances(near)
    mask = dist <= reach
    radii, which = np.unique(dist[mask], return_inverse=True)
    vals = np.array([float(kernel(r)) for r in radii])
    if (vals < 0).any():
        raise ProfileError("kernel must be nonnegative")
    weights = np.zeros(dist.shape)
    weights[mask] = vals[which]
    # an exact sum, so that the profile's bits do not depend on the site order
    row = math.fsum(weights[0])
    if row <= 0:
        raise ProfileError("kernel produces a zero row")
    weights /= row
    blocks = {off: blk for off, blk in zip(near, weights.reshape(
        lattice.block_volume, len(near), -1).transpose(1, 0, 2)) if blk.any()}
    prof = VarianceProfile(lattice, blocks, builder="translation_invariant",
                           builder_params={"kernel": name, "cutoff": cutoff})
    if prof.row_sum_deviation() > _ROWSUM_TOL:
        raise ProfileError("row sums drifted during construction")
    return prof


def build_wegner_orbital(lattice: BlockLattice, V: np.ndarray,
                         A: dict[int, np.ndarray]) -> VarianceProfile:
    """Wegner orbital profile: diagonal block V, interaction blocks A^[x].

    Requires (A^[x])^T = A^[-x] and nonnegative entries. If the raw row sums
    are not exactly 1, a single global rescale is applied when the rows are
    constant; otherwise the diagonal of V absorbs the per-row deficit,
    provided that keeps V positive. The applied strategy is recorded.
    """
    lat = lattice
    wd = lat.block_volume
    V = np.asarray(V, dtype=float)
    if V.shape != (wd, wd):
        raise ProfileError(f"V must be {wd}x{wd}")
    if not np.array_equal(V, V.T):
        raise ProfileError("V must be symmetric")
    blocks = {0: V.copy()}
    for off, blk in A.items():
        off = _offset(lat, off)
        if off == 0:
            raise ProfileError("offset 0 belongs to V, not A")
        blk = np.asarray(blk, dtype=float)
        if blk.shape != (wd, wd):
            raise ProfileError(f"A block at {off} must be {wd}x{wd}")
        blocks[off] = blk
    # (A^[x])^T = A^[-x] is checked exactly by VarianceProfile on the
    # normalized blocks; scaling keeps exact transposes exact
    if min(blk.min() for blk in blocks.values()) < 0:
        raise ProfileError("negative entries are not allowed")

    rows = sum(blk.sum(axis=1) for blk in blocks.values())
    strategy = "none"
    if np.abs(rows - 1.0).max() > _ROWSUM_TOL:
        if np.abs(rows - rows[0]).max() <= _ROWSUM_TOL * max(rows[0], 1.0):
            blocks = {off: blk / rows[0] for off, blk in blocks.items()}
            strategy = "global_rescale"
        else:
            newV = blocks[0].copy()
            target = float(rows.max())
            newV[np.diag_indices(wd)] += target - rows
            if newV.min() <= 0:
                raise ProfileError(
                    "rows are not normalizable: diagonal adjustment would "
                    "produce a nonpositive entry")
            blocks[0] = newV
            total = target
            blocks = {off: blk / total for off, blk in blocks.items()}
            strategy = "diagonal_absorb"
    prof = VarianceProfile(lattice, blocks, builder="wegner_orbital",
                           builder_params={"normalization": strategy})
    if prof.row_sum_deviation() > _ROWSUM_TOL:
        raise ProfileError("row sums are not normalizable to 1")
    return prof


def _neighbor_blocks(lattice: BlockLattice, blk: np.ndarray
                     ) -> dict[int, np.ndarray]:
    """``blk`` at each nearest-neighbor block offset +-e_i, axis by axis.
    They are distinct only from n = 3 on: on Z_2, +e_i = -e_i, and on Z_1
    both are 0."""
    if lattice.n < 3:
        raise ProfileError(f"nearest-neighbor blocks need n >= 3 to separate "
                           f"the +-e_i offsets, got n = {lattice.n}")
    steps = np.ravel_multi_index(np.eye(lattice.d, dtype=int),
                                 (lattice.n,) * lattice.d)
    out = {}
    for pos, neg in zip(steps.tolist(), lattice.block_negate(steps).tolist()):
        out[pos] = blk
        out[neg] = blk
    return out


def wegner_orbital_profile(lattice: BlockLattice, alpha: float,
                           gamma: float) -> VarianceProfile:
    """Wegner orbital model with a non-flat, parity-symmetric potential block.

    Each offset +-e_i carries a flat block of per-row mass ``alpha``; the
    diagonal block is flat mass 1 - 2d*alpha times the ripple
    prod_i (1 + gamma cos(pi (x_i + y_i - W + 1) / W)).
    """
    W, d = lattice.W, lattice.d
    wd = lattice.block_volume
    ripple = np.ones((wd, wd))
    for x in np.indices((W,) * d).reshape(d, wd):
        s = x[:, None] + x[None, :]
        ripple = ripple * (1.0 + gamma * np.cos(np.pi * (s - W + 1) / W))
    V = (1.0 - 2 * d * alpha) / wd * ripple
    A = _neighbor_blocks(lattice, np.full((wd, wd), alpha / wd))
    return build_wegner_orbital(lattice, V, A)


def wegner_gamma_max(W: int) -> float:
    """The largest gamma whose ripple factors 1 + gamma cos(pi k/W), |k| < W,
    all round to >= 0 as numpy computes them: -1 over the least cosine,
    about 1/cos(pi/W), and none at W <= 2, where no cosine is negative."""
    c = np.cos(np.pi * np.arange(1 - W, W) / W).min()
    return float(-1 / c) if c < 0 else math.inf


def block_flat_profile(lattice: BlockLattice, neighbor_weight: float
                       ) -> VarianceProfile:
    """Flat-block baseline: constant blocks on offsets 0 and +-e_i.

    Each nearest-neighbor block offset carries total per-row mass
    ``neighbor_weight``; the diagonal block takes the remainder.
    """
    wd = lattice.block_volume
    w1 = float(neighbor_weight)
    if not 0 <= w1 * 2 * lattice.d < 1:
        raise ProfileError(f"neighbor weight {w1:g} must lie in "
                           f"[0, 1/(2d)) = [0, {1 / (2 * lattice.d):g}) "
                           f"at d = {lattice.d}")
    w0 = 1.0 - 2 * lattice.d * w1
    flat = np.full((wd, wd), 1.0 / wd)
    return build_wegner_orbital(lattice, w0 * flat,
                                _neighbor_blocks(lattice, w1 * flat))


# ---- scalar diagnostics ------------------------------------------------------

def interaction_strength(profile: VarianceProfile) -> float:
    """lambda^2: average row mass of the off-diagonal blocks."""
    total = sum(blk.sum() for off, blk in profile.blocks.items() if off != 0)
    return float(total) / profile.lattice.block_volume


# ---- validation --------------------------------------------------------------

@dataclass
class ValidationReport:
    doubly_stochastic: bool
    row_sum_deviation: float
    fullness: float
    flatness: float
    parity_checked: bool
    parity_ok: bool
    parity_violation: float
    lambda2: float
    interaction_ok: bool
    interaction_threshold: float
    irreducibility_ratio: float
    isotropy_range: list[float]    # [min, max]


def validate(profile: VarianceProfile, check_parity: bool = True
             ) -> ValidationReport:
    """Check the defining conditions of the model class and report extremes.

    Reads everything off the blocks; nothing N x N is formed.
    doubly stochastic: every row sums to 1 (the columns then do too, since
    every VarianceProfile is exactly transpose-symmetric by construction).
    fullness: largest eps with S|_[a][a] >= eps * W^-d entrywise.
    flatness: smallest C with S_xy <= C W^-d and S_xy = 0 for |x-y| > C W.
    parity: (S|_[a][b])_{x,y} = (S|_[a][b])_{-y,-x} in centered coordinates
    (requires odd W).
    interaction: lambda^2 >= W^(-d + EPS_INTER).
    irreducibility: min over a p-grid of (1 - phi(p)) / (lambda^2 |p|^2).
    isotropy: eigenvalue range of the step covariance divided by lambda^2.
    """
    lat = profile.lattice
    wd = lat.block_volume
    dev = profile.row_sum_deviation()

    fullness = float(profile.block_at(0).min() * wd)
    blocks = profile.blocks.items()
    max_entry_c = float(max((blk.max() for _, blk in blocks), default=0.0)
                        * wd)
    # the rows of block 0 hold every distance the profile spans
    dist = lat.block0_site_distances(list(profile.blocks))
    reach = max((dist[:, i * wd:(i + 1) * wd][blk > 0].max(initial=0)
                 for i, (_, blk) in enumerate(blocks)), default=0)
    reach_c = float(reach) / lat.W
    flatness = max(max_entry_c, reach_c)

    parity_violation = 0.0
    if check_parity:
        if lat.W % 2 == 0:
            raise ProfileError("parity check requires odd W; set [checks] "
                               "parity = false or use an odd band width")
        for off, blk in profile.blocks.items():
            viol = float(np.abs(blk - blk[::-1, ::-1].T).max())
            parity_violation = max(parity_violation, viol)

    lam2 = interaction_strength(profile)
    thresh = float(lat.W ** (-lat.d + EPS_INTER))
    interaction_ok = lam2 >= thresh

    irre, iso = np.inf, [0.0, 0.0]
    if lam2 > 0:
        # the walk's symbol phi(p) = sum_x P(x) e^(ip.x) is E P E^T (d = 2)
        # or E P, E = exp(i grid (x) c), c the centered values of one axis
        steps = lat.centered_block_coords
        P = np.zeros(lat.block_count)
        P[list(profile.blocks)] = [blk.sum() / wd for _, blk in blocks]
        grid = np.linspace(-np.pi, np.pi, P_SAMPLES, endpoint=False)
        E = np.exp(1j * np.outer(grid, steps[-1, :lat.n]))
        phi = (E @ P.reshape(lat.n, -1) @ E.T if lat.d == 2 else E @ P).real
        p2 = sum(np.ix_(*[grid**2] * lat.d))
        irre = float(np.min((P.sum() - phi)[p2 > 0] / (lam2 * p2[p2 > 0])))
        sigma = np.einsum("k,ik,jk->ij", P, steps, steps)
        evals = np.linalg.eigvalsh(sigma) / lam2
        iso = [float(evals.min()), float(evals.max())]

    return ValidationReport(
        doubly_stochastic=bool(dev <= _ROWSUM_TOL),
        row_sum_deviation=float(dev),
        fullness=fullness,
        flatness=float(flatness),
        parity_checked=bool(check_parity),
        parity_ok=parity_violation <= 1e-12,
        parity_violation=parity_violation,
        lambda2=lam2,
        interaction_ok=bool(interaction_ok),
        interaction_threshold=thresh,
        irreducibility_ratio=float(irre) if np.isfinite(irre) else 0.0,
        isotropy_range=iso,
    )


# ---- flow ---------------------------------------------------------------------

def _affine_blocks(lattice: BlockLattice, blocks: dict, a: float, b: float
                   ) -> dict:
    """Blocks of a * S + b * S_E from the blocks of S; the diagonal block is
    always a new array."""
    wd = lattice.block_volume
    blocks = {off: a * blk for off, blk in blocks.items()}
    blocks[0] = blocks.get(0, np.zeros((wd, wd))) + b / wd
    return blocks


# ---- serialization -------------------------------------------------------------

def profile_to_text(profile: VarianceProfile) -> str:
    """Serialize to a structured text document that stores every block
    bit-exact; the reports' ``profile_digest`` hashes it."""
    lat = profile.lattice
    doc = {
        "d": lat.d,
        "W": lat.W,
        "n": lat.n,
        "builder": profile.builder,
        "builder_params": profile.builder_params,
        "blocks": {str(off): base64.b64encode(blk.astype("<f8").tobytes())
                   .decode("ascii")
                   for off, blk in sorted(profile.blocks.items())},
    }
    return json.dumps(doc, sort_keys=True, indent=1)

