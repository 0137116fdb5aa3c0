"""Deterministic limit theory: Theta-propagators, primitive loops, kernels.

Charges are represented as +1 / -1 integers; for a reference value m in the
upper half plane, m(+1) = m and m(-1) = conj(m). All operations take the
(already t-dependent) assembled variance matrix S, so the same code serves
the characteristic flow (|m| = 1, row sums t) and the original spectral
parameter (|m| < 1, row sums 1).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .lattice import BlockLattice, project_matrix, project_tensor
from .profiles import mean_field_matrix

__all__ = [
    "LoopSignature",
    "PropagatorError",
    "parse_charges",
    "charge_m",
    "theta_entrywise",
    "theta",
    "propagator_invariants",
    "KLoopCalculator",
    "khat_loop",
    "k_loop",
    "cut_signature",
    "ward_residual",
    "kloop_flow_derivative_residual",
    "evolution_kernel_apply",
    "random_walk_representation",
    "RandomWalkRep",
    "theta_decay_report",
    "DecayReport",
    "finite_difference_report",
    "FiniteDifferenceReport",
]

_CHARGE_NAMES = {"+": 1, "-": -1, 1: 1, -1: -1, "+1": 1, "-1": -1}


class PropagatorError(ValueError):
    """Raised when a resolvent factor is singular or ill-conditioned."""


def parse_charges(spec) -> tuple[int, ...]:
    """Normalize a charge vector ('+-', ['+','-'], (1,-1), ...) to +-1 ints."""
    out = []
    for s in spec:
        if s not in _CHARGE_NAMES:
            raise ValueError(f"unknown charge {s!r}")
        out.append(_CHARGE_NAMES[s])
    if not out:
        raise ValueError("charge vector must be nonempty")
    return tuple(out)


def charge_m(m: complex, sigma: int) -> complex:
    """m(sigma): m for +, conj(m) for -."""
    return m if sigma > 0 else np.conj(m)


@dataclass(frozen=True)
class LoopSignature:
    """Charge vector plus index tuple (blocks for K/L-loops, sites for Khat)."""

    charges: tuple[int, ...]
    indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "charges", parse_charges(self.charges))
        object.__setattr__(self, "indices", tuple(self.indices))
        if len(self.charges) != len(self.indices):
            raise ValueError("charges and indices must have equal length")

    @property
    def order(self) -> int:
        return len(self.charges)


# ---- Theta propagators --------------------------------------------------------

def theta_entrywise(S: np.ndarray, m1: complex, m2: complex,
                    residual_tol: float = 1e-10) -> np.ndarray:
    """Entrywise propagator (1 - m1*m2*S)^(-1), residual-checked LU solve."""
    N = S.shape[0]
    A = np.eye(N, dtype=complex) - (m1 * m2) * S
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lu = lu_factor(A)
            X = lu_solve(lu, np.eye(N, dtype=complex))
    except Exception as exc:  # singular factorization
        raise PropagatorError(f"resolvent factor is singular: {exc}") from exc
    if not np.isfinite(X).all():
        raise PropagatorError("resolvent factor is singular")
    scale = np.abs(X).max()
    resid = np.abs(A @ X - np.eye(N)).max()
    # relative residual per the solve contract; the absolute cap catches
    # (near-)singular systems where backward stability hides the blow-up
    if resid > residual_tol * scale or resid > 1e-6:
        raise PropagatorError(
            f"singular or ill-conditioned propagator: residual {resid:.3e} "
            f"(max entry {scale:.3e})")
    return X


def theta(lattice: BlockLattice, S: np.ndarray, sigma_pair,
          m: complex) -> np.ndarray:
    """Block propagator: projection of the entrywise propagator for S."""
    pair = parse_charges(sigma_pair)
    if len(pair) != 2:
        raise ValueError("sigma_pair must have length 2")
    ew = theta_entrywise(S, charge_m(m, pair[0]), charge_m(m, pair[1]))
    return project_matrix(lattice, ew)


def propagator_invariants(lattice: BlockLattice, th: np.ndarray) -> dict:
    """Max deviations for transposition, translation, and parity symmetry.

    Theta(s, s') and Theta(s', s) solve the same system, because
    m(s) m(s') is the same float in either order, so the transposition
    deviation of Theta(s, s') is max |Theta^T - Theta|.
    """
    transposition = float(np.abs(th.T - th).max())

    mcount = lattice.block_count
    translation = 0.0
    row0 = th[0]
    for a in range(1, mcount):
        shifted = np.array([th[a, lattice.block_shift(y, a)]
                            for y in range(mcount)])
        translation = max(translation, float(np.abs(shifted - row0).max()))

    parity = float(max(abs(th[0, x] - th[0, lattice.block_negate(x)])
                       for x in range(mcount)))
    return {"transposition": transposition, "translation": translation,
            "parity": parity}


# ---- primitive loops ------------------------------------------------------------

def loop_size_guard(lattice: BlockLattice, order: int,
                    site_cap: float = 1e7, max_bytes: int = 1 << 30) -> None:
    """Refuse brute-force loop tensors that exceed the configured caps."""
    if order >= 3:
        if lattice.L ** (order + 1) > site_cap:
            raise MemoryError(
                f"L^(order+1) = {lattice.L ** (order + 1):.3g} exceeds the "
                f"size cap {site_cap:.3g}")
    tensor_bytes = 16 * lattice.N**order
    if tensor_bytes > max_bytes:
        raise MemoryError(
            f"loop tensor would need {tensor_bytes:.3g} bytes "
            f"(cap {max_bytes:.3g})")


@dataclass
class KLoopCalculator:
    """Entrywise and block primitive loops for one (S, m) context.

    Lower-order tensors are memoized by charge vector; the resolvent factor
    of the recursion is factorized once per distinct m(s)m(s') value and
    shared across all terms.
    """

    lattice: BlockLattice
    S: np.ndarray
    m: complex
    site_cap: float = 1e7
    max_bytes: int = 1 << 30
    _khat: dict = field(default_factory=dict, repr=False)
    _resolvents: dict = field(default_factory=dict, repr=False)

    def resolvent(self, c: complex) -> np.ndarray:
        key = complex(c)
        if key not in self._resolvents:
            self._resolvents[key] = theta_entrywise(self.S, key, 1.0)
        return self._resolvents[key]

    def khat_tensor(self, charges) -> np.ndarray:
        """Entrywise primitive loop tensor, axes = the loop's site indices."""
        charges = parse_charges(charges)
        if charges in self._khat:
            return self._khat[charges]
        order = len(charges)
        N = self.S.shape[0]
        loop_size_guard(self.lattice, order, self.site_cap, self.max_bytes)
        if order == 1:
            out = np.full(N, charge_m(self.m, charges[0]), dtype=complex)
        else:
            out = self._recurse(charges)
        out.setflags(write=False)
        self._khat[charges] = out
        return out

    def _recurse(self, charges: tuple[int, ...]) -> np.ndarray:
        # builds the order-(n+1) tensor from tensors of every lower order
        order = len(charges)
        N = self.S.shape[0]
        m1 = charge_m(self.m, charges[0])
        mlast = charge_m(self.m, charges[-1])
        R = self.resolvent(m1 * mlast)
        # rotated lower tensor evaluated at (x2, ..., x_{order-1}, x1)
        T = np.moveaxis(self.khat_tensor(charges[1:]), -1, 0)
        rshape = (N,) + (1,) * (order - 2) + (N,)
        out = m1 * T[..., None] * R.reshape(rshape)
        for k in range(2, order):
            B = self.khat_tensor(charges[:k])          # (x1..x_{k-1}, y)
            C = np.tensordot(B, self.S, axes=([-1], [1]))  # (x1..x_{k-1}, x)
            D = self.khat_tensor(charges[k - 1:])      # (x_k.., x)
            E = np.einsum("px,qx,xj->pqj", C.reshape(-1, N), D.reshape(-1, N),
                          R, optimize=True)
            out += m1 * E.reshape(out.shape)
        return out

    def k_tensor(self, charges, via: str = "auto") -> np.ndarray:
        """Block primitive loop tensor (projected/averaged Khat).

        For order 2, ``via='theta'`` uses the closed form
        W^-d m(s) m(s') Theta; ``via='recursion'`` averages the entrywise
        recursion; ``'auto'`` prefers the fast theta path.
        """
        charges = parse_charges(charges)
        order = len(charges)
        if via == "auto":
            via = "theta" if order == 2 else "recursion"
        if via == "theta":
            if order != 2:
                raise ValueError("theta path exists only for order 2")
            m1 = charge_m(self.m, charges[0])
            m2 = charge_m(self.m, charges[1])
            block = project_matrix(self.lattice, self.resolvent(m1 * m2))
            return m1 * m2 * block / self.lattice.block_volume
        if via != "recursion":
            raise ValueError(f"unknown path {via!r}")
        return project_tensor(self.lattice, self.khat_tensor(charges))


def khat_loop(lattice: BlockLattice, S: np.ndarray, m: complex,
              sig: LoopSignature, **caps) -> complex:
    """Entrywise primitive loop value at the signature's site tuple."""
    calc = KLoopCalculator(lattice, S, m, **caps)
    sites = tuple(lattice.site_index(x) for x in sig.indices)
    return complex(calc.khat_tensor(sig.charges)[sites])


def k_loop(lattice: BlockLattice, S: np.ndarray, m: complex,
           sig: LoopSignature, via: str = "auto", **caps) -> complex:
    """Block primitive loop value at the signature's block tuple."""
    calc = KLoopCalculator(lattice, S, m, **caps)
    blocks = tuple(lattice.block_index(a) for a in sig.indices)
    return complex(calc.k_tensor(sig.charges, via=via)[blocks])


# ---- loop operations -------------------------------------------------------------

def cut_signature(kind: str, sig: LoopSignature, k: int, l: int,
                  new_block) -> LoopSignature:
    """Cut-and-glue index transforms Cut_L / Cut_R at positions 1<=k<l<=n.

    Cut_L keeps (s_1..s_k, s_l..s_n) with indices (a_1..a_{k-1}, new, a_l..a_n);
    Cut_R keeps (s_k..s_l) with indices (a_k..a_{l-1}, new).
    """
    order = sig.order
    if not 1 <= k < l <= order:
        raise ValueError(f"need 1 <= k < l <= {order}, got k={k}, l={l}")
    ch, ix = sig.charges, sig.indices
    if kind == "L":
        charges = ch[:k] + ch[l - 1:]
        indices = ix[:k - 1] + (new_block,) + ix[l - 1:]
    elif kind == "R":
        charges = ch[k - 1:l]
        indices = ix[k - 1:l - 1] + (new_block,)
    else:
        raise ValueError(f"kind must be 'L' or 'R', got {kind!r}")
    return LoopSignature(charges=charges, indices=indices)


# ---- Ward identity ----------------------------------------------------------------

def ward_residual(lattice: BlockLattice, S: np.ndarray, m: complex,
                  eta_t: float, charges, indices=None, calc=None,
                  **caps) -> float:
    """Relative Ward-identity residual at the last block index.

    Compares sum_{[a_n]} K^(n) against the difference of the two order-(n-1)
    loops with the first charge replaced by +/-, divided by 2i W^d eta_t.
    Requires sigma_1 = -sigma_n. With ``indices`` (a prefix tuple of n-1
    blocks) returns the residual at that cell, otherwise the max over cells.
    A shared ``calc`` (KLoopCalculator) reuses loop tensors across calls.
    """
    charges = parse_charges(charges)
    order = len(charges)
    if order < 2:
        raise ValueError("Ward identity needs order >= 2")
    if charges[0] != -charges[-1]:
        raise ValueError("Ward identity requires sigma_1 = -sigma_n")
    if calc is None:
        calc = KLoopCalculator(lattice, S, m, **caps)
    lhs = calc.k_tensor(charges, via="recursion").sum(axis=-1)
    mid = charges[1:-1]
    plus = calc.k_tensor((1,) + mid, via="recursion")
    minus = calc.k_tensor((-1,) + mid, via="recursion")
    rhs = (plus - minus) / (2j * lattice.block_volume * eta_t)
    scale = max(np.abs(lhs).max(), np.abs(rhs).max())
    if indices is not None:
        cell = tuple(lattice.block_index(a) for a in indices)
        return float(abs(lhs[cell] - rhs[cell]) / scale)
    return float(np.abs(lhs - rhs).max() / scale)


# ---- loop-hierarchy flow check ------------------------------------------------------

_LETTERS = "abcdefgh"


def _hierarchy_rhs(calc: KLoopCalculator, charges: tuple[int, ...]
                   ) -> np.ndarray:
    """W^d sum_{k<l} sum_[b] (Cut_L o K) * (Cut_R o K), via cut_signature."""
    order = len(charges)
    if order < 2:
        # no k < l pairs: the order-1 loop is constant along the flow
        return np.zeros((calc.lattice.block_count,) * order, dtype=complex)
    labels = tuple(_LETTERS[:order])
    base = LoopSignature(charges=charges, indices=labels)
    out = None
    for k, l in itertools.combinations(range(1, order + 1), 2):
        left = cut_signature("L", base, k, l, "z")
        right = cut_signature("R", base, k, l, "z")
        tl = calc.k_tensor(left.charges, via="recursion")
        tr = calc.k_tensor(right.charges, via="recursion")
        expr = (f"{''.join(left.indices)},{''.join(right.indices)}"
                f"->{''.join(labels)}")
        term = np.einsum(expr, tl, tr, optimize=True)
        out = term if out is None else out + term
    return calc.lattice.block_volume * out


def kloop_flow_derivative_residual(lattice: BlockLattice, S_t: np.ndarray,
                                   m: complex, charges, dt: float,
                                   **caps) -> float:
    """Central-difference check of the primitive-loop evolution equation.

    dK/dt along S_t -> S_t + dt*S_E is compared with the quadratic
    cut-and-glue hierarchy term; returns max|lhs - rhs| / max|rhs|.
    Expected O(dt^2) for smooth profiles.
    """
    charges = parse_charges(charges)
    se = mean_field_matrix(lattice)
    plus = KLoopCalculator(lattice, S_t + dt * se, m, **caps)
    minus = KLoopCalculator(lattice, S_t - dt * se, m, **caps)
    lhs = (plus.k_tensor(charges, via="recursion")
           - minus.k_tensor(charges, via="recursion")) / (2 * dt)
    center = KLoopCalculator(lattice, S_t, m, **caps)
    rhs = _hierarchy_rhs(center, charges)
    scale = max(float(np.abs(rhs).max()), float(np.abs(lhs).max()), 1e-300)
    return float(np.abs(lhs - rhs).max() / scale)


# ---- evolution kernel ----------------------------------------------------------------

def evolution_kernel_apply(lattice: BlockLattice, s: float, t: float,
                           charges, m: complex, thetas: dict,
                           A: np.ndarray) -> np.ndarray:
    """Apply U_{s,t}: per axis i, I + (t-s) m(s_i) m(s_{i+1}) Theta_t^(i,i+1).

    ``thetas`` maps charge pairs to block propagator matrices at time t
    (cyclic convention sigma_{n+1} = sigma_1). Supports 2- and 3-tensors.
    """
    charges = parse_charges(charges)
    order = len(charges)
    if order not in (2, 3):
        raise ValueError("evolution kernel supports loop orders 2 and 3")
    if s > t:
        raise ValueError("need s <= t")
    if A.shape != (lattice.block_count,) * order:
        raise ValueError("tensor shape does not match the block lattice")
    mats = []
    eye = np.eye(lattice.block_count)
    for i in range(order):
        pair = (charges[i], charges[(i + 1) % order])
        mats.append(eye + (t - s) * charge_m(m, pair[0])
                    * charge_m(m, pair[1]) * thetas[pair])
    if order == 2:
        return mats[0] @ A @ mats[1].T
    return np.einsum("ai,bj,ck,ijk->abc", mats[0], mats[1], mats[2], A,
                     optimize=True)


# ---- random walk representation --------------------------------------------------------

@dataclass
class RandomWalkRep:
    K: np.ndarray
    t_hat: float
    residual: float
    row_deficit: float
    theta: np.ndarray


def random_walk_representation(lattice: BlockLattice, S_t: np.ndarray,
                               c_ker: float) -> RandomWalkRep:
    """Random-walk form of the (+,-) flow propagator Theta = P((1-S_t)^-1).

    Splits S_t = S_ker + c_ker*S_E, builds the stochastic block kernel
    K = (1-t+c_ker) P((1-S_ker)^-1) and the effective time
    t_hat = c_ker/(1-t+c_ker), and reports the max-norm residual of
    Theta = t_hat K (1 - t_hat K)^{-1} / c_ker.
    """
    rows = S_t.sum(axis=1)
    t = float(rows.mean())
    if np.abs(rows - t).max() > 1e-10:
        raise ValueError("S_t must have constant row sums")
    se = mean_field_matrix(lattice)
    s_ker = S_t - c_ker * se
    if s_ker.min() < -1e-14:
        admissible = float(S_t[se > 0].min() * lattice.block_volume)
        raise ValueError(
            f"c_ker={c_ker} produces negative entries; "
            f"maximal admissible value is {admissible}")
    np.clip(s_ker, 0.0, None, out=s_ker)
    N = lattice.N
    eye = np.eye(N)
    inv_ker = np.linalg.solve(eye - s_ker, eye)
    deficit = 1.0 - t + c_ker
    K = deficit * project_matrix(lattice, inv_ker)
    t_hat = c_ker / deficit
    th = project_matrix(lattice, np.linalg.solve(eye - S_t, eye))
    mb = lattice.block_count
    recon = (t_hat / c_ker) * K @ np.linalg.solve(np.eye(mb) - t_hat * K,
                                                  np.eye(mb))
    residual = float(np.abs(th - recon).max() / np.abs(th).max())
    return RandomWalkRep(K=K, t_hat=t_hat, residual=residual,
                         row_deficit=deficit, theta=th)


# ---- decay and finite-difference reports ------------------------------------------------

@dataclass
class DecayReport:
    distances: np.ndarray
    values: np.ndarray
    fit_slope: float
    decay_length: float
    fit_start: float
    monotone_ok: bool
    noise_floor: float

    def fit_prediction(self) -> np.ndarray:
        if self.fit_slope == 0.0:
            return np.full_like(self.distances, np.nan, dtype=float)
        anchor = self.fit_start
        ref = np.interp(anchor, self.distances, np.abs(self.values))
        return ref * np.exp(self.fit_slope * (self.distances - anchor))

    def to_csv_rows(self):
        pred = self.fit_prediction()
        for r, v, p in zip(self.distances, self.values, pred):
            yield (float(r), float(v.real), float(v.imag), float(abs(v)),
                   float(p))


def theta_decay_report(lattice: BlockLattice, th: np.ndarray,
                       ell: float) -> DecayReport:
    """Decay curve Theta(0, [x]) vs |[x]| with a log-linear tail fit.

    The fit runs over distances beyond ell (at least 1) and above the noise
    floor 1e-14 relative to the central value; the monotonicity flag covers
    distances beyond max(ell, 3). The fitted decay length is -1/slope.
    """
    dists = lattice.block_distance_matrix[0]
    rs = np.unique(dists)
    vals = np.array([th[0, dists == r].mean() for r in rs])
    center = abs(vals[0])
    floor = 1e-14 * max(center, 1e-300)
    fit_start = max(ell, 1.0)
    absvals = np.abs(vals)
    mask = (rs >= fit_start) & (absvals > floor)
    if mask.sum() >= 2:
        slope, _ = np.polyfit(rs[mask], np.log(absvals[mask]), 1)
        decay_length = float(-1.0 / slope) if slope < 0 else float("inf")
    else:
        slope, decay_length = 0.0, 0.0
    mono_from = max(ell, 3.0)
    seq = absvals[(rs >= mono_from) & (absvals > floor)]
    monotone_ok = bool(np.all(np.diff(seq) <= 1e-12 * center)) \
        if seq.size > 1 else True
    return DecayReport(distances=rs.astype(float), values=vals,
                       fit_slope=float(slope), decay_length=decay_length,
                       fit_start=float(fit_start), monotone_ok=monotone_ok,
                       noise_floor=floor)


@dataclass
class FiniteDifferenceReport:
    max_first_ratio: float
    max_second_ratio: float
    first_samples: int
    second_samples: int


def finite_difference_report(lattice: BlockLattice, th: np.ndarray,
                             lam: float, t: float,
                             max_pairs: int = 4096,
                             seed: int = 7) -> FiniteDifferenceReport:
    """Finite-difference smoothness ratios of Theta(0, .) against the
    predicted (lambda^2 + 1 - t)^-1 modulus of continuity.

    first:  |Th(0,x) - Th(0,y)| (l^2+1-t)(<x>^{d-1}+<y>^{d-1}) / |x-y|
    second: |Th(0,x+y) + Th(0,x-y) - 2 Th(0,x)| (l^2+1-t) <x>^d / |y|^2
    """
    th = th[0]
    m = lattice.block_count
    denom = lam**2 + 1.0 - t
    pairs = list(itertools.combinations(range(m), 2))
    if len(pairs) > max_pairs:
        rng = np.random.default_rng(seed)
        pairs = [pairs[i] for i in
                 rng.choice(len(pairs), size=max_pairs, replace=False)]
    r1 = 0.0
    for x, y in pairs:
        dist = lattice.block_distance(x, y)
        bx = lattice.block_bracket(0, x) ** (lattice.d - 1)
        by = lattice.block_bracket(0, y) ** (lattice.d - 1)
        r1 = max(r1, abs(th[x] - th[y]) * denom * (bx + by) / dist)
    r2 = 0.0
    count2 = 0
    for x in range(m):
        for y in range(1, m):
            xp = lattice.block_shift(x, y)
            xm = lattice.block_shift(x, lattice.block_negate(y))
            dy = lattice.block_distance(0, y)
            val = abs(th[xp] + th[xm] - 2 * th[x])
            r2 = max(r2, val * denom * lattice.block_bracket(0, x)
                     ** lattice.d / dy**2)
            count2 += 1
            if count2 >= max_pairs:
                break
        if count2 >= max_pairs:
            break
    return FiniteDifferenceReport(max_first_ratio=float(r1),
                                  max_second_ratio=float(r2),
                                  first_samples=len(pairs),
                                  second_samples=count2)
