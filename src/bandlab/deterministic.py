"""Deterministic limit theory: Theta-propagators, primitive loops, kernels.

Charges are represented as +1 / -1 integers; for a reference value m in the
upper half plane, m(+1) = m and m(-1) = conj(m). The block propagator
:func:`theta` works from a profile's blocks and a flow time t; the loop
calculator takes the blocks of the (already t-dependent) variance matrix
t S. Both solve one W^d x W^d system per block momentum; nothing N x N is
factorized. The same code serves the characteristic flow (|m| = 1, row
sums t) and the original spectral parameter (|m| < 1, row sums 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .lattice import BlockLattice
from .profiles import VarianceProfile, _affine_blocks, decompose_core

__all__ = [
    "LoopSignature",
    "PropagatorError",
    "parse_charges",
    "charge_m",
    "theta_entrywise",
    "theta",
    "KLoopCalculator",
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

_RESIDUAL_TOL = 1e-10
_STACK_CHUNK = 16        # matrices per solve in theta_entrywise
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

def theta_entrywise(S: np.ndarray, m1: complex, m2: complex) -> np.ndarray:
    """Entrywise propagator (1 - m1*m2*S)^(-1) by a residual-checked solve.

    ``S`` may be a stack (..., N, N); each matrix's residual is checked on
    its own, and the first one that fails is named by its flat index.
    """
    N = S.shape[-1]
    eye = np.eye(N, dtype=complex)
    # solved and checked a few matrices at a time, so that no stack other
    # than S and X is formed
    axes, checks = (-2, -1), []
    stack = S.reshape(-1, N, N)
    X = np.empty(stack.shape, dtype=complex)
    for i in range(0, len(stack), _STACK_CHUNK):
        A = eye - (m1 * m2) * stack[i:i + _STACK_CHUNK]
        try:
            x = np.linalg.solve(A, np.broadcast_to(eye, A.shape))
        except np.linalg.LinAlgError as exc:  # exactly singular
            raise PropagatorError(
                f"resolvent factor is singular: {exc}") from exc
        X[i:i + _STACK_CHUNK] = x
        checks.append((np.isfinite(x).all(axis=axes),
                       np.abs(x).max(axis=axes),
                       np.abs(A @ x - eye).max(axis=axes)))
    finite, scale, resid = (np.concatenate(c) for c in zip(*checks))
    # relative residual per the solve contract; the absolute cap catches
    # (near-)singular systems where backward stability hides the blow-up
    bad = ~finite | (resid > _RESIDUAL_TOL * scale) | (resid > 1e-6)
    if bad.any():
        i = int(np.argmax(bad))
        where = f" at momentum {i}" if S.ndim > 2 else ""
        if not finite[i]:
            raise PropagatorError(f"resolvent factor is singular{where}")
        raise PropagatorError(
            f"singular or ill-conditioned propagator{where}: residual "
            f"{resid[i]:.3e} (max entry {scale[i]:.3e})")
    return X.reshape(S.shape)


def _momentum_inverses(lattice: BlockLattice, blocks: dict,
                       c: complex) -> np.ndarray:
    """The inverses of 1 - c S(p) for each block momentum p of the blocks
    S_x, in ``np.fft.fftn`` order.

    The stacked symbol S(p) = sum_x e^(-2 pi i p.x/n) S_x goes through one
    residual-checked solve of :func:`theta_entrywise`, so a singular or
    ill-conditioned momentum raises PropagatorError.
    """
    wd = lattice.block_volume
    shape = (lattice.n,) * lattice.d
    dense = np.zeros((lattice.block_count, wd, wd))
    for off, blk in blocks.items():
        dense[off] = blk
    symbol = np.fft.fftn(dense.reshape(shape + (wd, wd)),
                         axes=tuple(range(lattice.d))).reshape(-1, wd, wd)
    del dense  # not held through the solve
    return theta_entrywise(symbol, c, 1.0)


def _times_s(lattice: BlockLattice, blocks: dict, T: np.ndarray) -> np.ndarray:
    """T S from the blocks S_x of S, with T's last axis over the sites;
    returned as shape (-1, n^d, W^d).

    S_xy is the block of offset [y] - [x], so block b of the product
    collects T's block b - x times S_x for every offset x.
    """
    view = T.reshape(-1, lattice.block_count, lattice.block_volume)
    shift = lattice.block_offset_matrix
    return sum((view[:, shift[off]] @ blk for off, blk in blocks.items()),
               np.zeros(view.shape, dtype=complex))


def theta(profile: VarianceProfile, t: float, sigma_pair,
          m: complex) -> np.ndarray:
    """Block propagator P((1 - m(s) m(s') t S)^(-1)) by block Fourier transform.

    The profile is block-translation-invariant, so the entrywise propagator
    X is block-circulant and splits into one W^d x W^d system per block
    momentum (:func:`_momentum_inverses`). The column sums v_b of the block
    row X_(0, b) transform back from 1^T X(p), and Theta(0, b) = v_b . 1 /
    W^d. Equal to
    ``project_matrix(lattice, theta_entrywise(t * S, m(s), m(s')))``.
    """
    pair = parse_charges(sigma_pair)
    if len(pair) != 2:
        raise ValueError("sigma_pair must have length 2")
    lat = profile.lattice
    wd = lat.block_volume
    shape = (lat.n,) * lat.d
    axes = tuple(range(lat.d))
    c = charge_m(m, pair[0]) * charge_m(m, pair[1])
    blocks = {off: t * blk for off, blk in profile.blocks.items()}
    inverses = _momentum_inverses(lat, blocks, c)

    def solve(rhs):
        """Rows v_b of sum_k v_k (delta_kb - m1 m2 t S_(b-k)) = rhs_b."""
        hat = np.fft.fftn(rhs.reshape(shape + (wd,)), axes=axes)
        vhat = hat.reshape(-1, 1, wd) @ inverses
        return np.fft.ifftn(vhat.reshape(shape + (wd,)),
                            axes=axes).reshape(-1, wd)

    rhs = np.zeros((lat.block_count, wd))
    rhs[0] = 1.0
    v = solve(rhs)
    # The inverse transform is accurate to rounding of max|v| only, so tail
    # entries many orders below it carry large relative errors. One
    # refinement step against the residual taken in real space, where every
    # term near a tail entry is as small as it is, makes each entry accurate
    # relative to itself, as the dense LU's are.
    resid = rhs - v + c * _times_s(lat, blocks, v)[0]
    v = v + solve(resid)
    row0 = v.sum(axis=1) / wd
    if np.imag(c) == 0:
        # real blocks and a real coupling pair p with -p conjugately, so
        # Theta is real and its imaginary part here is rounding
        row0 = row0.real.astype(complex)
    return row0[lat.block_offset_matrix]


# ---- primitive loops ------------------------------------------------------------

def loop_size_guard(lattice: BlockLattice, order: int,
                    max_bytes: int = 1 << 30) -> None:
    """Refuse a loop tensor of this order whose first-site-pinned form,
    16 W^d N^(order-1) bytes, exceeds ``max_bytes``."""
    tensor_bytes = 16 * lattice.block_volume * lattice.N ** (order - 1)
    if tensor_bytes > max_bytes:
        raise MemoryError(
            f"loop tensor would need {tensor_bytes:.3g} bytes "
            f"(cap {max_bytes:.3g})")


def _index_grid(lattice: BlockLattice, arity: int, pin_last: bool) -> tuple:
    """Index arrays into the block axes 2..arity of a first-site-pinned
    tensor, broadcast over the blocks (a_1, a_2, ...) of the unpinned one.

    Block axis k of the pinned tensor holds a_k - a_1 =
    ``block_offset_matrix[a_1, a_k]``. With ``pin_last``, a_arity = 0 and
    the grid runs over (a_1, ..., a_(arity-1)).
    """
    shift = lattice.block_offset_matrix
    m = lattice.block_count
    free = arity - 1 if pin_last else arity
    out = []
    for k in range(1, arity):
        shape = [1] * free
        shape[0] = m
        if pin_last and k == arity - 1:
            out.append(shift[:, 0].reshape(shape))
        else:
            shape[k] = m
            out.append(shift.reshape(shape))
    return tuple(out)


@dataclass
class KLoopCalculator:
    """Entrywise and block primitive loops for one (t S, m) context.

    ``blocks`` maps a block offset to the W^d x W^d block of t S, as in
    :attr:`VarianceProfile.blocks`; entries may be negative. Khat^(k) is
    invariant under a common block shift of its k sites, so it is stored
    with its first site in block 0: shape (W^d, N, ..., N).

    The resolvent factor of the recursion is built once per distinct
    m(s)m(s') value from the per-momentum inverses that :func:`theta` uses.
    Tensors the recursion reads are memoized by charge vector; a block
    tensor of order >= 3 keeps only its block average unless its entrywise
    tensor was asked for.
    """

    lattice: BlockLattice
    blocks: dict
    m: complex
    _khat: dict = field(default_factory=dict, repr=False)
    _averages: dict = field(default_factory=dict, repr=False)
    _resolvents: dict = field(default_factory=dict, repr=False)

    def resolvent(self, c: complex) -> np.ndarray:
        """R = (1 - c t S)^(-1) as an N x N matrix.

        Its block row 0 is the inverse transform of the per-momentum
        inverses; the block-circulant rest is that row moved along
        ``block_offset_matrix``. The residual max|R (1 - c t S) - I| of block
        row 0 is taken in real space from the blocks; above the solve
        tolerance, or NaN, it raises PropagatorError.
        """
        key = complex(c)
        if key not in self._resolvents:
            lat = self.lattice
            wd, N = lat.block_volume, lat.N
            inverses = _momentum_inverses(lat, self.blocks, key)
            row = np.fft.ifftn(
                inverses.reshape((lat.n,) * lat.d + (wd, wd)),
                axes=tuple(range(lat.d))).reshape(-1, wd, wd)
            # block row 0 of R (1 - c S) - I, as W^d rows over the sites
            top = row.transpose(1, 0, 2)
            resid = top - key * _times_s(lat, self.blocks, top)
            resid[:, 0] -= np.eye(wd)
            err, scale = np.abs(resid).max(), np.abs(row).max()
            if not (err <= _RESIDUAL_TOL * scale and err <= 1e-6):
                raise PropagatorError(
                    f"block resolvent residual {err:.3e} "
                    f"(max entry {scale:.3e})")
            shift = lat.block_offset_matrix
            R = row[shift].transpose(0, 2, 1, 3).reshape(N, N)
            R.setflags(write=False)
            self._resolvents[key] = R
        return self._resolvents[key]

    def khat_tensor(self, charges) -> np.ndarray:
        """Entrywise primitive loop with its first site in block 0."""
        charges = parse_charges(charges)
        if charges not in self._khat:
            out = self._recurse(charges)
            out.setflags(write=False)
            self._khat[charges] = out
        return self._khat[charges]

    def khat_last_pinned(self, charges) -> np.ndarray:
        """Entrywise primitive loop with its last site in block 0 instead:
        shape (N, ..., N, W^d), by a block roll of :meth:`khat_tensor`."""
        return self._roll(self.khat_tensor(charges), pin_last=True)

    def _roll(self, pinned: np.ndarray, pin_last: bool) -> np.ndarray:
        """The full tensor (order >= 2), or the one with its last site in
        block 0, from the first-site-pinned one."""
        lat = self.lattice
        m, wd = lat.block_count, lat.block_volume
        arity = pinned.ndim
        view = pinned.reshape((wd,) + (m, wd) * (arity - 1))
        # block axes first, then the site offsets (i_1, ..., i_arity); the
        # grid's axes (a_1, ...) take the block axes' place
        view = view.transpose(tuple(range(1, 2 * arity - 1, 2))
                              + tuple(range(0, 2 * arity - 1, 2)))
        out = view[_index_grid(lat, arity, pin_last)]
        free = out.ndim - arity
        axes = [ax for k in range(free) for ax in (k, free + k)]
        axes += [out.ndim - 1] if pin_last else []
        shape = (lat.N,) * free + ((wd,) if pin_last else ())
        return out.transpose(axes).reshape(shape)

    def _recurse(self, charges: tuple[int, ...]) -> np.ndarray:
        # the order-n tensor from tensors of every lower order, at rows x_1
        # in block 0:
        # Khat(x) = m_1 Khat(s_2..s_n)[x_2..x_n-1, x_1] R[x_1, x_n]
        # + sum_k m_1 sum_x C_k[x_1..x_k-1, x] Khat(s_k..)[x_k.., x] R[x, x_n]
        # with C_k = Khat(s_1..s_k) S. The first term sits on x = x_1, so one
        # product with R serves every term.
        order = len(charges)
        lat = self.lattice
        wd, N = lat.block_volume, lat.N
        loop_size_guard(lat, order)
        m1 = charge_m(self.m, charges[0])
        if order == 1:
            return np.full(wd, m1, dtype=complex)
        R = self.resolvent(m1 * charge_m(self.m, charges[-1]))
        lower = self.khat_last_pinned(charges[1:])
        if order == 2:
            return m1 * lower[:, None] * R[:wd]
        X = np.empty((wd, N ** (order - 2), N), dtype=complex)
        for k in range(2, order):
            C = _times_s(lat, self.blocks,
                         self.khat_tensor(charges[:k])).reshape(-1, 1, N)
            D = self._roll(self.khat_tensor(charges[k - 1:]), pin_last=False)
            term = X.reshape(C.shape[0], -1, N)
            if k == 2:
                np.multiply(C, D.reshape(1, -1, N), out=term)
            else:
                term += C * D.reshape(1, -1, N)
        sites = np.arange(wd)
        X[sites, :, sites] += lower.reshape(-1, wd).T
        out = X.reshape(-1, N) @ R
        out *= m1
        return out.reshape((wd,) + (N,) * (order - 1))

    def _average(self, charges) -> np.ndarray:
        """Block average of Khat with its first block at 0, axes [a_2..a_n].

        Memoized; the entrywise tensor of order >= 3 is kept only when
        :meth:`khat_tensor` was asked for it.
        """
        charges = parse_charges(charges)
        if charges not in self._averages:
            lat = self.lattice
            order = len(charges)
            pinned = self._khat.get(charges)
            if pinned is None:
                pinned = self.khat_tensor(charges) if order <= 2 \
                    else self._recurse(charges)
            view = pinned.reshape(
                (lat.block_volume,) + (lat.block_count, lat.block_volume)
                * (order - 1))
            avg = view.mean(axis=tuple(range(0, 2 * order - 1, 2)))
            self._averages[charges] = avg
        return self._averages[charges]

    def k_tensor(self, charges) -> np.ndarray:
        """Block primitive loop tensor: the block average of Khat, rolled
        from its first block at 0 to every first block.

        For order 2 this is W^-d m(s) m(s') Theta, which ``bandlab kloop``
        checks against the block-Fourier :func:`theta`.
        """
        charges = parse_charges(charges)
        avg = self._average(charges)
        if len(charges) == 1:
            return np.full(self.lattice.block_count, avg)
        grid = _index_grid(self.lattice, len(charges), pin_last=False)
        return avg[grid]


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

def ward_residual(calc: KLoopCalculator, eta_t: float, charges) -> float:
    """Relative Ward-identity residual at the last block index.

    Compares sum_{[a_n]} K^(n) against the difference of the two order-(n-1)
    loops with the first charge replaced by +/-, divided by 2i W^d eta_t,
    and returns the max over the cells of the n-1 remaining blocks. Requires
    sigma_1 = -sigma_n. The loops come from ``calc``, so calls that share it
    share its loop tensors.
    """
    charges = parse_charges(charges)
    order = len(charges)
    if order < 2:
        raise ValueError("Ward identity needs order >= 2")
    if charges[0] != -charges[-1]:
        raise ValueError("Ward identity requires sigma_1 = -sigma_n")
    # every cell is a common block shift of one with its first block at 0
    lhs = calc._average(charges).sum(axis=-1)
    mid = charges[1:-1]
    plus = calc._average((1,) + mid)
    minus = calc._average((-1,) + mid)
    rhs = (plus - minus) / (2j * calc.lattice.block_volume * eta_t)
    scale = max(np.abs(lhs).max(), np.abs(rhs).max())
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
        tl = calc.k_tensor(left.charges)
        tr = calc.k_tensor(right.charges)
        expr = (f"{''.join(left.indices)},{''.join(right.indices)}"
                f"->{''.join(labels)}")
        term = np.einsum(expr, tl, tr, optimize=True)
        out = term if out is None else out + term
    return calc.lattice.block_volume * out


def kloop_flow_derivative_residual(calc: KLoopCalculator, charges,
                                   dt: float) -> float:
    """Central-difference check of the primitive-loop evolution equation.

    dK/dt along S_t -> S_t + dt*S_E, with (S_t, m) the context of ``calc``,
    is compared with the quadratic cut-and-glue hierarchy term taken from
    ``calc``; returns max|lhs - rhs| / max|rhs|. Expected O(dt^2) for
    smooth profiles.
    """
    charges = parse_charges(charges)
    lat = calc.lattice
    plus = KLoopCalculator(lat, _affine_blocks(lat, calc.blocks, 1.0, dt),
                           calc.m)
    minus = KLoopCalculator(lat, _affine_blocks(lat, calc.blocks, 1.0, -dt),
                            calc.m)
    lhs = (plus.k_tensor(charges) - minus.k_tensor(charges)) / (2 * dt)
    rhs = _hierarchy_rhs(calc, charges)
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


def random_walk_representation(profile_t: VarianceProfile,
                               c_ker: float) -> RandomWalkRep:
    """Random-walk form of the (+,-) flow propagator Theta = P((1-S_t)^-1).

    Splits S_t = S_ker + c_ker*S_E with :func:`decompose_core`, builds the
    stochastic block kernel K = (1-t+c_ker) P((1-S_ker)^-1) and the
    effective time t_hat = c_ker/(1-t+c_ker), and reports the max-norm
    residual of Theta = t_hat K (1 - t_hat K)^{-1} / c_ker. Both block
    propagators come from :func:`theta` at unit coupling.
    """
    rows = profile_t.row_sums
    if np.abs(rows - rows.mean()).max() > 1e-10:
        raise ValueError("S_t must have constant row sums")
    ker, deficit = decompose_core(profile_t, c_ker)
    K = deficit * theta(ker, 1.0, (1, 1), 1.0).real
    t_hat = c_ker / deficit
    th = theta(profile_t, 1.0, (1, 1), 1.0).real
    mb = profile_t.lattice.block_count
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
                       fit_start=float(fit_start), monotone_ok=monotone_ok)


@dataclass
class FiniteDifferenceReport:
    max_first_ratio: float
    max_second_ratio: float


def _modulus(z: np.ndarray) -> np.ndarray:
    """Elementwise |z| rounded as the scalar abs() rounds it (np.abs on a
    complex array may take a vectorized path that differs in the last bit)."""
    return np.hypot(z.real, z.imag)


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
    dist = lattice.block_distance_matrix
    bracket = dist[0] + 1
    # every unordered block pair, or a seeded subsample of max_pairs of them
    x, y = np.triu_indices(m, 1)
    if x.size > max_pairs:
        rng = np.random.default_rng(seed)
        pick = rng.choice(x.size, size=max_pairs, replace=False)
        x, y = x[pick], y[pick]
    edge = bracket ** (lattice.d - 1)
    r1 = (_modulus(th[x] - th[y]) * denom * (edge[x] + edge[y])
          / dist[x, y]).max(initial=0.0)
    # the first max_pairs cells (x, [y] != 0) in row-major order
    count2 = min(max_pairs, m * (m - 1))
    x, y = np.divmod(np.arange(count2), max(m - 1, 1))
    y += 1
    shift = lattice.block_offset_matrix      # shift[a, b] = [b] - [a]
    plus, minus = shift[shift[y, 0], x], shift[y, x]
    r2 = (_modulus(th[plus] + th[minus] - 2 * th[x]) * denom * bracket[x]
          ** lattice.d / dist[0, y] ** 2).max(initial=0.0)
    return FiniteDifferenceReport(max_first_ratio=float(r1),
                                  max_second_ratio=float(r2))
