"""Deterministic limit theory: Theta-propagators and primitive loops.

Charges are +1 / -1 integers; for m in the upper half plane, m(+1) = m and
m(-1) = conj(m). :func:`theta` takes a profile's blocks and a flow time t,
the loop calculator the blocks of t S. Both solve one W^d x W^d system per
block momentum and form nothing N x N. The same code serves the
characteristic flow (|m| = 1, row sums t) and the original spectral
parameter (|m| < 1, row sums 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .lattice import BlockLattice, _grid
from .profiles import VarianceProfile, _affine_blocks

__all__ = [
    "PropagatorError",
    "parse_charges",
    "charge_m",
    "theta_entrywise",
    "theta",
    "KLoopCalculator",
    "ward_residual",
    "kloop_flow_derivative_residual",
    "theta_decay_report",
    "DecayReport",
    "finite_difference_report",
    "FiniteDifferenceReport",
]

_RESIDUAL_TOL = 1e-10
_STACK_CHUNK = 16        # matrices per solve in theta_entrywise
_CHARGE_NAMES = {"+": 1, "-": -1, 1: 1, -1: -1, "+1": 1, "-1": -1}
_PAIR_SEED = 7           # finite_difference_report's block-pair subsample
_MAX_PAIRS = 4096        # and its cap on the pairs of each ratio


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


# ---- Theta propagators --------------------------------------------------------

def theta_entrywise(S: np.ndarray, m1: complex, m2: complex,
                    momenta=None) -> np.ndarray:
    """Entrywise propagator (1 - m1*m2*S)^(-1) by a residual-checked solve.

    ``S`` may be a stack (..., N, N); each matrix's residual is checked on
    its own, and the first one that fails is named by its flat index, or
    by its entry of ``momenta`` if given.
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
        name = i if momenta is None else momenta[i]
        where = f" at momentum {name}" if S.ndim > 2 else ""
        if not finite[i]:
            raise PropagatorError(f"resolvent factor is singular{where}")
        raise PropagatorError(
            f"singular or ill-conditioned propagator{where}: residual "
            f"{resid[i]:.3e} (max entry {scale[i]:.3e})")
    return X.reshape(S.shape)


def _momentum_inverses(lattice: BlockLattice, blocks: dict,
                       c: complex) -> np.ndarray:
    """The inverses of 1 - c S(p) for each block momentum p of the blocks
    S_x, in ``np.fft.fftn`` order, by the residual-checked solve of
    :func:`theta_entrywise`, which names a failing momentum. The symbol
    S(p) = sum_x e^(-2 pi i p.x/n) S_x is summed over the given blocks at
    the momenta solved. Real blocks give S(-p) = conj S(p), so for a real
    c one momentum of each pair {p, -p} is solved and the other takes the
    conjugate: the solve of conj S(p), bit for bit.
    """
    wd, count = lattice.block_volume, lattice.block_count
    mirror = lattice.block_offset_matrix[:, 0]  # at p, the index of -p
    picked = np.flatnonzero(np.arange(count) <= mirror) if np.imag(c) == 0 \
        else np.arange(count)
    at = _grid(lattice.n, lattice.d)  # coordinates of each block index
    # p.x mod n is exact, so each phase is as accurate as exp
    phase = np.exp(-2j * np.pi / lattice.n
                   * (at[:, picked].T @ at[:, list(blocks)] % lattice.n))
    stack = np.reshape(list(blocks.values()), (len(blocks), wd * wd))
    # one small product per momentum, which BLAS runs on a single thread
    solved = theta_entrywise((phase[:, None] @ stack).reshape(-1, wd, wd),
                             c, 1.0, picked)
    if len(picked) == count:
        return solved
    out = np.empty((count, wd, wd), dtype=complex)
    out[mirror[picked]] = solved.conj()
    out[picked] = solved  # p = -p keeps its own solve
    return out


def _times_momenta(lattice: BlockLattice, T: np.ndarray,
                   inverses: np.ndarray) -> np.ndarray:
    """T B for a block-circulant B given by its block B(p) per momentum, as
    :func:`_momentum_inverses` returns them, with T's last axis over the
    sites: one W^d x W^d product per momentum between block Fourier
    transforms of T, in one buffer. Returned as shape (-1, n^d, W^d)."""
    wd = lattice.block_volume
    axes = tuple(range(1, lattice.d + 1))
    T = T.reshape((-1,) + (lattice.n,) * lattice.d + (wd,))
    out = np.fft.fftn(T, axes=axes, out=np.empty(T.shape, dtype=complex))
    hat = out.reshape(-1, lattice.block_count, 1, wd) @ inverses
    return np.fft.ifftn(hat.reshape(T.shape), axes=axes, out=out).reshape(
        -1, lattice.block_count, wd)


def _times_s(lattice: BlockLattice, blocks: dict, T: np.ndarray) -> np.ndarray:
    """T B for a block-circulant B given by its blocks B_x, here S's, with
    T's last axis over the sites; returned as shape (-1, n^d, W^d).

    B_xy is the block of offset [y] - [x], so block b of the product
    collects T's block b - x times B_x for every offset x.
    """
    view = T.reshape(-1, lattice.block_count, lattice.block_volume)
    shift = lattice.block_offset_matrix
    # one gather and one product buffer serve every offset: a fresh pair
    # per offset is freed at the top of the heap, which glibc trims and
    # faults in again for the next offset. take() copies through a
    # temporary in its default mode="raise"; the shifts are in range.
    rows = np.empty_like(view)
    prod = np.empty(view.shape, dtype=complex)
    out = np.zeros(view.shape, dtype=complex)
    for off, blk in blocks.items():
        np.take(view, shift[off], axis=1, out=rows, mode="wrap")
        out += np.matmul(rows, blk, out=prod)
    return out


def theta(profile: VarianceProfile, t: float, sigma_pair,
          m: complex) -> np.ndarray:
    """Block propagator P((1 - m(s) m(s') t S)^(-1)) by block Fourier transform.

    The profile is block-translation-invariant, so the entrywise propagator
    X is block-circulant: one W^d x W^d inverse X(p) per block momentum,
    solved for one of each pair {p, -p} if m(s) m(s') is real
    (:func:`_momentum_inverses`). The column sums v_b of block row X_(0, b)
    transform back from 1^T X(p), and Theta(0, b) = v_b . 1 / W^d. Equal to
    ``project_matrix(lattice, theta_entrywise(t * S, m(s), m(s')))``.
    """
    pair = parse_charges(sigma_pair)
    if len(pair) != 2:
        raise ValueError("sigma_pair must have length 2")
    lat = profile.lattice
    wd = lat.block_volume
    c = charge_m(m, pair[0]) * charge_m(m, pair[1])
    blocks = {off: t * blk for off, blk in profile.blocks.items()}
    inverses = _momentum_inverses(lat, blocks, c)
    rhs = np.zeros((lat.block_count, wd))
    rhs[0] = 1.0
    # rows v_b of sum_k v_k (delta_kb - m1 m2 t S_(b-k)) = rhs_b
    v = _times_momenta(lat, rhs, inverses)[0]
    # The inverse transform is accurate to rounding of max|v| only, so tail
    # entries many orders below it carry large relative errors. One
    # refinement step against the residual taken in real space, where every
    # term near a tail entry is as small as it is, makes each entry accurate
    # relative to itself, as the dense LU's are.
    resid = rhs - v + c * _times_s(lat, blocks, v)[0]
    v = v + _times_momenta(lat, resid, inverses)[0]
    row0 = v.sum(axis=1) / wd
    if np.imag(c) == 0:
        # real blocks and a real coupling pair p with -p conjugately, so
        # Theta is real and its imaginary part here is rounding
        row0 = row0.real.astype(complex)
    return row0[lat.block_offset_matrix]


# ---- primitive loops ------------------------------------------------------------

def loop_size_guard(lattice: BlockLattice, order: int,
                    max_bytes: int = 1 << 30) -> None:
    """Refuse a loop of this order whose block-summed form,
    16 n^(d(order-2)) N bytes, exceeds ``max_bytes``."""
    tensor_bytes = 16 * lattice.block_count ** (order - 2) * lattice.N
    if tensor_bytes > max_bytes:
        raise MemoryError(
            f"loop tensor would need {tensor_bytes:.3g} bytes "
            f"(cap {max_bytes:.3g})")


def _index_grid(lattice: BlockLattice, arity: int) -> tuple:
    """Index arrays into the block axes 2..arity of a tensor with its first
    block at 0, broadcast over the blocks (a_1, ..., a_arity) of the full
    one: block axis k holds a_k - a_1 = ``block_offset_matrix[a_1, a_k]``.
    """
    m = lattice.block_count
    return tuple(lattice.block_offset_matrix.reshape(
        [m if i in (0, k) else 1 for i in range(arity)])
        for k in range(1, arity))


@dataclass
class KLoopCalculator:
    """Block primitive loops for one (t S, m) context.

    ``blocks`` maps a block offset to the W^d x W^d block of t S, as in
    :attr:`VarianceProfile.blocks`; entries may be negative. Every loop is
    kept as its block sums (:meth:`khat_tensor`), so nothing of size N x N
    or larger is formed: the recursion closes on block sums because each of
    its terms is a product of two factors over disjoint sites and its last
    step is one product with R on the last site.

    R is built once per distinct m(s)m(s') value as the per-momentum
    inverses that :func:`theta` uses, and applied as them, one W^d x W^d
    product per block momentum; loops are memoized by charge vector.
    """

    lattice: BlockLattice
    blocks: dict
    m: complex
    _khat: dict = field(default_factory=dict, repr=False)
    _resolvents: dict = field(default_factory=dict, repr=False)

    def resolvent(self, c: complex) -> dict:
        """The blocks of R = (1 - c t S)^(-1) by offset, in the form of
        ``blocks``: R[[a], [a] + [x]] is the block of offset x.

        They are R's per-momentum inverses, kept for the recursion, applied
        to block row 0 of the identity. The residual max|R (1 - c t S) - I|
        of block row 0 is taken in real space from the blocks; above the
        solve tolerance, or NaN, it raises PropagatorError.
        """
        key = complex(c)
        if key not in self._resolvents:
            lat = self.lattice
            wd = lat.block_volume
            inverses = _momentum_inverses(lat, self.blocks, key)
            # block row 0 of R and of R (1 - c S) - I, over the sites
            top = _times_momenta(lat, np.eye(wd, lat.N), inverses)
            resid = top - key * _times_s(lat, self.blocks, top)
            resid[:, 0] -= np.eye(wd)
            err, scale = np.abs(resid).max(), np.abs(top).max()
            if not (err <= _RESIDUAL_TOL * scale and err <= 1e-6):
                raise PropagatorError(
                    f"block resolvent residual {err:.3e} "
                    f"(max entry {scale:.3e})")
            top.setflags(write=False)
            inverses.setflags(write=False)
            self._resolvents[key] = (dict(enumerate(top.transpose(1, 0, 2))),
                                     inverses)
        return self._resolvents[key][0]

    def khat_tensor(self, charges) -> np.ndarray:
        """Khat summed over blocks: A[a_2..a_(n-1), y] is the sum of
        Khat[x_1, ..., x_(n-1), y] over x_1 in block 0 and x_k in block
        a_k, with the last site y kept; shape (n^d,) * (n - 2) + (N,).
        Order 1 has its last site only: m(s_1) at every site. Memoized.
        """
        charges = parse_charges(charges)
        if charges not in self._khat:
            out = self._recurse(charges)
            out.setflags(write=False)
            self._khat[charges] = out
        return self._khat[charges]

    def _free_first(self, charges: tuple[int, ...]) -> np.ndarray:
        """The block sums with the first block free as well, (n^d)^(n-1)
        rows [a_1..a_(n-1)] over the last site: a block roll of
        :meth:`khat_tensor` through ``block_offset_matrix``."""
        lat = self.lattice
        A = self.khat_tensor(charges)
        view = A.reshape(A.shape[:-1] + (lat.block_count, lat.block_volume))
        return view[_index_grid(lat, len(charges))].reshape(-1, lat.N)

    def _recurse(self, charges: tuple[int, ...]) -> np.ndarray:
        # Khat(x) = m_1 Khat(s_2..s_n)[x_2..x_n-1, x_1] R[x_1, x_n]
        # + sum_k m_1 sum_x C_k[x_1..x_k-1, x] Khat(s_k..)[x_k.., x] R[x, x_n]
        # with C_k = Khat(s_1..s_k) S. Summed over x_1 in block 0 and x_k in
        # block a_k, C_k becomes A(s_1..s_k) S and each Khat(s_k..) factor
        # its first-free sums; the first term sits on x = x_1 in block 0, so
        # one application of R serves every term.
        order = len(charges)
        lat = self.lattice
        wd, N = lat.block_volume, lat.N
        loop_size_guard(lat, order)
        m1 = charge_m(self.m, charges[0])
        if order == 1:
            return np.full(N, m1, dtype=complex)
        X = np.zeros((lat.block_count ** (order - 2), N), dtype=complex)
        for k in range(2, order):
            C = _times_s(lat, self.blocks,
                         self.khat_tensor(charges[:k])).reshape(-1, 1, N)
            term = X.reshape(C.shape[0], -1, N)
            term += C * self._free_first(charges[k - 1:])
        X[:, :wd] += self._free_first(charges[1:])[:, :wd]
        c = complex(m1 * charge_m(self.m, charges[-1]))
        self.resolvent(c)  # builds and checks R once per coupling
        out = _times_momenta(lat, X, self._resolvents[c][1])
        out *= m1
        return out.reshape((lat.block_count,) * (order - 2) + (N,))

    def _average(self, charges) -> np.ndarray:
        """Block average of Khat with its first block at 0, axes [a_2..a_n]
        (order 1: m(s_1) per block): the block sums' last site summed per
        block, over W^(dn)."""
        charges = parse_charges(charges)
        lat = self.lattice
        A = self.khat_tensor(charges)
        sums = A.reshape(A.shape[:-1] + (lat.block_count, lat.block_volume))
        return sums.sum(axis=-1) / lat.block_volume ** len(charges)

    def k_tensor(self, charges) -> np.ndarray:
        """Block primitive loop tensor: the block average of Khat, rolled
        from its first block at 0 to every first block.

        For order 2 this is W^-d m(s) m(s') Theta, which ``bandlab kloop``
        checks against the block-Fourier :func:`theta`.
        """
        charges = parse_charges(charges)
        return self._average(charges)[_index_grid(self.lattice, len(charges))]


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

def _hierarchy_rhs(calc: KLoopCalculator, charges: tuple[int, ...]
                   ) -> np.ndarray:
    """W^d sum_{k<l} sum_[b] (Cut_L o K) * (Cut_R o K) over 1 <= k < l <= n.

    For the loop K(s_1..s_n)[a_1..a_n], Cut_L is K(s_1..s_k, s_l..s_n) on
    the blocks (a_1..a_{k-1}, b, a_l..a_n) and Cut_R is K(s_k..s_l) on
    (a_k..a_{l-1}, b). Axis i - 1 holds a_i and axis n holds b, the summed
    block. At order 1 there is no pair, and the order-1 loop is constant
    along the flow.
    """
    order = len(charges)
    out = np.zeros((calc.lattice.block_count,) * order, dtype=complex)
    for k, l in itertools.combinations(range(1, order + 1), 2):
        out += np.einsum(
            calc.k_tensor(charges[:k] + charges[l - 1:]),
            [*range(k - 1), order, *range(l - 1, order)],
            calc.k_tensor(charges[k - 1:l]), [*range(k - 1, l - 1), order],
            [*range(order)], optimize=True)
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
    plus, minus = (KLoopCalculator(lat, _affine_blocks(lat, calc.blocks,
                                                       1.0, h), calc.m)
                   for h in (dt, -dt))
    lhs = (plus.k_tensor(charges) - minus.k_tensor(charges)) / (2 * dt)
    rhs = _hierarchy_rhs(calc, charges)
    scale = max(float(np.abs(rhs).max()), float(np.abs(lhs).max()), 1e-300)
    return float(np.abs(lhs - rhs).max() / scale)


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
    rs, which = np.unique(dists, return_inverse=True)
    vals = np.array([th[0, which == i].mean() for i in range(rs.size)])
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
                             lam: float, t: float) -> FiniteDifferenceReport:
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
    # every unordered block pair, or a seeded subsample of _MAX_PAIRS of them
    x, y = np.triu_indices(m, 1)
    if x.size > _MAX_PAIRS:
        rng = np.random.default_rng(_PAIR_SEED)
        pick = rng.choice(x.size, size=_MAX_PAIRS, replace=False)
        x, y = x[pick], y[pick]
    edge = bracket ** (lattice.d - 1)
    r1 = (_modulus(th[x] - th[y]) * denom * (edge[x] + edge[y])
          / dist[x, y]).max(initial=0.0)
    # the first _MAX_PAIRS cells (x, [y] != 0) in row-major order
    count2 = min(_MAX_PAIRS, m * (m - 1))
    x, y = np.divmod(np.arange(count2), max(m - 1, 1))
    y += 1
    shift = lattice.block_offset_matrix      # shift[a, b] = [b] - [a]
    plus, minus = shift[shift[y, 0], x], shift[y, x]
    r2 = (_modulus(th[plus] + th[minus] - 2 * th[x]) * denom * bracket[x]
          ** lattice.d / dist[0, y] ** 2).max(initial=0.0)
    return FiniteDifferenceReport(max_first_ratio=float(r1),
                                  max_second_ratio=float(r2))
