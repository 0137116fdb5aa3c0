"""Semicircle Stieltjes transform, characteristic flow, and scale functions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "FlowParams",
    "stieltjes_m",
    "m_t",
    "select_parameters",
    "flow_point",
    "ell_of_eta",
    "ell_t",
    "eta_star",
]

_IDENTITY_TOL = 1e-10


def m_t(z, t: float) -> complex:
    """Unique root of 1 + z*m + t*m^2 = 0 with Im m > 0.

    Solved with the numerically stable quadratic formula and explicit branch
    selection (both candidate roots are tested; the one in the upper half
    plane is returned), which is immune to square-root cut placement.
    """
    z = complex(z)
    if t <= 0:
        if t == 0:
            return -1.0 / z
        raise ValueError("t must be positive")
    disc = np.sqrt(z * z - 4.0 * t + 0j)
    # avoid cancellation: pick the larger-magnitude numerator for q
    q = -(z + disc) / 2.0 if abs(z + disc) >= abs(z - disc) \
        else -(z - disc) / 2.0
    roots = (q / t, 1.0 / q)
    upper = [r for r in roots if r.imag > 0]
    if not upper:
        raise ValueError(f"no root with positive imaginary part at z={z}, t={t}")
    m = max(upper, key=lambda r: r.imag)
    if abs(1 + z * m + t * m * m) > 1e-12 * max(1.0, abs(z) ** 2):
        raise ValueError(f"root residual too large at z={z}, t={t}")
    return m


def stieltjes_m(z) -> complex:
    """Stieltjes transform of the semicircle law, Im m > 0 branch.

    Accepts Im z > 0, or a real bulk energy |E| < 2 (boundary value from
    above, where |m| = 1 exactly).
    """
    z = complex(z)
    if z.imag > 0:
        return m_t(z, 1.0)
    if z.imag < 0:
        raise ValueError("stieltjes_m requires Im z >= 0")
    E = z.real
    if abs(E) >= 2:
        raise ValueError(f"boundary value needs |E| < 2, got E={E}")
    return complex(-E / 2.0, np.sqrt(4.0 - E * E) / 2.0)


@dataclass(frozen=True)
class FlowParams:
    """Characteristic-flow parameters (t_i, t_f, E_target) for a source z.

    The defining identities sqrt(t_f) m(E_target) = m(z) and
    z_{t_f} = sqrt(t_f) z are verified at construction.
    """

    t_i: float
    t_f: float
    E_target: float
    epsilon0: float
    z: complex

    def __post_init__(self):
        if not 0 < self.epsilon0 < 1:
            raise ValueError("epsilon0 must lie in (0, 1)")
        if not 0 < self.t_i < self.t_f < 1:
            raise ValueError("need 0 < t_i < t_f < 1")
        if abs(self.t_i - (1.0 - self.epsilon0) * self.t_f) > 1e-12:
            raise ValueError("t_i must equal (1 - epsilon0) * t_f")

    @property
    def m_source(self) -> complex:
        return stieltjes_m(self.z)

    @property
    def m_target(self) -> complex:
        """m(E_target), the boundary value transported along the flow."""
        return stieltjes_m(self.E_target)

    def identity_residuals(self) -> tuple[float, float]:
        mz = self.m_source
        mE = self.m_target
        r1 = abs(np.sqrt(self.t_f) * mE - mz)
        z_tf = self.E_target + (1.0 - self.t_f) * mE
        r2 = abs(z_tf - np.sqrt(self.t_f) * self.z)
        return r1, r2


def select_parameters(z, epsilon0: float, kappa: float = 0.05) -> FlowParams:
    """Pick (t_i, t_f, E_target) so that the flow ends at sqrt(t_f) z.

    t_f = Im m(z) / (Im m(z) + eta), t_i = (1 - epsilon0) t_f, and
    E_target = sqrt(t_f) E - (1 - t_f)/sqrt(t_f) * Re m(z).
    """
    zc = complex(z)
    E, eta = zc.real, zc.imag
    if eta <= 0:
        raise ValueError("select_parameters needs Im z > 0")
    if abs(E) > 2 - kappa:
        raise ValueError(f"|E| = {abs(E)} outside the bulk guard 2 - {kappa}")
    mz = stieltjes_m(zc)
    t_f = mz.imag / (mz.imag + eta)
    t_i = (1.0 - epsilon0) * t_f
    E_target = np.sqrt(t_f) * E - (1.0 - t_f) / np.sqrt(t_f) * mz.real
    params = FlowParams(t_i=t_i, t_f=t_f, E_target=float(E_target),
                        epsilon0=epsilon0, z=zc)
    r1, r2 = params.identity_residuals()
    if r1 > _IDENTITY_TOL or r2 > _IDENTITY_TOL:
        raise ValueError(
            f"parameter-selection identities violated: {r1:.3e}, {r2:.3e}")
    return params


def flow_point(params: FlowParams, t: float) -> complex:
    """Flow trajectory z_t = E_target + (1 - t) m(E_target), t in [t_i, 1]."""
    if not params.t_i <= t <= 1.0:
        raise ValueError(f"t={t} outside [t_i, 1] = [{params.t_i}, 1]")
    return params.E_target + (1.0 - t) * params.m_target


def ell_of_eta(lam: float, eta: float, n: int) -> float:
    """Diffusive length scale ell(eta) = min(lam * eta^{-1/2} + 1, n)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return min(lam / np.sqrt(eta) + 1.0, float(n))


def ell_t(lam: float, t: float, n: int) -> float:
    """Flow-time length scale ell_t = min(lam (1-t)^{-1/2} + 1, n)."""
    if t >= 1:
        raise ValueError("t must be < 1")
    return ell_of_eta(lam, 1.0 - t, n)


def eta_star(W: int, lam: float, N: int, d: int) -> float:
    """Critical spectral resolution 1/(W*lam)^2 * 1_{d=1} + 1/N.

    A vanishing interaction in d=1 returns +inf: no spectral window admits
    a local law there (the degenerate, fully localized regime).
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if d == 1:
        if lam == 0:
            return float("inf")
        return 1.0 / (W * lam) ** 2 + 1.0 / N
    return 1.0 / N
