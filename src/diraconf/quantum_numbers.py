"""Dirac angular quantum numbers.

The single integer kappa encodes both the orbital angular momentum l and
the total angular momentum j of a bispinor state:

    kappa = -(l + 1)  for j = l + 1/2
    kappa = +l        for j = l - 1/2      (l >= 1)

so l = |kappa + 1/2| - 1/2 and j = |kappa| - 1/2; j is stored doubled,
as the exact integer 2j.  A state is the pair (n, kappa) of plain ints,
checked by ``check_state``; no matrix element here depends on the magnetic
projection M.

Convention for the spin-angular eigenvalue: on the upper two-spinor
(sigma.L + 1) chi_kappa = -kappa chi_kappa, hence <sigma.L> = -kappa - 1
there (zero for S states); the lower two-spinor carries chi_{-kappa} and
the opposite sign, <sigma.L> = kappa - 1.  The upper-component value is
the one that enters every matrix element computed in this package; it is
fixed by the requirement that the term-by-term assembly of the confining
energy shift reproduces the closed-form shift exactly (see
``fw_effective``).
"""
from __future__ import annotations

from .errors import DomainError

__all__ = [
    "decompose_kappa",
    "sigma_dot_L_plus_one_eigenvalue",
    "enumerate_kappa",
    "check_state",
    "radial_nodes",
]


def decompose_kappa(kappa: int) -> tuple[int, int]:
    """Return (ell, 2j) for a nonzero kappa."""
    if kappa == 0:
        raise DomainError("kappa must be nonzero")
    ell = kappa if kappa > 0 else -kappa - 1
    return ell, 2 * abs(kappa) - 1


def sigma_dot_L_plus_one_eigenvalue(kappa: int, upper: bool = True) -> int:
    """Eigenvalue of (sigma.L + 1) on chi_kappa (upper) or chi_{-kappa} (lower)."""
    if kappa == 0:
        raise DomainError("kappa must be nonzero")
    return -kappa if upper else kappa


def check_state(n: int, kappa: int):
    """Raise DomainError unless |n, kappa> is a bound state: n >= 1 and
    kappa in -n..n-1 without 0."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if kappa == 0 or not -n <= kappa <= n - 1:
        raise DomainError(f"kappa={kappa} not in [-n, n-1] without 0 for n={n}")


def enumerate_kappa(n: int) -> list[int]:
    """All kappa values available at principal quantum number n: -n..n-1 without 0."""
    check_state(n, -n)
    return [k for k in range(-n, n) if k != 0]


def radial_nodes(n: int, kappa: int) -> int:
    """Nodes of the upper radial component f of |n, kappa>: n - l - 1."""
    check_state(n, kappa)
    return n - decompose_kappa(kappa)[0] - 1
