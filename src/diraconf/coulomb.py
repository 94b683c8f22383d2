"""Closed-form hydrogenic reference values (natural units, hbar = c = 1).

Energies come from the Sommerfeld fine-structure formula and its
nonrelativistic limit; the expectation values <r>, <1/r> and <{p^2, r}>
are the standard Coulomb-Schroedinger matrix elements that feed the
first-order confining shifts in ``fw_effective``.

The Bohr-like length scale is 1/(lambda m) throughout.  The closed-form
nodeless Dirac-Coulomb state lives with the preserved state it generates:
it is the mu = 0 member of ``ansatz.AnsatzParams``
(``ansatz.dirac_coulomb_ground_state``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quantum_numbers import check_state

__all__ = [
    "CouplingSet",
    "dirac_coulomb_energy",
    "schrodinger_energy",
    "expectation_r",
    "expectation_inv_r",
    "expectation_anticomm_p2_r",
    "radial_wavefunction",
]


@dataclass(frozen=True)
class CouplingSet:
    """Physical parameters of the generalized Dirac problem.

    mass      particle mass, finite and m > 0
    lam       dimensionless Coulomb coupling (the -lam/r term)
    mu        scalar (beta-coupled) linear confinement coefficient, energy^2
    nu        time-like linear confinement coefficient, energy^2
    """

    mass: float
    lam: float
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise DomainError(
                f"mass must be finite and positive, got {self.mass}")


def dirac_coulomb_energy(n: int, kappa: int, lam: float, m: float = 1.0) -> float:
    """Sommerfeld energy E(n, kappa, lam); reduces to m sqrt(1 - lam^2/kappa^2)
    for the nodeless n = -kappa states."""
    check_state(n, kappa)
    if not 0 <= lam < abs(kappa):
        raise DomainError(  # at lam >= |kappa| the exponent turns complex
            f"need 0 <= lam < |kappa|={abs(kappa)}, got lam={lam}"
        )
    s = math.sqrt(kappa * kappa - lam * lam)
    return m / math.sqrt(1.0 + (lam / (n - abs(kappa) + s)) ** 2)


def schrodinger_energy(n: int, lam: float, m: float = 1.0) -> float:
    """Nonrelativistic Coulomb energy including rest mass: m - lam^2 m / (2 n^2)."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return m - lam * lam * m / (2.0 * n * n)


def expectation_r(n: int, kappa: int, lam: float, m: float = 1.0) -> float:
    """<r> on the Schroedinger-Coulomb state: (3n^2 - kappa(kappa+1)) / (2 lam m)."""
    check_state(n, kappa)
    if not lam > 0:
        raise DomainError("lam must be positive (no bound state otherwise)")
    return (3.0 * n * n - kappa * (kappa + 1)) / (2.0 * lam * m)


def expectation_inv_r(n: int, lam: float, m: float = 1.0) -> float:
    """<1/r> on the Schroedinger-Coulomb state: lam m / n^2."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not lam > 0:
        raise DomainError("lam must be positive")
    return lam * m / (n * n)


def expectation_anticomm_p2_r(n: int, kappa: int, lam: float, m: float = 1.0) -> float:
    """<{p^2, r}> on the Schroedinger-Coulomb state.

    On an eigenstate p^2 = 2m(E_b + lam/r) with binding energy
    E_b = -lam^2 m/(2n^2); hermiticity of p^2 then gives
    <{p^2, r}> = 4m (E_b <r> + lam).
    """
    check_state(n, kappa)
    if not lam > 0:
        raise DomainError("lam must be positive")
    e_b = -lam * lam * m / (2.0 * n * n)
    return 4.0 * m * (e_b * expectation_r(n, kappa, lam, m) + lam)


def radial_wavefunction(n: int, ell: int, lam: float, m: float, r):
    """Normalized hydrogenic R_{n ell}(r), Bohr scale 1/(lam m).

    Returns R at the radii ``r``, a scalar or an array; associated
    Laguerre polynomials are built by upward recurrence, which stays
    well-conditioned to n ~ 20.
    """
    if not (0 <= ell <= n - 1):
        raise DomainError(f"need 0 <= ell <= n-1, got ell={ell}, n={n}")
    if not lam > 0:
        raise DomainError("lam must be positive")
    r = np.asarray(r, dtype=float)
    a = 1.0 / (lam * m)
    rho = 2.0 * r / (n * a)
    # norm^2 = (2/(n a))^3 (n-ell-1)! / (2n (n+ell)!), ratio via a stable product
    ratio = 1.0
    for k in range(n - ell, n + ell + 1):
        ratio /= k
    norm = math.sqrt((2.0 / (n * a)) ** 3 * ratio / (2.0 * n))
    # L^{2l+1}_{n-l-1}(rho) by recurrence
    alpha = 2 * ell + 1
    k_max = n - ell - 1
    l_prev = np.ones_like(rho)
    if k_max == 0:
        lag = l_prev
    else:
        lag = 1.0 + alpha - rho
        for k in range(1, k_max):
            l_next = ((2 * k + 1 + alpha - rho) * lag - (k + alpha) * l_prev) / (k + 1)
            l_prev, lag = lag, l_next
    return norm * rho**ell * np.exp(-rho / 2.0) * lag
