"""First-order effective-operator physics of the confining potentials.

After a Foldy-Wouthuysen reduction with the fine-tuned slope pair
(mu, nu = -mu sqrt(1 - lam^2/kappa0^2)), the confining potentials act on
particle states only through three operators of the same order,

    H_conf = mu [ lam^2 r / (2 kappa0^2)
                  - (sigma.L + 1) / (2 m^2 r)
                  - {p^2, r} / (4 m^2) ] ,

whose expectation values on a Coulomb state |n kappa> combine into the
closed-form first-order shift

    dE(n, kappa) = (mu lam / 4m) [ (3n^2 - kappa(kappa+1))/kappa0^2
                                   - (n^2 + kappa(kappa-1))/n^2 ] .

``first_order_shift`` carries both routes (closed form and term-by-term
assembly from the hydrogenic matrix elements) so they can be checked
against each other; the shift vanishes exactly, and only, for the
reference state kappa = kappa0 = -n.  ``preservation_scan`` proves the
"only" part by exhaustive integer arithmetic.

For antiparticle states the same reduction reverses the Coulomb term and
makes the two confining slopes add instead of cancel, giving a linear
confinement 2 mu r whose s-wave spectrum is the Airy-zero ladder
E_k = m + |a_k| ((2 mu)^2 / 2m)^(1/3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .coulomb import (
    expectation_anticomm_p2_r,
    expectation_inv_r,
    expectation_r,
)
from .errors import DomainError
from .quantum_numbers import check_state, sigma_dot_L_plus_one_eigenvalue
from .special_functions import airy_negative_zeros

__all__ = [
    "EffectiveShift",
    "UniquenessReport",
    "first_order_shift",
    "shift_from_expectations",
    "preservation_scan",
    "antiparticle_spectrum_airy",
]


@dataclass(frozen=True)
class EffectiveShift:
    """First-order confining shift and its operator-by-operator split."""

    total: float
    term_linear: float
    term_spin_orbit: float
    term_kinetic: float


def _check_shift_args(n: int, kappa: int, kappa0: int, lam: float):
    check_state(n, kappa)
    if kappa0 == 0:
        raise DomainError("kappa0 must be nonzero")
    if not lam > 0:
        raise DomainError("lam must be positive")


def _expectation_terms(n, kappa, kappa0, lam, mu, m):
    r_exp = expectation_r(n, kappa, lam, m)
    inv_r_exp = expectation_inv_r(n, lam, m)
    p2r_exp = expectation_anticomm_p2_r(n, kappa, lam, m)
    sl1 = sigma_dot_L_plus_one_eigenvalue(kappa, upper=True)
    term_linear = mu * lam * lam * r_exp / (2.0 * kappa0 * kappa0)
    term_spin_orbit = -mu * sl1 * inv_r_exp / (2.0 * m * m)
    term_kinetic = -mu * p2r_exp / (4.0 * m * m)
    return term_linear, term_spin_orbit, term_kinetic


def first_order_shift(n: int, kappa: int, kappa0: int, lam: float, mu: float,
                      m: float = 1.0) -> EffectiveShift:
    """Closed-form shift with its three-term decomposition.

    ``total`` is evaluated from the closed form; the three terms come from
    the hydrogenic expectation values and sum to it identically.
    """
    _check_shift_args(n, kappa, kappa0, lam)
    bracket = (3.0 * n * n - kappa * (kappa + 1)) / (kappa0 * kappa0) - (
        n * n + kappa * (kappa - 1)
    ) / (n * n)
    total = mu * lam / (4.0 * m) * bracket
    tl, ts, tk = _expectation_terms(n, kappa, kappa0, lam, mu, m)
    return EffectiveShift(total=total, term_linear=tl, term_spin_orbit=ts,
                          term_kinetic=tk)


def shift_from_expectations(n: int, kappa: int, kappa0: int, lam: float,
                            mu: float, m: float = 1.0) -> float:
    """Shift assembled purely from matrix elements; the oracle route."""
    _check_shift_args(n, kappa, kappa0, lam)
    tl, ts, tk = _expectation_terms(n, kappa, kappa0, lam, mu, m)
    return tl + ts + tk


@dataclass(frozen=True)
class UniquenessReport:
    """Exhaustive integer scan of the shift-cancellation condition.

    ``solutions`` holds every (n, kappa, N) with
    3n^2 - kappa(kappa+1) = N^2 (n^2 + kappa(kappa-1)); the physical subset
    keeps kappa = -n (the bound-state branch).  ``sign_violations`` lists
    scanned points where the two sides of the rearranged N >= 2 condition
    fail to have opposite signs; it must come back empty.
    """

    n_max: int
    N_max: int
    solutions: list
    physical_solutions: list
    sign_violations: list


def preservation_scan(n_max: int, N_max: int) -> UniquenessReport:
    """Scan all (n <= n_max, kappa in [-n, n] nonzero, N <= N_max) exactly.

    Python integers are exact at any size, so the scan is a proof by
    enumeration over its range, not a floating-point approximation.
    """
    if n_max < 1 or N_max < 2:
        raise DomainError("need n_max >= 1 and N_max >= 2")
    solutions = []
    physical = []
    violations = []
    for n in range(1, n_max + 1):
        for kappa in range(-n, n + 1):
            if kappa == 0:
                continue
            lhs_xi = 3 * n * n - kappa * (kappa + 1)
            rhs_den = n * n + kappa * (kappa - 1)
            for big_n in range(1, N_max + 1):
                if lhs_xi == big_n * big_n * rhs_den:
                    solutions.append((n, kappa, big_n))
                    if kappa == -n:
                        physical.append((n, kappa, big_n))
                if big_n >= 2:
                    left = (big_n * big_n - 3) * n * n
                    right = kappa * ((big_n * big_n - 1) - (big_n * big_n + 1) * kappa)
                    if not (left > 0 and right < 0):
                        violations.append((n, kappa, big_n, left, right))
    return UniquenessReport(n_max=n_max, N_max=N_max, solutions=solutions,
                            physical_solutions=physical,
                            sign_violations=violations)


def antiparticle_spectrum_airy(mu: float, m: float = 1.0,
                               count: int = 5) -> list[float]:
    """s-wave energies of the effective linear confinement 2 mu r.

    E_k = m + |a_k| ((2 mu)^2 / (2 m))^(1/3) with a_k the Airy zeros; the
    relativistic p^4 correction is dropped (relative O(lam^2) here).
    """
    if not (math.isfinite(mu) and mu > 0):
        raise DomainError(
            f"mu must be finite and positive for a confining slope, got {mu!r}")
    if not (math.isfinite(m) and m > 0):
        raise DomainError(f"m must be finite and positive, got {m!r}")
    if not 1 <= count <= 20:
        raise DomainError("count must be in [1, 20]")
    # math.cbrt, not x ** (1/3): the double nearest 1/3 is 1/3 - 1.85e-17,
    # an error of 1.85e-17 ln x relative in the scale
    try:
        scale = math.cbrt((2.0 * mu) ** 2 / (2.0 * m))
    except OverflowError:  # (2 mu)^2
        scale = math.inf
    if scale == math.inf:
        # (2 mu)^2, or its quotient by a tiny 2m, left the float range: take
        # mu = mu' 2^(3k) and m = m' 2^(3j) apart exactly
        k = math.frexp(mu)[1] // 3
        j = math.frexp(m)[1] // 3
        mu_, m_ = math.ldexp(mu, -3 * k), math.ldexp(m, -3 * j)
        scale = math.ldexp(math.cbrt((2.0 * mu_) ** 2 / (2.0 * m_)),
                           2 * k - j)
    return [m + abs(z) * scale for z in airy_negative_zeros(count)]
