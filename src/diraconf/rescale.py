"""Energy preservation by rescaling: f = e^h f0, g = e^h g0.

Adding a scalar potential V1 and a time-like potential V2 to a solvable
radial Dirac problem leaves an eigenvalue untouched whenever the two
conditions below hold; the new eigenfunctions are the old ones times a
common radial factor e^h with

    h'(r) = +/- sqrt(V1(r)^2 - V2(r)^2)            (existence of h)
    (g0/f0)^2 = (V1 + V2)/(V1 - V2)  pointwise     (ratio condition)

The ratio condition forces g0/f0 to be a global constant -gamma, which
singles out the nodeless n = -kappa0 Coulomb states, and pins the
potentials to each other:

    V2(r) = -(1 - gamma^2)/(1 + gamma^2) V1(r) = -(E/m) V1(r).

For V1 = mu r this machinery reproduces the Gaussian factor
exp(-alpha2 r^2/2) of the closed-form ansatz; for V1 = A (r/r0)^M with
large even M it yields a bag-like state cut off at r0, still with the
unshifted Coulomb eigenvalue.  Only the decaying branch of h gives a
normalizable state; the branch choice is explicit and the '+' branch is
reported as non-normalizable by the norm check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coulomb import DiracCoulombGroundState, dirac_coulomb_ground_state
from .errors import ConditionViolationError, DomainError, NormalizationError
from .radial_solver import (
    PotentialSpec,
    RadialGrid,
    _diff_of_squares,
    radial_equation_defects,
    suggest_rmax,
)

__all__ = [
    "RescaleProfile",
    "RatioConditionReport",
    "BagCase",
    "h_profile",
    "check_ratio_condition",
    "fine_tune_v2",
    "gamma_energy_relation",
    "build_rescaled_state",
    "rescaled_residual",
    "bag_model_case",
]

_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)


@dataclass(frozen=True)
class RescaleProfile:
    """Sampled rescaling exponent h on a grid, anchored h(r_min) = 0."""

    grid: RadialGrid
    h: np.ndarray
    branch: str
    v1: Callable
    v2: Callable

    def h_prime(self, r):
        r = np.asarray(r, dtype=float)
        _, root = _diff_of_squares(self.v1(r), self.v2(r))
        sign = 1.0 if self.branch == "+" else -1.0
        return sign * root


def h_profile(v1: Callable, v2: Callable, grid: RadialGrid,
              branch: str = "-") -> RescaleProfile:
    """Cumulative integral of +/- sqrt(V1^2 - V2^2) over the grid.

    Each grid interval is integrated with 4-point Gauss-Legendre, so the
    accumulated h is accurate to well beyond fourth order.  Raises
    ConditionViolationError naming the first radius where V1^2 < V2^2.
    """
    if branch not in ("+", "-"):
        raise DomainError(f"branch must be '+' or '-', got {branch!r}")
    rn = grid.r
    sign = 1.0 if branch == "+" else -1.0
    # quadrature nodes for every interval at once
    half = 0.5 * np.diff(rn)
    mid = 0.5 * (rn[1:] + rn[:-1])
    pts = mid[:, None] + half[:, None] * _GL4_X[None, :]
    w1 = np.asarray(v1(pts), dtype=float)
    w2 = np.asarray(v2(pts), dtype=float)
    integrand2, vals = _diff_of_squares(w1, w2)
    with np.errstate(over="ignore"):
        bad = integrand2 < -1e-14 * (w1 * w1 + w2 * w2 + 1e-300)
    if np.any(bad):
        first = np.argwhere(bad)
        r_bad = float(pts[first[0][0], first[0][1]])
        raise ConditionViolationError(
            f"V1^2 < V2^2 first violated near r = {r_bad!r}", radius=r_bad
        )
    with np.errstate(over="ignore"):
        increments = half * (vals @ _GL4_W)
    h = np.concatenate(([0.0], np.cumsum(sign * increments)))
    return RescaleProfile(grid=grid, h=h, branch=branch, v1=v1, v2=v2)


@dataclass(frozen=True)
class RatioConditionReport:
    """Diagnostics of the pointwise ratio condition.

    max_root_deviation   max | |g0/f0| - sqrt((V1+V2)/(V1-V2)) |
    constancy_defect     half the spread of g0/f0 over the usable window
    masked_points        nodes excluded (f0 too close to zero, or V1 = V2)
    """

    max_root_deviation: float
    constancy_defect: float
    masked_points: int


def check_ratio_condition(f0: np.ndarray, g0: np.ndarray, v1: Callable,
                          v2: Callable, grid: RadialGrid) -> RatioConditionReport:
    """Measure how well (f0, g0) satisfy the preservation ratio condition.

    The ratio g0/f0 is negative for the states of interest while the square
    root is positive, so magnitudes are compared.  Nodes where |f0| is at
    most 1e-6 of its peak are masked; the mask count is reported.
    """
    rn = grid.r
    f0 = np.asarray(f0, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    usable = np.abs(f0) > 1e-6 * float(np.max(np.abs(f0)))
    v1v = np.asarray(v1(rn), dtype=float)
    v2v = np.asarray(v2(rn), dtype=float)
    denom_ok = (v1v - v2v) != 0.0
    both = usable & denom_ok
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(usable, g0 / np.where(usable, f0, 1.0), np.nan)
        root = np.sqrt(np.where(both, (v1v + v2v) / np.where(denom_ok, v1v - v2v, 1.0),
                                np.nan))
    max_dev = float(np.nanmax(np.abs(np.abs(ratio[both]) - root[both])))
    live = ratio[usable]
    constancy = float(0.5 * (np.max(live) - np.min(live)))
    return RatioConditionReport(
        max_root_deviation=max_dev,
        constancy_defect=constancy,
        masked_points=int(np.sum(~usable)),
    )


def fine_tune_v2(v1: Callable, gamma: float) -> Callable:
    """The unique V2 compatible with ratio -gamma: V2 = -(1-g^2)/(1+g^2) V1."""
    if not math.isfinite(gamma):
        raise DomainError("gamma must be finite")
    coef = -(1.0 - gamma * gamma) / (1.0 + gamma * gamma)

    def v2(r):
        return coef * np.asarray(v1(r), dtype=float)

    return v2


def gamma_energy_relation(gamma: float) -> float:
    """(1 - gamma^2)/(1 + gamma^2); equals E/m for the preserved states."""
    if gamma < 0:
        raise DomainError("gamma must be >= 0")
    return (1.0 - gamma * gamma) / (1.0 + gamma * gamma)


def build_rescaled_state(f0: np.ndarray, g0: np.ndarray,
                         profile: RescaleProfile):
    """Apply e^h and renormalize; raises NormalizationError if e^h diverges."""
    f0 = np.asarray(f0, dtype=float)
    g0 = np.asarray(g0, dtype=float)
    grid = profile.grid
    scale = np.exp(profile.h - np.max(profile.h))
    f = f0 * scale
    g = g0 * scale
    w = (f * f + g * g) * grid.r**2
    peak = int(np.argmax(w))
    if peak >= grid.count - max(2, grid.count // 50):
        raise NormalizationError(
            "norm integrand still growing at r_max: this h branch gives a "
            "non-normalizable state"
        )
    norm2 = grid.integrate(w)
    if not (norm2 > 0 and math.isfinite(norm2)):
        raise NormalizationError(f"norm integral = {norm2!r}")
    return f / math.sqrt(norm2), g / math.sqrt(norm2)


def rescaled_residual(f0, df0, g0, dg0, profile: RescaleProfile, v0: Callable,
                      E: float, kappa: int, m: float) -> float:
    """Defect of the perturbed equations for the rescaled state (arrays).

    Derivatives of the unrescaled state are supplied by the caller
    (analytic, or from the unperturbed equations for solver output); the
    e^h factor and its derivative are applied here.
    """
    grid = profile.grid
    rn = grid.r
    eh = np.exp(profile.h - np.max(profile.h))
    hp = profile.h_prime(rn)
    f = eh * np.asarray(f0, dtype=float)
    g = eh * np.asarray(g0, dtype=float)
    df = eh * (np.asarray(df0, dtype=float) + hp * f0)
    dg = eh * (np.asarray(dg0, dtype=float) + hp * g0)
    res1, res2 = radial_equation_defects(
        f, df, g, dg, rn, E, kappa, m,
        np.asarray(v0(rn), dtype=float),
        np.asarray(profile.v1(rn), dtype=float),
        np.asarray(profile.v2(rn), dtype=float),
    )
    scale = np.maximum(np.abs(f), np.abs(g))
    live = scale > 1e-10 * float(np.max(scale))
    return float(np.max(np.maximum(np.abs(res1[live]), np.abs(res2[live]))
                        / scale[live]))


@dataclass(frozen=True)
class BagCase:
    """Preserved state for a steep power-law (bag-like) confining pair."""

    v1: Callable
    v2: Callable
    energy: float
    residual: float
    grid: RadialGrid
    profile: RescaleProfile
    ground: DiracCoulombGroundState


def bag_model_case(A: float, r0: float, M: int, lam: float, kappa0: int,
                   m: float = 1.0, points: int = 4001) -> BagCase:
    """Power-law confinement V1 = A (r/r0)^M with the fine-tuned V2.

    Large M approximates a hard wall at r0 (the MIT-bag-style step).  The
    power is evaluated in the log domain, exp(M log(r/r0)), and the
    equation defect is computed in ratio form (divided through by f), so
    M = 1000 works without overflow.  Requires A > 0, the decaying branch.
    """
    if A <= 0:
        raise DomainError("A must be positive (decaying e^h branch)")
    if M < 0:
        raise DomainError("M must be >= 0")
    if r0 <= 0:
        raise DomainError("r0 must be positive")
    ground = dirac_coulomb_ground_state(lam, kappa0, m)

    def v1(r):
        r = np.asarray(r, dtype=float)
        return A * np.exp(np.minimum(M * np.log(r / r0), 700.0))

    v2 = fine_tune_v2(v1, ground.gamma)
    ak = abs(kappa0)
    r_min = 1e-6 / (lam * m)
    pot = PotentialSpec(v0=lambda r: -lam / r, v1=v1, v2=v2,
                        coulomb_strength=lam)
    r_max = suggest_rmax(pot, kappa0, ground.energy, m,
                         r_start=max(2.0 / (lam * m), 0.5 * r0))
    grid = RadialGrid(r_min=r_min, r_max=r_max, count=points)
    profile = h_profile(v1, v2, grid, branch="-")

    # defect per unit f: no e^h needed, so arbitrarily steep walls are fine;
    # only where e^h has underflowed to zero (no state left, and wall terms
    # near the float range) is the defect not measured
    with np.errstate(under="ignore"):
        live = np.exp(profile.h - np.max(profile.h)) > 0.0
    rn = grid.r[live]
    log_deriv = (ground.b - 1.0) / rn - ground.a   # f0'/f0
    hp = profile.h_prime(rn)
    gam = ground.gamma
    E = ground.energy
    v0v = -lam / rn
    v1v = np.asarray(v1(rn), dtype=float)
    v2v = np.asarray(v2(rn), dtype=float)
    p = E + m + v1v - v0v - v2v
    q = E - m - v1v - v0v - v2v
    res1_over_f = (hp + log_deriv) + (kappa0 + 1.0) / rn + p * gam
    res2_over_f = gam * (hp + log_deriv) - gam * (kappa0 - 1.0) / rn - q
    scale = max(1.0, gam)
    residual = float(np.max(np.maximum(np.abs(res1_over_f), np.abs(res2_over_f)))
                     / scale)
    return BagCase(v1=v1, v2=v2, energy=ground.energy, residual=residual,
                   grid=grid, profile=profile, ground=ground)
