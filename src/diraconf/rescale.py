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

h is integrated over the grid in blocks of ``_BLOCK`` intervals, so the
temporaries of one block (64 kB each) are all that is held at a time, and
the running sum carries from block to block: the bits are those of one
cumulative sum over the whole grid.  The bag case samples its wall once
per quadrature point and once per residual node, taking V2 as the same
factor times those samples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ansatz import AnsatzParams, dirac_coulomb_ground_state
from .errors import ConditionViolationError, DomainError, NormalizationError
from .radial_solver import (
    PotentialSpec,
    RadialGrid,
    _diff_of_squares,
    dirac_residual,
    suggest_rmax,
)
from .special_functions import _gauss_legendre

__all__ = [
    "RescaleProfile",
    "RatioConditionReport",
    "BagCase",
    "h_profile",
    "check_ratio_condition",
    "fine_tune_v2",
    "build_rescaled_state",
    "rescaled_residual",
    "bag_model_case",
]


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


# grid intervals per block of the h quadrature: 4 Gauss points each, so one
# block's temporaries are 8,192 floats (64 kB) and stay in cache
_BLOCK = 2048


def _integrate_blocks(sample: Callable, rn: np.ndarray,
                      branch: str) -> np.ndarray:
    """h on the nodes rn, anchored h[0] = 0, from sample(pts) -> (V1, V2).

    The intervals are integrated ``_BLOCK`` at a time, in order, with
    4-point Gauss-Legendre; ``sample`` sees each quadrature point once.
    Each block's running sum starts from the last h of the block before,
    so h is bit for bit the one-shot cumulative sum (the first block is a
    plain cumsum, which keeps a -0.0 increment as -0.0), and a violation
    is reported at the same first radius.
    """
    sign = 1.0 if branch == "+" else -1.0
    gl_x, gl_w = _gauss_legendre(4)
    intervals = rn.size - 1
    h = np.empty(rn.size)
    h[0] = 0.0
    for lo in range(0, intervals, _BLOCK):
        hi = min(lo + _BLOCK, intervals)
        left, right = rn[lo:hi], rn[lo + 1:hi + 1]
        half = 0.5 * (right - left)
        mid = 0.5 * (right + left)
        pts = mid[:, None] + half[:, None] * gl_x[None, :]
        w1, w2 = sample(pts)
        integrand2, vals = _diff_of_squares(w1, w2)
        # a violation beyond rounding needs V1^2 - V2^2 < 0 somewhere, so a
        # block with none (every block of a fine-tuned pair) skips the test
        if np.any(integrand2 < 0.0):
            with np.errstate(over="ignore"):
                bad = integrand2 < -1e-14 * (w1 * w1 + w2 * w2 + 1e-300)
            if np.any(bad):
                first = np.argwhere(bad)
                r_bad = float(pts[first[0][0], first[0][1]])
                raise ConditionViolationError(
                    f"V1^2 < V2^2 first violated near r = {r_bad!r}",
                    radius=r_bad)
        with np.errstate(over="ignore"):
            increments = sign * (half * (vals @ gl_w))
        if lo:
            increments[0] += h[lo]
        np.cumsum(increments, out=h[lo + 1:hi + 1])
    return h


def h_profile(v1: Callable, v2: Callable, grid: RadialGrid,
              branch: str = "-") -> RescaleProfile:
    """Cumulative integral of +/- sqrt(V1^2 - V2^2) over the grid.

    Each grid interval is integrated with 4-point Gauss-Legendre, so the
    accumulated h is accurate to well beyond fourth order.  The intervals
    go in blocks of ``_BLOCK`` (64 kB per temporary at any grid size); the
    bits are those of one cumulative sum over all of them.  Raises
    ConditionViolationError naming the first radius where V1^2 < V2^2.
    """
    if branch not in ("+", "-"):
        raise DomainError(f"branch must be '+' or '-', got {branch!r}")

    def sample(pts):
        return (np.asarray(v1(pts), dtype=float),
                np.asarray(v2(pts), dtype=float))

    h = _integrate_blocks(sample, grid.r, branch)
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


def _v2_coef(gamma: float) -> float:
    """The factor c of the fine-tuned V2 = c V1: -(1-g^2)/(1+g^2)."""
    if not math.isfinite(gamma):
        raise DomainError("gamma must be finite")
    return -(1.0 - gamma * gamma) / (1.0 + gamma * gamma)


def fine_tune_v2(v1: Callable, gamma: float) -> Callable:
    """The unique V2 compatible with ratio -gamma: V2 = -(1-g^2)/(1+g^2) V1."""
    coef = _v2_coef(gamma)

    def v2(r):
        return coef * np.asarray(v1(r), dtype=float)

    return v2


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
    """Relative defect (``dirac_residual``) of the perturbed equations for
    the rescaled state (arrays).

    Derivatives of the unrescaled state are supplied by the caller
    (analytic, or from the unperturbed equations for solver output); the
    e^h factor and its derivative are applied here.
    """
    rn = profile.grid.r
    eh = np.exp(profile.h - np.max(profile.h))
    hp = profile.h_prime(rn)
    f = eh * np.asarray(f0, dtype=float)
    g = eh * np.asarray(g0, dtype=float)
    df = eh * (np.asarray(df0, dtype=float) + hp * f0)
    dg = eh * (np.asarray(dg0, dtype=float) + hp * g0)
    return dirac_residual(f, df, g, dg, rn, E, kappa, m,
                          np.asarray(v0(rn), dtype=float),
                          np.asarray(profile.v1(rn), dtype=float),
                          np.asarray(profile.v2(rn), dtype=float))


@dataclass(frozen=True)
class BagCase:
    """Preserved state for a steep power-law (bag-like) confining pair: the
    walls and the grid are ``profile``'s, and the state is ``ground`` (the
    Coulomb state at ``energy``) rescaled by ``profile``'s e^h."""

    energy: float
    residual: float
    profile: RescaleProfile
    ground: AnsatzParams


def bag_model_case(A: float, r0: float, M: int, lam: float, kappa0: int,
                   m: float = 1.0, points: int = 4001) -> BagCase:
    """Power-law confinement V1 = A (r/r0)^M with the fine-tuned V2.

    Large M approximates a hard wall at r0 (the MIT-bag-style step).  The
    power is evaluated in the log domain, exp(M log(r/r0)), and the
    relative equation defect (``dirac_residual``) is taken per unit f, so
    M = 1000 works without overflow.  Requires a finite A > 0, the decaying
    branch, and finite r0 > 0 and m > 0.
    """
    if not 0 < A < math.inf:
        raise DomainError("A must be finite and positive (decaying e^h branch)")
    if M < 0:
        raise DomainError("M must be >= 0")
    if not 0 < r0 < math.inf:
        raise DomainError("r0 must be finite and positive")
    ground = dirac_coulomb_ground_state(lam, kappa0, m)

    # the wall saturates at min(A, 1) e^700, finite for any A
    cap = 700.0 - max(math.log(A), 0.0)

    def v1(r):
        r = np.asarray(r, dtype=float)
        return A * np.exp(np.minimum(M * np.log(r / r0), cap))

    coef = _v2_coef(ground.gamma)
    v2 = fine_tune_v2(v1, ground.gamma)
    r_min = 1e-6 / (lam * m)
    pot = PotentialSpec(v0=lambda r: -lam / r, v1=v1, v2=v2,
                        coulomb_strength=lam)
    r_max = suggest_rmax(pot, kappa0, ground.energy, m,
                         r_start=max(2.0 / (lam * m), 0.5 * r0))
    grid = RadialGrid(r_min=r_min, r_max=r_max, count=points)

    # V2 = coef V1 bit for bit, so the wall is sampled once per point
    def sample(r):
        w1 = v1(r)
        return w1, coef * w1

    h = _integrate_blocks(sample, grid.r, "-")
    profile = RescaleProfile(grid=grid, h=h, branch="-", v1=v1, v2=v2)

    # defect per unit f: 1/f is a common factor of every term, so the
    # relative defect needs no e^h and arbitrarily steep walls cannot
    # overflow; measured where f = e^h f0 is above 1e-8 of its peak
    log_f = h + (ground.b - 1.0) * np.log(grid.r) - ground.a * grid.r
    rn = grid.r[log_f >= np.max(log_f) + math.log(1e-8)]
    w1, w2 = sample(rn)
    one = np.ones_like(rn)
    # the first term is profile.h_prime(rn), bit for bit, from w1 and w2
    dlog_f = (-1.0 * _diff_of_squares(w1, w2)[1]
              + (ground.b - 1.0) / rn - ground.a)
    gam = ground.gamma
    residual = dirac_residual(one, dlog_f, -gam * one, -gam * dlog_f, rn,
                              ground.energy, kappa0, m, -lam / rn, w1, w2)
    return BagCase(energy=ground.energy, residual=residual, profile=profile,
                   ground=ground)
