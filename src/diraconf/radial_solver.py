"""Bound states of the coupled radial Dirac equations by shooting.

The equations integrated here, for a Hamiltonian with a time-like potential
V0, a scalar (beta-coupled) potential V1 and a second time-like potential V2,
and a bispinor with upper radial part f and lower radial part g, are

    f'(r) + (kappa+1)/r f = (E + m + V1 - V0 - V2) g
    -g'(r) + (kappa-1)/r g = (E - m - V1 - V0 - V2) f

so the time-like pieces always enter as E - V0 - V2 and the scalar piece
shifts the mass, m + V1.  Eigenvalues are located by integrating outward
from a power-series start at r_min and inward from a WKB-seeded tail at
r_max, and driving the mismatch of g/f at an interior matching radius to
zero (a bracketed Brent iteration, run to the rounding floor).  A
fourth-order Runge-Kutta kernel (``diraconf._kernels``) does the stepping in
t = ln r, on a logarithmic ``RadialGrid`` that resolves the power-law start
at the origin from the first step.

A radial Schroedinger solver built on the same machinery handles the
nonrelativistic confining problems (single component u(r), with
-u''/2m + [v + l(l+1)/(2 m r^2)] u = (E - m) u).  Each equation system
(``_DiracSystem``, ``_SchrodingerSystem``) supplies only its coefficient
tables, seeds, norm density and equation terms; one pipeline (``_shoot``)
searches, merges, normalizes, fixes the sign, checks the node count and
measures the finite-difference residual for both.  One tail walk
(``_tail_radius``) places r_max for both from their WKB decay rates;
``coulomb_grid`` and ``airy_grid`` build the grids of the Coulomb levels and
of the linear-slope ladders.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._kernels import rk4_linear2x2
from .coulomb import dirac_coulomb_energy
from .errors import BracketError, ConvergenceError, DomainError, WrongStateError
from .quantum_numbers import radial_nodes

_trapezoid = getattr(np, "trapezoid", None) or np.trapz

__all__ = [
    "RadialGrid",
    "PotentialSpec",
    "BoundState",
    "ScalarBoundState",
    "ShiftStudy",
    "coulomb_potential",
    "coulomb_plus_linear",
    "radial_equation_defects",
    "integrate_radial",
    "find_bound_state",
    "solve_schrodinger_radial",
    "shift_convergence_study",
    "suggest_rmax",
    "suggest_rmax_schrodinger",
    "coulomb_grid",
    "airy_grid",
]


@dataclass(frozen=True)
class RadialGrid:
    """Logarithmic radial grid: ``count`` nodes equally spaced in t = ln r.

    Production eigenvalue solves want count >= 10_000 or so; small counts
    are fine for kernel cross-checks.
    """

    r_min: float
    r_max: float
    count: int

    def __post_init__(self):
        if not 0 < self.r_min < self.r_max:
            raise DomainError(
                f"need 0 < r_min < r_max, got [{self.r_min}, {self.r_max}]"
            )
        if self.count < 16:
            raise DomainError(f"count must be >= 16, got {self.count}")

    @cached_property
    def t(self) -> np.ndarray:
        """Integration variable ln r at the nodes."""
        return np.linspace(math.log(self.r_min), math.log(self.r_max), self.count)

    @cached_property
    def r(self) -> np.ndarray:
        return np.exp(self.t)

    @cached_property
    def r_all(self) -> np.ndarray:
        """Radii at nodes and interval midpoints (2*count - 1 points)."""
        return np.exp(np.linspace(math.log(self.r_min), math.log(self.r_max),
                                  2 * self.count - 1))

    @cached_property
    def steps(self) -> np.ndarray:
        return np.diff(self.t)

    def integrate(self, values: np.ndarray) -> float:
        """Trapezoid quadrature of sampled values against dr.

        This is the trapezoid rule in ln r with the exact Jacobian; for
        integrands decaying at both ends it is accurate far beyond second
        order (Euler-Maclaurin boundary terms vanish).
        """
        return float(_trapezoid(values * self.r, self.t))


def _zero(r):
    return np.zeros_like(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class PotentialSpec:
    """Radial potential triple; callables must accept float arrays.

    ``coulomb_strength`` declares the leading origin behavior of v0
    (v0 ~ -coulomb_strength / r) so the outward integration can start on
    the correct power-series branch.  Leave it zero for potentials regular
    at the origin.
    """

    v0: Callable = _zero
    v1: Callable = _zero
    v2: Callable = _zero
    coulomb_strength: float = 0.0


def coulomb_potential(lam: float) -> PotentialSpec:
    return PotentialSpec(v0=lambda r: -lam / r, coulomb_strength=lam)


def coulomb_plus_linear(lam: float, mu: float, nu: float) -> PotentialSpec:
    """Coulomb term plus the two linear confining potentials."""
    return PotentialSpec(
        v0=lambda r: -lam / r,
        v1=lambda r: mu * r,
        v2=lambda r: nu * r,
        coulomb_strength=lam,
    )


@dataclass
class BoundState:
    energy: float
    kappa: int
    grid: RadialGrid
    f: np.ndarray
    g: np.ndarray
    nodes_f: int
    residual: float


@dataclass
class ScalarBoundState:
    energy: float
    ell: int
    grid: RadialGrid
    u: np.ndarray
    du: np.ndarray
    nodes: int
    residual: float


def radial_equation_defects(f, df, g, dg, r, E, kappa, m, v0, v1, v2):
    """Pointwise defects of the two coupled radial equations.

    All arguments are arrays sampled on the same radii (or scalars); the
    derivative arrays must come from an independent route (analytic
    differentiation or finite differences), not from the equations
    themselves.
    """
    return tuple(sum(terms) for terms in
                 _dirac_terms(f, df, g, dg, r, E, kappa, m, v0, v1, v2))


def _dirac_terms(f, df, g, dg, r, E, kappa, m, v0, v1, v2):
    """The terms each of the two radial equations sums to zero."""
    p = E + m + v1 - v0 - v2
    q = E - m - v1 - v0 - v2
    return ([df, (kappa + 1.0) / r * f, -(p * g)],
            [-dg, (kappa - 1.0) / r * g, -(q * f)])


class _DiracSystem:
    """Precomputed coefficient tables for one (potential, kappa, m, grid)."""

    def __init__(self, potential: PotentialSpec, kappa: int, m: float,
                 grid: RadialGrid):
        if kappa == 0:
            raise DomainError("kappa must be nonzero")
        lam = potential.coulomb_strength
        if lam != 0.0 and abs(lam) >= abs(kappa):
            raise DomainError(
                f"|coulomb_strength|={abs(lam)} must stay below |kappa|={abs(kappa)}"
            )
        self.potential = potential
        self.kappa = kappa
        self.m = m
        self.grid = grid
        ra = grid.r_all
        self.v0_all = np.asarray(potential.v0(ra), dtype=float)
        self.v1_all = np.asarray(potential.v1(ra), dtype=float)
        self.v2_all = np.asarray(potential.v2(ra), dtype=float)
        self.p_tilde = m + self.v1_all - self.v0_all - self.v2_all
        self.q_tilde = -m - self.v1_all - self.v0_all - self.v2_all
        # in t = ln r the equations are r times their r-form: constant
        # diagonal, off-diagonal entries scaled by r
        self.a11 = np.full_like(ra, -(kappa + 1.0))
        self.a22 = np.full_like(ra, kappa - 1.0)

    def coefficients(self, E: float):
        ra = self.grid.r_all
        a12 = ra * (E + self.p_tilde)
        a21 = -ra * (E + self.q_tilde)
        return self.a11, a12, a21, self.a22

    def outward_seed(self, E: float):
        kappa, m = self.kappa, self.m
        lam = self.potential.coulomb_strength
        r0 = self.grid.r[0]
        if lam != 0.0:
            s = math.sqrt(kappa * kappa - lam * lam)
            cf = r0 ** (s - 1.0)
            cg = (s + kappa) / lam * cf
            # first-order series correction in r keeps the seed defect
            # below the integrator's own truncation error
            ep, em = E + m, E - m
            det = (s + kappa + 1.0) * (kappa - 1.0 - s) - lam * lam
            if abs(det) > 1e-10:
                cf1 = ((kappa - 1.0 - s) * ep * cg + lam * em * cf) / det
                cg1 = (lam * ep * cg + (s + kappa + 1.0) * em * cf) / det
                return cf + cf1 * r0, cg + cg1 * r0
            return cf, cg
        q0 = E - m - float(self.v0_all[0] + self.v1_all[0] + self.v2_all[0])
        p0 = E + m + float(self.v1_all[0] - self.v0_all[0] - self.v2_all[0])
        if kappa < 0:
            cf = r0 ** (-kappa - 1.0)
            return cf, q0 * cf * r0 / (2.0 * kappa - 1.0)
        cg = r0 ** (kappa - 1.0)
        return p0 * cg * r0 / (2.0 * kappa + 1.0), cg

    def inward_seed(self, E: float):
        w2 = (self.m + self.v1_all[-1]) ** 2 - (
            E - self.v0_all[-1] - self.v2_all[-1]
        ) ** 2
        w = math.sqrt(max(float(w2), 1e-30))
        r_last = self.grid.r[-1]
        p_last = E + self.p_tilde[-1]
        f0 = 1.0
        g0 = (-w + (self.kappa + 1.0) / r_last) * f0 / p_last
        return f0, g0

    def allowed_region(self, E: float) -> np.ndarray:
        rn = self.grid.r
        v0 = self.v0_all[::2]
        v1 = self.v1_all[::2]
        v2 = self.v2_all[::2]
        return (E - v0 - v2) ** 2 - (self.m + v1) ** 2 - self.kappa * (
            self.kappa + 1.0
        ) / rn**2 > 0

    def density(self, f, g):
        return (f * f + g * g) * self.grid.r**2

    def residual_terms(self, E: float, f, g):
        """Terms of the two radial equations (derivatives by finite
        differences), and the live-mask scale."""
        equations = _dirac_terms(f, _fd_dr(self.grid, f), g, _fd_dr(self.grid, g),
                                 self.grid.r, E, self.kappa, self.m,
                                 self.v0_all[::2], self.v1_all[::2],
                                 self.v2_all[::2])
        return equations, np.maximum(np.abs(f), np.abs(g))


class _SchrodingerSystem:
    """Same machinery for the single-component radial equation."""

    def __init__(self, v: Callable, ell: int, m: float, grid: RadialGrid,
                 coulomb_coeff: float = 0.0):
        if ell < 0:
            raise DomainError("ell must be >= 0")
        self.ell = ell
        self.m = m
        self.grid = grid
        self.coulomb_coeff = coulomb_coeff
        ra = grid.r_all
        self.v_all = np.asarray(v(ra), dtype=float)
        self.v_eff = self.v_all + ell * (ell + 1.0) / (2.0 * m * ra**2)
        self.a11 = np.zeros_like(ra)
        self.a12 = ra.copy()
        self.a22 = np.zeros_like(ra)

    def coefficients(self, E: float):
        a21 = self.grid.r_all * 2.0 * self.m * (self.v_eff - (E - self.m))
        return self.a11, self.a12, a21, self.a22

    def outward_seed(self, E: float):
        r0 = self.grid.r[0]
        ell = self.ell
        beta = self.m * self.coulomb_coeff / (ell + 1.0)
        u = r0 ** (ell + 1.0) * (1.0 + beta * r0)
        du = (ell + 1.0) * r0**ell + (ell + 2.0) * beta * r0 ** (ell + 1.0)
        return u, du

    def inward_seed(self, E: float):
        k2 = 2.0 * self.m * (self.v_eff[-1] - (E - self.m))
        k = math.sqrt(max(float(k2), 1e-30))
        return 1.0, -k

    def allowed_region(self, E: float) -> np.ndarray:
        rn = self.grid.r
        return 2.0 * self.m * (E - self.m - self.v_all[::2]) - self.ell * (
            self.ell + 1.0
        ) / rn**2 > 0

    def density(self, u, du):
        return u * u

    def residual_terms(self, E: float, u, du):
        """Terms of -u''/2m + (v_eff - (E-m)) u = 0 (u'' from the sampled
        du), and the live-mask scale."""
        ddu = _fd_dr(self.grid, du)
        v_eff = self.v_eff[::2]
        return ([-ddu / (2.0 * self.m), (v_eff - (E - self.m)) * u],), np.abs(u)


def _propagate(system, E: float, reverse: bool):
    grid = system.grid
    n = grid.count
    a11, a12, a21, a22 = system.coefficients(E)
    y1 = np.empty(n)
    y2 = np.empty(n)
    logscale = np.empty(n)
    seed = system.inward_seed(E) if reverse else system.outward_seed(E)
    status = rk4_linear2x2(
        grid.steps, a11, a12, a21, a22,
        float(seed[0]), float(seed[1]), reverse,
        y1, y2, logscale,
    )
    if status != 0:
        raise ConvergenceError(
            f"integration produced non-finite values at E={E!r}"
        )
    return y1, y2, logscale


def _match_index(system, E: float) -> int:
    """Outer classical turning point; falls back to the peak of |f|."""
    n = system.grid.count
    allowed = np.nonzero(system.allowed_region(E))[0]
    if allowed.size:
        idx = int(allowed[-1])
    else:
        f, _, logscale = _propagate(system, E, reverse=False)
        with np.errstate(divide="ignore"):
            log_f = np.where(f != 0.0, np.log(np.abs(np.where(f != 0.0, f, 1.0))),
                             -np.inf) + logscale
        idx = int(np.argmax(log_f))
    return min(max(idx, 8), n - 9)


def _matching_defect(system, E: float, i_match: int):
    """Wronskian-style defect at the matching node, normalized to [-1, 1].

    Vanishes exactly at eigenvalues and, unlike a log-derivative mismatch,
    has no poles when a node of the outward sweep crosses the matching
    radius as E varies across the bracket.
    """
    f_out, g_out, _ = _propagate(system, E, reverse=False)
    f_in, g_in, _ = _propagate(system, E, reverse=True)
    i = i_match
    a = g_out[i] * f_in[i]
    b = g_in[i] * f_out[i]
    return float((a - b) / (abs(a) + abs(b) + 1e-300))


def _merge_and_scale(system, E: float):
    """Outward and inward trajectories glued at the match point, peak ~ 1."""
    i_match = _match_index(system, E)
    f_out, g_out, so = _propagate(system, E, reverse=False)
    f_in, g_in, si = _propagate(system, E, reverse=True)
    n = system.grid.count
    im = i_match
    while f_out[im] == 0.0 or f_in[im] == 0.0:
        im += 1
        if im == n:
            raise ConvergenceError(
                f"no radius beyond the match point where both sweeps are "
                f"nonzero (E={E!r})"
            )
    mag_out = np.maximum(np.abs(f_out[: im + 1]), np.abs(g_out[: im + 1]))
    with np.errstate(divide="ignore"):
        ref = float(np.max(np.log(np.where(mag_out > 0, mag_out, 1e-320))
                           + so[: im + 1]))
    f = np.empty(n)
    g = np.empty(n)
    scale_out = np.exp(so[: im + 1] - ref)
    f[: im + 1] = f_out[: im + 1] * scale_out
    g[: im + 1] = g_out[: im + 1] * scale_out
    glue_log = (
        math.log(abs(f_out[im])) + so[im] - ref
        - math.log(abs(f_in[im])) - si[im]
    )
    sign_c = math.copysign(1.0, f_out[im]) * math.copysign(1.0, f_in[im])
    scale_in = sign_c * np.exp(np.minimum(si[im:] + glue_log, 100.0))
    f[im:] = f_in[im:] * scale_in
    g[im:] = g_in[im:] * scale_in
    return f, g, im


def _count_nodes(values: np.ndarray) -> int:
    """Sign changes among the samples above 1e-10 of the peak magnitude."""
    live = values[np.abs(values) > 1e-10 * float(np.max(np.abs(values)))]
    if live.size < 2:
        return 0
    return int(np.sum(live[1:] * live[:-1] < 0))


def _fd_dr(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """d/dr by fourth-order central differences in t (interior only)."""
    d = np.full_like(values, np.nan)
    d[2:-2] = (values[:-4] - 8 * values[1:-3] + 8 * values[3:-1] - values[4:]) / (
        12.0 * float(grid.steps[0])
    )
    return d / grid.r


def _fd_residual(equations, scale: np.ndarray) -> float:
    """Equation defect of a sampled solution, relative to the local
    magnitude of the terms being balanced: the maximum over live interior
    nodes of |sum of terms| / sum of |terms|, over all equations."""
    live = scale > 1e-8 * float(np.max(scale))
    live[:2] = live[-2:] = False
    if not np.any(live):
        return math.inf
    rel = [np.abs(sum(terms)[live]) / (sum(np.abs(t) for t in terms)[live] + 1e-300)
           for terms in equations]
    return float(np.max(rel))


_EPS = sys.float_info.epsilon
# Brent needs about 10 evaluations per bracket and never more than a few
# times the ~60 halvings from a wide bracket to the rounding floor
_MAX_DEFECT_EVALS = 300


def _finite_defect(system, E: float, i_match: int) -> float:
    d = _matching_defect(system, E, i_match)
    if not math.isfinite(d):
        raise ConvergenceError(f"non-finite matching defect {d!r} at E={E!r}")
    return d


def _solve_eigenvalue(system, E_bracket) -> float:
    """Root of the matching defect by a bracketed Brent iteration.

    Inverse-quadratic or secant steps, with bisection whenever they would
    not shrink the sign-change bracket fast enough.  The iteration runs to
    the rounding floor (a final bracket of about 4 ulp of E, or adjacent
    floats); the returned energy is the bracket end with the smaller defect.
    """
    e_lo, e_hi = sorted(float(e) for e in E_bracket)
    i_match = _match_index(system, 0.5 * (e_lo + e_hi))
    d_lo = _finite_defect(system, e_lo, i_match)
    d_hi = _finite_defect(system, e_hi, i_match)
    if d_lo == 0.0:
        return e_lo
    if d_hi == 0.0:
        return e_hi
    if d_lo * d_hi > 0:
        raise BracketError(
            f"matching defect does not change sign on [{e_lo}, {e_hi}] "
            f"(defects {d_lo:.3e}, {d_hi:.3e})"
        )
    # b: best estimate; c: the other end of the bracket; a: previous b
    a, fa = e_lo, d_lo
    b, fb = e_hi, d_hi
    c, fc = b, fb
    for _ in range(_MAX_DEFECT_EVALS):
        if fb * fc > 0:
            c, fc = a, fa
            step = last_step = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b)
        half = 0.5 * (c - b)
        if fb == 0.0 or abs(half) <= tol1 or math.nextafter(b, c) == c:
            return b
        if abs(last_step) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * half * s
                q = 1.0 - s
            else:  # inverse quadratic interpolation
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * half * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * half * q - abs(tol1 * q), abs(last_step * q)):
                last_step, step = step, p / q
            else:
                step = last_step = half
        else:
            step = last_step = half
        a, fa = b, fb
        b_next = b + step if abs(step) > tol1 else b + math.copysign(tol1, half)
        b = b_next if b_next != b else math.nextafter(b, c)
        fb = _finite_defect(system, b, i_match)
    raise ConvergenceError(
        f"eigenvalue search did not converge in {_MAX_DEFECT_EVALS} steps; "
        f"bracket [{min(b, c)!r}, {max(b, c)!r}]",
        partial=b,
    )


def _shoot(system, E_bracket, target_nodes: int):
    """One bound state of ``system``: (energy, y1, y2, nodes, residual).

    The two components come out normalized to the system's density, with
    y1 > 0 as it rises from the origin; a node count of y1 other than
    ``target_nodes`` raises WrongStateError.
    """
    energy = _solve_eigenvalue(system, E_bracket)
    y1, y2, _ = _merge_and_scale(system, energy)
    norm = math.sqrt(system.grid.integrate(system.density(y1, y2)))
    y1 /= norm
    y2 /= norm
    if y1[np.argmax(np.abs(y1) > 1e-3 * np.max(np.abs(y1)))] < 0:
        y1, y2 = -y1, -y2
    nodes = _count_nodes(y1)
    if nodes != target_nodes:
        raise WrongStateError(
            f"found a state with {nodes} nodes, wanted {target_nodes} "
            f"(E = {energy!r}); widen or shift the bracket",
            found_nodes=nodes, target_nodes=target_nodes,
        )
    residual = _fd_residual(*system.residual_terms(energy, y1, y2))
    return energy, y1, y2, nodes, residual


def integrate_radial(potential: PotentialSpec, kappa: int, E: float, m: float,
                     grid: RadialGrid, direction: str = "outward"):
    """Raw (f, g) trajectory for one energy, peak magnitude scaled to 1."""
    if direction not in ("outward", "inward"):
        raise DomainError(f"direction must be 'outward' or 'inward', got {direction!r}")
    system = _DiracSystem(potential, kappa, m, grid)
    f, g, logscale = _propagate(system, E, reverse=(direction == "inward"))
    mag = np.maximum(np.abs(f), np.abs(g))
    with np.errstate(divide="ignore"):
        logm = np.where(mag > 0, np.log(np.where(mag > 0, mag, 1.0)), -745.0) + logscale
    ref = float(np.max(logm))
    scale = np.exp(logscale - ref)
    return f * scale, g * scale


def find_bound_state(potential: PotentialSpec, kappa: int, m: float,
                     grid: RadialGrid, E_bracket, target_nodes: int) -> BoundState:
    """Locate one bound state of the coupled radial Dirac equations.

    Parameters
    ----------
    potential : PotentialSpec
        Radial potentials (time-like v0 and v2, scalar v1).
    kappa : int
        Dirac angular quantum number of the state.
    m : float
        Particle mass.
    grid : RadialGrid
        Integration grid; r_max must lie well inside the forbidden region.
    E_bracket : (float, float)
        Energies bracketing exactly one sign change of the matching defect.
    target_nodes : int
        Required node count of f (n - l - 1 for Coulomb-like numbering);
        a mismatch raises WrongStateError so the caller can widen the scan.

    Returns
    -------
    BoundState with the energy searched to the rounding floor (a final
    bracket of about 4 ulp of E), f, g normalized to
    int (f^2 + g^2) r^2 dr = 1 and the maximum pointwise equation defect
    (finite-difference check) in ``residual``.
    """
    system = _DiracSystem(potential, kappa, m, grid)
    energy, f, g, nodes, residual = _shoot(system, E_bracket, target_nodes)
    return BoundState(energy=energy, kappa=kappa, grid=grid, f=f, g=g,
                      nodes_f=nodes, residual=residual)


def solve_schrodinger_radial(v: Callable, ell: int, m: float, grid: RadialGrid,
                             E_bracket, target_nodes: int,
                             coulomb_coeff: float = 0.0) -> ScalarBoundState:
    """Radial Schroedinger bound state via the same shoot-and-match kernel.

    ``v`` is the potential without the centrifugal term; energies include
    the rest mass, matching the relativistic solver's convention.
    ``coulomb_coeff`` declares a c/r component of v for the series start.
    """
    system = _SchrodingerSystem(v, ell, m, grid, coulomb_coeff)
    energy, u, du, nodes, residual = _shoot(system, E_bracket, target_nodes)
    return ScalarBoundState(energy=energy, ell=ell, grid=grid, u=u, du=du,
                            nodes=nodes, residual=residual)


def _diff_of_squares(a, b):
    """(a^2 - b^2, sqrt(max(a^2 - b^2, 0))) elementwise.

    Where a square leaves the float range (deep inside a steep wall) the
    difference is not finite and the root is taken in factored form,
    sqrt(|a| - |b|) sqrt(|a| + |b|).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = a * a - b * b
        root = np.sqrt(np.maximum(d2, 0.0))
        big = ~np.isfinite(d2)
        if np.any(big):
            a, b = np.abs(a[big]), np.abs(b[big])
            root[big] = np.sqrt(np.maximum(a - b, 0.0)) * np.sqrt(a + b)
    return d2, root


_TAIL_GROWTH = 1.005  # fine enough that even M ~ 1000 power-law walls are resolved
_TAIL_CHUNK = 256  # steps per vectorized chunk (a factor 3.6 in r)
# WKB suppression exp(-34) ~ 1.7e-15 at r_max: the rounding level of a
# wavefunction scaled to peak 1
_DECAY_TARGET = 34.0


def _tail_radius(rate: Callable, r_start: float) -> float:
    """First radius of the geometric walk r_start * 1.005^k at which the
    accumulated WKB exponent sum rate(r_mid) dr reaches ``_DECAY_TARGET``.

    ``rate`` maps interval midpoints (an array) to local decay rates; only
    positive rates accumulate.  The walk is taken in chunks; both running
    products and running sums are sequential accumulations, so the result
    is the same float a step-by-step loop gives.
    """
    r = float(r_start)
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"r_start must be finite and positive, got {r!r}")
    acc = 0.0
    growth = np.full(_TAIL_CHUNK, _TAIL_GROWTH)
    while acc < _DECAY_TARGET:
        radii = np.multiply.accumulate(np.concatenate(([r], growth)))
        w = np.asarray(rate(0.5 * (radii[:-1] + radii[1:])), dtype=float)
        steps = np.where(w > 0, w * (radii[1:] - radii[:-1]), 0.0)
        sums = np.add.accumulate(np.concatenate(([acc], steps)))[1:]
        stop = np.nonzero(~(sums < _DECAY_TARGET) | (radii[1:] > 1e9))[0]
        k = stop[0] if stop.size else _TAIL_CHUNK - 1
        r, acc = float(radii[k + 1]), float(sums[k])
        if r > 1e9:
            raise ConvergenceError(
                "could not find a classically forbidden tail below r = 1e9"
            )
    return r


def suggest_rmax(potential: PotentialSpec, kappa: int, E_guess: float,
                 m: float, r_start: float) -> float:
    """Extend r_max until the WKB tail suppression reaches exp(-34)."""
    def rate(r):
        return _diff_of_squares(m + np.asarray(potential.v1(r), dtype=float),
                                E_guess - np.asarray(potential.v0(r), dtype=float)
                                - np.asarray(potential.v2(r), dtype=float))[1]

    return _tail_radius(rate, r_start)


def suggest_rmax_schrodinger(v: Callable, E_guess: float, m: float,
                             r_start: float) -> float:
    """Schroedinger analogue of ``suggest_rmax`` (decay rate sqrt(2m(v - E~)))."""
    def rate(r):
        k2 = 2.0 * m * (np.asarray(v(r), dtype=float) - (E_guess - m))
        return np.sqrt(np.maximum(k2, 0.0))

    return _tail_radius(rate, r_start)


def coulomb_grid(lam: float, n: int, kappa: int, m: float = 1.0,
                 points: int = 20000) -> RadialGrid:
    """Log grid for the Coulomb level |n, kappa>: from 1e-6 Bohr radii to
    deep in the tail of the Sommerfeld energy's decay."""
    e_ref = dirac_coulomb_energy(n, kappa, lam, m)
    r_max = suggest_rmax(coulomb_potential(lam), kappa, e_ref, m,
                         r_start=4.0 * n * n / (lam * m))
    return RadialGrid(1e-6 / (lam * m), r_max, points)


def airy_grid(v: Callable, slope: float, e_top: float, m: float = 1.0,
              points: int = 20000) -> RadialGrid:
    """Log grid for the s-wave levels up to ``e_top`` of a linear slope
    (potential ``v``, the slope plus any core): from 1e-6 Airy lengths
    (2 m slope)^(-1/3) to deep in the tail of the ``e_top`` level, with the
    walk started at twice its classical turning radius."""
    r_char = (2.0 * m * slope) ** (-1.0 / 3.0)
    r_max = suggest_rmax_schrodinger(v, e_top, m,
                                     r_start=2.0 * (e_top - m) / slope)
    return RadialGrid(1e-6 * r_char, r_max, points)


@dataclass
class ShiftStudy:
    """Numerical first-order shift study over a geometric mu sequence."""

    n: int
    kappa: int
    kappa0: int
    lam: float
    mass: float
    mu_values: list
    energies: list
    base_energy: float
    slopes: list            # (E(mu) - E(0)) / mu
    richardson: float       # extrapolated slope, mu -> 0


def shift_convergence_study(n: int, kappa: int, kappa0: int, lam: float,
                            m: float, mu_sequence: Sequence[float],
                            points: int = 20000,
                            bracket_halfwidth: float | None = None) -> ShiftStudy:
    """Solve E(mu) for fine-tuned (mu, nu) pairs and extrapolate dE/dmu.

    The sequence must be geometric (constant ratio) so the Richardson step
    can cancel the O(mu) curvature of the slopes.  All solves reuse one
    grid, which cancels most of the discretization bias in the differences.
    """
    mu_values = [float(mu) for mu in mu_sequence]
    if len(mu_values) < 2:
        raise DomainError("need at least two mu values")
    ratios = [mu_values[i] / mu_values[i + 1] for i in range(len(mu_values) - 1)]
    if any(abs(q / ratios[0] - 1) > 1e-9 for q in ratios):
        raise DomainError("mu_sequence must be geometric")
    if any(mu <= 0 for mu in mu_values):
        raise DomainError("mu values must be positive (normalizable branch)")
    q = ratios[0]
    if q <= 1:
        mu_values = mu_values[::-1]
        q = 1.0 / q

    root = math.sqrt(1.0 - lam * lam / (kappa0 * kappa0))
    e_ref = dirac_coulomb_energy(n, kappa, lam, m)
    if bracket_halfwidth is None:
        # wide enough for every shifted level, narrower than the distance
        # to the neighboring unperturbed levels of the same kappa; the level
        # above is the nearer one, since E = m x / sqrt(x^2 + lam^2) with
        # x = n - |kappa| + sqrt(kappa^2 - lam^2) is concave in n
        scale = abs(mu_values[0] * lam) * (3.0 * n * n + abs(kappa) * (abs(kappa) + 1))
        gap = dirac_coulomb_energy(n + 1, kappa, lam, m) - e_ref
        bracket_halfwidth = min(max(20.0 * scale, 1e-9 * m), 0.25 * gap)
    target_nodes = radial_nodes(n, kappa)
    grid = coulomb_grid(lam, n, kappa, m, points)

    def solve_at(mu):
        if mu == 0.0:
            pot = coulomb_potential(lam)
        else:
            pot = coulomb_plus_linear(lam, mu, -mu * root)
        state = find_bound_state(pot, kappa, m, grid,
                                 (e_ref - bracket_halfwidth, e_ref + bracket_halfwidth),
                                 target_nodes)
        return state.energy

    base = solve_at(0.0)
    energies = [solve_at(mu) for mu in mu_values]
    slopes = [(e - base) / mu for e, mu in zip(energies, mu_values)]
    # slopes behave as c1 + c2 mu; with mu_{k+1} = mu_k / q the pairwise
    # extrapolation (q s_{k+1} - s_k)/(q - 1) removes the linear term
    rich = (q * slopes[-1] - slopes[-2]) / (q - 1.0)
    return ShiftStudy(n=n, kappa=kappa, kappa0=kappa0, lam=lam, mass=m,
                      mu_values=mu_values, energies=energies, base_energy=base,
                      slopes=slopes, richardson=rich)
