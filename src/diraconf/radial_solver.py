"""Bound states of the coupled radial Dirac equations by shooting.

The equations integrated here, for a Hamiltonian with a time-like potential
V0, a scalar (beta-coupled) potential V1 and a second time-like potential V2,
and a bispinor with upper radial part f and lower radial part g, are

    f'(r) + (kappa+1)/r f = (E + m + V1 - V0 - V2) g
    -g'(r) + (kappa-1)/r g = (E - m - V1 - V0 - V2) f

so the time-like pieces always enter as E - V0 - V2 and the scalar piece
shifts the mass, m + V1.  One match point serves a whole solve: the outer
turning point of the bracket's midpoint.  Each trial energy is swept outward
from a power-series start at r_min to the match point and inward from a
WKB-seeded tail at r_max to it, both from one build of the coefficient
tables.  Newton steps from the bracket's midpoint drive the mismatch of g/f
there to the rounding floor, each by Cooley's energy corrector, whose
derivative is the sweeps' own norms (the energy derivative of the
Wronskian); once a step leaves the narrowing bracket or is more than half
the step before last, bisection on the sign of the matching defect stands
in for every step that fails (rtsafe).  The state is the final energy's pair
glued at that same node, with no further sweep.  A fourth-order Runge-Kutta
kernel steps in t = ln r, on a logarithmic ``RadialGrid`` that resolves the
power-law start at the origin from the first step.  The kernel and the
systems' residuals (``_dirac_fd_residual``, ``_schrodinger_fd_residual``)
run as compiled C when ``diraconf._kernels`` builds a module that
reproduces them bit for bit, and as the Python loop and numpy otherwise.
The potential tables are sampled once per system and must be finite there
(``DomainError`` otherwise), so the kernel's own non-finite check only
guards the sweep itself.

Work is split by how often it is needed.  Per system (one
``_DiracSystem``/``_SchrodingerSystem``): every potential table in one
guarded sampling pass (``_sampled``), the constant kernel tables and -r,
the potentials at the nodes, r^2 for the density, the centrifugal term of
the match point, and the seeds' inputs as plain floats.  Per energy
(``_sweep_pair``): the off-diagonal tables, written into two buffers the
system reuses (no sweep keeps them), the two seeds in plain-float
arithmetic, two kernel calls that meet at the match point, into new output
arrays (N - 1 RK4 steps in all), and the matching defect.  Per solve: the
match point, the glue, the norm and the node count, each in as few array
passes as keep the per-element order of operations, and the residual in
one compiled call.

A radial Schroedinger solver built on the same machinery handles the
nonrelativistic confining problems (single component u(r), with
-u''/2m + [v + l(l+1)/(2 m r^2)] u = (E - m) u).  Each equation system
(``_DiracSystem``, ``_SchrodingerSystem``) supplies only its coefficient
tables, seeds, norm density, the norm's sum and slope constant of the
energy corrector, and equation residual; one pipeline
(``_shoot``) searches, merges, normalizes, fixes the sign, checks the node
count and measures the residual for both.  One tail walk
(``_tail_radius``) places r_max for both from their WKB decay rates, and
ends ``ansatz.residual_grid``; ``coulomb_grid`` and ``airy_grid`` build the
grids of the Coulomb levels and of the linear-slope ladders, and next to
them live the two closed-form bracket rules: ``coulomb_bracket`` (a quarter
of the gap to the next level around the Sommerfeld energy, also the shift
study's) and ``airy_ladder`` (0.45 of the Airy level spacing, every level of
a ladder solved on one system).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from ._kernels import (dirac_fd_residual, rk4_linear2x2,
                       schrodinger_fd_residual)
from .coulomb import dirac_coulomb_energy
from .errors import BracketError, ConvergenceError, DomainError, WrongStateError
from .fw_effective import antiparticle_spectrum_airy
from .quantum_numbers import radial_nodes

__all__ = [
    "RadialGrid",
    "PotentialSpec",
    "BoundState",
    "ScalarBoundState",
    "ShiftStudy",
    "coulomb_potential",
    "coulomb_plus_linear",
    "dirac_residual",
    "find_bound_state",
    "solve_schrodinger_radial",
    "shift_convergence_study",
    "suggest_rmax",
    "suggest_rmax_schrodinger",
    "coulomb_grid",
    "coulomb_bracket",
    "airy_grid",
    "airy_ladder",
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
        if not 0 < self.r_min < self.r_max < math.inf:
            raise DomainError(f"need 0 < r_min < r_max < inf, got "
                              f"[{self.r_min}, {self.r_max}]")
        if self.count < 16:
            raise DomainError(f"count must be >= 16, got {self.count}")

    @cached_property
    def t(self) -> np.ndarray:
        """Integration variable ln r at the nodes."""
        return np.linspace(math.log(self.r_min), math.log(self.r_max), self.count)

    @cached_property
    def r(self) -> np.ndarray:
        # exp(t) bit for bit: point 2k of r_all's linspace is 2k times half
        # t's step (halving is exact) plus the start, as is t[k]
        return self.r_all[::2].copy()

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
        y = values * self.r
        # numpy's trapezoid(y, t), with the grid's own steps for diff(t)
        return float((self.steps * (y[1:] + y[:-1]) / 2.0).sum())


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


def dirac_residual(f, df, g, dg, r, E, kappa, m, v0, v1, v2) -> float:
    """Relative defect of the two coupled radial equations (see
    ``_fd_residual``) for (f, g) and their derivatives sampled on radii r.

    The potentials v0, v1, v2 are sampled on the same radii.  The derivative
    arrays must come from an independent route (analytic differentiation or
    finite differences), not from the equations themselves.
    """
    i = _INTERIOR
    # (kappa +- 1)/r overflows to inf on extreme grids: a non-finite residual
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        kf = (kappa + 1.0) / r[i]
        kg = (kappa - 1.0) / r[i]
    return _fd_residual(
        _dirac_sums(f[i], df[i], g[i], dg[i], kf, kg, E + m + v1[i] - v0[i] - v2[i],
                    E - m - v1[i] - v0[i] - v2[i]),
        np.maximum(np.abs(f), np.abs(g)))


def _dirac_sums(f, df, g, dg, kf, kg, p, q):
    """(sum of terms, sum of |terms|) of each radial equation

        df + (kappa+1)/r f - p g = 0,   -dg + (kappa-1)/r g - q f = 0

    with kf = (kappa+1)/r, kg = (kappa-1)/r, p = E + m + v1 - v0 - v2 and
    q = E - m - v1 - v0 - v2.
    """
    return [_balance(df, kf * f, p * g), _balance(-dg, kg * g, q * f)]


def _balance(lead, t, u):
    """((lead + t) - u, (|lead| + |t|) + |u|) for new arrays t and u, which
    it overwrites: the sum of an equation's terms lead, t and -u and of
    their magnitudes, with two new arrays (a large solve touches fewer
    fresh pages).  Subtracting u gives the same bits as adding -u."""
    total = lead + t
    total -= u
    size = np.abs(lead)
    size += np.abs(t, out=t)
    size += np.abs(u, out=u)
    return total, size


def _sampled(r: np.ndarray, tables) -> list:
    """The (name, sample) ``tables``, sampled over the radii ``r`` in one
    pass, as finite float arrays of r's shape.

    ``sample(done)`` returns one table from the list ``done`` of the tables
    before it.  All are evaluated under one ``np.errstate`` with
    floating-point overflow, division by zero and invalid operations
    raising, so no NaN or inf reaches the kernel (whose non-finite check
    would otherwise be the only guard) and no warning is printed.  A table
    that raised is sampled again with the errors ignored, and kept if every
    value is finite (an ``np.where`` that masks an invalid branch computes
    it everywhere).  A non-finite table raises DomainError naming it and
    its first bad radius, with the floating-point error if there was one.
    """
    done = []
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for name, sample in tables:
            try:
                values = np.asarray(sample(done), dtype=float)
                detail = ""
            except FloatingPointError as exc:
                # sample again without raising to find where it fails
                with np.errstate(over="ignore", divide="ignore",
                                 invalid="ignore"):
                    values = np.asarray(sample(done), dtype=float)
                detail = f" ({exc})"
            if values.shape != r.shape:
                values = np.broadcast_to(values, r.shape)
            if not np.isfinite(values).all():
                i = int(np.argmax(~np.isfinite(values)))
                raise DomainError(
                    f"{name} is not finite at r={float(r[i])!r}{detail}")
            done.append(values)
    return done


class _DiracSystem:
    """Coefficient tables for one (potential, kappa, m, grid).

    Everything that does not depend on the trial energy is built here, once
    per system: the potential tables, the constant diagonal of the kernel's
    matrix and -r_all, the potentials at the nodes, (kappa +- 1)/r and r^2,
    and the seeds' inputs as plain floats.  Per energy, ``coefficients``
    fills two reused buffers and the seeds are plain-float arithmetic.
    """

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
        rn = grid.r
        v0, v1, v2, self.p_tilde, self.q_tilde = _sampled(ra, [
            ("v0", lambda t: potential.v0(ra)),
            ("v1", lambda t: potential.v1(ra)),
            ("v2", lambda t: potential.v2(ra)),
            ("m + v1 - v0 - v2", lambda t: m + t[1] - t[0] - t[2]),
            ("-m - v1 - v0 - v2", lambda t: -m - t[1] - t[0] - t[2]),
        ])
        # in t = ln r the equations are r times their r-form: constant
        # diagonal, off-diagonal entries scaled by r
        self.a11 = np.full_like(ra, -(kappa + 1.0))
        self.a22 = np.full_like(ra, kappa - 1.0)
        self._minus_r_all = -ra
        # off-diagonal tables of the last energy built; no sweep keeps them
        self._a12 = np.empty_like(ra)
        self._a21 = np.empty_like(ra)
        self._v0, self._v1, self._v2 = (v[::2].copy() for v in (v0, v1, v2))
        # tables of the density and match point; on extreme grids they
        # overflow to inf, which ends in a non-finite residual or sweep
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            mass = m + self._v1
            self._mass2 = mass * mass
            self._centrifugal = kappa * (kappa + 1.0) / rn**2
            self._r2 = rn**2
            self.norm_root = rn * np.sqrt(rn)
        self._r0 = float(rn[0])
        self._h = float(grid.steps[0])
        self._v_start = float(v0[0] + v1[0] + v2[0])
        self._p_start = float(v1[0] - v0[0] - v2[0])
        self._v0_end = float(v0[-1])
        self._v2_end = float(v2[-1])
        self._mass_end = float(m + v1[-1])
        self._p_end = float(self.p_tilde[-1])
        self._kf_end = (kappa + 1.0) / float(rn[-1])

    def coefficients(self, E: float):
        a12 = np.add(self.p_tilde, E, out=self._a12)
        np.multiply(self.grid.r_all, a12, out=a12)
        a21 = np.add(self.q_tilde, E, out=self._a21)
        np.multiply(self._minus_r_all, a21, out=a21)
        return self.a11, a12, a21, self.a22

    def outward_seed(self, E: float):
        kappa, m, r0 = self.kappa, self.m, self._r0
        lam = self.potential.coulomb_strength
        if lam != 0.0:
            s = math.sqrt(kappa * kappa - lam * lam)
            cf = r0 ** (s - 1.0)
            cg = (s + kappa) / lam * cf
            # first-order series correction in r keeps the seed defect
            # below the integrator's own truncation error
            ep, em = E + m, E - m
            # det is -(1 + 2 s) <= -1, as s^2 = kappa^2 - lam^2: never 0
            det = (s + kappa + 1.0) * (kappa - 1.0 - s) - lam * lam
            cf1 = ((kappa - 1.0 - s) * ep * cg + lam * em * cf) / det
            cg1 = (lam * ep * cg + (s + kappa + 1.0) * em * cf) / det
            return cf + cf1 * r0, cg + cg1 * r0
        q0 = E - m - self._v_start
        p0 = E + m + self._p_start
        if kappa < 0:
            cf = r0 ** (-kappa - 1.0)
            return cf, q0 * cf * r0 / (2.0 * kappa - 1.0)
        cg = r0 ** (kappa - 1.0)
        return p0 * cg * r0 / (2.0 * kappa + 1.0), cg

    def inward_seed(self, E: float):
        a = E - self._v0_end - self._v2_end
        b = self._mass_end
        try:
            w = math.sqrt(max(b ** 2 - a ** 2, 1e-30))
        except OverflowError:
            # a square leaves the float range: the root in factored form,
            # as in _diff_of_squares
            a, b = abs(a), abs(b)
            w = math.sqrt(b - a) * math.sqrt(b + a) if b > a else 1e-15
        f0 = 1.0
        g0 = (-w + self._kf_end) * f0 / (E + self._p_end)
        return f0, g0

    def allowed_region(self, E: float) -> np.ndarray:
        # (E - v0 - v2)^2 - (m + v1)^2 - centrifugal, in one new array; deep
        # in a steep wall a square overflows to inf, and inf - inf is NaN,
        # which is not allowed
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = E - self._v0
            d2 -= self._v2
            d2 *= d2
            d2 -= self._mass2
            d2 -= self._centrifugal
        return d2

    def density(self, f, g):
        return (f * f + g * g) * self._r2

    def norm_sum(self, f, g, root) -> float:
        """Trapezoid sum of (f^2 + g^2) r^3, the norm's integrand in
        t = ln r, on nodes where ``root`` is r^(3/2) (``norm_root``) times
        any common scale of f and g."""
        return _trapezoid_of_square(f * root) + _trapezoid_of_square(g * root)

    def slope_constant(self, i: int) -> float:
        """-d(g/f)/dE of a sweep at node i is this times N / f^2, N the
        sweep's norm, by the Wronskian identity
        d/dr [r^2 (f1 g2 - g1 f2)] = (E1 - E2) r^2 (f1 f2 + g1 g2)."""
        return 1.0 / self._r2.item(i)

    def residual(self, E: float, f, g) -> float:
        """Relative defect of the two radial equations, derivatives by
        finite differences (``_dirac_fd_residual``)."""
        return dirac_fd_residual(f, g, self.grid.r, self._v0, self._v1,
                                 self._v2, E, self.m, self.kappa, self._h)


class _SchrodingerSystem:
    """Same machinery for the single-component radial equation, with the
    same split between what is built per system and per energy."""

    def __init__(self, v: Callable, ell: int, m: float, grid: RadialGrid,
                 coulomb_coeff: float = 0.0):
        if ell < 0:
            raise DomainError("ell must be >= 0")
        self.ell = ell
        self.m = m
        self.grid = grid
        self.coulomb_coeff = coulomb_coeff
        ra = grid.r_all
        rn = grid.r
        v_all, self.v_eff = _sampled(ra, [
            ("v", lambda t: v(ra)),
            ("v + l(l+1)/(2 m r^2)",
             lambda t: t[0] + ell * (ell + 1.0) / (2.0 * m * ra**2)),
        ])
        # the kernel only reads its tables: one zero table serves as both
        # diagonals, and a12 is the radii themselves
        self._zero = np.zeros_like(ra)
        # a21 of the last energy built; no sweep keeps it
        self._a21 = np.empty_like(ra)
        self._v = v_all[::2].copy()
        self._v_eff = self.v_eff[::2].copy()
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            self._r_2m = ra * 2.0 * m
            self._centrifugal = ell * (ell + 1.0) / rn**2
        self._r0 = float(rn[0])
        self._h = float(grid.steps[0])
        self._v_eff_end = float(self.v_eff[-1])
        self.norm_root = np.sqrt(rn)

    def coefficients(self, E: float):
        a21 = np.subtract(self.v_eff, E - self.m, out=self._a21)
        np.multiply(self._r_2m, a21, out=a21)
        return self._zero, self.grid.r_all, a21, self._zero

    def outward_seed(self, E: float):
        r0 = self._r0
        ell = self.ell
        beta = self.m * self.coulomb_coeff / (ell + 1.0)
        u = r0 ** (ell + 1.0) * (1.0 + beta * r0)
        du = (ell + 1.0) * r0**ell + (ell + 2.0) * beta * r0 ** (ell + 1.0)
        return u, du

    def inward_seed(self, E: float):
        k2 = 2.0 * self.m * (self._v_eff_end - (E - self.m))
        k = math.sqrt(max(k2, 1e-30))
        return 1.0, -k

    def allowed_region(self, E: float) -> np.ndarray:
        return 2.0 * self.m * (E - self.m - self._v) - self._centrifugal

    def density(self, u, du):
        return u * u

    def norm_sum(self, u, du, root) -> float:
        """Trapezoid sum of u^2 r, the norm's integrand in t = ln r, on
        nodes where ``root`` is r^(1/2) (``norm_root``) times any scale of
        u."""
        return _trapezoid_of_square(u * root)

    def slope_constant(self, i: int) -> float:
        """-d(u'/u)/dE of a sweep is this times N / u^2, N the sweep's norm,
        by the Wronskian identity
        d/dr (u1 u2' - u1' u2) = 2m (E1 - E2) u1 u2."""
        return 2.0 * self.m

    def residual(self, E: float, u, du) -> float:
        """Relative defect of -u''/2m + (v_eff - (E-m)) u = 0, u'' by
        finite differences of du (``_schrodinger_fd_residual``)."""
        return schrodinger_fd_residual(u, du, self.grid.r, self._v_eff, E,
                                       self.m, self._h)


def _propagate(system, E: float, tables, reverse: bool, stop: int):
    """(y1, y2, logscale) of one sweep over ``system.coefficients(E)``,
    from the grid's end to node ``stop``; the three arrays are new, of the
    grid's length, and unset beyond ``stop``."""
    n = system.grid.count
    y1 = np.empty(n)
    y2 = np.empty(n)
    logscale = np.empty(n)
    try:
        seed = system.inward_seed(E) if reverse else system.outward_seed(E)
    except (OverflowError, ZeroDivisionError):
        # plain floats raise where numpy scalars gave inf or NaN; the kernel
        # reports a non-finite start like any other non-finite value
        seed = (math.nan, math.nan)
    status = rk4_linear2x2(
        system.grid.steps, *tables,
        float(seed[0]), float(seed[1]), reverse,
        y1, y2, logscale, stop,
    )
    if status != 0:
        raise ConvergenceError(
            f"integration produced non-finite values at E={E!r}"
        )
    return y1, y2, logscale


def _match_index(system, E: float) -> int:
    """Outer classical turning point: the last node where ``allowed_region``
    is positive, or else the node where it is largest."""
    allowed = system.allowed_region(E)
    inside = np.flatnonzero(allowed > 0)
    idx = int(inside[-1]) if inside.size else int(np.argmax(allowed))
    return min(max(idx, 8), system.grid.count - 9)


def _matching_defect(pair, i: int) -> float:
    """Wronskian-style defect of a sweep pair at node i, in [-1, 1].

    Vanishes exactly at eigenvalues and, unlike a log-derivative mismatch,
    has no poles when a node of the outward sweep crosses the matching
    radius as E varies across the bracket.  Each sweep is first scaled by
    an exact power of two, so the cross products cannot overflow.
    """
    (f_out, g_out, _), (f_in, g_in, _) = pair
    fo, go, fi, gi = f_out.item(i), g_out.item(i), f_in.item(i), g_in.item(i)
    k_out = math.frexp(max(abs(fo), abs(go)))[1]
    k_in = math.frexp(max(abs(fi), abs(gi)))[1]
    a = math.ldexp(go, -k_out) * math.ldexp(fi, -k_in)
    b = math.ldexp(gi, -k_in) * math.ldexp(fo, -k_out)
    return (a - b) / (abs(a) + abs(b) + 1e-300)


def _log_peak(y1, y2, logscale) -> float:
    """Natural log of the peak of max(|y1|, |y2|) along a sweep."""
    mag = np.maximum(np.abs(y1), np.abs(y2))
    return float((np.log(np.where(mag > 0, mag, 1e-320)) + logscale).max())


def _merge_and_scale(pair, i_match: int):
    """The sweep pair glued at node i_match, where the matching condition
    was solved, peak ~ 1; ConvergenceError if either sweep is 0 there."""
    (f_out, g_out, so), (f_in, g_in, si) = pair
    fo, fi = f_out.item(i_match), f_in.item(i_match)
    if fo == 0.0 or fi == 0.0:
        raise ConvergenceError(
            f"a sweep is zero at the match point (node {i_match})")
    n = f_out.size
    k = i_match + 1
    ref = _log_peak(f_out[:k], g_out[:k], so[:k])
    f = np.empty(n)
    g = np.empty(n)
    scale = np.exp(so[:k] - ref)
    np.multiply(f_out[:k], scale, out=f[:k])
    np.multiply(g_out[:k], scale, out=g[:k])
    glue_log = (math.log(abs(fo)) + so.item(i_match) - ref
                - math.log(abs(fi)) - si.item(i_match))
    sign_c = math.copysign(1.0, fo) * math.copysign(1.0, fi)
    scale = np.minimum(si[i_match:] + glue_log, 100.0)
    np.exp(scale, out=scale)
    scale *= sign_c
    np.multiply(f_in[i_match:], scale, out=f[i_match:])
    np.multiply(g_in[i_match:], scale, out=g[i_match:])
    return f, g


def _count_nodes(values: np.ndarray, live: np.ndarray) -> int:
    """Sign changes of ``values`` among the ``live`` samples."""
    values = values[live]
    if values.size < 2:
        return 0
    return int(np.count_nonzero(values[1:] * values[:-1] < 0))


# the nodes where a five-point difference and the residual are taken
_INTERIOR = slice(2, -2)


def _fd_dr(r: np.ndarray, h: float, values: np.ndarray) -> np.ndarray:
    """d/dr by fourth-order central differences in t = ln r (node spacing
    h) at the ``_INTERIOR`` nodes of the radii r, 0 at the four end nodes."""
    return np.pad((values[:-4] - 8 * values[1:-3] + 8 * values[3:-1]
                   - values[4:]) / (12.0 * h) / r[_INTERIOR], 2)


def _fd_residual(equations, scale: np.ndarray) -> float:
    """Equation defect of a sampled solution, relative to the local
    magnitude of the terms being balanced: the maximum over live interior
    nodes of |sum of terms| / sum of |terms|, over all equations, each
    given as its (sum of terms, sum of |terms|) at the ``_INTERIOR`` nodes.

    A node is live where ``scale`` (the solution's magnitude at every node)
    is above 1e-8 of its peak; the two nodes at each end are never used.
    Every residual the package reports is this one, so it is dimensionless,
    at most 1, and inf when no node is live.
    """
    live = scale[_INTERIOR] > 1e-8 * float(scale.max())
    if not live.any():
        return math.inf
    rel = [np.abs(total[live]) / (size[live] + 1e-300)
           for total, size in equations]
    return float(np.max(rel))


# The shooting systems' residuals, from the nodes r (spacing h in ln r) and
# the potentials at the nodes.  These are the references of the compiled
# entries of ``_rk4.c``: they use only +, -, *, /, abs, comparisons and max,
# and ``_kernels`` selects the compiled module only if it gives the same
# float on a pinned self-check.

def _dirac_fd_residual(f, g, r, v0, v1, v2, E, m, kappa, h) -> float:
    """``dirac_residual`` with derivatives by finite differences."""
    return dirac_residual(f, _fd_dr(r, h, f), g, _fd_dr(r, h, g), r, E,
                          kappa, m, v0, v1, v2)


def _schrodinger_fd_residual(u, du, r, v_eff, E, m, h) -> float:
    """``_fd_residual`` of -u''/2m + (v_eff - (E-m)) u = 0."""
    t1 = _fd_dr(r, h, du)[_INTERIOR] / (2.0 * m)
    t2 = (v_eff[_INTERIOR] - (E - m)) * u[_INTERIOR]
    return _fd_residual([(t2 - t1, np.abs(t1) + np.abs(t2))], np.abs(u))


_EPS = sys.float_info.epsilon
# the Newton steps take about 3-6 evaluations per solve, and a search that
# falls back to bisection at most the two bracket ends and ~60 halvings
# from a wide bracket to the rounding floor; every sweep pair counts
_MAX_DEFECT_EVALS = 300


def _sweep_pair(system, E: float, i_match: int):
    """The outward and inward sweeps at E from one coefficient build, the
    solver's unit of work per energy: (matching defect at i_match, pair).

    The outward sweep stops at node i_match and the inward one starts
    there, N - 1 RK4 steps in all.  The pair is (outward, inward).
    """
    tables = system.coefficients(E)
    pair = (_propagate(system, E, tables, False, i_match),
            _propagate(system, E, tables, True, i_match))
    d = _matching_defect(pair, i_match)
    if not math.isfinite(d):
        raise ConvergenceError(f"non-finite matching defect {d!r} at E={E!r}")
    return d, pair


def _trapezoid_of_square(a) -> float:
    """Trapezoid sum (unit step) of a^2."""
    first, last = a.item(0), a.item(-1)
    return float(np.dot(a, a)) - 0.5 * (first * first + last * last)


def _energy_step(system, pair, i: int) -> float:
    """Cooley's energy corrector -D/D' of a sweep pair at node i, where D
    is y2/y1 of the outward sweep minus y2/y1 of the inward one; NaN or
    inf where it does not exist.

    D' = -c (N_out / y1_out^2 + N_in / y1_in^2), with c the system's
    ``slope_constant`` and each N the trapezoid sum in t of the norm's
    integrand (``norm_sum``) over the sweep's own nodes: the energy
    derivative of the Wronskian, from the sweeps alone.  Each sweep is
    scaled by the exact power of two of ``_matching_defect``, and by its
    logscale relative to node i (at most 1, as a sweep only scales down),
    so its squares cannot overflow at the match point.
    """
    terms = []
    with np.errstate(over="ignore", invalid="ignore"):
        for (y1, y2, logscale), nodes in zip(pair, (slice(i + 1),
                                                    slice(i, None))):
            k = -math.frexp(max(abs(y1.item(i)), abs(y2.item(i))))[1]
            root = np.ldexp(system.norm_root[nodes], k)
            ls = logscale[nodes]
            if ls.item(0) != ls.item(-1):  # rescaled along the sweep
                root *= np.exp(ls - logscale.item(i))
            norm = system._h * system.norm_sum(y1[nodes], y2[nodes], root)
            terms.append((math.ldexp(y1.item(i), k),
                          math.ldexp(y2.item(i), k), norm))
    (fo, go, no), (fi, gi, ni) = terms
    if fo == 0.0 or fi == 0.0:
        return math.nan
    slope = system.slope_constant(i) * (no / fo / fo + ni / fi / fi)
    if not (math.isfinite(slope) and slope > 0.0):
        return math.nan
    return (go / fo - gi / fi) / slope


def _bracket_ends(system, lo: float, hi: float, i_match: int):
    """The defects and sweep pairs (fa, pa, fb, pb) of the bracket's ends;
    BracketError if the defect does not change sign between them."""
    fa, pa = _sweep_pair(system, lo, i_match)
    fb, pb = _sweep_pair(system, hi, i_match)
    if fa * fb > 0:
        raise BracketError(
            f"matching defect does not change sign on [{lo}, {hi}] "
            f"(defects {fa:.3e}, {fb:.3e})"
        )
    return fa, pa, fb, pb


def _solve_eigenvalue(system, E_bracket):
    """(root, its sweep pair, match node) of the matching defect, taken at
    the match point of the bracket's midpoint, by Newton steps safeguarded
    by bisection (rtsafe: Press et al., Numerical Recipes, 9.4).

    Each step is Cooley's corrector (``_energy_step``), from the midpoint
    on, and must land strictly inside the bracket and be at most half the
    step before last.  The search stops at the first energy whose corrector
    is at most eps |E|, and returns it with its pair: at the rounding floor
    the corrector itself is off by a few ulp, so a stop at 2 eps |E| could
    land 6 ulp from the root.  Until a step fails,
    the bracket narrows to the side each step points to.  The first failed
    step, or a corrector that is not finite, sweeps the caller's two ends
    (``_bracket_ends``) once and goes back to the caller's bracket, which
    from then on narrows by the sign of the matching defect: the gap whose
    step the corrector is has a pole wherever a node of the outward sweep
    crosses the match point, and past it a step can point the wrong way,
    while the defect has none.  Then a step that fails is replaced by a
    bisection, and a bracket of adjacent floats or of half-width at most
    2 eps |E| ends the search at its end with the smaller defect.  Every
    sweep pair counts against ``_MAX_DEFECT_EVALS`` (ConvergenceError past
    it, with the next trial energy as ``partial``).
    """
    lo, hi = sorted(float(e) for e in E_bracket)
    a, b = lo, hi
    E = 0.5 * (lo + hi)
    i_match = _match_index(system, E)
    fa = pa = fb = pb = None  # defects and pairs at a and b, once swept
    last = before = math.inf
    evals = 0
    while evals < _MAX_DEFECT_EVALS:
        evals += 1
        d, pair = _sweep_pair(system, E, i_match)
        step = 0.0 if d == 0.0 else _energy_step(system, pair, i_match)
        if abs(step) <= _EPS * abs(E):
            return E, pair, i_match
        if fa is None:
            if step > 0:
                a = E
            else:
                b = E
            if not (a < E + step < b and abs(step) <= 0.5 * before):
                if evals + 2 > _MAX_DEFECT_EVALS:
                    break
                evals += 2
                fa, pa, fb, pb = _bracket_ends(system, lo, hi, i_match)
                if fa == 0.0:
                    return lo, pa, i_match
                if fb == 0.0:
                    return hi, pb, i_match
                a, b = lo, hi
        if fa is not None:
            if d * fa > 0:
                a, fa, pa = E, d, pair
            else:
                b, fb, pb = E, d, pair
            if (b - a <= 4.0 * _EPS * max(abs(a), abs(b))
                    or math.nextafter(a, b) == b):
                if abs(fa) < abs(fb):
                    return a, pa, i_match
                return b, pb, i_match
            if not (a < E + step < b and abs(step) <= 0.5 * before):
                E, step = a, 0.5 * (b - a)
        E, before, last = E + step, last, abs(step)
    raise ConvergenceError(
        f"eigenvalue search did not converge in {_MAX_DEFECT_EVALS} steps; "
        f"bracket [{a!r}, {b!r}]", partial=E)


def _shoot(system, E_bracket, target_nodes: int):
    """One bound state of ``system``: (energy, y1, y2, nodes, residual).

    The two components come out normalized to the system's density, with
    y1 > 0 as it rises from the origin; a node count of y1 other than
    ``target_nodes`` raises WrongStateError.
    """
    energy, pair, i_match = _solve_eigenvalue(system, E_bracket)
    y1, y2 = _merge_and_scale(pair, i_match)
    norm = math.sqrt(system.grid.integrate(system.density(y1, y2)))
    y1 /= norm
    y2 /= norm
    mag = np.abs(y1)
    peak = float(mag.max())
    if y1[np.argmax(mag > 1e-3 * peak)] < 0:
        np.negative(y1, out=y1)
        np.negative(y2, out=y2)
    # sign changes among the samples above 1e-10 of the peak magnitude
    nodes = _count_nodes(y1, mag > 1e-10 * peak)
    if nodes != target_nodes:
        # a root the Newton steps found may lie in a bracket with no sign
        # change: that is the caller's bracket error
        _bracket_ends(system, *sorted(float(e) for e in E_bracket), i_match)
        raise WrongStateError(
            f"found a state with {nodes} nodes, wanted {target_nodes} "
            f"(E = {energy!r}); widen or shift the bracket",
            found_nodes=nodes, target_nodes=target_nodes,
        )
    residual = system.residual(energy, y1, y2)
    return energy, y1, y2, nodes, residual


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
    BoundState with the energy searched to the rounding floor (until the
    energy corrector is at most eps |E|, or to a bisected bracket of about
    4 ulp of E once a step fails its safeguard), f, g normalized to
    int (f^2 + g^2) r^2 dr = 1 and, in ``residual``, the relative equation
    defect of ``_fd_residual`` (derivatives by finite differences): a
    smoothness check that the sampled state solves the equations, not an
    error bar on the energy.  It need not shrink as the grid is refined:
    the differences divide rounding by the step.
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

    ``residual`` is the smoothness check of ``find_bound_state``, not an
    error bar on the energy, and it grows as the grid is refined: at the
    innermost live nodes the finite difference of a nearly constant ``du``
    cancels, an error of order rounding/h.  With mu = 0.1 (the CLI's
    ``antiparticle-linear`` family) it rises from 1.6e-3 to 1.7e-2 for
    N = 1000 -> 8000 while the ground energy closes in on the Airy value,
    from 3.7e-10 to 9e-14 away.
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
    positive rates accumulate; past min(1e9 r_start, 1e300) it gives up
    (ConvergenceError).  The walk is taken in chunks; both running products
    and running sums are sequential accumulations, so the result is the
    same float a step-by-step loop gives.
    """
    r = float(r_start)
    if not (math.isfinite(r) and r > 0):
        raise DomainError(f"r_start must be finite and positive, got {r!r}")
    r_limit = min(1e9 * r, 1e300)
    acc = 0.0
    growth = np.full(_TAIL_CHUNK, _TAIL_GROWTH)
    while acc < _DECAY_TARGET:
        with np.errstate(over="ignore"):  # an inf radius is past the limit
            radii = np.multiply.accumulate(np.concatenate(([r], growth)))
        w = np.asarray(rate(0.5 * (radii[:-1] + radii[1:])), dtype=float)
        with np.errstate(over="ignore"):  # an inf step reaches the target
            steps = np.where(w > 0, w * (radii[1:] - radii[:-1]), 0.0)
        sums = np.add.accumulate(np.concatenate(([acc], steps)))[1:]
        stop = np.nonzero(~(sums < _DECAY_TARGET) | (radii[1:] > r_limit))[0]
        k = stop[0] if stop.size else _TAIL_CHUNK - 1
        r, acc = float(radii[k + 1]), float(sums[k])
        if r > r_limit:
            raise ConvergenceError("could not find a classically forbidden "
                                   f"tail below r = {r_limit:.3g}")
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
    """Log grid for the Coulomb level |n, kappa> of a lam > 0: from 1e-6
    Bohr radii to deep in the tail of the Sommerfeld energy's decay."""
    if not lam > 0:
        raise DomainError(f"lam must be positive, got {lam!r}")
    e_ref = dirac_coulomb_energy(n, kappa, lam, m)
    r_max = suggest_rmax(coulomb_potential(lam), kappa, e_ref, m,
                         r_start=4.0 * n * n / (lam * m))
    return RadialGrid(1e-6 / (lam * m), r_max, points)


def coulomb_bracket(n: int, kappa: int, lam: float, m: float):
    """Energy bracket of the Coulomb level |n, kappa>: its Sommerfeld
    energy plus or minus a quarter of the nonrelativistic gap
    lam^2 m (1/n^2 - 1/(n+1)^2)/2 to the next level of the same kappa,
    with no floor: at small lam a fixed floor would reach past m into the
    continuum.  It serves the bare level and the preserved one, which
    keeps the Sommerfeld energy under fine-tuned confinement."""
    e_ref = dirac_coulomb_energy(n, kappa, lam, m)
    gap = lam * lam * m * (1.0 / (n * n) - 1.0 / ((n + 1) * (n + 1))) / 2.0
    half = 0.25 * gap
    return e_ref - half, e_ref + half


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


def airy_ladder(mu: float, m: float, states: int, core: float, points: int):
    """The lowest ``states`` s-wave levels of the slope 2 mu r plus a
    repulsive core ``core``/r (none when ``core`` is 0): (refs, grid,
    levels).

    ``refs`` are the ``states + 1`` Airy-ladder energies of the bare slope
    (``antiparticle_spectrum_airy``), ``grid`` is the ``airy_grid`` of the
    top level, and ``levels`` holds a ``ScalarBoundState`` per level, all
    solved on one ``_SchrodingerSystem``.  Level k is bracketed from 0.45
    of the spacing to the level below (the rest mass below the ground) to
    0.45 of the spacing to the level above, and the top is lifted by
    shift_room = 2 core / r_char (r_char the Airy length) to make room for
    the core's upward shift.  That lift is a stopgap that grows without
    limit in ``core``: ``solve --family antiparticle-linear --mu 0.5
    --lambda 1e6 --states 1 --points 500`` exits 0 with residual 1.0, and
    ``--lambda 10`` raises BracketError although the state exists.
    Brackets from node counts (Sturm oscillation, as in SLEDGE) are to
    replace it.
    """
    if states < 1:
        raise DomainError(f"states must be >= 1, got {states!r}")
    slope = 2.0 * mu

    def v(r):
        r = np.asarray(r, dtype=float)
        base = slope * r
        return base + core / r if core else base

    refs = antiparticle_spectrum_airy(mu, m, count=states + 1)
    grid = airy_grid(v, slope, refs[states - 1], m, points)
    r_char = (2.0 * m * slope) ** (-1.0 / 3.0)
    shift_room = 2.0 * core / r_char if core else 0.0
    system = _SchrodingerSystem(v, 0, m, grid, core)
    levels = []
    for k in range(states):
        below = refs[k - 1] if k else m
        bracket = (refs[k] - 0.45 * (refs[k] - below),
                   refs[k] + 0.45 * (refs[k + 1] - refs[k]) + shift_room)
        energy, u, du, nodes, residual = _shoot(system, bracket, k)
        levels.append(ScalarBoundState(energy=energy, ell=0, grid=grid, u=u,
                                       du=du, nodes=nodes, residual=residual))
    return refs, grid, levels


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
    grid, which cancels most of the discretization bias in the differences,
    and one bracket, ``coulomb_bracket`` unless ``bracket_halfwidth`` is set.
    """
    if kappa0 == 0 or not abs(lam) < abs(kappa0):
        raise DomainError(f"need kappa0 != 0 and |lam| < |kappa0|, got "
                          f"lam={lam!r}, kappa0={kappa0!r}")
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
    if bracket_halfwidth is None:
        bracket = coulomb_bracket(n, kappa, lam, m)
    else:
        e_ref = dirac_coulomb_energy(n, kappa, lam, m)
        bracket = (e_ref - bracket_halfwidth, e_ref + bracket_halfwidth)
    target_nodes = radial_nodes(n, kappa)
    grid = coulomb_grid(lam, n, kappa, m, points)

    def solve_at(mu):
        if mu == 0.0:
            pot = coulomb_potential(lam)
        else:
            pot = coulomb_plus_linear(lam, mu, -mu * root)
        state = find_bound_state(pot, kappa, m, grid, bracket, target_nodes)
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
