"""Closed-form preserved eigenstate of the Coulomb-plus-linear Dirac problem.

For negative kappa0 and couplings (lam, mu) the bispinor with radial parts

    f(r) = N r^(b-1) exp(-a r) exp(-alpha2 r^2 / 2),    g(r) = -gamma f(r)

is an exact eigenstate of H = alpha.p + beta m - lam/r + beta mu r + nu r,
provided the time-like slope is fine-tuned to nu = -mu sqrt(1 - lam^2/kappa0^2).
Its energy is the Dirac-Coulomb value of the nodeless n = -kappa0 level,
E = m sqrt(1 - lam^2/kappa0^2): the confining potentials leave that one
eigenvalue untouched.

Parameter values (general kappa0 < 0):

    b      = sqrt(kappa0^2 - lam^2)
    a      = m lam / |kappa0|
    alpha2 = mu lam / |kappa0|       (so mu > 0 is required for decay)
    gamma  = (|kappa0| - b)/lam = lam/(|kappa0| + b)
           = a/(m + E) = (m - E)/a
           = alpha2/(mu - nu) = (mu + nu)/alpha2

All six gamma expressions must coincide; ``AnsatzParams.gamma_deviations``
reports their spread and the test suite pins it at the 1e-12 level.

``AnsatzParams`` is the one model of this closed form, with one evaluator
(``f``, ``g`` and ``log_derivative``).  Its mu = nu = 0 member, alpha2 = 0
and N = 1, is the nodeless Dirac-Coulomb state
(``dirac_coulomb_ground_state``) that the e^h rescaling of ``rescale``
starts from; ``build_ansatz`` is that record with alpha2, N, mu and nu set,
so b, a, gamma and E are the Coulomb ones bit for bit.  Gamma is the stable
form lam/(|kappa0| + b): (|kappa0| - b)/lam cancels as lam -> 0.  Note
the exponent is sqrt(kappa0^2 - lam^2), not sqrt(1 - lam^2/kappa0^2): only
the former satisfies the full set of relations once |kappa0| > 1 (the two
agree for kappa0 = -1).

``residual_grid`` spans 1e-4/s to the e^-34 point of the solver's tail
walk, in the state's own length 1/s (``AnsatzParams.inverse_length``).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .radial_solver import RadialGrid, _tail_radius, dirac_residual
from .special_functions import kummer_U

__all__ = [
    "AnsatzParams",
    "dirac_coulomb_ground_state",
    "nu_fine_tuned",
    "build_ansatz",
    "evaluate_spinor",
    "radial_residual",
    "residual_grid",
]


def _check_couplings(lam: float, kappa0: int):
    if kappa0 >= 0:
        raise DomainError(f"kappa0 must be a negative integer, got {kappa0}")
    if not abs(lam) < abs(kappa0):
        raise DomainError(f"need |lam| < |kappa0|, got lam={lam}, kappa0={kappa0}")


def nu_fine_tuned(mu: float, lam: float, kappa0: int) -> float:
    """Time-like slope that cancels the scalar slope's effect on the
    reference level: nu = -mu sqrt(1 - lam^2/kappa0^2)."""
    _check_couplings(lam, kappa0)
    return -mu * math.sqrt(1.0 - lam * lam / (kappa0 * kappa0))


@dataclass(frozen=True)
class AnsatzParams:
    """The closed-form nodeless state f = N r^(b-1) e^(-a r - alpha2 r^2/2),
    g = -gamma f (immutable): ``build_ansatz``'s, or at mu = nu = 0
    (alpha2 = 0, N = 1) ``dirac_coulomb_ground_state``'s.

    mass      particle mass, finite and m > 0
    lam       dimensionless Coulomb coupling (the -lam/r term)
    mu        scalar (beta-coupled) linear confinement coefficient, energy^2
    nu        time-like linear confinement coefficient, energy^2
    """

    mass: float
    lam: float
    mu: float
    nu: float
    kappa0: int
    b: float
    a: float
    alpha2: float
    gamma: float
    energy: float
    norm: float

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise DomainError(
                f"mass must be finite and positive, got {self.mass}")

    @property
    def inverse_length(self) -> float:
        """s = max(a, sqrt(alpha2)): the larger of the decay rate a and the
        inverse Gaussian width; the density lies at s r ~ 1."""
        return max(self.a, math.sqrt(self.alpha2))

    def f(self, r):
        """Upper radial component at r (scalar or array)."""
        r = np.asarray(r, dtype=float)
        return (self.norm * r ** (self.b - 1.0)
                * np.exp(-self.a * r - 0.5 * self.alpha2 * r * r))

    def g(self, r):
        """Lower radial component, -gamma f."""
        return -self.gamma * self.f(r)

    def log_derivative(self, r):
        """d ln f/dr = d ln g/dr = (b - 1)/r - a - alpha2 r."""
        return (self.b - 1.0) / r - self.a - self.alpha2 * r

    def gamma_candidates(self) -> tuple[float, ...]:
        """The six independent expressions that must all equal gamma; for
        ``build_ansatz`` records only (at mu = 0 two are 0/0 and raise)."""
        m, e = self.mass, self.energy
        ak = abs(self.kappa0)
        return (
            self.a / (m + e),
            (ak - self.b) / self.lam,
            self.alpha2 / (self.mu - self.nu),
            (m - e) / self.a,
            self.lam / (ak + self.b),
            (self.mu + self.nu) / self.alpha2,
        )

    def gamma_deviations(self) -> tuple[float, ...]:
        return tuple(abs(cand / self.gamma - 1.0) for cand in self.gamma_candidates())


def dirac_coulomb_ground_state(lam: float, kappa0: int,
                               m: float = 1.0) -> AnsatzParams:
    """The nodeless n = -kappa0 eigenstate of the pure Coulomb problem: the
    closed form at mu = nu = 0, so alpha2 = 0, unnormalized (N = 1)."""
    if kappa0 >= 0:
        raise DomainError(f"kappa0 must be negative, got {kappa0}")
    if not 0 < lam < abs(kappa0):
        raise DomainError(f"need 0 < lam < |kappa0|, got lam={lam}")
    b = math.sqrt(kappa0 * kappa0 - lam * lam)
    return AnsatzParams(
        mass=m, lam=lam, mu=0.0, nu=0.0, kappa0=kappa0, b=b,
        a=m * lam / abs(kappa0), alpha2=0.0, gamma=lam / (abs(kappa0) + b),
        energy=m * math.sqrt(1.0 - lam * lam / (kappa0 * kappa0)), norm=1.0)


def build_ansatz(lam: float, mu: float, kappa0: int, m: float = 1.0) -> AnsatzParams:
    """Construct the preserved eigenstate for couplings (lam, mu) and kappa0 < 0.

    Requires mu > 0: the Gaussian width is alpha2 = mu lam/|kappa0|, and only
    a positive scalar slope gives a decaying (normalizable) profile.  The
    fine-tuned nu is computed internally; the state is
    ``dirac_coulomb_ground_state(lam, kappa0, m)`` with alpha2, the norm N,
    mu and nu set.  A norm factor alpha2^(-1-b) outside the normal float
    range raises ArithmeticError before kummer_U is called.
    """
    if not math.isfinite(mu):
        raise DomainError(f"mu must be finite, got {mu}")
    ground = dirac_coulomb_ground_state(lam, kappa0, m)
    alpha2 = mu * lam / abs(kappa0)
    if not alpha2 > 0:
        raise DomainError(
            f"alpha2 = mu*lam/|kappa0| = {alpha2} must be positive for a "
            "normalizable state; use mu > 0"
        )
    nu = nu_fine_tuned(mu, lam, kappa0)
    b, a, gamma = ground.b, ground.a, ground.gamma
    try:
        width_factor = alpha2 ** (-1.0 - b)
    except OverflowError:
        width_factor = math.inf
    if not sys.float_info.min <= width_factor < math.inf:
        raise ArithmeticError(
            f"closed-form norm leaves the float range: alpha2^(-1-b) = "
            f"{width_factor!r} at mu={mu}, lam={lam}, kappa0={kappa0}")
    norm = (
        2.0 ** (-2.0 * b)
        * a
        * b
        * (1.0 + gamma * gamma)
        * width_factor
        * math.gamma(2.0 * b)
        * kummer_U(1.0 + b, 1.5, a * a / alpha2)
    ) ** (-0.5)
    return replace(ground, mu=mu, nu=nu, alpha2=alpha2, norm=norm)


def evaluate_spinor(params: AnsatzParams, r):
    """Radial components (f, g) at r > 0 (scalar or array)."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise DomainError("r must be positive (f ~ r^(b-1) can be singular at 0)")
    f = params.f(r)
    return f, -params.gamma * f


def radial_residual(params: AnsatzParams, grid) -> float:
    """Relative defect of the two radial equations over the grid
    (``dirac_residual``), all-analytic.

    Derivatives come from differentiating the closed form, so the result is
    limited only by rounding; detuning nu by even a fraction of a percent
    lifts it by many orders of magnitude.
    """
    r = grid.r if isinstance(grid, RadialGrid) else np.asarray(grid, dtype=float)
    f, g = evaluate_spinor(params, r)
    logderiv = params.log_derivative(r)
    return dirac_residual(f, f * logderiv, g, g * logderiv, r, params.energy,
                          params.kappa0, params.mass, -params.lam / r,
                          params.mu * r, params.nu * r)


def residual_grid(params: AnsatzParams) -> np.ndarray:
    """2001 geometric radii for ``radial_residual``, from 1e-4/s (inside
    the power-law region) to where f has decayed by e^-34: the solver's
    tail walk (``_tail_radius``) in x = s r from x = 1, on the decay rate
    -d ln f/dx = (a + alpha2 x/s)/s - (b - 1)/x."""
    s = params.inverse_length
    a, alpha2, b = params.a, params.alpha2, params.b

    def rate(x):
        return (a + alpha2 * x / s) / s - (b - 1.0) / x

    return np.geomspace(1e-4 / s, _tail_radius(rate, 1.0) / s, 2001)
