"""Self-contained special functions: Kummer U, quadrature, Airy zeros.

Everything here but the gamma function (the standard library's
``math.gamma``) and the Airy zeros (standard constants) is implemented from
scratch on purpose, so that the closed-form normalization constant and the
linear-potential spectrum can be checked against a code path that shares
nothing with the numerical solvers:

* ``kummer_U``          Laplace integral representation, evaluated with the
                        adaptive quadrature below; its integrand is one
                        array expression per panel.
* ``integrate_adaptive``  globally adaptive Gauss-Legendre 7/15 pair;
                        semi-infinite ranges are mapped through u/(1-u).
                        The integrand takes arrays: ``f`` maps a float64
                        array of nodes to an array (or list) of values of
                        the same length, and is called once per panel, on
                        the 7 + 15 = 22 nodes of the pair.
* ``airy_negative_zeros``  the first 20 zeros of Ai, a table of the
                        correctly rounded constants (DLMF Table 9.9.1).

Only positive real arguments are supported; that is all the package needs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadratureResult",
    "kummer_U",
    "integrate_adaptive",
    "airy_negative_zeros",
]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@functools.cache
def _gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1].

    Built on first use, so a program that never integrates does not import
    numpy.polynomial (about 0.9 MB of resident memory).
    """
    return np.polynomial.legendre.leggauss(n)


@functools.cache
def _gauss_legendre_7_15():
    """The 22 nodes of the GL7 and GL15 rules, GL7 first, and both weights."""
    (t7, w7), (t15, w15) = _gauss_legendre(7), _gauss_legendre(15)
    return np.concatenate((t7, t15)), w7, w15


def _panel(f, a: float, b: float):
    """GL15 value with |GL15 - GL7| as the error estimate on [a, b], and
    the 22 nodes with the integrand's values there.

    ``f`` sees all 22 nodes in one call.  Each rule is summed with ``sum``
    over the numpy product array, whose items are numpy scalars: one plain
    double addition per node in node order, as a scalar loop did.  A numpy
    reduction sums pairwise, and ``sum`` over exact Python floats (a
    ``tolist()``) is compensated from Python 3.12; both round differently.
    """
    t, w7, w15 = _gauss_legendre_7_15()
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * t
    y = np.asarray(f(x), dtype=float)
    if y.shape != t.shape:
        raise TypeError(
            f"integrand must map {t.size} nodes to {t.size} values, "
            f"got shape {y.shape}"
        )
    i7 = half * sum(w7 * y[:7])
    i15 = half * sum(w15 * y[7:])
    return i15, abs(i15 - i7), x, y


def _unsampled_mass(edge) -> float:
    """Mass of the mapped integrand past the largest float below u = 1,
    which no node samples ((1 + x)^-1.5 loses 2.2e-8 there): from the
    (nodes, values) of every panel that ended at u = 1, the power law
    |y| = C (1 - u)^-p (p >= 0) through the two largest nodes u_m < u_n < 1,
    integrated from u_m to 1, and inf for p >= 1.  It is 0 where the
    integrand has underflowed there, as in ``kummer_U`` and the ansatz norm.
    """
    u = np.concatenate([nodes for nodes, _ in edge])
    y = np.abs(np.concatenate([values for _, values in edge]))
    u_n = u[u < 1.0].max(initial=0.0)
    u_m = u[u < u_n].max(initial=0.0)
    if u_m == 0.0:
        return 0.0
    y_n, y_m = float(y[u == u_n][0]), float(y[u == u_m][0])
    if y_n == 0.0 or y_m == 0.0:
        return y_m * (1.0 - u_m) if y_n == 0.0 else math.inf
    p = max(math.log(y_n / y_m) / math.log((1.0 - u_m) / (1.0 - u_n)), 0.0)
    return y_m * (1.0 - u_m) / (1.0 - p) if p < 1.0 else math.inf


# the panel count at which integrate_adaptive gives up
_MAX_INTERVALS = 4000


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> QuadratureResult:
    """Adaptive quadrature of ``f`` on (lo, hi), lo finite and hi > lo;
    ``hi`` may be math.inf (DomainError for any other range).

    ``f`` maps a float64 array of nodes to the array of its values.
    Splits the interval with the largest local error estimate until the
    summed estimate drops below ``tol`` (absolute, with a relative floor);
    ConvergenceError, with the partial result, after ``_MAX_INTERVALS``.
    The integrand is never evaluated at the endpoints, so integrable
    endpoint singularities are allowed.  On (lo, inf) the reported error
    estimate also carries the mass no node can sample (``_unsampled_mass``);
    the stopping test does not.
    """
    if not (math.isfinite(lo) and hi > lo):
        raise DomainError(f"need finite lo and hi > lo, got [{lo}, {hi}]")
    mapped = hi == math.inf
    if mapped:
        g = f

        def f(u, _g=g, _lo=lo):
            w = 1.0 - u
            # a node that rounded onto u = 1 is x = inf, where the mapped
            # integrand is 0; it is evaluated at the finite lo + u instead
            at_inf = w == 0.0
            w = np.where(at_inf, 1.0, w)
            y = np.asarray(_g(_lo + u / w), dtype=float) / (w * w)
            return np.where(at_inf, 0.0, y)

        lo, hi = 0.0, 1.0

    val, err, x, y = _panel(f, lo, hi)
    n_eval = x.size
    intervals = [(err, lo, hi, val)]
    edge = [(x, y)]  # the panels that end at hi
    while True:
        total = sum(iv[3] for iv in intervals)
        total_err = sum(iv[0] for iv in intervals)
        if total_err <= max(tol, 1e-15 * abs(total)):
            break
        if len(intervals) >= _MAX_INTERVALS:
            raise ConvergenceError(
                f"quadrature did not converge: error estimate {total_err:.3e} "
                f"after {len(intervals)} intervals",
                partial=QuadratureResult(total, total_err, n_eval),
            )
        worst = max(range(len(intervals)), key=lambda i: intervals[i][0])
        _, a, b, _ = intervals.pop(worst)
        mid = 0.5 * (a + b)
        left = _panel(f, a, mid)
        right = _panel(f, mid, b)
        n_eval += left[2].size + right[2].size
        intervals.append((left[1], a, mid, left[0]))
        intervals.append((right[1], mid, b, right[0]))
        if b == hi:
            edge.append(right[2:])
    if mapped:
        total_err += _unsampled_mass(edge)
    return QuadratureResult(total, total_err, n_eval)


def kummer_U(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric U(a, b, z) for a > 0, z > 0.

    Uses the Laplace integral
        U(a, b, z) = 1/Gamma(a) * int_0^inf e^{-z t} t^{a-1} (1+t)^{b-a-1} dt,
    rescaled by t = s/z so the integrand decays as e^{-s} at any z: the
    very large z of weakly confining couplings and the very small z of a
    light mass alike.  For z >= 1 the factor (1 + s/z)^{b-a-1} is taken
    as it stands; for z < 1 it is written z^{a+1-b} (z + s)^{b-a-1}, so
    the integrand stays O(1) as z -> 0 and the prefactor is
    z^{1-b}/Gamma(a).
    """
    if not (a > 0 and z > 0):
        raise DomainError(f"kummer_U requires a > 0 and z > 0, got a={a}, z={z}")
    c = b - a - 1.0
    if z >= 1.0:
        def integrand(s):
            return np.exp(-s + (a - 1.0) * np.log(s) + c * np.log1p(s / z))

        scale = z ** (-a)
    else:
        def integrand(s):
            return np.exp(-s + (a - 1.0) * np.log(s) + c * np.log(z + s))

        scale = z ** (1.0 - b)
    res = integrate_adaptive(integrand, 0.0, math.inf, tol=1e-13)
    return scale / math.gamma(a) * res.value


# -- Airy zeros ----------------------------------------------------------------

# a_1 .. a_20, the negative zeros of Ai (DLMF 9.9, Table 9.9.1), each the
# double nearest the true zero (float(mpmath.airyaizero(k)) at 40 digits)
_AIRY_ZEROS = (
    -2.338107410459767, -4.08794944413097, -5.520559828095551,
    -6.786708090071759, -7.944133587120853, -9.02265085334098,
    -10.040174341558085, -11.008524303733262, -11.936015563236262,
    -12.828776752865757, -13.691489035210719, -14.527829951775335,
    -15.340755135977997, -16.132685156945772, -16.90563399742994,
    -17.66130010569706, -18.401132599207116, -19.126380474246954,
    -19.8381298917215, -20.537332907677566,
)


def airy_negative_zeros(k: int) -> list[float]:
    """First ``k`` zeros of Ai on the negative axis (as negative numbers),
    1 <= k <= 20; every call returns a new list."""
    if not 1 <= k <= 20:
        raise DomainError(f"k must be in [1, 20], got {k}")
    return list(_AIRY_ZEROS[:k])
