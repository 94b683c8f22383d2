"""Self-contained special functions: Kummer U, quadrature, Airy zeros.

Everything here but the gamma function (the standard library's
``math.gamma``) is implemented from scratch on purpose, so that the
closed-form normalization constant and the linear-potential spectrum can be
checked against a code path that shares nothing with the numerical solvers:

* ``kummer_U``          Laplace integral representation, evaluated with the
                        adaptive quadrature below; its integrand is one
                        array expression per panel.
* ``integrate_adaptive``  globally adaptive Gauss-Legendre 7/15 pair;
                        semi-infinite ranges are mapped through u/(1-u).
                        The integrand takes arrays: ``f`` maps a float64
                        array of nodes to an array (or list) of values of
                        the same length, and is called once per panel, on
                        the 7 + 15 = 22 nodes of the pair.
* ``airy_negative_zeros``  bisection on an independent Ai evaluation
                        (Maclaurin series for |x| <= 8, the standard
                        negative-axis asymptotic expansion beyond).

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
    "airy_ai",
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


def _panel(f, a: float, b: float) -> tuple[float, float, int]:
    """GL15 value with |GL15 - GL7| as the error estimate on [a, b].

    ``f`` sees all 22 nodes in one call.  Each rule is summed with ``sum``
    over the numpy product array, whose items are numpy scalars: one plain
    double addition per node in node order, as a scalar loop did.  A numpy
    reduction sums pairwise, and ``sum`` over exact Python floats (a
    ``tolist()``) is compensated from Python 3.12; both round differently.
    """
    t, w7, w15 = _gauss_legendre_7_15()
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    y = np.asarray(f(mid + half * t), dtype=float)
    if y.shape != t.shape:
        raise TypeError(
            f"integrand must map {t.size} nodes to {t.size} values, "
            f"got shape {y.shape}"
        )
    i7 = half * sum(w7 * y[:7])
    i15 = half * sum(w15 * y[7:])
    return i15, abs(i15 - i7), t.size


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
    endpoint singularities are allowed.
    """
    if not (math.isfinite(lo) and hi > lo):
        raise DomainError(f"need finite lo and hi > lo, got [{lo}, {hi}]")
    if hi == math.inf:
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

    val, err, n_eval = _panel(f, lo, hi)
    intervals = [(err, lo, hi, val)]
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
        n_eval += left[2] + right[2]
        intervals.append((left[1], a, mid, left[0]))
        intervals.append((right[1], mid, b, right[0]))
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


# -- Airy function on the negative real axis ---------------------------------

_AI0 = 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)      # Ai(0)
_AIP0 = -(3.0 ** (-1.0 / 3.0)) / math.gamma(1.0 / 3.0)  # Ai'(0)


def _airy_series(x: float) -> float:
    # Ai = Ai(0) f(x) + Ai'(0) g(x) with f'' = x f series pair
    x3 = x * x * x
    tf = 1.0
    tg = x
    f = tf
    g = tg
    for k in range(0, 60):
        tf *= x3 / ((3 * k + 2) * (3 * k + 3))
        tg *= x3 / ((3 * k + 3) * (3 * k + 4))
        f += tf
        g += tg
        if abs(tf) < 1e-18 * abs(f) and abs(tg) < 1e-18 * max(abs(g), 1e-30):
            break
    return _AI0 * f + _AIP0 * g


def _airy_asymptotic_neg(x: float) -> float:
    # DLMF 9.7.9 oscillatory expansion, truncated at the smallest term
    t = -x
    zeta = 2.0 / 3.0 * t ** 1.5
    u = 1.0
    terms = [u]
    for k in range(1, 16):
        u *= (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216.0 * k)
        terms.append(u)
    p = 0.0
    q = 0.0
    sign = 1.0
    prev = math.inf
    for k in range(0, 8):
        tk = terms[2 * k] / zeta ** (2 * k)
        if abs(tk) > prev:  # expansion started diverging
            break
        p += sign * tk
        q += sign * terms[2 * k + 1] / zeta ** (2 * k + 1)
        sign = -sign
        prev = abs(tk)
    phase = zeta - 0.25 * math.pi
    return (math.cos(phase) * p + math.sin(phase) * q) / (
        math.sqrt(math.pi) * t ** 0.25
    )


def airy_ai(x: float) -> float:
    """Ai(x) for x <= 0 (series core, asymptotic tail)."""
    if x > 0:
        raise DomainError("airy_ai is implemented for x <= 0 only")
    if x >= -8.0:
        return _airy_series(x)
    return _airy_asymptotic_neg(x)


def airy_negative_zeros(k: int) -> list[float]:
    """First ``k`` zeros of Ai on the negative axis (as negative numbers).

    Each zero is computed once per process; every call returns a new list.
    """
    if not 1 <= k <= 20:
        raise DomainError(f"k must be in [1, 20], got {k}")
    return [_airy_zero(n) for n in range(1, k + 1)]


@functools.cache
def _airy_zero(n: int) -> float:
    """The n-th negative zero of Ai: bisection from the asymptotic estimate."""
    t = 3.0 * math.pi * (4 * n - 1) / 8.0
    guess = -(t ** (2.0 / 3.0)) * (1.0 + 5.0 / (48.0 * t * t))
    lo, hi = guess - 0.2, guess + 0.2
    flo, fhi = airy_ai(lo), airy_ai(hi)
    width = 0.2
    while flo * fhi > 0:
        width *= 1.5
        lo, hi = guess - width, guess + width
        flo, fhi = airy_ai(lo), airy_ai(hi)
        if width > 2.0:
            raise ConvergenceError(f"could not bracket Airy zero #{n}")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = airy_ai(mid)
        if flo * fm <= 0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)
