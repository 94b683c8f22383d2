import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.special import ai_zeros, hyperu

from diraconf import cli, special_functions
from diraconf.ansatz import build_ansatz, evaluate_spinor
from diraconf.errors import DomainError
from diraconf.special_functions import (
    QuadratureResult,
    airy_ai,
    airy_negative_zeros,
    integrate_adaptive,
    kummer_U,
)


def _kummer_m_series(a, b, z, terms=400):
    total = 1.0
    term = 1.0
    for k in range(terms):
        term *= (a + k) * z / ((b + k) * (k + 1))
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def _kummer_u_connection(a, b, z):
    # U from the two regular solutions; valid for non-integer b
    ga = math.gamma(a)
    g1ab = math.gamma(1.0 + a - b)
    gb = math.gamma(b)
    g2b = math.gamma(2.0 - b)
    m1 = _kummer_m_series(a, b, z)
    m2 = _kummer_m_series(a - b + 1.0, 2.0 - b, z)
    return math.pi / math.sin(math.pi * b) * (
        m1 / (g1ab * gb) - z ** (1.0 - b) * m2 / (ga * g2b)
    )


class TestKummerU:
    @pytest.mark.parametrize("z", [0.5, 1.0, 2.0])
    def test_identity_u_a_aplus1(self, z):
        # U(a, a+1, z) = z^-a, here with a = 1
        assert kummer_U(1.0, 2.0, z) == pytest.approx(1.0 / z, rel=1e-12)

    def test_large_z_asymptotics(self):
        a, b, z = 1.5, 1.5, 1e4
        assert kummer_U(a, b, z) * z**a == pytest.approx(1.0, rel=0.01)

    def test_series_connection_oracle(self):
        a, b, z = 1.8660254, 1.5, 4.0
        assert kummer_U(a, b, z) == pytest.approx(
            _kummer_u_connection(a, b, z), rel=1e-8
        )

    def test_against_scipy(self):
        for a, b, z in [(1.8660254, 1.5, 4.0), (2.9365, 1.5, 300.0),
                        (1.99, 1.5, 5000.0), (0.7, 1.5, 2.0)]:
            assert kummer_U(a, b, z) == pytest.approx(
                float(hyperu(a, b, z)), rel=1e-10
            )

    @pytest.mark.parametrize("b", [1.5, 2.0, 2.3, 3.7])
    @pytest.mark.parametrize("z", [1e-12, 5e-9, 1e-6, 1e-3, 0.04, 0.5, 0.999])
    def test_small_z_against_mpmath(self, b, z):
        # z = a^2/alpha2 falls below 1e-8 for a light mass; the Laplace
        # integral in s = z t converges there as fast as at large z
        for a in (0.5, 1.0, 1.8660254037844386, 2.75, 4.0):
            with mpmath.workdps(30):
                ref = float(mpmath.hyperu(a, b, z))
            assert kummer_U(a, b, z) == pytest.approx(ref, rel=1e-12)

    def test_identity_grid(self):
        for a in (0.5, 1.3, 2.7):
            for z in (0.8, 3.0, 40.0):
                assert kummer_U(a, a + 1.0, z) * z**a == pytest.approx(
                    1.0, rel=1e-10
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            kummer_U(-1.0, 1.5, 2.0)
        with pytest.raises(DomainError):
            kummer_U(1.0, 1.5, 0.0)


class TestQuadrature:
    def test_exponential(self):
        res = integrate_adaptive(lambda t: np.exp(-t), 0.0, math.inf)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.evaluations > 0
        assert res.abs_error_estimate >= 0

    def test_gaussian_moment(self):
        res = integrate_adaptive(lambda t: t * t * np.exp(-t * t), 0.0, math.inf)
        assert res.value == pytest.approx(math.sqrt(math.pi) / 4.0, abs=1e-12)

    def test_endpoint_singularity(self):
        res = integrate_adaptive(lambda r: r**-0.5, 0.0, 1.0, tol=1e-10)
        assert res.value == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_slow_tail_reaches_the_mapped_endpoint(self):
        # the mapped integrand (1 - u)^-0.3 is refined until quadrature
        # nodes round onto u = 1, the image of x = inf, where it is 0
        res = integrate_adaptive(lambda x: (1.0 + x) ** -1.7, 0.0, math.inf)
        assert res.value == pytest.approx(1.0 / 0.7, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            integrate_adaptive(lambda t: t, 1.0, 0.5)

    @pytest.mark.parametrize("lo,hi", [
        (0.0, -math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
        (math.inf, math.inf), (math.nan, 1.0), (0.0, math.nan),
    ])
    def test_range_is_finite_lo_below_hi(self, lo, hi):
        # only hi = +inf is mapped: hi = -inf must not be mapped as +inf
        # (1.0 for exp(-x) on (0, -inf)), nor lo = -inf run NaN panels
        # until ConvergenceError; no bad range reaches the integrand
        def never(t):
            raise AssertionError(f"integrand evaluated at {t!r}")

        with pytest.raises(DomainError, match="need finite lo and hi > lo"):
            integrate_adaptive(never, lo, hi)

    def test_nodes_built_on_first_use(self):
        # a program that only shoots never imports numpy.polynomial
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import sys, diraconf.cli; "
                "from diraconf.radial_solver import *; "
                "find_bound_state(coulomb_potential(0.5), -1, 1.0, "
                "coulomb_grid(0.5, 1, -1, points=200), (0.85, 0.88), 0); "
                "print('numpy.polynomial' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_nonconvergence_carries_partial_result(self, monkeypatch):
        from diraconf.errors import ConvergenceError
        from diraconf.special_functions import QuadratureResult
        monkeypatch.setattr(special_functions, "_MAX_INTERVALS", 6)
        with pytest.raises(ConvergenceError) as err:
            integrate_adaptive(lambda t: np.sin(4e4 * t), 0.0, 1.0,
                               tol=1e-14)
        assert isinstance(err.value.partial, QuadratureResult)
        assert err.value.partial.evaluations > 0


def _scalar_quadrature(f, lo, hi, tol=1e-12, max_intervals=4000):
    """Reference: the adaptive GL7/GL15 quadrature with one call of a
    scalar ``f`` per node, as the package evaluated it before integrands
    took arrays.  The array form must reproduce it bit for bit."""
    if math.isinf(hi):
        g = f

        def f(u, _g=g, _lo=lo):
            w = 1.0 - u
            if w == 0.0:
                return 0.0
            return _g(_lo + u / w) / (w * w)

        lo, hi = 0.0, 1.0
    (t7, w7), (t15, w15) = (np.polynomial.legendre.leggauss(7),
                            np.polynomial.legendre.leggauss(15))

    def panel(a, b):
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        x7 = mid + half * t7
        x15 = mid + half * t15
        i7 = half * sum(w * f(x) for x, w in zip(x7, w7))
        i15 = half * sum(w * f(x) for x, w in zip(x15, w15))
        return i15, abs(i15 - i7), 22

    val, err, n_eval = panel(lo, hi)
    intervals = [(err, lo, hi, val)]
    while True:
        total = sum(iv[3] for iv in intervals)
        total_err = sum(iv[0] for iv in intervals)
        if total_err <= max(tol, 1e-15 * abs(total)):
            break
        assert len(intervals) < max_intervals
        worst = max(range(len(intervals)), key=lambda i: intervals[i][0])
        _, a, b, _ = intervals.pop(worst)
        mid = 0.5 * (a + b)
        left = panel(a, mid)
        right = panel(mid, b)
        n_eval += left[2] + right[2]
        intervals.append((left[1], a, mid, left[0]))
        intervals.append((right[1], mid, b, right[0]))
    return QuadratureResult(total, total_err, n_eval)


def _bits(res):
    return (float(res.value).hex(), float(res.abs_error_estimate).hex(),
            res.evaluations)


def _kummer_integrand(a, b, z):
    """The array integrand ``kummer_U`` integrates for these arguments."""
    c = b - a - 1.0
    if z >= 1.0:
        return lambda s: np.exp(-s + (a - 1.0) * np.log(s)
                                + c * np.log1p(s / z))
    return lambda s: np.exp(-s + (a - 1.0) * np.log(s) + c * np.log(z + s))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestArrayIntegrandBits:
    """One integrand call per panel gives the bits of one call per node."""

    @pytest.mark.parametrize("lam, mu, kappa0, m", [
        (0.5, 1e-4, -1, 1.0), (0.1, 1e-6, -1, 1.0), (0.3, 1e-4, -2, 1.0),
        (0.9, 3e-4, -3, 1.0), (0.5, 1e-4, -1, 1e6), (0.37, 3e-4, -2, 2.0),
    ])
    def test_cli_norm_integrand(self, lam, mu, kappa0, m):
        p = build_ansatz(lam, mu, kappa0, m)

        def scalar(x):
            r = x / m
            f, g = evaluate_spinor(p, r)
            return float((f * f + g * g) * r * r / m)

        res = integrate_adaptive(cli._norm_integrand(p), 0.0, math.inf,
                                 tol=1e-11)
        assert _bits(res) == _bits(_scalar_quadrature(scalar, 0.0, math.inf,
                                                      tol=1e-11))
        if m == 1.0:
            # the same bits as the integrand in r, before the x = m r map
            def in_r(r):
                f, g = evaluate_spinor(p, r)
                return float((f * f + g * g) * r * r)

            assert _bits(res) == _bits(_scalar_quadrature(in_r, 0.0, math.inf,
                                                          tol=1e-11))

    @pytest.mark.parametrize("a, b, z", [
        (1.8660254037844386, 1.5, 2500.0), (2.9365, 1.5, 300.0),
        (1.0, 2.0, 1.0), (0.7, 1.5, 0.5), (1.8660254037844386, 1.5, 0.04),
    ])
    def test_kummer_integrands(self, monkeypatch, a, b, z):
        results = []

        def recording(*args, **kwargs):
            results.append(integrate_adaptive(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(special_functions, "integrate_adaptive", recording)
        u = kummer_U(a, b, z)
        calls = []
        integrand = _kummer_integrand(a, b, z)

        def counted(s):
            calls.append(s.shape)
            return integrand(s)

        ref = integrate_adaptive(counted, 0.0, math.inf, tol=1e-13)
        assert [_bits(res) for res in results] == [_bits(ref)]
        assert set(calls) == {(22,)}
        assert 22 * len(calls) == ref.evaluations
        scale = z ** (-a) if z >= 1.0 else z ** (1.0 - b)
        assert u.hex() == float(scale / math.gamma(a) * ref.value).hex()

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (0.5, 3.0)])
    def test_one_call_of_22_nodes_per_panel(self, lo, hi):
        # a slow tail: refinement reaches nodes that round onto u = 1
        calls = []

        def f(x):
            calls.append((x.shape, x.dtype))
            return (1.0 + x) ** -1.7

        res = integrate_adaptive(f, lo, hi)
        # power of a 0-d array, so that both sides take numpy's array loop
        # (numpy-scalar power calls libm, which rounds differently)
        ref = _scalar_quadrature(
            lambda x: float(np.asarray(1.0 + x) ** -1.7), lo, hi)
        assert _bits(res) == _bits(ref)
        assert set(calls) == {((22,), np.dtype(np.float64))}
        assert 22 * len(calls) == res.evaluations

    def test_scalar_integrand_is_rejected(self):
        with pytest.raises(TypeError):
            integrate_adaptive(lambda x: 1.0, 0.0, 1.0)
        with pytest.raises(TypeError):
            integrate_adaptive(lambda x: math.exp(-x), 0.0, 1.0)


class TestAiry:
    def test_zeros_cached_but_returned_fresh(self, monkeypatch):
        first = airy_negative_zeros(3)
        expected = list(first)
        first[0] = 0.0
        first.append(1.0)

        def no_bisection(x):
            raise AssertionError("a cached zero was computed again")

        monkeypatch.setattr(special_functions, "airy_ai", no_bisection)
        again = airy_negative_zeros(3)
        assert again == expected
        assert again is not airy_negative_zeros(3)

    def test_first_zeros_frozen(self):
        zeros = airy_negative_zeros(3)
        assert zeros[0] == pytest.approx(-2.3381074105, abs=1e-9)
        assert zeros[1] == pytest.approx(-4.0879494441, abs=1e-9)
        assert zeros[2] == pytest.approx(-5.5205598281, abs=1e-9)

    def test_zeros_against_scipy(self):
        zeros = airy_negative_zeros(20)
        ref = ai_zeros(20)[0]
        assert np.max(np.abs(np.array(zeros) - ref)) < 1e-9

    def test_ai_vanishes_at_zeros(self):
        for z in airy_negative_zeros(20):
            assert abs(airy_ai(z)) <= 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            airy_negative_zeros(0)
        with pytest.raises(DomainError):
            airy_negative_zeros(21)
        with pytest.raises(DomainError):
            airy_ai(1.0)
