import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.special import ai_zeros, gamma as scipy_gamma, hyperu

from diraconf.errors import DomainError
from diraconf.special_functions import (
    airy_ai,
    airy_negative_zeros,
    gamma_fn,
    integrate_adaptive,
    kummer_U,
)


class TestGamma:
    def test_known_values(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_against_integral_definition(self):
        # direct quadrature of the defining integral as the oracle
        x = 1.7320508
        res = integrate_adaptive(
            lambda t: t ** (x - 1.0) * math.exp(-t), 0.0, math.inf, tol=1e-12
        )
        assert gamma_fn(x) == pytest.approx(res.value, abs=1e-10)

    def test_recurrence(self):
        for x in np.linspace(0.1, 10.0, 67):
            assert gamma_fn(x + 1.0) == pytest.approx(x * gamma_fn(x), rel=1e-12)

    def test_against_scipy_sweep(self):
        for x in np.linspace(0.05, 20.0, 211):
            assert gamma_fn(float(x)) == pytest.approx(
                float(scipy_gamma(x)), rel=1e-12
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-1.5)


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
    ga = gamma_fn(a)
    g1ab = gamma_fn(1.0 + a - b)
    gb = gamma_fn(b)
    g2b = gamma_fn(2.0 - b)
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
        res = integrate_adaptive(lambda t: math.exp(-t), 0.0, math.inf)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.evaluations > 0
        assert res.abs_error_estimate >= 0

    def test_gaussian_moment(self):
        res = integrate_adaptive(lambda t: t * t * math.exp(-t * t), 0.0, math.inf)
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

    def test_nonconvergence_carries_partial_result(self):
        from diraconf.errors import ConvergenceError
        from diraconf.special_functions import QuadratureResult
        with pytest.raises(ConvergenceError) as err:
            integrate_adaptive(lambda t: math.sin(4e4 * t), 0.0, 1.0,
                               tol=1e-14, max_intervals=6)
        assert isinstance(err.value.partial, QuadratureResult)
        assert err.value.partial.evaluations > 0


class TestAiry:
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
