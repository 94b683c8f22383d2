import math

import mpmath
import pytest
from scipy.special import ai_zeros

from diraconf.errors import DomainError
from diraconf.fw_effective import (
    antiparticle_effective,
    antiparticle_spectrum_airy,
    first_order_shift,
    preservation_scan,
    reference_cancellation,
    shift_from_expectations,
)
from diraconf.quantum_numbers import enumerate_kappa


class TestFirstOrderShift:
    def test_reference_state_vanishes(self):
        s = first_order_shift(1, -1, -1, 0.3, 1e-4)
        assert s.total == 0.0

    def test_reference_states_vanish_up_to_20(self):
        for n in range(1, 21):
            assert first_order_shift(n, -n, -n, 0.2, 1e-5).total == 0.0

    def test_known_coefficients(self):
        lam, mu = 0.3, 1e-4
        s = first_order_shift(2, -1, -1, lam, mu, 1.0)
        assert s.total == pytest.approx(2.625 * mu * lam, rel=1e-13)
        s = first_order_shift(2, 1, -1, lam, mu, 1.0)
        assert s.total == pytest.approx(2.25 * mu * lam, rel=1e-13)

    def test_terms_sum_to_total(self):
        for n in range(1, 7):
            for kappa in enumerate_kappa(n):
                s = first_order_shift(n, kappa, -2, 0.4, 3e-5)
                total = s.term_linear + s.term_spin_orbit + s.term_kinetic
                assert total == pytest.approx(s.total, rel=1e-12, abs=1e-19)

    def test_closed_form_equals_expectation_assembly(self):
        lam, mu, m = 0.37, 2e-5, 1.0
        for kappa0 in (-1, -2, -3):
            for n in range(1, 7):
                for kappa in enumerate_kappa(n):
                    closed = first_order_shift(n, kappa, kappa0, lam, mu, m)
                    assembled = shift_from_expectations(n, kappa, kappa0, lam,
                                                        mu, m)
                    assert assembled == pytest.approx(closed.total, rel=1e-12,
                                                      abs=1e-19)

    def test_shift_linear_in_mu_lambda(self):
        base = first_order_shift(2, -1, -1, 0.2, 1e-4).total / (1e-4 * 0.2)
        other = first_order_shift(2, -1, -1, 0.5, 3e-6).total / (3e-6 * 0.5)
        assert other == pytest.approx(base, rel=1e-12)

    def test_reference_state_zero_with_nonzero_terms(self):
        s = first_order_shift(1, -1, -1, 0.3, 1e-4)
        assert s.total == 0.0
        assert s.term_linear != 0.0
        assert s.term_kinetic != 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            first_order_shift(1, -2, -1, 0.3, 1e-4)
        with pytest.raises(DomainError):
            first_order_shift(2, 0, -1, 0.3, 1e-4)

    @pytest.mark.parametrize("n, kappa", [(1, 1), (2, 2), (3, 3)])
    def test_kappa_plus_n_rejected(self, n, kappa):
        # kappa = +n names no state; the scan alone keeps that algebraic case
        with pytest.raises(DomainError):
            first_order_shift(n, kappa, -1, 0.3, 1e-4)


class TestReferenceCancellation:
    @pytest.mark.parametrize("n0", [1, 2, 3, 5, 9])
    def test_exact_zero(self, n0):
        assert reference_cancellation(n0, 0.44, 1e-3) == 0.0

    def test_n0_zero_rejected(self):
        with pytest.raises(DomainError):
            reference_cancellation(0, 0.44, 1e-3)

    def test_matches_general_formula_structure(self):
        # the factored numerator equals the general shift at (n0, -n0)
        for n0 in (1, 2, 4):
            assert first_order_shift(n0, -n0, -n0, 0.25, 1e-4).total == 0.0


class TestPreservationScan:
    def test_full_scan(self):
        report = preservation_scan(50, 10)
        expected = sorted((n, kappa, 1)
                          for n in range(1, 51) for kappa in (-n, n))
        assert sorted(report.solutions) == expected
        assert sorted(report.physical_solutions) == sorted(
            (n, -n, 1) for n in range(1, 51))
        assert report.sign_violations == []

    def test_sign_example(self):
        # N = 2, n = 3, kappa = -3: sides are 9 and -54
        big_n, n, kappa = 2, 3, -3
        left = (big_n**2 - 3) * n * n
        right = kappa * ((big_n**2 - 1) - (big_n**2 + 1) * kappa)
        assert left == 9
        assert right == -54
        report = preservation_scan(3, 2)
        assert report.sign_violations == []

    def test_n1_solutions(self):
        report = preservation_scan(1, 2)
        assert report.solutions == [(1, -1, 1), (1, 1, 1)]
        assert report.physical_solutions == [(1, -1, 1)]

    def test_n2_kappa_squared(self):
        report = preservation_scan(2, 2)
        got = {(n, k) for (n, k, big_n) in report.solutions if n == 2}
        assert got == {(2, -2), (2, 2)}


class TestAntiparticle:
    def test_effective_coefficients(self):
        pot = antiparticle_effective(1e-4, 0.5, -1, 1.0)
        assert pot.coulomb_strength == pytest.approx(0.5)
        assert pot.leading_linear_slope == pytest.approx(2e-4)
        assert pot.linear_coefficient == pytest.approx(2e-4 - 1e-4 * 0.125)
        assert pot.kinetic_coefficient == pytest.approx(-2.5e-5)

    def test_mu_zero_pure_repulsive(self):
        pot = antiparticle_effective(0.0, 0.5, -1)
        assert pot.leading_linear_slope == 0.0
        assert pot.linear_coefficient == 0.0
        assert pot.coulomb_strength == 0.5

    def test_lambda_zero_pure_linear(self):
        pot = antiparticle_effective(2e-4, 0.0, -1)
        assert pot.coulomb_strength == 0.0
        assert pot.linear_coefficient == pytest.approx(4e-4)

    def test_kappa0_zero_rejected(self):
        with pytest.raises(DomainError):
            antiparticle_effective(2e-4, 0.5, 0)

    def test_airy_spectrum_against_independent_zeros(self):
        # oracle: scipy's Airy zeros in the same closed formula
        for mu in (0.1, 0.5):
            scale = ((2 * mu) ** 2 / 2.0) ** (1.0 / 3.0)
            ref = [1.0 + abs(z) * scale for z in ai_zeros(5)[0]]
            got = antiparticle_spectrum_airy(mu, 1.0, count=5)
            for a, b in zip(got, ref):
                assert a == pytest.approx(b, rel=1e-10)

    def test_airy_first_level_frozen(self):
        # |a_1| (0.5)^(1/3) with |a_1| = 2.33810741...
        got = antiparticle_spectrum_airy(0.5, 1.0, count=1)[0]
        assert got - 1.0 == pytest.approx(1.8557570815, abs=1e-9)

    def test_spacing_decreases(self):
        e = antiparticle_spectrum_airy(0.5, 1.0, count=3)
        assert e[2] - e[1] < e[1] - e[0]

    def test_mu_scaling(self):
        e1 = antiparticle_spectrum_airy(0.1, 1.0, count=1)[0] - 1.0
        e2 = antiparticle_spectrum_airy(0.8, 1.0, count=1)[0] - 1.0
        assert e2 / e1 == pytest.approx(8.0 ** (2.0 / 3.0), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            antiparticle_spectrum_airy(-0.1)
        with pytest.raises(DomainError):
            antiparticle_spectrum_airy(0.5, count=25)

    @pytest.mark.parametrize("mu", [1e154, 1e200, 1e300])
    def test_airy_spectrum_at_huge_slopes(self, mu):
        # (2 mu)^2 overflows from mu ~ 1.3e154 on; every level is finite
        got = antiparticle_spectrum_airy(mu, 1.0, count=3)
        with mpmath.workdps(40):
            scale = mpmath.cbrt((2 * mpmath.mpf(mu)) ** 2 / 2)
            for k, e in enumerate(got, 1):
                exact = 1 + abs(mpmath.airyaizero(k)) * scale
                assert abs(e - exact) <= 2 * math.ulp(e)

    @pytest.mark.parametrize("mu", [math.inf, math.nan])
    def test_mu_must_be_finite(self, mu):
        # mu = inf returned inf levels
        with pytest.raises(DomainError, match="mu must be finite and positive"):
            antiparticle_spectrum_airy(mu, 1.0, 2)

    @pytest.mark.parametrize("m", [-1.0, 0.0, math.nan, math.inf])
    def test_mass_must_be_finite_and_positive(self, m):
        # m < 0 gave complex energies, m = 0 a ZeroDivisionError and
        # m = nan NaN energies
        with pytest.raises(DomainError, match="m must be finite and positive"):
            antiparticle_spectrum_airy(0.3, m, 2)
