import math

import numpy as np
import pytest

from diraconf.ansatz import dirac_coulomb_ground_state
from diraconf.coulomb import (
    CouplingSet,
    dirac_coulomb_energy,
    expectation_anticomm_p2_r,
    expectation_inv_r,
    expectation_r,
    radial_wavefunction,
    schrodinger_energy,
)
from diraconf.errors import DomainError
from diraconf.special_functions import integrate_adaptive


class TestEnergies:
    def test_sommerfeld_examples(self):
        assert dirac_coulomb_energy(1, -1, 0.5, 1.0) == pytest.approx(
            0.8660254038, abs=1e-10)
        assert dirac_coulomb_energy(2, -1, 0.0, 1.0) == pytest.approx(1.0)
        assert dirac_coulomb_energy(2, -1, 0.5, 1.0) == pytest.approx(
            0.9659258263, abs=1e-10)

    def test_nodeless_reduction_exact(self):
        # n = -kappa collapses to m sqrt(1 - lam^2/kappa^2) identically
        for kappa in range(-20, 0):
            for lam in (0.1, 0.3, 0.5):
                direct = math.sqrt(1.0 - lam * lam / (kappa * kappa))
                assert dirac_coulomb_energy(-kappa, kappa, lam) == pytest.approx(
                    direct, rel=5e-16)

    def test_mass_scaling(self):
        assert dirac_coulomb_energy(1, -1, 0.5, 2.0) == pytest.approx(
            2.0 * dirac_coulomb_energy(1, -1, 0.5, 1.0), rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            dirac_coulomb_energy(1, -1, 1.0, 1.0)  # lam >= |kappa|
        with pytest.raises(DomainError):
            dirac_coulomb_energy(1, -2, 0.5, 1.0)  # |kappa| > n
        with pytest.raises(DomainError):
            dirac_coulomb_energy(1, 0, 0.5, 1.0)

    @pytest.mark.parametrize("n,kappa,lam", [
        (1, 1, 0.5),            # kappa = +n: no such state
        (3, 3, 0.5),
        (1, -1, math.nan),
        (1, -1, -0.1),
    ])
    def test_invalid_input_rejected(self, n, kappa, lam):
        with pytest.raises(DomainError):
            dirac_coulomb_energy(n, kappa, lam, 1.0)

    def test_schrodinger_examples(self):
        assert schrodinger_energy(1, 0.2, 1.0) == pytest.approx(0.98, rel=1e-14)
        assert schrodinger_energy(3, 0.0, 1.0) == pytest.approx(1.0)
        assert schrodinger_energy(2, 0.2, 1.0) == pytest.approx(0.995, rel=1e-14)

    def test_dirac_to_schrodinger_quartic(self):
        # |E_dirac - E_schrodinger| = C lam^4 m (1 + O(lam^2))
        n, kappa = 2, -1
        lam = 0.2
        d1 = abs(dirac_coulomb_energy(n, kappa, lam) - schrodinger_energy(n, lam))
        d2 = abs(dirac_coulomb_energy(n, kappa, lam / 2)
                 - schrodinger_energy(n, lam / 2))
        ratio = d1 / d2
        assert 14.0 < ratio < 18.0


class TestExpectations:
    def test_r_examples(self):
        assert expectation_r(1, -1, 1.0, 1.0) == pytest.approx(1.5, rel=1e-14)
        assert expectation_r(2, -1, 1.0, 1.0) == pytest.approx(6.0, rel=1e-14)
        assert expectation_r(2, 1, 1.0, 1.0) == pytest.approx(5.0, rel=1e-14)

    def test_inv_r_examples(self):
        assert expectation_inv_r(1, 1.0, 1.0) == pytest.approx(1.0)
        assert expectation_inv_r(2, 0.5, 1.0) == pytest.approx(0.125)
        assert expectation_inv_r(5, 1.0, 2.0) == pytest.approx(0.08)

    def test_anticomm_examples(self):
        assert expectation_anticomm_p2_r(1, -1, 1.0, 1.0) == pytest.approx(
            1.0, rel=1e-14)
        assert expectation_anticomm_p2_r(2, -1, 1.0, 1.0) == pytest.approx(
            1.0, rel=1e-14)

    def test_lambda_zero_rejected(self):
        with pytest.raises(DomainError):
            expectation_r(1, -1, 0.0, 1.0)
        with pytest.raises(DomainError):
            expectation_anticomm_p2_r(1, -1, 0.0, 1.0)
        with pytest.raises(DomainError):
            expectation_inv_r(1, 0.0, 1.0)

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            schrodinger_energy(0, 0.2, 1.0)
        with pytest.raises(DomainError):
            expectation_inv_r(0, 0.5, 1.0)

    @pytest.mark.parametrize("n,ell", [(1, 0), (2, 0), (2, 1), (3, 1), (5, 4)])
    def test_r_moments_by_quadrature(self, n, ell):
        lam, m = 0.8, 1.0
        kappa = -(ell + 1)

        def moment(power):
            res = integrate_adaptive(
                lambda r: radial_wavefunction(n, ell, lam, m, r) ** 2
                * r ** (2 + power),
                0.0, math.inf, tol=1e-12,
            )
            return res.value

        assert moment(1) == pytest.approx(expectation_r(n, kappa, lam, m),
                                          rel=1e-9)
        assert moment(-1) == pytest.approx(expectation_inv_r(n, lam, m),
                                           rel=1e-9)

    def test_anticomm_by_quadrature(self):
        # <{p^2, r}> = 2 int u (-u'' + l(l+1) u / r^2) r dr with u = r R
        n, ell, lam, m = 2, 0, 1.0, 1.0
        kappa = -1

        def u(r):
            return r * radial_wavefunction(n, ell, lam, m, r)

        def integrand(r):
            h = 1e-3
            upp = (-u(r + 2 * h) + 16 * u(r + h) - 30 * u(r)
                   + 16 * u(r - h) - u(r - 2 * h)) / (12 * h * h)
            return 2.0 * u(r) * (-upp) * r

        # quadrature tolerance sits above the ~1e-10 finite-difference noise
        res = integrate_adaptive(integrand, 5e-3, 60.0, tol=5e-8)
        assert res.value == pytest.approx(
            expectation_anticomm_p2_r(n, kappa, lam, m), abs=2e-6)


class TestRadialWavefunction:
    def test_ground_state_closed_form(self):
        lam, m = 0.7, 1.0
        scale = lam * m
        r = np.array([0.3, 1.0, 2.5])
        expected = 2.0 * scale**1.5 * np.exp(-scale * r)
        assert radial_wavefunction(1, 0, lam, m, r) == pytest.approx(expected,
                                                                     rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_normalization(self, n):
        lam, m = 1.0, 1.0
        for ell in range(n):
            res = integrate_adaptive(
                lambda r: radial_wavefunction(n, ell, lam, m, r) ** 2
                * r * r,
                0.0, math.inf, tol=1e-12,
            )
            assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            radial_wavefunction(2, 2, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            radial_wavefunction(1, 0, 0.0, 1.0, 1.0)

    def test_radii_required(self):
        # np.asarray(None, dtype=float) is NaN: without radii, R must raise
        with pytest.raises(TypeError):
            radial_wavefunction(1, 0, 0.5)
        with pytest.raises(TypeError):
            radial_wavefunction(1, 0, 0.5, 1.0)


class TestTypes:
    def test_coupling_set_validation(self):
        with pytest.raises(DomainError):
            CouplingSet(mass=0.0, lam=0.5)
        c = CouplingSet(mass=1.0, lam=0.5, mu=1e-4, nu=-8.66e-5)
        assert c.lam == 0.5

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_coupling_set_needs_a_finite_mass(self, mass):
        with pytest.raises(DomainError, match="finite and positive"):
            CouplingSet(mass=mass, lam=0.5)

    def test_ground_state_helper(self):
        gs = dirac_coulomb_ground_state(0.5, -1, 1.0)
        assert gs.b == pytest.approx(math.sqrt(0.75), rel=1e-15)
        assert gs.energy == pytest.approx(dirac_coulomb_energy(1, -1, 0.5),
                                          rel=1e-15)
        r = np.array([0.5, 2.0])
        assert gs.g(r) == pytest.approx(-gs.gamma * gs.f(r), rel=1e-15)
