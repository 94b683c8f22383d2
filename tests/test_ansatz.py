import dataclasses
import math

import mpmath
import numpy as np
import pytest

import diraconf.radial_solver as rs
from diraconf.ansatz import (
    AnsatzParams,
    build_ansatz,
    dirac_coulomb_ground_state,
    evaluate_spinor,
    nu_fine_tuned,
    radial_residual,
    residual_grid,
)
from diraconf.coulomb import dirac_coulomb_energy
from diraconf.errors import DomainError
from diraconf.special_functions import integrate_adaptive

SWEEP = [(lam, kappa0, mu)
         for lam in (0.1, 0.3, 0.5)
         for kappa0 in (-1, -2, -3)
         for mu in (1e-6, 1e-4)]


class TestNuFineTuning:
    def test_examples(self):
        assert nu_fine_tuned(1e-4, 0.5, -1) == pytest.approx(-8.660254038e-5,
                                                             rel=1e-9)
        assert nu_fine_tuned(0.3, 0.0, -2) == pytest.approx(-0.3)
        assert nu_fine_tuned(0.01, 0.3, -3) == pytest.approx(-0.0099498744,
                                                             rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            nu_fine_tuned(1e-4, 1.5, -1)
        with pytest.raises(DomainError):
            nu_fine_tuned(1e-4, 0.5, 1)


class TestBuildAnsatz:
    def test_reference_values(self):
        p = build_ansatz(0.5, 1e-4, -1, 1.0)
        assert p.b == pytest.approx(0.8660254, abs=1e-7)
        assert p.a == pytest.approx(0.5, rel=1e-15)
        assert p.alpha2 == pytest.approx(5e-5, rel=1e-12)
        assert p.gamma == pytest.approx(0.2679492, abs=1e-7)
        assert p.energy == pytest.approx(0.8660254, abs=1e-7)
        assert p.nu == pytest.approx(-8.660254e-5, rel=1e-7)

    @pytest.mark.parametrize("lam,kappa0,mu", SWEEP)
    def test_gamma_consistency_sweep(self, lam, kappa0, mu):
        p = build_ansatz(lam, mu, kappa0)
        assert max(p.gamma_deviations()) <= 1e-12

    @pytest.mark.parametrize("lam,kappa0,mu", SWEEP)
    def test_energy_matches_sommerfeld(self, lam, kappa0, mu):
        p = build_ansatz(lam, mu, kappa0)
        assert p.energy == pytest.approx(
            dirac_coulomb_energy(-kappa0, kappa0, lam), rel=5e-16)

    @pytest.mark.parametrize("kappa0", [-1, -2, -3])
    @pytest.mark.parametrize("lam", [1e-8, 1e-4, 0.1, 0.5, 0.9])
    def test_parameters_are_the_coulomb_ground_state(self, lam, kappa0):
        p = build_ansatz(lam, 1e-4, kappa0, 2.0)
        ground = dirac_coulomb_ground_state(lam, kappa0, 2.0)
        assert [x.hex() for x in (p.b, p.a, p.gamma, p.energy)] == [
            x.hex() for x in (ground.b, ground.a, ground.gamma, ground.energy)]
        # gamma = lam/(|kappa0| + b) does not cancel as lam -> 0, where
        # (|kappa0| - b)/lam loses about log2(kappa0^2/lam^2) bits
        with mpmath.workdps(40):
            exact = lam / (abs(kappa0) + mpmath.sqrt(kappa0**2
                                                      - mpmath.mpf(lam)**2))
            ulps = abs(p.gamma - exact) / math.ulp(p.gamma)
        assert ulps <= 2

    def test_small_mu_approaches_coulomb_shape(self):
        # Gaussian factor goes to 1, leaving the r^(b-1) e^{-ar} profile
        p = build_ansatz(0.5, 1e-10, -1)
        r = np.array([0.5, 2.0, 8.0])
        f, _ = evaluate_spinor(p, r)
        shape = r ** (p.b - 1.0) * np.exp(-p.a * r)
        ratio = f / shape
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-7

    def test_sign_constraints(self):
        with pytest.raises(DomainError):
            build_ansatz(0.5, -1e-4, -1)   # growing Gaussian
        with pytest.raises(DomainError):
            build_ansatz(0.5, 1e-4, 1)     # kappa0 must be negative
        with pytest.raises(DomainError):
            build_ansatz(0.0, 1e-4, -1)    # lam = 0 unbound
        with pytest.raises(DomainError):
            build_ansatz(1.5, 1e-4, -1)    # lam >= |kappa0|
        with pytest.raises(DomainError):
            build_ansatz(0.5, 1e-4, -1, 0.0)   # m must be positive

    def test_infinite_mass_rejected(self):
        # a = E = inf reached the norm, where inf * 0 warned
        with pytest.raises(DomainError,
                           match="mass must be finite and positive"):
            build_ansatz(0.5, 1e-4, -1, math.inf)

    @pytest.mark.parametrize("mu", [math.inf, math.nan])
    def test_non_finite_mu_rejected(self, mu):
        # mu = inf reached kummer_U, whose DomainError named z, not mu
        with pytest.raises(DomainError, match="mu must be finite"):
            build_ansatz(0.5, mu, -1)


class TestCoulombGroundState:
    @pytest.mark.parametrize("m", [0.0, -1.0, math.nan, math.inf])
    def test_mass_must_be_finite_and_positive(self, m):
        # each used to return a record, with a = E = inf at m = inf
        with pytest.raises(DomainError,
                           match="mass must be finite and positive"):
            dirac_coulomb_ground_state(0.5, -1, m)

    def test_gamma_candidates_are_for_the_confined_state(self):
        # at mu = 0, alpha2/(mu - nu) and (mu + nu)/alpha2 are 0/0
        with pytest.raises(ZeroDivisionError):
            dirac_coulomb_ground_state(0.5, -1).gamma_candidates()


class TestSpinor:
    def test_lower_to_upper_ratio(self):
        p = build_ansatz(0.3, 1e-4, -2)
        r = np.geomspace(0.01, 50.0, 200)
        f, g = evaluate_spinor(p, r)
        assert np.allclose(g, -p.gamma * f, rtol=1e-15, atol=0.0)

    def test_origin_rejected(self):
        p = build_ansatz(0.5, 1e-4, -1)
        with pytest.raises(DomainError):
            evaluate_spinor(p, 0.0)
        with pytest.raises(DomainError):
            evaluate_spinor(p, np.array([1.0, -2.0]))

    @pytest.mark.parametrize("lam,kappa0,mu", SWEEP)
    def test_normalization_closed_form_vs_quadrature(self, lam, kappa0, mu):
        p = build_ansatz(lam, mu, kappa0)

        def integrand(r):
            f, g = evaluate_spinor(p, r)
            return (f * f + g * g) * r * r

        res = integrate_adaptive(integrand, 0.0, math.inf, tol=1e-11)
        assert res.value == pytest.approx(1.0, abs=1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestResidual:
    @pytest.mark.parametrize("lam,kappa0,mu", SWEEP)
    def test_exact_preservation(self, lam, kappa0, mu):
        p = build_ansatz(lam, mu, kappa0)
        assert radial_residual(p, residual_grid(p)) <= 1e-10

    @pytest.mark.parametrize("lam,kappa0,mu", [*SWEEP, (0.9, -1, 1e-4)])
    def test_grid_end_matches_a_step_by_step_walk(self, lam, kappa0, mu):
        # the grid ends where a scalar x *= 1.005 walk in x = s r, from
        # x = 1, has summed e^-34 of decay of f: the solver's tail walk
        p = build_ansatz(lam, mu, kappa0)
        s = max(p.a, math.sqrt(p.alpha2))
        assert p.inverse_length == s
        x, acc, steps = 1.0, 0.0, 0
        while acc < 34.0:
            x_next = x * 1.005
            mid = 0.5 * (x + x_next)
            rate = (p.a + p.alpha2 * mid / s) / s - (p.b - 1.0) / mid
            if rate > 0:
                acc += rate * (x_next - x)
            x, steps = x_next, steps + 1
        grid = residual_grid(p)
        assert float(grid[-1]).hex() == (x / s).hex()
        assert np.array_equal(grid, np.geomspace(1e-4 / s, x / s, 2001))
        assert steps > rs._TAIL_CHUNK  # the walk takes more than one chunk

    @pytest.mark.parametrize("mass", [1e-8, 1.0, 1e6])
    @pytest.mark.parametrize("lam,kappa0,mu", SWEEP)
    def test_grid_follows_the_state(self, lam, kappa0, mu, mass):
        # both ends are in the state's own length 1/s, so the grid rises
        # from inside the power-law region to where f has decayed, at any
        # mass (at m = 1e-8 a start of 1e-4/(lam m) lay past the Gaussian)
        p = build_ansatz(lam, mu, kappa0, mass)
        grid = residual_grid(p)
        assert np.all(np.diff(grid) > 0)
        assert grid[0] < 1.0 / max(p.a, math.sqrt(p.alpha2))
        f, _ = evaluate_spinor(p, grid)
        assert f[-1] < 1e-13 * np.max(f)
        assert radial_residual(p, grid) <= 1e-10

    def test_grid_ends_before_f_underflows(self):
        # a weak Coulomb tail: max(b, 1)/a = 1e4 lies far beyond the
        # Gaussian width 1/sqrt(alpha2) = 82, where f has underflowed
        p = build_ansatz(1e-4, 1.5, -1)
        f, _ = evaluate_spinor(p, residual_grid(p))
        assert np.all(f != 0.0)

    def test_detuned_nu_breaks_it(self):
        p = build_ansatz(0.5, 1e-4, -1)
        grid = residual_grid(p)
        base = radial_residual(p, grid)
        detuned = dataclasses.replace(p, nu=p.nu * 1.01)
        assert radial_residual(detuned, grid) > 1e6 * base

    def test_negative_mu_solves_locally_but_diverges(self):
        # with mu < 0 the same algebra gives alpha2 < 0: the profile still
        # satisfies the equations pointwise (so finite-domain solvers see a
        # "preserved" quasi-bound level), but the growing Gaussian wins
        # beyond r = a/|alpha2| and the norm diverges; that is why
        # build_ansatz enforces mu > 0
        lam, kappa0, m, mu = 0.5, -1, 1.0, -1e-3
        b = math.sqrt(kappa0**2 - lam**2)
        a = m * lam / abs(kappa0)
        alpha2 = mu * lam / abs(kappa0)
        assert alpha2 < 0
        nu = nu_fine_tuned(mu, lam, kappa0)
        p = AnsatzParams(
            mass=m, lam=lam, mu=mu, nu=nu,
            kappa0=kappa0, b=b, a=a, alpha2=alpha2,
            gamma=lam / (abs(kappa0) + b),
            energy=m * math.sqrt(1 - lam**2 / kappa0**2), norm=1.0,
        )
        grid = np.geomspace(1e-3, 80.0, 1501)
        assert radial_residual(p, grid) <= 1e-10
        crossover = 2.0 * a / abs(alpha2)
        f_tail, _ = evaluate_spinor(p, np.array([1.2 * crossover]))
        f_peak, _ = evaluate_spinor(p, np.array([b / a]))
        assert f_tail[0] > 1e10 * f_peak[0]

    def test_pure_coulomb_limit(self):
        # mu = nu = 0 with the matching Coulomb parameters is also exact
        lam, kappa0, m = 0.5, -1, 1.0
        b = math.sqrt(kappa0**2 - lam**2)
        p = AnsatzParams(
            mass=m, lam=lam, mu=0.0, nu=0.0,
            kappa0=kappa0, b=b, a=m * lam / abs(kappa0), alpha2=0.0,
            gamma=lam / (abs(kappa0) + b),
            energy=m * math.sqrt(1 - lam**2 / kappa0**2), norm=1.0,
        )
        grid = np.geomspace(1e-4 / lam, 80.0, 2001)
        assert radial_residual(p, grid) <= 1e-10
