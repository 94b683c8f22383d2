"""Acceptance suite: one test per headline claim, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""
import math
import shlex
from contextlib import contextmanager

import numpy as np
import pytest

from diraconf import cli
from diraconf.ansatz import (
    build_ansatz,
    dirac_coulomb_ground_state,
    evaluate_spinor,
    radial_residual,
    residual_grid,
)
from diraconf.coulomb import dirac_coulomb_energy
from diraconf.fw_effective import (
    antiparticle_spectrum_airy,
    first_order_shift,
    preservation_scan,
    shift_from_expectations,
)
from diraconf.quantum_numbers import enumerate_kappa
from diraconf.radial_solver import (
    RadialGrid,
    airy_grid,
    airy_ladder,
    coulomb_bracket,
    coulomb_grid,
    coulomb_plus_linear,
    coulomb_potential,
    find_bound_state,
    shift_convergence_study,
    solve_schrodinger_radial,
    suggest_rmax,
)
from diraconf.rescale import (
    bag_model_case,
    build_rescaled_state,
    check_ratio_condition,
    fine_tune_v2,
    h_profile,
    rescaled_residual,
)
from diraconf.special_functions import integrate_adaptive

LAMBDAS = (0.1, 0.3, 0.5)
KAPPA0S = (-1, -2, -3)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL: {description}")
        raise
    print(f"criterion {number:2d} PASS: {description}")


def _preserved_grid(lam, kappa0, m=1.0, points=20000):
    n0 = -kappa0
    return (coulomb_grid(lam, n0, kappa0, m, points),
            dirac_coulomb_energy(n0, kappa0, lam, m))


def test_criterion_01_exact_preservation_closed_form():
    with criterion(1, "closed-form state solves the radial equations to 1e-10 "
                      "with the unshifted Coulomb energy"):
        for lam in LAMBDAS:
            for kappa0 in KAPPA0S:
                p = build_ansatz(lam, 1e-4, kappa0, 1.0)
                assert radial_residual(p, residual_grid(p)) <= 1e-10
                exact = math.sqrt(1.0 - lam * lam / (kappa0 * kappa0))
                assert abs(p.energy - exact) <= 5e-16
                assert abs(p.energy
                           - dirac_coulomb_energy(-kappa0, kappa0, lam)) <= 5e-16


def test_criterion_02_exact_preservation_numerical():
    with criterion(2, "general solver reproduces the unshifted energy to "
                      "1e-8 m across two decades of mu"):
        m = 1.0
        for lam in LAMBDAS:
            for kappa0 in KAPPA0S:
                grid, e_ref = _preserved_grid(lam, kappa0, m)
                bracket = coulomb_bracket(-kappa0, kappa0, lam, m)
                energies = []
                for mu in (1e-6, 1e-5, 1e-4):
                    p = build_ansatz(lam, mu, kappa0, m)
                    pot = coulomb_plus_linear(lam, mu, p.nu)
                    st = find_bound_state(pot, kappa0, m, grid, bracket, 0)
                    energies.append(st.energy)
                assert all(abs(e - e_ref) <= 1e-8 * m for e in energies)
                assert max(energies) - min(energies) < 1e-8 * m


def test_criterion_03_first_order_shift_law():
    with criterion(3, "solver shifts extrapolate to the effective-operator "
                      "formula within 1% for all n <= 3 states"):
        lam, m, kappa0 = 0.1, 1.0, -1
        mu_seq = [4e-6, 2e-6, 1e-6]
        for n in range(1, 4):
            for kappa in enumerate_kappa(n):
                if n == -kappa0 and kappa == kappa0:
                    continue  # the preserved state, checked in criterion 2
                study = shift_convergence_study(n, kappa, kappa0, lam, m,
                                                mu_seq, points=12000)
                predicted = first_order_shift(n, kappa, kappa0, lam, 1.0, m)
                assert study.richardson == pytest.approx(predicted.total,
                                                         rel=0.01)
        study = shift_convergence_study(2, -1, kappa0, lam, m, mu_seq,
                                        points=12000)
        assert study.richardson / lam == pytest.approx(2.625, rel=0.01)


def test_criterion_04_oracle_equivalence():
    with criterion(4, "closed-form shift equals the matrix-element assembly "
                      "to 1e-12 for n <= 6 and kappa0 in {-1,-2,-3}"):
        lam, mu, m = 0.41, 7e-5, 1.0
        for kappa0 in KAPPA0S:
            for n in range(1, 7):
                for kappa in enumerate_kappa(n):
                    closed = first_order_shift(n, kappa, kappa0, lam, mu, m)
                    assembled = shift_from_expectations(n, kappa, kappa0, lam,
                                                        mu, m)
                    if closed.total == 0.0:
                        assert abs(assembled) < 1e-19
                    else:
                        assert abs(assembled / closed.total - 1.0) <= 1e-12


def test_criterion_05_uniqueness_scan(capsys):
    with criterion(5, "integer scan n <= 50, N <= 10 finds only kappa = "
                      "+/- n at N = 1, with the sign opposition everywhere"):
        report = preservation_scan(50, 10)
        expected = sorted((n, kappa, 1)
                          for n in range(1, 51) for kappa in (-n, n))
        assert sorted(report.solutions) == expected
        assert sorted(report.physical_solutions) == sorted(
            (n, -n, 1) for n in range(1, 51))
        assert report.sign_violations == []
        code = cli.main(["scan", "--n-max", "50", "--N-max", "10"])
        capsys.readouterr()
        assert code == 0


def test_criterion_06_normalization():
    with criterion(6, "closed-form normalization (gamma fn + Kummer U) "
                      "integrates to 1 within 1e-8 across the sweep"):
        for lam in LAMBDAS:
            for kappa0 in KAPPA0S:
                p = build_ansatz(lam, 1e-4, kappa0, 1.0)

                def integrand(r, p=p):
                    f, g = evaluate_spinor(p, r)
                    return (f * f + g * g) * r * r

                quad = integrate_adaptive(integrand, 0.0, math.inf, tol=1e-11)
                assert abs(quad.value - 1.0) <= 1e-8


def test_criterion_07_antiparticle_spectrum():
    with criterion(7, "linear-confinement s-wave spectrum matches the Airy "
                      "ladder to 1e-6; repulsive core shifts it up as "
                      "first-order theory predicts"):
        m = 1.0
        for mu in (0.1, 0.5):
            refs, _, levels = airy_ladder(mu, m, 5, 0.0, 20000)
            for ref, st in zip(refs, levels):
                assert abs((st.energy - m) / (ref - m) - 1.0) <= 1e-6

        # repulsive Coulomb core on top of the slope: positive shift equal
        # to lam <1/r> at first order.  Both solves keep their own bracket
        # and share the bare slope's grid, so that the shift is a difference
        # on one grid; the core's bracket is widened for its upward shift.
        mu, lam = 0.5, 0.05
        slope = 2.0 * mu
        refs = antiparticle_spectrum_airy(mu, m, count=2)
        v0 = lambda r: slope * np.asarray(r, dtype=float)
        v1 = lambda r: slope * np.asarray(r, dtype=float) + lam / np.asarray(
            r, dtype=float)
        grid = airy_grid(v0, slope, refs[1], m, 20000)
        lo = m + 0.3 * (refs[0] - m)
        hi = refs[0] + 0.45 * (refs[1] - refs[0])
        base = solve_schrodinger_radial(v0, 0, m, grid, (lo, hi), 0)
        pert = solve_schrodinger_radial(v1, 0, m, grid, (lo, hi + 0.2), 0,
                                        coulomb_coeff=lam)
        shift = pert.energy - base.energy
        assert shift > 0
        predicted = lam * grid.integrate(base.u**2 / grid.r)
        assert shift == pytest.approx(predicted, rel=0.1)


def test_criterion_08_rescaling():
    with criterion(8, "e^h rescaling: Gaussian exponent recovered to 1e-10, "
                      "rescaled Coulomb state equals the closed form to "
                      "1e-8, bag walls (M = 20 and 1000) preserve E"):
        m = 1.0
        # (a) cumulative quadrature vs the closed-form Gaussian exponent
        lam, kappa0, mu = 0.5, -1, 1e-4
        gs = dirac_coulomb_ground_state(lam, kappa0, m)
        v1 = lambda r: mu * np.asarray(r, dtype=float)
        v2 = fine_tune_v2(v1, gs.gamma)
        grid = RadialGrid(1e-5, 60.0, 8001)
        prof = h_profile(v1, v2, grid, branch="-")
        alpha2 = mu * lam / abs(kappa0)
        expected_h = -0.5 * alpha2 * (grid.r**2 - grid.r[0] ** 2)
        assert np.max(np.abs(prof.h - expected_h)) <= 1e-10

        # (b) rescaled state vs the closed-form preserved state
        f, g = build_rescaled_state(gs.f(grid.r), gs.g(grid.r), prof)
        params = build_ansatz(lam, mu, kappa0, m)
        fa, ga = evaluate_spinor(params, grid.r)
        norm = grid.integrate((fa**2 + ga**2) * grid.r**2)
        fa /= math.sqrt(norm)
        ga /= math.sqrt(norm)
        scale = float(np.max(np.abs(fa)))
        assert np.max(np.abs(f - fa)) / scale <= 1e-8
        assert np.max(np.abs(g - ga)) / scale <= 1e-8

        # (c) bag-like walls; M = 20 cross-checked with the general solver
        for M in (20, 1000):
            case = bag_model_case(A=1.0, r0=10.0, M=M, lam=lam, kappa0=kappa0,
                                  m=m)
            assert case.residual <= 1e-8
            assert abs(case.energy - dirac_coulomb_energy(1, kappa0, lam, m)) \
                <= 1e-8 * m
        case20 = bag_model_case(A=1.0, r0=10.0, M=20, lam=lam, kappa0=kappa0,
                                m=m)
        from diraconf.radial_solver import PotentialSpec
        pot = PotentialSpec(v0=lambda r: -lam / r, v1=case20.profile.v1,
                            v2=case20.profile.v2,
                            coulomb_strength=lam)
        grid20 = RadialGrid(1e-6 / lam, case20.profile.grid.r_max, 20000)
        e_ref = case20.energy
        st = find_bound_state(pot, kappa0, m, grid20,
                              (e_ref - 0.01, e_ref + 0.01), 0)
        assert abs(st.energy - e_ref) <= 1e-8 * m

        # (d) M = 1000 behaves as a hard wall at r0
        case1k = bag_model_case(A=1.0, r0=10.0, M=1000, lam=lam,
                                kappa0=kappa0, m=m)
        inside = case1k.profile.grid.r < 0.97 * 10.0
        wall_factor = np.exp(case1k.profile.h[inside]
                             - case1k.profile.h[0])
        assert np.max(np.abs(wall_factor - 1.0)) < 1e-10


def test_criterion_09_negative_control():
    with criterion(9, "a one-node reference state fails the ratio condition "
                      "and the rescaled-state equation check"):
        lam, m = 0.5, 1.0
        e_ref = dirac_coulomb_energy(2, -1, lam, m)
        pot = coulomb_potential(lam)
        grid = RadialGrid(
            1e-6 / lam,
            suggest_rmax(pot, -1, e_ref, m, r_start=16.0 / lam),
            16000,
        )
        state = find_bound_state(pot, -1, m, grid,
                                 (e_ref - 0.005, e_ref + 0.005), 1)
        gs = dirac_coulomb_ground_state(lam, -1, m)
        mu = 1e-4
        v1 = lambda r: mu * np.asarray(r, dtype=float)
        v2 = fine_tune_v2(v1, gs.gamma)
        report = check_ratio_condition(state.f, state.g, v1, v2, grid)
        assert report.constancy_defect > 0.1

        # derivatives of the solver state from the unperturbed equations
        rn = grid.r
        p = e_ref + m + lam / rn
        q = e_ref - m + lam / rn
        df = -(-1 + 1.0) / rn * state.f + p * state.g
        dg = (-1 - 1.0) / rn * state.g - q * state.f
        prof = h_profile(v1, v2, grid, branch="-")
        resid = rescaled_residual(state.f, df, state.g, dg, prof,
                                  lambda r: -lam / r, e_ref, -1, m)
        # fails the <= 1e-8 preservation test by many orders of magnitude
        # (the defect scale is set by mu, so compare against that too)
        assert resid > 1e-4
        assert resid > 1e3 * 1e-8


def test_criterion_10_cli_determinism(capsys):
    with criterion(10, "every standard CLI scenario is byte-identical "
                       "across repeated runs"):
        for scenario in cli._SEED_DEFAULTS:
            argv = shlex.split(scenario)
            code1 = cli.main(argv)
            out1 = capsys.readouterr().out
            code2 = cli.main(argv)
            out2 = capsys.readouterr().out
            assert code1 == code2 == 0
            assert out1 == out2
            assert out1.endswith("\n")
