import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from diraconf.ansatz import (
    build_ansatz,
    dirac_coulomb_ground_state,
    evaluate_spinor,
    radial_residual,
)
from diraconf.coulomb import dirac_coulomb_energy
from diraconf.errors import (
    ConditionViolationError,
    DomainError,
    NormalizationError,
)
from diraconf.radial_solver import (
    RadialGrid,
    _diff_of_squares,
    coulomb_potential,
    find_bound_state,
    suggest_rmax,
)
from diraconf.rescale import (
    _BLOCK,
    bag_model_case,
    build_rescaled_state,
    check_ratio_condition,
    fine_tune_v2,
    h_profile,
    rescaled_residual,
)
from diraconf.special_functions import _gauss_legendre


def _linear_pair(lam, kappa0, mu, m=1.0):
    gs = dirac_coulomb_ground_state(lam, kappa0, m)
    v1 = lambda r: mu * np.asarray(r, dtype=float)
    v2 = fine_tune_v2(v1, gs.gamma)
    return gs, v1, v2


class TestHProfile:
    def test_linear_case_matches_gaussian_exponent(self):
        lam, kappa0, mu, m = 0.5, -1, 1e-4, 1.0
        gs, v1, v2 = _linear_pair(lam, kappa0, mu, m)
        grid = RadialGrid(1e-5, 50.0, 4001)
        prof = h_profile(v1, v2, grid, branch="-")
        alpha2 = mu * lam / abs(kappa0)
        expected = -0.5 * alpha2 * (grid.r**2 - grid.r[0] ** 2)
        assert np.max(np.abs(prof.h - expected)) < 1e-10

    def test_equal_potentials_give_constant_h(self):
        v1 = lambda r: 0.3 * np.asarray(r, dtype=float)
        grid = RadialGrid(1e-4, 20.0, 1001)
        for sign in (1.0, -1.0):
            v2 = lambda r, s=sign: s * v1(r)
            prof = h_profile(v1, v2, grid)
            assert np.max(np.abs(prof.h)) == 0.0

    def test_power_law_case(self):
        # V1 = A (r/r0)^M, V2 = c V1: h = -sqrt(1-c^2) A r0/(M+1) (r/r0)^(M+1)
        A, r0, M, c = 0.7, 5.0, 4, -0.6
        v1 = lambda r: A * (np.asarray(r, dtype=float) / r0) ** M
        v2 = lambda r: c * v1(r)
        grid = RadialGrid(1e-3, 12.0, 4001)
        prof = h_profile(v1, v2, grid)
        coef = math.sqrt(1 - c * c) * A * r0 / (M + 1)
        expected = -coef * ((grid.r / r0) ** (M + 1) - (grid.r[0] / r0) ** (M + 1))
        assert np.max(np.abs(prof.h - expected)) < 1e-9

    def test_condition_violation_reports_radius(self):
        v1 = lambda r: 0.1 * np.asarray(r, dtype=float)
        v2 = lambda r: 0.2 * np.asarray(r, dtype=float)
        grid = RadialGrid(0.1, 10.0, 101)
        with pytest.raises(ConditionViolationError) as err:
            h_profile(v1, v2, grid)
        assert err.value.radius is not None
        assert err.value.radius > 0

    def test_branch_validation(self):
        v1 = lambda r: np.asarray(r, dtype=float)
        with pytest.raises(DomainError):
            h_profile(v1, v1, RadialGrid(0.1, 1.0, 32), branch="x")


def _one_shot_h(v1, v2, grid, branch="-"):
    """h_profile's sum over the whole grid at once: the reference bits."""
    rn = grid.r
    sign = 1.0 if branch == "+" else -1.0
    half = 0.5 * np.diff(rn)
    mid = 0.5 * (rn[1:] + rn[:-1])
    gl_x, gl_w = _gauss_legendre(4)
    pts = mid[:, None] + half[:, None] * gl_x[None, :]
    w1 = np.asarray(v1(pts), dtype=float)
    w2 = np.asarray(v2(pts), dtype=float)
    integrand2, vals = _diff_of_squares(w1, w2)
    with np.errstate(over="ignore"):
        bad = integrand2 < -1e-14 * (w1 * w1 + w2 * w2 + 1e-300)
    if np.any(bad):
        first = np.argwhere(bad)
        r_bad = float(pts[first[0][0], first[0][1]])
        raise ConditionViolationError("violated", radius=r_bad)
    with np.errstate(over="ignore"):
        increments = half * (vals @ gl_w)
    return np.concatenate(([0.0], np.cumsum(sign * increments))), pts


# interval counts on both sides of each block edge
_INTERVALS = [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7]


def _grid(intervals):
    """Log-spaced nodes on [1e-3, 6]; below RadialGrid's 16-node floor, only
    the nodes, which are all h_profile reads of a grid."""
    if intervals + 1 < 16:
        return SimpleNamespace(r=np.geomspace(1e-3, 6.0, intervals + 1))
    return RadialGrid(1e-3, 6.0, intervals + 1)


class TestHProfileBlocks:
    """The blocked quadrature against the one-shot sum, byte for byte."""

    @pytest.mark.parametrize("intervals", _INTERVALS)
    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_bytes_match_one_shot(self, intervals, branch):
        A, r0, M, c = 0.7, 5.0, 40, -0.6
        v1 = lambda r: A * np.exp(M * np.log(np.asarray(r, dtype=float) / r0))
        v2 = lambda r: c * v1(r)
        grid = _grid(intervals)
        expected, _ = _one_shot_h(v1, v2, grid, branch)
        assert h_profile(v1, v2, grid, branch).h.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("intervals", _INTERVALS)
    def test_zero_potentials_keep_negative_zero(self, intervals):
        zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        grid = _grid(intervals)
        h = h_profile(zero, zero, grid).h
        assert math.copysign(1.0, h[1]) == -1.0
        assert h.tobytes() == _one_shot_h(zero, zero, grid)[0].tobytes()

    def test_rounding_level_shortfall_is_no_violation(self):
        # V2 one ulp steeper than V1: V1^2 - V2^2 < 0 only by rounding
        v1 = lambda r: 0.3 * np.asarray(r, dtype=float)
        v2 = lambda r: -(1.0 + 2.0**-52) * v1(r)
        grid = _grid(3 * _BLOCK + 7)
        assert np.all(v1(grid.r) ** 2 - v2(grid.r) ** 2 < 0.0)
        expected, _ = _one_shot_h(v1, v2, grid)
        assert h_profile(v1, v2, grid).h.tobytes() == expected.tobytes()

    def test_violation_in_third_block_names_the_same_radius(self):
        grid = _grid(3 * _BLOCK + 7)
        r_on = grid.r[2 * _BLOCK + 100]  # inside the third block
        v1 = lambda r: np.ones_like(np.asarray(r, dtype=float))
        v2 = lambda r: np.where(np.asarray(r) > r_on, 2.0, 0.5)
        with pytest.raises(ConditionViolationError) as expected:
            _one_shot_h(v1, v2, grid)
        with pytest.raises(ConditionViolationError) as err:
            h_profile(v1, v2, grid)
        assert r_on < err.value.radius
        assert err.value.radius.hex() == expected.value.radius.hex()

    @pytest.mark.parametrize("intervals", _INTERVALS)
    def test_each_point_sampled_once(self, intervals):
        seen = {"v1": [], "v2": []}

        def counting(key):
            def v(r):
                seen[key].append(np.array(r))
                return 0.1 * np.asarray(r, dtype=float)
            return v

        grid = _grid(intervals)
        h_profile(counting("v1"), counting("v2"), grid)
        _, pts = _one_shot_h(lambda r: r, lambda r: r, grid)
        for calls in seen.values():
            assert sum(c.size for c in calls) == 4 * intervals
            assert max(c.size for c in calls) <= 4 * _BLOCK
            assert np.concatenate([c.ravel() for c in calls]).tobytes() == (
                pts.ravel().tobytes())

    def test_memory_stays_at_one_block(self):
        v1 = lambda r: 0.3 * np.asarray(r, dtype=float)
        v2 = lambda r: -0.2 * np.asarray(r, dtype=float)
        grid = RadialGrid(1e-5, 60.0, 20000)
        h_profile(v1, v2, grid)  # warm the caches of the quadrature rule
        tracemalloc.start()
        try:
            h_profile(v1, v2, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one-shot, the 80,000-point temporaries peaked at about 4.8 MB
        assert peak < 1_000_000


class TestFineTuning:
    def test_reference_gamma(self):
        v1 = lambda r: np.asarray(r, dtype=float)
        v2 = fine_tune_v2(v1, 0.2679492)
        assert v2(1.0) == pytest.approx(-0.8660254, abs=1e-7)

    def test_limits(self):
        v1 = lambda r: np.asarray(r, dtype=float)
        assert fine_tune_v2(v1, 0.0)(2.0) == pytest.approx(-2.0)
        assert fine_tune_v2(v1, 1.0)(2.0) == pytest.approx(0.0)
        with pytest.raises(DomainError):
            fine_tune_v2(v1, math.inf)

    @pytest.mark.parametrize("kappa0", [-1, -2, -3])
    @pytest.mark.parametrize("lam_frac", [0.1, 0.5, 0.9])
    def test_gamma_energy_identity_sweep(self, kappa0, lam_frac):
        # (1 - gamma^2)/(1 + gamma^2) = E/m: the fine-tuned V2 is -(E/m) V1
        lam = lam_frac * abs(kappa0)
        v1 = lambda r: np.asarray(r, dtype=float)
        for m in (1.0, 3.0):
            gs = dirac_coulomb_ground_state(lam, kappa0, m)
            assert fine_tune_v2(v1, gs.gamma)(1.0) == pytest.approx(
                -gs.energy / m, rel=1e-12)


class TestRescaledState:
    def test_linear_case_reproduces_ansatz(self):
        lam, kappa0, mu, m = 0.5, -1, 1e-4, 1.0
        gs, v1, v2 = _linear_pair(lam, kappa0, mu, m)
        grid = RadialGrid(1e-5, 60.0, 8001)
        prof = h_profile(v1, v2, grid)
        f, g = build_rescaled_state(gs.f(grid.r), gs.g(grid.r), prof)
        params = build_ansatz(lam, mu, kappa0, m)
        fa, ga = evaluate_spinor(params, grid.r)
        norm = grid.integrate((fa**2 + ga**2) * grid.r**2)
        fa /= math.sqrt(norm)
        ga /= math.sqrt(norm)
        scale = np.max(np.abs(fa))
        assert np.max(np.abs(f - fa)) / scale < 1e-8
        assert np.max(np.abs(g - ga)) / scale < 1e-8

    def test_zero_potentials_identity(self):
        gs = dirac_coulomb_ground_state(0.5, -1)
        grid = RadialGrid(1e-5, 60.0, 4001)
        zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
        prof = h_profile(zero, zero, grid)
        f, g = build_rescaled_state(gs.f(grid.r), gs.g(grid.r), prof)
        norm = grid.integrate((gs.f(grid.r) ** 2 + gs.g(grid.r) ** 2)
                              * grid.r**2)
        assert np.allclose(f, gs.f(grid.r) / math.sqrt(norm), rtol=1e-12)

    def test_growing_branch_not_normalizable(self):
        # mu large enough that e^{+h} overcomes the Coulomb decay in-grid
        lam, kappa0, mu, m = 0.5, -1, 0.1, 1.0
        gs, v1, v2 = _linear_pair(lam, kappa0, mu, m)
        grid = RadialGrid(1e-5, 120.0, 4001)
        prof = h_profile(v1, v2, grid, branch="+")
        with pytest.raises(NormalizationError):
            build_rescaled_state(gs.f(grid.r), gs.g(grid.r), prof)

    def test_rescaled_residual_linear_case(self):
        lam, kappa0, mu, m = 0.3, -2, 1e-4, 1.0
        gs, v1, v2 = _linear_pair(lam, kappa0, mu, m)
        grid = RadialGrid(1e-4, 80.0, 4001)
        prof = h_profile(v1, v2, grid)
        rn = grid.r
        resid = rescaled_residual(gs.f(rn), gs.f(rn) * gs.log_derivative(rn),
                                  gs.g(rn), gs.g(rn) * gs.log_derivative(rn),
                                  prof, lambda r: -lam / r, gs.energy,
                                  kappa0, m)
        assert resid < 1e-8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_closed_form_and_rescaled_coulomb_agree(self):
        # criterion 08(b)'s state, by the ansatz and by e^h times the
        # Coulomb ground state: one relative defect, rounding level for both
        lam, kappa0, mu, m = 0.5, -1, 1e-4, 1.0
        gs, v1, v2 = _linear_pair(lam, kappa0, mu, m)
        grid = RadialGrid(1e-5, 60.0, 8001)
        prof = h_profile(v1, v2, grid, branch="-")
        rn = grid.r
        assert radial_residual(build_ansatz(lam, mu, kappa0, m), grid) <= 1e-13
        resid = rescaled_residual(gs.f(rn), gs.f(rn) * gs.log_derivative(rn),
                                  gs.g(rn), gs.g(rn) * gs.log_derivative(rn),
                                  prof, lambda r: -lam / r, gs.energy,
                                  kappa0, m)
        assert resid <= 1e-13


class TestRatioCondition:
    def test_preserved_state_passes(self):
        lam, kappa0, mu, m = 0.5, -1, 1e-4, 1.0
        gs, v1, v2 = _linear_pair(lam, kappa0, mu, m)
        grid = RadialGrid(1e-4, 60.0, 4001)
        report = check_ratio_condition(gs.f(grid.r), gs.g(grid.r), v1, v2,
                                       grid)
        assert report.max_root_deviation <= 1e-8
        assert report.constancy_defect <= 1e-8

    def test_detuned_v2_breaks_root_match(self):
        lam, kappa0, mu, m = 0.5, -1, 1e-4, 1.0
        gs, v1, v2 = _linear_pair(lam, kappa0, mu, m)
        grid = RadialGrid(1e-4, 60.0, 2001)
        v2_detuned = lambda r: 1.05 * v2(r)
        report = check_ratio_condition(gs.f(grid.r), gs.g(grid.r), v1,
                                       v2_detuned, grid)
        assert report.max_root_deviation > 0.01
        assert report.constancy_defect <= 1e-12  # the state itself is fine

    def test_excited_state_fails(self):
        # one-node 2S-like state: the ratio g0/f0 cannot be constant
        lam, m = 0.5, 1.0
        e_ref = dirac_coulomb_energy(2, -1, lam, m)
        pot = coulomb_potential(lam)
        grid = RadialGrid(
            1e-6 / lam,
            suggest_rmax(pot, -1, e_ref, m, r_start=16.0 / lam),
            12000,
        )
        state = find_bound_state(pot, -1, m, grid,
                                 (e_ref - 0.005, e_ref + 0.005), 1)
        gs, v1, v2 = _linear_pair(lam, -1, 1e-4, m)
        report = check_ratio_condition(state.f, state.g, v1, v2, grid)
        assert report.constancy_defect > 0.1


class TestBagModel:
    def test_m20_preserved(self):
        case = bag_model_case(A=1.0, r0=10.0, M=20, lam=0.5, kappa0=-1)
        assert case.residual <= 1e-8
        assert case.energy == pytest.approx(
            dirac_coulomb_energy(1, -1, 0.5), rel=1e-15)

    def test_m1000_log_domain(self):
        case = bag_model_case(A=1.0, r0=10.0, M=1000, lam=0.5, kappa0=-1)
        assert case.residual <= 1e-8
        # inside the bag the wall factor is numerically exactly 1
        r_in = case.grid.r[case.grid.r < 0.97 * 10.0]
        h_in = np.interp(r_in, case.grid.r, case.profile.h)
        assert np.max(np.abs(np.exp(h_in - case.profile.h[0]) - 1.0)) < 1e-10

    def test_m0_constant_shell(self):
        case = bag_model_case(A=0.05, r0=10.0, M=0, lam=0.5, kappa0=-1)
        assert case.residual <= 1e-8

    def test_kappa0_minus2(self):
        case = bag_model_case(A=1.0, r0=20.0, M=20, lam=0.3, kappa0=-2)
        assert case.residual <= 1e-8
        assert case.energy == pytest.approx(
            dirac_coulomb_energy(2, -2, 0.3), rel=1e-15)

    def test_sign_constraint(self):
        with pytest.raises(DomainError):
            bag_model_case(A=-1.0, r0=10.0, M=20, lam=0.5, kappa0=-1)

    @pytest.mark.parametrize("A", [math.nan, math.inf])
    def test_wall_height_must_be_finite(self, A):
        # both passed an A <= 0 check and ended in a ConvergenceError about
        # the tail walk, A = inf after a run of RuntimeWarnings
        with pytest.raises(DomainError, match="A must be finite and positive"):
            bag_model_case(A=A, r0=10.0, M=20, lam=0.5, kappa0=-1)

    @pytest.mark.parametrize("r0", [math.nan, math.inf])
    def test_radius_must_be_finite(self, r0):
        # nan passed an r0 <= 0 check and ended in the tail walk's
        # ConvergenceError, inf in a DomainError about r_start
        with pytest.raises(DomainError, match="r0 must be finite and positive"):
            bag_model_case(A=1.0, r0=r0, M=20, lam=0.5, kappa0=-1)

    @pytest.mark.parametrize("m", [math.nan, math.inf])
    def test_mass_must_be_finite(self, m):
        with pytest.raises(DomainError,
                           match="mass must be finite and positive"):
            bag_model_case(A=1.0, r0=10.0, M=20, lam=0.5, kappa0=-1, m=m)


# bytes of bag_model_case(A=1, r0=10, lam=0.5, kappa0=-1) at 20,000 points:
# sha256 of profile.h, residual.hex(), energy.hex()
_BAG_PINS = {
    20: ("1d21b20c28b035a00c5ab7eeb71c08e80ba309e2c16e6daba731172511df8d34",
         "0x1.ab9a65710fdf8p-51", "0x1.bb67ae8584caap-1"),
    50: ("e47c5d42a958ea2a034f2179ee78c3cddeacc0a9ec5856a9006c3dae97f4e5e6",
         "0x1.6f2271e64fc72p-51", "0x1.bb67ae8584caap-1"),
    100: ("31094d8e01dec2fba3deb72e5def44596fc96bed23769ceab1257609c338690f",
          "0x1.796dc1225b474p-51", "0x1.bb67ae8584caap-1"),
    1000: ("df6f32affba5c8eea451a32b4997a6dc9da2a3c15e6e5995228ef99064cbea8c",
           "0x1.b8478f8d006a1p-52", "0x1.bb67ae8584caap-1"),
}


class TestBagPins:
    """Every bit of the bag solve, pinned so a faster path cannot move one."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("M", sorted(_BAG_PINS))
    def test_profile_residual_and_energy_bytes(self, M):
        case = bag_model_case(A=1.0, r0=10.0, M=M, lam=0.5, kappa0=-1,
                              points=20000)
        h_hash, residual, energy = _BAG_PINS[M]
        assert hashlib.sha256(case.profile.h.tobytes()).hexdigest() == h_hash
        assert case.residual.hex() == residual
        assert case.energy.hex() == energy

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wall_with_no_live_node(self):
        # A e^0 = 1e300 everywhere: the residual has nothing to measure
        case = bag_model_case(A=1e300, r0=1e-300, M=0, lam=0.5, kappa0=-1,
                              points=200)
        assert case.residual == math.inf
        assert hashlib.sha256(case.profile.h.tobytes()).hexdigest() == (
            "6f69c619c854fe11d9f1c08ccf273f5c518c0e458b12d80026caf8cde21be944")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_saturating_wall_message(self):
        # the tail walk reaches the state's radius, ~1e38 in units of 1/m,
        # and the saturated wall's defect there is not finite
        case = bag_model_case(A=6.38540964788881e+16, r0=10.0, M=266,
                              lam=0.99999, kappa0=-2, m=1.1754943508222875e-38,
                              points=702)
        assert case.residual == math.inf
