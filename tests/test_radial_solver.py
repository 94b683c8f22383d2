import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import diraconf.radial_solver as rs
from diraconf.ansatz import build_ansatz, evaluate_spinor, nu_fine_tuned
from diraconf.coulomb import dirac_coulomb_energy, schrodinger_energy
from diraconf.errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    WrongStateError,
)
from diraconf.fw_effective import antiparticle_spectrum_airy, first_order_shift
from diraconf.quantum_numbers import radial_nodes
from diraconf.radial_solver import (
    RadialGrid,
    ShiftStudy,
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
    suggest_rmax_schrodinger,
)


def _preserved_case(lam=0.3, kappa0=-2, mu=1e-5, m=1.0, points=1000):
    """Preserved-level problem: potential, grid and reference energy."""
    n0 = -kappa0
    e_ref = dirac_coulomb_energy(n0, kappa0, lam, m)
    grid = coulomb_grid(lam, n0, kappa0, m, points)
    pot = coulomb_plus_linear(lam, mu, nu_fine_tuned(mu, lam, kappa0))
    return pot, grid, e_ref


def _airy_case(mu=0.3, m=1.0, count=3, points=1000):
    slope = 2.0 * mu
    refs = antiparticle_spectrum_airy(mu, m, count=count)

    def v(r):
        return slope * np.asarray(r, dtype=float)

    return v, airy_grid(v, slope, refs[-1], m, points), refs


def _integrate_radial(potential, kappa, E, m, grid, inward=False):
    """Raw (f, g) of one full-grid ``_propagate`` sweep at energy E, outward
    from the series start or inward from the WKB tail, peak magnitude
    scaled to 1."""
    system = rs._DiracSystem(potential, kappa, m, grid)
    f, g, logscale = rs._propagate(system, E, system.coefficients(E), inward,
                                   0 if inward else grid.count - 1)
    scale = np.exp(logscale - rs._log_peak(f, g, logscale))
    return f * scale, g * scale


@pytest.fixture
def defect_calls(monkeypatch):
    """Counts evaluations of the matching defect."""
    calls = [0]
    original = rs._matching_defect

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(rs, "_matching_defect", counted)
    return calls


@pytest.fixture
def sweep_calls(monkeypatch):
    """Counts RK4 kernel calls and coefficient-table builds, and records
    the steps each kernel call actually took: its outputs are filled with
    NaN first, and every step writes one finite node."""
    calls = {"kernel": 0, "coefficients": 0, "steps": []}
    kernel = rs.rk4_linear2x2

    def counted_kernel(*args):
        calls["kernel"] += 1
        y1 = args[8]
        y1.fill(math.nan)
        status = kernel(*args)
        calls["steps"].append(int(np.count_nonzero(~np.isnan(y1))) - 1)
        return status

    monkeypatch.setattr(rs, "rk4_linear2x2", counted_kernel)
    for cls in (rs._DiracSystem, rs._SchrodingerSystem):
        def counted_build(self, E, build=cls.coefficients):
            calls["coefficients"] += 1
            return build(self, E)

        monkeypatch.setattr(cls, "coefficients", counted_build)
    return calls


def _bisect_to_floor(system, E_bracket):
    """Plain bisection of the matching defect down to adjacent floats."""
    lo, hi = E_bracket
    i_match = rs._match_index(system, 0.5 * (lo + hi))

    def defect(E):
        return rs._sweep_pair(system, E, i_match)[0]

    d_lo = defect(lo)
    d_hi = defect(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo if abs(d_lo) < abs(d_hi) else hi
        d_mid = defect(mid)
        if d_mid == 0.0:
            return mid
        if d_lo * d_mid < 0:
            hi, d_hi = mid, d_mid
        else:
            lo, d_lo = mid, d_mid


def _match_gap(system, E, i_match):
    """D(E) of ``rs._energy_step``: y2/y1 of the outward sweep minus y2/y1
    of the inward one at the match node."""
    (fo, go, _), (fi, gi, _) = rs._sweep_pair(system, E, i_match)[1]
    return go[i_match] / fo[i_match] - gi[i_match] / fi[i_match]


class TestGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            RadialGrid(0.0, 1.0, 100)
        with pytest.raises(DomainError):
            RadialGrid(2.0, 1.0, 100)
        with pytest.raises(DomainError):
            RadialGrid(1e-6, 1.0, 4)

    def test_infinite_r_max_rejected(self):
        # ln(inf) spaced every node but the first at inf: the first solve
        # ended in "v0 is not finite at r=nan"
        with pytest.raises(DomainError, match="r_max < inf"):
            RadialGrid(1e-6, math.inf, 100)

    @pytest.mark.parametrize("lam", [0.0, -0.5, math.nan])
    def test_coulomb_grid_needs_positive_lam(self, lam):
        # both ends of the grid scale with 1/lam: lam = 0 used to divide by
        # zero
        with pytest.raises(DomainError, match="lam must be positive"):
            coulomb_grid(lam, 1, -1)

    def test_airy_ladder_needs_a_level(self):
        # states = 0 would take the grid of refs[-1] and solve nothing
        with pytest.raises(DomainError, match="states must be >= 1"):
            airy_ladder(0.3, 1.0, 0, 0.0, 200)

    def test_airy_ladder_needs_a_positive_mass(self):
        # m < 0 made the Airy energies complex: a TypeError in the grid
        with pytest.raises(DomainError, match="m must be finite and positive"):
            airy_ladder(0.3, -1.0, 1, 0.0, 300)

    def test_arrays(self):
        g = RadialGrid(1e-3, 10.0, 101)
        assert g.r[0] == pytest.approx(1e-3, rel=1e-12)
        assert g.r[-1] == pytest.approx(10.0, rel=1e-12)
        assert len(g.r_all) == 201
        assert np.all(np.diff(g.r_all) > 0)
        # midpoints are geometric means on the log grid
        assert g.r_all[1] == pytest.approx(math.sqrt(g.r[0] * g.r[1]), rel=1e-12)

    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None)
    @given(count=st.integers(16, 5000), low=st.floats(-300.0, 300.0),
           decades=st.floats(1e-3, 12.0))
    def test_nodes_are_every_other_radius_of_r_all(self, count, low, decades):
        # r is a strided copy of r_all, whose linspace has half the step of
        # the nodes' linspace: the same floats as exp of the nodes' own
        # linspace, bit for bit
        r_min = 10.0**low
        r_max = r_min * 10.0**decades
        assume(math.isfinite(r_max) and r_max > r_min)
        g = RadialGrid(r_min, r_max, count)
        t = np.linspace(math.log(r_min), math.log(r_max), count)
        expected = np.exp(t)
        assert g.r.tobytes() == expected.tobytes()
        assert g.r.flags.c_contiguous and g.r.base is None

    def test_integrate_log(self):
        g = RadialGrid(1e-7, 60.0, 4000)
        vals = np.exp(-g.r) * g.r**2
        assert g.integrate(vals) == pytest.approx(2.0, rel=1e-10)


class TestIntegrateRadial:
    """Single sweeps of the solver's kernel over a ``_DiracSystem``."""

    def test_log_derivative_match_at_eigenvalue(self):
        lam, kappa, m = 0.5, -1, 1.0
        e = dirac_coulomb_energy(1, kappa, lam, m)
        grid = coulomb_grid(lam, 1, kappa)
        pot = coulomb_potential(lam)
        f_out, g_out = _integrate_radial(pot, kappa, e, m, grid)
        f_in, g_in = _integrate_radial(pot, kappa, e, m, grid, inward=True)
        i = grid.count // 2
        assert g_out[i] / f_out[i] == pytest.approx(g_in[i] / f_in[i],
                                                    rel=1e-8)

    def test_detuned_energy_changes_defect_sign(self):
        lam, kappa, m = 0.5, -1, 1.0
        e = dirac_coulomb_energy(1, kappa, lam, m)
        grid = coulomb_grid(lam, 1, kappa, points=6000)
        pot = coulomb_potential(lam)

        i_match = int(np.searchsorted(grid.r, 3.0))

        def defect(energy):
            f_out, g_out = _integrate_radial(pot, kappa, energy, m, grid)
            f_in, g_in = _integrate_radial(pot, kappa, energy, m, grid,
                                           inward=True)
            i = i_match
            return g_out[i] / f_out[i] - g_in[i] / f_in[i]

        assert defect(e * 0.99) * defect(e * 1.01) < 0

    def test_free_tail_decay_rate(self):
        # no potential, kappa = -1: the evanescent solution is the spherical
        # Hankel profile e^{-qr}/r, so r*f decays at exactly q
        from diraconf.radial_solver import PotentialSpec
        m, e, kappa = 1.0, 0.8, -1
        grid = RadialGrid(0.1, 40.0, 4000)
        f_in, _ = _integrate_radial(PotentialSpec(), kappa, e, m, grid,
                                    inward=True)
        rate = math.sqrt(m * m - e * e)
        sel = (grid.r > 20.0) & (grid.r < 30.0) & (f_in > 0)
        slope = np.polyfit(grid.r[sel], np.log(f_in[sel] * grid.r[sel]), 1)[0]
        assert slope == pytest.approx(-rate, rel=1e-3)

    @pytest.mark.parametrize("kappa", [-1, 1])
    def test_regular_origin_start_matches_free_particle(self, kappa):
        # no Coulomb term: the outward sweep starts on the power series of a
        # potential regular at the origin, and g/f is the free particle's
        # ratio of modified spherical Bessel functions, x = k r
        from scipy.special import spherical_in

        from diraconf.radial_solver import PotentialSpec
        m, e = 1.0, 0.8
        grid = RadialGrid(1e-6, 8.0, 4000)
        f, g = _integrate_radial(PotentialSpec(), kappa, e, m, grid)
        k = math.sqrt(m * m - e * e)
        sel = grid.r > 1e-3
        i0, i1 = spherical_in(0, k * grid.r[sel]), spherical_in(1, k * grid.r[sel])
        want = (k * i1 / ((e + m) * i0) if kappa == -1
                else (m - e) * i0 / (k * i1))
        np.testing.assert_allclose(g[sel] / f[sel], want, rtol=1e-8)

    @pytest.mark.parametrize("lam, kappa", [(0.5, 0), (1.5, -1)])
    def test_state_validation(self, lam, kappa):
        # kappa = 0 names no state; |lam| >= |kappa| has no regular series
        with pytest.raises(DomainError):
            _integrate_radial(coulomb_potential(lam), kappa, 0.9, 1.0,
                              RadialGrid(1e-6, 10, 100))


class TestFindBoundState:
    @pytest.mark.parametrize("lam", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("n,kappa", [
        (1, -1), (2, -1), (3, -1), (2, -2), (3, -2), (2, 1), (3, 1),
    ])
    def test_sommerfeld_regression(self, lam, n, kappa):
        m = 1.0
        e_ref = dirac_coulomb_energy(n, kappa, lam, m)
        grid = coulomb_grid(lam, n, kappa)
        state = find_bound_state(coulomb_potential(lam), kappa, m, grid,
                                 coulomb_bracket(n, kappa, lam, m),
                                 radial_nodes(n, kappa))
        assert state.energy == pytest.approx(e_ref, rel=1e-8)

    @pytest.mark.parametrize("lam", [1e-6, 1e-4, 1e-3, 1e-2])
    @pytest.mark.parametrize("n,kappa", [(1, -1), (2, -1), (2, 1), (3, -3)])
    def test_weak_coupling_stays_bound(self, lam, n, kappa):
        # a quarter of the gap is below 1e-7 m here; a bracket widened to
        # that floor would reach into the continuum (E = 1.00000005 > m for
        # lam = 1e-6, n = 1).  Only the energy is checked: next to m its
        # rounding sets the residual, not the state
        m = 1.0
        e_ref = dirac_coulomb_energy(n, kappa, lam, m)
        state = find_bound_state(coulomb_potential(lam), kappa, m,
                                 coulomb_grid(lam, n, kappa, m),
                                 coulomb_bracket(n, kappa, lam, m),
                                 radial_nodes(n, kappa))
        assert state.energy < m
        assert abs(state.energy - e_ref) <= 4 * math.ulp(e_ref)

    def test_normalization_and_tail(self):
        lam, n, kappa, m = 0.5, 2, -1, 1.0
        grid = coulomb_grid(lam, n, kappa)
        e_ref = dirac_coulomb_energy(n, kappa, lam, m)
        state = find_bound_state(coulomb_potential(lam), kappa, m, grid,
                                 (e_ref - 0.005, e_ref + 0.005), 1)
        norm = grid.integrate((state.f**2 + state.g**2) * grid.r**2)
        assert norm == pytest.approx(1.0, abs=1e-8)
        peak = np.max(np.abs(state.f))
        assert abs(state.f[-1]) < 1e-10 * peak
        assert state.nodes_f == 1

    def test_preserved_state_matches_ansatz_pointwise(self):
        lam, kappa0, mu, m = 0.5, -1, 1e-4, 1.0
        params = build_ansatz(lam, mu, kappa0, m)
        pot = coulomb_plus_linear(lam, mu, params.couplings.nu)
        grid = coulomb_grid(lam, 1, kappa0)
        e = params.energy
        state = find_bound_state(pot, kappa0, m, grid, (e - 0.01, e + 0.01), 0)
        f_ref, g_ref = evaluate_spinor(params, grid.r)
        norm = grid.integrate((f_ref**2 + g_ref**2) * grid.r**2)
        f_ref /= math.sqrt(norm)
        g_ref /= math.sqrt(norm)
        window = (grid.r > 0.1 / (lam * m)) & (grid.r < 10.0 / (lam * m))
        scale = np.max(np.abs(f_ref))
        assert np.max(np.abs(state.f[window] - f_ref[window])) / scale < 1e-6
        assert np.max(np.abs(state.g[window] - g_ref[window])) / scale < 1e-6

    def test_node_count_monotonic_energies(self):
        lam, kappa, m = 0.5, -1, 1.0
        energies = []
        for n in (1, 2, 3):
            grid = coulomb_grid(lam, n, kappa, points=12000)
            state = find_bound_state(coulomb_potential(lam), kappa, m, grid,
                                     coulomb_bracket(n, kappa, lam, m), n - 1)
            energies.append(state.energy)
        assert energies[0] < energies[1] < energies[2]

    def test_integrator_fourth_order(self):
        # trajectory-level convergence: seed the outward sweep with the exact
        # nodeless Coulomb state and compare the endpoint against the closed
        # form; the eigenvalue itself saturates machine precision long before
        # truncation is visible, so the order is checked on the trajectory
        from diraconf._kernels import rk4_linear2x2
        lam, m, kappa = 0.5, 1.0, -1
        b = math.sqrt(kappa * kappa - lam * lam)
        a = m * lam
        gamma = lam / (abs(kappa) + b)
        e = m * math.sqrt(1.0 - lam * lam)

        def endpoint_error(n_pts):
            r = np.linspace(0.5, 8.0, 2 * n_pts - 1)
            p = e + m + lam / r
            q = e - m + lam / r
            a11 = -(kappa + 1.0) / r
            a12 = p
            a21 = -q
            a22 = (kappa - 1.0) / r
            steps = np.diff(r[::2])
            f0 = r[0] ** (b - 1.0) * math.exp(-a * r[0])
            g0 = -gamma * f0
            f = np.empty(n_pts)
            g = np.empty(n_pts)
            sc = np.empty(n_pts)
            assert rk4_linear2x2(steps, a11, a12, a21, a22, f0, g0, False,
                                 f, g, sc, n_pts - 1) == 0
            exact = r[-1] ** (b - 1.0) * math.exp(-a * r[-1])
            return abs(f[-1] - exact) / exact

        ratio = endpoint_error(200) / endpoint_error(400)
        assert 12.0 < ratio < 22.0

    def test_energy_accurate_even_on_coarse_grids(self):
        lam, n, kappa, m = 0.5, 1, -1, 1.0
        e_ref = dirac_coulomb_energy(n, kappa, lam, m)
        grid = coulomb_grid(lam, n, kappa, points=900)
        state = find_bound_state(coulomb_potential(lam), kappa, m, grid,
                                 (e_ref - 0.01, e_ref + 0.01), 0)
        assert abs(state.energy - e_ref) < 1e-10

    def test_bracket_error(self):
        lam, m = 0.5, 1.0
        grid = coulomb_grid(lam, 1, -1, points=4000)
        with pytest.raises(BracketError):
            find_bound_state(coulomb_potential(lam), -1, m, grid,
                             (0.99, 0.999), 0)

    def test_wrong_state_error(self):
        lam, m = 0.5, 1.0
        grid = coulomb_grid(lam, 1, -1, points=6000)
        e1 = dirac_coulomb_energy(1, -1, lam, m)
        with pytest.raises(WrongStateError) as err:
            find_bound_state(coulomb_potential(lam), -1, m, grid,
                             (e1 - 0.01, e1 + 0.01), 3)
        assert err.value.found_nodes == 0
        assert err.value.target_nodes == 3
        assert "np.float64" not in str(err.value)


class TestFiniteTables:
    """The sampled potential is checked once, before any sweep."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_names_the_first_bad_radius(self):
        grid = RadialGrid(1e-3, 10.0, 101)

        def v1(r):
            return np.where(r < 2.0, 0.0, np.nan)

        with pytest.raises(DomainError, match="v1 is not finite at r=") as exc:
            find_bound_state(rs.PotentialSpec(v1=v1), -1, 1.0, grid,
                             (0.5, 0.9), 0)
        r_bad = float(str(exc.value).rsplit("r=", 1)[1])
        assert r_bad == grid.r_all[np.argmax(grid.r_all >= 2.0)]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_while_sampling_is_a_domain_error(self):
        grid = RadialGrid(1e-3, 10.0, 101)
        with pytest.raises(DomainError, match=r"v is not finite at "
                                              r"r=0\.0010+2 \(overflow"):
            rs.solve_schrodinger_radial(lambda r: 1e308 / r, 0, 1.0, grid,
                                        (1.5, 2.0), 0)


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("table", ["v1", "m + v1 - v0 - v2"])
    def test_overflow_at_the_last_node_only(self, table):
        # the tables are sampled in one pass: an overflow at the last
        # radius, in a potential or in a table built from them, still
        # names that table and radius
        grid = RadialGrid(1e-3, 10.0, 101)
        r_last = grid.r_all[-1]

        def last(r, value):
            return np.where(r < r_last, 0.0, value)

        if table == "v1":  # 1e300 * 1e10 in the potential itself
            def v1(r):
                return last(r, 1e300) * (1.0 + last(r, 1e10))

            v2 = rs._zero
        else:  # v1 and v2 finite, m + v1 - v0 - v2 = 2e308
            def v1(r):
                return last(r, 1e308)

            def v2(r):
                return last(r, -1e308)

        with pytest.raises(DomainError) as exc:
            rs._DiracSystem(rs.PotentialSpec(v1=v1, v2=v2), -1, 1.0, grid)
        message = str(exc.value)
        assert message.startswith(f"{table} is not finite at r=")
        assert float(message.split("r=", 1)[1].split(" ")[0]) == r_last
        assert "overflow" in message


class TestHotPath:
    """What the per-system and per-energy precomputation must not change."""

    @pytest.mark.parametrize("equation", ["dirac", "schrodinger"])
    def test_sweep_pairs_do_not_alias_reused_buffers(self, equation):
        if equation == "dirac":
            pot, grid, e_ref = _preserved_case()
            system = rs._DiracSystem(pot, -2, 1.0, grid)
            e1, e2 = e_ref - 1e-5, e_ref + 2e-5
        else:
            v, grid, refs = _airy_case()
            system = rs._SchrodingerSystem(v, 0, 1.0, grid)
            e1, e2 = refs[0] - 0.05, refs[1]
        i = rs._match_index(system, e1)

        def sweeps_bytes(pair):
            return [a.tobytes() for sweep in pair for a in sweep]

        d1, pair1 = rs._sweep_pair(system, e1, i)
        before = sweeps_bytes(pair1)
        d2, pair2 = rs._sweep_pair(system, e2, i)
        assert d1 != d2
        assert sweeps_bytes(pair1) == before
        tables = system.coefficients(e1)
        arrays = [a for sweep in pair1 + pair2 for a in sweep]
        assert not any(np.shares_memory(a, b)
                       for k, a in enumerate(arrays)
                       for b in arrays[k + 1:] + list(tables))

    @pytest.mark.parametrize("case", ["dirac-inward-divide",
                                      "dirac-outward-overflow",
                                      "schrodinger-outward-overflow"])
    def test_failing_seed_is_a_convergence_error(self, case):
        # plain-float seeds raise ZeroDivisionError or OverflowError where
        # numpy scalars gave inf or NaN (and a warning); either way the
        # sweep ends in ConvergenceError, now with no warning
        if case == "dirac-inward-divide":
            grid = RadialGrid(1e-4, 30.0, 64)
            system = rs._DiracSystem(coulomb_potential(0.5), -1, 1.0, grid)
            E = -float(system.p_tilde[-1])  # E + p_tilde[-1] == 0
            reverse = True
        elif case == "dirac-outward-overflow":
            # r0 ** (s - 1) with s - 1 ~ -0.986 leaves the float range
            grid = RadialGrid(1e-320, 1.0, 64)
            system = rs._DiracSystem(rs.PotentialSpec(coulomb_strength=0.9999),
                                     -1, 1.0, grid)
            E, reverse = 0.5, False
        else:
            # r0 ** (ell + 1) leaves the float range
            grid = RadialGrid(1e103, 1e104, 64)
            system = rs._SchrodingerSystem(lambda r: 0.0 * r, 2, 1.0, grid)
            E, reverse = 1.5, False
        with pytest.raises(ConvergenceError, match="non-finite"):
            rs._propagate(system, E, system.coefficients(E), reverse,
                          0 if reverse else grid.count - 1)


class TestEigenvalueSearch:
    def test_preserved_level_evaluation_budget(self, defect_calls):
        pot, grid, e_ref = _preserved_case()
        state = find_bound_state(pot, -2, 1.0, grid,
                                 (e_ref - 0.4e-4, e_ref + 0.6e-4), 0)
        assert abs(state.energy - e_ref) < 1e-8
        assert defect_calls[0] <= 4

    def test_airy_ground_state_evaluation_budget(self, defect_calls):
        v, grid, refs = _airy_case()
        state = solve_schrodinger_radial(v, 0, 1.0, grid,
                                         (refs[0] - 0.08, refs[0] + 0.12), 0)
        assert state.energy == pytest.approx(refs[0], rel=1e-6)
        assert defect_calls[0] <= 6

    @pytest.mark.parametrize("equation", ["dirac", "schrodinger"])
    def test_each_energy_swept_once(self, defect_calls, sweep_calls,
                                    equation):
        # one coefficient build and one outward/inward pair per evaluated
        # energy; the merge reuses the pair of the returned energy
        if equation == "dirac":
            pot, grid, e_ref = _preserved_case()
            find_bound_state(pot, -2, 1.0, grid,
                             (e_ref - 0.4e-4, e_ref + 0.6e-4), 0)
        else:
            v, grid, refs = _airy_case()
            solve_schrodinger_radial(v, 0, 1.0, grid,
                                     (refs[0] - 0.08, refs[0] + 0.12), 0)
        assert defect_calls[0] > 2
        assert sweep_calls["kernel"] == 2 * defect_calls[0]
        assert sweep_calls["coefficients"] == defect_calls[0]

    @pytest.mark.parametrize("equation", ["dirac", "schrodinger"])
    def test_each_energy_swept_across_the_window(self, monkeypatch,
                                                 sweep_calls, equation):
        # the match point is found once per solve, at the bracket's
        # midpoint; the outward sweep stops there and the inward one
        # starts there: n - 1 RK4 steps per energy, not 2 (n - 1), and the
        # merge sweeps nothing more
        match_calls = []
        match_index = rs._match_index

        def counted(system, E):
            match_calls.append(E)
            return match_index(system, E)

        monkeypatch.setattr(rs, "_match_index", counted)
        if equation == "dirac":
            pot, grid, e_ref = _preserved_case()
            bracket = (e_ref - 0.4e-4, e_ref + 0.6e-4)
            system = rs._DiracSystem(pot, -2, 1.0, grid)
            find_bound_state(pot, -2, 1.0, grid, bracket, 0)
        else:
            v, grid, refs = _airy_case()
            bracket = (refs[0] - 0.08, refs[0] + 0.12)
            system = rs._SchrodingerSystem(v, 0, 1.0, grid)
            solve_schrodinger_radial(v, 0, 1.0, grid, bracket, 0)
        assert match_calls == [0.5 * sum(bracket)]
        n = grid.count
        i_match = match_index(system, match_calls[0])
        evaluations = sweep_calls["kernel"] // 2
        assert evaluations > 2
        assert sweep_calls["steps"] == [i_match, n - 1 - i_match] * evaluations

    def test_match_point_with_no_allowed_node(self):
        # the bracket's midpoint lies below the potential minimum, so no
        # node is classically allowed there: the match point falls back to
        # the node nearest to being allowed (hence a bracket of its own,
        # not the ladder's)
        v, grid, refs = _airy_case(mu=0.1, count=2, points=4001)
        bracket = (-1.2, refs[0] + 0.45 * (refs[1] - refs[0]))
        system = rs._SchrodingerSystem(v, 0, 1.0, grid)
        assert not np.any(system.allowed_region(0.5 * sum(bracket)) > 0)
        state = solve_schrodinger_radial(v, 0, 1.0, grid, bracket, 0)
        assert state.energy == pytest.approx(refs[0], rel=1e-10)

    def test_energies_are_python_floats(self):
        pot, grid, e_ref = _preserved_case()
        dirac = find_bound_state(pot, -2, 1.0, grid,
                                 (e_ref - 0.4e-4, e_ref + 0.6e-4), 0)
        v, grid, refs = _airy_case()
        scalar = solve_schrodinger_radial(v, 0, 1.0, grid,
                                          (refs[0] - 0.08, refs[0] + 0.12), 0)
        assert type(dirac.energy) is float
        assert type(scalar.energy) is float

    @pytest.mark.parametrize("level", ["coulomb-n2", "preserved", "airy-k2"])
    def test_matches_bisection_to_the_floor(self, level):
        m = 1.0
        if level == "coulomb-n2":
            lam, kappa = 0.5, -1
            e_ref = dirac_coulomb_energy(2, kappa, lam, m)
            grid = coulomb_grid(lam, 2, kappa, points=1000)
            pot = coulomb_potential(lam)
            bracket = (e_ref - 0.004, e_ref + 0.005)
            energy = find_bound_state(pot, kappa, m, grid, bracket, 1).energy
            system = rs._DiracSystem(pot, kappa, m, grid)
        elif level == "preserved":
            pot, grid, e_ref = _preserved_case()
            bracket = (e_ref - 0.3e-4, e_ref + 0.7e-4)
            energy = find_bound_state(pot, -2, m, grid, bracket, 0).energy
            system = rs._DiracSystem(pot, -2, m, grid)
        else:
            v, grid, refs = _airy_case()
            bracket = (refs[2] - 0.09, refs[2] + 0.11)
            energy = solve_schrodinger_radial(v, 0, m, grid, bracket,
                                              2).energy
            system = rs._SchrodingerSystem(v, 0, m, grid)
        assert abs(energy - _bisect_to_floor(system, bracket)) <= 2e-15 * m

    @pytest.mark.parametrize("equation", ["dirac", "schrodinger"])
    def test_corrector_is_newton_on_the_match_gap(self, equation):
        # -D/D' with D' from the sweeps' norms (the energy derivative of the
        # Wronskian) against D' by a central difference of D
        if equation == "dirac":
            pot, grid, e_ref = _preserved_case()
            system = rs._DiracSystem(pot, -2, 1.0, grid)
            E, delta = e_ref + 2e-5, 1e-9
        else:
            v, grid, refs = _airy_case()
            system = rs._SchrodingerSystem(v, 0, 1.0, grid)
            E, delta = refs[1] + 0.03, 1e-5
        i = rs._match_index(system, E)
        step = rs._energy_step(system, rs._sweep_pair(system, E, i)[1], i)
        slope = (_match_gap(system, E + delta, i)
                 - _match_gap(system, E - delta, i)) / (2.0 * delta)
        assert step == pytest.approx(-_match_gap(system, E, i) / slope,
                                     rel=1e-4)

    def test_forced_fallback_matches_bisection(self, monkeypatch):
        # a corrector that is not finite sweeps the caller's bracket ends
        # once, and bisection carries the search to the floor
        end_calls = []
        bracket_ends = rs._bracket_ends

        def counted(*args):
            end_calls.append(args[1:3])
            return bracket_ends(*args)

        monkeypatch.setattr(rs, "_energy_step", lambda *args: math.nan)
        monkeypatch.setattr(rs, "_bracket_ends", counted)
        pot, grid, e_ref = _preserved_case()
        bracket = (e_ref - 0.3e-4, e_ref + 0.7e-4)
        energy = find_bound_state(pot, -2, 1.0, grid, bracket, 0).energy
        assert end_calls == [bracket]
        system = rs._DiracSystem(pot, -2, 1.0, grid)
        assert abs(energy - _bisect_to_floor(system, bracket)) <= 2e-15

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(lam=st.floats(0.05, 0.9), n=st.integers(1, 3),
           kappa_index=st.integers(0, 5), offset=st.floats(0.1, 0.9))
    # a stop at 2 eps |E| left this level 6 ulp from bisection
    @example(lam=0.890625, n=1, kappa_index=0, offset=0.890625)
    def test_coulomb_levels_match_bisection(self, lam, n, kappa_index,
                                            offset):
        kappas = [k for k in range(-n, n) if k != 0]
        kappa = kappas[kappa_index % len(kappas)]
        lo, hi = coulomb_bracket(n, kappa, lam, 1.0)
        e_ref = dirac_coulomb_energy(n, kappa, lam, 1.0)
        width = hi - lo
        bracket = (e_ref - width * offset, e_ref + width * (1 - offset))
        grid = coulomb_grid(lam, n, kappa, 1.0, 1000)
        pot = coulomb_potential(lam)
        energy = find_bound_state(pot, kappa, 1.0, grid, bracket,
                                  radial_nodes(n, kappa)).energy
        system = rs._DiracSystem(pot, kappa, 1.0, grid)
        assert abs(energy - _bisect_to_floor(system, bracket)) <= (
            4 * math.ulp(energy))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(mu=st.floats(0.05, 1.0), k=st.integers(0, 2),
           offset=st.floats(0.1, 0.9))
    def test_airy_levels_match_bisection(self, mu, k, offset):
        v, grid, refs = _airy_case(mu=mu, count=4)
        width = 0.5 * (refs[k + 1] - refs[k])
        bracket = (refs[k] - width * offset, refs[k] + width * (1 - offset))
        energy = solve_schrodinger_radial(v, 0, 1.0, grid, bracket, k).energy
        system = rs._SchrodingerSystem(v, 0, 1.0, grid)
        assert abs(energy - _bisect_to_floor(system, bracket)) <= (
            4 * math.ulp(energy))

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(mu=st.floats(0.05, 1.0), core=st.floats(0.005, 0.05),
           k=st.integers(0, 2), offset=st.floats(0.1, 0.9))
    def test_cored_airy_levels_match_bisection(self, mu, core, k, offset):
        # the core lifts a level by less than half of 2 core / r_char (the
        # ladder's shift_room), and that lift is under a third of the
        # spacing here: the bracket holds the level and no other
        slope = 2.0 * mu
        refs = antiparticle_spectrum_airy(mu, 1.0, count=4)

        def v(r):
            r = np.asarray(r, dtype=float)
            return slope * r + core / r

        grid = airy_grid(v, slope, refs[-1], 1.0, 1000)
        width = 0.5 * (refs[k + 1] - refs[k])
        lift = 2.0 * core * math.cbrt(2.0 * slope)
        bracket = (refs[k] - width * offset,
                   refs[k] + width * (1 - offset) + lift)
        energy = solve_schrodinger_radial(v, 0, 1.0, grid, bracket, k,
                                          coulomb_coeff=core).energy
        system = rs._SchrodingerSystem(v, 0, 1.0, grid, core)
        assert abs(energy - _bisect_to_floor(system, bracket)) <= (
            4 * math.ulp(energy))

    def test_wide_bracket_takes_no_fallback(self, monkeypatch, defect_calls):
        # Newton's second step is 0.65 of its first: a rule of at most half
        # the last step swept the ends here and took 14 energies, while
        # rtsafe's rule (half the step before last) takes the step
        end_calls = []
        bracket_ends = rs._bracket_ends

        def counted(*args):
            end_calls.append(args[1:3])
            return bracket_ends(*args)

        monkeypatch.setattr(rs, "_bracket_ends", counted)
        lam, n, kappa = 0.35, 3, 2
        lo, hi = coulomb_bracket(n, kappa, lam, 1.0)
        e_ref = dirac_coulomb_energy(n, kappa, lam, 1.0)
        width = hi - lo
        bracket = (e_ref - 0.2 * width, e_ref + 0.8 * width)
        grid = coulomb_grid(lam, n, kappa, 1.0, 1000)
        energy = find_bound_state(coulomb_potential(lam), kappa, 1.0, grid,
                                  bracket, radial_nodes(n, kappa)).energy
        assert energy.hex() == "0x1.fc7ab93187fd0p-1"
        assert defect_calls[0] <= 7
        assert end_calls == []

    def test_iteration_cap_raises(self, monkeypatch):
        pot, grid, e_ref = _preserved_case()
        monkeypatch.setattr(rs, "_MAX_DEFECT_EVALS", 3)
        with pytest.raises(ConvergenceError):
            find_bound_state(pot, -2, 1.0, grid,
                             (e_ref - 0.4e-4, e_ref + 0.6e-4), 0)

    def test_nan_potential_raises(self):
        # rejected when the table is sampled, before the kernel sees it
        _, grid, refs = _airy_case()
        with pytest.raises(DomainError, match="v is not finite at r="):
            solve_schrodinger_radial(lambda r: np.full_like(r, np.nan), 0,
                                     1.0, grid, (refs[0] - 0.1, refs[0] + 0.1),
                                     0)

    @pytest.mark.parametrize("bad_call", [0, 1, 4])
    def test_nan_defect_raises(self, monkeypatch, bad_call):
        # at the bracket's midpoint (call 0), at the first Newton iterate
        # (call 1), or inside the bisection that a non-finite corrector
        # forces: after the midpoint and the two bracket ends, call 4 is
        # the second bisection
        pot, grid, e_ref = _preserved_case()
        calls = [0]
        original = rs._matching_defect

        def poisoned(*args):
            calls[0] += 1
            return math.nan if calls[0] - 1 == bad_call else original(*args)

        monkeypatch.setattr(rs, "_matching_defect", poisoned)
        if bad_call == 4:
            monkeypatch.setattr(rs, "_energy_step", lambda *args: math.nan)
        with pytest.raises(ConvergenceError, match="non-finite matching"):
            find_bound_state(pot, -2, 1.0, grid,
                             (e_ref - 0.4e-4, e_ref + 0.6e-4), 0)
        assert calls[0] == bad_call + 1

    @pytest.mark.parametrize("end", [0, 1])
    def test_zero_defect_at_a_bracket_end(self, monkeypatch, end):
        # the first failed step sweeps the caller's ends; a defect of
        # exactly 0 there is the root, returned with that end's pair
        pot, grid, e_ref = _preserved_case()
        bracket = (e_ref - 0.4e-4, e_ref + 0.6e-4)
        sweep_pair = rs._sweep_pair
        swept = {}

        def zero_at_end(system, E, i_match):
            d, pair = sweep_pair(system, E, i_match)
            swept[E] = pair
            return (0.0 if E == bracket[end] else d), pair

        monkeypatch.setattr(rs, "_sweep_pair", zero_at_end)
        monkeypatch.setattr(rs, "_energy_step", lambda *args: math.nan)
        system = rs._DiracSystem(pot, -2, 1.0, grid)
        energy, pair, _ = rs._solve_eigenvalue(system, bracket)
        assert energy == bracket[end]
        assert pair is swept[bracket[end]]
        assert len(swept) == 3  # the midpoint and the two ends

    def test_budget_stops_before_the_end_sweeps(self, monkeypatch,
                                                defect_calls):
        # a failed first step with no room left for the two end sweeps
        # raises at once, with the midpoint as the partial result
        pot, grid, e_ref = _preserved_case()
        bracket = (e_ref - 0.4e-4, e_ref + 0.6e-4)
        end_calls = []
        monkeypatch.setattr(rs, "_bracket_ends",
                            lambda *args: end_calls.append(args))
        monkeypatch.setattr(rs, "_energy_step", lambda *args: math.nan)
        monkeypatch.setattr(rs, "_MAX_DEFECT_EVALS", 2)
        system = rs._DiracSystem(pot, -2, 1.0, grid)
        with pytest.raises(ConvergenceError, match="did not converge") as err:
            rs._solve_eigenvalue(system, bracket)
        assert err.value.partial == 0.5 * (bracket[0] + bracket[1])
        assert defect_calls[0] == 1
        assert end_calls == []

    def test_floor_returns_the_upper_end(self, monkeypatch):
        # a defect that jumps from -2 to +1 at e_ref: bisection closes on
        # the jump, and the end with the smaller defect is the upper one
        pot, grid, e_ref = _preserved_case()
        bracket = (e_ref - 0.4e-4, e_ref + 0.6e-4)
        sweep_pair = rs._sweep_pair

        def step_defect(system, E, i_match):
            return (1.0 if E > e_ref else -2.0), sweep_pair(system, E,
                                                            i_match)[1]

        monkeypatch.setattr(rs, "_sweep_pair", step_defect)
        monkeypatch.setattr(rs, "_energy_step", lambda *args: math.nan)
        system = rs._DiracSystem(pot, -2, 1.0, grid)
        energy, _, _ = rs._solve_eigenvalue(system, bracket)
        assert e_ref < energy <= e_ref + 4.0 * rs._EPS * energy

    def test_merge_without_live_match_point_raises(self):
        # either sweep exactly 0 at the match point: no ratio glues them
        n = 64
        ones, zeros = np.ones(n), np.zeros(n)
        for f_out, f_in in ((zeros, zeros), (ones, zeros), (zeros, ones)):
            pair = ((f_out, ones, zeros), (f_in, ones, zeros))
            with pytest.raises(ConvergenceError,
                               match="zero at the match point"):
                rs._merge_and_scale(pair, 8)

    @pytest.mark.parametrize("equation", ["dirac", "schrodinger"])
    def test_partial_sweeps_merge_as_whole_grid_sweeps(self, equation):
        # the sweeps stop at the match node, and a sweep is sequential: the
        # whole-grid sweeps of the root hold the same floats on the nodes
        # the merge reads, so the glued state has the same bytes
        if equation == "dirac":
            pot, grid, e_ref = _preserved_case()
            system = rs._DiracSystem(pot, -2, 1.0, grid)
            bracket = (e_ref - 0.4e-4, e_ref + 0.6e-4)
        else:
            v, grid, refs = _airy_case()
            system = rs._SchrodingerSystem(v, 0, 1.0, grid)
            bracket = (refs[1] - 0.1, refs[1] + 0.1)
        energy, pair, i_match = rs._solve_eigenvalue(system, bracket)
        assert 8 <= i_match <= grid.count - 9
        tables = system.coefficients(energy)
        whole = (rs._propagate(system, energy, tables, False, grid.count - 1),
                 rs._propagate(system, energy, tables, True, 0))
        merged = rs._merge_and_scale(pair, i_match)
        expected = rs._merge_and_scale(whole, i_match)
        assert [a.tobytes() for a in merged] == [a.tobytes() for a in expected]


class TestSuggestRmax:
    @pytest.mark.parametrize("r_start", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_start(self, r_start):
        with pytest.raises(DomainError):
            suggest_rmax(coulomb_potential(0.5), -1, 0.86, 1.0, r_start)
        with pytest.raises(DomainError):
            suggest_rmax_schrodinger(lambda r: r, 1.5, 1.0, r_start)

    def test_start_beyond_a_steep_wall(self):
        # (m + v1)^2 leaves the float range right at the start: the tail is
        # forbidden there, so one growth step already reaches the target
        from diraconf.radial_solver import PotentialSpec

        def wall(r):
            return np.exp(np.minimum(1000.0 * np.log(np.asarray(r) / 2.0),
                                     700.0))

        pot = PotentialSpec(v0=lambda r: -0.5 / r, v1=wall,
                            v2=lambda r: -0.5 * wall(r), coulomb_strength=0.5)
        assert suggest_rmax(pot, -1, 0.86, 1.0, r_start=4.0) == 4.0 * 1.005


    # float.hex of r_max as the step-by-step r *= 1.005 walk gave it
    @pytest.mark.parametrize("lam, n, kappa, expected", [
        (0.5, 1, -1, "0x1.42224e20931c3p+6"),
        (0.1, 3, 2, "0x1.7c65054ddf020p+10"),
        (0.3, 2, -2, "0x1.3193a781f29a3p+8"),
        (0.9, 4, -1, "0x1.bda6d828acf68p+7"),
    ])
    def test_coulomb_rmax_pinned(self, lam, n, kappa, expected):
        e_ref = dirac_coulomb_energy(n, kappa, lam)
        r_max = suggest_rmax(coulomb_potential(lam), kappa, e_ref, 1.0,
                             r_start=4.0 * n * n / lam)
        assert r_max.hex() == expected
        assert coulomb_grid(lam, n, kappa, points=16).r_max == r_max

    @pytest.mark.parametrize("A, r0, M, lam, kappa0, expected", [
        (1.0, 10.0, 20, 0.5, -1, "0x1.949535a84fe39p+3"),
        (1.0, 8.0, 100, 0.3, -2, "0x1.15e1b8fd35fb6p+3"),
        (1.0, 10.0, 1000, 0.5, -1, "0x1.433f44880b3d9p+3"),
        (1.0, 2.0, 1000, 0.5, -1, "0x1.0147ae147ae14p+2"),   # (m + v1)^2 overflows
        (2.0, 5.0, 1000, 0.2, -3, "0x1.4199999999999p+3"),
    ])
    def test_bag_rmax_pinned(self, A, r0, M, lam, kappa0, expected):
        from diraconf.rescale import bag_model_case
        case = bag_model_case(A, r0, M, lam, kappa0, points=64)
        assert case.grid.r_max.hex() == expected

    # the last two re-pinned once when the Airy zeros became the correctly
    # rounded constants: r_start = 2 (E_top - m)/slope moved with E_top
    # (0x1.286766b7d5d17p+5 and 0x1.ec1eab7642554p+3 before); the second
    # once more when the ladder's scale became math.cbrt of (2 mu)^2/2m:
    # E_top moved 1 ulp (0x1.b97ce7369f964p+1 -> 0x1.b97ce7369f963p+1) and
    # r_max with it (0x1.286766b7d5d2bp+5 before)
    @pytest.mark.parametrize("mu, count, core, expected", [
        (0.5, 3, 0.0, "0x1.118da88d780dfp+4"),
        (0.1, 6, 0.0, "0x1.286766b7d5d2ap+5"),
        (0.5, 2, 0.05, "0x1.ec1eab7642560p+3"),
    ])
    def test_airy_rmax_pinned(self, mu, count, core, expected):
        slope = 2.0 * mu
        refs = antiparticle_spectrum_airy(mu, 1.0, count=count)

        def v(r):
            r = np.asarray(r, dtype=float)
            return slope * r + core / r

        r_max = suggest_rmax_schrodinger(v, refs[-1], 1.0,
                                         r_start=2.0 * (refs[-1] - 1.0) / slope)
        assert r_max.hex() == expected

    @pytest.mark.parametrize("rate, r_start, target", [
        (lambda r: np.full_like(r, 0.5), 1.0, 34.0),        # several chunks
        (lambda r: np.sqrt(np.maximum(r - 5.0, 0.0)), 0.1, 34.0),
        (lambda r: np.where(r > 300.0, 1e3, 0.0), 0.2, 34.0),
        (lambda r: (r / 2.0) ** 200, 1.0, 34.0),             # steep wall
        (lambda r: np.full_like(r, np.nan), 1.0, 0.0),      # target met at once
        (lambda r: np.full_like(r, 0.1), 3.0, 1e-3),        # first step
    ])
    def test_chunked_walk_matches_step_by_step_loop(self, monkeypatch, rate,
                                                    r_start, target):
        monkeypatch.setattr(rs, "_DECAY_TARGET", target)
        r, acc = r_start, 0.0
        while acc < target:
            r_next = r * 1.005
            w = float(rate(np.array([0.5 * (r + r_next)]))[0])
            if w > 0:
                acc += w * (r_next - r)
            r = r_next
        assert rs._tail_radius(rate, r_start) == r

    def test_no_tail_below_1e9_raises(self):
        with pytest.raises(ConvergenceError):
            suggest_rmax_schrodinger(lambda r: np.zeros_like(r), 1.5, 1.0, 1.0)


class TestSchrodinger:
    def test_attractive_coulomb_ground_state(self):
        lam, m = 0.5, 1.0
        e_ref = schrodinger_energy(1, lam, m)
        grid = RadialGrid(1e-6 / (lam * m), 60.0 / (lam * m), 16000)
        state = solve_schrodinger_radial(
            lambda r: -lam / r, 0, m, grid,
            (e_ref - 0.02, e_ref + 0.02), 0, coulomb_coeff=-lam)
        assert state.energy - m == pytest.approx(-lam * lam * m / 2.0, abs=1e-9)
        assert grid.integrate(state.u**2) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("mu", [0.1, 0.5])
    def test_linear_confinement_airy(self, mu):
        refs, _, (state,) = airy_ladder(mu, 1.0, 1, 0.0, 16000)
        assert state.energy == pytest.approx(refs[0], rel=1e-7)

    def test_repulsive_core_positive_shift(self):
        mu, lam, m = 0.5, 0.05, 1.0
        slope = 2.0 * mu
        refs = antiparticle_spectrum_airy(mu, m, count=2)
        v0 = lambda r: slope * r
        v1 = lambda r: slope * r + lam / r
        # both solves keep their own bracket and share the bare slope's
        # grid, so that the shift is a difference on one grid; the core's
        # bracket is widened for its upward shift
        grid = airy_grid(v0, slope, refs[1], m, 16000)
        lo = m + 0.3 * (refs[0] - m)
        hi = refs[0] + 0.45 * (refs[1] - refs[0])
        base = solve_schrodinger_radial(v0, 0, m, grid, (lo, hi), 0)
        pert = solve_schrodinger_radial(v1, 0, m, grid,
                                        (lo, hi + 0.2), 0, coulomb_coeff=lam)
        shift = pert.energy - base.energy
        assert shift > 0
        predicted = lam * grid.integrate(base.u**2 / grid.r)
        assert shift == pytest.approx(predicted, rel=0.1)

    def test_negative_ell_rejected(self):
        with pytest.raises(DomainError, match="ell"):
            solve_schrodinger_radial(lambda r: r, -1, 1.0,
                                     RadialGrid(1e-3, 10.0, 100), (1.0, 2.0), 0)


class TestShiftStudy:
    def test_n2_coefficient(self):
        # lam small enough that the dropped O(lam^2) relativistic correction
        # (~ -0.13 lam^2 relative) sits inside the 1% agreement window
        lam, m = 0.1, 1.0
        study = shift_convergence_study(2, -1, -1, lam, m,
                                        [4e-6, 2e-6, 1e-6], points=12000)
        expected = first_order_shift(2, -1, -1, lam, 1.0, m).total
        assert study.richardson == pytest.approx(expected, rel=0.01)
        assert study.richardson / lam == pytest.approx(2.625, rel=0.01)

    def test_preserved_state_no_shift(self):
        lam, m = 0.1, 1.0
        study = shift_convergence_study(1, -1, -1, lam, m,
                                        [4e-6, 2e-6, 1e-6], points=12000)
        for e in study.energies:
            assert abs(e - study.base_energy) < 1e-8 * m

    def test_slope_stability(self):
        lam, m = 0.1, 1.0
        study = shift_convergence_study(2, 1, -1, lam, m,
                                        [4e-6, 2e-6, 1e-6], points=12000)
        assert study.slopes[-1] / study.slopes[-2] == pytest.approx(1.0,
                                                                    abs=0.01)

    # float.hex of (base_energy, energies, richardson) with the default
    # bracket on 1000 points, as recorded before the study's bracket took
    # the Sommerfeld energies from dirac_coulomb_energy; re-pinned once when
    # the default bracket became coulomb_bracket's: energies[0] of (2, 1)
    # moved one ulp (0x1.ff5bc353dd4c6p-1 before), and once when the search
    # became Newton steps from Cooley's corrector: that energy moved back by
    # +1 ulp (0x1.ff5bc353dd4c5p-1 before), and nothing else moved
    @pytest.mark.parametrize("n, kappa, expected", [
        (2, 1, ("0x1.ff5ba531f825dp-1",
                ["0x1.ff5bc353dd4c6p-1", "0x1.ff5bb4438aaafp-1",
                 "0x1.ff5bacbae96d2p-1"], "0x1.cbeed9037c900p-3")),
        (2, -1, ("0x1.ff5ba531f8587p-1",
                 ["0x1.ff5bc85edf57ep-1", "0x1.ff5bb6c928970p-1",
                  "0x1.ff5badfdbfb12p-1"], "0x1.0c74763d6d6c0p-2")),
        (3, -2, ("0x1.ffb71f17ed657p-1",
                 ["0x1.ffb76d665d295p-1", "0x1.ffb74645e1ec7p-1",
                  "0x1.ffb732b0984aep-1"], "0x1.2b1e0f1e68980p-1")),
    ])
    def test_default_bracket_pinned(self, n, kappa, expected):
        study = shift_convergence_study(n, kappa, -1, 0.1, 1.0,
                                        [4e-6, 2e-6, 1e-6], points=1000)
        assert all(type(e) is float for e in study.energies)
        assert (study.base_energy.hex(), [e.hex() for e in study.energies],
                study.richardson.hex()) == expected

    @pytest.mark.parametrize("n, kappa", [(2, 1), (2, -1), (3, -2)])
    def test_default_bracket_is_coulomb_bracket(self, n, kappa):
        lam, m, mus = 0.1, 1.0, [4e-6, 2e-6, 1e-6]
        study = shift_convergence_study(n, kappa, -1, lam, m, mus,
                                        points=1000)
        grid = coulomb_grid(lam, n, kappa, m, 1000)
        bracket = coulomb_bracket(n, kappa, lam, m)
        root = math.sqrt(1.0 - lam * lam)

        def energy(pot):
            return find_bound_state(pot, kappa, m, grid, bracket,
                                    radial_nodes(n, kappa)).energy

        base = energy(coulomb_potential(lam))
        energies = [energy(coulomb_plus_linear(lam, mu, -mu * root))
                    for mu in mus]
        slopes = [(e - base) / mu for e, mu in zip(energies, mus)]
        assert study == ShiftStudy(
            n=n, kappa=kappa, kappa0=-1, lam=lam, mass=m, mu_values=mus,
            energies=energies, base_energy=base, slopes=slopes,
            richardson=2.0 * slopes[-1] - slopes[-2])  # ratio q = 2

    def test_increasing_sequence_gives_the_same_study(self):
        # the sequence is put in decreasing order before any solve
        study = shift_convergence_study(2, -1, -1, 0.1, 1.0,
                                        [4e-6, 2e-6, 1e-6], points=1000)
        assert shift_convergence_study(2, -1, -1, 0.1, 1.0,
                                       [1e-6, 2e-6, 4e-6],
                                       points=1000) == study

    @pytest.mark.parametrize("n, kappa", [(2, 1), (3, -2)])
    def test_coulomb_half_width_gives_the_default_study(self, n, kappa):
        # a quarter of the gap, given as bracket_halfwidth, makes the same
        # two floats as coulomb_bracket, so every field is the same
        lam, m, mus = 0.1, 1.0, [4e-6, 2e-6, 1e-6]
        gap = lam * lam * m * (1.0 / (n * n) - 1.0 / ((n + 1) * (n + 1))) / 2.0
        e_ref = dirac_coulomb_energy(n, kappa, lam, m)
        assert (e_ref - 0.25 * gap, e_ref + 0.25 * gap) == coulomb_bracket(
            n, kappa, lam, m)
        study = shift_convergence_study(n, kappa, -1, lam, m, mus, points=1000,
                                        bracket_halfwidth=0.25 * gap)
        assert study == shift_convergence_study(n, kappa, -1, lam, m, mus,
                                                points=1000)

    @pytest.mark.parametrize("n, kappa, kappa0, lam", [
        (2, -1, 0, 0.1),     # was a ZeroDivisionError
        (2, -2, -1, 1.5),    # |lam| >= |kappa0|: was a math domain error
    ])
    def test_rejects_bad_couplings(self, n, kappa, kappa0, lam):
        with pytest.raises(DomainError, match="kappa0"):
            shift_convergence_study(n, kappa, kappa0, lam, 1.0, [2e-6, 1e-6])

    def test_rejects_bad_sequences(self):
        with pytest.raises(DomainError):
            shift_convergence_study(2, -1, -1, 0.3, 1.0, [1e-5])
        with pytest.raises(DomainError):
            shift_convergence_study(2, -1, -1, 0.3, 1.0, [1e-5, 3e-6, 2e-6])
        with pytest.raises(DomainError):
            shift_convergence_study(2, -1, -1, 0.3, 1.0, [-1e-5, -5e-6])
