import argparse
import hashlib
import json
import math
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diraconf import cli, radial_solver, rescale
from diraconf.cli import main
from diraconf.coulomb import dirac_coulomb_energy
from diraconf.fw_effective import antiparticle_spectrum_airy
from diraconf.special_functions import QuadratureResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split(","))))
    return rows


# a valid flag set for each subcommand
VALID_ARGV = {
    "energy": ("--lambda", "0.5", "--n", "1", "--kappa", "-1"),
    "shift": ("--lambda", "0.3", "--mu", "1e-4", "--kappa0", "-1"),
    "scan": ("--n-max", "5", "--N-max", "3"),
    "ansatz": ("--lambda", "0.5", "--mu", "1e-4", "--kappa0", "-1"),
    "solve": ("--family", "coulomb", "--lambda", "0.5", "--n", "1",
              "--kappa", "-1"),
}


class TestEnergy:
    def test_ground_state(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--lambda", "0.5",
                               "--n", "1", "--kappa", "-1")
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["E_dirac"]) == pytest.approx(0.8660254038, abs=1e-9)
        assert row["E_preserved"] != ""

    def test_free_limit(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--lambda", "0",
                               "--n", "3", "--kappa", "-1")
        assert code == 0
        assert float(csv_rows(out)[0]["E_dirac"]) == pytest.approx(1.0)

    def test_excited(self, capsys):
        code, out, _ = run_cli(capsys, "energy", "--lambda", "0.5",
                               "--n", "2", "--kappa", "-1")
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["E_dirac"]) == pytest.approx(0.9659258263, abs=1e-9)
        assert row["E_preserved"] == ""  # kappa != -n

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "energy", "--lambda", "1.5",
                               "--n", "1", "--kappa", "-1")
        assert code == 2
        assert "domain error" in err


    @pytest.mark.parametrize("argv", [
        ("--n", "1", "--kappa", "1"),     # kappa = +n: no such state
        ("--n", "2", "--kappa", "0"),
        ("--n", "0", "--kappa", "-1"),
        ("--n", "1", "--kappa", "-1", "--lambda", "nan"),
        ("--n", "1", "--kappa", "-1", "--lambda=-inf"),
        ("--n", "1", "--kappa", "-1", "--mass", "inf"),
    ])
    def test_invalid_input_exit_2(self, capsys, argv):
        if not any(a.startswith("--lambda") for a in argv):
            argv += ("--lambda", "0.5")
        code, out, err = run_cli(capsys, "energy", *argv)
        assert code == 2
        assert out == ""
        assert "domain error" in err


class TestShift:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "shift", "--lambda", "0.3",
                               "--mu", "1e-4", "--kappa0", "-1",
                               "--n-max", "3")
        assert code == 0
        rows = {(int(r["n"]), int(r["kappa"])): r for r in csv_rows(out)}
        assert float(rows[(1, -1)]["total"]) == 0.0
        assert int(rows[(1, -1)]["preserved"]) == 1
        assert float(rows[(2, -1)]["total"]) == pytest.approx(
            2.625 * 1e-4 * 0.3, rel=1e-12)
        for row in rows.values():
            parts = (float(row["term_linear"]) + float(row["term_spin_orbit"])
                     + float(row["term_kinetic"]))
            assert parts == pytest.approx(float(row["total"]), abs=1e-18)


    @pytest.mark.parametrize("argv", [
        ("--mu", "nan"), ("--mu", "inf"), ("--lambda", "nan"),
        ("--n-max", "0"),
    ])
    def test_invalid_input_exit_2(self, capsys, argv):
        flags = {"--lambda": "0.3", "--mu": "1e-4", "--kappa0": "-1"}
        flags.update(zip(argv[::2], argv[1::2]))
        code, out, err = run_cli(capsys, "shift",
                                 *(x for kv in flags.items() for x in kv))
        assert code == 2
        assert out == ""
        assert argv[0] in err


class TestScan:
    def test_default_claim_holds(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n-max", "30",
                               "--N-max", "6")
        assert code == 0
        rows = csv_rows(out)
        assert all(int(r["N"]) == 1 for r in rows)
        assert {int(r["kappa"]) for r in rows if r["n"] == "1"} == {-1, 1}

    def test_n1(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n-max", "1", "--N-max", "2")
        assert code == 0
        rows = csv_rows(out)
        assert [(int(r["n"]), int(r["kappa"]), int(r["N"]), int(r["physical"]))
                for r in rows] == [(1, -1, 1, 1), (1, 1, 1, 0)]


class TestScanClaimViolation:
    def test_exit_3_when_claim_breaks(self, capsys, monkeypatch):
        # force an impossible report through to exercise the exit path
        from diraconf import cli as cli_mod
        from diraconf.fw_effective import UniquenessReport

        def fake_scan(n_max, N_max):
            return UniquenessReport(n_max=n_max, N_max=N_max,
                                    solutions=[(2, -1, 3)],
                                    physical_solutions=[],
                                    sign_violations=[])

        monkeypatch.setattr(cli_mod, "preservation_scan", fake_scan)
        code, _, err = run_cli(capsys, "scan", "--n-max", "2", "--N-max", "3")
        assert code == 3
        assert "unexpected" in err


class TestAnsatzCmd:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "ansatz", "--lambda", "0.5",
                               "--mu", "1e-4", "--kappa0", "-1")
        assert code == 0
        vals = {r["quantity"]: float(r["value"]) for r in csv_rows(out)}
        assert vals["energy"] == pytest.approx(0.8660254038, abs=1e-9)
        for k in range(1, 7):
            assert vals[f"gamma_dev_{k}"] <= 1e-10
        assert vals["norm_quadrature_defect"] <= 1e-8
        assert vals["max_radial_residual"] <= 1e-10

    def test_json_report_parses(self, capsys):
        code, out, _ = run_cli(capsys, "ansatz", "--lambda", "0.5",
                               "--mu", "1e-4", "--kappa0", "-1",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        names = [r["quantity"] for r in rows]
        assert "energy" in names and "max_radial_residual" in names

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_residual_is_relative(self, capsys):
        # the exact state stays at rounding level whatever the mass
        code, out, _ = run_cli(capsys, "ansatz", "--lambda", "0.5",
                               "--mu", "1e-4", "--kappa0", "-1",
                               "--mass", "1e6")
        assert code == 0
        vals = {r["quantity"]: float(r["value"]) for r in csv_rows(out)}
        assert vals["max_radial_residual"] <= 1e-10

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mass", ["1e-8", "1e-6", "1e4", "1e6"])
    def test_norm_quadrature_holds_at_any_mass(self, capsys, mass):
        # the norm is integrated in x = max(a, sqrt(alpha2)) r, so neither
        # a heavy mass shrinks the density below the quadrature's absolute
        # tolerance nor a light one leaves it between the first nodes
        code, out, _ = run_cli(capsys, "ansatz", "--lambda", "0.5",
                               "--mu", "1e-4", "--kappa0", "-1",
                               "--mass", mass)
        assert code == 0
        vals = {r["quantity"]: float(r["value"]) for r in csv_rows(out)}
        assert vals["norm_quadrature_defect"] <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("lam, mu, kappa0", [
        ("1e-8", "1e-8", "-1"), ("1e-12", "1e-12", "-3")])
    def test_norm_quadrature_holds_at_weak_coupling(self, capsys, lam, mu,
                                                    kappa0):
        # the state lives at r ~ 1/a = |kappa0|/(m lam), far beyond 1/m: in
        # x = m r the quadrature found none of it (defect 1.0)
        code, out, _ = run_cli(capsys, "ansatz", "--lambda", lam,
                               "--mu", mu, "--kappa0", kappa0)
        assert code == 0
        vals = {r["quantity"]: float(r["value"]) for r in csv_rows(out)}
        assert vals["norm_quadrature_defect"] <= 1e-8

    def test_detuned_nu_blows_up_residual(self, capsys):
        code, out, _ = run_cli(capsys, "ansatz", "--lambda", "0.5",
                               "--mu", "1e-4", "--kappa0", "-1",
                               "--detune-nu", "0.01")
        assert code == 0
        vals = {r["quantity"]: float(r["value"]) for r in csv_rows(out)}
        assert vals["max_radial_residual"] > 1e-6


class TestSolve:
    def test_coulomb(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--family", "coulomb",
                               "--lambda", "0.5", "--n", "1", "--kappa", "-1",
                               "--points", "8000")
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["defect"]) < 1e-8

    @pytest.mark.parametrize("lam, n, kappa, mass", [
        ("0.5", 1, -1, "1e-8"),
        ("0.3", 2, 1, "1e-12"),
    ])
    def test_coulomb_at_light_mass(self, capsys, lam, n, kappa, mass):
        # the tail walk gives up nine decades past its start, not at a
        # fixed r = 1e9, which is a few Bohr radii at these masses
        code, out, _ = run_cli(capsys, "solve", "--family", "coulomb",
                               "--lambda", lam, "--n", str(n), "--kappa",
                               str(kappa), "--mass", mass)
        assert code == 0
        energy = float(csv_rows(out)[0]["energy"])
        ref = dirac_coulomb_energy(n, kappa, float(lam), float(mass))
        assert abs(energy - ref) <= 4 * math.ulp(ref)

    def test_coulomb_linear_preserved(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--family", "coulomb-linear",
                               "--lambda", "0.5", "--kappa0", "-1",
                               "--n", "1", "--kappa", "-1", "--mu", "1e-4",
                               "--points", "8000")
        assert code == 0
        row = csv_rows(out)[0]
        assert abs(float(row["shift"])) < 1e-8

    def test_antiparticle(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--family",
                               "antiparticle-linear", "--mu", "0.5",
                               "--states", "2", "--points", "8000")
        assert code == 0
        rows = csv_rows(out)
        assert float(rows[0]["energy"]) == pytest.approx(
            float(rows[0]["energy_airy"]), rel=1e-6)

    def test_antiparticle_ladder_builds_one_system(self, capsys, monkeypatch):
        # every level of the ladder is solved on the same system
        built = []

        class Counted(radial_solver._SchrodingerSystem):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(radial_solver, "_SchrodingerSystem", Counted)
        code, out, _ = run_cli(capsys, "solve", "--family",
                               "antiparticle-linear", "--mu", "0.5",
                               "--states", "3")
        assert code == 0
        assert len(csv_rows(out)) == 3
        assert len(built) == 1

    def test_cored_antiparticle_ground_state(self, capsys):
        # the ladder's bracket [2.02, 6.00] holds more than one sign change
        # of the matching defect; the search lands on the nodeless level,
        # bit for bit the solve on a bracket around it alone
        code, out, _ = run_cli(capsys, "solve", "--family",
                               "antiparticle-linear", "--mu", "0.5",
                               "--lambda", "1", "--states", "1",
                               "--points", "2000")
        assert code == 0
        row = csv_rows(out)[0]
        assert row["nodes"] == "0"

        def v(r):
            return r + 1.0 / r

        e_top = antiparticle_spectrum_airy(0.5, 1.0, count=2)[0]
        grid = radial_solver.airy_grid(v, 1.0, e_top, 1.0, 2000)
        state = radial_solver.solve_schrodinger_radial(
            v, 0, 1.0, grid, (3.6, 3.9), 0, coulomb_coeff=1.0)
        assert float(row["energy"]) == state.energy == 3.7541451855665264

    def test_bag(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--family", "bag",
                               "--lambda", "0.5", "--kappa0", "-1",
                               "--A", "1.0", "--r0", "10.0", "--M", "20",
                               "--points", "4001")
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["residual"]) < 1e-8
        assert float(row["energy"]) == pytest.approx(float(row["energy_ref"]),
                                                     rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bag_residual_is_relative(self, capsys):
        # a steep wall makes the equation terms huge, not the defect
        code, out, _ = run_cli(capsys, "solve", "--family", "bag",
                               "--lambda", "0.5", "--kappa0", "-1",
                               "--A", "1", "--r0", "10", "--M", "100000",
                               "--points", "200")
        assert code == 0
        assert float(csv_rows(out)[0]["residual"]) <= 1e-12

    def test_nonexistent_state_is_a_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--family", "coulomb",
                               "--lambda", "0.5", "--n", "1", "--kappa", "1",
                               "--points", "500")
        assert code == 2
        assert "domain error" in err

    @pytest.mark.parametrize("argv", [
        ("--family", "antiparticle-linear", "--mu", "0.5", "--states", "0"),
        ("--family", "bag", "--lambda", "0.5", "--r0", "nan"),
        ("--family", "bag", "--lambda", "0.5", "--A", "inf"),
    ])
    def test_invalid_input_exit_2(self, capsys, argv):
        code, _, err = run_cli(capsys, "solve", *argv, "--points", "200")
        assert code == 2
        assert "domain error" in err

    def test_states_limit_names_the_flag(self, capsys):
        # the ladder asks for --states + 1 Airy levels, and there are 20
        code, out, err = run_cli(capsys, "solve", "--family",
                                 "antiparticle-linear", "--mu", "0.5",
                                 "--states", "20")
        assert (code, out) == (2, "")
        assert err == "domain error: --states must be <= 19, got 20\n"
        code, out, _ = run_cli(capsys, "solve", "--family",
                               "antiparticle-linear", "--mu", "0.5",
                               "--states", "19", "--points", "4000")
        assert code == 0
        assert [row["k"] for row in csv_rows(out)] == [str(k)
                                                       for k in range(1, 20)]

    def test_negative_mu_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--family",
                               "antiparticle-linear", "--mu", "-0.5")
        assert code == 2

    def test_negative_mu_of_the_linear_pair_rejected(self, capsys):
        # ansatz rejects the same mu < 0 as non-normalizable; the solve
        # used to exit 0 with the Coulomb energy
        code, out, err = run_cli(capsys, "solve", "--family",
                                 "coulomb-linear", "--lambda", "0.5",
                                 "--kappa0", "-1", "--n", "1", "--kappa",
                                 "-1", "--mu=-1e-4")
        assert code == 2
        assert out == ""
        assert "domain error" in err and "--mu" in err

    # in this class the solve cases are named by the mass alone
    @pytest.mark.parametrize("command, mass", [
        pytest.param(command, mass,
                     id=mass if command == "solve" else f"{command}-{mass}")
        for command in VALID_ARGV for mass in ("inf", "nan", "0", "-1")
    ])
    def test_bad_mass_rejected(self, capsys, command, mass):
        # --mass inf used to hang in the r_max search (r_start = 0), and
        # shift --mass 0 divided by zero
        start = time.perf_counter()
        code, out, err = run_cli(capsys, command, *VALID_ARGV[command],
                                 f"--mass={mass}")
        assert code == 2
        assert out == ""
        assert "mass" in err
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("argv", [
        ["--lambda", "0.5", "--kappa0", "-1", "--A", "1", "--r0", "2"],
        ["--lambda", "0.2", "--kappa0", "-3", "--A", "2", "--r0", "5"],
    ])
    def test_bag_wall_beyond_rmax_start(self, capsys, argv):
        # suggest_rmax starts past the wall, where (m + v1)^2 overflows
        code, out, _ = run_cli(capsys, "solve", "--family", "bag", *argv,
                               "--M", "1000", "--points", "4001")
        assert code == 0
        row = csv_rows(out)[0]
        assert abs(float(row["energy"]) - float(row["energy_ref"])) < 1e-8
        assert float(row["residual"]) < 1e-8

    def test_antiparticle_at_a_tiny_mass(self, capsys):
        # (2 mu)^2 / 2m overflowed to inf levels, and the solve exited 2 on
        # an infinite r_start; the levels are about 6.3e103
        code, out, err = run_cli(capsys, "solve", "--family",
                                 "antiparticle-linear", "--mu", "1",
                                 "--mass", "1e-310", "--states", "2")
        assert (code, err) == (0, "")
        for row in csv_rows(out):
            energy, airy = float(row["energy"]), float(row["energy_airy"])
            assert abs(energy / airy - 1.0) < 1e-12

    def test_dump_wavefunction(self, capsys, tmp_path):
        path = tmp_path / "wf.csv"
        code, _, _ = run_cli(capsys, "solve", "--family", "coulomb",
                             "--lambda", "0.5", "--n", "1", "--kappa", "-1",
                             "--points", "6000",
                             "--dump-wavefunction", str(path))
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "r,f,g"
        assert len(lines) == 6001

    def test_unwritable_dump_writes_no_table(self, capsys, tmp_path):
        # the table was printed in full before the dump path failed
        path = tmp_path / "missing" / "wf.csv"
        code, out, err = run_cli(capsys, "solve", "--family", "coulomb",
                                 "--lambda", "0.5", "--points", "2000",
                                 "--dump-wavefunction", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("cannot write: ")


class TestNonFiniteTables:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_potential_is_a_domain_error(self, capsys):
        # lam / r overflows at the innermost radii: the sampled table is
        # rejected before any solver runs, with no warning and exit 2
        code, out, err = run_cli(capsys, "solve", "--family",
                                 "antiparticle-linear", "--mu", "0.5",
                                 "--lambda", "1e308", "--states", "1")
        assert code == 2
        assert out == ""
        assert "domain error: v is not finite at r=7.93" in err
        assert "overflow" in err


class TestNumericalFailure:
    @pytest.mark.parametrize("argv", [
        # the wall leaves no live node to measure the residual on
        ("solve", "--family", "bag", "--lambda", "0.5", "--kappa0", "-1",
         "--A", "1e300", "--r0", "1e-300", "--M", "0", "--points", "200"),
        # term_linear and term_kinetic overflow to inf
        ("shift", "--lambda", "1e300", "--mu", "0.1", "--kappa0", "-3",
         "--n-max", "1"),
        # OverflowError in the norm
        ("ansatz", "--lambda", "1e-300", "--mu", "1", "--kappa0", "-3"),
        # the same overflow on the positive-kappa0 branch of shift
        ("shift", "--lambda", "1e300", "--mu", "0.1", "--kappa0", "2",
         "--n-max", "1"),
        # (m + v1)^2 and (E - v0 - v2)^2 leave the float range in the
        # allowed region and the inward seed; the sweep then overflows
        ("solve", "--family", "coulomb-linear", "--lambda", "0.5",
         "--kappa0", "-1", "--n", "1", "--kappa", "-1", "--mu", "1e160",
         "--points", "200"),
    ])
    def test_exit_4_and_no_output(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 4
        assert out == ""
        assert "numerical failure" in err

    def test_norm_just_above_its_bound_writes_nothing(self, capsys,
                                                       monkeypatch):
        # a norm quadrature of 1 + 2e-8 is 2e-8 from 1, above the 1e-8 bound
        def off_by_2e_8(f, lo, hi, tol):
            return QuadratureResult(1.0 + 2e-8, 0.0, 22)

        monkeypatch.setattr(cli, "integrate_adaptive", off_by_2e_8)
        code, out, err = run_cli(capsys, "ansatz", "--lambda", "0.5",
                                 "--mu", "1e-4", "--kappa0", "-1")
        assert code == 4
        assert out == ""
        assert "norm fails its quadrature check" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_sweeps_give_a_clean_bracket_error(self, capsys):
        # the sweeps reach 1e172 to 1e248 at the match point, so the
        # unscaled cross products of the matching defect overflow to inf
        code, out, err = run_cli(capsys, "solve", "--family",
                                 "antiparticle-linear",
                                 "--mu", "0.29532806707274967",
                                 "--lambda", "3.612752391398813e+16",
                                 "--states", "1", "--points", "513",
                                 "--mass", "61.610403210359365")
        assert code == 4
        assert out == ""
        assert "matching defect does not change sign" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bag_wall_height_stays_finite(self, capsys):
        # A e^700 would overflow; the tail walk reaches the state's radius
        # (~1e38, in units of 1/m), where the saturated wall's defect is not
        # finite, so the run is a numerical failure with no output
        code, out, err = run_cli(capsys, "solve", "--family", "bag",
                                 "--A", "6.38540964788881e+16",
                                 "--mass", "1.1754943508222875e-38",
                                 "--lambda", "0.99999", "--kappa0", "-2",
                                 "--points", "702", "--r0", "10", "--M", "266")
        assert code == 4
        assert out == ""
        assert "non-finite residual = inf" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowed_tail_is_not_a_failure(self, capsys):
        # a weak Coulomb tail under a strong Gaussian: every field is finite
        code, out, _ = run_cli(capsys, "ansatz", "--lambda", "1e-4",
                               "--mu", "1.5", "--kappa0", "-1")
        assert code == 0
        vals = {r["quantity"]: float(r["value"]) for r in csv_rows(out)}
        assert all(math.isfinite(v) for v in vals.values())

    def test_wrong_state_message_prints_a_plain_float(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--family",
                                 "antiparticle-linear", "--mu", "0.5",
                                 "--lambda", "2", "--states", "1",
                                 "--points", "2000")
        assert code == 4
        assert out == ""
        assert ("found a state with 1 nodes, wanted 0 "
                "(E = 5.49087362827333)") in err
        assert "np.float64" not in err

    def test_non_finite_field_writes_no_file(self, tmp_path):
        path = tmp_path / "table.csv"
        with pytest.raises(cli.ConvergenceError):
            cli._emit([{"n": 1, "value": 0.5}, {"n": 2, "value": math.inf}],
                      "csv", str(path))
        assert not path.exists()


def _subparsers():
    """{subcommand: its parser} of the CLI."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _option(key, dest):
    """The option of the parser of ``key`` (a subcommand or a solve
    family) whose destination is ``dest``, or None."""
    parser = _subparsers().get(key) or _subparsers()["solve"]
    return next((a for a in parser._actions
                 if a.dest == dest and a.option_strings), None)


# a valid call of each subcommand and solve family
_KEY_ARGV = {
    **{command: (command, *argv) for command, argv in VALID_ARGV.items()},
    "coulomb": ("solve", *VALID_ARGV["solve"]),
    "coulomb-linear": ("solve", "--family", "coulomb-linear", "--lambda",
                       "0.5", "--kappa0", "-1", "--n", "1", "--kappa", "-1",
                       "--mu", "1e-4"),
    "bag": ("solve", "--family", "bag", "--lambda", "0.5", "--kappa0", "-1"),
    "antiparticle-linear": ("solve", "--family", "antiparticle-linear",
                            "--mu", "0.5", "--states", "1"),
}


def _table_cases():
    """(key, flag, value just outside its bound) for every entry of
    ``cli._BOUNDS``, the shared ones under every subcommand."""
    for key, entries in cli._BOUNDS.items():
        for target in (VALID_ARGV if key == "*" else [key]):
            for dest, op, bound in entries:
                # a dest with no option fails below, not at collection
                option = _option(target, dest)
                flag = option.option_strings[0] if option else f"--{dest}"
                if op == ">":
                    outside = bound
                elif option and option.type is int:
                    outside = bound - 1 if op == ">=" else bound + 1
                else:
                    outside = math.nextafter(
                        bound, -math.inf if op == ">=" else math.inf)
                yield pytest.param(target, flag, outside, True,
                                   id=f"{target}{op}{dest}")


# the bounds the library enforces before any work, with none in the table:
# coulomb_grid, dirac_coulomb_ground_state (through bag_model_case) and
# antiparticle_spectrum_airy reject lam <= 0 and mu <= 0
_LIBRARY_CASES = [
    pytest.param(key, flag, 0.0, False, id=f"{key}-library{flag}")
    for key, flag in (("coulomb", "--lambda"), ("coulomb-linear", "--lambda"),
                      ("bag", "--lambda"), ("antiparticle-linear", "--mu"))
]


class TestInputBoundary:
    """Every bound on a flag is checked before any solver runs."""

    @pytest.mark.parametrize("key, flag, value, in_table",
                             [*_table_cases(), *_LIBRARY_CASES])
    def test_just_outside_a_bound_exits_2(self, capsys, monkeypatch, key,
                                          flag, value, in_table):
        def ran(*args, **kwargs):
            raise AssertionError("a solver ran")

        names = ["find_bound_state", "first_order_shift"]
        if in_table or key != "bag":
            names.append("bag_model_case")
        for name in names:
            monkeypatch.setattr(cli, name, ran)
        # the search each level of airy_ladder runs, after its own checks
        monkeypatch.setattr(radial_solver, "_shoot", ran)
        # the work of bag_model_case, which checks lam before it
        monkeypatch.setattr(rescale, "suggest_rmax", ran)
        monkeypatch.setattr(rescale, "h_profile", ran)
        monkeypatch.setattr(rescale, "_integrate_blocks", ran)
        code, out, err = run_cli(capsys, *_KEY_ARGV[key], f"{flag}={value!r}")
        assert code == 2
        assert out == ""
        assert "domain error" in err
        if in_table:
            assert flag in err

    def test_table_names_flags_of_its_commands(self):
        # a misspelled dest would only fail when main reads it
        subparsers = _subparsers()
        families = _option("solve", "family").choices
        for key, entries in cli._BOUNDS.items():
            assert key == "*" or key in subparsers or key in families
            for target in (subparsers if key == "*" else [key]):
                for dest, op, bound in entries:
                    assert op in cli._COMPARE
                    assert _option(target, dest) is not None, (target, dest)

    @pytest.mark.parametrize("scenario", cli._SEED_DEFAULTS)
    def test_seed_defaults_pass_the_table(self, scenario):
        args = cli.build_parser().parse_args(shlex.split(scenario))
        for key in ("*", args.command, getattr(args, "family", None)):
            for dest, op, bound in cli._BOUNDS.get(key, ()):
                assert cli._COMPARE[op](getattr(args, dest), bound)


# every kind of float a flag can carry: zero, both signs, subnormal, tiny,
# huge, NaN and infinities; ordinary values often enough that many calls
# get past validation
_ANY_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 3.0,
                     1e300, -1e-12, -0.5, -1e300]),
    st.floats(min_value=0.0, max_value=2.0),
    st.floats(),
)
_MASS = st.one_of(st.floats(min_value=0.01, max_value=100.0), _ANY_FLOAT)


def _argv(command, flags):
    """Calls of ``command`` (its leading words) with the flags drawn from
    their strategies, in the '=' form so that negative values are not taken
    for flags."""
    return st.fixed_dictionaries(flags).map(
        lambda drawn: command.split()
        + [f"--{k}={v!r}" for k, v in drawn.items()])


def _solve(family, flags):
    return _argv(f"solve --family={family}",
                 {**flags, "points": st.integers(16, 2000), "mass": _MASS})


_COMMANDS = {
    "energy": _argv("energy", {"lambda": _ANY_FLOAT, "n": st.integers(0, 4),
                               "kappa": st.integers(-5, 4), "mass": _MASS}),
    "shift": _argv("shift", {"lambda": _ANY_FLOAT, "mu": _ANY_FLOAT,
                             "kappa0": st.integers(-5, 3),
                             "n-max": st.integers(-1, 6), "mass": _MASS}),
    "scan": _argv("scan", {"n-max": st.integers(-2, 60),
                           "N-max": st.integers(-2, 12), "mass": _MASS}),
    "ansatz": _argv("ansatz", {"lambda": _ANY_FLOAT, "mu": _ANY_FLOAT,
                               "kappa0": st.integers(-5, 2),
                               "detune-nu": st.one_of(st.just(0.0), _ANY_FLOAT),
                               "mass": _MASS}),
    "solve-coulomb": _solve("coulomb", {
        "lambda": _ANY_FLOAT, "n": st.integers(0, 4),
        "kappa": st.integers(-5, 4)}),
    "solve-coulomb-linear": _solve("coulomb-linear", {
        "lambda": _ANY_FLOAT, "mu": _ANY_FLOAT, "kappa0": st.integers(-5, 2),
        "n": st.integers(0, 4), "kappa": st.integers(-5, 4)}),
    "solve-bag": _solve("bag", {
        "lambda": _ANY_FLOAT, "kappa0": st.integers(-5, 2),
        "A": _ANY_FLOAT, "r0": _ANY_FLOAT, "M": st.integers(-2, 1000)}),
    "solve-antiparticle-linear": _solve("antiparticle-linear", {
        "mu": _ANY_FLOAT, "lambda": _ANY_FLOAT, "states": st.integers(-1, 4)}),
}


class TestFlagSpace:
    """Any flag values: exit 0 with every number finite, or a clean
    domain (2) or numerical (4) failure; 3 only from the scan's claim."""

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_exit_code_and_finite_output(self, capsys, command):
        @settings(derandomize=True, max_examples=150, deadline=None,
                  database=None)
        @given(_COMMANDS[command])
        def check(argv):
            start = time.perf_counter()
            code, out, _ = run_cli(capsys, *argv)
            assert time.perf_counter() - start < 10.0, argv
            allowed = (0, 2, 3, 4) if command == "scan" else (0, 2, 4)
            assert code in allowed, argv
            if code != 0:
                return
            for row in csv_rows(out):
                for field in row.values():
                    try:
                        value = float(field)
                    except ValueError:  # a quantity name, or an empty field
                        continue
                    assert math.isfinite(value), (argv, row)

        check()


class TestFormats:
    def test_json_mirrors_csv(self, capsys):
        _, out_csv, _ = run_cli(capsys, "energy", "--lambda", "0.5",
                                "--n", "1", "--kappa", "-1")
        _, out_json, _ = run_cli(capsys, "energy", "--lambda", "0.5",
                                 "--n", "1", "--kappa", "-1",
                                 "--format", "json")
        rows = json.loads(out_json)
        csv_row = csv_rows(out_csv)[0]
        assert rows[0]["E_dirac"] == float(csv_row["E_dirac"])
        assert rows[0]["E_preserved"] == float(csv_row["E_preserved"])
        assert rows[0]["n"] == 1

    def test_output_to_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "energy", "--lambda", "0.5",
                               "--n", "1", "--kappa", "-1",
                               "--output", str(path))
        assert code == 0
        assert out == ""
        text = path.read_text()
        assert text.startswith("n,kappa,E_dirac")
        assert text.endswith("\n")

    @pytest.mark.parametrize("argv, flag", [
        (("energy", *VALID_ARGV["energy"]), "--output"),
        (("solve", *VALID_ARGV["solve"], "--points", "2000"),
         "--dump-wavefunction"),
    ])
    def test_unwritable_path_exits_2(self, capsys, tmp_path, argv, flag):
        # one stderr line: an uncaught FileNotFoundError used to end in a
        # traceback and exit 1
        path = tmp_path / "missing" / "table.csv"
        code, _, err = run_cli(capsys, *argv, flag, str(path))
        assert code == 2
        assert err == f"cannot write: [Errno 2] No such file or directory: " \
                      f"{str(path)!r}\n"

    def test_seed_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "--seed-defaults")
        assert code == 0
        assert "scan --n-max 50 --N-max 10" in out

    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 2
        assert out.startswith("usage:")

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diraconf.cli", "energy",
             "--lambda", "0.5", "--n", "1", "--kappa", "-1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "E_dirac" in proc.stdout


class TestParserReuse:
    """``main`` builds the parser once per process; a reused parser gives
    the bytes and exit code of a fresh one."""

    @staticmethod
    def _calls(capsys, monkeypatch, fresh):
        from diraconf.fw_effective import UniquenessReport

        def fake_scan(n_max, N_max):
            return UniquenessReport(n_max=n_max, N_max=N_max,
                                    solutions=[(2, -1, 3)],
                                    physical_solutions=[],
                                    sign_violations=[])

        results = []
        for argv in (("energy", "--lambda", "0.5", "--n", "2",
                      "--kappa", "-1", "--format", "json"),
                     ("energy", "--lambda", "0.5", "--n", "1", "--kappa",
                      "-1", "--bogus", "1"),
                     ("shift", "--lambda", "0.3", "--mu", "1e-4",
                      "--kappa0", "-1", "--n-max", "2"),
                     ("scan", "--n-max", "2", "--N-max", "3")):
            if fresh:
                cli.build_parser.cache_clear()
            if argv[0] == "scan":
                monkeypatch.setattr(cli, "preservation_scan", fake_scan)
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
            monkeypatch.undo()
        return results

    def test_same_bytes_and_codes_as_a_fresh_parser(self, capsys,
                                                    monkeypatch):
        cli.build_parser.cache_clear()
        reused = self._calls(capsys, monkeypatch, fresh=False)
        assert cli.build_parser.cache_info().misses == 1
        fresh = self._calls(capsys, monkeypatch, fresh=True)
        assert reused == fresh
        assert [r[0] for r in reused] == [0, ("exit", 2), 0, 3]
        assert "unrecognized arguments: --bogus 1" in reused[1][2]

    def test_import_builds_no_parser(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import diraconf.cli as c; "
             "print(c.build_parser.cache_info().currsize)"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("energy", "--lambda", "0.5", "--n", "1", "--kappa", "-1"),
        ("shift", "--lambda", "0.3", "--mu", "1e-4", "--kappa0", "-1",
         "--n-max", "3"),
        ("scan", "--n-max", "20", "--N-max", "5"),
        ("ansatz", "--lambda", "0.5", "--mu", "1e-4", "--kappa0", "-1"),
        ("solve", "--family", "coulomb", "--lambda", "0.5", "--n", "2",
         "--kappa", "-1", "--points", "6000"),
    ])
    def test_repeat_runs_identical(self, capsys, argv):
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2


# sha256 of the stdout of each --seed-defaults scenario (csv, json) and of
# the --dump-wavefunction file of each solve family, recorded from the
# output before the solve families shared one code path; the ansatz and bag
# stdout were re-pinned when their residual became the solver's relative
# defect (only the residual field changed).  The ansatz stdout was re-pinned
# once more when build_ansatz took gamma from the ground state's stable
# lam/(|kappa0| + b): gamma moved by 2 ulp, from 1.81 to 0.19 ulp off the
# exact value, so the gamma_dev rows and the residual (3.2e-16 -> 4.7e-16)
# moved with it.  The antiparticle-linear entry was re-pinned once when the
# solver began to glue each state at the node where its matching condition
# was solved, not at the turning point of the final energy: every energy
# keeps its bits, the states move by rounding beyond their glue nodes (the
# dump of k = 3 from line 18,380 on), and the k = 2 residual moved with
# its state (2.3136088747927660e-02 -> 2.2300392234971527e-02), and once
# more when the Airy zeros became the correctly rounded constants: only the
# energy_airy column moved, from 3.8, 6.9 and 1.3 ulp off the exact ladder
# to 0.2, 0.1 and 0.3 ulp, and the dump kept its bytes.  The ansatz stdout
# was re-pinned when the norm quadrature took its length unit from the
# state's own inverse lengths, max(a, sqrt(alpha2)), rather than from
# max(m, sqrt(alpha2)): only norm_quadrature_defect moved, at rounding
# level (2.4535928844215960e-14 -> 2.4646951146678475e-14), and once more
# when the residual grid ended where the solver's tail walk says, in the
# state's own length: only max_radial_residual moved, at rounding level
# (4.7020085929804186e-16 -> 4.0453918603747709e-16).  The
# antiparticle-linear entry was re-pinned once more when the eigenvalue
# search became Newton steps from Cooley's corrector: the k = 2 energy moved
# -1 ulp (0x1.0fa7a6bc5ca91p+2 -> 0x1.0fa7a6bc5ca90p+2) and the k = 3 energy
# +1 ulp (0x1.586d4d34a49d4p+2 -> 0x1.586d4d34a49d5p+2); their residuals, a
# smoothness check at rounding level, moved with the states
# (2.2300392234971527e-02 -> 2.1299876784224236e-02 and
# 1.7637024488489968e-02 -> 2.1452689629393062e-02), and so did the dump
GOLDEN = {
    "energy --lambda 0.5 --n 1 --kappa -1":
        ("479e547d12329227eb6388957eebe6af743dfb301922f36a80e48a5d7de0a976",
         "c2b30cbff5aa8367da620e529a7bda31d20bc3242b3f536133e97b7bd884bbe7",
         None),
    "energy --lambda 0.5 --n 2 --kappa -1":
        ("6cdd9657a9c0708d39485c9a5ea8e9644c64daa2301611e616b492a81baf3843",
         "e122970e90cbeaa10905589373e5b5c0807e03a6ad25e02560dd6bb2ad7aba80",
         None),
    "shift --lambda 0.3 --mu 1e-4 --kappa0 -1 --n-max 3":
        ("4b67b2a92215915a2f197c868398a34c644eecda8408332d5fb4e638610f91a3",
         "ceb0d292f20ce8abaa0cbc2f943052fe834283a2a382f27c25c0f23471e6d31b",
         None),
    "scan --n-max 50 --N-max 10":
        ("a1efa93bbd915bbf752e5914b2606f1b33d1654f57724e581ff48f31aae9261d",
         "f389f7ff77329aab6c403d2aa27494c0702c2de04d8970ccb5dc29169291cc45",
         None),
    "ansatz --lambda 0.5 --mu 1e-4 --kappa0 -1":
        ("b785c8183c2803841e7c67386185fe464563d500040d455e2c300558d082990f",
         "65cff874f37424c4f242fb171dd6abb3ef468ec674fd230d4085649bb3718f9a",
         None),
    "solve --family coulomb --lambda 0.5 --n 1 --kappa -1":
        ("27fd2b1b2d50faa0d4a3d847a1f13dab5a159d5547d59eedc25bfe40d9e46e9d",
         "e4dbf86b10c7f75fd4efdd1fba527b7a21000cc3435030c86df18ddbcbabaee0",
         "6cc3cfcea5ecdd3ade600c77f4eb368dc6f02f8c9e58f376e8a8133c92497613"),
    "solve --family coulomb-linear --lambda 0.5 --kappa0 -1 --n 1 --kappa -1"
    " --mu 1e-4":
        ("79aac2558f0b37c45e2ccc5501adbccdf0346f9f5a24958aeb26eca7e458b938",
         "f8c931152cb6a4d678bed6ad597f87df91d4e0f8017e5e1768846c0b05967a22",
         "4f4f23066a52f774725593400308e75d21fb812418171ebfca84322aa6f27ee2"),
    "solve --family antiparticle-linear --mu 0.5 --states 3":
        ("59d6d5820319b86fc434ce88e15ebc99c50f3890cceb1b22d6da7befa48198d6",
         "a73376beda51fa31a4ce6bdc251085f3f1548463b7ecbb54dc4848fdceea6b8d",
         "39877a70c7e57c9a2a03f2baed692de8898615b34d3cafd2aa722b38dc27b76e"),
    "solve --family bag --lambda 0.5 --kappa0 -1 --A 1.0 --r0 10.0 --M 20":
        ("9b1381aaadfde51975ef564c771b76f8df70505525372446fe4f8410ba9b97aa",
         "884b21ed5d0260a2e35bbd89c410d72a2757eb6c8505c80cdc3d40a116a15e7a",
         "5212c47609875dd6f67cf9ef5248c41b84c40aa678cfc8f966ceb46e1aac0b0c"),
}


def _sha256(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data
                          ).hexdigest()


class TestGoldenOutput:
    def test_every_scenario_is_pinned(self):
        assert list(GOLDEN) == cli._SEED_DEFAULTS

    @pytest.mark.parametrize("scenario", list(GOLDEN))
    def test_byte_identical(self, capsys, tmp_path, scenario):
        csv_hash, json_hash, dump_hash = GOLDEN[scenario]
        argv = shlex.split(scenario)
        dump = tmp_path / "wf.csv"
        extra = ("--dump-wavefunction", str(dump)) if dump_hash else ()
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        assert _sha256(out) == csv_hash
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        assert _sha256(out) == json_hash
        if dump_hash:
            assert _sha256(dump.read_bytes()) == dump_hash
