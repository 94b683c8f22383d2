import json
import subprocess
import sys
import time

import pytest

from diraconf.cli import main


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

    def test_negative_mu_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--family",
                               "antiparticle-linear", "--mu", "-0.5")
        assert code == 2

    @pytest.mark.parametrize("mass", ["inf", "nan", "0", "-1"])
    def test_bad_mass_rejected(self, capsys, mass):
        # --mass inf used to hang in the r_max search (r_start = 0)
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "solve", "--family", "coulomb",
                               "--mass", mass, "--lambda", "0.5", "--n", "1",
                               "--kappa", "-1")
        assert code == 2
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

    def test_seed_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "--seed-defaults")
        assert code == 0
        assert "scan --n-max 50 --N-max 10" in out

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "diraconf.cli", "energy",
             "--lambda", "0.5", "--n", "1", "--kappa", "-1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "E_dirac" in proc.stdout


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
