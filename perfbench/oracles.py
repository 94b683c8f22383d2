"""Answers computed apart from the package, and the check of each operation.

The reference values come from textbook formulas, from scipy (Airy zeros,
Airy function quadrature) and from mpmath (gamma and Tricomi U), never from
diraconf and never from a stored copy of its output.  ``check(op, out)``
returns ``None`` when the output passes and a one-line reason otherwise.
"""
import json
import math

M = 1.0


def preserved_energy(lam, kappa0, m=M):
    return m * math.sqrt(1.0 - lam * lam / (kappa0 * kappa0))


def sommerfeld(n, kappa, lam, m=M):
    """Dirac-Coulomb level E(n, kappa) including the rest mass."""
    n_r = n - abs(kappa)
    return m * (1.0 + (lam / (n_r + math.sqrt(kappa * kappa - lam * lam))) ** 2) ** -0.5


def fw_slope(n, kappa, kappa0, lam, m=M):
    """First-order dE/dmu of level (n, kappa) under the fine-tuned pair."""
    return lam / (4.0 * m) * ((3 * n * n - kappa * (kappa + 1)) / kappa0 ** 2
                              - (n * n + kappa * (kappa - 1)) / (n * n))


def airy_levels(mu, count, m=M):
    """s-wave levels of the slope-2mu linear well: m + |a_k| (4mu^2/2m)^(1/3)."""
    from scipy.special import ai_zeros
    scale = ((2.0 * mu) ** 2 / (2.0 * m)) ** (1.0 / 3.0)
    return [m + abs(float(a)) * scale for a in ai_zeros(count)[0]]


def airy_inv_r(mu, m=M):
    """<1/r> of the ground state u(r) = Ai(r/r_c + a_1), by scipy quadrature."""
    from scipy.integrate import quad
    from scipy.special import ai_zeros, airy
    a1 = float(ai_zeros(1)[0][0])
    r_c = (2.0 * m * 2.0 * mu) ** (-1.0 / 3.0)
    num = quad(lambda x: airy(x + a1)[0] ** 2 / x, 0.0, math.inf, limit=200)[0]
    den = quad(lambda x: airy(x + a1)[0] ** 2, 0.0, math.inf, limit=200)[0]
    return num / den / r_c


def ansatz_norm(lam, mu, kappa0, m=M):
    """Normalization of f = N r^(b-1) exp(-a r - alpha2 r^2/2), g = -gamma f.

    int r^(2b) exp(-2a r - alpha2 r^2) dr through the parabolic-cylinder
    route, (4 alpha2)^-(b+1/2) Gamma(2b+1) U(b+1/2, 1/2, a^2/alpha2); the
    package uses the Kummer-transformed U(b+1, 3/2, .) and its own gamma
    and quadrature.
    """
    import mpmath
    with mpmath.workdps(30):
        k = abs(kappa0)
        b = mpmath.sqrt(kappa0 * kappa0 - mpmath.mpf(lam) ** 2)
        a = m * mpmath.mpf(lam) / k
        alpha2 = mpmath.mpf(mu) * lam / k
        gamma = lam / (k + b)
        integral = ((4 * alpha2) ** (-(b + 0.5)) * mpmath.gamma(2 * b + 1)
                    * mpmath.hyperu(b + 0.5, 0.5, a * a / alpha2))
        return float(((1 + gamma * gamma) * integral) ** -0.5)


def _close(value, ref, rel):
    return value is not None and abs(value - ref) <= rel * abs(ref)


def parse_table(text, fmt):
    """Rows of a CLI table as dicts; CSV cells become int, float or None."""
    if fmt == "json":
        return json.loads(text)
    lines = text.strip("\n").split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = {}
        for key, cell in zip(header, line.split(",")):
            if cell == "":
                row[key] = None
            elif cell.lstrip("-").isdigit():
                row[key] = int(cell)
            else:
                try:
                    row[key] = float(cell)
                except ValueError:
                    row[key] = cell
        rows.append(row)
    return rows


def _check_preserved(op, out):
    e = preserved_energy(op["lam"], op["kappa0"])
    if abs(out["energy"] - e) > 1e-8 * M:
        return f"energy {out['energy']!r} differs from {e!r} by more than 1e-8 m"
    if out["nodes"] != 0:
        return f"{out['nodes']} nodes, expected 0"
    return None


def _check_shift_study(op, out):
    slope = fw_slope(op["n"], op["kappa"], op["kappa0"], op["lam"])
    if not _close(out["richardson"], slope, 0.01):
        return f"Richardson slope {out['richardson']!r} not within 1% of {slope!r}"
    base = sommerfeld(op["n"], op["kappa"], op["lam"])
    if abs(out["base_energy"] - base) > 1e-10 * M:
        return f"base energy {out['base_energy']!r} differs from {base!r}"
    return None


def _check_airy_ladder(op, out):
    refs = airy_levels(op["mu"], len(op["offsets"]))
    if len(out["energies"]) != len(refs):
        return "wrong number of levels"
    for k, (e, nodes, ref) in enumerate(zip(out["energies"], out["nodes"], refs)):
        if abs((e - M) / (ref - M) - 1.0) > 1e-6:
            return f"level {k + 1}: {e!r} vs Airy {ref!r} beyond 1e-6"
        if nodes != k:
            return f"level {k + 1}: {nodes} nodes, expected {k}"
    return None


def _check_repulsive_core(op, out):
    ref = airy_levels(op["mu"], 1)[0]
    if abs((out["base"] - M) / (ref - M) - 1.0) > 1e-6:
        return f"base level {out['base']!r} vs Airy {ref!r} beyond 1e-6"
    inv_r = airy_inv_r(op["mu"])
    for lam, energy in zip(op["lam"], out["perturbed"]):
        shift, predicted = energy - out["base"], lam * inv_r
        if not shift > 0:
            return f"core shift {shift!r} at lam {lam!r} is not positive"
        if not _close(shift, predicted, 0.10):
            return f"core shift {shift!r} not within 10% of lam<1/r> = {predicted!r}"
    if out["nodes"] != [0] * (1 + len(op["lam"])):
        return f"nodes {out['nodes']}, expected all 0"
    return None


def _check_cli_energy(op, rows):
    (row,) = rows
    n, kappa, lam = op["n"], op["kappa"], op["lam"]
    if (row["n"], row["kappa"]) != (n, kappa):
        return f"row is for (n, kappa) = ({row['n']}, {row['kappa']})"
    if not _close(row["E_dirac"], sommerfeld(n, kappa, lam), 1e-13):
        return f"E_dirac {row['E_dirac']!r} vs Sommerfeld {sommerfeld(n, kappa, lam)!r}"
    e_schr = M - lam * lam * M / (2.0 * n * n)
    if not _close(row["E_schrodinger"], e_schr, 1e-13):
        return f"E_schrodinger {row['E_schrodinger']!r} vs {e_schr!r}"
    expected = row["E_dirac"] if kappa == -n else None
    if row["E_preserved"] != expected:
        return f"E_preserved {row['E_preserved']!r}, expected {expected!r}"
    return None


def _check_cli_shift(op, rows):
    kappa0, lam, mu = op["kappa0"], op["lam"], op["mu"]
    states = [(n, k) for n in range(1, op["n_max"] + 1)
              for k in range(-n, n) if k != 0]
    if [(r["n"], r["kappa"]) for r in rows] != states:
        return "rows are not the states n <= n_max, -n <= kappa < n"
    for r in rows:
        n, k = r["n"], r["kappa"]
        reference = (n, k) == (-kappa0, kappa0)
        if r["preserved"] != int(reference):
            return f"({n}, {k}): preserved = {r['preserved']}"
        if reference:
            if r["total"] != 0.0:
                return f"reference row total {r['total']!r} is not exactly 0"
            continue
        expected = mu * fw_slope(n, k, kappa0, lam)
        if r["total"] == 0.0 or abs(r["total"] - expected) > 1e-12 * mu * lam * n * n:
            return f"({n}, {k}): total {r['total']!r} vs formula {expected!r}"
    return None


def _check_cli_scan(op, rows):
    got = sorted((r["n"], r["kappa"], r["N"], r["physical"]) for r in rows)
    want = sorted((n, k, 1, int(k == -n)) for n in range(1, op["n_max"] + 1)
                  for k in (-n, n))
    if got != want:
        return "scan rows differ from {(n, +/-n, 1)}"
    return None


def _check_cli_ansatz(op, rows):
    q = {r["quantity"]: r["value"] for r in rows}
    lam, mu, kappa0 = op["lam"], op["mu"], op["kappa0"]
    k = abs(kappa0)
    b = math.sqrt(kappa0 * kappa0 - lam * lam)
    exact = {"b": b, "a": M * lam / k, "alpha2": mu * lam / k,
             "gamma": lam / (k + b), "nu": -mu * math.sqrt(1 - lam * lam / k ** 2),
             "energy": preserved_energy(lam, kappa0)}
    for name, value in exact.items():
        if not _close(q.get(name), value, 1e-12):
            return f"{name} = {q.get(name)!r}, expected {value!r}"
    norm = ansatz_norm(lam, mu, kappa0)
    if not _close(q.get("norm"), norm, 1e-9):
        return f"norm {q.get('norm')!r} vs mpmath {norm!r}"
    for i in range(1, 7):
        if not q.get(f"gamma_dev_{i}", math.inf) <= 1e-12:
            return f"gamma_dev_{i} = {q.get(f'gamma_dev_{i}')!r} above 1e-12"
    if not q.get("norm_quadrature_defect", math.inf) <= 1e-8:
        return f"norm_quadrature_defect {q.get('norm_quadrature_defect')!r} above 1e-8"
    if not q.get("max_radial_residual", math.inf) <= 1e-10:
        return f"max_radial_residual {q.get('max_radial_residual')!r} above 1e-10"
    return None


def _check_cli_bag(op, rows):
    (row,) = rows
    e = preserved_energy(op["lam"], op["kappa0"])
    if abs(row["energy"] - e) > 1e-8 * M:
        return f"bag energy {row['energy']!r} vs Coulomb {e!r}"
    if not row["residual"] <= 1e-8:
        return f"residual {row['residual']!r} above 1e-8"
    if (row["M"], row["A"], row["r0"]) != (op["M"], op["A"], op["r0"]):
        return "wall parameters not echoed"
    return None


_SOLVER_CHECKS = {
    "preserved": _check_preserved,
    "shift-study": _check_shift_study,
    "airy-ladder": _check_airy_ladder,
    "repulsive-core": _check_repulsive_core,
}
_CLI_CHECKS = {
    "cli-energy": _check_cli_energy,
    "cli-shift": _check_cli_shift,
    "cli-scan": _check_cli_scan,
    "cli-ansatz": _check_cli_ansatz,
    "cli-bag": _check_cli_bag,
}


def check(op, out):
    """None if ``out`` is the right answer to ``op``, else the reason."""
    if "error" in out:
        return f"raised {out['error']}"
    kind = op["kind"]
    if kind in _SOLVER_CHECKS:
        return _SOLVER_CHECKS[kind](op, out)
    if kind == "cli-invalid":
        return None if out["code"] == 2 else f"exit code {out['code']}, expected 2"
    if out["code"] != 0:
        return f"exit code {out['code']}"
    try:
        rows = parse_table(out["stdout"], op["argv"][op["argv"].index("--format") + 1])
        return _CLI_CHECKS[kind](op, rows)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
