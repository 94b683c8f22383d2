"""Deterministic command-line interface.

Subcommands mirror the library: ``energy`` (closed-form levels), ``shift``
(first-order confining shifts), ``scan`` (integer uniqueness scan),
``solve`` (numerical bound states), ``ansatz`` (closed-form preserved state
report).  Output is CSV (default) or JSON with every float printed as
17-significant-digit scientific notation, so repeated runs are
byte-identical.

Exit codes: 0 success, 2 domain error (including bad flags), 3 physics
claim violation (``scan`` found an unexpected solution), 4 numerical
non-convergence.
"""
from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .ansatz import build_ansatz, evaluate_spinor, nu_fine_tuned, radial_residual
from .coulomb import dirac_coulomb_energy, schrodinger_energy
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    NormalizationError,
    WrongStateError,
)
from .fw_effective import (
    antiparticle_spectrum_airy,
    first_order_shift,
    preservation_scan,
)
from .quantum_numbers import enumerate_kappa
from .radial_solver import (
    RadialGrid,
    coulomb_plus_linear,
    coulomb_potential,
    find_bound_state,
    solve_schrodinger_radial,
    suggest_rmax,
    suggest_rmax_schrodinger,
)
from .rescale import bag_model_case
from .special_functions import integrate_adaptive

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CLAIM = 3
EXIT_NUMERIC = 4

_SEED_DEFAULTS = [
    "energy --lambda 0.5 --n 1 --kappa -1",
    "energy --lambda 0.5 --n 2 --kappa -1",
    "shift --lambda 0.3 --mu 1e-4 --kappa0 -1 --n-max 3",
    "scan --n-max 50 --N-max 10",
    "ansatz --lambda 0.5 --mu 1e-4 --kappa0 -1",
    "solve --family coulomb --lambda 0.5 --n 1 --kappa -1",
    "solve --family coulomb-linear --lambda 0.5 --kappa0 -1 --n 1 --kappa -1 --mu 1e-4",
    "solve --family antiparticle-linear --mu 0.5 --states 3",
    "solve --family bag --lambda 0.5 --kappa0 -1 --A 1.0 --r0 10.0 --M 20",
]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def _emit(columns, rows, fmt: str, path: str | None):
    lines = []
    if fmt == "csv":
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
    else:
        items = []
        for row in rows:
            fields = []
            for c in columns:
                v = row[c]
                if v is None:
                    fields.append(f'"{c}": null')
                elif isinstance(v, (int, np.integer)):
                    fields.append(f'"{c}": {int(v)}')
                else:
                    fields.append(f'"{c}": {_fmt(v)}')
            items.append("{" + ", ".join(fields) + "}")
        lines.append("[" + ",\n ".join(items) + "]")
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _coulomb_bracket(n: int, lam: float, m: float):
    # bracket halfwidth from the spacing to the next level of the same kappa
    gap = lam * lam * m * (1.0 / (n * n) - 1.0 / ((n + 1) * (n + 1))) / 2.0
    return max(0.25 * gap, 1e-7 * m)


def cmd_energy(args) -> int:
    e_dirac = dirac_coulomb_energy(args.n, args.kappa, args.lam, args.mass)
    e_schr = schrodinger_energy(args.n, args.lam, args.mass)
    preserved = e_dirac if args.kappa == -args.n else None
    rows = [{
        "n": args.n, "kappa": args.kappa,
        "E_dirac": e_dirac, "E_schrodinger": e_schr,
        "E_preserved": preserved,
    }]
    _emit(["n", "kappa", "E_dirac", "E_schrodinger", "E_preserved"],
          rows, args.format, args.output)
    return EXIT_OK


def cmd_shift(args) -> int:
    rows = []
    for n in range(1, args.n_max + 1):
        for kappa in enumerate_kappa(n):
            shift = first_order_shift(n, kappa, args.kappa0, args.lam,
                                      args.mu, args.mass)
            rows.append({
                "n": n, "kappa": kappa, "total": shift.total,
                "term_linear": shift.term_linear,
                "term_spin_orbit": shift.term_spin_orbit,
                "term_kinetic": shift.term_kinetic,
                "preserved": int(n == -args.kappa0 and kappa == args.kappa0),
            })
    _emit(["n", "kappa", "total", "term_linear", "term_spin_orbit",
           "term_kinetic", "preserved"], rows, args.format, args.output)
    return EXIT_OK


def cmd_scan(args) -> int:
    report = preservation_scan(args.n_max, args.N_max)
    rows = [{
        "n": n, "kappa": kappa, "N": big_n, "physical": int(kappa == -n),
    } for (n, kappa, big_n) in report.solutions]
    _emit(["n", "kappa", "N", "physical"], rows, args.format, args.output)
    expected = sorted(
        (n, kappa, 1) for n in range(1, args.n_max + 1) for kappa in (-n, n)
    )
    if sorted(report.solutions) != expected or report.sign_violations:
        print("scan: unexpected cancellation solutions found", file=sys.stderr)
        return EXIT_CLAIM
    return EXIT_OK


def cmd_ansatz(args) -> int:
    params = build_ansatz(args.lam, args.mu, args.kappa0, args.mass)
    if args.detune_nu != 0.0:
        import dataclasses
        c = params.couplings
        params = dataclasses.replace(
            params,
            couplings=dataclasses.replace(c, nu=c.nu * (1.0 + args.detune_nu)),
        )
    # residual grid: from well inside the power-law region to deep in the tail
    r_peak = max(params.b / params.a, 1.0 / params.a)
    r_hi = r_peak
    f_peak, _ = evaluate_spinor(params, r_peak)
    while True:
        f_val, _ = evaluate_spinor(params, r_hi)
        if f_val < 1e-13 * f_peak:
            break
        r_hi *= 1.05
    r_grid = np.geomspace(1e-4 / (args.lam * args.mass), r_hi, 2001)
    resid = radial_residual(params, r_grid)

    def norm_integrand(r):
        f, g = evaluate_spinor(params, r)
        return float((f * f + g * g) * r * r)

    quad = integrate_adaptive(norm_integrand, 0.0, math.inf, tol=1e-11)
    devs = params.gamma_deviations()
    rows = [{"quantity": name, "value": value} for name, value in [
        ("b", params.b), ("a", params.a), ("alpha2", params.alpha2),
        ("gamma", params.gamma), ("nu", params.couplings.nu),
        ("energy", params.energy), ("norm", params.norm),
        ("gamma_dev_1", devs[0]), ("gamma_dev_2", devs[1]),
        ("gamma_dev_3", devs[2]), ("gamma_dev_4", devs[3]),
        ("gamma_dev_5", devs[4]), ("gamma_dev_6", devs[5]),
        ("norm_quadrature_defect", abs(quad.value - 1.0)),
        ("max_radial_residual", resid),
    ]]
    columns = ["quantity", "value"]
    if args.format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(f'{row["quantity"]},{_fmt(row["value"])}')
        text = "\n".join(lines) + "\n"
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w", newline="") as fh:
                fh.write(text)
    else:
        _emit_named(rows, args.output)
    return EXIT_OK


def _emit_named(rows, path):
    items = [f'{{"quantity": "{r["quantity"]}", "value": {_fmt(r["value"])}}}'
             for r in rows]
    text = "[" + ",\n ".join(items) + "]\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _dump_wavefunction(path, r, comps, names):
    lines = [",".join(["r"] + names)]
    for i in range(len(r)):
        lines.append(",".join([_fmt(r[i])] + [_fmt(c[i]) for c in comps]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_solve(args) -> int:
    m = args.mass
    if not (math.isfinite(m) and m > 0):
        raise DomainError(f"--mass must be finite and positive, got {m!r}")
    rows = []
    dump = None
    if args.family in ("coulomb", "coulomb-linear", "bag") and not args.lam > 0:
        raise DomainError(f"--lambda must be positive for family {args.family}")
    if args.lam < 0:
        raise DomainError("--lambda must be >= 0")
    if args.family == "coulomb":
        e_ref = dirac_coulomb_energy(args.n, args.kappa, args.lam, m)
        half = _coulomb_bracket(args.n, args.lam, m)
        pot = coulomb_potential(args.lam)
        grid = RadialGrid(
            1e-6 / (args.lam * m),
            suggest_rmax(pot, args.kappa, e_ref, m,
                         r_start=4.0 * args.n * args.n / (args.lam * m)),
            args.points,
        )
        nodes = args.n - (abs(args.kappa) if args.kappa < 0 else args.kappa + 1)
        state = find_bound_state(pot, args.kappa, m, grid,
                                 (e_ref - half, e_ref + half), nodes)
        rows.append({
            "n": args.n, "kappa": args.kappa, "energy": state.energy,
            "energy_ref": e_ref, "defect": abs(state.energy - e_ref),
            "nodes": state.nodes_f, "residual": state.residual,
        })
        columns = ["n", "kappa", "energy", "energy_ref", "defect", "nodes",
                   "residual"]
        dump = (state.grid.r, [state.f, state.g], ["f", "g"])
    elif args.family == "coulomb-linear":
        nu = nu_fine_tuned(args.mu, args.lam, args.kappa0)
        e_ref = dirac_coulomb_energy(args.n, args.kappa, args.lam, m)
        half = _coulomb_bracket(args.n, args.lam, m)
        pot0 = coulomb_potential(args.lam)
        grid = RadialGrid(
            1e-6 / (args.lam * m),
            suggest_rmax(pot0, args.kappa, e_ref, m,
                         r_start=4.0 * args.n * args.n / (args.lam * m)),
            args.points,
        )
        pot = coulomb_plus_linear(args.lam, args.mu, nu)
        nodes = args.n - (abs(args.kappa) if args.kappa < 0 else args.kappa + 1)
        state = find_bound_state(pot, args.kappa, m, grid,
                                 (e_ref - half, e_ref + half), nodes)
        rows.append({
            "n": args.n, "kappa": args.kappa, "mu": args.mu, "nu": nu,
            "energy": state.energy, "energy_coulomb": e_ref,
            "shift": state.energy - e_ref,
            "nodes": state.nodes_f, "residual": state.residual,
        })
        columns = ["n", "kappa", "mu", "nu", "energy", "energy_coulomb",
                   "shift", "nodes", "residual"]
        dump = (state.grid.r, [state.f, state.g], ["f", "g"])
    elif args.family == "bag":
        case = bag_model_case(args.A, args.r0, args.M, args.lam, args.kappa0,
                              m, points=args.points)
        e_ref = dirac_coulomb_energy(-args.kappa0, args.kappa0, args.lam, m)
        rows.append({
            "M": args.M, "A": args.A, "r0": args.r0, "energy": case.energy,
            "energy_ref": e_ref, "residual": case.residual,
        })
        columns = ["M", "A", "r0", "energy", "energy_ref", "residual"]
        f0 = case.ground.f(case.grid.r)
        g0 = case.ground.g(case.grid.r)
        scale = np.exp(case.profile.h - np.max(case.profile.h))
        dump = (case.grid.r, [f0 * scale, g0 * scale], ["f", "g"])
    elif args.family == "antiparticle-linear":
        if args.mu <= 0:
            raise DomainError("--mu must be positive for the confining slope")
        slope = 2.0 * args.mu

        def v(r):
            r = np.asarray(r, dtype=float)
            base = slope * r
            return base + args.lam / r if args.lam else base

        refs = antiparticle_spectrum_airy(args.mu, m, count=args.states + 1)
        r_char = (2.0 * m * slope) ** (-1.0 / 3.0)
        grid = RadialGrid(
            1e-6 * r_char,
            suggest_rmax_schrodinger(v, refs[args.states - 1], m,
                                     r_start=2.0 * (refs[args.states - 1] - m)
                                     / slope),
            args.points,
        )
        shift_room = 2.0 * args.lam / r_char if args.lam else 0.0
        state = None
        for k in range(1, args.states + 1):
            lo = refs[k - 1] - (0.45 * (refs[k - 1] - refs[k - 2])
                               if k > 1 else 0.45 * (refs[0] - m))
            hi = refs[k - 1] + 0.45 * (refs[k] - refs[k - 1]) + shift_room
            state = solve_schrodinger_radial(v, 0, m, grid, (lo, hi), k - 1,
                                             coulomb_coeff=args.lam)
            rows.append({
                "k": k, "energy": state.energy,
                "energy_airy": refs[k - 1] if not args.lam else None,
                "nodes": state.nodes, "residual": state.residual,
            })
        columns = ["k", "energy", "energy_airy", "nodes", "residual"]
        dump = (state.grid.r, [state.u], ["u"])
    else:
        raise DomainError(f"unknown family {args.family!r}")

    _emit(columns, rows, args.format, args.output)
    if args.dump_wavefunction:
        _dump_wavefunction(args.dump_wavefunction, dump[0], dump[1], dump[2])
    return EXIT_OK


def _add_common(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="write table here instead of stdout")
    p.add_argument("--mass", type=float, default=1.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diraconf",
        description="Dirac-Coulomb bound states with linear confining "
                    "potentials: exact preservation, effective shifts, "
                    "uniqueness scan, numerical solvers.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument(
        "--seed-defaults", action="store_true",
        help="print a complete flag set for each standard scenario and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("energy", help="closed-form level energies")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("shift", help="first-order confining shifts over (n, kappa)")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--kappa0", type=int, required=True)
    p.add_argument("--n-max", dest="n_max", type=int, default=3)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("scan", help="exhaustive integer uniqueness scan")
    _add_common(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=50)
    p.add_argument("--N-max", dest="N_max", type=int, default=10)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("ansatz", help="closed-form preserved state report")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--kappa0", type=int, required=True)
    p.add_argument("--detune-nu", dest="detune_nu", type=float, default=0.0,
                   help="relative detuning of nu, for sensitivity probes")
    p.set_defaults(func=cmd_ansatz)

    p = sub.add_parser("solve", help="numerical bound states")
    _add_common(p)
    p.add_argument("--family", required=True,
                   choices=("coulomb", "coulomb-linear", "bag",
                            "antiparticle-linear"))
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--kappa", type=int, default=-1)
    p.add_argument("--kappa0", type=int, default=-1)
    p.add_argument("--states", type=int, default=3,
                   help="number of s-wave states (antiparticle-linear)")
    p.add_argument("--A", type=float, default=1.0, help="bag wall strength")
    p.add_argument("--r0", type=float, default=10.0, help="bag radius")
    p.add_argument("--M", type=int, default=20, help="bag wall power")
    p.add_argument("--points", type=int, default=20000)
    p.add_argument("--dump-wavefunction", dest="dump_wavefunction",
                   default=None, metavar="PATH")
    p.set_defaults(func=cmd_solve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed_defaults", False):
        sys.stdout.write("\n".join(_SEED_DEFAULTS) + "\n")
        return EXIT_OK
    if not getattr(args, "command", None):
        parser.print_help()
        return EXIT_DOMAIN
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (BracketError, ConvergenceError, WrongStateError,
            NormalizationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
