"""Deterministic command-line interface.

Subcommands mirror the library: ``energy`` (closed-form levels), ``shift``
(first-order confining shifts), ``scan`` (integer uniqueness scan),
``solve`` (numerical bound states), ``ansatz`` (closed-form preserved state
report).  Output is CSV (default) or JSON with every float printed as
17-significant-digit scientific notation, so repeated runs are
byte-identical.

Exit codes: 0 success, 2 domain error (including bad flags, a NaN or
infinite number, a flag outside its bound, an (n, kappa) pair that names
no state, and an ``--output`` or ``--dump-wavefunction`` path that cannot
be written), 3 physics claim violation (``scan`` found an unexpected
solution), 4 numerical failure (non-convergence, overflow or division by
zero, a result with a NaN or infinite field, or a closed-form norm that
fails its quadrature check, in which case nothing is written).

Before any command runs, ``main`` checks every float flag finite and the
bounds of ``_BOUNDS``: ``--mass > 0``, ``shift --n-max >= 1``, ``solve``
``coulomb-linear --mu >= 0`` and ``antiparticle-linear --lambda >= 0
--states >= 1 --states <= 19``; the library checks the other flags before
any work.

``solve`` runs one setup per family (``_SOLVE_FAMILIES``).  Each closed-form
bracket rule lives in ``radial_solver`` next to its grid: ``coulomb_grid``
and ``coulomb_bracket`` for ``coulomb`` and ``coulomb-linear``, and
``airy_ladder`` (grid, brackets and one system for every level) for
``antiparticle-linear``; ``bag`` is ``rescale.bag_model_case``.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import operator
import sys

import numpy as np

from . import __version__
from .ansatz import (
    build_ansatz,
    evaluate_spinor,
    nu_fine_tuned,
    radial_residual,
    residual_grid,
)
from .coulomb import dirac_coulomb_energy, schrodinger_energy
from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    NormalizationError,
    WrongStateError,
)
from .fw_effective import first_order_shift, preservation_scan
from .quantum_numbers import enumerate_kappa, radial_nodes
from .radial_solver import (
    airy_ladder,
    coulomb_bracket,
    coulomb_grid,
    coulomb_plus_linear,
    coulomb_potential,
    find_bound_state,
)
from .rescale import bag_model_case, build_rescaled_state
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


def _fmt(value, fmt: str = "csv") -> str:
    """One field: strings bare in CSV and quoted in JSON, None empty in CSV
    and null in JSON, floats at 17 significant digits."""
    if value is None:
        return "" if fmt == "csv" else "null"
    if isinstance(value, str):
        return value if fmt == "csv" else f'"{value}"'
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16e}"


def _render(rows, fmt: str) -> str:
    """Rows (dicts keyed alike; columns in the first row's key order) as
    CSV or as a JSON list of objects.  A NaN or infinite field is a
    numerical failure: it raises ConvergenceError."""
    columns = list(rows[0])
    for row in rows:
        for c in columns:
            if isinstance(row[c], float) and not math.isfinite(row[c]):
                raise ConvergenceError(f"non-finite {c} = {row[c]!r}")
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
    else:
        items = ["{" + ", ".join(f'"{c}": {_fmt(row[c], fmt)}' for c in columns)
                 + "}" for row in rows]
        lines = ["[" + ",\n ".join(items) + "]"]
    return "\n".join(lines) + "\n"


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _emit(rows, fmt: str, path: str | None):
    """Write ``_render``'s text of rows to path, or to stdout if it is None;
    a non-finite field writes nothing."""
    _write(_render(rows, fmt), path)


def cmd_energy(args) -> int:
    e_dirac = dirac_coulomb_energy(args.n, args.kappa, args.lam, args.mass)
    e_schr = schrodinger_energy(args.n, args.lam, args.mass)
    preserved = e_dirac if args.kappa == -args.n else None
    _emit([{
        "n": args.n, "kappa": args.kappa,
        "E_dirac": e_dirac, "E_schrodinger": e_schr,
        "E_preserved": preserved,
    }], args.format, args.output)
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
    _emit(rows, args.format, args.output)
    return EXIT_OK


def cmd_scan(args) -> int:
    report = preservation_scan(args.n_max, args.N_max)
    rows = [{
        "n": n, "kappa": kappa, "N": big_n, "physical": int(kappa == -n),
    } for (n, kappa, big_n) in report.solutions]
    _emit(rows, args.format, args.output)
    expected = sorted(
        (n, kappa, 1) for n in range(1, args.n_max + 1) for kappa in (-n, n)
    )
    if sorted(report.solutions) != expected or report.sign_violations:
        print("scan: unexpected cancellation solutions found", file=sys.stderr)
        return EXIT_CLAIM
    return EXIT_OK


def _norm_integrand(params):
    """The norm density (f^2 + g^2) r^2 in x = s r, on an array of x, with
    s = ``params.inverse_length``.

    In x the density lies at x ~ 1 whatever the couplings and the mass, so
    the quadrature's absolute tolerance means the same everywhere.  In units
    of any other length (1/m at weak coupling, where a << m) the whole
    density could fall between the first panel's nodes.
    """
    s = params.inverse_length

    def integrand(x):
        r = x / s
        f, g = evaluate_spinor(params, r)
        return (f * f + g * g) * r * r / s

    return integrand


# the largest |quadrature of (f^2 + g^2) r^2 - 1| an ``ansatz`` report may
# carry: above it the closed-form norm is wrong (or the quadrature is), and
# the run is a numerical failure rather than a report
_NORM_DEFECT_BOUND = 1e-8


def cmd_ansatz(args) -> int:
    params = build_ansatz(args.lam, args.mu, args.kappa0, args.mass)
    if args.detune_nu != 0.0:
        params = dataclasses.replace(
            params, nu=params.nu * (1.0 + args.detune_nu))
    resid = radial_residual(params, residual_grid(params))
    quad = integrate_adaptive(_norm_integrand(params), 0.0, math.inf, tol=1e-11)
    norm_defect = abs(quad.value - 1.0)
    if not norm_defect <= _NORM_DEFECT_BOUND:
        raise ConvergenceError(
            f"closed-form norm fails its quadrature check: defect "
            f"{norm_defect:.3e} above {_NORM_DEFECT_BOUND:g}")
    devs = params.gamma_deviations()
    rows = [{"quantity": name, "value": value} for name, value in [
        ("b", params.b), ("a", params.a), ("alpha2", params.alpha2),
        ("gamma", params.gamma), ("nu", params.nu),
        ("energy", params.energy), ("norm", params.norm),
        *((f"gamma_dev_{k}", dev) for k, dev in enumerate(devs, 1)),
        ("norm_quadrature_defect", norm_defect),
        ("max_radial_residual", resid),
    ]]
    _emit(rows, args.format, args.output)
    return EXIT_OK


def _solve_coulomb(args):
    """Coulomb level |n, kappa>, bare or with the fine-tuned linear pair."""
    m = args.mass
    e_ref = dirac_coulomb_energy(args.n, args.kappa, args.lam, m)
    bracket = coulomb_bracket(args.n, args.kappa, args.lam, m)
    grid = coulomb_grid(args.lam, args.n, args.kappa, m, args.points)
    linear = args.family == "coulomb-linear"
    if linear:
        nu = nu_fine_tuned(args.mu, args.lam, args.kappa0)
        pot = coulomb_plus_linear(args.lam, args.mu, nu)
    else:
        pot = coulomb_potential(args.lam)
    state = find_bound_state(pot, args.kappa, m, grid, bracket,
                             radial_nodes(args.n, args.kappa))
    row = {"n": args.n, "kappa": args.kappa}
    if linear:
        row.update({"mu": args.mu, "nu": nu, "energy": state.energy,
                    "energy_coulomb": e_ref, "shift": state.energy - e_ref})
    else:
        row.update({"energy": state.energy, "energy_ref": e_ref,
                    "defect": abs(state.energy - e_ref)})
    row.update({"nodes": state.nodes_f, "residual": state.residual})
    return [row], lambda: {"r": grid.r, "f": state.f, "g": state.g}


def _solve_bag(args):
    case = bag_model_case(args.A, args.r0, args.M, args.lam, args.kappa0,
                          args.mass, points=args.points)
    e_ref = dirac_coulomb_energy(-args.kappa0, args.kappa0, args.lam, args.mass)
    row = {"M": args.M, "A": args.A, "r0": args.r0, "energy": case.energy,
           "energy_ref": e_ref, "residual": case.residual}

    def wavefunction():
        r = case.profile.grid.r
        f, g = build_rescaled_state(case.ground.f(r), case.ground.g(r),
                                    case.profile)
        return {"r": r, "f": f, "g": g}

    return [row], wavefunction


def _solve_antiparticle(args):
    """s-wave ladder of the slope 2 mu (plus an optional +lam/r core)."""
    refs, grid, levels = airy_ladder(args.mu, args.mass, args.states,
                                     args.lam, args.points)
    rows = [{"k": k, "energy": state.energy,
             "energy_airy": ref if not args.lam else None,
             "nodes": state.nodes, "residual": state.residual}
            for k, (ref, state) in enumerate(zip(refs, levels), 1)]
    return rows, lambda: {"r": grid.r, "u": levels[-1].u}


# each family maps the parsed flags to (table rows, a function that builds
# the wavefunction columns, called only for --dump-wavefunction)
_SOLVE_FAMILIES = {
    "coulomb": _solve_coulomb,
    "coulomb-linear": _solve_coulomb,
    "bag": _solve_bag,
    "antiparticle-linear": _solve_antiparticle,
}


def cmd_solve(args) -> int:
    rows, wavefunction = _SOLVE_FAMILIES[args.family](args)
    table = _render(rows, args.format)
    if not args.dump_wavefunction:
        _write(table, args.output)
        return EXIT_OK
    columns = wavefunction()
    dump = _render([dict(zip(columns, values))
                    for values in zip(*columns.values())], "csv")
    # both outputs are open before either is written: a dump path that
    # cannot be written leaves no table behind
    with open(args.dump_wavefunction, "w", newline="") as fh:
        _write(table, args.output)
        fh.write(dump)
    return EXIT_OK


def _add_common(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="write table here instead of stdout")
    p.add_argument("--mass", type=float, default=1.0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call (the first ``main``,
    never at import) and shared by every later call in the process: parsing
    leaves it unchanged, and building it costs most of a quick command."""
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
    p.add_argument("--family", required=True, choices=tuple(_SOLVE_FAMILIES))
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


# flags whose destination is not the flag name with '-' for '_'
_FLAG_NAMES = {"lam": "lambda"}

# flag bounds by subcommand, solve --family and "*" (every command)
_BOUNDS = {
    "*": [("mass", ">", 0)],
    "shift": [("n_max", ">=", 1)],
    "coulomb-linear": [("mu", ">=", 0)],  # mu < 0: no normalizable state
    # the ladder asks antiparticle_spectrum_airy for --states + 1 <= 20 levels
    "antiparticle-linear": [("lam", ">=", 0), ("states", ">=", 1),
                            ("states", "<=", 19)],
}
_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


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
        for dest, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                flag = _FLAG_NAMES.get(dest, dest.replace("_", "-"))
                raise DomainError(f"--{flag} must be finite, got {value!r}")
        for key in ("*", args.command, getattr(args, "family", None)):
            for dest, op, bound in _BOUNDS.get(key, ()):
                value = getattr(args, dest)
                if not _COMPARE[op](value, bound):
                    flag = _FLAG_NAMES.get(dest, dest.replace("_", "-"))
                    raise DomainError(f"--{flag} must be {op} {bound}, got {value!r}")
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:  # from the writer: the path is a bad flag
        print(f"cannot write: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (ArithmeticError, BracketError, ConvergenceError, WrongStateError,
            NormalizationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
