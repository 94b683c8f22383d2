"""The measured process of one workload.

Imports the package, builds the seeded operation list and prints
``READY <import seconds>``; then, unless ``--setup-only``, runs
whole passes over the list in a closed loop (one operation at a time) until
the next pass would end after ``--seconds``.  With ``--trace 1`` the passes
alternate between untraced and traced, so the two can be compared within
one process.  The last stdout line is a JSON report: pass and operation
times, the outputs of the first pass, and how many later passes produced
different outputs.  Answers are checked by ``run.py``, not here, so this
process imports neither scipy nor mpmath.
"""
import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import warnings

import spans as tracing
import workloads


def _solver_ops(np, rs, fw, ansatz, coulomb):
    """Executors of the shooting operations; each returns a plain dict."""
    m = 1.0

    def preserved(op):
        lam, mu, kappa0 = op["lam"], op["mu"], op["kappa0"]
        n0 = -kappa0
        e_ref = coulomb.dirac_coulomb_energy(n0, kappa0, lam, m)
        grid = rs.RadialGrid(
            1e-6 / (lam * m),
            rs.suggest_rmax(rs.coulomb_potential(lam), kappa0, e_ref, m,
                            r_start=4.0 * n0 * n0 / (lam * m)),
            workloads.POINTS)
        pot = rs.coulomb_plus_linear(lam, mu, ansatz.nu_fine_tuned(mu, lam, kappa0))
        w, u = workloads.PRESERVED_WIDTH, op["offset"]
        st = rs.find_bound_state(pot, kappa0, m, grid,
                                 (e_ref - w * u, e_ref + w * (1.0 - u)), 0)
        return {"energy": st.energy, "nodes": st.nodes_f}

    def shift_study(op):
        study = rs.shift_convergence_study(
            op["n"], op["kappa"], op["kappa0"], op["lam"], m, op["mu"],
            points=workloads.POINTS,
            bracket_halfwidth=workloads.STUDY_HALFWIDTH)
        return {"richardson": study.richardson, "base_energy": study.base_energy,
                "energies": study.energies}

    def airy_grid(slope, e_top):
        r_char = (2.0 * m * slope) ** (-1.0 / 3.0)

        def v(r):
            return slope * np.asarray(r, dtype=float)

        grid = rs.RadialGrid(
            1e-6 * r_char,
            rs.suggest_rmax_schrodinger(v, e_top, m,
                                        r_start=2.0 * (e_top - m) / slope),
            workloads.POINTS)
        return v, grid

    def airy_ladder(op):
        k_top = workloads.LADDER_STATES
        refs = fw.antiparticle_spectrum_airy(op["mu"], m, count=k_top)
        v, grid = airy_grid(2.0 * op["mu"], refs[-1])
        w = workloads.AIRY_WIDTH
        energies, nodes = [], []
        for k, (ref, u) in enumerate(zip(refs, op["offsets"])):
            st = rs.solve_schrodinger_radial(
                v, 0, m, grid, (ref - w * u, ref + w * (1.0 - u)), k)
            energies.append(st.energy)
            nodes.append(st.nodes)
        return {"energies": energies, "nodes": nodes}

    def repulsive_core(op):
        mu, u = op["mu"], op["offset"]
        slope = 2.0 * mu
        refs = fw.antiparticle_spectrum_airy(mu, m, count=2)
        v, grid = airy_grid(slope, refs[1])
        lo = refs[0] - workloads.AIRY_WIDTH * u
        hi = refs[0] + workloads.AIRY_WIDTH * (1.0 - u)
        states = [rs.solve_schrodinger_radial(v, 0, m, grid, (lo, hi), 0)]
        for lam in op["lam"]:
            def v_core(r, lam=lam):
                r = np.asarray(r, dtype=float)
                return slope * r + lam / r

            # room above the bracket for the upward shift, below the 2nd level
            states.append(rs.solve_schrodinger_radial(
                v_core, 0, m, grid, (lo, hi + 0.1), 0, coulomb_coeff=lam))
        return {"base": states[0].energy,
                "perturbed": [st.energy for st in states[1:]],
                "nodes": [st.nodes for st in states]}

    return {"preserved": preserved, "shift-study": shift_study,
            "airy-ladder": airy_ladder, "repulsive-core": repulsive_core}


def _cli_op(cli):
    def run(op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op["argv"])
        return {"code": code, "stdout": out.getvalue()}
    return run


def _execute(executors, op):
    try:
        return executors[op["kind"]](op)
    except Exception as exc:  # an operation that raises counts as failed
        return {"error": f"{type(exc).__name__}: {exc}"}


def _run_pass(tracer, executors, ops, first, mismatch):
    tracer.begin("bench.pass")
    stdout_bytes = 0
    for i, op in enumerate(ops):
        tracer.begin("bench." + op["kind"])
        out = _execute(executors, op)
        tracer.end()
        stdout_bytes += len(out.get("stdout", "").encode())
        if len(first) < len(ops):
            first.append(out)
        elif out != first[i]:
            mismatch[i] += 1
    tracer.end()
    spans, kernel_bytes = tracer.reset()
    return spans, kernel_bytes, stdout_bytes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        ap.error("--seconds is required unless --setup-only")

    t0 = time.perf_counter()
    with warnings.catch_warnings():
        # the fallback warning repeats on every start; the backend is
        # reported with the results instead
        warnings.filterwarnings("ignore", message="diraconf: compiled kernel")
        import numpy as np
        import diraconf
        import diraconf.cli
    import_s = time.perf_counter() - t0
    from diraconf import ansatz, coulomb, fw_effective, radial_solver

    ops = workloads.build(args.workload, args.seed)
    executors = _solver_ops(np, radial_solver, fw_effective, ansatz, coulomb)
    executors.update({k: _cli_op(diraconf.cli)
                      for k in ("cli-energy", "cli-shift", "cli-scan",
                                "cli-ansatz", "cli-bag", "cli-invalid")})
    tracer = tracing.Tracer()
    tracer.install(tracing.SOLVE_SPANS)
    print(f"READY {import_s!r}", flush=True)
    if args.setup_only:
        return 0

    layer_names = ({name for _, _, name in tracing.LAYER_TARGETS}
                   - set(tracing.SOLVE_SPANS))
    first, mismatch = [], [0] * len(ops)
    passes, traced_spans = [], []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            patches = tracer.install(layer_names)
        spans, kernel_bytes, stdout_bytes = _run_pass(tracer, executors, ops,
                                                      first, mismatch)
        if traced:
            tracer.remove(patches)
        record = {
            "traced": traced,
            "pass_s": spans[0][2] - spans[0][1],
            "op_s": [s[2] - s[1] for s in spans if s[3] == 0],
            "solve_s": tracing.solve_times(spans),
        }
        if traced:
            record["layers"] = tracing.layer_metrics(spans, kernel_bytes,
                                                   stdout_bytes)
            traced_spans.append(spans)
        passes.append(record)
        both = not args.trace or len(passes) >= 2
        typical = statistics.median(p["pass_s"] for p in passes)
        if both and time.perf_counter() - start + typical > args.seconds:
            break

    if args.trace_file:
        with open(args.trace_file, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "count"],
                       "passes": traced_spans}, fh)
    report = {
        "backend": diraconf.kernel_backend,
        "numpy": np.__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "outputs": first,
        "mismatch": mismatch,
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
