#!/usr/bin/env python3
"""Benchmark of diraconf: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload runs in its own single-threaded worker process (worker.py),
started from the package sources under ``src/`` of this checkout, with the
math-library thread pools pinned to one thread.  Set-up time is measured by
starting fresh workers several times, before and after the measuring one.
The times of a run are reported at the machine's slow phase (see
``_slow_phase``).  Every output
of the first pass is checked here against answers computed apart from the
package (oracles.py); later passes must reproduce it exactly.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results and spans are written
under ``perfbench/results/``.
"""
import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import workloads
from spans import median_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_RUNS = 5  # set-up-only workers per run, besides the measuring one
READY_TIMEOUT_S = 60.0
EXPECTED_FAILURES = ("cli-invalid",)  # known faults: exit 0 instead of 2

# metric names, units and the run length come from BENCHMARK.json
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _start_worker(args, extra):
    """Start a worker; return it, its start-to-ready and its import seconds."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if not line.startswith("READY "):
            raise BenchError(f"worker did not become ready: {line!r}")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup_s, float(line.split()[1])


def _finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"worker still running after {timeout} s") from exc
        raise
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _measure(args, trace_file):
    setups, imports = [], []

    def probe(count):
        for _ in range(count):
            proc, setup_s, import_s = _start_worker(args, ["--setup-only"])
            _finish(proc, READY_TIMEOUT_S)
            setups.append(setup_s)
            imports.append(import_s)

    # set-up probes before and after the measuring worker, so that they see
    # more than one phase of the machine's speed
    probe(SETUP_RUNS - SETUP_RUNS // 2)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--trace-file", str(trace_file)]
    proc, setup_s, import_s = _start_worker(args, extra)
    setups.append(setup_s)
    imports.append(import_s)
    out = _finish(proc, args.seconds + 150.0)
    report = json.loads(out.strip().splitlines()[-1])
    probe(SETUP_RUNS // 2)
    return report, setups, imports


def _verdict(ops, report):
    """Attempted and failed operations, and the reasons of each failure."""
    n_pass = len(report["passes"])
    failed, unexpected, reasons = 0, 0, {}
    for i, (op, out) in enumerate(zip(ops, report["outputs"])):
        reason = oracles.check(op, out)
        fails = n_pass if reason else report["mismatch"][i]
        if reason is None and fails:
            reason = f"output changed in {fails} of {n_pass - 1} repeated passes"
        if fails:
            failed += fails
            reasons[f"{i}:{op['kind']}"] = reason
            if op["kind"] not in EXPECTED_FAILURES:
                unexpected += fails
    return n_pass * len(ops), failed, unexpected == 0, reasons


def _slow_phase(per_pass):
    """Nearest-rank 90th percentile over the passes (or starts) of a run.

    On a shared host the machine's speed switches between phases lasting
    tens of seconds; the slower phase recurs in nearly every run while the
    faster one comes and goes.  The 90th percentile over passes reads the
    slower phase steadily, where a median over the run jumps with the share
    of time spent in the faster one.
    """
    values = sorted(per_pass)
    return values[math.ceil(0.9 * len(values)) - 1]


def _metrics(args, report, setups, imports):
    passes = report["passes"]
    plain = [p for p in passes if not p["traced"]]
    if not args.trace:
        values = {
            "setup_s": _slow_phase(setups),
            "pass_s": _slow_phase(p["pass_s"] for p in plain),
            "op_s.median": _slow_phase(
                statistics.median(p["op_s"]) for p in plain),
            "solve_s.median": _slow_phase(
                statistics.median(p["solve_s"]) for p in plain),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        kind = "end_to_end"
    else:
        traced = [p for p in passes if p["traced"]]
        values = median_metrics([p["layers"] for p in traced])
        values["setup.import_s"] = statistics.median(imports)
        base = statistics.median(p["pass_s"] for p in plain)
        overhead = statistics.median(p["pass_s"] for p in traced) - base
        values["trace.overhead_s"] = overhead
        values["trace.overhead_pct"] = 100.0 * overhead / base
        kind = "per_layer"
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC[kind]}


def run_workload(args):
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ops = workloads.build(args.workload, args.seed)
    report, setups, imports = _measure(args, stem.with_suffix(".spans.json"))
    attempted, failed, correct, reasons = _verdict(ops, report)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": _metrics(args, report, setups, imports)}
    n_plain = sum(not p["traced"] for p in report["passes"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {report['backend']}  passes {len(report['passes'])} "
          f"({n_plain} untraced)  operations {attempted}  failed {failed}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    for where, why in reasons.items():
        print(f"  failed op {where}: {why}")
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": report["numpy"], "backend": report["backend"],
               "platform": platform.platform()}
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump({"result": result, "machine": machine, "failures": reasons,
                   "setup_s": setups, "import_s": imports,
                   "peak_rss_mb": report["peak_rss_mb"],
                   "passes": report["passes"]}, fh, indent=1)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all",
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if SPEC is None or not (ROOT / "src" / "diraconf" / "__init__.py").is_file():
        print(f"perfbench: need BENCHMARK.json and the package sources "
              f"src/diraconf under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = SPEC["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
