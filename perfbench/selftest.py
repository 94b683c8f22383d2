#!/usr/bin/env python3
"""Fast self-test of the benchmark itself (a few seconds, tiny sizes).

    python3 perfbench/selftest.py

Checks that each oracle agrees with the package on one point, that the
wrappers count kernel calls, steps and bytes exactly, that a traced pass
yields spans whose self times add up to the pass time, and that the
operation lists depend on the seed only through their parameters.
"""
import math
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
warnings.filterwarnings("ignore", message="diraconf: compiled kernel")

import numpy as np  # noqa: E402
import diraconf  # noqa: E402
import diraconf.cli  # noqa: E402
from diraconf import ansatz, coulomb, fw_effective, radial_solver as rs  # noqa: E402

import oracles  # noqa: E402
import spans as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def check_oracles():
    lam, mu, m = 0.3, 1e-4, 1.0
    assert math.isclose(oracles.sommerfeld(3, 2, lam),
                        coulomb.dirac_coulomb_energy(3, 2, lam), rel_tol=1e-14)
    assert math.isclose(oracles.preserved_energy(lam, -2),
                        ansatz.build_ansatz(lam, mu, -2).energy, rel_tol=1e-14)
    assert math.isclose(oracles.fw_slope(3, 2, -1, 0.1),
                        fw_effective.first_order_shift(3, 2, -1, 0.1, 1.0).total,
                        rel_tol=1e-12)
    for mine, theirs in zip(oracles.airy_levels(0.3, 3),
                            fw_effective.antiparticle_spectrum_airy(0.3, count=3)):
        assert math.isclose(mine, theirs, rel_tol=1e-10)
    assert math.isclose(oracles.ansatz_norm(lam, mu, -2),
                        ansatz.build_ansatz(lam, mu, -2).norm, rel_tol=1e-9)
    # <1/r> of the Airy ground state against the package's solver state
    slope = 2 * 0.4
    refs = fw_effective.antiparticle_spectrum_airy(0.4, m, count=2)
    r_char = (2 * m * slope) ** (-1 / 3)
    grid = rs.RadialGrid(1e-6 * r_char, 12 * r_char, 600)
    st = rs.solve_schrodinger_radial(lambda r: slope * np.asarray(r, dtype=float),
                                     0, m, grid, (refs[0] - 0.1, refs[0] + 0.1), 0)
    assert math.isclose(oracles.airy_inv_r(0.4), grid.integrate(st.u ** 2 / grid.r),
                        rel_tol=1e-3)


def check_kernel_counts():
    count = [0]
    propagate = rs._propagate

    def counted(*args, **kwargs):
        count[0] += 1
        return propagate(*args, **kwargs)

    tracer = tracing.Tracer()
    patches = tracer.install({name for _, _, name in tracing.LAYER_TARGETS})
    rs._propagate = counted  # one kernel call per propagation, by construction
    try:
        # every namespace that binds the kernel holds the same wrapper
        assert diraconf._kernels.rk4_linear2x2 is rs.rk4_linear2x2
        assert hasattr(rs.rk4_linear2x2, "__wrapped__")
        n = 120
        lam = 0.5
        e_ref = coulomb.dirac_coulomb_energy(1, -1, lam)
        grid = rs.RadialGrid(1e-6 / lam, 60.0, n)
        rs.find_bound_state(rs.coulomb_potential(lam), -1, 1.0, grid,
                            (e_ref - 3e-3, e_ref + 1e-3), 0)
        spans, kernel_bytes = tracer.reset()
        kernel = [s for s in spans if s[0] == tracing.KERNEL_SPAN]
        assert len(kernel) == count[0] > 2
        assert sum(s[4] for s in kernel) == count[0] * (n - 1)
        per_call = 8 * ((n - 1) + 4 * (2 * n - 1) + 3 * n)
        assert kernel_bytes == count[0] * per_call
        metrics = tracing.layer_metrics(spans, kernel_bytes, 0)
        assert metrics["kernels.calls_per_solve"] == count[0]
        assert metrics["radial_solver.solves"] == 1
    finally:
        rs._propagate = propagate
        tracer.remove(patches)
    assert not hasattr(rs.rk4_linear2x2, "__wrapped__")
    assert not hasattr(diraconf.cli.main, "__wrapped__")


def check_traced_pass():
    tracer = tracing.Tracer()
    tracer.install(tracing.SOLVE_SPANS)
    patches = tracer.install({name for _, _, name in tracing.LAYER_TARGETS}
                             - set(tracing.SOLVE_SPANS))
    points = workloads.POINTS
    workloads.POINTS = 200
    try:
        executors = worker._solver_ops(np, rs, fw_effective, ansatz, coulomb)
        executors["cli-energy"] = executors["cli-scan"] = worker._cli_op(diraconf.cli)
        ops = [workloads.build("dirac-confined", 3)[0],
               workloads.build("antiparticle-airy", 3)[2],
               {"kind": "cli-energy", "argv": ["energy", "--lambda", "0.5",
                                               "--n", "2", "--kappa", "-1"]},
               {"kind": "cli-scan", "argv": ["scan", "--n-max", "5"]}]
        first, mismatch = [], [0] * len(ops)
        spans, _, stdout_bytes = worker._run_pass(tracer, executors, ops, first,
                                                  mismatch)
    finally:
        workloads.POINTS = points
        tracer.remove(patches)
    own = tracing.self_times(spans)
    total = spans[0][2] - spans[0][1]
    assert all(t >= -1e-12 for t in own), own
    assert all(0 <= s[3] < i for i, s in enumerate(spans) if i), "bad parents"
    assert abs(sum(own) - total) <= 1e-9 * max(1.0, total), (sum(own), total)
    assert sum(1 for s in spans if s[3] == 0) == len(ops)
    assert stdout_bytes > 0 and all("error" not in out for out in first), first
    assert tracing.layer_metrics(spans, 0, stdout_bytes)["cli.calls"] == 2


def check_op_lists():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 7) == workloads.build(name, 7)
        assert workloads.build(name, 7) != workloads.build(name, 8)
        shapes = {tuple(op["kind"] for op in workloads.build(name, seed))
                  for seed in range(50)}
        assert len(shapes) == 1, f"{name}: operation kinds depend on the seed"


def main():
    for check in (check_oracles, check_kernel_counts, check_traced_pass,
                  check_op_lists):
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
