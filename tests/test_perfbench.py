"""The benchmark's self-test (``perfbench/selftest.py``), run unmodified in
a subprocess: it pins the shape of the kernel calls (one ``rk4_linear2x2``
call per ``_propagate``, n - 1 steps and the bytes of each call) and the
tracer, so a change that breaks either fails here and not only when the
benchmark runs."""
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4 and all(line.startswith("ok  ") for line in lines), \
        proc.stdout
