"""The compiled kernel under AddressSanitizer and UndefinedBehaviorSanitizer.

The kernel and solver tests run again in a subprocess whose kernel is built
from ``_rk4.c`` with ``-O1 -g -fsanitize=address,undefined
-fno-sanitize-recover=undefined`` into a temporary cache, with the
sanitizer runtimes preloaded into the interpreter: any report aborts that
run.  The build flags are patched inside the subprocess only.  The test
skips only where ``cc`` cannot build with the sanitizers or their runtimes
are missing.
"""
import os
import shutil
import subprocess
import sys

import pytest

from diraconf import _kernels

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(TESTS, os.pardir, "src")
SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=undefined")

# the subprocess: build with the sanitizers, run the tests named on its
# command line, and report the backend they ran on; --capture=sys leaves
# file descriptor 2 alone, so a sanitizer report reaches the parent
RUNNER = """\
import sys

import pytest

from diraconf import _kernels

_kernels._FLAGS = (*{sanitize!r},
                   *(f for f in _kernels._FLAGS if not f.startswith("-O")))
code = pytest.main(["-q", "-p", "no:cacheprovider", "--capture=sys",
                    *sys.argv[1:]])
print("backend", _kernels.backend())
sys.exit(code)
"""


def _sanitizer_env(cc, tmp_path):
    """The subprocess environment, or None where cc cannot build with the
    sanitizers or their runtimes are missing."""
    runtimes = []
    for name in ("libasan.so", "libubsan.so"):
        path = subprocess.run([cc, f"-print-file-name={name}"],
                              capture_output=True, text=True).stdout.strip()
        if not (os.path.isabs(path) and os.path.exists(path)):
            return None
        runtimes.append(path)
    probe = tmp_path / "probe.c"
    probe.write_text("int probe(int x) { return x + 1; }\n")
    built = subprocess.run(
        [cc, *SANITIZE, "-fPIC", "-shared", "-o", str(tmp_path / "probe.so"),
         str(probe)], capture_output=True)
    if built.returncode != 0:
        return None
    return {**os.environ, "PYTHONPATH": SRC,
            "XDG_CACHE_HOME": str(tmp_path / "cache"),
            "LD_PRELOAD": " ".join(runtimes),
            "ASAN_OPTIONS": "detect_leaks=0"}


def test_kernel_and_solver_tests_pass_under_sanitizers(tmp_path):
    cc = shutil.which(_kernels._CC)
    env = cc and _sanitizer_env(cc, tmp_path)
    if not env:
        pytest.skip("cc cannot build with -fsanitize=address,undefined here")
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER.format(sanitize=SANITIZE),
         os.path.join(TESTS, "test_kernels.py"),
         os.path.join(TESTS, "test_radial_solver.py")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1] == "backend c"
    assert "Sanitizer" not in proc.stderr
