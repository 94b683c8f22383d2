"""The RK4 kernel: pinned output bytes and the rescaling bookkeeping."""
import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from diraconf._kernels import BACKEND, rk4_linear2x2


def _coulomb_arrays(n=1500):
    # coefficient tables for a Coulomb Dirac integration on a log grid
    lam, m, kappa, E = 0.5, 1.0, -1, 0.8660254037844386
    t = np.linspace(math.log(2e-6), math.log(50.0), n)
    tt = np.linspace(math.log(2e-6), math.log(50.0), 2 * n - 1)
    r = np.exp(tt)
    p = E + m + lam / r
    q = E - m + lam / r
    a11 = np.full_like(r, -(kappa + 1.0))
    a12 = r * p
    a21 = -r * q
    a22 = np.full_like(r, kappa - 1.0)
    steps = np.diff(t)
    s = math.sqrt(kappa * kappa - lam * lam)
    f0 = float(np.exp(t[0])) ** (s - 1.0)
    g0 = (s + kappa) / lam * f0
    return steps, a11, a12, a21, a22, f0, g0


def _run(reverse):
    steps, a11, a12, a21, a22, f0, g0 = _coulomb_arrays()
    n = len(steps) + 1
    f = np.empty(n)
    g = np.empty(n)
    sc = np.empty(n)
    status = rk4_linear2x2(steps, a11, a12, a21, a22, f0, g0, reverse,
                           f, g, sc)
    assert status == 0
    return f, g, sc


# sha256 of the y1, y2 and logscale bytes of the kernel on
# _coulomb_arrays(), recorded before the kernel switched from list(arr) to
# arr.tolist(); the arithmetic must stay bit-identical
_KERNEL_SHA256 = {
    False: "91443a5c484e054134faf83e35b6e1a463fb3fa99a9af4941412d5d7f08fe7ac",
    True: "c10c39e14e39c90779883512e7bff2ed8b4e8401c940e4aa2c659c2e6339eac6",
}


@pytest.mark.parametrize("reverse", [False, True])
def test_fallback_bit_identical(reverse):
    digest = hashlib.sha256()
    for values in _run(reverse):
        digest.update(values.tobytes())
    assert digest.hexdigest() == _KERNEL_SHA256[reverse]


def test_backend_selected():
    assert BACKEND == "python"


def test_import_warns_nothing():
    # -W error turns any warning raised while importing into a failure
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import diraconf; print(diraconf.kernel_backend)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "python\n"


@pytest.mark.parametrize("kernel", [rk4_linear2x2])
def test_rescaling_bookkeeping(kernel):
    # y' = y over a long range: growth beyond 1e250 must be absorbed into
    # the per-node logscale so value * exp(logscale) tracks e^t
    n = 4001
    t = np.linspace(0.0, 700.0, n)
    ones = np.ones(2 * n - 1)
    zeros = np.zeros(2 * n - 1)
    steps = np.diff(t)
    f = np.empty(n)
    g = np.empty(n)
    sc = np.empty(n)
    status = kernel(steps, ones, zeros, zeros, ones, 1.0, 1.0, False, f, g, sc)
    assert status == 0
    assert np.max(np.abs(f)) <= 1e250
    log_val = np.log(f) + sc
    # tolerance covers RK4 truncation at this step size; the point here is
    # that the rescaling bookkeeping tracks 700 e-folds of growth
    assert np.max(np.abs(log_val - t)) < 1e-2
    assert sc[-1] > 500.0
