"""Backend cross-checks: compiled kernel vs pure-Python fallback."""
import hashlib
import math

import numpy as np
import pytest

from diraconf._kernels import BACKEND, fallback

try:
    from diraconf._kernels import _shoot
except ImportError:
    _shoot = None


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


def _run(kernel, reverse):
    steps, a11, a12, a21, a22, f0, g0 = _coulomb_arrays()
    n = len(steps) + 1
    f = np.empty(n)
    g = np.empty(n)
    sc = np.empty(n)
    status = kernel(steps, a11, a12, a21, a22, f0, g0, reverse, f, g, sc)
    assert status == 0
    return f, g, sc


@pytest.mark.skipif(_shoot is None, reason="compiled kernel not built")
@pytest.mark.parametrize("reverse", [False, True])
def test_backends_agree(reverse):
    f_c, g_c, sc_c = _run(_shoot.rk4_linear2x2, reverse)
    f_p, g_p, sc_p = _run(fallback.rk4_linear2x2, reverse)
    # same arithmetic step order; only FP contraction may differ
    assert np.allclose(f_c, f_p, rtol=1e-12, atol=1e-300)
    assert np.allclose(g_c, g_p, rtol=1e-12, atol=1e-300)
    assert np.allclose(sc_c, sc_p, rtol=1e-12, atol=1e-12)


# sha256 of the y1, y2 and logscale bytes of the fallback kernel on
# _coulomb_arrays(), recorded before the kernel switched from list(arr) to
# arr.tolist(); the arithmetic must stay bit-identical
_FALLBACK_SHA256 = {
    False: "91443a5c484e054134faf83e35b6e1a463fb3fa99a9af4941412d5d7f08fe7ac",
    True: "c10c39e14e39c90779883512e7bff2ed8b4e8401c940e4aa2c659c2e6339eac6",
}


@pytest.mark.parametrize("reverse", [False, True])
def test_fallback_bit_identical(reverse):
    digest = hashlib.sha256()
    for values in _run(fallback.rk4_linear2x2, reverse):
        digest.update(values.tobytes())
    assert digest.hexdigest() == _FALLBACK_SHA256[reverse]


def test_backend_selected():
    assert BACKEND in ("cython", "python")


@pytest.mark.skipif(_shoot is None, reason="compiled kernel not built")
def test_full_solve_agrees_across_backends(monkeypatch):
    # end-to-end: the eigenvalue search must give the same energy no matter
    # which kernel drives it (coarse grid keeps the pure-Python run quick)
    import diraconf.radial_solver as rs
    from diraconf.coulomb import dirac_coulomb_energy

    lam, m = 0.5, 1.0
    e_ref = dirac_coulomb_energy(2, -1, lam, m)
    pot = rs.coulomb_potential(lam)
    grid = rs.RadialGrid(2e-6, 60.0, 2000)

    energies = {}
    for name, kernel in (("cython", _shoot.rk4_linear2x2),
                         ("python", fallback.rk4_linear2x2)):
        monkeypatch.setattr(rs, "rk4_linear2x2", kernel)
        st = rs.find_bound_state(pot, -1, m, grid,
                                 (e_ref - 0.005, e_ref + 0.005), 1)
        energies[name] = st.energy
    assert energies["cython"] == pytest.approx(energies["python"],
                                               rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("kernel", [fallback.rk4_linear2x2] +
                         ([_shoot.rk4_linear2x2] if _shoot else []))
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
