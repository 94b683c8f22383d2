"""The RK4 kernel: pinned output bytes, the rescaling bookkeeping, and the
compiled backend against the Python loop."""
import hashlib
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from diraconf import _kernels
from diraconf._kernels import _rk4_python, rk4_linear2x2
from diraconf.coulomb import dirac_coulomb_energy
from diraconf.fw_effective import antiparticle_spectrum_airy
from diraconf.radial_solver import (
    airy_grid,
    coulomb_grid,
    coulomb_potential,
    find_bound_state,
    solve_schrodinger_radial,
)

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
HAVE_CC = shutil.which(_kernels._CC) is not None
_SELECTED = _kernels._selected  # tests below monkeypatch the module's name


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


def _run(reverse, kernel=rk4_linear2x2):
    steps, a11, a12, a21, a22, f0, g0 = _coulomb_arrays()
    n = len(steps) + 1
    f = np.empty(n)
    g = np.empty(n)
    sc = np.empty(n)
    status = kernel(steps, a11, a12, a21, a22, f0, g0, reverse, f, g, sc)
    assert status == 0
    return f, g, sc


def _run_to(stop, reverse, kernel):
    """``_run`` stopped at node ``stop``, into outputs that start as NaN."""
    args = _coulomb_arrays()
    n = len(args[0]) + 1
    out = np.full(n, np.nan), np.full(n, np.nan), np.full(n, np.nan)
    assert kernel(*args, reverse, *out, stop) == 0
    return out


def _swept(reverse, stop):
    """The nodes a sweep to ``stop`` writes."""
    return slice(stop, None) if reverse else slice(0, stop + 1)


def _compiled():
    """The compiled kernel; it must be selected wherever ``cc`` exists."""
    if not HAVE_CC:
        pytest.skip("no C compiler on PATH")
    name, kernel = _SELECTED()
    assert name == "c"
    return kernel


def _kernel(name):
    return {"rk4_linear2x2": rk4_linear2x2,
            "_rk4_python": _rk4_python}.get(name) or _compiled()


def _use_backend(monkeypatch, name):
    kernel = _rk4_python if name == "python" else _compiled()
    monkeypatch.setattr(_kernels, "_selected", lambda: (name, kernel))


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


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", ["_rk4_python", "_rk4_c"])
def test_each_backend_bit_identical(name, reverse):
    digest = hashlib.sha256()
    for values in _run(reverse, _kernel(name)):
        digest.update(values.tobytes())
    assert digest.hexdigest() == _KERNEL_SHA256[reverse]


# sha256 of the y1, y2 and logscale bytes over the nodes swept by one
# partial sweep of each direction on _coulomb_arrays() (outward to node 900,
# inward to node 600): the full sweep's bytes on those nodes
_PARTIAL_STOP = {False: 900, True: 600}
_PARTIAL_SHA256 = {
    False: "1e6cd46bf2647fc69f6421a0e9d382c9cd48115d7b382054f58b824354eb9890",
    True: "cc51e593fadff595fb7432c06a85a2b8cbb57c2fca9240d12ed2f2ac73092aca",
}


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", ["rk4_linear2x2", "_rk4_python", "_rk4_c"])
def test_partial_sweep_pinned(name, reverse):
    stop = _PARTIAL_STOP[reverse]
    digest = hashlib.sha256()
    for values in _run_to(stop, reverse, _kernel(name)):
        digest.update(values[_swept(reverse, stop)].tobytes())
    assert digest.hexdigest() == _PARTIAL_SHA256[reverse]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", ["_rk4_python", "_rk4_c"])
def test_partial_sweep_is_the_full_sweep_on_its_nodes(name, reverse):
    # the sweep is sequential: stopping early keeps every sample it writes
    # and leaves the other nodes as they were
    kernel = _kernel(name)
    full = _run(reverse, kernel)
    for stop in (0, 1, 499, 1000, 1498, 1499):
        swept = _swept(reverse, stop)
        for part, whole in zip(_run_to(stop, reverse, kernel), full):
            assert part[swept].tobytes() == whole[swept].tobytes()
            assert np.isnan(np.delete(part, np.arange(1500)[swept])).all()


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", ["rk4_linear2x2", "_rk4_python", "_rk4_c"])
def test_stop_out_of_range_raises(name, reverse):
    kernel = _kernel(name)
    args = _coulomb_arrays(50)
    for stop in (-1, 50, 10**6):
        out = np.full(50, 7.0), np.full(50, 7.0), np.full(50, 7.0)
        with pytest.raises(ValueError, match="stop"):
            kernel(*args, reverse, *out, stop)
        assert all((a == 7.0).all() for a in out)


def test_backend_selected():
    assert _kernels.backend() == ("c" if HAVE_CC else "python")


def test_import_warns_nothing():
    # -W error turns any warning raised while importing into a failure;
    # reading kernel_backend selects the backend, building it on a cold cache
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import diraconf; print(diraconf.kernel_backend)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("c\n" if HAVE_CC else "python\n")


def test_import_selects_nothing():
    # the build is deferred to the first kernel call: importing the package
    # starts no compiler and loads no library
    proc = subprocess.run(
        [sys.executable, "-c",
         "import diraconf, diraconf.cli; "
         "print(diraconf._kernels._selected.cache_info().currsize)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


@pytest.mark.parametrize("kernel", ["rk4_linear2x2", "_rk4_python", "_rk4_c"])
def test_rescaling_bookkeeping(kernel):
    # y' = y over a long range: growth beyond 1e250 must be absorbed into
    # the per-node logscale so value * exp(logscale) tracks e^t
    kernel = _kernel(kernel)
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


@pytest.mark.parametrize("name", ["_rk4_python", "_rk4_c"])
def test_non_finite_status(name):
    steps = np.full(3, 1.0)
    big = np.full(7, 1e308)
    out = np.empty(4), np.empty(4), np.empty(4)
    assert _kernel(name)(steps, big, big, big, big, 1e300, 1e300, False,
                         *out) == 1


def test_self_check_covers_a_rescale():
    args = _kernels._self_check_input()
    n = len(args[0]) + 1
    for reverse in (False, True):
        sc = np.empty(n)
        assert _rk4_python(*args, reverse, np.empty(n), np.empty(n), sc) == 0
        assert np.count_nonzero(sc) > 0


def _dirac_n2(monkeypatch, backend):
    _use_backend(monkeypatch, backend)
    lam, m, kappa, n = 0.5, 1.0, -1, 2
    e_ref = dirac_coulomb_energy(n, kappa, lam, m)
    gap = lam * lam * m * (1.0 / n**2 - 1.0 / (n + 1) ** 2) / 2.0
    state = find_bound_state(coulomb_potential(lam), kappa, m,
                             coulomb_grid(lam, n, kappa, m, 2000),
                             (e_ref - 0.25 * gap, e_ref + 0.25 * gap), n - 1)
    return [state.energy.hex()], [state.f, state.g]


def _airy_ladder(monkeypatch, backend):
    _use_backend(monkeypatch, backend)
    mu, m = 0.3, 1.0
    slope = 2.0 * mu
    refs = antiparticle_spectrum_airy(mu, m, count=4)

    def v(r):
        return slope * np.asarray(r, dtype=float)

    grid = airy_grid(v, slope, refs[2], m, 1500)
    energies, arrays = [], []
    for k in range(3):
        lo = refs[k] - 0.45 * (refs[k] - (refs[k - 1] if k else m))
        hi = refs[k] + 0.45 * (refs[k + 1] - refs[k])
        state = solve_schrodinger_radial(v, 0, m, grid, (lo, hi), k)
        energies.append(state.energy.hex())
        arrays += [state.u, state.du]
    return energies, arrays


@pytest.mark.parametrize("solve", [_dirac_n2, _airy_ladder])
def test_full_solves_match_across_backends(monkeypatch, solve):
    results = {}
    for backend in ("python", "c"):
        energies, arrays = solve(monkeypatch, backend)
        digest = hashlib.sha256()
        for values in arrays:
            digest.update(values.tobytes())
        results[backend] = energies, digest.hexdigest()
    assert results["c"] == results["python"]


def test_compiled_rejects_arrays_it_cannot_read():
    kernel = _compiled()
    steps, a11, a12, a21, a22, f0, g0 = _coulomb_arrays(50)
    out = np.empty(50), np.empty(50), np.empty(50)
    with pytest.raises(ValueError):
        kernel(steps, a11[::-1], a12, a21, a22, f0, g0, False, *out)
    with pytest.raises(ValueError):
        kernel(steps, a11[:-1], a12, a21, a22, f0, g0, False, *out)
    with pytest.raises(ValueError):
        kernel(steps, a11.astype(np.float32), a12, a21, a22, f0, g0, False,
               *out)
    for k in range(3):  # a ValueError, not the TypeError of a ctypes view
        out = [np.empty(50), np.empty(50), np.empty(50)]
        out[k].flags.writeable = False
        with pytest.raises(ValueError):
            kernel(steps, a11, a12, a21, a22, f0, g0, False, *out)


@pytest.mark.parametrize("position", range(5))
def test_compiled_reads_read_only_tables(position):
    # ctypes views only writeable buffers: a read-only input table takes the
    # slower pointer route and gives the same bytes
    kernel = _compiled()
    args = list(_coulomb_arrays(50))
    ref = np.empty(50), np.empty(50), np.empty(50)
    assert kernel(*args, False, *ref) == 0
    table = args[position].copy()
    table.flags.writeable = False
    args[position] = table
    out = np.empty(50), np.empty(50), np.empty(50)
    assert kernel(*args, False, *out) == 0
    assert all(a.tobytes() == b.tobytes() for a, b in zip(out, ref))


@pytest.mark.parametrize("reverse", [False, True])
def test_zero_step_sweep_matches_across_backends(reverse):
    # one node: no step, and empty step buffers that ctypes cannot view
    outs = []
    for kernel in (_rk4_python, _compiled()):
        out = np.full(1, 7.0), np.full(1, 7.0), np.full(1, 7.0)
        status = kernel(np.empty(0), *(np.ones(1),) * 4, 2.0, 3.0, reverse,
                        *out)
        outs.append((status, [a.tolist() for a in out]))
    assert outs[0] == outs[1] == (0, [[2.0], [3.0], [0.0]])


@pytest.mark.parametrize("name, value", [
    ("_CC", "/nonexistent/cc"),  # no such compiler
    ("_CC", "false"),  # a compiler that fails
    ("_SOURCE", "/nonexistent/_rk4.c"),  # installed without its source
])
def test_failed_build_selects_python(monkeypatch, tmp_path, name, value):
    monkeypatch.setattr(_kernels, "_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(_kernels, name, value)
    assert _kernels._select()[0] == "python"
    assert os.listdir(tmp_path) == []


def test_unwritable_cache_selects_python(monkeypatch, tmp_path):
    # the cache directory would sit below a regular file, so it cannot be
    # created; unlike a chmod 0o500 parent, this also holds for root
    blocked = tmp_path / "file"
    blocked.write_text("")
    monkeypatch.setattr(_kernels, "_CACHE_DIR", str(blocked / "diraconf"))
    assert _kernels._select()[0] == "python"


def test_mismatching_kernel_selects_python(monkeypatch):
    # selection is by observation: a compiled kernel that moves one bit loses
    _compiled()
    wrap = _kernels._wrap_compiled

    def off_by_one_ulp(fn):
        kernel = wrap(fn)

        def perturbed(*args):
            status = kernel(*args)
            args[8][-1] = np.nextafter(args[8][-1], np.inf)
            return status

        return perturbed

    monkeypatch.setattr(_kernels, "_wrap_compiled", off_by_one_ulp)
    assert _kernels._select()[0] == "python"


@pytest.mark.parametrize("misread", ["full-sweep", "one-node-short"])
def test_kernel_mishandling_stop_selects_python(monkeypatch, misread):
    # the self-check sweeps to a mid-grid node and to either end in both
    # directions: a compiled kernel that misreads the stop node loses
    _compiled()
    wrap = _kernels._wrap_compiled

    def misreading(fn):
        kernel = wrap(fn)

        def wrong_stop(*args):
            n = len(args[0]) + 1
            stop = args[11]
            if misread == "full-sweep":
                stop = None
            elif 0 < stop < n - 1:
                stop += 1 if args[7] else -1
            return kernel(*args[:11], stop)

        return wrong_stop

    monkeypatch.setattr(_kernels, "_wrap_compiled", misreading)
    assert _kernels._select()[0] == "python"


def test_cache_hit_starts_no_process(monkeypatch, tmp_path):
    _compiled()
    monkeypatch.setattr(_kernels, "_CACHE_DIR", str(tmp_path))
    assert _kernels._select()[0] == "c"
    built = os.listdir(tmp_path)
    assert len(built) == 1 and built[0].endswith(".so")

    def no_process(*args, **kwargs):
        raise AssertionError("a cache hit started a process")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    assert _kernels._select()[0] == "c"
    assert os.listdir(tmp_path) == built


def test_concurrent_first_builds(tmp_path):
    # two processes build into one empty cache at once: each writes its own
    # temporary file and renames it, so both load a whole library
    _compiled()
    env = {**os.environ, "PYTHONPATH": SRC, "XDG_CACHE_HOME": str(tmp_path)}
    code = "import diraconf; print(diraconf.kernel_backend)"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    assert [out for out, _ in outs] == ["c\n", "c\n"]
    built = os.listdir(tmp_path / "diraconf")
    assert len(built) == 1 and built[0].endswith(".so")


def _tree(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, files in os.walk(root) for f in files}


def test_source_is_package_data_and_build_leaves_src_clean(monkeypatch,
                                                           tmp_path):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "pyproject.toml")) as fh:
        pyproject = fh.read()
    assert "[tool.setuptools.package-data]" in pyproject
    assert 'diraconf = ["_rk4.c"]' in pyproject
    with open(os.path.join(root, "MANIFEST.in")) as fh:
        assert "include src/diraconf/_rk4.c" in fh.read().splitlines()
    _compiled()
    before = _tree(SRC)
    monkeypatch.setattr(_kernels, "_CACHE_DIR", str(tmp_path))
    assert _kernels._select()[0] == "c"  # a cold build
    assert _tree(SRC) == before


def test_cache_key_is_sha256():
    data = b"diraconf\0-O2"
    assert _kernels._sha256(data) == hashlib.sha256(data).hexdigest()
