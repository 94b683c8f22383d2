"""The RK4 kernel: pinned output bytes, the rescaling bookkeeping, and the
compiled backend against the Python loop and the numpy residuals."""
import hashlib
import math
import os
import shutil
import subprocess
import sys
import sysconfig
import types

import numpy as np
import pytest

from diraconf import _kernels
from diraconf import radial_solver as rs
from diraconf._kernels import _rk4_python, rk4_linear2x2
from diraconf.ansatz import nu_fine_tuned
from diraconf.coulomb import dirac_coulomb_energy
from diraconf.radial_solver import (
    airy_ladder,
    coulomb_bracket,
    coulomb_grid,
    coulomb_plus_linear,
    coulomb_potential,
    find_bound_state,
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
    status = kernel(steps, a11, a12, a21, a22, f0, g0, reverse, f, g, sc,
                    0 if reverse else n - 1)
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


def _compiled_backend():
    """The compiled backend: ("c", kernel, Dirac residual, Schroedinger
    residual); it must be selected wherever ``cc`` exists."""
    if not HAVE_CC:
        pytest.skip("no C compiler on PATH")
    selected = _SELECTED()
    assert selected[0] == "c"
    return selected


def _compiled():
    """The compiled kernel."""
    return _compiled_backend()[1]


def _kernel(name):
    return {"rk4_linear2x2": rk4_linear2x2,
            "_rk4_python": _rk4_python}.get(name) or _compiled()


def _use_backend(monkeypatch, name):
    selected = (_kernels._references() if name == "python"
                else _compiled_backend())
    monkeypatch.setattr(_kernels, "_selected", lambda: selected)


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



@pytest.mark.parametrize("name", ["_rk4_python", "_rk4_c"])
def test_stop_is_required(name):
    # every sweep names its stop node: there is no whole-grid default
    kernel = _kernel(name)
    args = _coulomb_arrays(50)
    for reverse in (False, True):
        for stop in ((), (None,)):
            out = np.full(50, 7.0), np.full(50, 7.0), np.full(50, 7.0)
            with pytest.raises(TypeError):
                kernel(*args, reverse, *out, *stop)
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
    status = kernel(steps, ones, zeros, zeros, ones, 1.0, 1.0, False, f, g, sc,
                    n - 1)
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
                         *out, 3) == 1


def test_self_check_covers_a_rescale():
    args = _kernels._self_check_input()
    n = len(args[0]) + 1
    for reverse in (False, True):
        sc = np.empty(n)
        assert _rk4_python(*args, reverse, np.empty(n), np.empty(n), sc,
                           0 if reverse else n - 1) == 0
        assert np.count_nonzero(sc) > 0


def _dirac_n2(monkeypatch, backend):
    _use_backend(monkeypatch, backend)
    lam, m, kappa, n = 0.5, 1.0, -1, 2
    state = find_bound_state(coulomb_potential(lam), kappa, m,
                             coulomb_grid(lam, n, kappa, m, 2000),
                             coulomb_bracket(n, kappa, lam, m), n - 1)
    return [state.energy.hex(), state.residual.hex()], [state.f, state.g]


def _airy_ladder(monkeypatch, backend):
    _use_backend(monkeypatch, backend)
    energies, arrays = [], []
    for state in airy_ladder(0.3, 1.0, 3, 0.0, 1500)[2]:
        energies += [state.energy.hex(), state.residual.hex()]
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


def _bad_arrays(a):
    """Arrays holding a's values that no compiled entry may read."""
    wide = np.empty(2 * len(a))
    wide[::2] = a
    return {"strided": wide[::2], "short": a[:-1],
            "float32": a.astype(np.float32), "int64": a.astype(np.int64),
            "big-endian": a.astype(">f8"), "2-D": a.reshape(1, -1)}


def _check_rejects_arrays_it_cannot_read(kernel):
    # the step array, a table and an output replaced in turn by each bad
    # array, then each output made read-only: a ValueError every time
    for position in (0, 1, 8):
        for bad in _bad_arrays(np.ones(3)):
            args = list(_coulomb_arrays(50))
            args[7:] = [False, np.full(50, 7.0), np.empty(50), np.empty(50)]
            args[position] = _bad_arrays(args[position])[bad]
            with pytest.raises(ValueError):
                kernel(*args, 49)
            if position != 8:
                assert (args[8] == 7.0).all()
    for k in range(3):
        out = [np.empty(50), np.empty(50), np.empty(50)]
        out[k].flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            kernel(*_coulomb_arrays(50), False, *out, 49)


def test_compiled_rejects_arrays_it_cannot_read():
    _check_rejects_arrays_it_cannot_read(_compiled())


def test_python_rejects_arrays_it_cannot_read():
    # the Python loop used to run a float32 table or a strided step array
    _check_rejects_arrays_it_cannot_read(_rk4_python)


def _check_reads_read_only_tables(kernel, position):
    # read-only input tables are read like any other and give the same bytes
    args = list(_coulomb_arrays(50))
    ref = np.empty(50), np.empty(50), np.empty(50)
    assert kernel(*args, False, *ref, 49) == 0
    table = args[position].copy()
    table.flags.writeable = False
    args[position] = table
    out = np.empty(50), np.empty(50), np.empty(50)
    assert kernel(*args, False, *out, 49) == 0
    assert all(a.tobytes() == b.tobytes() for a, b in zip(out, ref))


@pytest.mark.parametrize("position", range(5))
def test_compiled_reads_read_only_tables(position):
    _check_reads_read_only_tables(_compiled(), position)


@pytest.mark.parametrize("position", range(5))
def test_python_reads_read_only_tables(position):
    _check_reads_read_only_tables(_rk4_python, position)


@pytest.mark.parametrize("reverse", [False, True])
def test_zero_step_sweep_matches_across_backends(reverse):
    # one node: no step, and an empty step buffer
    outs = []
    for kernel in (_rk4_python, _compiled()):
        out = np.full(1, 7.0), np.full(1, 7.0), np.full(1, 7.0)
        status = kernel(np.empty(0), *(np.ones(1),) * 4, 2.0, 3.0, reverse,
                        *out, 0)
        outs.append((status, [a.tolist() for a in out]))
    assert outs[0] == outs[1] == (0, [[2.0], [3.0], [0.0]])


def _residual_args(y1, y2, system):
    """Arguments of each residual for the samples y1, y2 on a 40-node grid
    (the Dirac one with a linear pair, the Schroedinger one a slope)."""
    grid = rs.RadialGrid(1e-3, 20.0, 40)
    r, h = grid.r, float(grid.steps[0])
    if system == "dirac":
        return y1, y2, r, -0.5 / r, 1e-3 * r, -7e-4 * r, 0.83, 1.0, -2, h
    return y1, y2, r, 0.6 * r, 1.7, 1.0, h


def _residual_cases():
    """(name, y1, y2): edge inputs of the residual on the 40-node grid."""
    r = rs.RadialGrid(1e-3, 20.0, 40).r
    f = r * np.exp(-r)
    g = -0.2 * r * np.exp(-r)
    cases = {"smooth": (f, g), "zeros": (0 * f, 0 * g)}
    for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        for node in (0, 20):  # an end node and a live interior node
            bad = f.copy()
            bad[node] = value
            cases[f"{name}-at-{node}"] = (bad, g)
            cases[f"{name}-in-y2-at-{node}"] = (f, np.where(
                np.arange(40) == node, value, g))
    # a single live node: every other sample below 1e-8 of the peak
    one = np.full(40, 1e-12)
    one[17] = 1.0
    cases["one-live-node"] = (one, 0.5 * one)
    cases["one-live-node-of-y2"] = (np.zeros(40), one)
    return cases


@pytest.mark.parametrize("system", ["dirac", "schrodinger"])
@pytest.mark.parametrize("case", list(_residual_cases()))
def test_residual_matches_across_backends(system, case):
    compiled = _compiled_backend()[2 if system == "dirac" else 3]
    reference = _kernels._references()[2 if system == "dirac" else 3]
    args = _residual_args(*_residual_cases()[case], system)
    with np.errstate(all="ignore"):  # numpy warns where inf meets inf
        expected = reference(*args)
    assert float.hex(compiled(*args)) == float.hex(expected)
    # the Schroedinger residual's scale is |u| alone, not |du|
    in_scale = system == "dirac" or "y2" not in case
    nonfinite = case.startswith(("nan", "inf", "-inf"))
    if case == "zeros" or (nonfinite and in_scale):
        assert expected == math.inf  # no live node
    elif case.startswith("one-live-node") and in_scale:
        assert 0.0 <= expected <= 1.0


def _solved(system_kind):
    """(residual arguments, residual) of real solves on the selected
    backend: preserved levels at three slopes and an n = 2 Coulomb level,
    or a three-state Airy ladder."""
    m = 1.0
    if system_kind == "dirac":
        lam, kappa0 = 0.3, -2
        e_ref = dirac_coulomb_energy(2, kappa0, lam, m)
        grid = coulomb_grid(lam, 2, kappa0, m, 1000)
        cases = [(coulomb_plus_linear(lam, mu,
                                      nu_fine_tuned(mu, lam, kappa0)),
                  kappa0, grid, (e_ref - 5e-5, e_ref + 5e-5), 0)
                 for mu in (1e-5, 1e-3, 0.02)]
        e2 = dirac_coulomb_energy(2, -1, 0.5, m)
        cases.append((coulomb_potential(0.5), -1,
                      coulomb_grid(0.5, 2, -1, m, 2000),
                      (e2 - 0.01, e2 + 0.01), 1))
        for pot, kappa, grid, bracket, nodes in cases:
            system = rs._DiracSystem(pot, kappa, m, grid)
            energy, f, g, _, residual = rs._shoot(system, bracket, nodes)
            yield ((f, g, grid.r, system._v0, system._v1, system._v2, energy,
                    m, kappa, system._h), residual)
        return
    _, grid, levels = airy_ladder(0.3, m, 3, 0.0, 1500)
    # the residual's tables, from a system of the ladder's slope and grid
    system = rs._SchrodingerSystem(lambda r: 0.6 * np.asarray(r, dtype=float),
                                   0, m, grid)
    for st in levels:
        yield ((st.u, st.du, grid.r, system._v_eff, st.energy, m, system._h),
               st.residual)


@pytest.mark.parametrize("system", ["dirac", "schrodinger"])
def test_residual_of_real_solves_matches_across_backends(system):
    index = 2 if system == "dirac" else 3
    compiled = _compiled_backend()[index]
    reference = _kernels._references()[index]
    for args, residual in _solved(system):
        assert float.hex(compiled(*args)) == float.hex(reference(*args))
        assert float.hex(compiled(*args)) == float.hex(residual)
        assert 0.0 < residual < 1e-2


def _compiled_residuals():
    """(system, compiled residual) of both systems."""
    return zip(("dirac", "schrodinger"), _compiled_backend()[2:])


def test_residual_entries_reject_arrays_they_cannot_read():
    for system, residual in _compiled_residuals():
        for position in range(4):
            for bad in _bad_arrays(np.ones(3)):
                args = list(_residual_args(*_residual_cases()["smooth"],
                                           system))
                args[position] = _bad_arrays(args[position])[bad]
                with pytest.raises(ValueError):
                    residual(*args)


def test_residual_entries_read_read_only_arrays():
    for system, residual in _compiled_residuals():
        args = _residual_args(*_residual_cases()["smooth"], system)
        expected = residual(*args)
        for a in args[:4]:
            a.flags.writeable = False
        assert float.hex(residual(*args)) == float.hex(expected)


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


def test_build_without_python_headers_selects_python(monkeypatch, tmp_path):
    # an interpreter installed without its headers builds no module
    _compiled()
    paths = sysconfig.get_paths()
    monkeypatch.setattr(sysconfig, "get_paths", lambda: {
        **paths, "include": str(tmp_path / "no-headers")})
    monkeypatch.setattr(_kernels, "_CACHE_DIR", str(tmp_path / "cache"))
    assert _kernels._select()[0] == "python"
    assert os.listdir(tmp_path / "cache") == []


def test_module_that_fails_to_load_selects_python(monkeypatch, tmp_path):
    # a cached file that is no extension module (or one the dynamic loader
    # refuses) raises ImportError on load
    def build_garbage(cc, include, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(b"not a shared object")
        return True

    monkeypatch.setattr(_kernels, "_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(_kernels, "_build", build_garbage)
    assert _kernels._load() is None
    assert _kernels._select()[0] == "python"


def test_source_compiles_without_warnings(tmp_path):
    include = sysconfig.get_paths()["include"]
    if not HAVE_CC or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("needs cc and the Python headers")
    proc = subprocess.run(
        [_kernels._CC, *_kernels._FLAGS, "-Wall", "-Wextra", "-Werror",
         "-I", include, "-o", str(tmp_path / "module.so"), _kernels._SOURCE,
         "-lm"], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_unwritable_cache_selects_python(monkeypatch, tmp_path):
    # the cache directory would sit below a regular file, so it cannot be
    # created; unlike a chmod 0o500 parent, this also holds for root
    blocked = tmp_path / "file"
    blocked.write_text("")
    monkeypatch.setattr(_kernels, "_CACHE_DIR", str(blocked / "diraconf"))
    assert _kernels._select()[0] == "python"


def _load_altered(monkeypatch, entry, alter):
    """Make ``_kernels._load`` return the compiled module's three entries,
    with ``entry`` replaced by ``alter(entry)``."""
    _compiled()
    module = _kernels._load()
    entries = {name: getattr(module, name) for name in (
        "rk4_linear2x2", "dirac_fd_residual", "schrodinger_fd_residual")}
    entries[entry] = alter(entries[entry])
    monkeypatch.setattr(_kernels, "_load",
                        lambda: types.SimpleNamespace(**entries))


def _off_by_one_ulp(kernel):
    def perturbed(*args):
        status = kernel(*args)
        args[8][-1] = np.nextafter(args[8][-1], np.inf)
        return status

    return perturbed


def test_mismatching_kernel_selects_python(monkeypatch):
    # selection is by observation: a compiled kernel that moves one bit
    # loses, while the same entries unaltered are selected
    _load_altered(monkeypatch, "rk4_linear2x2", lambda entry: entry)
    assert _kernels._select()[0] == "c"
    _load_altered(monkeypatch, "rk4_linear2x2", _off_by_one_ulp)
    assert _kernels._select()[0] == "python"


@pytest.mark.parametrize("entry", ["dirac_fd_residual",
                                   "schrodinger_fd_residual"])
def test_mismatching_residual_selects_python(monkeypatch, entry):
    _load_altered(monkeypatch, entry,
                  lambda residual: lambda *args: math.nextafter(
                      residual(*args), math.inf))
    assert _kernels._select()[0] == "python"


@pytest.mark.parametrize("misread", ["full-sweep", "one-node-short"])
def test_kernel_mishandling_stop_selects_python(monkeypatch, misread):
    # the self-check sweeps to a mid-grid node and to either end in both
    # directions: a compiled kernel that misreads the stop node loses
    def misreading(kernel):
        def wrong_stop(*args):
            n = len(args[0]) + 1
            stop = args[11]
            if misread == "full-sweep":
                stop = 0 if args[7] else n - 1
            elif 0 < stop < n - 1:
                stop += 1 if args[7] else -1
            return kernel(*args[:11], stop)

        return wrong_stop

    _load_altered(monkeypatch, "rk4_linear2x2", misreading)
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
