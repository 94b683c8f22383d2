"""RK4 propagation kernel for coupled linear 2x2 radial systems, and the
backend selection for it and the shooting systems' residuals.

The coefficient matrix is sampled at the grid nodes and at the interval
midpoints (index 2*i for node i, 2*i+1 for the midpoint of step i), so a
classic fourth-order Runge-Kutta step only reads tables.  Trajectories are
rescaled whenever they exceed 1e250 in magnitude; the accumulated log-scale
is recorded per node so callers can reconstruct relative amplitudes exactly.

A sweep runs from one end of the grid to a stop node, the trailing
positional argument ``stop``, which every call names: outward it fills
nodes 0..stop, inward stop..N-1, and it leaves the other output nodes
untouched; a whole-grid sweep stops at N-1 outward and at 0 inward.  The
sweep is sequential, so a partial sweep writes the same floats a full
sweep writes on those nodes.  A stop outside [0, N-1], or an array the
compiled entry cannot read (below), is a ValueError on both backends; a
call without a stop, or with None, is a TypeError.

Two backends compute the same bits.  The references are the Python loop
``_rk4_python`` and the numpy residuals of ``radial_solver``.  ``_rk4.c``
is their C99 twin, a CPython extension module built on the first call
(never at import) with the system ``cc``, ``-O2 -ffp-contract=off -fPIC
-shared -lm`` and the Python headers, into
``${XDG_CACHE_HOME:-~/.cache}/diraconf/<key>.so``, and loaded with
``importlib``'s ``ExtensionFileLoader``.  The key is the sha256 of the
source, the flags, the compiler's real path, the machine and the
interpreter's ``EXT_SUFFIX`` and include directory: a cache hit starts no
process, and a module built for one interpreter is never loaded by another.
The module is used only if it builds, loads and matches every reference bit
for bit on a pinned self-check; otherwise the references run.  Each entry
checks its arrays in C, through the buffer protocol, and the Python loop
makes the kernel's checks through ``memoryview``: float64, 1-D, the stated
length, C-contiguous, and writeable for the kernel's outputs (ValueError
otherwise).  ``backend()`` (``diraconf.kernel_backend``) names
the backend selected.

The Python loop converts the slices a sweep reads with ``ndarray.tolist()``,
which yields Python floats; ``list(arr)`` would yield ``numpy.float64``
scalars, whose arithmetic costs about twice as much per operation.  The
IEEE operations are the same either way, so the outputs are bit-identical.
"""
import functools
import importlib.util
import math
import os
import platform
import shutil
import tempfile
from importlib.machinery import ExtensionFileLoader

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_rk4.c")
_CC = "cc"
# no -ffast-math: contracting a*b + c into a fused multiply-add moves bits
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_CACHE_DIR = os.path.join(os.environ.get("XDG_CACHE_HOME")
                          or os.path.join(os.path.expanduser("~"), ".cache"),
                          "diraconf")


def _check_arrays(arrays):
    """The compiled entry's checks of the kernel's eight arrays (the steps,
    the four tables, the three outputs): each float64 in native byte order,
    1-D and C-contiguous, the tables of length 2N-1 and the outputs of
    length N (for N - 1 steps) and writeable; ValueError otherwise."""
    n = None
    for k, a in enumerate(arrays):
        with memoryview(a) as view:
            if k >= 5 and view.readonly:
                raise ValueError("kernel output arrays must be writeable")
            size = None if k == 0 else 2 * n - 1 if k <= 4 else n
            if (view.format != "d" or view.ndim != 1 or not view.c_contiguous
                    or size is not None and view.shape[0] != size):
                length = "" if size is None else f" of length {size}"
                raise ValueError(
                    f"kernel arrays must be 1-D C-contiguous float64{length}")
            if k == 0:
                n = view.shape[0] + 1


def _rk4_python(step, a11, a12, a21, a22,
                y1_init, y2_init, reverse,
                y1_out, y2_out, logscale_out, stop):
    """Propagate y' = A(t) y from one end of the grid to node ``stop``.

    step: length N-1 positive step sizes in the integration variable.
    a11..a22: length 2N-1 coefficient samples (nodes and midpoints).
    reverse: start from (y1_init, y2_init) at the last node and step inward.
    stop: the last node written, in [0, N-1] (ValueError otherwise): the
    outward sweep fills nodes 0..stop and the inward sweep stop..N-1, and
    leaves the other nodes of the outputs as they were.
    The arrays must pass the compiled entry's checks (``_check_arrays``).
    Returns 0 on success, 1 if a non-finite value was produced.
    """
    _check_arrays((step, a11, a12, a21, a22, y1_out, y2_out, logscale_out))
    n = len(step) + 1
    if not 0 <= stop <= n - 1:
        raise ValueError(f"stop must lie in [0, {n - 1}], got {stop!r}")
    # only the steps and samples the sweep reads, indexed from the slice's
    # start: step[stop:] and samples [2*stop:] inward
    steps = slice(stop, None) if reverse else slice(stop)
    samples = slice(2 * stop, None) if reverse else slice(2 * stop + 1)
    s = step[steps].tolist()
    b11 = a11[samples].tolist()
    b12 = a12[samples].tolist()
    b21 = a21[samples].tolist()
    b22 = a22[samples].tolist()

    y1 = y1_init
    y2 = y2_init
    acc = 0.0
    if reverse:
        y1_out[n - 1] = y1
        y2_out[n - 1] = y2
        logscale_out[n - 1] = acc
    else:
        y1_out[0] = y1
        y2_out[0] = y2
        logscale_out[0] = acc

    for i in range(len(s)):
        if reverse:
            k = len(s) - 1 - i  # the step into node stop + k
            iw = stop + k
            h = -s[k]
            i0 = 2 * (k + 1)
            im = 2 * k + 1
            i1 = 2 * k
        else:
            iw = i + 1
            h = s[i]
            i0 = 2 * i
            im = 2 * i + 1
            i1 = 2 * i + 2

        k11 = b11[i0] * y1 + b12[i0] * y2
        k12 = b21[i0] * y1 + b22[i0] * y2
        t1 = y1 + 0.5 * h * k11
        t2 = y2 + 0.5 * h * k12
        k21 = b11[im] * t1 + b12[im] * t2
        k22 = b21[im] * t1 + b22[im] * t2
        t1 = y1 + 0.5 * h * k21
        t2 = y2 + 0.5 * h * k22
        k31 = b11[im] * t1 + b12[im] * t2
        k32 = b21[im] * t1 + b22[im] * t2
        t1 = y1 + h * k31
        t2 = y2 + h * k32
        k41 = b11[i1] * t1 + b12[i1] * t2
        k42 = b21[i1] * t1 + b22[i1] * t2
        y1 = y1 + h * (k11 + 2.0 * k21 + 2.0 * k31 + k41) / 6.0
        y2 = y2 + h * (k12 + 2.0 * k22 + 2.0 * k32 + k42) / 6.0

        mag = max(abs(y1), abs(y2))
        if mag > 1e250:
            y1 /= mag
            y2 /= mag
            acc += math.log(mag)
        if not (math.isfinite(y1) and math.isfinite(y2)):
            return 1

        y1_out[iw] = y1
        y2_out[iw] = y2
        logscale_out[iw] = acc

    return 0


def _sha256(data):
    """Hex sha256 of ``data``, from CPython's built-in module where there is
    one: importing hashlib loads OpenSSL, about 3.5 MB of resident memory."""
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256(data).hexdigest()
        except ImportError:
            pass
    import hashlib
    return hashlib.sha256(data).hexdigest()


def _build(cc, include, path):
    """Compile ``_rk4.c`` into ``path``; False if the compiler fails.

    The module is written under a unique name and renamed, so a
    concurrent first use sees either no module or a whole one.
    """
    import subprocess  # on a cache miss only

    os.makedirs(_CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=_CACHE_DIR)
    os.close(fd)
    try:
        built = subprocess.run([cc, *_FLAGS, "-I", include, "-o", tmp,
                                _SOURCE, "-lm"],
                               capture_output=True).returncode == 0
        if built:
            os.replace(tmp, path)
        return built
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load():
    """The compiled module, built into the cache on a miss; None without a
    compiler or Python headers, or if the build, the cache directory or the
    load fails."""
    cc = shutil.which(_CC)
    if cc is None:
        return None
    import sysconfig  # about 3 ms; on the first kernel call only

    include = sysconfig.get_paths()["include"]
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
        key = _sha256(b"\0".join(
            [source] + [part.encode() for part in (
                " ".join(_FLAGS), os.path.realpath(cc), platform.machine(),
                sysconfig.get_config_var("EXT_SUFFIX"), include)]))
        path = os.path.join(_CACHE_DIR, key + ".so")
        if not os.path.exists(path) and not _build(cc, include, path):
            return None
        loader = ExtensionFileLoader("diraconf._rk4", path)
        spec = importlib.util.spec_from_loader(loader.name, loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        return module
    except (ImportError, OSError):
        return None


def _self_check_input():
    """A pinned 64-step problem whose solution crosses the 1e250 rescale
    threshold in both directions."""
    n = 65
    t = np.linspace(0.0, 1.0, 2 * n - 1)
    step = np.diff(np.linspace(0.0, 1.0, n) ** 1.5)
    return (step, 0.25 * np.cos(7.0 * t), 3.0 + np.sin(5.0 * t),
            2.5 + np.cos(3.0 * t), -0.5 * t, 3e249, -1e249)


def _same_bits(kernel, reference):
    """True when both kernels return the same status and output bytes, in
    both directions, for a sweep that stops mid-grid and for each end node
    (an empty sweep and a full one).  The outputs start out filled with
    NaN, so the nodes a sweep must leave alone are compared too."""
    args = _self_check_input()
    n = len(args[0]) + 1
    for reverse in (False, True):
        for stop in (0, n // 2, n - 1):
            outs = []
            for k in (kernel, reference):
                out = (np.full(n, np.nan), np.full(n, np.nan),
                       np.full(n, np.nan))
                status = k(*args, reverse, *out, stop)
                outs.append((status, b"".join(a.tobytes() for a in out)))
            if outs[0] != outs[1]:
                return False
    return True


def _residual_check_inputs():
    """Pinned residual inputs on 65 log-spaced nodes whose tails fall below
    the live threshold: the Dirac-Coulomb ground state (lam 0.5, kappa -1)
    with small linear v1 and v2 and the hydrogen ground state, each as it
    is, with a NaN, and as zeros."""
    h = 0.125
    r = np.exp(-4.0 + h * np.arange(65))
    s = math.sqrt(0.75)
    f = r ** (s - 1.0) * np.exp(-0.5 * r)
    u = r * np.exp(-r)
    nan = np.ones(65)
    nan[30] = np.nan
    for k in (1.0, nan, 0.0):
        yield ((k * f, 2.0 * (s - 1.0) * f, r, -0.5 / r, 1e-4 * r, -2e-4 * r,
                s, 1.0, -1, h),
               (k * u, (1.0 - r) * np.exp(-r), r, -1.0 / r, 0.5, 1.0, h))


def _same_residuals(residuals, references):
    """True when the Dirac and Schroedinger ``residuals`` give the
    ``references``' float.hex on every pinned input."""
    return all(float.hex(residual(*args)) == float.hex(reference(*args))
               for inputs in _residual_check_inputs()
               for residual, reference, args
               in zip(residuals, references, inputs))


def _references():
    """("python", the Python loop and the numpy residuals)."""
    # radial_solver imports this module, so its residuals are imported late
    from .radial_solver import _dirac_fd_residual, _schrodinger_fd_residual

    return "python", _rk4_python, _dirac_fd_residual, _schrodinger_fd_residual


def _select():
    """("c", the compiled kernel and residuals) if the module builds, loads
    and reproduces every reference bit for bit; otherwise ``_references``."""
    references = _references()
    module = _load()
    if module is None:
        return references
    compiled = ("c", module.rk4_linear2x2, module.dirac_fd_residual,
                module.schrodinger_fd_residual)
    if (_same_bits(compiled[1], references[1])
            and _same_residuals(compiled[2:], references[2:])):
        return compiled
    return references


_selected = functools.cache(_select)


def backend() -> str:
    """The kernel backend in use, "c" or "python" (selects it on first use)."""
    return _selected()[0]


def rk4_linear2x2(step, a11, a12, a21, a22,
                  y1_init, y2_init, reverse,
                  y1_out, y2_out, logscale_out, stop):
    """Propagate y' = A(t) y from one end of the grid to node ``stop`` with
    the selected backend, under the contract of ``_rk4_python``.

    ``stop`` must be passed positionally: the benchmark's tracer forwards
    positional arguments only.
    """
    return _selected()[1](step, a11, a12, a21, a22, y1_init, y2_init,
                          reverse, y1_out, y2_out, logscale_out, stop)


def dirac_fd_residual(f, g, r, v0, v1, v2, E, m, kappa, h):
    """``radial_solver._dirac_fd_residual`` with the selected backend."""
    return _selected()[2](f, g, r, v0, v1, v2, E, m, kappa, h)


def schrodinger_fd_residual(u, du, r, v_eff, E, m, h):
    """``radial_solver._schrodinger_fd_residual`` with the selected backend."""
    return _selected()[3](u, du, r, v_eff, E, m, h)
