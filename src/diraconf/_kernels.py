"""RK4 propagation kernel for coupled linear 2x2 radial systems.

The coefficient matrix is sampled at the grid nodes and at the interval
midpoints (index 2*i for node i, 2*i+1 for the midpoint of step i), so a
classic fourth-order Runge-Kutta step only reads tables.  Trajectories are
rescaled whenever they exceed 1e250 in magnitude; the accumulated log-scale
is recorded per node so callers can reconstruct relative amplitudes exactly.

A sweep runs from one end of the grid to a stop node, the trailing
positional argument ``stop``: outward it fills nodes 0..stop, inward
stop..N-1, and it leaves the other output nodes untouched.  By default it
sweeps the whole grid.  The sweep is sequential, so a partial sweep writes
the same floats a full sweep writes on those nodes; a shoot-and-match
solver that reads one interior node steps only as far as it needs.  A stop
outside [0, N-1] is a ValueError on both backends.

Two backends compute the same bits.  ``_rk4_python`` is the reference loop.
``_rk4.c`` is its C99 twin, built on the first kernel call (never at
import) with the system ``cc`` and ``-O2 -ffp-contract=off -fPIC -shared
-lm``, into ``${XDG_CACHE_HOME:-~/.cache}/diraconf/<key>.so``, and loaded
through ``ctypes``; the key is the sha256 of the source, the flags, the
compiler's real path and the machine, so a cache hit starts no process.
``rk4_linear2x2`` runs the C kernel only if it builds, loads and matches the
Python loop bit for bit on a pinned self-check (both directions, each
stopping at a mid-grid node and at either end); otherwise the Python loop.
``backend()`` (``diraconf.kernel_backend``) names the one selected.

Each compiled call first checks its eight arrays and its stop node,
because the C loop trusts them: float64, the stated length (N - 1 steps,
2N - 1 table samples, N outputs, whatever the stop node), C-contiguous,
and writeable for the three outputs; anything else is a ValueError.  It
takes each address from a ctypes view of the array's buffer, not from
``ndarray.ctypes.data``, which builds the whole ``__array_interface__``
each time; ctypes views only writeable buffers, so a read-only input table
takes that slower route.  On a 10-point sweep the call costs about 13 us
besides the RK4 steps (about 4 us of it the ctypes call itself), against
about 31 us with eight ``.ctypes.data`` lookups (numpy 2.4, CPython 3.11,
x86-64).

The Python loop converts its inputs with ``ndarray.tolist()`` up front,
which yields Python floats; ``list(arr)`` would yield ``numpy.float64``
scalars, whose arithmetic costs about twice as much per operation.  The
IEEE operations are the same either way, so the outputs are bit-identical.
"""
import ctypes
import functools
import importlib
import math
import os
import platform
import shutil
import tempfile

import numpy as np

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_rk4.c")
_CC = "cc"
# no -ffast-math: contracting a*b + c into a fused multiply-add moves bits
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_CACHE_DIR = os.path.join(os.environ.get("XDG_CACHE_HOME")
                          or os.path.join(os.path.expanduser("~"), ".cache"),
                          "diraconf")


def _stop_node(n, reverse, stop):
    """The node a sweep of n nodes ends at: ``stop``, checked to lie in
    [0, n - 1] (ValueError otherwise), or the far end of the grid."""
    if stop is None:
        return 0 if reverse else n - 1
    if not 0 <= stop <= n - 1:
        raise ValueError(f"stop must lie in [0, {n - 1}], got {stop!r}")
    return stop


def _rk4_python(step, a11, a12, a21, a22,
                y1_init, y2_init, reverse,
                y1_out, y2_out, logscale_out, stop=None):
    """Propagate y' = A(t) y from one end of the grid to node ``stop``.

    step: length N-1 positive step sizes in the integration variable.
    a11..a22: length 2N-1 coefficient samples (nodes and midpoints).
    reverse: start from (y1_init, y2_init) at the last node and step inward.
    stop: the last node written, in [0, N-1] (ValueError otherwise): the
    outward sweep fills nodes 0..stop and the inward sweep stop..N-1, and
    leaves the other nodes of the outputs as they were.  None (the
    default) sweeps the whole grid.
    Returns 0 on success, 1 if a non-finite value was produced.
    """
    n = len(step) + 1
    stop = _stop_node(n, reverse, stop)
    s = step.tolist()
    b11 = a11.tolist()
    b12 = a12.tolist()
    b21 = a21.tolist()
    b22 = a22.tolist()

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

    for i in range(n - 1 - stop if reverse else stop):
        if reverse:
            iw = n - 2 - i
            h = -s[iw]
            i0 = 2 * (iw + 1)
            im = 2 * iw + 1
            i1 = 2 * iw
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


def _build(cc, path):
    """Compile ``_rk4.c`` into ``path``; False if the compiler fails.

    The library is written under a unique name and renamed, so a
    concurrent first use sees either no library or a whole one.
    """
    import subprocess  # on a cache miss only

    os.makedirs(_CACHE_DIR, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so.tmp", dir=_CACHE_DIR)
    os.close(fd)
    try:
        built = subprocess.run([cc, *_FLAGS, "-o", tmp, _SOURCE, "-lm"],
                               capture_output=True).returncode == 0
        if built:
            os.replace(tmp, path)
        return built
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build_and_load():
    """The compiled kernel's ctypes function, built into the cache on a miss.

    Returns None when there is no compiler, the build fails or the cache
    directory cannot be written.
    """
    cc = shutil.which(_CC)
    if cc is None:
        return None
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
        key = _sha256(b"\0".join(
            [source, " ".join(_FLAGS).encode(), os.path.realpath(cc).encode(),
             platform.machine().encode()]))
        path = os.path.join(_CACHE_DIR, key + ".so")
        if not os.path.exists(path) and not _build(cc, path):
            return None
        fn = ctypes.CDLL(path).diraconf_rk4_linear2x2
    except OSError:
        return None
    pointer = ctypes.c_void_p
    fn.argtypes = ([ctypes.c_long] + [pointer] * 5
                   + [ctypes.c_double, ctypes.c_double, ctypes.c_int]
                   + [pointer] * 3 + [ctypes.c_long])
    fn.restype = ctypes.c_int
    return fn


_F64 = np.dtype(np.float64)
_view = ctypes.c_char.from_buffer
_addressof = ctypes.addressof


def _address(a, size, output):
    """Address of the first element of one kernel array, after the checks
    the C loop relies on: float64 of length ``size``, C-contiguous and, for
    an output, writeable (ValueError otherwise).

    A ctypes view of the buffer gives the address in about a fifth of the
    time of ``a.ctypes.data``, which builds the whole
    ``__array_interface__``.  ctypes views only nonempty, C-contiguous,
    writeable buffers, so a read-only input table takes the slower route.
    """
    if a.dtype != _F64 or a.shape != (size,):
        raise ValueError(f"kernel arrays must be C-contiguous float64 of "
                         f"length {size}, got {a.dtype} {a.shape}")
    try:
        return _addressof(_view(a))
    except (TypeError, ValueError):  # not C-contiguous, read-only or empty
        pass
    if not a.flags.c_contiguous:
        raise ValueError(f"kernel arrays must be C-contiguous float64 of "
                         f"length {size}, got a strided {a.dtype} {a.shape}")
    if output:
        raise ValueError("kernel output arrays must be writeable")
    return a.ctypes.data


def _wrap_compiled(fn):
    """The ctypes function behind the kernel's Python signature."""

    def _rk4_c(step, a11, a12, a21, a22,
               y1_init, y2_init, reverse,
               y1_out, y2_out, logscale_out, stop=None):
        n = len(step) + 1
        m = 2 * n - 1
        # the C loop trusts these lengths and the stop node: check them
        # before passing pointers
        return fn(n, _address(step, n - 1, False), _address(a11, m, False),
                  _address(a12, m, False), _address(a21, m, False),
                  _address(a22, m, False), y1_init, y2_init,
                  1 if reverse else 0, _address(y1_out, n, True),
                  _address(y2_out, n, True), _address(logscale_out, n, True),
                  _stop_node(n, reverse, stop))

    return _rk4_c


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


def _select():
    """("c", compiled kernel) if it builds, loads and reproduces the Python
    loop bit for bit; otherwise ("python", the Python loop)."""
    fn = _build_and_load()
    if fn is not None:
        compiled = _wrap_compiled(fn)
        if _same_bits(compiled, _rk4_python):
            return "c", compiled
    return "python", _rk4_python


_selected = functools.cache(_select)


def backend() -> str:
    """The kernel backend in use, "c" or "python" (selects it on first use)."""
    return _selected()[0]


def rk4_linear2x2(step, a11, a12, a21, a22,
                  y1_init, y2_init, reverse,
                  y1_out, y2_out, logscale_out, stop=None):
    """Propagate y' = A(t) y from one end of the grid to node ``stop`` with
    the selected backend.

    Same contract as ``_rk4_python``: the outward sweep fills nodes
    0..stop and the inward sweep stop..N-1, and the default sweeps the
    whole grid.  The samples a partial sweep writes are the same floats a
    full sweep writes there.  ``stop`` must be passed positionally (the
    benchmark's tracer forwards positional arguments only); outside
    [0, N-1] it is a ValueError.  The compiled backend also requires
    C-contiguous float64 arrays of the stated lengths (ValueError
    otherwise).
    """
    return _selected()[1](step, a11, a12, a21, a22, y1_init, y2_init,
                          reverse, y1_out, y2_out, logscale_out, stop)
