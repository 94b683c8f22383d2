"""RK4 propagation kernel for coupled linear 2x2 radial systems.

The coefficient matrix is sampled at the grid nodes and at the interval
midpoints (index 2*i for node i, 2*i+1 for the midpoint of step i), so a
classic fourth-order Runge-Kutta step only reads tables.  Trajectories are
rescaled whenever they exceed 1e250 in magnitude; the accumulated log-scale
is recorded per node so callers can reconstruct relative amplitudes exactly.

The input arrays are converted with ``ndarray.tolist()`` up front, which
yields Python floats; ``list(arr)`` would yield ``numpy.float64`` scalars,
whose arithmetic costs about twice as much per operation.  The IEEE
operations are the same either way, so the outputs are bit-identical.
"""
import math

BACKEND = "python"  # reported as ``diraconf.kernel_backend``


def rk4_linear2x2(step, a11, a12, a21, a22,
                  y1_init, y2_init, reverse,
                  y1_out, y2_out, logscale_out):
    """Propagate y' = A(t) y across all grid nodes.

    step: length N-1 positive step sizes in the integration variable.
    a11..a22: length 2N-1 coefficient samples (nodes and midpoints).
    reverse: start from (y1_init, y2_init) at the last node and step inward.
    Returns 0 on success, 1 if a non-finite value was produced.
    """
    n = len(step) + 1
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

    for i in range(n - 1):
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
