/* The compiled twin of diraconf's RK4 sweep and shooting residuals, a
 * CPython extension module with three entries:
 *
 *   rk4_linear2x2            _kernels._rk4_python
 *   dirac_fd_residual        radial_solver._dirac_fd_residual
 *   schrodinger_fd_residual  radial_solver._schrodinger_fd_residual
 *
 * Every expression keeps the reference's grouping and order, so with
 * -ffp-contract=off (no fused multiply-add) the results are the same bits.
 * Each entry checks its arrays through the buffer protocol before it reads
 * them: float64 ("d", itemsize 8), 1-D, the stated length, C-contiguous and,
 * for the kernel's three outputs, writable; anything else is a ValueError,
 * and every buffer taken is released on every path.  See _kernels.py for
 * the contract. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

/* Take obj's buffer into view as a C-contiguous float64 vector of `size`
 * elements (any size if size < 0), writable for an output; otherwise -1
 * with a ValueError (a TypeError if obj has no buffer at all). */
static int get_array(PyObject *obj, Py_buffer *view, Py_ssize_t size,
                     int output)
{
    if (PyObject_GetBuffer(obj, view,
                           output ? PyBUF_RECORDS : PyBUF_RECORDS_RO) < 0) {
        /* numpy refuses a read-only output with ValueError, other
         * exporters with BufferError */
        if (output && PyObject_CheckBuffer(obj)) {
            PyErr_Clear();
            PyErr_SetString(PyExc_ValueError,
                            "kernel output arrays must be writeable");
        }
        return -1;
    }
    if (view->ndim != 1 || view->itemsize != 8 || view->format == NULL
            || strcmp(view->format, "d") != 0
            || (size >= 0 && view->shape[0] != size)
            || !PyBuffer_IsContiguous(view, 'C')) {
        if (size >= 0)
            PyErr_Format(PyExc_ValueError, "kernel arrays must be "
                         "C-contiguous float64 of length %zd", size);
        else
            PyErr_SetString(PyExc_ValueError, "kernel arrays must be "
                            "1-D C-contiguous float64");
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* Take the buffers of args[position[k]] for k < count into views, the
 * first of any size n and the rest of size n, or of 2 n - 1 for the
 * kernel's four tables (k = 1..4 with `tables` set); returns how many it
 * holds, all of them on success, with an exception set on failure. */
static int get_arrays(PyObject *const *args, const int *position, int count,
                      int tables, Py_buffer *views)
{
    int held = 0;
    Py_ssize_t n = -1;
    for (; held < count; held++) {
        Py_ssize_t size = n;
        if (tables && held >= 1 && held <= 4)
            size = 2 * n - 1;
        if (get_array(args[position[held]], &views[held], size,
                      tables && held >= 5) < 0)
            break;
        if (held == 0)
            n = views[0].shape[0] + (tables ? 1 : 0);
    }
    return held;
}

static void release(Py_buffer *views, int held)
{
    while (held-- > 0)
        PyBuffer_Release(&views[held]);
}

static int get_doubles(PyObject *const *args, double *out, int count)
{
    for (int k = 0; k < count; k++) {
        out[k] = PyFloat_AsDouble(args[k]);
        if (out[k] == -1.0 && PyErr_Occurred())
            return -1;
    }
    return 0;
}

static int sweep(Py_ssize_t n, const double *s, const double *b11,
                 const double *b12, const double *b21, const double *b22,
                 double y1, double y2, int reverse, double *y1_out,
                 double *y2_out, double *logscale_out, Py_ssize_t stop)
{
    double acc = 0.0;
    Py_ssize_t first = reverse ? n - 1 : 0;
    /* the caller checked 0 <= stop <= n - 1: the sweep ends at node stop */
    Py_ssize_t steps = reverse ? n - 1 - stop : stop;
    y1_out[first] = y1;
    y2_out[first] = y2;
    logscale_out[first] = acc;

    for (Py_ssize_t i = 0; i < steps; i++) {
        Py_ssize_t iw, i0, im, i1;
        double h;
        if (reverse) {
            iw = n - 2 - i;
            h = -s[iw];
            i0 = 2 * (iw + 1);
            im = 2 * iw + 1;
            i1 = 2 * iw;
        } else {
            iw = i + 1;
            h = s[i];
            i0 = 2 * i;
            im = 2 * i + 1;
            i1 = 2 * i + 2;
        }

        double k11 = b11[i0] * y1 + b12[i0] * y2;
        double k12 = b21[i0] * y1 + b22[i0] * y2;
        double t1 = y1 + 0.5 * h * k11;
        double t2 = y2 + 0.5 * h * k12;
        double k21 = b11[im] * t1 + b12[im] * t2;
        double k22 = b21[im] * t1 + b22[im] * t2;
        t1 = y1 + 0.5 * h * k21;
        t2 = y2 + 0.5 * h * k22;
        double k31 = b11[im] * t1 + b12[im] * t2;
        double k32 = b21[im] * t1 + b22[im] * t2;
        t1 = y1 + h * k31;
        t2 = y2 + h * k32;
        double k41 = b11[i1] * t1 + b12[i1] * t2;
        double k42 = b21[i1] * t1 + b22[i1] * t2;
        y1 = y1 + h * (k11 + 2.0 * k21 + 2.0 * k31 + k41) / 6.0;
        y2 = y2 + h * (k12 + 2.0 * k22 + 2.0 * k32 + k42) / 6.0;

        /* Python's max(abs(y1), abs(y2)): the second only if strictly greater */
        double mag = fabs(y1);
        if (fabs(y2) > mag)
            mag = fabs(y2);
        if (mag > 1e250) {
            y1 /= mag;
            y2 /= mag;
            acc += log(mag);
        }
        if (!(isfinite(y1) && isfinite(y2)))
            return 1;

        y1_out[iw] = y1;
        y2_out[iw] = y2;
        logscale_out[iw] = acc;
    }
    return 0;
}

/* rk4_linear2x2(step, a11, a12, a21, a22, y1_init, y2_init, reverse,
 *               y1_out, y2_out, logscale_out[, stop]) -> status */
static PyObject *rk4_linear2x2(PyObject *self, PyObject *const *args,
                               Py_ssize_t nargs)
{
    static const int position[8] = {0, 1, 2, 3, 4, 8, 9, 10};
    Py_buffer v[8];
    double seed[2];
    PyObject *result = NULL;
    (void)self;
    if (nargs != 11 && nargs != 12) {
        PyErr_Format(PyExc_TypeError,
                     "rk4_linear2x2 takes 11 or 12 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    int held = get_arrays(args, position, 8, 1, v);
    if (held < 8 || get_doubles(args + 5, seed, 2) < 0)
        goto done;
    int reverse = PyObject_IsTrue(args[7]);
    if (reverse < 0)
        goto done;
    Py_ssize_t n = v[0].shape[0] + 1;
    Py_ssize_t stop = reverse ? 0 : n - 1;
    if (nargs == 12 && args[11] != Py_None) {
        stop = PyNumber_AsSsize_t(args[11], NULL);  /* clamps huge ints */
        if (stop == -1 && PyErr_Occurred())
            goto done;
        if (stop < 0 || stop > n - 1) {
            PyErr_Format(PyExc_ValueError, "stop must lie in [0, %zd], got %R",
                         n - 1, args[11]);
            goto done;
        }
    }
    result = PyLong_FromLong(sweep(
        n, v[0].buf, v[1].buf, v[2].buf, v[3].buf, v[4].buf, seed[0],
        seed[1], reverse, v[5].buf, v[6].buf, v[7].buf, stop));
done:
    release(v, held);
    return result;
}

/* _fd_dr at node j: d/dr by the five-point central difference in t, with
 * h12 = 12 h */
static double fd_dr(const double *y, const double *r, Py_ssize_t j,
                    double h12)
{
    return ((((y[j - 2] - 8.0 * y[j - 1]) + 8.0 * y[j + 1]) - y[j + 2])
            / h12) / r[j];
}

/* The running maximum of _fd_residual's per-node defects |total| /
 * (size + 1e-300), from worst = -1 (no live node yet): NaN once a defect is
 * NaN, as numpy's max. */
static double worse(double worst, double total, double size)
{
    double rel = fabs(total) / (size + 1e-300);
    return isnan(worst) || rel <= worst ? worst : rel;
}

/* _fd_residual's live threshold, 1e-8 of the peak of the scale
 * max(|y1|, |y2|) (|y1| without y2) over all n nodes; NaN if a scale is
 * NaN, as numpy's max, which leaves no node live. */
static double threshold(const double *y1, const double *y2, Py_ssize_t n)
{
    double peak = 0.0;
    for (Py_ssize_t j = 0; j < n; j++) {
        if (isnan(y1[j]) || (y2 != NULL && isnan(y2[j])))
            return NAN;
        double s = fabs(y1[j]);
        if (y2 != NULL && fabs(y2[j]) > s)
            s = fabs(y2[j]);
        if (s > peak)
            peak = s;
    }
    return 1e-8 * peak;
}

/* The residual of the running maximum: inf with no live node */
static PyObject *residual_of(double worst)
{
    return PyFloat_FromDouble(worst < 0.0 ? INFINITY : worst);
}

/* dirac_fd_residual(f, g, r, v0, v1, v2, E, m, kappa, h) -> float */
static PyObject *dirac_fd_residual(PyObject *self, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    static const int position[6] = {0, 1, 2, 3, 4, 5};
    Py_buffer v[6];
    double c[4];
    PyObject *result = NULL;
    (void)self;
    if (nargs != 10) {
        PyErr_Format(PyExc_TypeError,
                     "dirac_fd_residual takes 10 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    int held = get_arrays(args, position, 6, 0, v);
    if (held < 6 || get_doubles(args + 6, c, 4) < 0)
        goto done;
    const double *f = v[0].buf, *g = v[1].buf, *r = v[2].buf;
    const double *v0 = v[3].buf, *v1 = v[4].buf, *v2 = v[5].buf;
    double E = c[0], m = c[1], kappa = c[2], h12 = 12.0 * c[3];
    double ep = E + m, em = E - m;
    Py_ssize_t n = v[0].shape[0];
    double live = threshold(f, g, n);
    double worst = -1.0;
    for (Py_ssize_t j = 2; j < n - 2; j++) {
        double s = fabs(f[j]);
        if (fabs(g[j]) > s)
            s = fabs(g[j]);
        if (!(s > live))
            continue;
        double df = fd_dr(f, r, j, h12), dg = fd_dr(g, r, j, h12);
        double p = ((ep + v1[j]) - v0[j]) - v2[j];
        double q = ((em - v1[j]) - v0[j]) - v2[j];
        /* _dirac_sums: _balance(df, kf f, p g) and _balance(-dg, kg g, q f) */
        double t = (kappa + 1.0) / r[j] * f[j], u = p * g[j];
        worst = worse(worst, (df + t) - u, (fabs(df) + fabs(t)) + fabs(u));
        t = (kappa - 1.0) / r[j] * g[j];
        u = q * f[j];
        worst = worse(worst, (-dg + t) - u, (fabs(dg) + fabs(t)) + fabs(u));
    }
    result = residual_of(worst);
done:
    release(v, held);
    return result;
}

/* schrodinger_fd_residual(u, du, r, v_eff, E, m, h) -> float */
static PyObject *schrodinger_fd_residual(PyObject *self,
                                         PyObject *const *args,
                                         Py_ssize_t nargs)
{
    static const int position[4] = {0, 1, 2, 3};
    Py_buffer v[4];
    double c[3];
    PyObject *result = NULL;
    (void)self;
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError,
                     "schrodinger_fd_residual takes 7 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    int held = get_arrays(args, position, 4, 0, v);
    if (held < 4 || get_doubles(args + 4, c, 3) < 0)
        goto done;
    const double *u = v[0].buf, *du = v[1].buf, *r = v[2].buf;
    const double *v_eff = v[3].buf;
    double em = c[0] - c[1], m2 = 2.0 * c[1], h12 = 12.0 * c[2];
    Py_ssize_t n = v[0].shape[0];
    double live = threshold(u, NULL, n);
    double worst = -1.0;
    for (Py_ssize_t j = 2; j < n - 2; j++) {
        if (!(fabs(u[j]) > live))
            continue;
        double t1 = fd_dr(du, r, j, h12) / m2;
        double t2 = (v_eff[j] - em) * u[j];
        worst = worse(worst, t2 - t1, fabs(t1) + fabs(t2));
    }
    result = residual_of(worst);
done:
    release(v, held);
    return result;
}

static PyMethodDef methods[] = {
    {"rk4_linear2x2", (PyCFunction)(void (*)(void))rk4_linear2x2,
     METH_FASTCALL, "diraconf._kernels._rk4_python, compiled"},
    {"dirac_fd_residual", (PyCFunction)(void (*)(void))dirac_fd_residual,
     METH_FASTCALL, "diraconf.radial_solver._dirac_fd_residual, compiled"},
    {"schrodinger_fd_residual",
     (PyCFunction)(void (*)(void))schrodinger_fd_residual, METH_FASTCALL,
     "diraconf.radial_solver._schrodinger_fd_residual, compiled"},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {
    {0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_rk4",
    .m_doc = "Compiled RK4 sweep and shooting residuals of diraconf.",
    .m_size = 0,
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC PyInit__rk4(void)
{
    return PyModuleDef_Init(&module);
}
