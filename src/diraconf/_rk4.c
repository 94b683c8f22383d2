/* The RK4 kernel of diraconf/_kernels.py in C99, operation for operation.
 *
 * Every expression keeps the Python loop's grouping and order, so with
 * -ffp-contract=off (no fused multiply-add) the outputs are the same bits.
 * Plain C ABI, loaded through ctypes; see _kernels.py for the contract. */
#include <math.h>

int diraconf_rk4_linear2x2(long n, const double *s, const double *b11,
                           const double *b12, const double *b21,
                           const double *b22, double y1, double y2,
                           int reverse, double *y1_out, double *y2_out,
                           double *logscale_out, long stop)
{
    double acc = 0.0;
    long first = reverse ? n - 1 : 0;
    /* the caller checked 0 <= stop <= n - 1: the sweep ends at node stop */
    long steps = reverse ? n - 1 - stop : stop;
    y1_out[first] = y1;
    y2_out[first] = y2;
    logscale_out[first] = acc;

    for (long i = 0; i < steps; i++) {
        long iw, i0, im, i1;
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
