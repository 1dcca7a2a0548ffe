/* The compiled library of spikesim: the direct-method loop of spikesim.jump,
   the RK4 loop of spikesim.ode and the float formatter of spikesim.io's CSV
   writers.  spikesim._compiled builds it on first use, links it against
   numpy's libnpyrandom.a and loads it with ctypes; each entry point is used
   only where it reproduces its Python reference, which stays the fallback.

   Build it with -ffp-contract=off and without -ffast-math, so that no
   multiply-add is fused and no sum is reordered: both loops must do their
   Python reference's floating-point operations in the same order.

   The direct-method loop is the loop that jump._compile_kernel generates in
   Python, bit for bit: the same draws from the caller's numpy bit generator
   (numpy's own random_standard_exponential, then next_double, per event)
   and the same floating-point operations in the same order:

   * channel i's rate is (k_rn*r)*n + k_r*r + k_n*n + k_1, summed left to
     right with the zero terms left out, then divided by div unless div is 1;
   * a channel below its guard, (kr, kn) < (guard_kr, guard_kn), has rate 0;
   * the cumulative rates are summed in channel order, and the channel picked
     is the first whose cumulative rate exceeds the uniform times the total,
     or the last one when round-off puts the uniform on the top edge.

   Sums start at 0.0, which changes no value: 0.0 + x is x, apart from the
   sign of a zero, which no comparison sees. */

#include <Python.h>  /* first, as Python.h requires */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/distributions.h"

/* Why the loop stopped; the order of Termination in jump._STOPS. */
enum { STOP_LIMIT = 0, STOP_ABSORBED = 1, STOP_HORIZON = 2 };

struct table {             /* one process; _compiled.Table */
    int64_t n_channels;
    double r_unit, n_unit;
    const double *coef;    /* (k_rn, k_r, k_n, k_1, div) per channel */
    const int64_t *guard;  /* (kr, kn) below which the rate is 0, per channel */
    const int64_t *step;   /* lattice step (dkr, dkn) per channel */
};

struct run {               /* where a run stands; _compiled._Run */
    double t, t_end;
    int64_t kr, kn, limit, stop;
};

/* Run at most run->limit events from (run->kr, run->kn) at time run->t and
   return how many ran.  Event i stores its time in times[i] and its channel
   in picks[i].  On return run holds the state and the time after the last
   event and why the loop stopped, so the next call continues the run. */
int64_t spikesim_direct_method(bitgen_t *bitgen, const struct table *table, struct run *run,
                               double *times, int8_t *picks)
{
    const int n_channels = (int)table->n_channels;
    const double *coef = table->coef, r_unit = table->r_unit, n_unit = table->n_unit;
    const int64_t *guard = table->guard, *step = table->step, limit = run->limit;
    const double t_end = run->t_end;
    int64_t kr = run->kr, kn = run->kn, count = 0;
    double t = run->t, cum[n_channels];
    int stop = STOP_LIMIT;

    for (; count < limit; count++) {
        double r = kr * r_unit, n = kn * n_unit, total = 0.0;
        for (int i = 0; i < n_channels; i++) {
            const double *k = coef + 5 * i;
            double rate = 0.0;
            if (kr >= guard[2 * i] && kn >= guard[2 * i + 1]) {
                if (k[0] != 0.0) rate += k[0] * r * n;
                if (k[1] != 0.0) rate += k[1] * r;
                if (k[2] != 0.0) rate += k[2] * n;
                if (k[3] != 0.0) rate += k[3];
                if (k[4] != 1.0) rate /= k[4];
            }
            cum[i] = total += rate;
        }
        if (total <= 0.0) {
            stop = STOP_ABSORBED;
            break;
        }
        double t_next = t + random_standard_exponential(bitgen) / total;
        if (t_next > t_end) {
            stop = STOP_HORIZON;
            break;
        }
        t = t_next;
        double u = next_double(bitgen) * total;
        int pick = n_channels - 1;
        for (int i = 0; i < n_channels - 1; i++) {
            if (u < cum[i]) {
                pick = i;
                break;
            }
        }
        kr += step[2 * pick];
        kn += step[2 * pick + 1];
        times[count] = t;
        picks[count] = (int8_t)pick;
    }
    run->kr = kr;
    run->kn = kn;
    run->t = t;
    run->stop = stop;
    return count;
}

/* The RK4 loop of spikesim.ode: classical RK4 on the rate equations
   dr/dt = ((-alpha r - n r + n) + p) / gamma,  dn/dt = (alpha r + n r - n) - n / beta
   with ode._rk4_python's operations in its order, bit for bit (so again
   -ffp-contract=off): the four stages, r += h/6 (k1 + 2 k2 + 2 k3 + k4), a
   non-finite state fails the step, then a negative r and after it a
   negative n is clamped to 0 and counted, or fails the step when it is
   below the overshoot limit.  The state after every sample_every-th step
   and after the last step is stored, at time step * h. */

enum { RK4_OK = 0, RK4_NOT_FINITE = 1, RK4_R_BELOW = 2, RK4_N_BELOW = 3 };

struct rk4 {                      /* _compiled.Rk4 */
    double alpha, beta, gamma, p, h, overshoot_limit;
    int64_t n_steps, sample_every;
    int64_t clamps, fail, fail_step;  /* out: clamp count; why and where it failed */
    double fail_value;                /* out: the component below the limit */
};

/* Integrate from (rs[0], ns[0]) at time 0 and return how many samples are
   stored in ts, rs and ns, the start included.  A failed step ends the run
   with rk4->fail set to its reason. */
int64_t spikesim_rk4(struct rk4 *rk4, double *ts, double *rs, double *ns)
{
    const double alpha = rk4->alpha, beta = rk4->beta, gamma = rk4->gamma, p = rk4->p;
    const double h = rk4->h, half = 0.5 * h, sixth = h / 6.0, limit = rk4->overshoot_limit;
    const int64_t n_steps = rk4->n_steps, sample_every = rk4->sample_every;
    double r = rs[0], n = ns[0];
    int64_t kept = 1, clamps = 0, step;
    int fail = RK4_OK;

    for (step = 1; step <= n_steps; step++) {
        double k1r = ((-alpha * r - n * r + n) + p) / gamma;
        double k1n = (alpha * r + n * r - n) - n / beta;
        double r2 = r + half * k1r, n2 = n + half * k1n;
        double k2r = ((-alpha * r2 - n2 * r2 + n2) + p) / gamma;
        double k2n = (alpha * r2 + n2 * r2 - n2) - n2 / beta;
        double r3 = r + half * k2r, n3 = n + half * k2n;
        double k3r = ((-alpha * r3 - n3 * r3 + n3) + p) / gamma;
        double k3n = (alpha * r3 + n3 * r3 - n3) - n3 / beta;
        double r4 = r + h * k3r, n4 = n + h * k3n;
        double k4r = ((-alpha * r4 - n4 * r4 + n4) + p) / gamma;
        double k4n = (alpha * r4 + n4 * r4 - n4) - n4 / beta;
        r += sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r);
        n += sixth * (k1n + 2.0 * k2n + 2.0 * k3n + k4n);

        if (!(isfinite(r) && isfinite(n))) {
            fail = RK4_NOT_FINITE;
            break;
        }
        if (r < 0.0) {
            if (r < limit) {
                fail = RK4_R_BELOW;
                rk4->fail_value = r;
                break;
            }
            r = 0.0;
            clamps++;
        }
        if (n < 0.0) {
            if (n < limit) {
                fail = RK4_N_BELOW;
                rk4->fail_value = n;
                break;
            }
            n = 0.0;
            clamps++;
        }
        if (step % sample_every == 0 || step == n_steps) {
            ts[kept] = (double)step * h;
            rs[kept] = r;
            ns[kept] = n;
            kept++;
        }
    }
    rk4->clamps = clamps;
    rk4->fail = fail;
    rk4->fail_step = step;
    return kept;
}

/* The CSV text of rows [start, stop) of n_columns float64 columns: the
   values of a row joined by ',' and ended by '\n', each written as
   float.__repr__ writes it, by the same CPython call, so the text is
   repr's to the byte (nan, inf and -0.0 included).  Returns the bytes
   written to buf, or -1 with a Python exception set.  The call allocates
   through PyMem and dtoa keeps a shared pool, so it must run with the GIL
   held (ctypes.PYFUNCTYPE). */
int64_t spikesim_format_floats(const double *const *columns, int64_t n_columns, int64_t start,
                               int64_t stop, char *buf, int64_t size)
{
    char *out = buf, *const end = buf + size;
    for (int64_t i = start; i < stop; i++) {
        for (int64_t j = 0; j < n_columns; j++) {
            char *text = PyOS_double_to_string(columns[j][i], 'r', 0, Py_DTSF_ADD_DOT_0, NULL);
            if (text == NULL)
                return -1;
            size_t len = strlen(text);
            if ((size_t)(end - out) <= len) {
                PyMem_Free(text);
                PyErr_SetString(PyExc_OverflowError, "CSV slice exceeds its buffer");
                return -1;
            }
            memcpy(out, text, len);
            PyMem_Free(text);
            out += len;
            *out++ = j + 1 < n_columns ? ',' : '\n';
        }
    }
    return out - buf;
}
