/* The direct-method loop of spikesim.jump, driven by a coefficient table.

   It is the loop that jump._compile_kernel generates in Python, bit for bit:
   the same draws from the caller's numpy bit generator (numpy's own
   random_standard_exponential, then next_double, per event) and the same
   floating-point operations in the same order:

   * channel i's rate is (k_rn*r)*n + k_r*r + k_n*n + k_1, summed left to
     right with the zero terms left out, then divided by div unless div is 1;
   * a channel below its guard, (kr, kn) < (guard_kr, guard_kn), has rate 0;
   * the cumulative rates are summed in channel order, and the channel picked
     is the first whose cumulative rate exceeds the uniform times the total,
     or the last one when round-off puts the uniform on the top edge.

   Sums start at 0.0, which changes no value: 0.0 + x is x, apart from the
   sign of a zero, which no comparison sees.  Build it with -ffp-contract=off
   and without -ffast-math, so that no multiply-add is fused and no sum is
   reordered.  spikesim._compiled builds it on first use and links it
   against numpy's libnpyrandom.a. */

#include <stdint.h>

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
