/* The compiled library of spikesim: the direct-method loop of spikesim.jump,
   the RK4 loop of spikesim.ode, and the row formatter and row reader of
   spikesim.io's CSV files.
   spikesim._compiled builds it on first use, links it against numpy's
   libnpyrandom.a, checks it once, when it is built, and loads it with
   ctypes.  The library is used whole or not at all: only where each of its
   four entry points reproduces its Python reference on that module's probe.
   A build that fails one is refused, and the Python references run.

   Build it with -ffp-contract=off and without -ffast-math, so that no
   multiply-add is fused and no sum is reordered: each numeric loop must do
   its Python reference's floating-point operations in the same order.

   The direct-method loop is jump._run_python, the plain Python loop over the
   same coefficient table, bit for bit: the same draws from the caller's
   numpy bit generator (numpy's own random_standard_exponential, then
   next_double, per event) and the same floating-point operations in the
   same order:

   * channel i's rate is (k_rn*r)*n + k_r*r + k_n*n + k_1, summed left to
     right with the zero terms left out, then divided by div unless div is 1;
   * a channel below its guard, (kr, kn) < (guard_kr, guard_kn), has rate 0;
   * the cumulative rates are summed in channel order, and the channel picked
     is the smallest i below top, the last channel with a positive rate,
     whose cumulative rate exceeds the uniform times the total; top itself
     when there is none, as where round-off puts the uniform on the top edge.

   Sums start at 0.0, which changes no value: 0.0 + x is x, apart from the
   sign of a zero, which no comparison sees.

   Both numeric loops take an optional row output, a slice (struct slice):
   given one, a loop writes each event or sample it stores as a row of a
   path CSV right after storing it, with the formatter's own code, and
   returns when the slice cannot hold one more widest row.  The caller
   writes the slice to the file and calls again, and the run resumes where
   it stood, so a path CSV is written as its run goes and no path is held
   whole.  Without a slice a loop runs as it would otherwise.  A path made
   whole and then formatted costs two passes over it; formatted in the
   loop, the formatter's integer work fills the latency of the loop's
   floating-point chain. */

#include <Python.h>  /* first, as Python.h requires */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/distributions.h"

/* The CSV rows of spikesim.io's writers.  A float is written as
   float.__repr__ writes it: the shortest decimal that reads back as the
   same double, the nearest such decimal when there are several and the
   one with an even last digit on a tie, laid out by repr's rules.  The
   digits come from Schubfach (R. Giulietti, "The Schubfach way to render
   doubles", 2020), which needs no big integers: each bound of the interval
   of decimals that read back as the double is scaled by a 128-bit
   over-estimate of a power of ten and rounded to odd, which keeps every
   comparison with a candidate exact.  Nothing here calls Python, so the
   rows are formatted with the GIL released.

   The over-estimates come in as an argument, pow10[m - POW10_MIN] =
   g(m) = floor(10^m * 2^(127 - floor(m log2 10))) + 1 for m = -292 .. 326,
   as {high, low} 64-bit halves: 2^127 <= g(m) < 2^128.  spikesim._compiled
   makes the table from this definition with Python integers when it loads
   the formatter or the reader, so the library holds no table of 128-bit
   powers, only the two small ones of the digit writer below.

   Most of a row's cost is the digits, so the formatter does as little of
   that as it can.  The trailing zeros of the shortest digits go 8 at a
   time, then 4, 2 and 1, where one at a time took up to 16 divisions for a
   short decimal, and the digits are written in two groups of 8, a pair at
   a time.  A jump path's lattice cells repeat: the index moves by at most
   1 an event, and the same index gives the same double, so the same text.
   Each lattice column keeps the text of its recent indices for the whole
   table, and a repeated index copies it instead of formatting the value
   again. */
enum { POW10_MIN = -292, POW10_MAX = 326 };

/* Code used from each of the formatter's loops is inlined into each all
   the same, so that no copy of it lands ahead of the loops above and moves
   them. */
#define ALWAYS_INLINE inline __attribute__((always_inline))

/* The 128-bit product a * b as its high and low halves. */
static inline uint64_t mul_64(uint64_t a, uint64_t b, uint64_t *low)
{
#ifdef __SIZEOF_INT128__
    unsigned __int128 product = (unsigned __int128)a * b;
    *low = (uint64_t)product;
    return (uint64_t)(product >> 64);
#else
    uint64_t a0 = a & 0xffffffffu, a1 = a >> 32, b0 = b & 0xffffffffu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    uint64_t middle = (p00 >> 32) + (p01 & 0xffffffffu) + (p10 & 0xffffffffu);
    *low = (middle << 32) | (p00 & 0xffffffffu);
    return p11 + (p01 >> 32) + (p10 >> 32) + (middle >> 32);
#endif
}

/* floor(g * cp / 2^128) with its last bit set when the fraction is not 0.
   g over-estimates the power of ten by less than 1, so an exact product
   has a fraction below 2^64 / 2^128 and a zero upper fraction word. */
static inline uint64_t round_to_odd(const uint64_t *g, uint64_t cp)
{
    uint64_t x_low, y_low;
    uint64_t x_high = mul_64(g[1], cp, &x_low);
    uint64_t y_high = mul_64(g[0], cp, &y_low);
    uint64_t z = y_low + x_high;
    return (y_high + (z < y_low)) | (z != 0);
}

/* The shortest decimal digits * 10^*exponent that reads back as the
   positive finite double of these IEEE fields. */
static ALWAYS_INLINE uint64_t shortest(const uint64_t (*pow10)[2], uint64_t fraction,
                                       int biased, int *exponent)
{
    const uint64_t c = biased ? fraction | (UINT64_C(1) << 52) : fraction;
    const int q = (biased ? biased : 1) - 1075;  /* value = c * 2^q */
    /* A power of two above the smallest normal has its lower neighbour
       half as far away as its upper one. */
    const int closer = fraction == 0 && biased > 1;
    const uint64_t even = (c & 1) == 0;  /* rounds back from a bound */
    const uint64_t cb = c << 2, cbl = cb - 2 + (uint64_t)closer, cbr = cb + 2;
    /* k = floor(log10(2^q)), or floor(log10(3/4 * 2^q)) when closer;
       h = q + floor(log2(10^-k)) + 1, in 1 .. 4. */
    const int k = (q * 1262611 - (closer ? 524031 : 0)) >> 22;
    const int h = q + ((-k * 1741647) >> 19) + 1;
    const uint64_t *g = pow10[-k - POW10_MIN];
    /* 4 * v * 10^-k and the interval's bounds, each rounded to odd. */
    const uint64_t vb = round_to_odd(g, cb << h);
    const uint64_t lower = round_to_odd(g, cbl << h) + !even;
    const uint64_t upper = round_to_odd(g, cbr << h) - !even;

    const uint64_t s = vb >> 2;
    if (s >= 10) {  /* one digit fewer: the multiples of 10 around s */
        const uint64_t sp = s / 10;
        const int up_in = lower <= 40 * sp, wp_in = 40 * sp + 40 <= upper;
        if (up_in != wp_in) {
            *exponent = k + 1;
            return sp + (uint64_t)wp_in;
        }
    }
    *exponent = k;
    const int u_in = lower <= 4 * s, w_in = 4 * s + 4 <= upper;
    if (u_in != w_in)
        return s + (uint64_t)w_in;
    /* Both or neither of s and s + 1 read back: the nearer, even on a tie. */
    const uint64_t mid = 4 * s + 2;
    return s + (vb > mid || (vb == mid && (s & 1)));
}

/* Bytes a value takes at most: the 24 of "-2.2250738585072014e-308". */
#define FLOAT_BYTES 24
/* Bytes of a label's slot in the caller's label table: the label, then NUL
   padding.  A label is copied as its whole slot. */
#define LABEL_BYTES 16
/* Bytes past the widest row that its fixed-width copies may write: a float
   cell's digits are copied 16 at a time and may reach 9 bytes past its
   FLOAT_BYTES and separator.  The caller's buffer holds them. */
#define COPY_BYTES 16

/* "00" .. "99": a pair of digits at a time. */
static const char DIGIT_PAIRS[200] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* 10^0 .. 10^17. */
static const uint64_t POWERS_OF_TEN[18] = {
    1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000, 1000000000, 10000000000,
    100000000000, 1000000000000, 10000000000000, 100000000000000, 1000000000000000,
    10000000000000000, 100000000000000000};

/* The 8 digits of v < 10^8, leading zeros included, at out. */
static inline void write_8_digits(uint32_t v, char *out)
{
    const uint32_t high = v / 10000, low = v % 10000;
    memcpy(out, DIGIT_PAIRS + 2 * (high / 100), 2);
    memcpy(out + 2, DIGIT_PAIRS + 2 * (high % 100), 2);
    memcpy(out + 4, DIGIT_PAIRS + 2 * (low / 100), 2);
    memcpy(out + 6, DIGIT_PAIRS + 2 * (low % 100), 2);
}

/* Write x as repr(x) writes it and return the end of the text: nan, inf,
   -inf; positional notation when the decimal point falls from 4 places
   before the first digit to 16 places after it, with at least one digit
   after the point; otherwise d.ddde+XX, the exponent of two digits at
   least.  The digits, at most 17, are written as one digit and two groups
   of 8, leading zeros included, then zeros, and the text starts at the
   first digit that is not one.  Every copy is of a fixed width: it may
   write past the end of the text, up to 34 bytes from out, and the next
   cell or the caller's slack takes those bytes. */
static ALWAYS_INLINE char *format_double(const uint64_t (*pow10)[2], double x, char *out)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t fraction = bits & ((UINT64_C(1) << 52) - 1);
    const int biased = (int)(bits >> 52 & 0x7ff);
    if (biased == 0x7ff && fraction) {
        memcpy(out, "nan", 3);
        return out + 3;
    }
    if (bits >> 63)
        *out++ = '-';
    if (biased == 0x7ff) {
        memcpy(out, "inf", 3);
        return out + 3;
    }
    if (biased == 0 && fraction == 0) {
        memcpy(out, "0.0", 3);
        return out + 3;
    }

    int exponent;
    uint64_t value = shortest(pow10, fraction, biased, &exponent);
    if (value % 10 == 0) {  /* most shortest digits have no trailing zero */
        while (value % 100000000 == 0) {
            value /= 100000000;
            exponent += 8;
        }
        if (value % 10000 == 0) {
            value /= 10000;
            exponent += 4;
        }
        if (value % 100 == 0) {
            value /= 100;
            exponent += 2;
        }
        if (value % 10 == 0) {
            value /= 10;
            exponent++;
        }
    }
    /* n, the digits of value: floor(log10(2^b)) or one more, for its b bits. */
    const int guess = (64 - __builtin_clzll(value)) * 1233 >> 12;
    const int n = guess + (value >= POWERS_OF_TEN[guess]);
    /* 17 digits, then 31 zeros: every copy below reads inside it. */
    char digits[48];
    memset(digits + 16, '0', 32);
    const uint64_t high = value / 100000000;  /* below 10^9: 32-bit from here */
    digits[0] = (char)('0' + (uint32_t)high / 100000000);
    write_8_digits((uint32_t)high % 100000000, digits + 1);
    write_8_digits((uint32_t)(value - high * 100000000), digits + 9);
    const char *first = digits + 17 - n;
    const int point = exponent + n;  /* x = 0.digits * 10^point */

    if (point < -3 || point > 16) {
        /* The '.' and the copy are overwritten from out + 1 on when n is 1. */
        out[0] = first[0];
        out[1] = '.';
        memcpy(out + 2, first + 1, 16);
        out += n > 1 ? n + 1 : 1;
        int e = point - 1;
        out[0] = 'e';
        out[1] = e < 0 ? '-' : '+';
        e = e < 0 ? -e : e;
        if (e >= 100) {
            out[2] = (char)('0' + e / 100);
            e %= 100;
            out++;
        }
        memcpy(out + 2, DIGIT_PAIRS + 2 * e, 2);
        return out + 4;
    }
    if (point <= 0) {
        memcpy(out, "0.000", 5);
        out += 2 - point;
        memcpy(out, first, 17);
        return out + n;
    }
    /* The integer part (the digits, then zeros where point passes them),
       the point, and the rest of the digits, or the zero after them. */
    memcpy(out, first, 16);
    out += point;
    *out++ = '.';
    memcpy(out, first + point, 16);
    return out + (point < n ? n - point : 1);
}

/* The text of a lattice column's recent values, direct-mapped by index:
   slot k & (MEMO_SLOTS - 1) holds index k's text. */
enum { MEMO_SLOTS = 256 };

struct memo {                    /* _compiled.Memo */
    int64_t k[MEMO_SLOTS];
    uint8_t len[MEMO_SLOTS];     /* 0: the slot is empty */
    char text[MEMO_SLOTS][FLOAT_BYTES];
};

/* Write lattice index k's value, (double)k * unit, through memo: a hit
   copies the FLOAT_BYTES bytes of its slot and keeps the length of its
   text, a miss formats the value and stores it. */
static ALWAYS_INLINE char *format_lattice(const uint64_t (*pow10)[2], struct memo *memo,
                                          int64_t k, double unit, char *out)
{
    const unsigned slot = (unsigned)((uint64_t)k & (MEMO_SLOTS - 1));
    if (memo->len[slot] && memo->k[slot] == k) {
        memcpy(out, memo->text[slot], FLOAT_BYTES);
        return out + memo->len[slot];
    }
    char *const text = format_double(pow10, (double)k * unit, out);
    memcpy(memo->text[slot], out, FLOAT_BYTES);
    memo->len[slot] = (uint8_t)(text - out);
    memo->k[slot] = k;
    return text;
}

/* Label codes a column may hold: its int8 codes are at least 0. */
enum { LABEL_CODES = 128 };

/* The rows of a jump path: event i's time, its lattice state (kr, kn), each
   written through its memo, and its channel's label. */
struct jump_rows {
    const double *t;
    const int64_t *kr, *kn;
    const int8_t *codes;
    double r_unit, n_unit;
    struct memo *r_memo, *n_memo;
    const char *labels;            /* a slot of LABEL_BYTES a code */
    uint8_t label_len[LABEL_CODES];
};

/* Take the lengths of the first n_labels labels of rows. */
static ALWAYS_INLINE void take_label_lengths(struct jump_rows *rows, int64_t n_labels)
{
    for (int64_t c = 0; c < n_labels && c < LABEL_CODES; c++)
        rows->label_len[c] = (uint8_t)strnlen(rows->labels + LABEL_BYTES * c, LABEL_BYTES);
}

/* Write row i of a jump path and return the end of its text. */
static ALWAYS_INLINE char *format_jump_row(const uint64_t (*pow10)[2],
                                           const struct jump_rows *rows, int64_t i, char *out)
{
    const int64_t *const kr = rows->kr, *const kn = rows->kn;
    struct memo *const r_memo = rows->r_memo, *const n_memo = rows->n_memo;
    const double r_unit = rows->r_unit, n_unit = rows->n_unit;
    const int8_t code = rows->codes[i];
    out = format_double(pow10, rows->t[i], out);
    *out++ = ',';
    out = format_lattice(pow10, r_memo, kr[i], r_unit, out);
    *out++ = ',';
    out = format_lattice(pow10, n_memo, kn[i], n_unit, out);
    *out++ = ',';
    /* The label's whole slot, kept to its length. */
    memcpy(out, rows->labels + LABEL_BYTES * code, LABEL_BYTES);
    out += rows->label_len[code];
    *out++ = '\n';
    return out;
}

/* Bytes a loop's row takes at most, with the COPY_BYTES its copies may
   write past it: a sample of the RK4 loop (t, r, n), and an event of the
   direct-method loop (t, r, n, label). */
enum {
    SAMPLE_ROW_BYTES = 3 * (FLOAT_BYTES + 1) + COPY_BYTES,
    EVENT_ROW_BYTES = 3 * (FLOAT_BYTES + 1) + LABEL_BYTES + COPY_BYTES,
};

/* A numeric loop's row output: a slice of a path CSV, which the caller
   writes to the file after each call. */
struct slice {                     /* _compiled.Slice */
    char *buf;
    int64_t size, used;            /* the bytes of buf; out: the bytes written */
    const uint64_t (*pow10)[2];    /* the table of g(m) */
    struct memo *memos[2];         /* events: r's and n's memo, for the whole table */
    const char *labels;            /* events: n_labels slots of LABEL_BYTES, one a code */
    int64_t n_labels;
};

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
   return how many ran.  Event i stores its time in times[i], the state
   after it in krs[i] and kns[i], and its channel in picks[i].  Given rows,
   each event is then written to it as a jump path's row, and the loop
   returns with stop STOP_LIMIT when rows cannot hold one more.  On return
   run holds the state and the time after the last event and why the loop
   stopped, so the next call continues the run. */
static ALWAYS_INLINE int64_t direct_method(bitgen_t *bitgen, const struct table *table,
                                           struct run *run, double *times, int64_t *krs,
                                           int64_t *kns, int8_t *picks, struct slice *rows)
{
    const int n_channels = (int)table->n_channels;
    const double *coef = table->coef, r_unit = table->r_unit, n_unit = table->n_unit;
    const int64_t *guard = table->guard, *step = table->step, limit = run->limit;
    const double t_end = run->t_end;
    int64_t kr = run->kr, kn = run->kn, count = 0;
    double t = run->t, cum[n_channels];
    int stop = STOP_LIMIT;
    struct jump_rows path = {times, krs, kns, picks, r_unit, n_unit, NULL, NULL, NULL, {0}};
    char *out = NULL, *end = NULL;
    if (rows) {
        path.r_memo = rows->memos[0];
        path.n_memo = rows->memos[1];
        path.labels = rows->labels;
        take_label_lengths(&path, rows->n_labels);
        out = rows->buf;
        end = out + rows->size;
    }

    for (; count < limit; count++) {
        if (out && end - out < EVENT_ROW_BYTES)
            break;
        double r = kr * r_unit, n = kn * n_unit, total = 0.0;
        int top = 0;
        for (int i = 0; i < n_channels; i++) {
            const double *k = coef + 5 * i;
            double rate = 0.0;
            if (kr >= guard[2 * i] && kn >= guard[2 * i + 1]) {
                if (k[0] != 0.0) rate += k[0] * r * n;
                if (k[1] != 0.0) rate += k[1] * r;
                if (k[2] != 0.0) rate += k[2] * n;
                if (k[3] != 0.0) rate += k[3];
                if (k[4] != 1.0) rate /= k[4];
                if (rate > 0.0) top = i;
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
        /* Downward with a conditional move, not a forward loop with a break:
           the break's branch is mispredicted about once an event. */
        int pick = top;
        for (int i = top - 1; i >= 0; i--)
            pick = u < cum[i] ? i : pick;
        kr += step[2 * pick];
        kn += step[2 * pick + 1];
        times[count] = t;
        krs[count] = kr;
        kns[count] = kn;
        picks[count] = (int8_t)pick;
        if (out)
            out = format_jump_row(rows->pow10, &path, count, out);
    }
    run->kr = kr;
    run->kn = kn;
    run->t = t;
    run->stop = stop;
    if (rows)
        rows->used = out - rows->buf;
    return count;
}

static int64_t direct_method_rows(bitgen_t *bitgen, const struct table *table, struct run *run,
                                  double *times, int64_t *krs, int64_t *kns, int8_t *picks,
                                  struct slice *rows);

int64_t spikesim_direct_method(bitgen_t *bitgen, const struct table *table, struct run *run,
                               double *times, int64_t *krs, int64_t *kns, int8_t *picks,
                               struct slice *rows)
{
    if (rows)
        return direct_method_rows(bitgen, table, run, times, krs, kns, picks, rows);
    return direct_method(bitgen, table, run, times, krs, kns, picks, NULL);
}

/* direct_method with rows, in a function of its own, so that the loop
   without them is compiled as it would be alone, and in a section of its
   own, which the linker puts after .text, so that it lands after the other
   loops and moves none of them. */
static __attribute__((noinline, section(".text.rows"))) int64_t direct_method_rows(
    bitgen_t *bitgen, const struct table *table, struct run *run, double *times, int64_t *krs,
    int64_t *kns, int8_t *picks, struct slice *rows)
{
    return direct_method(bitgen, table, run, times, krs, kns, picks, rows);
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
    int64_t capacity;             /* samples go at ts[1] .. ts[capacity - 1] */
    int64_t step;                 /* in and out: the steps taken */
    double r, n;                  /* in and out: the state after them */
    int64_t clamps, fail;         /* in and out: the clamp count; out: why it failed */
    double fail_value;            /* out: the component below the limit */
};

/* Continue the run from step rk4->step, at state (rk4->r, rk4->n), storing
   samples in ts, rs and ns from index 1 until they are full or the run
   ends, and return the index after the last sample stored.  Given rows,
   each sample is then written to it as an ODE path's row (t, r, n), and
   the loop returns when rows cannot hold one more.  A failed step ends the
   run with rk4->fail set to its reason and rk4->step to the step. */
int64_t spikesim_rk4(struct rk4 *rk4, double *ts, double *rs, double *ns, struct slice *rows)
{
    const double alpha = rk4->alpha, beta = rk4->beta, gamma = rk4->gamma, p = rk4->p;
    const double h = rk4->h, half = 0.5 * h, sixth = h / 6.0, limit = rk4->overshoot_limit;
    const int64_t n_steps = rk4->n_steps, sample_every = rk4->sample_every;
    const int64_t capacity = rk4->capacity;
    double r = rk4->r, n = rk4->n;
    int64_t kept = 1, clamps = rk4->clamps, step = rk4->step;
    int fail = RK4_OK;
    const double *const sample[3] = {ts, rs, ns};
    char *out = rows ? rows->buf : NULL, *const end = rows ? rows->buf + rows->size : NULL;

    while (step < n_steps && kept < capacity) {
        if (out && end - out < SAMPLE_ROW_BYTES)
            break;
        step++;
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
            if (out) {
                for (int j = 0; j < 3; j++) {
                    out = format_double(rows->pow10, sample[j][kept], out);
                    *out++ = ',';
                }
                out[-1] = '\n';
            }
            kept++;
        }
    }
    rk4->step = step;
    rk4->r = r;
    rk4->n = n;
    rk4->clamps = clamps;
    rk4->fail = fail;
    if (rows)
        rows->used = out - rows->buf;
    return kept;
}

/* What a column holds, and how a value becomes text; _compiled's kinds. */
enum { COLUMN_FLOAT = 0, COLUMN_LATTICE = 1, COLUMN_LABEL = 2 };

struct column {                  /* _compiled.Column */
    int64_t kind;
    const void *values;          /* double, int64_t or int8_t, by kind */
    double unit;                 /* COLUMN_LATTICE: index k is (double)k * unit */
    struct memo *memo;           /* COLUMN_LATTICE: its memo, for the whole table */
    const char *labels;          /* COLUMN_LABEL: n_labels slots of LABEL_BYTES, one a code */
    int64_t n_labels;
};

/* What spikesim_format_rows returns, beside the bytes it wrote. */
enum { FORMAT_OVERFLOW = -1, FORMAT_LAYOUT = -2 };

/* The CSV text of rows [start, stop) of n_columns columns: the values of a
   row joined by ',' and ended by '\n'.  A float, and a lattice value
   (double)k * unit, is written as repr writes it; a label code as its
   label, which the caller has checked is in its table; pow10 is the table
   of g(m) above.  Returns the bytes written to buf, FORMAT_OVERFLOW when
   they would not fit in size with COPY_BYTES to spare, or FORMAT_LAYOUT
   for a layout that no writer writes.

   The writers' two layouts each have a loop: all floats (an ODE path, a
   survival curve, pairs) and the jump row (time, r, n, channel).  Each
   checks once a row that the widest row and COPY_BYTES fit.  The jump
   row's lattice columns each keep the memo that the caller empties once a
   table, and the lengths of the labels are taken once a call; the
   direct-method loop writes its rows with the same code. */
int64_t spikesim_format_rows(const struct column *columns, int64_t n_columns, int64_t start,
                             int64_t stop, char *buf, int64_t size, const uint64_t (*pow10)[2])
{
    char *out = buf, *const end = buf + size;
    int64_t floats = 0;
    for (int64_t j = 0; j < n_columns; j++)
        floats += columns[j].kind == COLUMN_FLOAT;

    if (floats == n_columns) {
        const int64_t widest = n_columns * (FLOAT_BYTES + 1) + COPY_BYTES;
        for (int64_t i = start; i < stop; i++) {
            if (end - out < widest)
                return FORMAT_OVERFLOW;
            for (int64_t j = 0; j < n_columns; j++) {
                out = format_double(pow10, ((const double *)columns[j].values)[i], out);
                *out++ = ',';
            }
            out[-1] = '\n';
        }
        return out - buf;
    }

    if (!(n_columns == 4 && columns[0].kind == COLUMN_FLOAT
          && columns[1].kind == COLUMN_LATTICE && columns[2].kind == COLUMN_LATTICE
          && columns[3].kind == COLUMN_LABEL))
        return FORMAT_LAYOUT;
    struct jump_rows path = {columns[0].values, columns[1].values, columns[2].values,
                             columns[3].values, columns[1].unit, columns[2].unit,
                             columns[1].memo, columns[2].memo, columns[3].labels, {0}};
    take_label_lengths(&path, columns[3].n_labels);
    for (int64_t i = start; i < stop; i++) {
        if (end - out < EVENT_ROW_BYTES)
            return FORMAT_OVERFLOW;
        out = format_jump_row(pow10, &path, i, out);
    }
    return out - buf;
}


/* The rows of spikesim.io's trajectory reader: the data rows of a CSV as
   the writers write them, each cell either a number, read into a float64
   column, or a channel label, skipped.  Only the writers' own grammar is
   read: a number is -?D+(.D+)?(e[+-]?D+)?, nan, inf or -inf, a label is
   [a-z-]*, cells are separated by ',' and a row ends with '\n'.  Anything
   else (spaces, '+', '.5', '\r', an empty number) is refused, and the
   caller reads the whole file with numpy's loadtxt instead.

   A number w * 10^q with at most 19 significant digits, w != 0, is
   converted by Eisel-Lemire (D. Lemire, "Number parsing at a gigabyte per
   second", Softw. Pract. Exp. 51:1700, 2021): w times the high half of the
   truncated 128-bit power of ten, which is the formatter's g(m) - 1,
   rounded to nearest-even when that one product's bits decide it.  strtod,
   correctly rounded in glibc, takes the rest: longer digit strings, q
   outside the table, products whose dropped low half could carry into the
   bits kept, halfway cases, and results that are subnormal or overflow. */

/* Significant digits a uint64_t always holds. */
enum { MAX_DIGITS = 19 };

/* The bits of w * 10^q, w != 0 and q in POW10_MIN .. POW10_MAX, rounded to
   nearest-even: 1 with *bits set, or 0 when the product cannot decide it
   or the result is not a normal double. */
static int eisel_lemire(uint64_t w, int q, const uint64_t (*pow10)[2], uint64_t *bits)
{
    const uint64_t *g = pow10[q - POW10_MIN];
    const uint64_t t_high = g[0] - (g[1] == 0);  /* the high half of g(q) - 1 */
    const int shift = __builtin_clzll(w);
    w <<= shift;
    uint64_t x_low, x_high = mul_64(w, t_high, &x_low);
    /* The dropped low half of the power adds less than w to x_low, so it
       can change the bits kept only where x_low + w carries into them. */
    if ((x_high & 0x1ff) == 0x1ff && x_low + w < w)
        return 0;
    const uint64_t top = x_high >> 63;
    uint64_t mantissa = x_high >> (top + 9);  /* 54 bits: 53 and a rounding bit */
    /* floor(q log2 10) + 64 + bias - shift, less 1 when the top bit is clear. */
    int64_t exponent = ((217706 * (int64_t)q) >> 16) + 64 + 1023 - shift - (int64_t)(1 ^ top);
    if (x_low == 0 && (x_high & 0x1ff) == 0 && (mantissa & 3) == 1)
        return 0;  /* exactly halfway, or just above: not decided */
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >> 53) {
        mantissa >>= 1;
        exponent++;
    }
    if (exponent <= 0 || exponent >= 0x7ff)
        return 0;
    *bits = (uint64_t)exponent << 52 | (mantissa & ((UINT64_C(1) << 52) - 1));
    return 1;
}

static inline int is_digit(char c)
{
    return (unsigned char)(c - '0') < 10;
}

/* Read the number at p, which must end with 'end', into *x and return the
   text after 'end'; NULL when the cell is outside the grammar. */
static const char *read_number(const char *p, char end, const uint64_t (*pow10)[2], double *x)
{
    const char *const start = p;
    const int negative = *p == '-';
    p += negative;
    if (p[0] == 'i' && p[1] == 'n' && p[2] == 'f' && p[3] == end) {
        *x = negative ? -HUGE_VAL : HUGE_VAL;
        return p + 4;
    }
    if (!negative && p[0] == 'n' && p[1] == 'a' && p[2] == 'n' && p[3] == end) {
        const uint64_t nan = UINT64_C(0x7ff8000000000000);  /* the nan loadtxt reads */
        memcpy(x, &nan, sizeof nan);
        return p + 4;
    }

    uint64_t w = 0;  /* the first MAX_DIGITS significant digits */
    int64_t digits = 0, q = 0;  /* significant digits; value = w * 10^q */
    const char *mark = p;
    for (; is_digit(*p); p++) {
        if (w || *p != '0') {
            if (digits++ < MAX_DIGITS)
                w = 10 * w + (uint64_t)(*p - '0');
        }
    }
    if (p == mark)
        return NULL;
    if (*p == '.') {
        mark = ++p;
        for (; is_digit(*p); p++, q--) {
            if (w || *p != '0') {
                if (digits++ < MAX_DIGITS)
                    w = 10 * w + (uint64_t)(*p - '0');
            }
        }
        if (p == mark)
            return NULL;
    }
    if (*p == 'e') {
        p++;
        const int minus = *p == '-';
        p += *p == '-' || *p == '+';
        mark = p;
        int64_t e = 0;
        for (; is_digit(*p); p++) {
            if (e < 100000)  /* far past the table; strtod reads the rest */
                e = 10 * e + (*p - '0');
        }
        if (p == mark)
            return NULL;
        q += minus ? -e : e;
    }
    if (*p != end)
        return NULL;

    uint64_t bits = 0;  /* w = 0: a zero, of the sign written */
    if (w && (digits > MAX_DIGITS || q < POW10_MIN || q > POW10_MAX
              || !eisel_lemire(w, (int)q, pow10, &bits))) {
        char *stop;
        *x = strtod(start, &stop);
        /* A locale with another decimal point stops strtod early. */
        return stop == p ? p + 1 : NULL;
    }
    bits |= (uint64_t)negative << 63;
    memcpy(x, &bits, sizeof bits);
    return p + 1;
}

struct rows {                  /* _compiled.Rows */
    int64_t n_cells;           /* cells in a row */
    const int64_t *column;     /* per cell: its column, or -1 for a label */
    double *const *columns;    /* the float64 columns */
    int64_t count, capacity;   /* rows stored so far; rows the columns hold */
};

/* Read the complete rows of text[0, size), those ending in '\n', into the
   columns from row rows->count on, until they are full.  Returns the bytes
   read, which end a row, or -1 when a row is outside the grammar. */
int64_t spikesim_read_rows(struct rows *rows, const char *text, int64_t size,
                           const uint64_t (*pow10)[2])
{
    const char *p = text, *stop = text + size;
    while (stop > text && stop[-1] != '\n')
        stop--;
    const int64_t last = rows->n_cells - 1;
    int64_t count = rows->count;
    /* Every read below stops at the '\n' that ends its row. */
    for (; p < stop && count < rows->capacity; count++) {
        for (int64_t j = 0; j <= last; j++) {
            const char end = j < last ? ',' : '\n';
            const int64_t column = rows->column[j];
            if (column < 0) {
                while ((*p >= 'a' && *p <= 'z') || *p == '-')
                    p++;
                if (*p++ != end)
                    return -1;
            } else if (!(p = read_number(p, end, pow10, rows->columns[column] + count))) {
                return -1;
            }
        }
    }
    rows->count = count;
    return p - text;
}
