/* The per-photon stream loop of mzsim.experiment, compiled.
 *
 * Every photon goes through BS1 and then BS2; a single-bs run reads the BS1
 * outcomes. That is exact: BS1's decision and update read the photon and
 * BS1's phase, never BS2's phase or delta. The cost is BS2's work, which a
 * single-bs run also does: 1.34 times a BS1-only loop's time over the 50
 * sweep-ref points.
 *
 * Each oscillator's phase is carried from one photon to the next by the gap
 * between their emission times, x = wrap(x + nu*gap), so no phase is formed
 * from the absolute time, whose rounding would grow with the stream.
 *
 * The loop is the run from draw to count. It takes the drawn emission gaps
 * and sums them into the emission times in place, one add per photon in
 * order, which are the bits of numpy's cumsum. It draws each photon's
 * initial phase from the run's generator itself, through numpy's bitgen_t.
 * So a run holds one float64 array, the gaps that become the times, and no
 * array of phases.
 *
 * Its outcomes are bit for bit those of the splitter rule written in Python
 * with phases.wrap_phase (the test oracle, tests/reference.py): it does the
 * same IEEE double operations in the same order, except that it skips the
 * photon's phase update on a reflection at BS2, which no outcome reads, and
 * computes BS2's phase update for transmitted photons too, then drops it.
 * Two rules keep it so. There is no -ffast-math, and -ffp-contract=off
 * stops the compiler fusing a*p + b*s into one multiply-add, which would
 * round once where Python rounds twice.
 */
#include <math.h>
#include <stdint.h>

static const double PI = 3.141592653589793;          /* math.pi */
static const double TWO_PI = 2.0 * 3.141592653589793; /* phases.TWO_PI */
static const double WRAP_SNAP = 1e-12;                /* phases.WRAP_SNAP */

/* Python's float x % TWO_PI (fmod, then the sign of the divisor), for the
 * arguments the loop almost never forms: x <= -TWO_PI, x >= 2*TWO_PI,
 * infinities and NaN. Both flavours of wrap reach it behind
 * __builtin_expect, so gcc lays it out away from the loop. Inlined so, the
 * loop took 0.86 times the time it took with this arm in a noinline
 * function. */
static inline __attribute__((always_inline)) double wrap_far(double x)
{
    double r = fmod(x, TWO_PI);
    if (r == 0.0)
        r = copysign(0.0, TWO_PI);
    else if (r < 0.0)
        r += TWO_PI;
    return r;
}

/* wrap(x) and wrap_m(x) are phases.wrap_phase(x): Python's x % TWO_PI, then
 * the snap, by which a value just below TWO_PI becomes 0. They give the
 * same bits and differ in the code gcc makes of them.
 *
 * Almost every argument the loop forms lies in (-TWO_PI, 2*TWO_PI): a
 * difference or a weighted mean of two wrapped phases, or a wrapped phase
 * plus a small step. There the remainder needs no quotient. Below 0 it is
 * x + TWO_PI, rounded once, as Python rounds it (a negative x so small that
 * the sum rounds to TWO_PI is then snapped to 0). From TWO_PI up it is
 * x - TWO_PI, which is exact by Sterbenz's lemma and so is fmod's value.
 * Otherwise it is x + 0.0, which turns x = -0.0 into +0.0, Python's zero.
 *
 * wrap branches, first on x in [0, TWO_PI), then on the sign of x. It
 * serves the sites whose argument is almost always in [0, TWO_PI), where
 * the branch is predicted and keeps the compares off the chains that carry
 * s1 and c2 from photon to photon: the three clock advances, the splitter
 * updates, BS2's lag and the initial phases. wrap_m masks: its addend is
 * two compares, each and-ed with its constant, then summed, and equals
 * wrap's in every case. It serves the sites whose argument falls on either
 * side of 0 or of TWO_PI at random, where a branch would be mispredicted
 * on many photons: cp + phase, p - s1, p + path and p2 - s2. A single wrap
 * at every site, which gcc 12.2 compiled to a branch on x < 0.0 and a mask
 * for x >= TWO_PI, put a mask's latency on the chains and a mispredicted
 * branch on the decisions; this split ran at 0.78 times its loop time,
 * faster on 196 of 200 sweep-ref points (2-core x86-64 VM, -O2).
 *
 * The arm each site took over the 50 sweep-ref points (5e6 photons, read
 * from a counting build), as [0, TWO_PI) / below 0 / from TWO_PI up; none
 * took fmod:
 *   wrap    cp + nu_p*gap                       99.2% / 0 / 0.8%
 *           s1 + nu1*gap                        100% but 73 from TWO_PI up
 *           c2 + nu2*gap, c2 + lag2, s2_new - lag2, the updates a*p + b*s,
 *           the initial phases                  100% (nu2 and lag2 are 0)
 *   wrap_m  cp + phase                          50.0% / 0 / 50.0%
 *           p - s1                              24.3% / 75.7% / 0
 *           p + path                            59.7% / 0 / 40.3%
 *           p2 - s2                             29.3% / 70.7% / 0
 */
static inline __attribute__((always_inline)) double wrap(double x)
{
    double r;
    if (__builtin_expect(x >= 0.0 && x < TWO_PI, 1))
        r = x + 0.0;
    else if (x > -TWO_PI && x < 2.0 * TWO_PI)
        r = x + (x < 0.0 ? TWO_PI : -TWO_PI);
    else
        r = wrap_far(x);
    return TWO_PI - r < WRAP_SNAP ? 0.0 : r;
}

static inline __attribute__((always_inline)) double wrap_m(double x)
{
    double r;
    if (__builtin_expect(x > -TWO_PI && x < 2.0 * TWO_PI, 1))
        r = x + ((x < 0.0 ? TWO_PI : 0.0) + (x >= TWO_PI ? -TWO_PI : 0.0));
    else
        r = wrap_far(x);
    return TWO_PI - r < WRAP_SNAP ? 0.0 : r;
}

/* out[i] = wrap(x[i]) and out[i] = wrap_m(x[i]), for the tests. */
void wrap_array(const double *x, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = wrap(x[i]);
}

void wrap_masked_array(const double *x, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = wrap_m(x[i]);
}

/* numpy's interface to a bit generator, as numpy/random/bitgen.h declares
 * it; Generator.bit_generator.ctypes.bit_generator is the address of one.
 * next_double(state) is the draw of Generator.random. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* Photons per block of initial phases. The phases of a block are drawn
 * before its photons run: a call through next_double inside the photon
 * loop spilled every register the loop keeps, 0.393 against 0.307 s per
 * 50 sweep-ref points on a 2-core x86-64 VM. */
#define BLOCK 512

/* Stream n photons through BS1, then BS2. On entry times[i] is the gap
 * before photon i's emission (photon 0's from time 0); on return it is
 * photon i's emission time. bs1_out[i] and bs2_out[i] are 1 where photon i
 * reflected at that splitter; a single-bs run reads only bs1_out (see the
 * top). Photon i's initial phase is next_double * TWO_PI, its draw in turn
 * from bitgen, the bits of Generator.random scaled by TWO_PI; with bitgen
 * NULL it is phase for every photon. Either is wrapped here. The starting
 * phases and path steps come from _stream_params.
 *
 * cp is the source's phase, s1 BS1's, each as the current photon meets
 * BS1; c2 is BS2's as the photon would meet it by path 1. A reflection at
 * BS1 sets the photon's and BS1's phases to the updated ones. Path 2 is
 * longer by delta, so BS2 is met lag2 further on, and a reflection there
 * stores BS2's updated phase back at the path 1 time. */
void run_stream(double *times, int64_t n, const bitgen_t *bitgen, double phase,
                double nu_p, double path1, double path2,
                double nu1, double a1, double b1, double s1,
                double nu2, double a2, double b2, double c2, double lag2,
                int8_t *bs1_out, int8_t *bs2_out)
{
    double phases[BLOCK];
    if (!bitgen)
        for (int j = 0; j < BLOCK; j++)
            phases[j] = wrap(phase);
    double cp = path1, prev = 0.0;
    for (int64_t start = 0; start < n; start += BLOCK) {
        int64_t end = n - start < BLOCK ? n : start + BLOCK;
        if (bitgen)
            for (int64_t i = start; i < end; i++)
                phases[i - start] = wrap(bitgen->next_double(bitgen->state) * TWO_PI);
        for (int64_t i = start; i < end; i++) {
            double t = prev + times[i];
            double gap = t - prev;
            prev = times[i] = t;
            cp = wrap(cp + nu_p * gap);
            s1 = wrap(s1 + nu1 * gap);
            c2 = wrap(c2 + nu2 * gap);

            double p = wrap_m(cp + phases[i - start]);
            int first = wrap_m(p - s1) < PI;
            if (first) {
                double p_new = wrap(a1 * p + b1 * s1);
                s1 = wrap(a1 * s1 + b1 * p);
                p = p_new;
            }
            bs1_out[i] = (int8_t)first;

            double p2 = wrap_m(p + (first ? path1 : path2));
            double s2 = first ? c2 : wrap(c2 + lag2);
            int second = wrap_m(p2 - s2) < PI;
            /* BS2's update is computed for every photon and kept by a
             * select: a branch on the random outcome was mispredicted about
             * half the time. */
            double s2_new = wrap(a2 * s2 + b2 * p2);
            double c2_new = first ? s2_new : wrap(s2_new - lag2);
            c2 = second ? c2_new : c2;
            bs2_out[i] = (int8_t)second;
        }
    }
}
