/* The per-photon stream loop of mzsim.experiment, compiled.
 *
 * Its outcomes are bit for bit those of the Python reference loop
 * (experiment._run_stream_py, written with optics.interact): it does the
 * same IEEE double operations in the same order, except that it skips the
 * photon's phase update on a reflection at BS2, which no outcome reads, and
 * computes BS2's register update for transmitted photons too, then drops it.
 * Two rules keep it so. There is no -ffast-math, and
 * -ffp-contract=off stops the compiler fusing a*p + b*s into one
 * multiply-add, which would round once where Python rounds twice. The one
 * fused multiply-add is the explicit fma() in rem, which is exact by
 * construction (see there).
 *
 * About half the reductions per photon take |x| < TWO_PI: p - s,
 * a*p + b*s, the initial phase, and every BS2 phase when its frequency is
 * 0. There wrap takes no quotient, and is still exact: fmod(x, TWO_PI) == x
 * for such x, and -0.0 + 0.0 is +0.0, as in Python (see wrap).
 */
#include <math.h>
#include <stdint.h>

/* On x86-64 with glibc, each exported function is built twice, with and
 * without FMA instructions, and the dynamic loader picks the build for this
 * CPU when the library loads. Elsewhere there is only the default build,
 * where fma() and trunc() are calls into libm. fma() is correctly rounded
 * either way, so both builds give the same bits. */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define FMA_CLONES __attribute__((target_clones("fma", "default")))
#endif
#endif
#ifndef FMA_CLONES
#define FMA_CLONES
#endif

static const double PI = 3.141592653589793;          /* math.pi */
static const double TWO_PI = 2.0 * 3.141592653589793; /* phases.TWO_PI */
static const double INV_TWO_PI = 1.0 / (2.0 * 3.141592653589793);
static const double WRAP_SNAP = 1e-12;                /* phases.WRAP_SNAP */

/* fmod(x, TWO_PI), bit for bit except that a zero result is always +0.0.
 *
 * k is x / TWO_PI truncated, from a multiply by the reciprocal. For
 * |x| < 2^50 it is the true truncated quotient or one off. fma rounds the
 * exact x - k*TWO_PI once. With the true k that value is fmod's, which is
 * representable, so the rounding keeps it. With k one off the value falls
 * outside fmod's range, [0, TWO_PI) for x >= 0 and (-TWO_PI, 0] for x < 0;
 * then k steps once, towards the side r fell on, and fma runs again, so the
 * same argument holds for the result. Larger |x|, infinities and NaN go to
 * fmod. */
static inline __attribute__((always_inline)) double rem(double x)
{
    if (!(fabs(x) < 0x1p50))
        return fmod(x, TWO_PI);
    double k = trunc(x * INV_TWO_PI);
    double r = fma(-k, TWO_PI, x);
    if (x >= 0.0 ? r < 0.0 || r >= TWO_PI : r > 0.0 || r <= -TWO_PI)
        r = fma(-(k + (r > 0.0 ? 1.0 : -1.0)), TWO_PI, x);
    return r;
}

/* Python's float x % TWO_PI (fmod, then the sign of the divisor), then the
 * snap of phases.wrap_phase: a value just below TWO_PI becomes 0.
 *
 * For |x| < TWO_PI, fmod(x, TWO_PI) is x itself, so the remainder is x,
 * plus TWO_PI when x < 0 (rounded once, as Python rounds it; a negative x
 * so small that the sum rounds to TWO_PI is then snapped to 0). x = -0.0
 * gives -0.0 + 0.0 = +0.0, Python's zero. The addend is a select, which
 * compiles to a blend, because the sign of p - s is random and a branch on
 * it would be mispredicted half the time. */
static inline __attribute__((always_inline)) double wrap(double x)
{
    double r;
    if (fabs(x) < TWO_PI) {
        r = x + (x < 0.0 ? TWO_PI : 0.0);
    } else {
        r = rem(x);
        if (r == 0.0)
            r = copysign(0.0, TWO_PI);
        else if (r < 0.0)
            r += TWO_PI;
    }
    return TWO_PI - r < WRAP_SNAP ? 0.0 : r;
}

/* out[i] = wrap(x[i]), for the tests. */
FMA_CLONES
void wrap_array(const double *x, int64_t n, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = wrap(x[i]);
}

/* Stream n photons through BS1 and, if mzi, BS2. bs1_out[i] and bs2_out[i]
 * are 1 where photon i reflected at that splitter; bs2_out is not written
 * unless mzi. offsets[i] is photon i's initial phase, wrapped here; xi1 and
 * xi2 are the splitters' wrapped initial offsets. */
FMA_CLONES
void run_stream(const double *emissions, const double *offsets, int64_t n,
                double nu_p, double base, double delta,
                double nu1, double a1, double b1, double xi1,
                double nu2, double a2, double b2, double xi2,
                int mzi, int8_t *bs1_out, int8_t *bs2_out)
{
    for (int64_t i = 0; i < n; i++) {
        double t1 = emissions[i] + base;
        double phi = wrap(offsets[i]);
        double p = wrap(nu_p * t1 + phi);
        double s = wrap(nu1 * t1 + xi1);
        double seg = base + delta;
        int first = wrap(p - s) < PI;
        if (first) {
            double p_new = wrap(a1 * p + b1 * s);
            double s_new = wrap(a1 * s + b1 * p);
            phi = wrap(p_new - nu_p * t1);
            xi1 = wrap(s_new - nu1 * t1);
            seg = base;
        }
        bs1_out[i] = (int8_t)first;
        if (!mzi)
            continue;

        double t2 = t1 + seg;
        double p2 = wrap(nu_p * t2 + phi);
        double s2 = wrap(nu2 * t2 + xi2);
        int second = wrap(p2 - s2) < PI;
        /* BS2's register update is computed for every photon and kept by
         * a select: a branch on the random outcome was mispredicted about
         * half the time. At BS1 the branch stays; its update also rebases
         * phi, and computing that for every photon was measured slower. */
        double xi2_new = wrap(wrap(a2 * s2 + b2 * p2) - nu2 * t2);
        xi2 = second ? xi2_new : xi2;
        bs2_out[i] = (int8_t)second;
    }
}
