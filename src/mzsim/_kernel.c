/* The per-photon stream loop of mzsim.experiment, compiled.
 *
 * This is experiment._run_stream_py statement for statement, on the same
 * IEEE doubles, so its outcomes are bit for bit those of the Python loop.
 * That holds only without -ffast-math and with -ffp-contract=off: a fused
 * multiply-add rounds once where Python rounds twice.
 */
#include <math.h>
#include <stdint.h>

static const double PI = 3.141592653589793;          /* math.pi */
static const double TWO_PI = 2.0 * 3.141592653589793; /* phases.TWO_PI */
static const double WRAP_SNAP = 1e-12;                /* phases.WRAP_SNAP */

/* Python's float x % TWO_PI (fmod, then the sign of the divisor), then the
 * snap of phases.wrap_phase: a value just below TWO_PI becomes 0. */
static double wrap(double x)
{
    double r = fmod(x, TWO_PI);
    if (r == 0.0)
        r = copysign(0.0, TWO_PI);
    else if (r < 0.0)
        r += TWO_PI;
    return TWO_PI - r < WRAP_SNAP ? 0.0 : r;
}

/* Stream n photons through BS1 and, if mzi, BS2. bs1_out[i] and bs2_out[i]
 * are 1 where photon i reflected at that splitter; bs2_out is not written
 * unless mzi. xi1 and xi2 are the splitters' wrapped initial offsets. */
void run_stream(const double *emissions, const double *offsets, int64_t n,
                double nu_p, double base, double delta,
                double nu1, double a1, double b1, double xi1,
                double nu2, double a2, double b2, double xi2,
                int mzi, int8_t *bs1_out, int8_t *bs2_out)
{
    for (int64_t i = 0; i < n; i++) {
        double t1 = emissions[i] + base;
        double p = wrap(nu_p * t1 + offsets[i]);
        double s = wrap(nu1 * t1 + xi1);
        double phi = offsets[i];
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
        if (second)
            xi2 = wrap(wrap(a2 * s2 + b2 * p2) - nu2 * t2);
        bs2_out[i] = (int8_t)second;
    }
}
