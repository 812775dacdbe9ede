import math
import tracemalloc
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import analysis
from mzsim.analysis import (
    _frequency_grid,
    _scan_frequency,
    binomial_ci,
    compare_to_qm,
    fit_sine,
    qm_reference,
    visibility,
)
from mzsim.phases import TWO_PI

Z_975 = 1.9599639845400536  # standard normal 97.5% quantile


# ---------------------------------------------------------------------------
# binomial_ci


def test_ci_degenerate_zero():
    lo, _ = binomial_ci(0, 50)
    assert lo == 0.0


def test_ci_degenerate_full():
    _, hi = binomial_ci(50, 50)
    assert hi == 1.0


def test_ci_half_at_1e5():
    # oracle: direct formula with the frozen quantile
    lo, hi = binomial_ci(50_000, 100_000)
    half = Z_975 * math.sqrt(0.25 / 100_000)
    assert lo == pytest.approx(0.5 - half, abs=1e-12)
    assert hi == pytest.approx(0.5 + half, abs=1e-12)
    assert round(lo, 4) == 0.4969
    assert round(hi, 4) == 0.5031


def test_ci_width_shrinks_like_inverse_sqrt_n():
    narrow_lo, narrow_hi = binomial_ci(120_000, 400_000)
    wide_lo, wide_hi = binomial_ci(30_000, 100_000)
    assert (narrow_hi - narrow_lo) == pytest.approx((wide_hi - wide_lo) / 2, abs=1e-12)


def test_ci_rejects_bad_arguments():
    with pytest.raises(ValueError):
        binomial_ci(1, 0)
    with pytest.raises(ValueError):
        binomial_ci(5, 4)
    with pytest.raises(ValueError):
        binomial_ci(-1, 4)


@pytest.mark.parametrize("confidence", [0.95])
def test_ci_matches_the_uncached_quantile(confidence):
    for successes, trials in [(0, 7), (3, 7), (50_000, 100_000), (99_999, 100_000)]:
        p = successes / trials
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        half = z * math.sqrt(p * (1.0 - p) / trials)
        assert binomial_ci(successes, trials) == (max(0.0, p - half), min(1.0, p + half))


# ---------------------------------------------------------------------------
# visibility


def test_visibility_cases():
    assert visibility([0.5, 0.5]) == 0.0
    assert visibility([0.25, 0.75]) == 0.5
    assert visibility([0.0, 1.0]) == 1.0
    assert visibility([0.0, 0.0]) == 0.0


def test_visibility_rejects_empty():
    with pytest.raises(ValueError):
        visibility([])


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_visibility_bounded_and_permutation_invariant(fractions):
    v = visibility(fractions)
    assert 0.0 <= v <= 1.0
    assert visibility(list(reversed(fractions))) == v


# ---------------------------------------------------------------------------
# fit_sine


def synth(amplitude, omega, phase, offset, n=50, span=2 * TWO_PI):
    x = np.linspace(0.0, span, n)
    y = offset + amplitude * np.sin(omega * x + phase)
    return x, y


def test_fit_recovers_noiseless_sine():
    x, y = synth(0.25, 1.0, 0.3, 0.5)
    fit = fit_sine(list(zip(x, y)))
    assert fit.amplitude == pytest.approx(0.25, abs=1e-6)
    assert fit.angular_frequency == pytest.approx(1.0, abs=1e-6)
    assert fit.phase == pytest.approx(0.3, abs=1e-6)
    assert fit.offset == pytest.approx(0.5, abs=1e-6)
    assert fit.r_squared >= 1.0 - 1e-9
    assert fit.converged


def test_fit_constant_data_has_no_amplitude():
    x = np.linspace(0.0, 10.0, 50)
    fit = fit_sine(list(zip(x, np.full(50, 0.5))))
    assert fit.amplitude <= 1e-9
    assert fit.offset == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == 1.0


def test_fit_survives_noise():
    rng = np.random.default_rng(5)
    x, y = synth(0.25, 1.0, 0.3, 0.5)
    noisy = y + rng.normal(0.0, 0.01, y.size)
    fit = fit_sine(list(zip(x, noisy)))
    assert abs(fit.amplitude - 0.25) <= 0.025  # within 10% of truth


def test_fit_amplitude_is_non_negative():
    x, y = synth(-0.25, 1.0, 0.0, 0.5)  # negative amplitude folds into phase
    fit = fit_sine(list(zip(x, y)))
    assert fit.amplitude == pytest.approx(0.25, abs=1e-6)
    assert fit.phase == pytest.approx(math.pi, abs=1e-6)


def test_fit_r_squared_matches_independent_recomputation():
    rng = np.random.default_rng(9)
    x, y = synth(0.2, 1.3, 1.1, 0.45)
    noisy = y + rng.normal(0.0, 0.02, y.size)
    fit = fit_sine(list(zip(x, noisy)))
    predicted = fit.offset + fit.amplitude * np.sin(fit.angular_frequency * x + fit.phase)
    ss_res = float(((noisy - predicted) ** 2).sum())
    ss_tot = float(((noisy - noisy.mean()) ** 2).sum())
    assert fit.r_squared == pytest.approx(1.0 - ss_res / ss_tot, abs=1e-9)


def test_fit_rejects_too_few_points():
    assert fit_sine([(0.0, 0.1), (1.0, 0.2), (2.0, 0.3)]) is None
    assert fit_sine([]) is None
    for not_pairs in ([0.0, 0.1], np.empty((0, 3))):
        with pytest.raises(ValueError, match="pairs"):
            fit_sine(not_pairs)


def test_fit_rejects_degenerate_deltas():
    assert fit_sine([(1.0, 0.1)] * 10) is None


@pytest.mark.parametrize("low, high", [(0.0, 5e-324), (-1e308, 1e308), (0.0, 1e-307)])
def test_fit_rejects_a_span_with_no_finite_frequency_grid(low, high):
    assert fit_sine([(d, 0.1 * i) for i, d in enumerate([low, high] * 4)]) is None


# ---------------------------------------------------------------------------
# frequency scan


def reference_scan(x, y):
    """The scan as one ``lstsq`` per grid frequency, first smallest residual
    winning: the result ``_scan_frequency`` must reproduce bit for bit."""
    span = float(x.max() - x.min())
    base = TWO_PI / span
    best_sse = math.inf
    best = None
    ones = np.ones_like(x)
    for w in np.linspace(0.1 * base, 10.0 * base, 512):
        design = np.column_stack([ones, np.sin(w * x), np.cos(w * x)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        sse = float(resid @ resid)
        if sse < best_sse:
            best_sse = sse
            best = (float(w), coef)
    return best


def scan(x, y):
    return _scan_frequency(x, y, _frequency_grid(float(x.max()) - float(x.min())))


def assert_scan_matches_reference(x, y):
    w, coef = scan(x, y)
    ref_w, ref_coef = reference_scan(x, y)
    assert w == ref_w
    assert np.array_equal(coef, ref_coef)


@st.composite
def scan_inputs(draw):
    n = draw(st.integers(8, 1200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spacing = draw(st.sampled_from(["even", "uneven", "shifted", "repeated-even", "repeated-uneven"]))
    if spacing == "even":
        x = np.linspace(0.0, rng.uniform(0.5, 30.0), n)
    elif spacing == "uneven":
        x = np.sort(rng.uniform(-5.0, 20.0, n))
    elif spacing == "shifted":  # 1 to 1e6 spans from delta 0: both sides of _MAX_ADDED_ANGLE
        span = rng.uniform(0.5, 30.0)
        shift = span * 10.0 ** rng.uniform(0.0, 6.0) * rng.choice([-1.0, 1.0])
        x = shift + np.sort(rng.uniform(0.0, span, n))
    else:  # down to 2 distinct deltas, where every Gram matrix is singular
        k = draw(st.integers(2, 6))
        if spacing == "repeated-even":
            levels = np.linspace(0.0, float(rng.integers(1, 12)), k)
        else:
            levels = rng.uniform(-5.0, 20.0, k)
        x = levels[np.arange(n) % k]
    shape = draw(st.sampled_from(["sine", "flat", "quantised"]))
    if shape == "flat":
        y = np.full(n, rng.uniform(0.0, 1.0))
    else:
        y = 0.5 + rng.uniform(0.0, 0.5) * np.sin(rng.uniform(0.1, 5.0) * x + rng.uniform(0.0, TWO_PI))
        y = y + rng.normal(0.0, draw(st.floats(0.0, 0.3)), n)
        if shape == "quantised":
            y = np.round(y, 1)
    return x, y


@settings(max_examples=60, deadline=None)
@given(scan_inputs())
def test_scan_matches_one_lstsq_per_frequency(inputs):
    assert_scan_matches_reference(*inputs)


@pytest.mark.parametrize(
    "x, y",
    [
        # At the top grid frequency w*1.75 = 5*pi, so the five deltas land on
        # two points of the circle and the Gram matrix is singular up to
        # rounding; ranked by its normal-equations score it would wrongly win.
        ([0.0, 1.75, 3.5, 5.25, 7.0, 0.0, 1.75, 3.5], [0.2, 0.2, 0.8, 0.9, 0.3, 0.8, 0.9, 0.5]),
        # With two deltas every Gram matrix is singular, and at the top grid
        # frequency (w*span = 20*pi) it has rank 1: its determinant is
        # rounding noise that a condition-number test alone would pass.
        ([-2.79, -2.47] * 4, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]),
    ],
    ids=["aliased-deltas", "two-deltas"],
)
def test_scan_rescores_frequencies_whose_gram_is_ill_conditioned(x, y):
    assert_scan_matches_reference(np.array(x), np.array(y))


@pytest.mark.parametrize("spans", [1e3, 1e12])
def test_scan_matches_reference_far_from_delta_zero(spans):
    # Every |w*x| here is above _MAX_ADDED_ANGLE, so the sines are evaluated
    # directly: built by angle addition instead, they miss the reference's
    # pick on some of these draws at 1e12 spans.
    span = 2.5
    x = spans * span + np.linspace(0.0, span, 200)
    assert x.max() * analysis._frequency_grid(span).max() > analysis._MAX_ADDED_ANGLE
    rng = np.random.default_rng(1811)
    for _ in range(40):
        phase = TWO_PI * (x - x[0]) / span * rng.uniform(0.2, 5.0) + rng.uniform(0.0, TWO_PI)
        y = 0.5 + 0.25 * np.sin(phase) + rng.normal(0.0, 0.05, x.size)
        assert_scan_matches_reference(x, y)


@pytest.mark.parametrize("rows", [50, 600, 1000, 5000])
def test_scan_memory_is_bounded(rows):
    # The bound, 768 KiB: evaluating every block's sines directly, with
    # blocks of 16384 // rows frequencies, peaked at 540-690 KiB over these
    # sizes; the five work arrays of _SCAN_ELEMENTS doubles are 320 KiB; a
    # scan stacking all blocks into one matrix product peaked at 4.1 MiB at
    # 1000 rows.
    x = np.linspace(0.0, 2 * TWO_PI, rows)
    y = 0.5 + 0.25 * np.sin(x + 0.3) + np.random.default_rng(rows).normal(0.0, 0.01, rows)
    scan(x, y)
    tracemalloc.start()
    try:
        scan(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 768 * 1024


# ---------------------------------------------------------------------------
# qm_reference and comparison


def test_qm_reference_cases():
    assert qm_reference(0.0, 1.0) == 1.0
    assert qm_reference(math.pi, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert qm_reference(math.pi / 2, 1.0) == pytest.approx(0.5, abs=1e-12)


@given(delta=st.floats(0.0, 100.0), nu=st.floats(0.1, 10.0))
def test_qm_reference_identity(delta, nu):
    value = qm_reference(delta, nu)
    assert 0.0 <= value <= 1.0
    assert value + math.sin(0.5 * nu * delta) ** 2 == pytest.approx(1.0, abs=1e-12)


def fabricated_sweep(deltas, fractions):
    """``(deltas, fractions)`` as a sweep would report them, with each
    fraction derived from counts. d1/(d1+d2) is exactly f: a float is a ratio
    of integers, and int/int division rounds correctly."""
    counts = [(r.numerator, r.denominator - r.numerator) for r in map(Fraction, fractions)]
    return deltas, [d1 / (d1 + d2) for d1, d2 in counts]


def test_compare_to_qm_zero_residuals_for_ideal_sweep():
    deltas = np.linspace(0.0, TWO_PI, 16).tolist()
    fractions = [qm_reference(d, 1.0) for d in deltas]
    report = compare_to_qm(*fabricated_sweep(deltas, fractions), 1.0)
    assert all(r == 0.0 for r in report.residuals)
    assert report.ideal_period == pytest.approx(TWO_PI)


def test_compare_to_qm_flat_sweep_has_unit_gap():
    deltas = np.linspace(0.0, TWO_PI, 16).tolist()
    report = compare_to_qm(*fabricated_sweep(deltas, [0.5] * 16), 1.0)
    assert report.model_visibility == 0.0


def test_compare_to_qm_skips_fit_for_tiny_sweeps():
    report = compare_to_qm(*fabricated_sweep([0.0, 1.0], [0.5, 0.6]), 1.0)
    assert report.fitted_period is None
    with pytest.raises(ValueError, match="needs at least one fraction"):
        compare_to_qm([], [], 1.0)


def test_compare_to_qm_recovers_fringe_period():
    deltas = np.linspace(0.0, 2 * TWO_PI, 40)
    fractions = 0.5 + 0.2 * np.sin(deltas + 0.4)
    report = compare_to_qm(*fabricated_sweep(deltas.tolist(), fractions.tolist()), 1.0)
    assert report.fitted_period == pytest.approx(TWO_PI, rel=1e-3)
