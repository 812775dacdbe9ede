"""Statistics over detector counts: binomial intervals, fringe visibility,
sinusoid fitting, and the ideal interferometer reference curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phases import TWO_PI, wrap_phase

_FREQ_SCAN_POINTS = 512
_SCAN_ELEMENTS = 8 * 1024  # bounds the scan's tables and chunk work (see _scan_frequency)
_TABLE_ROWS = 16  # most angle-addition table rows
_MAX_GRAM_COND = 1e5  # scores of worse-conditioned frequencies are re-scored
_MIN_FIT_POINTS = 8
_GN_MAX_ITER = 100
_GN_MAX_HALVINGS = 25
_Z95 = 1.9599639845400536  # two-sided 95% normal quantile, NormalDist().inv_cdf(0.975)


def binomial_ci(successes: int, trials: int) -> tuple[float, float]:
    """Normal-approximation 95% confidence interval ``(lo, hi)`` for a
    binomial proportion: ``p +- z * sqrt(p*(1-p)/n)`` with
    ``p = successes/trials``, clamped to [0, 1].
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, trials], got {successes!r}/{trials!r}")
    p = successes / trials
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials)
    return max(0.0, p - half), min(1.0, p + half)


def visibility(fractions: list[float]) -> float:
    """Fringe contrast (max - min) / (max + min); 0 for an all-zero input."""
    if not len(fractions):
        raise ValueError("visibility needs at least one fraction")
    hi = max(fractions)
    lo = min(fractions)
    if hi + lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


@dataclass(frozen=True)
class SineFit:
    """Least-squares parameters of ``offset + amplitude*sin(w*x + phase)``."""

    amplitude: float
    angular_frequency: float
    phase: float
    offset: float
    r_squared: float
    converged: bool = True


def _frequency_grid(span: float) -> np.ndarray | None:
    """The scanned frequencies, [0.1, 10] times the fundamental 2*pi/span, or
    None when the span is not finite and positive, or so small that the top
    frequency 10 * 2*pi/span overflows."""
    base = TWO_PI / span if 0.0 < span < math.inf else math.inf
    if not 10.0 * base < math.inf:
        return None
    return np.linspace(0.1 * base, 10.0 * base, _FREQ_SCAN_POINTS)


def _trusted_grams(gram: np.ndarray) -> np.ndarray:
    """Which of a stack of symmetric 3x3 Gram matrices have condition number
    at most ``_MAX_GRAM_COND``, tested as trace * (sum of principal 2x2
    minors) / det, which is at least the condition number and at most 9 times
    it. Such a matrix also has det >= (trace/3)**3 / _MAX_GRAM_COND**2, far
    above rounding, so that second test rejects only matrices the first would
    reject in exact arithmetic, such as one of rank 1 whose computed
    determinant and minors are both rounding noise."""
    a, b, c = gram[:, 0, 0], gram[:, 0, 1], gram[:, 0, 2]
    d, e, f = gram[:, 1, 1], gram[:, 1, 2], gram[:, 2, 2]
    minor_a = d * f - e * e
    det = a * minor_a + b * (c * e - b * f) + c * (b * e - c * d)
    minors = minor_a + (a * f - c * c) + (a * d - b * b)
    trace = a + d + f
    floor = trace**3 / (27.0 * _MAX_GRAM_COND**2)
    return det > np.maximum(trace * minors / _MAX_GRAM_COND, floor)


def _double_angle(cos: np.ndarray, sin: np.ndarray,
                  cos2: np.ndarray, half_sin2: np.ndarray) -> None:
    """cos(2a) and sin(2a)/2 from cos(a) and sin(a), written into
    ``cos2`` and ``half_sin2``. They are computed as the square of ``cos +
    i*sin``, so they carry twice the angle those two carry, to a few ulp."""
    np.multiply(cos, cos, out=cos2)
    cos2 -= np.multiply(sin, sin, out=half_sin2)
    np.multiply(sin, cos, out=half_sin2)


def _normal_equations(
    x: np.ndarray, y: np.ndarray, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The 3x3 Gram matrices and right-hand sides of the model
    ``c0 + a*sin(wx) + b*cos(wx)`` at every frequency of ``grid``, stacked:
    step 1 of :func:`_scan_frequency`, which describes how."""
    n = x.size
    rows = max(1, min(_TABLE_ROWS, _SCAN_ELEMENTS // n))
    # block starts per chunk
    width = max(1, min(_SCAN_ELEMENTS // 2, 4 * _SCAN_ELEMENTS // rows) // n)
    chunks = -(-grid.size // (rows * width))
    width = -(-grid.size // (rows * chunks))  # as many chunks, least padding
    starts = grid.take(np.arange(0, chunks * width * rows, rows), mode="clip")

    # cos, sin, cos2 and half_sin2 of m*h*x, m < rows; row 0 is exactly 1, 0, 1, 0
    table = np.empty((4, rows, n))
    h = (grid[-1] - grid[0]) / (grid.size - 1)
    angle = np.multiply.outer(np.arange(rows) * h, x)
    np.cos(angle, out=table[0])
    np.sin(angle, out=table[1])
    _double_angle(*table)
    single, double = table[:2].reshape(2 * rows, n), table[2:].reshape(2 * rows, n)
    # cos and sin of j*rows*h*x, 0 < j < width: a chunk's first start to its j-th
    angle = np.multiply.outer(np.arange(1, width) * (rows * h), x)
    shift_cos, shift_sin = np.cos(angle), np.sin(angle)
    # per chunk: cos, sin, y*cos, y*sin, cos2 and half_sin2 of w_b*x at its block starts
    work = np.empty((6, width, n))
    cos_b, sin_b = work[0], work[1]
    terms, pairs = work[:4].reshape(4 * width, n), work[4:].reshape(2 * width, n)
    sums = np.empty((chunks, 2 * rows, 4 * width))
    sums2 = np.empty((chunks, 2 * rows, 2 * width))
    for chunk, block_starts in enumerate(starts.reshape(chunks, width)):
        angle = np.multiply(block_starts[0], x, out=work[4, 0])
        first_cos, first_sin = np.cos(angle, out=cos_b[0]), np.sin(angle, out=sin_b[0])
        np.multiply(shift_cos, first_cos, out=cos_b[1:])
        cos_b[1:] -= np.multiply(shift_sin, first_sin, out=work[4, 1:])
        np.multiply(shift_cos, first_sin, out=sin_b[1:])
        sin_b[1:] += np.multiply(shift_sin, first_cos, out=work[4, 1:])
        _double_angle(cos_b, sin_b, work[4], work[5])
        np.multiply(terms[: 2 * width], y, out=terms[2 * width :])
        np.matmul(single, terms.T, out=sums[chunk])
        np.matmul(double, pairs.T, out=sums2[chunk])

    def in_grid_order(a: np.ndarray) -> np.ndarray:  # (chunk, m, ..., b) -> (..., frequency)
        a = np.moveaxis(a, (0, 1), (-3, -1))
        return a.reshape(*a.shape[:-3], -1)[..., : grid.size]

    # by angle addition, cos(a + b) = cos a cos b - sin a sin b and
    # sin(a + b) = sin a cos b + cos a sin b, with a = m*h*x and b = w_b*x
    # axes: chunk, (cos, sin) of a, m, (1, y), (cos, sin) of b, b
    p = sums.reshape(chunks, 2, rows, 2, 2, width)
    cos_sum = in_grid_order(p[:, 0, :, :, 0] - p[:, 1, :, :, 1])
    sin_sum = in_grid_order(p[:, 1, :, :, 0] + p[:, 0, :, :, 1])
    # cos 2(a + b) = cos 2a cos 2b - 4 half_sin2(a) half_sin2(b), and
    # sin(a + b)cos(a + b) = half_sin2(a) cos 2b + cos 2a half_sin2(b);
    # axes: chunk, (cos2, half_sin2) of a, m, (cos2, half_sin2) of b, b
    p2 = sums2.reshape(chunks, 2, rows, 2, width)
    cos2_sum = in_grid_order(p2[:, 0, :, 0] - 4.0 * p2[:, 1, :, 1])
    sin_cos_sum = in_grid_order(p2[:, 1, :, 0] + p2[:, 0, :, 1])

    gram = np.empty((grid.size, 3, 3))
    rhs = np.empty((grid.size, 3))
    gram[:, 0, 0] = n
    gram[:, 0, 1] = gram[:, 1, 0] = sin_sum[0]
    gram[:, 0, 2] = gram[:, 2, 0] = cos_sum[0]
    gram[:, 1, 1] = 0.5 * (n - cos2_sum)
    gram[:, 1, 2] = gram[:, 2, 1] = sin_cos_sum
    gram[:, 2, 2] = 0.5 * (n + cos2_sum)
    rhs[:, 0] = y.sum()
    rhs[:, 1] = sin_sum[1]
    rhs[:, 2] = cos_sum[1]
    return gram, rhs


def _scan_frequency(x: np.ndarray, y: np.ndarray, grid: np.ndarray) -> tuple[float, np.ndarray]:
    """Pick the best frequency from ``grid`` (see :func:`_frequency_grid`) by
    linear projection.

    For each candidate w the model ``c0 + a*sin(wx) + b*cos(wx)`` is linear;
    the candidate with the smallest residual seeds the nonlinear refinement.

    The whole grid is ranked first from the 3x3 normal equations, with the
    residual taken as ``y.y - coef.(X^T y)``. That score is exact only up to
    rounding, so the candidates are re-scored with ``lstsq`` in grid order
    and the first smallest residual wins: every frequency scoring within
    ``max(1e-6*|best|, 1e-9*y.y)`` of the best, and every frequency whose
    Gram matrix is too ill-conditioned for its score to be trusted. The pick
    is therefore the one an ``lstsq`` at every grid frequency would make.

    The normal equations' sums come from matrix products. The grid is evenly
    spaced, by h, so for ``w = w_b + m*h`` angle addition gives
    ``cos(wx) = cos(w_b x)cos(mhx) - sin(w_b x)sin(mhx)`` and ``sin(wx) =
    sin(w_b x)cos(mhx) + cos(w_b x)sin(mhx)``. A table of ``cos(mhx)``,
    ``sin(mhx)`` for m < ``rows = min(16, 8192 // x.size)`` is made once per
    fit. The block starts w_b, every ``rows``-th grid point, go in chunks of
    ``width``, and a chunk's starts take their cos and sin from its first
    start's, by angle addition again, with a second table of ``j*rows*h*x``
    for 0 < j < ``width``. One product of the first table with ``cos(w_b x)``,
    ``sin(w_b x)``, ``y*cos(w_b x)`` and ``y*sin(w_b x)`` gives the sums of
    sin, cos, y*sin and y*cos at ``rows * width`` frequencies. The sums of
    sin^2, cos^2 and sin*cos follow from those of cos(2wx) and sin(2wx)/2,
    by a second product of the same form over the double angles (see
    :func:`_double_angle`). A chunk holds ``width = min(4096, 32768 //
    rows) // x.size`` starts (one at the least). While x.size <= 4096, the
    tables take ``(4*rows + 2*width - 2)*x.size`` doubles and a chunk
    ``6*width*x.size``, at most 4, 1 and 3 times ``_SCAN_ELEMENTS``, and
    each product at most ``32*_SCAN_ELEMENTS`` multiply-adds, below the
    size at which OpenBLAS runs a product on a second thread.

    Why that keeps the pick: x runs from 0, as :func:`fit_sine` passes it,
    so T = grid[-1]*max(x) = 20*pi (to rounding) bounds every |wx|; let
    u = 2**-53. Each term of a sum carries the angle t = fl(w_c*x) +
    fl(j*rows*h*x) + fl(mhx), with w_c its chunk's first start: its cos and
    sin are the real and imaginary parts of the product of ``cos + i*sin``
    of the three, each within a few u of unit modulus and of its angle. The
    rounding of those three products, of h and of the grid points each move
    t by a few u*T from the ``fl(w*x)`` that ``lstsq`` sees, so the columns
    sin t, cos t are within d = 10u(T + 1) of the reference's (the most
    seen over 552 random sweeps is 3.4u(T + 1)). The double-angle factors
    are the squares of the single-angle ones, so they carry 2t to a few u,
    and sin^2 t = (1 - cos 2t)/2 and sin t cos t = sin(2t)/2 hold for that
    same t: each Gram and rhs entry is the entry of the columns sin t, cos t
    to a few u per summed term, the order of the rounding of the sums
    themselves. A trusted Gram matrix has trace 2n and condition number at
    most K = ``_MAX_GRAM_COND``, so its coefficients have
    ``|coef| <= |y|*sqrt(3K/2n)``, and moving the sine and cosine columns by
    at most d moves the fitted residual r by at most ``d*|y|*sqrt(3K)`` and
    the score by at most twice |r| times that. The band is at least the
    geometric mean of its two terms, ``10**-7.5*|r||y|``, with r the best
    frequency's residual, so the lstsq pick and the best-scoring frequency,
    each that close to its own score, stay within it while
    ``4d*sqrt(3K) <= 10**-7.5``, that is d <= 1.4e-11. Leaving half of that
    to the rounding of the Gram and rhs entries allows T + 1 <= 6500, and
    T = 20*pi gives d = 7.1e-14, about 100 times below; the doubled angles
    need no bound of their own, as they move with t. Above 4096 rows the
    first table is one row of angle 0, whose cos and sin are exactly 1 and
    0, and the second is empty, so every frequency is a block start and its
    terms are the reference's own ``cos``/``sin(fl(w*x))``.
    """
    gram, rhs = _normal_equations(x, y, grid)
    trusted = _trusted_grams(gram)
    gram[~trusted] = np.eye(3)  # re-scored anyway; keeps solve from raising
    coef = np.linalg.solve(gram, rhs[..., None])[..., 0]
    yy = float(y @ y)
    score = yy - np.einsum("ij,ij->i", coef, rhs)
    best_score = float(np.min(score, where=trusted, initial=math.inf))
    limit = best_score + max(1e-6 * abs(best_score), 1e-9 * yy)

    best_sse = math.inf
    best: tuple[float, np.ndarray] | None = None
    ones = np.ones_like(x)
    for w in grid[~trusted | ~(score > limit)]:
        design = np.column_stack([ones, np.sin(w * x), np.cos(w * x)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        sse = float(resid @ resid)
        if sse < best_sse:
            best_sse = sse
            best = (float(w), coef)
    assert best is not None
    return best


def fit_sine(deltas: list[float], fractions: list[float]) -> SineFit | None:
    """Fit ``offset + amplitude*sin(w*delta + phase)`` to a sweep's two
    columns by damped Gauss-Newton, or None for a sweep that cannot be
    fitted: fewer than 8 points (an empty sweep among them), or deltas all
    equal or not all finite, whose span max - min has no finite frequency
    grid (see :func:`_frequency_grid`). Columns not 1-D and of one length raise.

    The frequency is initialised from a discrete scan of candidate
    frequencies (see :func:`_scan_frequency`), then all four parameters are
    refined with Gauss-Newton steps, halving the step whenever it fails to
    reduce the residual. If the iteration cap is reached the best parameters
    found are returned with ``converged=False``.

    Both steps work on the deltas measured from the smallest one, so that
    every ``|w*x|`` the scan forms is at most 20*pi; the phase is referred
    back to delta 0 at the end.
    """
    x = np.asarray(deltas, dtype=float)
    y = np.asarray(fractions, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"deltas, fractions must be 1-D and of one length, got {x.shape}, {y.shape}")
    if x.size < _MIN_FIT_POINTS:
        return None
    x0 = float(x.min())
    grid = _frequency_grid(float(x.max()) - x0)
    if grid is None:
        return None
    x = x - x0

    w, coef = _scan_frequency(x, y, grid)
    c0, a, b = (float(v) for v in coef)

    def sse_of(c0: float, a: float, b: float, w: float) -> tuple[float, np.ndarray]:
        resid = y - (c0 + a * np.sin(w * x) + b * np.cos(w * x))
        return float(resid @ resid), resid

    sse, resid = sse_of(c0, a, b, w)
    converged = False
    for _ in range(_GN_MAX_ITER):
        sin_wx = np.sin(w * x)
        cos_wx = np.cos(w * x)
        jac = np.column_stack(
            [np.ones_like(x), sin_wx, cos_wx, x * (a * cos_wx - b * sin_wx)]
        )
        step = np.linalg.lstsq(jac, resid, rcond=None)[0].tolist()
        scale = 1.0
        improved = False
        for _ in range(_GN_MAX_HALVINGS):
            trial = (c0 + scale * step[0], a + scale * step[1],
                     b + scale * step[2], w + scale * step[3])
            trial_sse, trial_resid = sse_of(*trial)
            if trial_sse <= sse:
                improved = trial_sse < sse - 1e-15 * max(sse, 1.0)
                c0, a, b, w = trial
                sse, resid = trial_sse, trial_resid
                break
            scale *= 0.5
        if not improved:
            converged = True
            break

    if w < 0.0:
        w, a = -w, -a
    amplitude = math.hypot(a, b)
    phase = wrap_phase(math.atan2(b, a) - w * x0) if amplitude > 0.0 else 0.0
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot > 0.0:
        r_squared = 1.0 - sse / ss_tot
    else:
        r_squared = 1.0 if sse <= 1e-18 else -math.inf
    return SineFit(amplitude, w, phase, c0, r_squared, converged)


def qm_reference(delta: float, nu: float) -> float:
    """Ideal one-output interferometer probability cos^2(nu*delta/2)."""
    return math.cos(0.5 * nu * delta) ** 2


@dataclass(frozen=True)
class QmComparison:
    """Side-by-side of a simulated sweep and the ideal reference curve.

    The simulated model is expected to sit well below the ideal visibility
    of 1.0; the gap is a property of the model, not a defect of the run.
    """

    residuals: tuple[float, ...]
    model_visibility: float
    fitted_period: float | None
    ideal_period: float


def compare_to_qm(deltas: list[float], fractions: list[float], nu: float) -> QmComparison:
    """Compare a sweep's D1 fractions against the ideal curve.

    Residuals are fraction - cos^2(nu*delta/2) per point. When the sweep has
    enough points the fitted fringe period is reported next to the ideal
    2*pi/nu.
    """
    residuals = tuple(f - qm_reference(d, nu) for d, f in zip(deltas, fractions))
    fitted_period = None
    fit = fit_sine(deltas, fractions)
    if fit is not None and fit.angular_frequency > 0.0:
        fitted_period = TWO_PI / fit.angular_frequency
    return QmComparison(residuals, visibility(fractions), fitted_period, TWO_PI / nu)
