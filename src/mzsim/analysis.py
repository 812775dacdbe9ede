"""Statistics over detector counts: binomial intervals, fringe visibility,
sinusoid fitting, and the ideal interferometer reference curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .phases import TWO_PI, wrap_phase

_FREQ_SCAN_POINTS = 512
_SCAN_ELEMENTS = 8 * 1024  # doubles per scan work array (five): 8 frequencies at 1024 rows
_MAX_ADDED_ANGLE = 2.0**12  # largest |w*x| whose sines come by angle addition
_MAX_GRAM_COND = 1e5  # scores of worse-conditioned frequencies are re-scored
_MIN_FIT_POINTS = 8
_GN_MAX_ITER = 100
_GN_MAX_HALVINGS = 25
_Z95 = NormalDist().inv_cdf(0.5 + 0.95 / 2.0)  # two-sided 95% standard normal quantile


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


def _scan_frequency(x: np.ndarray, y: np.ndarray, grid: np.ndarray) -> tuple[float, np.ndarray]:
    """Pick the best frequency from ``grid`` (see :func:`_frequency_grid`) by
    linear projection.

    For each candidate w the model ``c0 + a*sin(wx) + b*cos(wx)`` is linear;
    the candidate with the smallest residual seeds the nonlinear refinement.

    The whole grid is ranked first from the 3x3 normal equations, with the
    residual taken as ``y.y - coef.(X^T y)``, in blocks of
    ``step = _SCAN_ELEMENTS // rows`` frequencies (one at the least), held in
    five work arrays of ``step`` rows. That score is exact only up to
    rounding, so the candidates are re-scored with ``lstsq`` in grid order
    and the first smallest residual wins: every frequency scoring within
    ``max(1e-6*|best|, 1e-9*y.y)`` of the best, and every frequency whose
    Gram matrix is too ill-conditioned for its score to be trusted. The pick
    is therefore the one an ``lstsq`` at every grid frequency would make.

    The grid is evenly spaced, by h, so for ``w = grid[start] + m*h`` angle
    addition gives ``sin(wx) = sin(grid[start]*x)*cos(mhx) +
    cos(grid[start]*x)*sin(mhx)``, and the cosine likewise. The table of
    ``sin(mhx)``, ``cos(mhx)`` for ``m < step`` is evaluated once per fit,
    and each block evaluates only its first frequency.

    Why that keeps the pick: let T = grid[-1]*max|x| bound every |wx|, and
    u = 2**-53. The rounding of grid[start]*x, of mhx and of the grid points
    each move an angle by a few u*T, and the table, the first row and the
    sum add a few u, so each entry is within d = 10u(T + 1) of the
    ``np.sin(fl(w*x))`` that ``lstsq`` sees (the most seen over random
    sweeps is 4u(T + 1)). A trusted Gram matrix has trace 2n and condition number at
    most K = ``_MAX_GRAM_COND``, so its coefficients have
    ``|coef| <= |y|*sqrt(3K/2n)``, and moving the sine and cosine columns by
    at most d moves the fitted residual r by at most ``d*|y|*sqrt(3K)`` and
    the score by at most twice |r| times that. The band is at least the
    geometric mean of its two terms, ``10**-7.5*|r||y|``, with r the best
    frequency's residual, so the lstsq pick and the best-scoring frequency,
    each that close to its own score, stay within it while
    ``4d*sqrt(3K) <= 10**-7.5``, that is d <= 1.4e-11. Leaving half of
    that to the normal equations' own rounding gives T + 1 <= 6500, and
    ``_MAX_ADDED_ANGLE`` is the power of two below. Above it (a span far
    from delta 0) every block's sines are evaluated directly, as
    ``np.sin(fl(w*x))``, whose rounding is the reference's own.
    """
    gram = np.empty((grid.size, 3, 3))
    rhs = np.empty((grid.size, 3))
    gram[:, 0, 0] = x.size
    rhs[:, 0] = y.sum()
    step = max(1, _SCAN_ELEMENTS // x.size)
    sin_wx, cos_wx, work, sin_mhx, cos_mhx = np.empty((5, step, x.size))
    by_addition = grid[-1] * float(np.abs(x).max()) <= _MAX_ADDED_ANGLE
    if by_addition:
        h = (grid[-1] - grid[0]) / (grid.size - 1)
        np.multiply.outer(np.arange(step) * h, x, out=work)
        np.sin(work, out=sin_mhx)
        np.cos(work, out=cos_mhx)
    for start in range(0, grid.size, step):
        k = min(step, grid.size - start)
        block = slice(start, start + k)
        s, c, t = sin_wx[:k], cos_wx[:k], work[:k]
        if by_addition:
            first = grid[start] * x
            sin_first = np.sin(first)
            cos_first = np.cos(first)
            np.multiply(cos_mhx[:k], sin_first, out=s)
            np.multiply(sin_mhx[:k], cos_first, out=t)
            s += t
            np.multiply(cos_mhx[:k], cos_first, out=c)
            np.multiply(sin_mhx[:k], sin_first, out=t)
            c -= t
        else:
            np.multiply.outer(grid[block], x, out=t)
            np.sin(t, out=s)
            np.cos(t, out=c)
        g = gram[block]
        g[:, 0, 1] = g[:, 1, 0] = s.sum(axis=1)
        g[:, 0, 2] = g[:, 2, 0] = c.sum(axis=1)
        g[:, 1, 1] = np.einsum("ij,ij->i", s, s)
        g[:, 1, 2] = g[:, 2, 1] = np.einsum("ij,ij->i", s, c)
        g[:, 2, 2] = np.einsum("ij,ij->i", c, c)
        rhs[block, 1] = s @ y
        rhs[block, 2] = c @ y
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


def fit_sine(points: "list[tuple[float, float]] | np.ndarray") -> SineFit | None:
    """Fit ``offset + amplitude*sin(w*delta + phase)`` by damped Gauss-Newton,
    or None for a sweep that cannot be fitted: fewer than 8 points (an empty
    sweep among them), fewer than 2 distinct deltas, or a span max - min
    with no finite frequency grid (see :func:`_frequency_grid`).

    The frequency is initialised from a discrete scan of candidate
    frequencies (see :func:`_scan_frequency`), then all four parameters are
    refined with Gauss-Newton steps, halving the step whenever it fails to
    reduce the residual. If the iteration cap is reached the best parameters
    found are returned with ``converged=False``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape == (0,):  # an empty sweep, which has no pair to give its shape
        return None
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be a sequence of (delta, fraction) pairs")
    x = pts[:, 0]
    y = pts[:, 1]
    if x.size < _MIN_FIT_POINTS or np.unique(x).size < 2:
        return None
    grid = _frequency_grid(float(x.max()) - float(x.min()))
    if grid is None:
        return None

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
        step, *_ = np.linalg.lstsq(jac, resid, rcond=None)
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
    phase = wrap_phase(math.atan2(b, a)) if amplitude > 0.0 else 0.0
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
    fit = fit_sine(list(zip(deltas, fractions)))
    if fit is not None and fit.angular_frequency > 0.0:
        fitted_period = TWO_PI / fit.angular_frequency
    return QmComparison(residuals, visibility(fractions), fitted_period, TWO_PI / nu)
