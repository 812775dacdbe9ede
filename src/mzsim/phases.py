"""Wrapped-phase arithmetic.

All angles are radians reduced into the half-open interval [0, 2*pi);
time is in natural units (propagation speed 1 elsewhere in the package).
"""

from __future__ import annotations

import math

TWO_PI = 2.0 * math.pi

# A wrapped value this close below 2*pi collapses to 0.0 so the canonical
# interval stays genuinely half-open (float modulo can land on the boundary).
WRAP_SNAP = 1e-12


def wrap_phase(theta: float) -> float:
    """Reduce an angle in radians into [0, 2*pi)."""
    if not math.isfinite(theta):
        raise ValueError(f"phase must be finite, got {theta!r}")
    value = theta % TWO_PI
    if TWO_PI - value < WRAP_SNAP:
        return 0.0
    return value
