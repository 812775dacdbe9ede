"""Apparatus elements: the photon source, the beam-splitter rule, and
detector counters.

A beam splitter here is not a probabilistic 50/50 element: it routes each
photon deterministically by comparing the photon's instantaneous phase with
its own, and a reflection feeds back into the splitter's phase, so the
apparatus keeps a record of the photons it reflected. :func:`interact` is
the reference statement of that rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phases import wrap_phase

INTER_ARRIVAL_LAWS = ("exponential", "uniform", "fixed")


@dataclass(frozen=True)
class DetectorCounts:
    d1: int
    d2: int

    @property
    def total(self) -> int:
        return self.d1 + self.d2

    @property
    def d1_fraction(self) -> float:
        return self.d1 / self.total


def generate_emissions(
    rate: float,
    n: int,
    rng: np.random.Generator,
    law: str = "exponential",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Emission times for ``n`` photons from a source of the given mean rate.

    Gaps between consecutive emissions are i.i.d. draws with mean ``1/rate``:
    exponential by default, or ``uniform`` on [0, 2/rate], or ``fixed`` at
    exactly 1/rate. The returned float64 array (the cumulative sum of the
    gaps) is strictly increasing and fully determined by ``rng``'s state.
    Given ``out``, a C-contiguous float64 array of length ``n``, the times
    are written there and ``out`` is returned; the bytes and ``rng``'s end
    state are the same as without it.
    """
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"source rate must be finite and > 0, got {rate!r}")
    if n < 0:
        raise ValueError(f"photon count must be >= 0, got {n!r}")
    if out is None:
        out = np.empty(n)
    elif out.dtype != np.float64 or out.shape != (n,) or not out.flags.c_contiguous:
        raise ValueError(
            f"out must be a C-contiguous float64 array of shape ({n},), "
            f"got {out.dtype} of shape {out.shape}"
        )
    # standard draws scaled in place: the bits of rng.exponential / rng.uniform, faster
    if law == "exponential":
        rng.standard_exponential(out=out)
        scale = 1.0 / rate
    elif law == "uniform":
        rng.random(out=out)
        scale = 2.0 / rate
    elif law == "fixed":
        out.fill(1.0)
        scale = 1.0 / rate
    else:
        raise ValueError(f"unknown inter-arrival law {law!r}")
    with np.errstate(over="ignore"):  # a time past the double range is inf; runs refuse it
        out *= scale
        return np.cumsum(out, out=out)


def interact(p: float, s: float, alpha: float, beta: float) -> tuple[bool, float, float]:
    """One photon/splitter interaction: ``(reflected, p_new, s_new)``.

    ``p`` and ``s`` are the photon's and the splitter's wrapped phases at the
    interaction time. The photon reflects iff wrap(p - s) < pi; a reflection
    replaces both phases with ``p' = wrap(alpha*p + beta*s)`` and
    ``s' = wrap(alpha*s + beta*p)``, a transmission returns them unchanged.
    ``(alpha, beta) = (1, 0)`` makes the update the identity, which disables
    the splitter's memory entirely.
    """
    if wrap_phase(p - s) >= math.pi:
        return False, p, s
    return True, wrap_phase(alpha * p + beta * s), wrap_phase(alpha * s + beta * p)
