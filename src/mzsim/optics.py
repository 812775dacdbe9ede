"""Apparatus elements: the photon source and the beam-splitter rule.

A beam splitter here is not a probabilistic 50/50 element: it routes each
photon deterministically by comparing the photon's instantaneous phase with
its own, and a reflection feeds back into the splitter's phase, so the
apparatus keeps a record of the photons it reflected. :func:`interact` is
the reference statement of that rule.
"""

from __future__ import annotations

import math

import numpy as np

from .phases import wrap_phase

INTER_ARRIVAL_LAWS = ("exponential", "uniform", "fixed")


def generate_emissions(
    rate: float,
    n: int,
    rng: np.random.Generator,
    law: str = "exponential",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Emission gaps for ``n`` photons from a source of the given mean rate.

    Gaps between consecutive emissions (the first from time 0) are i.i.d.
    draws with mean ``1/rate``: exponential by default, or ``uniform`` on
    [0, 2/rate], or ``fixed`` at exactly 1/rate. The returned float64 array
    is fully determined by ``rng``'s state; the stream loop sums it into the
    emission times in place (see :func:`mzsim.experiment.run_mzi`). Given
    ``out``, a C-contiguous float64 array of length ``n``, the gaps are
    written there and ``out`` is returned; the bytes and ``rng``'s end
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
        out.fill(1.0 / rate)
        return out
    else:
        raise ValueError(f"unknown inter-arrival law {law!r}")
    with np.errstate(over="ignore"):  # a gap past the double range is inf; runs refuse it
        out *= scale
    return out


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
