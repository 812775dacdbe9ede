"""The photon source: the emission gaps of a photon stream.

The beam splitters it feeds are stated in the compiled stream loop
(``run_stream`` in ``_kernel.c``, run by :func:`mzsim.experiment.run_mzi`).
"""

from __future__ import annotations

import math

import numpy as np

INTER_ARRIVAL_LAWS = ("exponential", "uniform", "fixed")


def generate_emissions(
    rate: float,
    n: int,
    rng: np.random.Generator,
    law: str = "exponential",
) -> np.ndarray:
    """Emission gaps for ``n`` photons from a source of the given mean rate.

    Gaps between consecutive emissions (the first from time 0) are i.i.d.
    draws with mean ``1/rate``: exponential by default, or ``uniform`` on
    [0, 2/rate], or ``fixed`` at exactly 1/rate. The returned float64 array
    is fully determined by ``rng``'s state; the stream loop sums it into the
    emission times in place (see :func:`mzsim.experiment.run_mzi`).
    """
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"source rate must be finite and > 0, got {rate!r}")
    if n < 0:
        raise ValueError(f"photon count must be >= 0, got {n!r}")
    # standard draws scaled in place: the bits of rng.exponential / rng.uniform, faster
    if law == "exponential":
        gaps, scale = rng.standard_exponential(n), 1.0 / rate
    elif law == "uniform":
        gaps, scale = rng.random(n), 2.0 / rate
    elif law == "fixed":
        return np.full(n, 1.0 / rate)
    else:
        raise ValueError(f"unknown inter-arrival law {law!r}")
    with np.errstate(over="ignore"):  # a gap past the double range is inf; runs refuse it
        gaps *= scale
    return gaps

