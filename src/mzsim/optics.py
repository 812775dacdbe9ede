"""The photon source: the emission gaps of a photon stream.

The beam splitters it feeds are stated in the compiled stream loop
(``run_stream`` in ``_kernel.c``, run by :func:`mzsim.experiment.run_mzi`).
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig


def generate_emissions(config: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    """Emission gaps for the ``photon_count`` photons of ``config``'s source.

    Gaps between consecutive emissions (the first from time 0) are i.i.d.
    draws with mean ``1/source_rate``, by the ``inter_arrival_law``:
    exponential, or uniform on [0, 2/source_rate], or fixed at exactly
    1/source_rate. A config is checked when built, so its rate, count and
    law need no check here. The returned float64 array is fully determined
    by ``rng``'s state; the stream loop sums it into the emission times in
    place (see :func:`mzsim.experiment.run_mzi`).
    """
    n, rate, law = config.photon_count, config.source_rate, config.inter_arrival_law
    if law == "fixed":
        return np.full(n, 1.0 / rate)
    # standard draws scaled in place: the bits of rng.exponential / rng.uniform, faster
    if law == "exponential":
        gaps, scale = rng.standard_exponential(n), 1.0 / rate
    else:
        gaps, scale = rng.random(n), 2.0 / rate
    with np.errstate(over="ignore"):  # a gap past the double range is inf; runs refuse it
        gaps *= scale
    return gaps
