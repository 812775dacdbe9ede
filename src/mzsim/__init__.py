"""Deterministic-particle simulator of single-photon interference in a
two-beam-splitter interferometer, with a statistics and fitting pipeline.
"""

__version__ = "0.1.0"
