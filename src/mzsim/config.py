"""Experiment configuration: dataclasses checked when built, loading from JSON.

The defaults below are the pinned reference setup used throughout the test
suite: unit particle frequency; first splitter oscillating at the particle
frequency, second splitter a zero-frequency phase register; gentle
(0.94, 0.06) reflection updates on both; source rate 20 (fast enough that
the second splitter's register can track the slow emission-time phase
drift); exponential inter-arrivals; uniformly random initial photon phases;
1e5 photons; master seed 42.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, fields

INTER_ARRIVAL_LAWS = ("exponential", "uniform", "fixed")
MAX_SEED = 2**64 - 1
MAX_PHOTONS = 2**63 - 1  # the stream loop takes its photon count as an int64_t
_SHOWN = 32  # longest field an error message shows whole; a double's repr fits


class ConfigError(ValueError):
    """Unreadable, unparseable, or invalid experiment configuration."""


def _brief(text: str) -> str:
    """``text``, or its first characters and its length if it is longer than
    ``_SHOWN``, so that an error line about a field stays one short line."""
    if len(text) <= _SHOWN:
        return text
    return f"{text[:16]}... ({len(text)} characters)"


def _invalid(field: str, rule: str, value: object) -> ConfigError:
    """The error for a field whose value breaks its rule; the value is shown
    in brief."""
    return ConfigError(f"{field} must be {rule}, got {_brief(repr(value))}")


def _finite(value: object) -> bool:
    """A finite real number; JSON ``true``/``false``, strings and null are not."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _integer(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SplitterConfig:
    frequency: float = 0.0
    initial_offset: float = 0.0
    update_alpha: float = 0.94
    update_beta: float = 0.06


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's setup. An instance is always valid: every build, including
    ``dataclasses.replace``, runs the checks in ``__post_init__``, which
    raise a :class:`ConfigError` naming the offending field. They bound
    ``photon_count`` by :data:`MAX_PHOTONS`, and each frequency times the
    longest path, ``2*base_path_length + delta``, which bounds every path a
    run forms (:meth:`check_phase_range`); only the last emission time is
    left for the run to check (see :func:`mzsim.experiment.run_mzi`)."""

    photon_count: int = 100_000
    source_rate: float = 20.0
    inter_arrival_law: str = "exponential"
    particle_frequency: float = 1.0
    # None draws each photon's initial phase uniformly from [0, 2*pi);
    # a number fixes it for every photon.
    particle_initial_phase: float | None = None
    bs1: SplitterConfig = SplitterConfig(frequency=1.0)
    bs2: SplitterConfig = SplitterConfig()
    base_path_length: float = 1.0
    delta: float = 0.0
    master_seed: int = 42

    def __post_init__(self) -> None:
        if not _integer(self.photon_count) or not 1 <= self.photon_count <= MAX_PHOTONS:
            raise _invalid("photon_count", "an integer in [1, 2**63)", self.photon_count)
        if not (_finite(self.source_rate) and self.source_rate > 0.0):
            raise _invalid("source_rate", "finite and > 0", self.source_rate)
        if self.inter_arrival_law not in INTER_ARRIVAL_LAWS:
            raise _invalid("inter_arrival_law", f"one of {INTER_ARRIVAL_LAWS}",
                           self.inter_arrival_law)
        if not (_finite(self.particle_frequency) and self.particle_frequency > 0.0):
            raise _invalid("particle_frequency", "finite and > 0", self.particle_frequency)
        if self.particle_initial_phase is not None and not _finite(
            self.particle_initial_phase
        ):
            raise _invalid("particle_initial_phase", "finite or null",
                           self.particle_initial_phase)
        for name, sp in (("bs1", self.bs1), ("bs2", self.bs2)):
            if not (_finite(sp.frequency) and sp.frequency >= 0.0):
                raise _invalid(f"{name}.frequency", "finite and >= 0", sp.frequency)
            if not _finite(sp.initial_offset):
                raise _invalid(f"{name}.initial_offset", "finite", sp.initial_offset)
            if not (_finite(sp.update_alpha) and _finite(sp.update_beta)):
                raise ConfigError(f"{name} update coefficients must be finite")
            # bounds alpha*p + beta*s over phases in [0, 2*pi)
            if not math.isfinite((abs(sp.update_alpha) + abs(sp.update_beta)) * 2.0 * math.pi):
                raise ConfigError(f"{name} update coefficients overflow a phase update")
        if not (_finite(self.base_path_length) and self.base_path_length >= 0.0):
            raise _invalid("base_path_length", "finite and >= 0", self.base_path_length)
        if not (_finite(self.delta) and self.delta >= 0.0):
            raise _invalid("delta", "finite and >= 0", self.delta)
        if not _integer(self.master_seed) or not (0 <= self.master_seed <= MAX_SEED):
            raise _invalid("master_seed", "an integer in [0, 2**64)", self.master_seed)
        self.check_phase_range("the longest path", 2.0 * self.base_path_length + self.delta)

    def check_phase_range(self, what: str, length: float) -> None:
        """Refuse a ``length``, named ``what``, that some frequency turns into a
        phase that is not finite: ``inf % 2pi`` is NaN, and a NaN phase
        comparison silently transmits every photon."""
        frequencies = (self.particle_frequency, self.bs1.frequency, self.bs2.frequency)
        for name, nu in zip(("particle_frequency", "bs1.frequency", "bs2.frequency"), frequencies):
            if not math.isfinite(nu * length):
                raise ConfigError(f"{name} {nu!r} times {what} {length!r} overflows")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a plain dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    known = {f.name for f in fields(ExperimentConfig)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key {_brief(repr(key))}")
    kwargs = dict(data)
    for side in ("bs1", "bs2"):
        if side in kwargs:
            sub = kwargs[side]
            if not isinstance(sub, dict):
                raise ConfigError(f"{side} must be an object, got {type(sub).__name__}")
            sub_known = {f.name for f in fields(SplitterConfig)}
            for key in sub:
                if key not in sub_known:
                    raise ConfigError(f"unknown config key {side}.{_brief(repr(key))}")
            kwargs[side] = SplitterConfig(**sub)
    return ExperimentConfig(**kwargs)


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    """Load a JSON config file; an empty file means 'all defaults'."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    except OSError as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}") from None
    try:
        data = json.loads(text) if text.strip() else {}
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)
