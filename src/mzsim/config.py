"""Experiment configuration: dataclasses, validation, loading from JSON.

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
from dataclasses import dataclass, field, fields

from .optics import INTER_ARRIVAL_LAWS

MAX_SEED = 2**64 - 1


class ConfigError(ValueError):
    """Unreadable, unparseable, or invalid experiment configuration."""


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


def _default_bs1() -> SplitterConfig:
    return SplitterConfig(frequency=1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    photon_count: int = 100_000
    source_rate: float = 20.0
    inter_arrival_law: str = "exponential"
    particle_frequency: float = 1.0
    # None draws each photon's initial phase uniformly from [0, 2*pi);
    # a number fixes it for every photon.
    particle_initial_phase: float | None = None
    bs1: SplitterConfig = field(default_factory=_default_bs1)
    bs2: SplitterConfig = field(default_factory=SplitterConfig)
    base_path_length: float = 1.0
    delta: float = 0.0
    master_seed: int = 42

    def validate(self) -> "ExperimentConfig":
        if not _integer(self.photon_count) or self.photon_count < 1:
            raise ConfigError(
                f"photon_count must be an integer >= 1, got {self.photon_count!r}"
            )
        if not (_finite(self.source_rate) and self.source_rate > 0.0):
            raise ConfigError(f"source_rate must be finite and > 0, got {self.source_rate!r}")
        if self.inter_arrival_law not in INTER_ARRIVAL_LAWS:
            raise ConfigError(
                f"inter_arrival_law must be one of {INTER_ARRIVAL_LAWS}, "
                f"got {self.inter_arrival_law!r}"
            )
        if not (_finite(self.particle_frequency) and self.particle_frequency > 0.0):
            raise ConfigError(
                f"particle_frequency must be finite and > 0, got {self.particle_frequency!r}"
            )
        if self.particle_initial_phase is not None and not _finite(
            self.particle_initial_phase
        ):
            raise ConfigError(
                f"particle_initial_phase must be finite or null, "
                f"got {self.particle_initial_phase!r}"
            )
        for name, sp in (("bs1", self.bs1), ("bs2", self.bs2)):
            if not (_finite(sp.frequency) and sp.frequency >= 0.0):
                raise ConfigError(f"{name}.frequency must be finite and >= 0, got {sp.frequency!r}")
            if not _finite(sp.initial_offset):
                raise ConfigError(f"{name}.initial_offset must be finite, got {sp.initial_offset!r}")
            if not (_finite(sp.update_alpha) and _finite(sp.update_beta)):
                raise ConfigError(f"{name} update coefficients must be finite")
            # bounds alpha*p + beta*s over phases in [0, 2*pi)
            if not math.isfinite((abs(sp.update_alpha) + abs(sp.update_beta)) * 2.0 * math.pi):
                raise ConfigError(f"{name} update coefficients overflow a phase update")
        if not (_finite(self.base_path_length) and self.base_path_length >= 0.0):
            raise ConfigError(
                f"base_path_length must be finite and >= 0, got {self.base_path_length!r}"
            )
        if not (_finite(self.delta) and self.delta >= 0.0):
            raise ConfigError(f"delta must be finite and >= 0, got {self.delta!r}")
        if not _integer(self.master_seed) or not (0 <= self.master_seed <= MAX_SEED):
            raise ConfigError(
                f"master_seed must be an integer in [0, 2**64), got {self.master_seed!r}"
            )
        return self


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a validated config from a plain dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    known = {f.name for f in fields(ExperimentConfig)}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    kwargs = dict(data)
    for side in ("bs1", "bs2"):
        if side in kwargs:
            sub = kwargs[side]
            if not isinstance(sub, dict):
                raise ConfigError(f"{side} must be an object, got {type(sub).__name__}")
            sub_known = {f.name for f in fields(SplitterConfig)}
            for key in sub:
                if key not in sub_known:
                    raise ConfigError(f"unknown config key {side}.{key}")
            kwargs[side] = SplitterConfig(**sub)
    return ExperimentConfig(**kwargs).validate()


def load_config(path: str | os.PathLike) -> ExperimentConfig:
    """Load a JSON config file; an empty file means 'all defaults'."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    if not text.strip():
        return ExperimentConfig().validate()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)
