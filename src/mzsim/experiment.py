"""Run orchestration: full interferometer runs, their single-splitter
view, and reproducible path-length sweeps.

Every run is fully determined by its :class:`~mzsim.config.ExperimentConfig`.
Random numbers are drawn from one ``numpy`` PCG64 generator seeded with the
config's master seed, in a fixed order: first the emission gaps, then the
initial photon phases. Sweep points use independent child seeds derived from
the master seed and the bit pattern of each delta (see
:func:`derive_child_seed`), which makes sweep results order-independent and
safe to evaluate in parallel.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .optics import generate_emissions
from .phases import TWO_PI, wrap_phase

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_U64 = 0xFFFFFFFFFFFFFFFF


def derive_child_seed(master_seed: int, index: int) -> int:
    """SplitMix64 child seed for (master_seed, index).

    Computes the SplitMix64 output for state ``master_seed + (index+1)*gamma``
    (all mod 2**64). The finalizer is a bijection, so for a fixed master seed
    distinct indices can never collide.
    """
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index!r}")
    z = (master_seed + (index + 1) * _SPLITMIX_GAMMA) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return (z ^ (z >> 31)) & _U64


def _delta_bits(delta: float) -> int:
    """IEEE-754 bit pattern of a delta, used as its child-seed index."""
    return struct.unpack("<Q", struct.pack("<d", float(delta)))[0]


# What a single run returns: its detector counts (d1, d2) and its outcome
# arrays (emissions, bs1, bs2), one entry per photon in emission order; bs1
# and bs2 are int8, 1 where the photon reflected there, and bs2 is None in
# single-bs runs.
Run = tuple[tuple[int, int], tuple[np.ndarray, np.ndarray, np.ndarray | None]]

# The arrays a run fills, one entry per photon: the emission times
# (float64), then the BS1 and BS2 outcomes (int8).
Buffers = tuple[np.ndarray, np.ndarray, np.ndarray]


def photon_buffers(n: int) -> Buffers:
    """Fresh, unfilled ``(emissions, bs1, bs2)`` for runs of ``n`` photons:
    10 bytes per photon."""
    return np.empty(n), np.empty(n, np.int8), np.empty(n, np.int8)


def _check_buffers(buffers: Buffers, n: int) -> None:
    """The loop reads and writes ``n`` entries of each buffer, unchecked;
    refuse a buffer set that does not hold them. The emissions buffer is
    left to :func:`~mzsim.optics.generate_emissions`, which checks its
    ``out`` before drawing into it."""
    names = ("bs1", "bs2")
    for name, buf, like in zip(names, buffers[1:], photon_buffers(0)[1:], strict=True):
        if buf.dtype != like.dtype or buf.shape != (n,) or not buf.flags.c_contiguous:
            raise ValueError(
                f"{name} buffer must be a C-contiguous {like.dtype} array of shape ({n},), "
                f"got {buf.dtype} of shape {buf.shape}"
            )


# The compiled stream loop: its source, and the flags it must be built with
# to round as Python's float arithmetic does (see _kernel.c).
_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _compiler() -> str | None:
    import shutil

    return shutil.which("cc")


def _build_kernel() -> Path:
    """Path of the compiled kernel in ``__pycache__``, compiling it if absent.

    The file name carries a hash of the source and flags, so an edit to
    either builds a new library. Processes compiling at the same time each
    write their own temporary file and move it into place atomically. Once
    the new library is in place the other ``_kernel-*.so`` there, built from
    an earlier source or flags, are removed; a process that has one loaded
    keeps its mapping. A missing, failing or hung compiler is an OSError.
    """
    import hashlib

    source = _KERNEL_SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    lib = _KERNEL_SOURCE.with_name("__pycache__") / f"_kernel-{key}.so"
    if lib.exists():
        return lib
    import subprocess  # only to compile: a cached library loads without it

    cc = _compiler()
    if cc is None:
        raise OSError("no C compiler (cc) on PATH")
    lib.parent.mkdir(exist_ok=True)
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(
            [cc, *_CFLAGS, "-o", str(tmp), str(_KERNEL_SOURCE), "-lm"],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp, lib)
    except subprocess.SubprocessError as exc:  # failed or hung
        raise OSError(exc) from exc
    finally:
        tmp.unlink(missing_ok=True)
    for stale in lib.parent.glob("_kernel-*.so"):
        if stale != lib:
            stale.unlink(missing_ok=True)
    return lib


@functools.cache
def _load_kernel():
    """The compiled ``run_stream`` of ``_kernel.c``, loaded once per process.
    Where it cannot be built or loaded, the OSError says why: no C compiler
    on PATH, a failed or hung compile, or a cache that cannot be written
    (see :func:`_build_kernel`)."""
    run = ctypes.CDLL(str(_build_kernel())).run_stream
    times = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    flags = np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS")
    run.argtypes = [times, ctypes.c_int64, ctypes.c_void_p, *[ctypes.c_double] * 13, flags, flags]
    run.restype = None
    return run


def _stream_params(config: ExperimentConfig) -> tuple[float, ...]:
    """``(nu_p, path1, path2, nu1, a1, b1, s1, nu2, a2, b2, c2, lag2)``: what
    the stream loop reads of a config, its geometry stated once as wrapped
    phases: the photon's steps along paths 1 and 2, BS1's and BS2's starting
    phases, and path 2's lag at BS2 (see ``run_stream`` in ``_kernel.c``)."""
    bs1, bs2, base, delta = config.bs1, config.bs2, config.base_path_length, config.delta
    nu_p, nu1, nu2 = config.particle_frequency, bs1.frequency, bs2.frequency
    return (
        nu_p, wrap_phase(nu_p * base), wrap_phase(nu_p * (base + delta)),
        nu1, bs1.update_alpha, bs1.update_beta,
        wrap_phase(wrap_phase(nu1 * base) + wrap_phase(bs1.initial_offset)),
        nu2, bs2.update_alpha, bs2.update_beta,
        wrap_phase(wrap_phase(nu2 * (2.0 * base)) + wrap_phase(bs2.initial_offset)),
        wrap_phase(nu2 * delta),
    )


def _check_phase_range(config: ExperimentConfig, last_emission: float) -> None:
    """Every ``nu*gap`` the loop forms, and ``nu*path`` the run forms for it
    (:func:`_stream_params`), must be finite: ``inf % 2pi`` is NaN, and a NaN
    phase comparison silently transmits every photon. Each gap and each path
    is at most the last arrival time ``t_max``, so a finite ``nu*t_max``
    bounds them all. (An infinite ``t_max`` fails on ``particle_frequency`` > 0.)
    The run checks this after the loop, whose sum gives the last emission
    time; where it fails, the outcomes the loop filled are discarded."""
    t_max = last_emission + 2.0 * config.base_path_length + config.delta
    for name, nu in (
        ("particle_frequency", config.particle_frequency),
        ("bs1.frequency", config.bs1.frequency),
        ("bs2.frequency", config.bs2.frequency),
    ):
        if not math.isfinite(nu * t_max):
            raise ConfigError(f"{name} {nu!r} times the last arrival time {t_max!r} overflows")


def run_single_bs(config: ExperimentConfig) -> Run:
    """The first splitter's view of a :func:`run_mzi` run.

    Reflections at BS1 count to D1, transmissions to D2. Returns the counts
    and ``(emissions, bs1, None)``: each photon's emission time and its BS1
    outcome (1 = reflected). These are exactly the two-splitter run's BS1
    outcomes, as BS1's rule reads neither BS2's state nor ``delta``; the
    cost is BS2's work, about 1.3 times a BS1-only loop's time.
    """
    _, (emissions, bs1, _) = run_mzi(config)
    d1 = int(np.count_nonzero(bs1))
    return (d1, bs1.size - d1), (emissions, bs1, None)


def run_mzi(config: ExperimentConfig, buffers: Buffers | None = None) -> Run:
    """Full two-splitter run.

    Each photon travels ``base_path_length`` to BS1; a reflection there sends
    it down path 1 (another ``base_path_length``), a transmission down path 2
    (``base_path_length + delta``); at BS2 a reflection clicks D1 and a
    transmission clicks D2. Both splitters keep their own evolving state for
    the whole stream, so photons are processed strictly in emission order.
    Returns the counts and ``(emissions, bs1, bs2)``: each photon's emission
    time and its BS1 and BS2 outcomes (1 = reflected).

    One generator seeded with ``master_seed`` draws all the emission gaps
    into ``emissions``, then, in the loop, each photon's initial phase in
    turn: uniform on [0, 2*pi), the bits of ``rng.uniform(0.0, TWO_PI)``,
    or the configured ``particle_initial_phase``, unwrapped like a drawn one
    (the loop wraps both). The loop sums the gaps into the emission times
    in place, so a run holds 10 bytes per photon: ``buffers``, from
    :func:`photon_buffers` for ``config.photon_count``, filled in place and
    returned, or its own. The loop is the compiled kernel (``_kernel.c``);
    where it cannot be built, the run is an OSError (see :func:`_load_kernel`).
    """
    n = config.photon_count
    buffers = photon_buffers(n) if buffers is None else buffers
    emissions, bs1, bs2 = buffers
    _check_buffers(buffers, n)
    rng = np.random.default_rng(config.master_seed)
    generate_emissions(config.source_rate, n, rng, law=config.inter_arrival_law, out=emissions)
    phase = config.particle_initial_phase
    bitgen = rng.bit_generator.ctypes.bit_generator if phase is None else None
    try:
        params = _stream_params(config)
    except ValueError:  # some nu*path overflows, which the check below refuses
        params = (math.nan,) * 12
    _load_kernel()(emissions, n, bitgen, 0.0 if phase is None else phase, *params, bs1, bs2)
    _check_phase_range(config, float(emissions[-1]))
    d1 = int(np.count_nonzero(bs2))
    return (d1, n - d1), (emissions, bs1, bs2)


def _sweep_points(configs: list[ExperimentConfig]) -> list[tuple[int, int]]:
    """The ``(d1, d2)`` of one :func:`run_mzi` per config, in order, all
    through one buffer set (the configs of a sweep share one photon count)."""
    buffers = photon_buffers(configs[0].photon_count)
    return [run_mzi(c, buffers)[0] for c in configs]


def _contiguous_slices(items: list, parts: int) -> list[list]:
    """``items`` cut in order into ``parts`` slices whose lengths differ by
    at most one."""
    size, extra = divmod(len(items), parts)
    bounds = [k * size + min(k, extra) for k in range(parts + 1)]
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def point_config(config: ExperimentConfig, delta: float) -> ExperimentConfig:
    """Config for one sweep point: its own delta and derived child seed.

    ``-0.0`` is the same path difference as ``0.0``, so it is normalised
    (``x + 0.0``) before its bit pattern picks the seed.
    """
    delta = float(delta) + 0.0
    child = derive_child_seed(config.master_seed, _delta_bits(delta))
    return replace(config, delta=delta, master_seed=child)


def pool_size(jobs: int, points: int, cpus: int | None) -> int:
    """Worker processes for a sweep: ``jobs``, but no more than there are
    points or CPUs (``cpus`` as from :func:`os.cpu_count`), and at least 1."""
    return max(1, min(jobs, points, cpus or 1))


def run_sweep(
    config: ExperimentConfig,
    deltas: list[float],
    jobs: int = 1,
) -> list[tuple[int, int]]:
    """The ``(d1, d2)`` of one :func:`run_mzi` per delta, in input order.

    Each point's seed is a pure function of (master_seed, delta), so the
    result for a given delta does not depend on its position in the list and
    points may be evaluated in parallel: up to ``jobs`` worker processes
    (see :func:`pool_size`), each taking one contiguous slice of the points.
    Each worker, or the calling process for a serial sweep, runs its points
    through one buffer set.
    """
    if not deltas:
        raise ValueError("sweep needs at least one delta")
    configs = [point_config(config, d) for d in deltas]
    workers = pool_size(jobs, len(configs), os.cpu_count())
    if workers == 1:
        return _sweep_points(configs)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        slices = pool.map(_sweep_points, _contiguous_slices(configs, workers))
        return [counts for part in slices for counts in part]


def default_sweep_deltas(
    config: ExperimentConfig,
    steps: int = 50,
    delta_max: float | None = None,
) -> list[float]:
    """Uniform delta grid; by default two fringe periods in ``steps`` points."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps!r}")
    if delta_max is None:
        delta_max = 2.0 * (TWO_PI / config.particle_frequency)
    if not (math.isfinite(delta_max) and delta_max >= 0.0):
        raise ValueError(f"delta_max must be finite and >= 0, got {delta_max!r}")
    return np.linspace(0.0, delta_max, steps).tolist()
