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

import functools
import math
import os
import shutil
import struct
import subprocess
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .optics import generate_emissions, interact
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

# The arrays a run fills, one entry per photon: emission times and initial
# phases (float64), then the BS1 and BS2 outcomes (int8).
Buffers = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def photon_buffers(n: int) -> Buffers:
    """Fresh, unfilled ``(emissions, offsets, bs1, bs2)`` for runs of ``n``
    photons."""
    return np.empty(n), np.empty(n), np.empty(n, np.int8), np.empty(n, np.int8)


def _check_buffers(buffers: Buffers, n: int) -> None:
    """The loop reads and writes ``n`` entries of each buffer, unchecked;
    refuse a buffer set that does not hold them. The emissions buffer is
    left to :func:`~mzsim.optics.generate_emissions`, which checks its
    ``out`` before drawing into it."""
    names = ("offsets", "bs1", "bs2")
    for name, buf, like in zip(names, buffers[1:], photon_buffers(0)[1:], strict=True):
        if buf.dtype != like.dtype or buf.shape != (n,) or not buf.flags.c_contiguous:
            raise ValueError(
                f"{name} buffer must be a C-contiguous {like.dtype} array of shape ({n},), "
                f"got {buf.dtype} of shape {buf.shape}"
            )


def _initial_offsets(
    config: ExperimentConfig, rng: np.random.Generator, out: np.ndarray
) -> np.ndarray:
    """Each photon's initial phase, unsnapped, written to ``out`` and
    returned: the stream loop wraps it, so a draw just below TWO_PI becomes
    0 there."""
    if config.particle_initial_phase is None:
        rng.random(out=out)
        out *= TWO_PI  # the bits of rng.uniform(0.0, TWO_PI, n)
    else:
        out.fill(wrap_phase(config.particle_initial_phase))
    return out


# The compiled stream loop: its source, and the flags it must be built with
# to match the Python loop bit for bit (see _kernel.c).
_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _compiler() -> str | None:
    return shutil.which("cc")


def _build_kernel() -> Path:
    """Path of the compiled kernel in ``__pycache__``, compiling it if absent.

    The file name carries a hash of the source and flags, so an edit to
    either builds a new library. Processes compiling at the same time each
    write their own temporary file and move it into place atomically.
    """
    import hashlib

    source = _KERNEL_SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    lib = _KERNEL_SOURCE.with_name("__pycache__") / f"_kernel-{key}.so"
    if lib.exists():
        return lib
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
    finally:
        tmp.unlink(missing_ok=True)
    return lib


@functools.cache
def _load_kernel():
    """The compiled ``run_stream`` of ``_kernel.c``, loaded once per process,
    or None (with one warning) when it cannot be built or loaded here."""
    import ctypes

    try:
        lib = ctypes.CDLL(str(_build_kernel()))
    except (OSError, subprocess.SubprocessError) as exc:
        warnings.warn(
            f"mzsim: cannot build the compiled stream loop ({exc}); "
            "using the much slower Python loop",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    flags = np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS")
    run = lib.run_stream
    run.argtypes = [doubles, doubles, ctypes.c_int64, *[ctypes.c_double] * 11, flags, flags]
    run.restype = None
    return run


def _stream_params(config: ExperimentConfig) -> tuple[float, ...]:
    """``(nu_p, base, delta, nu1, a1, b1, xi1, nu2, a2, b2, xi2)``: what the
    stream loop reads of a config, with the splitter offsets wrapped."""
    bs1, bs2 = config.bs1, config.bs2
    return (
        config.particle_frequency, config.base_path_length, config.delta,
        bs1.frequency, bs1.update_alpha, bs1.update_beta, wrap_phase(bs1.initial_offset),
        bs2.frequency, bs2.update_alpha, bs2.update_beta, wrap_phase(bs2.initial_offset),
    )


def _run_stream_py(
    emissions: np.ndarray, offsets: np.ndarray, n: int,
    nu_p: float, base: float, delta: float,
    nu1: float, a1: float, b1: float, xi1: float,
    nu2: float, a2: float, b2: float, xi2: float,
    bs1_out: np.ndarray, bs2_out: np.ndarray,
) -> None:
    """The stream loop written with :func:`mzsim.optics.interact`: the
    reference the compiled kernel is tested against, and its fallback. It
    takes the kernel's ``run_stream`` arguments and fills the same arrays.

    The photon starts from its wrapped initial offset, and each splitter
    keeps the offset of its oscillator ``nu*t + offset``. At each splitter
    the photon's and the splitter's wrapped phases at the interaction time
    go through ``interact``; a reflection rebases both offsets to the phases
    it returns (``wrap(phase - nu*t)``).
    """
    splitters = ((nu1, a1, b1), (nu2, a2, b2))
    xi, outs = [xi1, xi2], (bs1_out, bs2_out)
    for i, emitted, phi in zip(range(n), emissions.tolist(), offsets.tolist()):
        t, phi = emitted + base, wrap_phase(phi)
        for k, (nu, a, b) in enumerate(splitters):
            p, s = wrap_phase(nu_p * t + phi), wrap_phase(nu * t + xi[k])
            reflected, p, s = interact(p, s, a, b)
            if reflected:
                phi, xi[k] = wrap_phase(p - nu_p * t), wrap_phase(s - nu * t)
            outs[k][i] = reflected
            t += base if reflected else base + delta


def _check_phase_range(config: ExperimentConfig, last_emission: float) -> None:
    """Every ``nu*t`` the stream loop forms must be finite: ``inf % 2pi`` is
    NaN, and a NaN phase comparison silently transmits every photon. (An
    infinite arrival time fails on ``particle_frequency``, which is > 0.)"""
    t_max = last_emission + 2.0 * config.base_path_length + config.delta
    for name, nu in (
        ("particle_frequency", config.particle_frequency),
        ("bs1.frequency", config.bs1.frequency),
        ("bs2.frequency", config.bs2.frequency),
    ):
        if not math.isfinite(nu * t_max):
            raise ConfigError(f"{name} {nu!r} times the last arrival time {t_max!r} overflows")


def _prepare_stream(config: ExperimentConfig, buffers: Buffers) -> Buffers:
    """Draw the emission times and initial phases of a validated
    ``config``'s photons into the first two of ``buffers``, once the set is
    checked to hold them; returns ``buffers``."""
    n = config.photon_count
    emissions, offsets = buffers[:2]
    _check_buffers(buffers, n)
    rng = np.random.default_rng(config.master_seed)
    generate_emissions(config.source_rate, n, rng, law=config.inter_arrival_law, out=emissions)
    _check_phase_range(config, float(emissions[-1]))
    _initial_offsets(config, rng, offsets)
    return buffers


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

    ``buffers``, from :func:`photon_buffers` for ``config.photon_count``,
    are filled in place, and the returned arrays are those buffers, so the
    next run through them overwrites them. Without ``buffers`` the run
    allocates its own. The loop is the compiled kernel (``_kernel.c``) or,
    where that cannot be built, :func:`_run_stream_py`, with a warning.
    """
    n = config.validate().photon_count
    buffers = photon_buffers(n) if buffers is None else buffers
    emissions, offsets, bs1, bs2 = _prepare_stream(config, buffers)
    loop = _load_kernel() or _run_stream_py
    loop(emissions, offsets, n, *_stream_params(config), bs1, bs2)
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
    config.validate()
    configs = [point_config(config, d) for d in deltas]
    workers = pool_size(jobs, len(configs), os.cpu_count())
    if workers == 1:
        return _sweep_points(configs)
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
