"""Run orchestration: full interferometer runs, which return each photon's
outcomes, and reproducible path-length sweeps, which keep each run's counts.

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
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
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


# The compiled stream loop: its source, and the flags it must be built with
# to round as Python's float arithmetic does (see _kernel.c).
_KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
# The most of a failed compile's stderr that its error carries.
_COMPILER_SAID = 2000
# Held while a thread checks for, or compiles, the library.
_BUILD_LOCK = threading.Lock()


def _compiler() -> str | None:
    import shutil

    return shutil.which("cc")


def _build_kernel() -> Path:
    """Path of the compiled kernel in ``__pycache__``, compiling it if absent.

    The file name carries a hash of the source and flags, so an edit to
    either builds a new library. The threads of a process build one at a
    time, so a thread that waited loads the library the first one built.
    Processes compiling at the same time each write their own temporary
    file and move it into place atomically. Once the new library is in
    place the other ``_kernel-*.so`` there, built from an earlier source or
    flags, are removed; a process that has one loaded keeps its mapping.
    A missing, failing or hung compiler is an OSError, which carries the
    start of the compiler's stderr; so is a cache directory that cannot be
    made or written, which the error names.
    """
    import hashlib

    source = _KERNEL_SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    lib = _KERNEL_SOURCE.with_name("__pycache__") / f"_kernel-{key}.so"
    with _BUILD_LOCK:
        if lib.exists():
            return lib
        import subprocess  # only to compile: a cached library loads without it

        cc = _compiler()
        if cc is None:
            raise OSError("no C compiler (cc) on PATH")
        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        try:
            lib.parent.mkdir(exist_ok=True)
            tmp.write_bytes(b"")  # the compiler's output file: a cache it cannot write fails here
        except OSError as exc:
            raise OSError(f"the kernel cache directory {lib.parent} cannot be written: {exc}") from exc
        try:
            subprocess.run(
                [cc, *_CFLAGS, "-o", str(tmp), str(_KERNEL_SOURCE), "-lm"],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp, lib)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:  # failed or hung
            said = (exc.stderr or b"").decode(errors="replace").strip()[:_COMPILER_SAID]
            raise OSError(f"{exc}\n{said}" if said else str(exc)) from exc
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
    run.argtypes = [times, ctypes.c_int64, *[ctypes.c_void_p] * 2, *[ctypes.c_double] * 13, flags, flags]
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


def run_mzi(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full two-splitter run.

    Each photon travels ``base_path_length`` to BS1; a reflection there sends
    it down path 1 (another ``base_path_length``), a transmission down path 2
    (``base_path_length + delta``); at BS2 a reflection clicks D1 and a
    transmission clicks D2. Both splitters keep their own evolving state for
    the whole stream, so photons are processed strictly in emission order.
    Returns ``(emissions, bs1, bs2)``, one entry per photon in emission
    order: its emission time, and its BS1 and BS2 outcomes as int8, 1 where
    it reflected there. D1 counts the reflections at BS2 (see :func:`_counts`).

    One generator seeded with ``master_seed`` draws all the emission gaps into
    ``emissions``, then, in the loop, each photon's initial phase in turn, by
    ``next_double(state)`` of numpy's ``BitGenerator.ctypes``: the bits of
    ``rng.uniform(0.0, TWO_PI)``, or the configured ``particle_initial_phase``,
    wrapped alike. The compiled loop (``_kernel.c``; an OSError where it cannot
    be built, see :func:`_load_kernel`) sums the gaps into the emission times
    in place, so a run holds 10 bytes per photon: the arrays it returns. Each
    gap the loop steps a phase by is at most the last emission time, which the
    run then checks (:meth:`~mzsim.config.ExperimentConfig.check_phase_range`).
    """
    n = config.photon_count
    rng = np.random.default_rng(config.master_seed)
    emissions = generate_emissions(config, rng)
    bs1, bs2 = np.empty(n, np.int8), np.empty(n, np.int8)
    draw, phase = rng.bit_generator.ctypes, config.particle_initial_phase
    _load_kernel()(emissions, n, draw.next_double if phase is None else None, draw.state,
                   0.0 if phase is None else phase, *_stream_params(config), bs1, bs2)
    config.check_phase_range("the last emission time", float(emissions[-1]))
    return emissions, bs1, bs2


def _counts(config: ExperimentConfig) -> tuple[int, int]:
    """The detector counts ``(d1, d2)`` of one :func:`run_mzi`, D1 counting
    the reflections at BS2: all a sweep point keeps, so its arrays are freed
    as soon as it is counted."""
    bs2 = run_mzi(config)[2]
    d1 = int(np.count_nonzero(bs2))
    return d1, bs2.size - d1


def point_config(config: ExperimentConfig, delta: float) -> ExperimentConfig:
    """Config for one sweep point: its own delta and derived child seed.

    ``-0.0`` is the same path difference as ``0.0``, so it is normalised
    (``x + 0.0``) before its bit pattern picks the seed.
    """
    delta = float(delta) + 0.0
    child = derive_child_seed(config.master_seed, _delta_bits(delta))
    return replace(config, delta=delta, master_seed=child)


def pool_size(jobs: int, points: int, cpus: int | None) -> int:
    """Worker threads for a sweep: ``jobs``, but no more than there are
    points or CPUs (``cpus``; None if unknown), and at least 1."""
    return max(1, min(jobs, points, cpus or 1))


def run_sweep(
    config: ExperimentConfig,
    deltas: list[float],
    jobs: int = 1,
) -> list[tuple[int, int]]:
    """The ``(d1, d2)`` of one :func:`run_mzi` per delta, in input order.

    Each point's seed is a pure function of (master_seed, delta), so the
    result for a given delta does not depend on its position in the list and
    points may be evaluated in parallel: up to ``jobs`` worker threads, no
    more than the CPUs this process may run on (see :func:`pool_size`),
    each taking the next point and running its loop without the GIL.
    """
    if not deltas:
        raise ValueError("sweep needs at least one delta")
    configs = [point_config(config, d) for d in deltas]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = pool_size(jobs, len(configs), cpus)
    if workers == 1:
        return list(map(_counts, configs))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_counts, configs))


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
