"""The compiled stream loop: how it is built, shared and replaced.

That it fills the same outcome arrays as the ``interact``-based reference
loop, which takes the same arguments, is checked photon for photon by
``test_experiment.test_stream_loop_matches_interact_reference``; here its
phase reduction ``wrap`` is checked against ``phases.wrap_phase`` directly.
"""

import ast
import ctypes
import functools
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from mzsim import experiment
from mzsim.config import ExperimentConfig
from mzsim.experiment import (
    _load_kernel, _prepare_stream, _stream_params, photon_buffers, run_mzi, run_single_bs,
)
from mzsim.phases import TWO_PI, WRAP_SNAP, wrap_phase

CC = shutil.which("cc")
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler (cc) on PATH")


@pytest.fixture
def fresh_loader():
    _load_kernel.cache_clear()
    yield
    _load_kernel.cache_clear()


@pytest.mark.parametrize("failure", ["no-compiler", "compile-fails", "cache-not-writable"])
def test_failed_build_falls_back_to_the_python_loop_with_one_warning(
    tmp_path, monkeypatch, fresh_loader, failure
):
    cfg = replace(ExperimentConfig(), photon_count=3000, delta=1.5, master_seed=5)
    runs = [functools.partial(run_mzi, cfg), functools.partial(run_single_bs, cfg)]
    expected = [run() for run in runs]
    _load_kernel.cache_clear()
    source = tmp_path / "_kernel.c"  # no cached library beside it
    shutil.copyfile(experiment._KERNEL_SOURCE, source)
    monkeypatch.setattr(experiment, "_KERNEL_SOURCE", source)
    if failure == "no-compiler":
        monkeypatch.setattr(experiment, "_compiler", lambda: None)
    elif failure == "compile-fails":
        monkeypatch.setattr(experiment, "_compiler", lambda: "false")
    else:
        (tmp_path / "__pycache__").write_text("")  # a file where the cache goes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = [run() for run in runs]
    assert _load_kernel() is None
    for got, want in zip(fallback, expected, strict=True):
        assert_same_run(got, want)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "Python loop" in str(caught[0].message)
    assert [p.name for p in tmp_path.rglob("*") if p.suffix in (".so", ".tmp")] == []


@needs_cc
def test_concurrent_first_compile_leaves_one_library(tmp_path):
    # Three fresh interpreters, no cached library: all compile at once.
    pkg = tmp_path / "mzsim"
    shutil.copytree(
        Path(experiment.__file__).parent, pkg, ignore=shutil.ignore_patterns("__pycache__")
    )
    script = (
        "from dataclasses import replace\n"
        "from mzsim.config import ExperimentConfig\n"
        "from mzsim.experiment import _load_kernel, run_mzi\n"
        "assert _load_kernel() is not None\n"
        "print(run_mzi(replace(ExperimentConfig(), photon_count=3000, delta=1.5))[0])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path)}
    procs = [
        subprocess.Popen(
            [sys.executable, "-B", "-c", script], cwd=tmp_path, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(3)
    ]
    try:
        outputs = [p.communicate(timeout=120) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait(timeout=10)
    assert [p.returncode for p in procs] == [0, 0, 0], [err for _, err in outputs]
    assert len({out for out, _ in outputs}) == 1
    assert sum(ast.literal_eval(outputs[0][0])) == 3000
    left = [p.name for p in (pkg / "__pycache__").iterdir()]
    assert len(left) == 1 and fnmatch(left[0], "_kernel-*.so"), left


@needs_cc
def test_kernel_compiles_without_warnings(tmp_path):
    done = subprocess.run(
        [CC, *experiment._CFLAGS, "-Wall", "-Wextra", "-Wconversion", "-Wdouble-promotion",
         "-Wshadow", "-Werror",
         "-o", str(tmp_path / "kernel.so"), str(experiment._KERNEL_SOURCE), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def wrap_cases() -> np.ndarray:
    """About 1.7 million doubles that probe the kernel's phase reduction:
    the ranges the loop sees, every exponent, the neighbours of multiples
    of TWO_PI up to the fmod fallback at 2**50, and the edges, among them
    those of the quotient-free path for |x| < TWO_PI."""
    rng = np.random.default_rng(2005)
    n = 150_000
    sign = rng.choice([-1.0, 1.0], 2 * n)
    k = rng.integers(-(2**49 // 7), 2**49 // 7, n).astype(np.float64)
    multiples = k * TWO_PI
    up = np.nextafter(multiples, np.inf)
    edges = [2.0**50, -(2.0**50), 2.0**50 - 1, 0.0, -0.0, 5e-324, -5e-324,
             1e300, -1e300, TWO_PI, -TWO_PI, np.pi, -np.pi]
    # |x| just below TWO_PI, and either side of the snap at TWO_PI - WRAP_SNAP
    below = np.array([np.nextafter(TWO_PI, 0.0), TWO_PI - WRAP_SNAP])
    below = np.concatenate([below, np.nextafter(below, 0.0), np.nextafter(below, np.inf)])
    # Negatives so small that x + TWO_PI rounds to TWO_PI (|x| up to half an
    # ulp of TWO_PI, 2**-51) or lands within WRAP_SNAP of it: both snap to 0.
    tiny = np.concatenate([np.ldexp(1.0, np.arange(-1074, -38)),
                           rng.uniform(0.0, 2 * WRAP_SNAP, 1000), [2.0**-51, WRAP_SNAP]])
    tiny = np.concatenate([tiny, np.nextafter(tiny, 0.0), np.nextafter(tiny, 1.0)])
    return np.concatenate([
        rng.uniform(-1e4, 1e4, 400_000),
        rng.uniform(-TWO_PI, TWO_PI, 400_000),
        sign * np.ldexp(rng.uniform(0.5, 1.0, 2 * n), rng.integers(-1074, 1024, 2 * n)),
        multiples, up, np.nextafter(multiples, -np.inf), np.nextafter(up, np.inf),
        edges, below, -below, -tiny,
    ])


def kernel_functions():
    """``(run_stream, wrap_array)`` of the library built from
    ``experiment._KERNEL_SOURCE``, with their argument types set."""
    run = _load_kernel()
    assert run is not None, "the compiled kernel did not load"
    wrap_array = ctypes.CDLL(str(experiment._build_kernel())).wrap_array
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    wrap_array.argtypes = [doubles, ctypes.c_int64, doubles]
    wrap_array.restype = None
    return run, wrap_array


def call_wrap(wrap_array, x):
    out = np.empty_like(x)
    wrap_array(x, x.size, out)
    return out


def assert_same_run(a, b):
    """Equal counts and, photon for photon, equal outcome arrays of the
    same shape and dtype (``bs2`` None in both, for single-bs runs)."""
    (counts_a, arrays_a), (counts_b, arrays_b) = a, b
    assert counts_a == counts_b
    for x, y in zip(arrays_a, arrays_b, strict=True):  # emissions, bs1, bs2
        np.testing.assert_array_equal(x, y, strict=True)


def stream_outcomes(loop, config, offsets=None):
    """``(bs1, bs2)`` as filled by ``loop``, the compiled ``run_stream`` or
    anything with its signature, for the prepared stream of ``config``, or
    for its emissions with the initial phases ``offsets`` if given. Both
    start at -1, so a photon the loop skips shows."""
    emissions, prepared = _prepare_stream(config, photon_buffers(config.photon_count))[:2]
    offsets = prepared if offsets is None else offsets
    n = emissions.size
    bs1, bs2 = np.full(n, -1, np.int8), np.full(n, -1, np.int8)
    loop(emissions, offsets, n, *_stream_params(config), bs1, bs2)
    return bs1, bs2


@needs_cc
def test_kernel_wrap_equals_wrap_phase_bit_for_bit(fresh_loader):
    # wrap_phase is x % TWO_PI plus the snap; the bits, zero signs included,
    # must match, or a phase somewhere in a stream rounds differently
    x = wrap_cases()
    expected = np.array([wrap_phase(v) for v in x.tolist()])
    got = call_wrap(kernel_functions()[1], x)
    mismatched = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    assert mismatched.size == 0, [(x[i], got[i], expected[i]) for i in mismatched[:5]]


@needs_cc
def test_default_clone_equals_the_clone_picked_at_load(tmp_path, monkeypatch, fresh_loader):
    # Where the CPU has FMA the loader never runs the default (non-FMA)
    # build, so build the source without the clones and compare the two.
    shipped = kernel_functions()
    source = experiment._KERNEL_SOURCE.read_text().splitlines(keepends=True)
    kept = [line for line in source if 'target_clones("' not in line]
    assert len(kept) == len(source) - 1
    copy = tmp_path / "_kernel.c"
    copy.write_text("".join(kept))
    monkeypatch.setattr(experiment, "_KERNEL_SOURCE", copy)
    _load_kernel.cache_clear()
    default = kernel_functions()

    x = wrap_cases()
    assert call_wrap(shipped[1], x).tobytes() == call_wrap(default[1], x).tobytes()
    cfg = replace(ExperimentConfig(), delta=1.5)
    for ours, theirs in zip(stream_outcomes(shipped[0], cfg),
                            stream_outcomes(default[0], cfg)):
        assert np.array_equal(ours, theirs)
