"""The compiled stream loop: how it is built, shared and replaced.

That it fills the same outcome arrays as the ``interact``-based reference
loop, which takes the same arguments, is checked photon for photon by
``test_experiment.test_stream_loop_matches_interact_reference``; here its
phase reduction ``wrap`` is checked against ``phases.wrap_phase`` directly,
and the ``bitgen_t`` layout both loops draw through against numpy's.
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
from mzsim.experiment import _Bitgen, _load_kernel, _stream_params, run_mzi, run_single_bs
from mzsim.optics import generate_emissions
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
def test_rebuild_after_an_edit_leaves_one_library(tmp_path, monkeypatch):
    source = tmp_path / "_kernel.c"
    shutil.copyfile(experiment._KERNEL_SOURCE, source)
    monkeypatch.setattr(experiment, "_KERNEL_SOURCE", source)
    first = experiment._build_kernel()
    wrap_array = library_wrap_array(first)
    source.write_text(source.read_text() + "\n/* edited */\n")
    second = experiment._build_kernel()
    assert second != first
    assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == [second.name]
    # The removed library stays mapped in the process that loaded it.
    assert call_wrap(wrap_array, np.array([-1.0, 7.0])).tolist() == [wrap_phase(-1.0), wrap_phase(7.0)]


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
    of TWO_PI, and the edges, among them those of the quotient-free path
    for -TWO_PI < x < 2*TWO_PI."""
    rng = np.random.default_rng(2005)
    n = 150_000
    sign = rng.choice([-1.0, 1.0], 2 * n)
    k = rng.integers(-(2**49 // 7), 2**49 // 7, n).astype(np.float64)
    multiples = k * TWO_PI
    up = np.nextafter(multiples, np.inf)
    edges = [2.0**50, -(2.0**50), 2.0**50 - 1, 0.0, -0.0, 5e-324, -5e-324,
             1e300, -1e300, np.pi, -np.pi]
    # |x| just below TWO_PI, and either side of the snap at TWO_PI - WRAP_SNAP
    below = np.array([np.nextafter(TWO_PI, 0.0), TWO_PI - WRAP_SNAP])
    below = np.concatenate([below, np.nextafter(below, 0.0), np.nextafter(below, np.inf)])
    # the ends of the quotient-free path, -TWO_PI and 2*TWO_PI, and the
    # step at TWO_PI, each with its neighbours on both sides
    ends = np.array([-TWO_PI, TWO_PI, 2 * TWO_PI, -2 * TWO_PI])
    ends = np.concatenate([ends, np.nextafter(ends, -np.inf), np.nextafter(ends, np.inf)])
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
        edges, below, -below, -tiny, ends,
    ])


def kernel_functions():
    """``(run_stream, wrap_array)`` of the library built from
    ``experiment._KERNEL_SOURCE``, with their argument types set."""
    run = _load_kernel()
    assert run is not None, "the compiled kernel did not load"
    return run, library_wrap_array(experiment._build_kernel())


def library_wrap_array(path):
    """``wrap_array`` of the kernel library at ``path``, with its argument
    types set."""
    wrap_array = ctypes.CDLL(str(path)).wrap_array
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    wrap_array.argtypes = [doubles, ctypes.c_int64, doubles]
    wrap_array.restype = None
    return wrap_array


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


def listed_bitgen(turns):
    """A ``bitgen_t`` whose ``next_double`` returns ``turns`` in order, so
    that a stream loop drawing from it gives photon ``i`` the initial phase
    ``turns[i] * TWO_PI``: chosen phases through the loops' draw. A loop
    takes its address; keep the struct alive while the loop runs."""
    values = iter(np.asarray(turns, np.float64).tolist())
    next_double = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)(lambda _: next(values))
    return _Bitgen(next_double=next_double)


def stream_outcomes(loop, config, turns=None):
    """``(bs1, bs2)`` as filled by ``loop``, the compiled ``run_stream`` or
    anything with its signature, for the stream of ``config`` as
    ``run_mzi`` draws it: the gaps, then the initial phases from the same
    generator, or the configured phase. Given ``turns``, the initial phases
    are ``turns * TWO_PI`` in their place. Both arrays start at -1, so a
    photon the loop skips shows."""
    n, phase = config.photon_count, config.particle_initial_phase
    rng = np.random.default_rng(config.master_seed)
    times = generate_emissions(config.source_rate, n, rng, law=config.inter_arrival_law)
    listed = None if turns is None else listed_bitgen(turns)  # alive until the loop returns
    if listed is not None:
        bitgen = ctypes.addressof(listed)
    elif phase is None:
        bitgen = rng.bit_generator.ctypes.bit_generator
    else:
        bitgen = None
    bs1, bs2 = np.full(n, -1, np.int8), np.full(n, -1, np.int8)
    loop(times, n, bitgen, 0.0 if phase is None else phase, *_stream_params(config), bs1, bs2)
    return bs1, bs2


def test_bitgen_layout_is_numpys():
    # the loops read numpy's bitgen_t through their own copy of its layout;
    # a numpy that moved a slot would fail here, not only in the pins
    rng = np.random.default_rng(3)  # owns the struct read below
    interface = rng.bit_generator.ctypes
    source = ctypes.cast(interface.bit_generator, ctypes.POINTER(_Bitgen)).contents

    def address(pointer):
        return ctypes.cast(pointer, ctypes.c_void_p).value

    assert source.state == interface.state_address
    assert address(source.next_uint64) == address(interface.next_uint64)
    assert address(source.next_uint32) == address(interface.next_uint32)
    assert address(source.next_double) == address(interface.next_double)


@needs_cc
def test_kernel_wrap_equals_wrap_phase_bit_for_bit(fresh_loader):
    # wrap_phase is x % TWO_PI plus the snap; the bits, zero signs included,
    # must match, or a phase somewhere in a stream rounds differently
    x = wrap_cases()
    expected = np.array([wrap_phase(v) for v in x.tolist()])
    got = call_wrap(kernel_functions()[1], x)
    mismatched = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    assert mismatched.size == 0, [(x[i], got[i], expected[i]) for i in mismatched[:5]]
