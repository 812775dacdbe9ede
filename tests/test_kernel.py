"""The compiled stream loop: how it is built, shared and refused.

That it fills the same outcome arrays as the oracle in ``reference.py`` is
checked photon for photon by
``test_experiment.test_stream_loop_matches_interact_reference``; here both
flavours of its phase reduction, ``wrap`` and ``wrap_m``, are checked
against ``phases.wrap_phase`` directly, and a build under the address and
undefined-behaviour sanitizers on the runs at its block edges. It draws the
initial phases by the ``next_double(state)`` of numpy's documented
``BitGenerator.ctypes``, so it declares no numpy struct to check.
"""

import ast
import ctypes
import os
import shutil
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fnmatch import fnmatch
from pathlib import Path

import numpy as np
import pytest

from mzsim import experiment
from mzsim.config import INTER_ARRIVAL_LAWS, ExperimentConfig, config_from_dict
from mzsim.experiment import _counts, _load_kernel, run_mzi, run_sweep
from mzsim.phases import TWO_PI, WRAP_SNAP, wrap_phase

CC = shutil.which("cc")


@pytest.fixture
def fresh_loader():
    _load_kernel.cache_clear()
    yield
    _load_kernel.cache_clear()


# What the error of each failed build says: no compiler, the compile's
# exit status, or the file that stands where the cache directory goes.
# Beyond that, the test checks the compiler's stderr and the directory named.
BUILD_FAILURES = {
    "no-compiler": r"^no C compiler \(cc\) on PATH$",
    "compile-fails": r"returned non-zero exit status 1",
    "cache-not-writable": r"File exists: .*__pycache__",
}


@pytest.mark.parametrize("failure", list(BUILD_FAILURES))
def test_failed_build_is_an_error_naming_its_cause(tmp_path, monkeypatch, fresh_loader, failure):
    cfg = replace(ExperimentConfig(), photon_count=3000, delta=1.5, master_seed=5)
    source = tmp_path / "_kernel.c"  # no cached library beside it
    shutil.copyfile(experiment._KERNEL_SOURCE, source)
    monkeypatch.setattr(experiment, "_KERNEL_SOURCE", source)
    if failure == "no-compiler":
        monkeypatch.setattr(experiment, "_compiler", lambda: None)
    elif failure == "compile-fails":
        # a compiler that prints a diagnostic and 3000 more characters
        fake = tmp_path / "fake-cc"
        fake.write_text(f"#!{sys.executable}\nimport sys\n"
                        "sys.stderr.write('_kernel.c:1:1: error: a diagnostic\\n' + 'x' * 3000)\n"
                        "sys.exit(1)\n")
        fake.chmod(0o755)
        monkeypatch.setattr(experiment, "_compiler", lambda: str(fake))
    else:
        (tmp_path / "__pycache__").write_text("")  # a file where the cache goes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OSError, match=BUILD_FAILURES[failure]) as raised:
            run_mzi(cfg)
        if failure == "compile-fails":  # the start of the compiler's stderr, 2000 characters
            said = str(raised.value).split("\n", 1)[1]
            assert said == "_kernel.c:1:1: error: a diagnostic\n" + "x" * 1965
        elif failure == "cache-not-writable":
            assert str(raised.value).startswith(
                f"the kernel cache directory {tmp_path / '__pycache__'} cannot be written: ")
    assert caught == []
    assert [p.name for p in tmp_path.rglob("*") if p.suffix in (".so", ".tmp")] == []


def test_concurrent_first_compile_leaves_one_library(tmp_path):
    # Three fresh interpreters, no cached library: all compile at once.
    pkg = tmp_path / "mzsim"
    shutil.copytree(
        Path(experiment.__file__).parent, pkg, ignore=shutil.ignore_patterns("__pycache__")
    )
    script = (
        "from dataclasses import replace\n"
        "from mzsim.config import ExperimentConfig\n"
        "from mzsim.experiment import _counts, _load_kernel\n"
        "assert _load_kernel() is not None\n"
        "print(_counts(replace(ExperimentConfig(), photon_count=3000, delta=1.5)))\n"
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


def test_cold_parallel_sweep_compiles_once(tmp_path, monkeypatch, fresh_loader):
    # Two worker threads load the kernel at once from a cold cache: the
    # second waits for the first one's library instead of compiling its own.
    cfg = replace(ExperimentConfig(), photon_count=500, master_seed=9)
    deltas = [0.0, 0.8, 1.6, 2.4, 3.2, 4.0]
    serial = run_sweep(cfg, deltas)
    _load_kernel.cache_clear()
    source = tmp_path / "_kernel.c"  # no cached library beside it
    shutil.copyfile(experiment._KERNEL_SOURCE, source)
    monkeypatch.setattr(experiment, "_KERNEL_SOURCE", source)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    compiles = []
    real_run = subprocess.run

    def counting_run(*args, **kwargs):
        compiles.append(args[0])
        return real_run(*args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting_run)
    assert run_sweep(cfg, deltas, jobs=2) == serial
    assert len(compiles) == 1
    assert [p.name for p in (tmp_path / "__pycache__").iterdir()] == [
        experiment._build_kernel().name
    ]

    # More threads than cores, switching every microsecond, released at once.
    _load_kernel.cache_clear()
    (tmp_path / "__pycache__" / experiment._build_kernel().name).unlink()
    barrier = threading.Barrier(6)

    def load():
        barrier.wait(timeout=60)
        return _load_kernel()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            for future in [pool.submit(load) for _ in range(6)]:
                future.result(timeout=120)  # raises what that load raised
    finally:
        sys.setswitchinterval(interval)
    assert len(compiles) == 2


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


def test_kernel_compiles_without_warnings(tmp_path):
    done = subprocess.run(
        [CC, *experiment._CFLAGS, "-Wall", "-Wextra", "-Wconversion", "-Wdouble-promotion",
         "-Wshadow", "-Werror",
         "-o", str(tmp_path / "kernel.so"), str(experiment._KERNEL_SOURCE), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


def compiler_runtime(name):
    """The path of the C compiler's runtime library ``name``, or None where
    it has none (``-print-file-name`` then echoes the bare name)."""
    done = subprocess.run([CC, f"-print-file-name={name}"], capture_output=True, text=True,
                          timeout=60)
    path = Path(done.stdout.strip())
    return path if path.is_absolute() and path.is_file() else None


# Settings under which the loop's phase reductions take every arm of wrap:
# at source rate 0.05 most clock steps nu*gap pass 4*pi (fmod), negative
# update weights make a*p + b*s negative or past 2*pi, and BS2 at a nonzero
# frequency makes lag2 nonzero. In config_from_dict's form.
EVERY_ARM = {
    "source_rate": 0.05,
    "bs1": {"frequency": 1.0, "update_alpha": -0.5, "update_beta": 1.5},
    "bs2": {"frequency": 0.7, "update_alpha": -0.5, "update_beta": 1.5},
}

# Runs at the edges of the kernel's blocks of 512 phases, for each law, with
# drawn phases and with a fixed one, in the default setup and under
# EVERY_ARM; each a config_from_dict argument.
BLOCK_EDGE_RUNS = [
    {**setup, "photon_count": n, "inter_arrival_law": law, "particle_initial_phase": phase,
     "delta": 1.3}
    for setup in ({}, EVERY_ARM) for n in (1, 511, 512, 513, 2000)
    for law in INTER_ARRIVAL_LAWS for phase in (None, 7.0)
]


def test_kernel_runs_clean_under_the_address_and_undefined_behaviour_sanitizers(tmp_path):
    # An out-of-bounds access or undefined arithmetic in run_stream aborts
    # the sanitized build's process; its counts must still be the kernel's.
    runtimes = [compiler_runtime(name) for name in ("libasan.so", "libubsan.so")]
    if None in runtimes:
        pytest.skip("the C compiler has no libasan or libubsan")
    lib = tmp_path / "_kernel-sanitized.so"
    done = subprocess.run(
        [CC, *experiment._CFLAGS, "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-o", str(lib), str(experiment._KERNEL_SOURCE), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    script = (
        "import ast, sys\n"
        "from pathlib import Path\n"
        "from mzsim import experiment\n"
        "from mzsim.config import config_from_dict\n"
        "experiment._build_kernel = lambda: Path(sys.argv[1])\n"
        "for run in ast.literal_eval(sys.argv[2]):\n"
        "    print(experiment._counts(config_from_dict(run)))\n"
    )
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(experiment.__file__).parents[1]),
        "LD_PRELOAD": ":".join(map(str, runtimes)),
        "ASAN_OPTIONS": "detect_leaks=0",  # the interpreter's own, not the kernel's
    }
    done = subprocess.run(
        [sys.executable, "-c", script, str(lib), repr(BLOCK_EDGE_RUNS)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert done.stderr == ""
    expected = [_counts(config_from_dict(run)) for run in BLOCK_EDGE_RUNS]
    assert done.stdout.splitlines() == [str(counts) for counts in expected]


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


def library_wrap_array(path, name="wrap_array"):
    """``wrap_array`` (the loop's ``wrap``), or the array function ``name``
    such as ``wrap_masked_array`` (its ``wrap_m``), of the kernel library at
    ``path``, with its argument types set."""
    wrap_array = getattr(ctypes.CDLL(str(path)), name)
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    wrap_array.argtypes = [doubles, ctypes.c_int64, doubles]
    wrap_array.restype = None
    return wrap_array


def call_wrap(wrap_array, x):
    out = np.empty_like(x)
    wrap_array(x, x.size, out)
    return out


def assert_same_run(a, b):
    """Photon for photon, equal arrays of the same shape and dtype: the
    ``(emissions, bs1, bs2)`` of two :func:`run_mzi` runs, or the same
    leading part of each."""
    for x, y in zip(a, b, strict=True):
        np.testing.assert_array_equal(x, y, strict=True)


def test_kernel_wrap_equals_wrap_phase_bit_for_bit():
    # wrap_phase is x % TWO_PI plus the snap; the bits, zero signs included,
    # must match for both flavours the loop uses, the branching wrap and the
    # masked wrap_m, or a phase somewhere in a stream rounds differently
    x = wrap_cases()
    expected = np.array([wrap_phase(v) for v in x.tolist()])
    for name in ("wrap_array", "wrap_masked_array"):
        got = call_wrap(library_wrap_array(experiment._build_kernel(), name), x)
        mismatched = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
        assert mismatched.size == 0, [(name, x[i], got[i], expected[i]) for i in mismatched[:5]]
