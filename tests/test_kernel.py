"""The compiled stream loop: how it is built, shared and replaced.

That its outcomes equal the Python loop's is checked photon for photon by
``test_experiment.test_stream_loop_matches_interact_reference``.
"""

import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from fnmatch import fnmatch
from pathlib import Path

import pytest

from mzsim import experiment
from mzsim.config import ExperimentConfig
from mzsim.experiment import _load_kernel, run_mzi

CC = shutil.which("cc")


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
    expected = run_mzi(cfg, trace=True)
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
        first = run_mzi(cfg, trace=True)
        second = run_mzi(cfg, trace=True)
    assert _load_kernel() is None
    assert first == expected
    assert second == expected
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "Python loop" in str(caught[0].message)
    assert [p.name for p in tmp_path.rglob("*") if p.suffix in (".so", ".tmp")] == []


@pytest.mark.skipif(CC is None, reason="no C compiler (cc) on PATH")
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
    assert outputs[0][0].startswith("DetectorCounts(d1=")
    left = [p.name for p in (pkg / "__pycache__").iterdir()]
    assert len(left) == 1 and fnmatch(left[0], "_kernel-*.so"), left


@pytest.mark.skipif(CC is None, reason="no C compiler (cc) on PATH")
def test_kernel_compiles_without_warnings(tmp_path):
    done = subprocess.run(
        [CC, *experiment._CFLAGS, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "kernel.so"), str(experiment._KERNEL_SOURCE), "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
