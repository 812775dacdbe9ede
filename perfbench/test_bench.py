"""Tests of the benchmark itself, in smoke mode (tiny inputs, ~3 s a run).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads
from tracer import aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("analysis.fit_sine.calls", "experiment.run_mzi.calls", "experiment.photons",
          "output.bytes_written")


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    res = result(bench(workload, trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", ["sweep-ref", "sweep-par"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (result(bench(workload, 1))["metrics"] for _ in range(2))
    assert [first[k]["value"] for k in COUNTS] == [second[k]["value"] for k in COUNTS]
    assert first["analysis.fit_sine.calls"]["value"] == 2
    assert first["experiment.run_mzi.calls"]["value"] == 20


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = bench("sweep-ref", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_bad_output_fails_the_check(tmp_path):
    wl = workloads.build("sweep-ref", 5, tmp_path, {"default_seed": 42}, smoke=True)
    (tmp_path / "op-0.csv").write_text("delta,d1,d2\n0.0,1,1\n")
    (tmp_path / "op-0-0.out").write_text("")
    assert "header" in wl.check(0, 0)
    pins = {"default_seed": 5, "sweep-ref": {"csv_sha256": "0" * 64}}
    pinned = workloads.build("sweep-ref", 5, tmp_path, pins, smoke=False)
    assert "pinned" in pinned.check(0, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"name": "a", "id": "1", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "b", "id": "2", "parent": "1", "start": 1.0, "end": 4.0},
        {"name": "b", "id": "3", "parent": "1", "start": 3.0, "end": 5.0},
        {"name": "c", "id": "4", "parent": "3", "start": 3.5, "end": 4.5},
    ]
    agg = aggregate(spans)
    assert agg["a"]["self_s"] == pytest.approx(6.0)
    assert agg["b"]["s"] == pytest.approx(5.0) and agg["b"]["calls"] == 2
    assert agg["b"]["self_s"] == pytest.approx(4.0)
