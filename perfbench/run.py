"""Benchmark of the mzsim command line, driven from outside the program.

    python3 perfbench/run.py --workload sweep-ref --seed 42 --seconds 55 --trace 0

Each run starts fresh interpreters (``child.py``) that import ``mzsim.cli``
from ``src/`` of the checkout this file sits in: several that only time the
set-up, then one that calls ``mzsim.cli.main(argv)`` in a closed loop (one
client, the next operation starts when the previous one ends) for
``--seconds``. Every operation's output is then checked (see
``workloads.py``); an operation fails if it raises, returns non-zero or fails
the check.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` operations alternate untraced and traced, and it carries the
per-layer metrics from spans recorded around mzsim's public functions (see
``tracer.py``). The line before it holds the machine block; stderr gets a
readable table. ``--smoke`` runs tiny inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0
SETUP_PROBES = 6  # plus the operating child's own set-up time
PINS = json.loads((HERE / "pins.json").read_text())

END_TO_END_UNITS = {
    "op_s_p50": "s", "op_s_p90": "s", "photons_per_s": "1/s", "rows_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "experiment.run_mzi.self_s": "s",
    "experiment.run_mzi.ns_per_photon": "ns",
    "experiment.run_mzi.calls": "count",
    "experiment.photons": "count",
    "optics.generate_emissions.s": "s",
    "experiment.run_sweep.self_s": "s",
    "experiment.worker_cpu_s": "s",
    "experiment.pool_util": "ratio",
    "experiment.worker_peak_rss_mb": "MB",
    "analysis.fit_sine.s": "s",
    "analysis.fit_sine.calls": "count",
    "analysis.compare_to_qm.self_s": "s",
    "output.write_json.s": "s",
    "output.write_csv.s": "s",
    "output.read_sweep_csv.s": "s",
    "output.build_record.s": "s",
    "output.bytes_written": "bytes",
    "config.load_config.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "failed_frac": "ratio",
}

# ROADMAP "Measured baseline" rows, hand-timed on the reference config:
# (label, value, unit, workload, metric that should reproduce it).
BASELINE = (
    ("stream prep per 1e5 (generate_emissions)", 8.6, "ms", "sweep-ref", "gen_ms_per_1e5"),
    ("mzi loop per 1e5 photons", 91.0, "ms", "sweep-ref", "mzi_ms_per_1e5"),
    ("mzi + trace per 1e5 photons", 267.0, "ms", "mzi-trace", "mzi_ms_per_1e5"),
    ("run_sweep 50 x 1e5, serial", 4.80, "s", "sweep-ref", "run_sweep_s"),
    ("run_sweep 5e6 photons, jobs=2", 2.79, "s", "sweep-par", "run_sweep_s"),
    ("fit_sine, 50 points", 18.0, "ms", "sweep-ref", "fit_ms"),
    ("write_csv, 50 points", 0.7, "ms", "sweep-ref", "write_csv_ms"),
)


def _loadavg() -> list[float]:
    with open("/proc/loadavg", encoding="ascii") as fh:
        return [float(v) for v in fh.read().split()[:3]]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _child(args: list[str], timeout: float) -> str:
    """Run child.py in its own process group; return its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), repr(t0), workloads.STRONG_CONFIG, *args],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
        env={**os.environ, "PYTHONHASHSEED": "0"},
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"child.py exited with code {proc.returncode}")
    return out


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _end_to_end(wl: workloads.Workload, ops: list[dict], report: dict,
                setup: list[float]) -> dict[str, float]:
    walls = [op["wall"] for op in ops]
    total = sum(walls)
    return {
        "op_s_p50": statistics.median(walls),
        "op_s_p90": _p90(walls),
        "photons_per_s": sum(wl.photons[op["template"]] for op in ops) / total,
        "rows_per_s": sum(wl.rows[op["template"]] for op in ops) / total,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(report["maxrss_self_kb"], report["maxrss_children_kb"]) / 1024,
    }


def _per_layer(wl: workloads.Workload, ops: list[dict], report: dict,
               failed: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics (per traced op) and the figures of the baseline table."""
    traced = [op for op in ops if op["traced"]]

    def per_op(name: str, key: str) -> float:
        return sum(op["layers"].get(name, {}).get(key, 0) for op in traced) / len(traced)

    mzi_self = per_op("experiment.run_mzi", "self_s")
    photons = per_op("experiment.run_mzi", "photons")
    sweep_s = per_op("experiment.run_sweep", "s")
    worker_cpu = sum(op["worker_cpu_s"] for op in traced) / len(traced)
    ratios = [b["wall"] / a["wall"] for a, b in zip(ops[::2], ops[1::2])]
    metrics = {
        "experiment.run_mzi.self_s": mzi_self,
        "experiment.run_mzi.ns_per_photon": mzi_self / photons * 1e9 if photons else 0.0,
        "experiment.run_mzi.calls": per_op("experiment.run_mzi", "calls"),
        "experiment.photons": photons,
        "optics.generate_emissions.s": per_op("optics.generate_emissions", "s"),
        "experiment.run_sweep.self_s": per_op("experiment.run_sweep", "self_s"),
        "experiment.worker_cpu_s": worker_cpu,
        "experiment.pool_util":
            worker_cpu / (wl.jobs * sweep_s) if wl.jobs > 1 and sweep_s else 0.0,
        "experiment.worker_peak_rss_mb": report["maxrss_children_kb"] / 1024,
        "analysis.fit_sine.s": per_op("analysis.fit_sine", "s"),
        "analysis.fit_sine.calls": per_op("analysis.fit_sine", "calls"),
        "analysis.compare_to_qm.self_s": per_op("analysis.compare_to_qm", "self_s"),
        "output.write_json.s": per_op("output.write_json", "s"),
        "output.write_csv.s": per_op("output.write_csv", "s"),
        "output.read_sweep_csv.s": per_op("output.read_sweep_csv", "s"),
        "output.build_record.s": per_op("output.build_record", "s"),
        "output.bytes_written":
            per_op("output.write_json", "bytes") + per_op("output.write_csv", "bytes"),
        "config.load_config.s": per_op("config.load_config", "s"),
        "cli.main.self_s": per_op("cli.main", "self_s"),
        "trace.overhead_frac": statistics.median(ratios) - 1.0,
        "failed_frac": failed / len(ops),
    }
    fit_calls = metrics["analysis.fit_sine.calls"]
    csv_calls = per_op("output.write_csv", "calls")
    figures = {
        "gen_ms_per_1e5": metrics["optics.generate_emissions.s"] / photons * 1e8 if photons else None,
        "mzi_ms_per_1e5": mzi_self / photons * 1e8 if photons else None,
        "run_sweep_s": sweep_s or None,
        "fit_ms": metrics["analysis.fit_sine.s"] / fit_calls * 1e3 if fit_calls else None,
        "write_csv_ms": metrics["output.write_csv.s"] / csv_calls * 1e3 if csv_calls else None,
        "op_s": sum(op["wall"] for op in traced) / len(traced),
    }
    return metrics, figures


def _print_table(name: str, metrics: dict, units: dict, ops: int) -> None:
    print(f"{name}: {ops} ops", file=sys.stderr)
    for key, value in metrics.items():
        print(f"  {key:36s} {value:14.6g} {units[key]}", file=sys.stderr)


def _print_cross_check(workload: str, jobs: int, figures: dict, metrics: dict) -> None:
    op_s = figures["op_s"]
    note = f" (pool work summed over {jobs} workers)" if jobs > 1 else ""
    print(f"share of traced op time{note}:", file=sys.stderr)
    for key in ("experiment.run_mzi.self_s", "analysis.fit_sine.s",
                "output.write_json.s", "output.read_sweep_csv.s"):
        print(f"  {key:36s} {metrics[key] / op_s:8.1%}", file=sys.stderr)
    rows = [row for row in BASELINE if row[3] == workload]
    if rows:
        print("ROADMAP measured baseline vs this run:", file=sys.stderr)
    for label, value, unit, _, key in rows:
        got = figures[key]
        if got is None:
            print(f"  {label:40s} {value:8.3g} {unit:2s}  not measured", file=sys.stderr)
            continue
        ratio = got / value
        flag = "  OFF BY MORE THAN 2x" if not 0.5 <= ratio <= 2.0 else ""
        print(f"  {label:40s} {value:8.3g} {unit:2s}  measured {got:8.3g} {unit:2s}"
              f"  ({ratio:.2f}x){flag}", file=sys.stderr)


def run(args: argparse.Namespace, work: Path) -> int:
    smoke = args.smoke
    seed = args.seed % 2**64
    load_before = _loadavg()
    started = time.perf_counter()
    wl = workloads.build(args.workload, seed, work, PINS, smoke)

    def remaining() -> float:
        return max(5.0, DEADLINE_S - (time.perf_counter() - started))

    setup = []
    if not args.trace:
        _child([], remaining())  # compiles bytecode and warms the file cache
        for _ in range(2 if smoke else SETUP_PROBES):
            setup.append(float(_child([], remaining())))

    plan = {
        "templates": wl.templates, "warmup": wl.warmup, "seconds": args.seconds,
        "trace": bool(args.trace), "work": str(work), "report": str(work / "report.json"),
    }
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    _child([str(plan_path)], remaining())
    report = json.loads((work / "report.json").read_text())
    load_after = _loadavg()
    setup.append(report["setup_s"])

    ops = report["ops"]
    failures = []
    for op in ops:
        if op["error"] or any(code != 0 for code in op["codes"]):
            reason = op["error"] or f"exit codes {op['codes']}"
        else:
            reason = wl.check(op["template"], op["i"])
        if reason:
            failures.append(f"op {op['i']}: {reason}")
    failed = len(failures)

    if args.trace:
        metrics, figures = _per_layer(wl, ops, report, failed)
        units = PER_LAYER_UNITS
    else:
        metrics = _end_to_end(wl, ops, report, setup)
        units = END_TO_END_UNITS
    nproc = os.cpu_count() or 1
    machine = {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": report["numpy"],
        "git_revision": _git_revision(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        # Our own busy processes count in the load average after the run.
        "loaded": load_before[0] > nproc or load_after[0] - wl.jobs > nproc,
    }

    _print_table(args.workload, metrics, units, len(ops))
    if args.trace and not smoke:
        _print_cross_check(args.workload, wl.jobs, figures, metrics)
    if report["untraced_functions"]:
        print(f"not found, so not traced: {report['untraced_functions']}", file=sys.stderr)
    if not args.trace:
        print(f"  failed_frac {failed / len(ops):.6g} ratio", file=sys.stderr)
    for line in failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    if machine["loaded"]:
        print(f"warning: load average above {nproc} cores; this run is flagged",
              file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": smoke,
        "machine": machine, "ops": len(ops), "op_walls_s": [op["wall"] for op in ops],
        "setup_samples_s": setup, "failures": failures,
    }
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=PINS["default_seed"])
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, no pinned digests (for the benchmark's tests)")
    args = parser.parse_args()

    if not (ROOT / "src" / "mzsim" / "cli.py").is_file():
        print(f"error: no mzsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    work = HERE / ".work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        return run(args, work)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass


if __name__ == "__main__":
    raise SystemExit(main())
