"""Spans around mzsim's public functions, recorded from outside the program.

``Tracer.install`` replaces every binding of each target function in the
loaded ``mzsim`` modules with a wrapper that records a span (name, id,
parent id, start, end) in memory; ``Tracer.uninstall`` puts the originals
back. A function must be patched wherever the program looks it up: the CLI
calls ``mzsim.cli.fit_sine`` while ``compare_to_qm`` calls
``mzsim.analysis.fit_sine``, so both names are rebound.

The sweep process pool forks its workers, so they inherit the wrappers and
the span stack, and their spans get the enclosing ``run_sweep`` span as
parent. A worker's memory is lost when it exits, so it appends each span to
a file in the spill directory instead; ``collect`` reads those back.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

TARGETS = (
    ("config", "load_config"),
    ("cli", "main"),
    ("experiment", "run_mzi"),
    ("experiment", "run_sweep"),
    ("optics", "generate_emissions"),
    ("analysis", "fit_sine"),
    ("analysis", "compare_to_qm"),
    ("output", "build_record"),
    ("output", "write_csv"),
    ("output", "write_json"),
    ("output", "read_sweep_csv"),
)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _photons(args: tuple, kwargs: dict) -> dict:
    config = _arg(args, kwargs, 0, "config")
    return {"photons": int(getattr(config, "photon_count", 0))}


def _bytes_written(args: tuple, kwargs: dict) -> dict:
    try:
        return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}
    except (OSError, TypeError):
        return {"bytes": 0}


# Counts taken when a span ends, from the call's own arguments.
_COUNTERS = {
    "experiment.run_mzi": _photons,
    "output.write_csv": _bytes_written,
    "output.write_json": _bytes_written,
}


class Tracer:
    def __init__(self, spill_dir: Path) -> None:
        self.owner = os.getpid()
        self.spill_dir = Path(spill_dir)
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.missing: list[str] = []
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr in TARGETS:
            name = f"{module_name}.{attr}"
            original = getattr(importlib.import_module("mzsim." + module_name), attr, None)
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if mod_name != "mzsim" and not mod_name.startswith("mzsim."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = f"{os.getpid()}-{self._next}"
            self._next += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                span = {"name": name, "id": span_id, "parent": parent,
                        "start": start, "end": end}
                if counter is not None:
                    span.update(counter(args, kwargs))
                self._record(span)

        return wrapper

    def _record(self, span: dict) -> None:
        if os.getpid() == self.owner:
            self.spans.append(span)
            return
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(span) + "\n")

    def collect(self) -> list[dict]:
        """All spans since the last collect, from this process and its workers."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()
        return spans


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def aggregate(spans: list[dict]) -> dict[str, dict]:
    """Per function: total time ``s``, ``self_s`` (minus the time child spans
    cover), ``calls``, and the summed counters."""
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out: dict[str, dict] = {}
    for span in spans:
        agg = out.setdefault(
            span["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "photons": 0, "bytes": 0}
        )
        duration = span["end"] - span["start"]
        agg["s"] += duration
        agg["self_s"] += duration - _covered(span["start"], span["end"], children[span["id"]])
        agg["calls"] += 1
        agg["photons"] += span.get("photons", 0)
        agg["bytes"] += span.get("bytes", 0)
    return out
