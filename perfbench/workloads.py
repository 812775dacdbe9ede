"""The four benchmark workloads: their inputs, their operations, and the
checks on each operation's output.

Every workload calls ``mzsim.cli.main`` with the workload seed as the
program's ``--seed`` (analyze-many instead gets CSVs generated from it).
With the default seed and full size, outputs must match the digests pinned
in ``pins.json``; with any other seed, or in smoke mode, they must satisfy
the invariants below.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

STRONG_CONFIG = "configs/strong_interference.json"
CSV_HEADER = "delta,d1,d2,d1_fraction,ci_lo,ci_hi"
NU = 1.0  # particle frequency of the default and the strong config
MIN_R_SQUARED = 0.9
MAX_PERIOD_ERROR = 0.05
ANALYZE_PHOTONS = 50_000  # photon_count of the strong config


@dataclass
class Workload:
    """``templates[k]`` is one operation: a list of ``cli.main`` argvs.
    ``photons[k]`` and ``rows[k]`` are the work one operation of template
    ``k`` does. ``check(template, i)`` returns None, or why op ``i`` (run
    from ``template``) failed, from the files it left in the work directory."""

    name: str
    templates: list[list[list[str]]]
    warmup: list[list[str]]
    photons: list[int]
    rows: list[int]
    jobs: int
    check: Callable[[int, int], str | None]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fields(line: str) -> dict[str, str]:
    return dict(re.findall(r"(\w+)=(\S+)", line))


def _line(text: str, prefix: str) -> str | None:
    return next((ln for ln in text.splitlines() if ln.startswith(prefix)), None)


def _check_fit(text: str) -> str | None:
    """The ``fit:`` line of sweep/analyze stdout: R^2 and fringe period."""
    line = _line(text, "fit: amplitude=")
    if line is None:
        return "no fit line in stdout"
    f = _fields(line)
    r2, w = float(f["r_squared"]), float(f["angular_frequency"])
    if not r2 >= MIN_R_SQUARED:
        return f"fit r_squared {r2} < {MIN_R_SQUARED}"
    if not (w > 0 and abs(NU / w - 1.0) <= MAX_PERIOD_ERROR):
        return f"fitted period 2*pi/{w} is more than 5% from 2*pi/{NU}"
    return None


def _check_sweep_csv(data: bytes, steps: int, photons: int) -> str | None:
    lines = data.decode().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return f"CSV header {lines[:1]!r}"
    rows = list(csv.reader(lines[1:]))
    if len(rows) != steps:
        return f"{len(rows)} CSV rows, expected {steps}"
    for row in rows:
        d1, d2 = int(row[1]), int(row[2])
        if d1 + d2 != photons or float(row[3]) != d1 / photons:
            return f"row {row!r} does not add up to {photons} photons"
    if float(rows[0][0]) != 0.0 or not math.isclose(float(rows[-1][0]), 4 * math.pi / NU):
        return "sweep does not span two fringe periods"
    return None


def _sweep(name: str, seed: int, work: Path, pin: dict | None, *, steps: int,
           photons: int, jobs: int, config: str | None) -> Workload:
    argv = ["sweep", "--steps", str(steps), "--photons", str(photons), "--seed", str(seed)]
    if config:
        argv += ["--config", config]
    if jobs > 1:
        argv += ["--parallel", str(jobs)]
    warmup = ["sweep", "--steps", "8", "--photons", "500"] + argv[5:]
    verified: dict[str, str | None] = {}

    def check(template: int, i: int) -> str | None:
        data = (work / f"op-{i}.csv").read_bytes()
        digest = sha256(data)
        if pin is not None and digest != pin["csv_sha256"]:
            return f"CSV sha256 {digest} != pinned {pin['csv_sha256']}"
        if digest not in verified:
            verified[digest] = _check_sweep_csv(data, steps, photons)
        return verified[digest] or _check_fit((work / f"op-{i}-0.out").read_text())

    return Workload(
        name, [[argv + ["--out", str(work / "op-{i}.csv")]]],
        [warmup + ["--out", str(work / "warmup.csv")]],
        [steps * photons], [steps], jobs, check,
    )


_TIMESTAMP_LINE = re.compile(rb'\n[ \t]*"timestamp": "[^"\n]*",?(?=\n)')


def _check_trace_record(data: bytes, photons: int) -> tuple[str | None, dict]:
    record = json.loads(data)
    (point,) = record["points"]
    d1, d2 = point["d1"], point["d2"]
    trace = record["trace"]
    seen = {"d1": d1, "d2": d2,
            "trace_sha256": sha256(json.dumps(trace, separators=(",", ":")).encode())}
    if d1 + d2 != photons or len(trace) != photons:
        return f"d1 + d2 = {d1 + d2}, {len(trace)} trace rows; expected {photons}", seen
    last = -math.inf
    reflected = 0
    for t, first, path, second in trace:
        if (t < last or (first, path) not in (("reflect", "path1"), ("transmit", "path2"))
                or second not in ("reflect", "transmit")):
            return f"bad trace row {[t, first, path, second]!r}", seen
        last = t
        reflected += second == "reflect"
    if reflected != d1:
        return f"{reflected} trace rows reach D1 but d1 = {d1}", seen
    return None, seen


def _mzi_trace(seed: int, work: Path, pin: dict | None, *, photons: int) -> Workload:
    argv = ["mzi", "--trace", "--photons", str(photons), "--delta", "1.5",
            "--format", "json", "--seed", str(seed)]
    warmup = argv[:3] + ["1000"] + argv[4:]
    verified: dict[str, str | None] = {}

    def check(template: int, i: int) -> str | None:
        path = work / f"op-{i}.json"
        data = path.read_bytes()
        # Ops differ only in the JSON timestamp; parse once per distinct rest.
        key = sha256(_TIMESTAMP_LINE.sub(b"", data))
        path.unlink()
        if key not in verified:
            reason, seen = _check_trace_record(data, photons)
            if reason is None and pin is not None and seen != pin:
                reason = f"trace record {seen} != pinned {pin}"
            verified[key] = reason
        stdout = (work / f"op-{i}-0.out").read_text()
        return verified[key] or (None if stdout.startswith("mzi: photons=") else "bad stdout")

    return Workload(
        "mzi-trace", [[argv + ["--out", str(work / "op-{i}.json")]]],
        [warmup + ["--out", str(work / "warmup.json")]],
        [photons], [photons], 1, check,
    )


def _bitrev(k: int, bits: int) -> int:
    return int(format(k, f"0{bits}b")[::-1], 2)


def write_sweep_csvs(seed: int, work: Path, count_bits: int, lo: int, hi: int) -> list[list[float]]:
    """``2**count_bits`` synthetic sweep CSVs in the program's format.

    Sizes run evenly from ``lo`` to ``hi`` rows, in bit-reversed order so
    that every prefix of the list has a similar mix of sizes. The fringe's
    offset, amplitude and phase and the binomial noise come from ``seed``.
    Returns each file's d1 fractions.
    """
    rng = random.Random(seed)
    z = NormalDist().inv_cdf(0.975)
    n = ANALYZE_PHOTONS
    count = 2 ** count_bits
    fractions = []
    for k in range(count):
        rows = lo + (hi - lo) * _bitrev(k, count_bits) // (count - 1)
        offset, amplitude = rng.uniform(0.45, 0.55), rng.uniform(0.2, 0.3)
        phase = rng.uniform(0.0, 2 * math.pi)
        span = 4 * math.pi / NU
        lines = [CSV_HEADER]
        fracs = []
        for r in range(rows):
            delta = span * r / (rows - 1)
            p = offset + amplitude * math.cos(NU * delta + phase)
            d1 = min(n, max(0, round(n * p + rng.gauss(0.0, math.sqrt(n * p * (1 - p))))))
            frac = d1 / n
            half = z * math.sqrt(frac * (1 - frac) / n)
            lines.append(f"{delta!r},{d1},{n - d1},{frac!r},"
                         f"{max(0.0, frac - half)!r},{min(1.0, frac + half)!r}")
            fracs.append(frac)
        (work / f"sweep-{k}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        fractions.append(fracs)
    return fractions


def _check_analyze(text: str, fracs: list[float]) -> str | None:
    reason = _check_fit(text)
    if reason:
        return reason
    lines = text.splitlines()
    vis = (max(fracs) - min(fracs)) / (max(fracs) + min(fracs))
    if lines[1] != f"visibility: {vis:.6f}":
        return f"{lines[1]!r}, expected visibility {vis:.6f}"
    if lines[2] != "delta,d1_fraction,ci_lo,ci_hi" or len(lines) != 3 + len(fracs):
        return "analyze table has the wrong header or row count"
    return None


def _check_compare(text: str) -> str | None:
    line = _line(text, "period: fitted=")
    if line is None:
        return "no fitted period in compare-qm stdout"
    err = float(_fields(line)["relative_error"])
    return None if err <= MAX_PERIOD_ERROR else f"period relative_error {err} > 5%"


def _analyze_many(seed: int, work: Path, pin: dict | None, *, count_bits: int,
                  lo: int, hi: int) -> Workload:
    fractions = write_sweep_csvs(seed, work, count_bits, lo, hi)
    templates = []
    for k in range(len(fractions)):
        path = str(work / f"sweep-{k}.csv")
        templates.append([["analyze", path], ["compare-qm", "--config", STRONG_CONFIG, path]])

    def check(template: int, i: int) -> str | None:
        analyze = (work / f"op-{i}-0.out").read_text()
        compare = (work / f"op-{i}-1.out").read_text()
        if pin is not None:
            digest = sha256((analyze + compare).encode())
            want = pin["stdout_sha256"][template]
            return None if digest == want else f"stdout sha256 {digest} != pinned {want}"
        return _check_analyze(analyze, fractions[template]) or _check_compare(compare)

    rows = [len(f) for f in fractions]
    return Workload(
        "analyze-many", templates, templates[0], [r * ANALYZE_PHOTONS for r in rows], rows,
        1, check,
    )


NAMES = ("sweep-ref", "mzi-trace", "analyze-many", "sweep-par")


def build(name: str, seed: int, work: Path, pins: dict, smoke: bool) -> Workload:
    """The workload ``name`` for ``seed``; inputs are written under ``work``."""
    pin = None if smoke or seed != pins["default_seed"] else pins[name]
    if name == "sweep-ref":
        return _sweep(name, seed, work, pin, steps=20 if smoke else 50,
                      photons=2000 if smoke else 100_000, jobs=1, config=None)
    if name == "sweep-par":
        return _sweep(name, seed, work, pin, steps=20 if smoke else 100,
                      photons=2000 if smoke else 50_000, jobs=2, config=STRONG_CONFIG)
    if name == "mzi-trace":
        return _mzi_trace(seed, work, pin, photons=5000 if smoke else 500_000)
    if name == "analyze-many":
        if smoke:
            return _analyze_many(seed, work, pin, count_bits=3, lo=40, hi=120)
        return _analyze_many(seed, work, pin, count_bits=7, lo=200, hi=1000)
    raise ValueError(f"unknown workload {name!r}")
