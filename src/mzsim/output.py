"""Result records and their CSV / JSON serialization.

The CSV table is the plotting contract: exactly the columns
``delta,d1,d2,d1_fraction,ci_lo,ci_hi``, one row per sweep point, floats at
full (round-trippable) precision. JSON carries the complete record including
config echo and provenance; the timestamp lives only in the JSON form, so
identical runs produce byte-identical CSV files.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import binomial_ci
from .config import ExperimentConfig, config_to_dict
from .experiment import Outcome, SweepPoint
from .optics import DetectorCounts

SCHEMA_VERSION = "1"
CSV_COLUMNS = ("delta", "d1", "d2", "d1_fraction", "ci_lo", "ci_hi")
CHILD_SEED_FUNCTION = "splitmix64"


@dataclass(frozen=True)
class OutputRecord:
    schema_version: str
    kind: str  # "single-bs" | "mzi" | "sweep"
    config: ExperimentConfig
    points: tuple[SweepPoint, ...]
    analysis: dict | None
    provenance: dict
    trace: tuple[Outcome, ...] | None = None


def build_record(
    kind: str,
    config: ExperimentConfig,
    points: list[SweepPoint] | tuple[SweepPoint, ...],
    analysis: dict | None = None,
    trace: tuple[Outcome, ...] | None = None,
    timestamp: str | None = None,
) -> OutputRecord:
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    provenance = {
        "master_seed": config.master_seed,
        "child_seed_function": CHILD_SEED_FUNCTION,
        "build": f"mzsim {__version__} / numpy {np.__version__}",
        "timestamp": timestamp,
    }
    return OutputRecord(
        SCHEMA_VERSION, kind, config, tuple(points), analysis, provenance, trace
    )


def record_to_dict(record: OutputRecord) -> dict:
    """The JSON form of a record. A trace row is
    ``[emitted_at, "reflect"|"transmit", "path1"|"path2", "reflect"|"transmit"|null]``:
    the BS1 outcome, the path it implies, and the BS2 outcome (null for
    single-bs runs)."""
    data = {
        "schema_version": record.schema_version,
        "kind": record.kind,
        "config": config_to_dict(record.config),
        "points": [
            {
                "delta": p.delta,
                "d1": p.counts.d1,
                "d2": p.counts.d2,
                "d1_fraction": p.d1_fraction,
            }
            for p in record.points
        ],
        "analysis": record.analysis,
        "provenance": record.provenance,
    }
    if record.trace is not None:
        data["trace"] = [
            [
                t,
                "reflect" if first else "transmit",
                "path1" if first else "path2",
                None if second is None else "reflect" if second else "transmit",
            ]
            for t, first, second in record.trace
        ]
    return data


def write_json(record: OutputRecord, path: str | os.PathLike) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(record_to_dict(record), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_csv(
    record: OutputRecord, path: str | os.PathLike, confidence: float = 0.95
) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for p in record.points:
                ci = binomial_ci(p.counts.d1, p.counts.total, confidence)
                writer.writerow(
                    [
                        repr(p.delta),
                        p.counts.d1,
                        p.counts.d2,
                        repr(p.d1_fraction),
                        repr(ci.lo),
                        repr(ci.hi),
                    ]
                )
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_sweep_csv(path: str | os.PathLike) -> list[SweepPoint]:
    """Read back a results table written by :func:`write_csv`.

    Every row must have all six fields, a positive total count, and a
    ``d1_fraction`` equal to ``d1/(d1+d2)``; anything else is a ValueError.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != CSV_COLUMNS:
                raise ValueError(f"{path} is not a results table (header {header!r})")
            points = []
            for row in reader:
                if not row:
                    continue
                where = f"{path} line {reader.line_num}"
                if len(row) != len(CSV_COLUMNS):
                    raise ValueError(f"{where}: expected {len(CSV_COLUMNS)} fields, got {len(row)}")
                d1, d2 = int(row[1]), int(row[2])
                if d1 < 0 or d2 < 0 or d1 + d2 == 0:
                    raise ValueError(f"{where}: counts d1={d1}, d2={d2} are not a sample")
                point = SweepPoint(float(row[0]), DetectorCounts(d1, d2))
                if float(row[3]) != point.d1_fraction:
                    raise ValueError(
                        f"{where}: d1_fraction {row[3]} is not d1/(d1+d2) = {point.d1_fraction!r}"
                    )
                points.append(point)
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if not points:
        raise ValueError(f"{path} contains no data rows")
    return points
