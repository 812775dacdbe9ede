"""Result records and their CSV / JSON serialization.

The CSV table is the plotting contract: exactly the columns
``delta,d1,d2,d1_fraction,ci_lo,ci_hi``, one row per sweep point, floats at
full (round-trippable) precision. It is written from the same ``(delta, d1,
d2)`` rows it is read back as. JSON carries the complete record: those rows
as its points, config echo, a sweep's fit, and provenance; the timestamp
lives only in the JSON form, so identical runs give byte-identical CSV files.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analysis import QmComparison, SineFit, binomial_ci
from .config import _SHOWN, MAX_PHOTONS, ExperimentConfig, _brief

SCHEMA_VERSION = "2"
CSV_COLUMNS = ("delta", "d1", "d2", "d1_fraction", "ci_lo", "ci_hi")
CHILD_SEED_FUNCTION = "splitmix64"


def _parse_error(row: list[str], exc: ValueError) -> str:
    """What to say of a row that raised ``exc`` while its fields were parsed:
    the parser's message, unless the field it failed on is too long to show,
    which is then shown in brief."""
    for kind, text in zip((float, int, int, float, float, float), row):
        try:
            kind(text)
        except ValueError:
            if len(text) > _SHOWN:  # the parser's message echoes the field
                return f"{kind.__name__} field {_brief(text)} does not parse"
            break
    return str(exc)


def _sweep_row(row: list[str]) -> tuple[float, int, int]:
    """One data row of a results table as ``(delta, d1, d2)``; a ValueError
    says what is wrong with it (see :func:`read_sweep_csv`)."""
    if len(row) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(row)}")
    try:
        delta, d1, d2, fraction = float(row[0]), int(row[1]), int(row[2]), float(row[3])
        ci_lo, ci_hi = float(row[4]), float(row[5])
    except ValueError as exc:
        raise ValueError(_parse_error(row, exc)) from None
    if not math.isfinite(delta):
        raise ValueError(f"delta {_brief(row[0])} is not finite")
    if not (math.isfinite(ci_lo) and math.isfinite(ci_hi)):
        raise ValueError(f"interval [{_brief(row[4])}, {_brief(row[5])}] is not finite")
    if d1 < 0 or d2 < 0 or not 0 < d1 + d2 <= MAX_PHOTONS:
        raise ValueError(f"counts d1={_brief(str(d1))}, d2={_brief(str(d2))} are not a sample")
    expected = d1 / (d1 + d2)
    if fraction != expected:
        raise ValueError(f"d1_fraction {_brief(row[3])} is not d1/(d1+d2) = {expected!r}")
    return delta, d1, d2


def _csv_row(delta: float, d1: int, d2: int) -> tuple:
    """A point's results-table row, in :data:`CSV_COLUMNS` order: its
    ``(delta, d1, d2)``, D1 fraction and 95% interval."""
    return (delta, d1, d2, d1 / (d1 + d2), *binomial_ci(d1, d1 + d2))


def build_record(
    kind: str,
    config: ExperimentConfig,
    rows: list[tuple[float, int, int]],
    fit: SineFit | None = None,
    qm: QmComparison | None = None,
    trace: tuple[np.ndarray, np.ndarray, np.ndarray | None] | None = None,
) -> dict:
    """The record of a run, ready for ``json.dump``; ``kind`` is
    ``"single-bs"``, ``"mzi"`` or ``"sweep"``, and ``rows`` holds each
    point's ``(delta, d1, d2)``, recorded as its results-table row. A sweep's
    ``analysis`` is its ``fit`` (None if skipped) and, from its ``qm``
    comparison, the visibility and largest residual; with no ``qm`` it is
    null. ``trace`` is a run's outcome arrays ``(emissions, bs1, bs2)``, as
    :func:`mzsim.experiment.run_mzi` returns them, and each photon becomes the row
    ``[emitted_at, "reflect"|"transmit", "path1"|"path2", "reflect"|"transmit"|null]``:
    the BS1 outcome, the path it implies, and the BS2 outcome (null for
    single-bs runs, where ``bs2`` is None)."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": asdict(config),
        "points": [dict(zip(CSV_COLUMNS, _csv_row(*row))) for row in rows],
        "analysis": None if qm is None else {
            "fit": None if fit is None else asdict(fit),
            "visibility": qm.model_visibility,
            "max_abs_residual": max(abs(r) for r in qm.residuals),
        },
        "provenance": {
            "child_seed_function": CHILD_SEED_FUNCTION,
            "build": f"mzsim {__version__} / numpy {np.__version__}",
            "timestamp": datetime.now(timezone.utc).isoformat(),
        },
    }
    if trace is not None:
        emissions, bs1, bs2 = trace
        seconds = [None] * len(emissions) if bs2 is None else bs2.tolist()
        record["trace"] = [
            [t, "reflect" if first else "transmit", "path1" if first else "path2",
             None if second is None else "reflect" if second else "transmit"]
            for t, first, second in zip(emissions.tolist(), bs1.tolist(), seconds)
        ]
    return record


def write_json(record: dict, path: str | os.PathLike) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def write_csv(rows: list[tuple[float, int, int]], path: str | os.PathLike) -> None:
    """Write ``(delta, d1, d2)`` rows as a results table, each with its
    fraction and 95% interval; :func:`read_sweep_csv` reads them back."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([repr(v) for v in _csv_row(*row)])
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_sweep_csv(path: str | os.PathLike) -> list[tuple[float, int, int]]:
    """Read back the ``(delta, d1, d2)`` rows of a results table written by
    :func:`write_csv`.

    Every row must have all six fields, a finite delta and finite interval
    bounds, integer counts with a total from 1 to
    :data:`~mzsim.config.MAX_PHOTONS` (``2**63 - 1``, the most photons a run
    can count), and a ``d1_fraction`` equal to ``d1/(d1+d2)``; anything
    else, a field over the ``csv`` module's size limit included, is a
    ValueError naming the file and line, and so is a file that is not UTF-8
    text (a leading byte-order mark is skipped). The fraction and interval
    are recomputed from the counts wherever they are used.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != CSV_COLUMNS:
                raise ValueError(f"{path} is not a results table (header {_brief(repr(header))})")
            rows = []
            for row in reader:
                if not row:
                    continue
                try:
                    rows.append(_sweep_row(row))
                except ValueError as exc:
                    raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    except csv.Error as exc:
        raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        raise ValueError(f"{path} is not UTF-8 text") from None
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path} contains no data rows")
    return rows
