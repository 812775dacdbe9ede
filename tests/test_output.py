import json
from fractions import Fraction

import numpy as np
import pytest

from mzsim.config import ExperimentConfig
from mzsim.output import (
    CSV_COLUMNS,
    build_record,
    read_sweep_csv,
    write_csv,
    write_json,
)


# (delta, d1, d2) rows whose totals run from 2**53 + 1, past what a double
# holds exactly, to 2**63 - 1, the most photons a run can count. For the
# first, float(d1) / float(d1 + d2) is one ulp off the exact ratio.
LARGE_COUNT_ROWS = [
    (0.25 * i, total * (i + 1) // 12, total - total * (i + 1) // 12)
    for i, total in enumerate([2**k + 1 for k in range(53, 63)] + [2**63 - 1])
]


def one_point_record(timestamp="2024-01-01T00:00:00+00:00"):
    return build_record("sweep", ExperimentConfig(), [(1 / 3, 1, 2)], {"visibility": 0.5},
                        timestamp=timestamp)


def test_csv_has_exact_columns_and_one_row(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(one_point_record(), path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_csv_bytes_do_not_depend_on_timestamp(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(one_point_record(timestamp="2024-01-01T00:00:00+00:00"), a)
    write_csv(one_point_record(timestamp="2030-12-31T23:59:59+00:00"), b)
    assert a.read_bytes() == b.read_bytes()


def test_csv_floats_round_trip_exactly(tmp_path):
    path = tmp_path / "out.csv"
    record = one_point_record()
    write_csv(record, path)
    (written,) = record["points"]
    # bit-exact via repr
    assert read_sweep_csv(path) == [(written["delta"], written["d1"], written["d2"])]


def test_json_round_trip_equality(tmp_path):
    record = one_point_record()
    path = tmp_path / "out.json"
    write_json(record, path)
    write_json(record, tmp_path / "out2.json")
    assert path.read_bytes() == (tmp_path / "out2.json").read_bytes()
    assert json.loads(path.read_text()) == record


def trace_rows(kind, trace):
    record = build_record(
        kind,
        ExperimentConfig(),
        [(0.0, 1, 1)],
        None,
        trace=trace,
        timestamp="2024-01-01T00:00:00+00:00",
    )
    return json.loads(json.dumps(record))["trace"]


def test_json_trace_rows():
    # every (bs1, bs2) outcome pair of an mzi run, then a single-bs run,
    # whose bs2 is None
    emissions = np.array([0.5, 1.5, 2.5, 3.5])
    bs1 = np.array([0, 0, 1, 1], np.int8)
    bs2 = np.array([0, 1, 0, 1], np.int8)
    assert trace_rows("mzi", (emissions, bs1, bs2)) == [
        [0.5, "transmit", "path2", "transmit"],
        [1.5, "transmit", "path2", "reflect"],
        [2.5, "reflect", "path1", "transmit"],
        [3.5, "reflect", "path1", "reflect"],
    ]
    assert trace_rows("single-bs", (emissions[:2], bs1[1:3], None)) == [
        [0.5, "transmit", "path2", None],
        [1.5, "reflect", "path1", None],
    ]


def test_provenance_carries_seed_and_mixer():
    provenance = one_point_record()["provenance"]
    assert provenance["master_seed"] == 42
    assert provenance["child_seed_function"] == "splitmix64"
    assert "mzsim" in provenance["build"]


def test_read_rejects_foreign_header(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_sweep_csv(path)


def test_read_rejects_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n")
    with pytest.raises(ValueError):
        read_sweep_csv(path)


def test_sweep_point_fraction_is_derived_from_counts():
    record = build_record("sweep", ExperimentConfig(), [(0.5, 3, 7)], None)
    assert record["points"][0]["d1_fraction"] == 0.3
    assert one_point_record()["points"][0]["d1_fraction"] == 1 / 3


def test_counts_past_2_53_round_trip_with_exact_fractions(tmp_path):
    path = tmp_path / "large.csv"
    record = build_record("sweep", ExperimentConfig(), LARGE_COUNT_ROWS, None)
    assert [p["d1_fraction"] for p in record["points"]] == [
        float(Fraction(d1, d1 + d2)) for _, d1, d2 in LARGE_COUNT_ROWS
    ]
    write_csv(record, path)
    assert read_sweep_csv(path) == LARGE_COUNT_ROWS


def test_write_error_carries_path_context(tmp_path):
    target = tmp_path / "no-such-dir" / "x.csv"
    with pytest.raises(OSError, match="x.csv"):
        write_csv(one_point_record(), target)
