import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from mzsim import cli, experiment
from mzsim.analysis import binomial_ci
from mzsim.cli import main
from mzsim.output import write_csv
from test_kernel import fresh_loader, needs_cc  # noqa: F401 (fresh_loader is a fixture)
from test_output import LARGE_COUNT_ROWS


def run_cli(*argv):
    return main(list(argv))


def test_importing_the_cli_leaves_out_the_process_pool_and_subprocess():
    # Only a parallel sweep needs the pool, and only loading the kernel needs
    # subprocess; every other command would pay for importing them.
    script = (
        "import sys, mzsim.cli\n"
        "print([m for m in ('concurrent.futures', 'subprocess') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@needs_cc
def test_a_sweep_and_its_analysis_leave_out_numpy_ma_statistics_and_subprocess(tmp_path):
    # With the kernel cached, loading it needs no subprocess; the fit needs
    # no numpy.ma (which np.unique imports) and the confidence interval no
    # statistics (with its fractions and decimal).
    experiment._build_kernel()
    script = (
        "import sys\n"
        "from mzsim.cli import main\n"
        "from mzsim.experiment import _load_kernel\n"
        "assert main(['sweep', '--steps', '9', '--photons', '1000', '--out', 'sweep.csv']) == 0\n"
        "assert main(['analyze', 'sweep.csv']) == 0\n"
        "assert _load_kernel() is not None\n"
        "print([m for m in ('numpy.ma', 'statistics', 'subprocess') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_single_bs_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("single-bs", "--photons", "1000", "--seed", "7", "--out", str(a)) == 0
    first = capsys.readouterr().out
    assert run_cli("single-bs", "--photons", "1000", "--seed", "7", "--out", str(b)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert a.read_bytes() == b.read_bytes()


def test_sweep_writes_expected_csv_shape(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli(
        "sweep", "--steps", "9", "--photons", "1500", "--seed", "5", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,d1,d2,d1_fraction,ci_lo,ci_hi"
    assert len(lines) == 10


def test_flag_beats_config_beats_default(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"photon_count": 5000}))

    out = tmp_path / "r.json"

    def record_config():
        return json.loads(out.read_text())["config"]

    # CLI flag wins over the config file
    assert run_cli("mzi", "--config", str(cfg_path), "--photons", "700",
                   "--seed", "3", "--out", str(out), "--format", "json") == 0
    assert record_config()["photon_count"] == 700
    # --seed reaches the run (the default seed, 42, would not show a dropped flag)
    assert record_config()["master_seed"] == 3
    # config file wins over the built-in default
    assert run_cli("mzi", "--config", str(cfg_path), "--seed", "3",
                   "--out", str(out), "--format", "json") == 0
    assert record_config()["photon_count"] == 5000
    assert record_config()["master_seed"] == 3
    # no flag, no file: the built-in default
    assert run_cli("mzi", "--photons", "100000", "--seed", "3",
                   "--out", str(out), "--format", "json") == 0
    assert record_config()["photon_count"] == 100_000
    assert record_config()["master_seed"] == 3


def test_analyze_prints_fit_visibility_and_table(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run_cli("sweep", "--steps", "12", "--photons", "2000", "--seed", "6", "--out", str(out))
    capsys.readouterr()
    assert run_cli("analyze", str(out)) == 0
    text = capsys.readouterr().out
    assert text.startswith("fit:")
    assert "visibility:" in text
    assert "delta,d1_fraction,ci_lo,ci_hi" in text
    # one table row per sweep point
    assert len(text.splitlines()) == 2 + 1 + 12


def test_compare_qm_reports_gap_and_period(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    run_cli("sweep", "--steps", "12", "--photons", "2000", "--seed", "6", "--out", str(out))
    capsys.readouterr()
    assert run_cli("compare-qm", str(out)) == 0
    text = capsys.readouterr().out
    assert "residuals:" in text
    assert "visibility: model=" in text
    assert "period:" in text


def test_mzi_delta_flag_overrides_config(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("mzi", "--photons", "500", "--seed", "2", "--delta", "1.25",
                   "--out", str(out), "--format", "json") == 0
    assert json.loads(out.read_text())["config"]["delta"] == 1.25


def test_format_flag_wins_over_suffix(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli("mzi", "--photons", "500", "--seed", "2",
                   "--out", str(out), "--format", "json") == 0
    json.loads(out.read_text())  # parses as JSON despite the .csv name


def test_trace_lands_in_json_output(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("single-bs", "--photons", "250", "--seed", "2", "--trace",
                   "--out", str(out), "--format", "json") == 0
    data = json.loads(out.read_text())
    assert len(data["trace"]) == 250


# sha256 of the compact JSON of the trace rows for 2000 photons at seed 42.
# Rows are [emitted_at, bs1, path, bs2|null]; any change to the stream loop's
# arithmetic or to the spelling of a row moves these.
TRACE_SHA256 = {
    "mzi": "7eb1e742b2c0f7aea6cf21dca56c41cbc7ce8bb7f784ca97461dc6e3780e0d9d",
    "single-bs": "e02ddfc6f8548d5313992cfb7068ae2d526789a2a1124a42e3ad6adec9210fe7",
}


@pytest.mark.parametrize("command, extra", [("mzi", ["--delta", "1.5"]), ("single-bs", [])])
def test_trace_json_rows_are_pinned(tmp_path, command, extra):
    out = tmp_path / "r.json"
    assert run_cli(command, "--trace", "--photons", "2000", "--seed", "42",
                   "--format", "json", "--out", str(out), *extra) == 0
    trace = json.loads(out.read_text())["trace"]
    digest = hashlib.sha256(json.dumps(trace, separators=(",", ":")).encode()).hexdigest()
    assert digest == TRACE_SHA256[command]


def record_digest(path):
    """sha256 of a JSON record minus the run-dependent provenance fields."""
    data = json.loads(path.read_text())
    del data["provenance"]["timestamp"], data["provenance"]["build"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


SWEEP_ARGV = ["sweep", "--steps", "8", "--photons", "500", "--seed", "42"]

# sha256 of (output file, stdout) for each command at seed 42. Any change to
# a number, a column, a key or a print format moves these.
OUTPUT_SHA256 = {
    "sweep-json": (
        "9b8984c282a08191b300438252ac064536bff14bce277eddb3d6b88f42b6e748",
        "bbe3bc40fdf8ca7b550fdd0752eb082e68583d9db588615fc5cb78cb1a468e38",
    ),
    "sweep-csv": (
        "b3d4c31c9458bcdc7226f615e0d7afb3821eb88554d98b4482d9e6870fa9a6a8",
        "bbe3bc40fdf8ca7b550fdd0752eb082e68583d9db588615fc5cb78cb1a468e38",
    ),
    "mzi-json": (
        "28e1db282f907b7206a1b59ca9c1905aad4348767c951322cbc4fd2bed62ff30",
        "11ffc395b0aef4702ba85e81dff6fa51820e14a915ea48d902a82b41ac38d756",
    ),
    "analyze": (
        "b3d4c31c9458bcdc7226f615e0d7afb3821eb88554d98b4482d9e6870fa9a6a8",
        "b57abb7c2aed26181bac8e299c8edd0fe3dce4ef1e1f49d9f2a4016bf7611317",
    ),
    "compare-qm": (
        "b3d4c31c9458bcdc7226f615e0d7afb3821eb88554d98b4482d9e6870fa9a6a8",
        "b54b37047467d7523daebb163778cc9438ce56d38ee83f04c3d0b2213ba321b6",
    ),
}


@pytest.mark.parametrize("case", sorted(OUTPUT_SHA256))
def test_outputs_are_pinned(tmp_path, capsys, case):
    table = tmp_path / "sweep.csv"
    if case == "sweep-json":
        path, digest = tmp_path / "sweep.json", record_digest
        assert run_cli(*SWEEP_ARGV, "--out", str(path)) == 0
    elif case == "mzi-json":
        path, digest = tmp_path / "mzi.json", record_digest
        assert run_cli("mzi", "--photons", "500", "--delta", "1.5", "--seed", "42",
                       "--format", "json", "--out", str(path)) == 0
    else:
        path, digest = table, file_digest
        assert run_cli(*SWEEP_ARGV, "--out", str(table)) == 0
        if case != "sweep-csv":
            capsys.readouterr()
            assert run_cli(case, str(table)) == 0
    stdout = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (digest(path), stdout) == OUTPUT_SHA256[case]


def test_sweep_parallel_flag_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    argv = ["sweep", "--steps", "4", "--photons", "1000", "--seed", "8"]
    assert run_cli(*argv, "--out", str(serial)) == 0
    assert run_cli(*argv, "--parallel", "2", "--out", str(parallel)) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_zero_span_sweep_skips_the_fit(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run_cli("sweep", "--steps", "8", "--delta-max", "0", "--photons", "200",
                   "--out", str(out)) == 0
    assert "fit:" not in capsys.readouterr().out
    data = json.loads(out.read_text())
    assert data["analysis"]["fit"] is None
    assert data["analysis"]["qm"]["fitted_period"] is None
    assert [p["delta"] for p in data["points"]] == [0.0] * 8


@pytest.mark.parametrize("low, high", [("0.0", "5e-324"), ("-1e308", "1e308")],
                         ids=["subnormal-span", "overflowing-span"])
def test_span_with_no_finite_frequency_grid_skips_the_fit(tmp_path, capfd, low, high):
    # 8 rows alternating between two deltas whose span max - min is either
    # too small for 2*pi/span or too large for a double
    rows = [f"{(low, high)[d1 % 2]},{d1},{10 - d1},{d1 / 10},0.1,0.9" for d1 in range(2, 10)]
    path = tmp_path / "span.csv"
    path.write_text("delta,d1,d2,d1_fraction,ci_lo,ci_hi\n" + "\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("analyze", str(path)) == 0
        analyze = capfd.readouterr()
        assert run_cli("compare-qm", str(path)) == 0
        compare = capfd.readouterr()
    assert analyze.err == compare.err == ""
    assert analyze.out.splitlines()[0] == (
        "fit: skipped (needs at least 8 rows with 2 distinct deltas and a finite span)"
    )
    assert compare.out.splitlines()[-1] == "period: fit skipped, ideal=6.283185"


def test_sweep_json_fit_block_has_the_fit_fields(tmp_path):
    out = tmp_path / "r.json"
    assert run_cli("sweep", "--steps", "8", "--photons", "200", "--out", str(out)) == 0
    fit = json.loads(out.read_text())["analysis"]["fit"]
    assert sorted(fit) == ["amplitude", "angular_frequency", "converged", "offset",
                           "phase", "r_squared"]


@pytest.mark.parametrize(
    "row, reason",
    [("0.0,5,5,0.5,0", "expected 6 fields"),
     ("0.0,5,5,0.9,0,1", "is not d1/(d1+d2)"),
     ("0.0,0,0,0.0,0,0", "not a sample"),
     pytest.param(f"0.0,{2**62},{2**62},0.5,0,1", "are not a sample", id="total-2**63"),
     ("nan,5,5,0.5,0,1", "line 2: delta nan is not finite"),
     ("inf,5,5,0.5,0,1", "line 2: delta inf is not finite"),
     ("0.0,5.0,5,0.5,0,1", "line 2: invalid literal for int()"),
     ("0.0,5,5,0.5,x,y", "line 2: could not convert string to float: 'x'"),
     ("0.0,5,5,0.5,nan,1", "line 2: interval [nan, 1] is not finite"),
     pytest.param(f"0.0,{10**400},0,1.0,0,1", "d1=1000000000000000... (401 characters)",
                  id="d1-10**400"),
     pytest.param("0.0," + "1" * 131073 + ",5,0.5,0,1", "line 2: field larger than field limit",
                  id="field-over-csv-limit"),
     pytest.param("0.0,5,5,0.5,0," + "x" * 1000, "float field xxxxxxxxxxxxxxxx... (1000 characters)",
                  id="long-unparsable-field"),
     pytest.param("1" * 1000 + "e999,5,5,0.5,0,1", "line 2: delta 1111111111111111...",
                  id="long-infinite-delta")],
)
@pytest.mark.parametrize("command", ["analyze", "compare-qm"])
def test_malformed_csv_row_is_a_single_line_error(tmp_path, capsys, command, row, reason):
    path = tmp_path / "bad.csv"
    path.write_text("delta,d1,d2,d1_fraction,ci_lo,ci_hi\n" + row + "\n")
    assert run_cli(command, str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and reason in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert len(captured.err) < len(str(path)) + 120  # an over-long field is shown in brief


@pytest.mark.parametrize("first_line", [
    "x" * 100_000,
    json.dumps(list(range(30_000)), separators=(",", ":")),
], ids=["long-line", "compact-json"])
@pytest.mark.parametrize("command", ["analyze", "compare-qm"])
def test_long_foreign_header_is_a_single_line_error(tmp_path, capsys, command, first_line):
    path = tmp_path / "foreign.csv"
    path.write_text(first_line + "\n")
    assert run_cli(command, str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} is not a results table (header [")
    assert f"({len(repr(first_line.split(',')))} characters)" in captured.err
    assert len(captured.err.strip().splitlines()) == 1
    assert len(captured.err) < len(str(path)) + 120  # the header is shown in brief


@pytest.mark.parametrize(
    "argv",
    [["mzi", "--trace"],
     ["single-bs", "--trace", "--out", "r.csv"],
     ["mzi", "--trace", "--out", "r.json", "--format", "csv"]],
    ids=["no-out", "csv-out", "format-csv"],
)
def test_trace_without_json_output_is_a_single_line_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv, "--photons", "100") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --trace needs JSON output")
    assert len(captured.err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("target", ["missing-directory", "a-directory", "trailing-slash", "empty"])
@pytest.mark.parametrize("command", ["sweep", "mzi"])
def test_unwritable_out_is_refused_before_the_run(tmp_path, monkeypatch, capsys, command, target):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_sweep", must_not_run)
    monkeypatch.setattr(cli, "run_mzi", must_not_run)
    monkeypatch.chdir(tmp_path)
    if target == "a-directory":
        (tmp_path / "r.csv").mkdir()
        out = str(tmp_path / "r.csv")
        message = f"cannot write {out}: it is a directory"
    elif target == "trailing-slash":
        out = str(tmp_path / "nodir") + os.sep
        message = f"cannot write {out}: it is a directory"
    elif target == "empty":
        out, message = "", "cannot write: the --out path is empty"
    else:
        out = str(tmp_path / "missing" / "r.csv")
        message = f"cannot write {out}: no directory {tmp_path / 'missing'}"
    assert run_cli(command, "--photons", "100", "--out", out) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert [p.name for p in tmp_path.rglob("*")] == (["r.csv"] if target == "a-directory" else [])


def test_unknown_flag_fails_with_usage(capsys):
    assert run_cli("sweep", "--bogus") == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["analyze", "--out", "x.csv", "RESULTS"],
     ["compare-qm", "--photons", "3", "RESULTS"],
     ["sweep", "--trace"],
     ["mzi", "--parallel", "2"]],
)
def test_flag_of_another_subcommand_fails_with_usage(capsys, argv):
    assert run_cli(*argv) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_fails_with_usage(capsys):
    assert run_cli("frobnicate") == 2
    assert "usage" in capsys.readouterr().err


def test_missing_config_file_is_a_single_line_error(tmp_path, capsys):
    code = run_cli("mzi", "--config", str(tmp_path / "none.json"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_wrong_json_type_in_config_is_a_single_line_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"source_rate": "20"}))
    assert run_cli("mzi", "--config", str(cfg_path), "--photons", "10") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "source_rate" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "patch, reason",
    [({"inter_arrival_law": "x" * 100_000}, "inter_arrival_law must be one of"),
     ({"x" * 100_000: 1}, "unknown config key 'xxxxxxxxxxxxxxx... (100002 characters)"),
     ({"bs1": {"x" * 100_000: 1}}, "unknown config key bs1.'xxxxxxxxxxxxxxx... (100002 characters)"),
     ({"a\nb": 1}, "unknown config key 'a\\nb'"),
     ({"bs1": {"a\nb": 1}}, "unknown config key bs1.'a\\nb'"),
     ({"photon_count": "1" * 100_000}, "photon_count must be an integer >= 1, got '111")],
    ids=["long-law", "long-key", "long-bs1-key", "newline-key", "bs1-newline-key",
         "long-string-photon-count"],
)
def test_long_config_value_is_a_single_line_error(tmp_path, capsys, patch, reason):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(patch))
    assert run_cli("mzi", "--config", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + reason)
    assert len(captured.err.strip().splitlines()) == 1
    assert len(captured.err) < len(str(path)) + 120  # the value is shown in brief


@pytest.mark.parametrize(
    "text",
    ['{"photon_count": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
    ids=["5000-digit-integer", "nested-100000-deep"],
)
def test_config_json_python_cannot_parse_is_a_single_line_error(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert run_cli("mzi", "--config", str(path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: config file {path} is not valid JSON: ")
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "patch, field",
    [({"bs1": {"frequency": 1e308}}, "bs1.frequency"),
     ({"particle_frequency": 1e308}, "particle_frequency"),
     ({"bs2": {"update_alpha": 1e308}}, "bs2 update coefficients"),
     ({"source_rate": 1e-308}, "particle_frequency 1.0 times the last arrival time inf")],
)
def test_phase_overflow_is_a_single_line_error(tmp_path, capsys, patch, field):
    # inf % 2pi is NaN, and a NaN phase would silently transmit every photon
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(patch))
    assert run_cli("single-bs", "--config", str(cfg_path), "--photons", "100") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + field)
    assert len(captured.err.strip().splitlines()) == 1


def test_invalid_photon_count_is_reported(capsys):
    assert run_cli("mzi", "--photons", "0") == 1
    assert "photon_count" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
def test_photon_count_too_large_to_allocate_is_a_single_line_error(tmp_path, capsys, source):
    # 1e14 float64 emissions need 728 TiB, more than the address space holds,
    # so the allocation fails at once without taking any memory
    photons = 10**14
    if source == "flag":
        argv = ("mzi", "--photons", str(photons))
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"photon_count": photons}))
        argv = ("mzi", "--config", str(cfg_path))
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.strip().splitlines()) == 1
    assert "Traceback" not in captured.err



@pytest.mark.parametrize("argv", [
    ("mzi", "--photons", "100"),
    ("sweep", "--steps", "3", "--photons", "100", "--parallel", "1"),
], ids=["mzi", "serial-sweep"])
def test_missing_compiler_is_a_single_line_error(tmp_path, monkeypatch, capsys, fresh_loader,
                                                 argv):
    # every run needs the compiled stream loop; here there is no cached
    # library beside its source, and no cc to build one
    source = tmp_path / "_kernel.c"
    shutil.copyfile(experiment._KERNEL_SOURCE, source)
    monkeypatch.setattr(experiment, "_KERNEL_SOURCE", source)
    monkeypatch.setattr(experiment, "_compiler", lambda: None)
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no C compiler (cc) on PATH\n"

def test_analyze_prints_fractions_of_counts_up_to_2_63(tmp_path, capsys):
    path = tmp_path / "large.csv"
    write_csv(LARGE_COUNT_ROWS, path)
    assert run_cli("analyze", str(path)) == 0
    table = capsys.readouterr().out.splitlines()[3:]
    assert table == [
        f"{delta},{d1 / (d1 + d2):.6f},{lo:.6f},{hi:.6f}"
        for delta, d1, d2 in LARGE_COUNT_ROWS
        for lo, hi in [binomial_ci(d1, d1 + d2)]
    ]


@pytest.mark.parametrize("command", ["analyze", "compare-qm", "config"])
def test_input_that_is_not_utf8_is_a_single_line_error(tmp_path, capsys, command):
    path = tmp_path / "latin1.txt"
    if command == "config":
        path.write_bytes(b'{"master_seed": 7, "note": "caf\xe9"}\n')
        argv, expected = ("mzi", "--config", str(path)), f"config file {path}"
    else:
        path.write_bytes(b"delta,d1,d2,d1_fraction,ci_lo,ci_hi\n0.\xff,1,1,0.5,0,1\n")
        argv, expected = (command, str(path)), str(path)
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {expected} is not UTF-8 text\n"


@pytest.mark.parametrize("command", ["analyze", "compare-qm", "config"])
def test_input_with_a_utf8_byte_order_mark_reads_as_without(tmp_path, capsys, command):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    if command == "config":
        plain.write_text(json.dumps({"master_seed": 7, "photon_count": 2000}))
        argv = ("mzi", "--config")
    else:
        write_csv([(0.5 * k, 10 + k, 20 - k) for k in range(10)], plain)
        argv = (command,)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert run_cli(*argv, str(plain)) == 0
    expected = capsys.readouterr().out
    assert run_cli(*argv, str(marked)) == 0
    assert capsys.readouterr() == (expected, "")


def test_analyze_missing_file_fails(tmp_path, capsys):
    assert run_cli("analyze", str(tmp_path / "none.csv")) == 1
    assert capsys.readouterr().err.startswith("error:")
