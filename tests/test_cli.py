"""End-to-end command-line behaviour: exit codes, formats, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from benfordtrack import (
    SpreadSeries,
    SynthSpec,
    WindowSpec,
    daily_changes,
    digit_histogram,
    parse_panel,
    serialize_panel,
    synth_panel,
    window_ranges,
)
from benfordtrack.cli import _read_input, main
from benfordtrack.panel import _CHUNK
from helpers import cli_env, kernel_digests


def run_cli(argv, capsys):
    """Invoke main(); normalize SystemExit into a return code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def panel_path(tmp_path):
    path = tmp_path / "panel.csv"
    code = main(
        ["synth", "--kind", "benford", "--n", "1500", "--seed", "42",
         "--out", str(path)]
    )
    assert code == 0
    return path


# ----------------------------------------------------------------- synth

def test_synth_writes_a_parseable_panel(panel_path):
    series = parse_panel(panel_path.read_text())
    assert len(series) == 1
    assert series[0].entity == "SYNTH"
    assert len(series[0].spreads) == 1501


def test_synth_to_stdout(capsys):
    code, out, err = run_cli(
        ["synth", "--kind", "constant", "--n", "3", "--seed", "0"], capsys
    )
    assert code == 0
    assert out.startswith("date,entity,tenor,spread_bps\n")
    assert len(out.splitlines()) == 5


@pytest.mark.parametrize("to_file", [True, False])
def test_synth_label_that_is_not_utf8_is_a_data_error(to_file, tmp_path):
    # argv bytes that are not UTF-8 reach the program as lone surrogates
    out = tmp_path / "f.csv"
    argv = [sys.executable, "-m", "benfordtrack", "synth", "--kind", "benford",
            "--n", "3", "--seed", "1", "--entity", b"A\xff"]
    if to_file:
        argv += ["--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, env=cli_env(), cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode("utf-8").splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "surrogates not allowed" in lines[0]
    assert not out.exists()


def test_synth_requires_a_seed(capsys):
    code, out, err = run_cli(["synth", "--kind", "benford", "--n", "10"], capsys)
    assert code == 1
    assert "--seed" in err


def test_synth_manipulation_flags_must_pair(capsys):
    code, _, err = run_cli(
        ["synth", "--kind", "benford", "--n", "10", "--seed", "1",
         "--manip-fraction", "0.5"],
        capsys,
    )
    assert code == 1
    assert "together" in err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--n", "0"], "--n must be at least 1"),
        # labels that `analyze` could not read back
        (["--entity", "A,B"], "entity 'A,B' is empty or holds a comma or line break"),
        (["--entity", ""], "entity '' is empty or holds a comma or line break"),
        (["--tenor", "5\nY"], "tenor '5\\nY' is empty or holds a comma or line break"),
    ],
)
def test_synth_rejects_bad_config_before_writing(flags, message, tmp_path, capsys):
    out_file = tmp_path / "never.csv"
    code, _, err = run_cli(
        ["synth", "--kind", "benford", "--n", "5", "--seed", "1",
         "--out", str(out_file), *flags],
        capsys,
    )
    assert code == 1
    assert message in err
    assert not out_file.exists()


def test_synth_manipulated_panel_round_trips(tmp_path, capsys):
    path = tmp_path / "m.csv"
    code, _, _ = run_cli(
        ["synth", "--kind", "benford", "--n", "200", "--seed", "3",
         "--manip-fraction", "0.3", "--manip-digit", "9", "--out", str(path)],
        capsys,
    )
    assert code == 0
    assert len(parse_panel(path.read_text())[0].spreads) == 201


# --------------------------------------------------------------- analyze

def test_analyze_text_report(panel_path, capsys):
    code, out, err = run_cli(
        ["analyze", "--input", str(panel_path)], capsys
    )
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0].startswith("entity")
    assert len(lines) == 6  # header and the five named periods
    assert "full" in out and "post2010" in out


def test_analyze_period_subset(panel_path, capsys):
    code, out, _ = run_cli(
        ["analyze", "--input", str(panel_path), "--period", "crisis",
         "--period", "full", "--format", "csv"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "full"
    assert lines[2].split(",")[2] == "crisis"


def test_analyze_rejects_unknown_period(panel_path, capsys):
    code, _, err = run_cli(
        ["analyze", "--input", str(panel_path), "--period", "boom"], capsys
    )
    assert code == 1
    assert "invalid choice" in err


def test_analyze_custom_range(panel_path, capsys):
    code, out, _ = run_cli(
        ["analyze", "--input", str(panel_path), "--from", "2009-01-01",
         "--to", "2009-12-31", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["period"] for r in doc["rows"]] == ["custom"]
    assert doc["meta"]["parameters"]["periods"]["custom"] == [
        "2009-01-01", "2009-12-31",
    ]


def test_analyze_range_flags_must_pair(panel_path, capsys):
    code, _, err = run_cli(
        ["analyze", "--input", str(panel_path), "--from", "2009-01-01"], capsys
    )
    assert code == 1
    assert "together" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--from", "20090101", "--to", "2009-12-31"],
        ["analyze", "--from", "2009-01-01", "--to", "2009-W52-4"],
        ["analyze", "--from", "2009-1-1", "--to", "2009-12-31"],
        ["synth", "--kind", "benford", "--n", "10", "--seed", "1",
         "--start-date", "20080808"],
    ],
    ids=["from-compact", "to-week", "from-unpadded", "start-date-compact"],
)
def test_date_flags_accept_only_yyyy_mm_dd(argv, panel_path, capsys):
    if argv[0] != "synth":
        argv = [*argv, "--input", str(panel_path)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "invalid iso_date value" in err


def test_panel_dates_must_be_yyyy_mm_dd(tmp_path, capsys):
    # a compact date is rejected, not read as a duplicate of 2010-01-05
    path = tmp_path / "compact.csv"
    path.write_text(
        "date,entity,tenor,spread_bps\n2010-01-05,DE,5Y,40.0\n"
        "20100105,DE,5Y,41.0\n2010-01-06,DE,5Y,42.0\n"
    )
    code, out, err = run_cli(["analyze", "--input", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: line 3: invalid ISO date '20100105'\n"


def test_commands_never_read_pair_observations(monkeypatch, panel_path, tmp_path, capsys):
    def refuse(series):
        raise AssertionError("SpreadSeries.observations read by the package")

    monkeypatch.setattr(SpreadSeries, "observations", property(refuse))
    path = tmp_path / "again.csv"
    for argv in (
        ["synth", "--kind", "uniform_digit", "--n", "300", "--seed", "2",
         "--out", str(path)],
        ["analyze", "--input", str(panel_path), "--change-mode", "relative",
         "--max-gap-days", "3"],
        ["track", "--input", str(path), "--format", "json"],
    ):
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")


def test_analyze_range_excludes_named_periods(panel_path, capsys):
    code, _, err = run_cli(
        ["analyze", "--input", str(panel_path), "--from", "2009-01-01",
         "--to", "2009-12-31", "--period", "full"],
        capsys,
    )
    assert code == 1
    assert "cannot be combined" in err


def test_analyze_json_meta(panel_path, capsys):
    code, out, _ = run_cli(
        ["analyze", "--input", str(panel_path), "--format", "json",
         "--alpha", "0.01"],
        capsys,
    )
    assert code == 0
    meta = json.loads(out)["meta"]
    assert meta["tool"] == "benfordtrack"
    assert meta["command"] == "analyze"
    assert meta["parameters"]["alpha"] == 0.01


def test_analyze_alpha_validated_before_input(tmp_path, capsys):
    code, _, err = run_cli(
        ["analyze", "--input", str(tmp_path / "missing.csv"), "--alpha", "1.5"],
        capsys,
    )
    assert code == 1
    assert "alpha" in err


def test_track_takes_no_alpha(tmp_path, capsys):
    # track rows carry no verdict, so a significance level would change nothing
    code, out, err = run_cli(
        ["track", "--alpha", "0.01", "--input", str(tmp_path / "missing.csv")], capsys
    )
    assert (code, out) == (1, "")
    assert "--alpha" in err
    assert "missing.csv" not in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["track", "--min-fill", "0.5"], "--min-fill"),
        (["track", "--from", "2009-01-01", "--to", "2009-12-31"], "--from"),
        (["synth", "--kind", "benford", "--n", "10", "--seed", "1",
          "--base-spread", "100"], "--base-spread"),
    ],
    ids=["track-min-fill", "track-from-to", "synth-base-spread"],
)
def test_removed_options_are_usage_errors(argv, flag, tmp_path, capsys):
    # a trailing window needs half a window, track windows the whole series
    # and synthetic spreads start from 100
    missing = str(tmp_path / "missing.csv")
    io_flags = ["--out", missing] if argv[0] == "synth" else ["--input", missing]
    code, out, err = run_cli([*argv, *io_flags], capsys)
    assert (code, out) == (1, "")
    assert f"unrecognized arguments: {flag}" in err
    assert "missing.csv" not in err
    assert not (tmp_path / "missing.csv").exists()


@pytest.mark.parametrize("command", ["analyze", "track"])
@pytest.mark.parametrize("days", ["0", "-3"])
def test_max_gap_days_below_one_is_a_usage_error_before_input(command, days, tmp_path, capsys):
    code, out, err = run_cli(
        [command, "--input", str(tmp_path / "missing.csv"), "--max-gap-days", days],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "--max-gap-days must be at least 1" in err
    assert "missing.csv" not in err


def test_relative_change_overflow_is_a_quiet_non_finite_row(tmp_path):
    # 1e300 / 1e-300 overflows: the row is annotated and nothing is warned
    panel = tmp_path / "p.csv"
    panel.write_text(
        "date,entity,tenor,spread_bps\n"
        "2010-01-04,X,5Y,1e-300\n2010-01-05,X,5Y,1e300\n2010-01-06,X,5Y,2.0\n"
    )
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "benfordtrack", "analyze", "--input",
         str(panel), "--change-mode", "relative", "--period", "full", "--format", "csv"],
        capture_output=True, env=cli_env(), cwd=tmp_path,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode().splitlines()[1] == "X,5Y,full,,,non-finite value,,"


def test_analyze_missing_input_is_a_data_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["analyze", "--input", str(tmp_path / "missing.csv")], capsys
    )
    assert code == 2
    assert err.startswith("error:")


def test_analyze_malformed_panel_reports_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,entity,tenor,spread_bps\n2010-01-05,X,5Y,oops\n")
    code, _, err = run_cli(["analyze", "--input", str(bad)], capsys)
    assert code == 2
    assert "line 2" in err


def test_analyze_reads_stdin(panel_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(panel_path.read_bytes())))
    code, out, _ = run_cli(["analyze", "--format", "csv"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 6


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_files_and_stdin_are_read_alike(ending, tmp_path, monkeypatch):
    # neither path translates newlines, so the parse sees the bytes as written
    lines = ["date,entity,tenor,spread_bps", "2010-01-04,X,5Y,1.5", "2010-01-05,X,5Y,2.5"]
    text = "".join(line + ending for line in lines)
    path = tmp_path / "endings.csv"
    path.write_bytes(text.encode())
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    assert _read_input(str(path)) == _read_input("-") == text
    assert serialize_panel(parse_panel(text)) == "".join(line + "\n" for line in lines)


def test_analyze_tenor_filter(panel_path, capsys):
    code, out, _ = run_cli(
        ["analyze", "--input", str(panel_path), "--tenor", "10Y",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1:] == []  # synthetic panel only carries 5Y


@pytest.fixture
def two_tenor_panel(tmp_path):
    panel = tmp_path / "two_tenors.csv"
    series = [
        synth_panel(SynthSpec("benford", 300, seed), entity="DE", tenor=tenor)
        for seed, tenor in ((1, "5Y"), (2, "10Y"))
    ]
    panel.write_text(serialize_panel(series), encoding="utf-8")
    return panel


@pytest.mark.parametrize("command", ["analyze", "track"])
def test_tenor_filter_keeps_exactly_the_named_tenors(command, two_tenor_panel, capsys):
    def rows(*tenors):
        argv = [command, "--input", str(two_tenor_panel), "--format", "csv"]
        for tenor in tenors:
            argv += ["--tenor", tenor]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        return out.splitlines()[1:]

    everything = rows()
    assert {line.split(",")[1] for line in everything} == {"5Y", "10Y"}
    assert rows("5Y") == [line for line in everything if line.split(",")[1] == "5Y"]
    assert rows("5Y", "10Y") == everything


@pytest.mark.parametrize("command", ["analyze", "track"])
def test_tenor_flags_give_the_same_bytes_in_any_order_and_count(command, two_tenor_panel, capsys):
    def output(*tenors):
        argv = [command, "--input", str(two_tenor_panel), "--format", "json"]
        for tenor in tenors:
            argv += ["--tenor", tenor]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        return out

    assert output("5Y", "5Y") == output("5Y")
    assert json.loads(output("5Y"))["meta"]["parameters"]["tenor"] == ["5Y"]
    both = output("5Y", "10Y")
    assert output("10Y", "5Y") == output("10Y", "5Y", "10Y") == both
    assert json.loads(both)["meta"]["parameters"]["tenor"] == ["10Y", "5Y"]


# ----------------------------------------------------------------- track

def test_track_csv_window_count(panel_path, capsys):
    code, out, _ = run_cli(
        ["track", "--input", str(panel_path), "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    # 1500 observations: 32 windows of 90 stepped by 45, then a 60 tail
    assert len(lines) == 34
    assert lines[1].split(",")[2] == "1"
    assert lines[-1].split(",")[5] == "60"


def test_track_json_has_trends(panel_path, capsys):
    code, out, _ = run_cli(
        ["track", "--input", str(panel_path), "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc["trends"]["SYNTH"]["5Y"]) == {"chi2", "chebyshev", "kl"}
    assert doc["meta"]["parameters"]["window_length"] == 90
    assert "alpha" not in doc["meta"]["parameters"]  # `analyze` alone echoes it


def test_track_custom_geometry(panel_path, capsys):
    code, out, _ = run_cli(
        ["track", "--input", str(panel_path), "--window-len", "440",
         "--step", "440", "--format", "csv"],
        capsys,
    )
    assert code == 0
    # 1500 changes: three full windows of 440, then a 180 tail below half a window
    assert [line.split(",")[5] for line in out.splitlines()[1:]] == ["440"] * 3


def test_track_bad_geometry_is_a_usage_error(panel_path, capsys):
    code, _, err = run_cli(
        ["track", "--input", str(panel_path), "--window-len", "0"], capsys
    )
    assert code == 1
    assert "error:" in err


def test_track_short_series_is_a_data_error(tmp_path, capsys):
    path = tmp_path / "short.csv"
    main(["synth", "--kind", "benford", "--n", "30", "--seed", "1",
          "--out", str(path)])
    capsys.readouterr()
    code, _, err = run_cli(["track", "--input", str(path)], capsys)
    assert code == 2
    assert "too short" in err


# ------------------------------------------------------ stdio encoding

def _cli(argv, cwd, stdin=b"", env=None, program=("-m", "benfordtrack")):
    return subprocess.run(
        [sys.executable, *program, *argv],
        input=stdin, capture_output=True, env={**cli_env(), **(env or {})}, cwd=cwd,
    )


LATIN_1 = {"PYTHONIOENCODING": "latin-1"}


@pytest.mark.parametrize("entity", ["Z\u00e9", "\u03a9x"])
def test_stdio_is_utf8_whatever_the_locale_encoding(entity, tmp_path):
    panel = tmp_path / "w.csv"
    synth = ["synth", "--kind", "benford", "--n", "300", "--seed", "4", "--entity", entity]
    assert _cli([*synth, "--out", str(panel)], tmp_path).returncode == 0
    text = panel.read_bytes()
    assert entity.encode("utf-8") in text
    piped = _cli([*synth, "--out", "-"], tmp_path, env=LATIN_1)
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, text, b"")
    analyze = ["analyze", "--format", "csv"]
    expected = _cli([*analyze, "--input", str(panel)], tmp_path).stdout
    assert entity.encode("utf-8") in expected
    from_stdin = _cli([*analyze, "--input", "-", "--out", "f.csv"], tmp_path, text, LATIN_1)
    assert from_stdin.returncode == 0
    assert (tmp_path / "f.csv").read_bytes() == expected
    to_stdout = _cli([*analyze, "--input", str(panel)], tmp_path, env=LATIN_1)
    assert (to_stdout.returncode, to_stdout.stdout, to_stdout.stderr) == (0, expected, b"")


def test_stdin_that_is_not_utf8_is_a_data_error(tmp_path):
    proc = _cli(["analyze"], tmp_path, b"date,entity,tenor,spread_bps\n2010-01-05,Z\xe9,5Y,1.0\n",
                LATIN_1)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: 'utf-8' codec can't decode byte 0xe9")


# ------------------------------------------------------ forked parse

# runs the CLI with the CPUs in argv[1] allowed, and exits 99 unless it
# forked exactly when two were allowed
_CPUS_PRELUDE = """
import os, sys
cpus = set(map(int, sys.argv[1]))
os.sched_getaffinity = lambda pid: cpus
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
from benfordtrack.cli import main
code = main(sys.argv[2:])
raise SystemExit(code if len(forks) == (len(cpus) > 1) else 99)
"""


@pytest.fixture
def chunked_panel():
    """A panel several parse chunks long, as lines."""
    series = [
        synth_panel(SynthSpec("benford", 3000, k), entity=entity, tenor=tenor)
        for k, (entity, tenor) in enumerate(
            (e, t) for e in ("DE", "FR", "IT", "ES") for t in ("5Y", "10Y")
        )
    ]
    return serialize_panel(series).splitlines()


def _cpus_cli(cpus, argv, cwd):
    return _cli([cpus, *argv], cwd, program=("-c", _CPUS_PRELUDE))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is unavailable")
@pytest.mark.parametrize("argv", [["track", "--format", "json"], ["analyze"]])
def test_forked_parse_writes_the_serial_bytes(argv, chunked_panel, tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("\n".join(chunked_panel) + "\n", encoding="utf-8")
    assert path.stat().st_size > 4 * _CHUNK
    forked = _cpus_cli("01", [*argv, "--input", str(path)], tmp_path)
    serial = _cpus_cli("0", [*argv, "--input", str(path)], tmp_path)
    assert (forked.returncode, forked.stderr) == (0, b"")
    assert (serial.returncode, serial.stderr) == (0, b"")
    assert forked.stdout == serial.stdout and len(forked.stdout) > 1000


@pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is unavailable")
def test_malformed_row_in_the_childs_half_names_its_line(chunked_panel, tmp_path):
    lines = chunked_panel
    bad = len(lines) * 4 // 5  # within the second half of the chunks
    lines[bad] = lines[bad].replace(",", ";", 1)
    path = tmp_path / "p.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for cpus in ("01", "0"):
        proc = _cpus_cli(cpus, ["analyze", "--input", str(path)], tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode() == f"error: line {bad + 1}: expected 4 fields, got 3\n"


# ---------------------------------------------------------- closed pipe

@pytest.mark.parametrize("command", ["track", "synth"])
def test_closed_stdout_pipe_exits_141_quietly(command, panel_path, capsys):
    argv = {
        "track": ["track", "--input", str(panel_path), "--step", "1", "--format", "csv"],
        "synth": ["synth", "--kind", "benford", "--n", "3000", "--seed", "1"],
    }[command]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(out.encode("utf-8")) > 64 * 1024  # more than a pipe buffer holds
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benfordtrack", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=cli_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


# ------------------------------------------------------------ versioning

def test_version_flag(capsys):
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0
    assert out.strip() == "0.1.0"


def test_missing_subcommand_is_a_usage_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "usage" in err


def test_only_the_package_runs_the_command(tmp_path):
    # `benfordtrack.cli` is a library module: run as a script it does nothing
    package = _cli(["--version"], tmp_path)
    assert (package.returncode, package.stdout) == (0, b"0.1.0\n")
    module = _cli(["--version"], tmp_path, program=("-m", "benfordtrack.cli"))
    assert (module.returncode, module.stdout, module.stderr) == (0, b"", b"")


# ---------------------------------------------------------- determinism

def test_outputs_are_deterministic(tmp_path, capsys):
    panel = tmp_path / "p.csv"
    outputs = []
    for name in ("a", "b"):
        main(["synth", "--kind", "benford", "--n", "600", "--seed", "9",
              "--out", str(panel)])
        out_file = tmp_path / f"{name}.json"
        code, _, _ = run_cli(
            ["track", "--input", str(panel), "--format", "json",
             "--out", str(out_file)],
            capsys,
        )
        assert code == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]


# -------------------------------------------------------- byte identity

GOLDEN_ANALYZE = ["analyze", "--max-gap-days", "4", "--change-mode", "relative"]
GOLDEN_TRACK = ["track", "--max-gap-days", "4", "--window-len", "30", "--step", "15"]

# sha256 of each output, recorded from the scalar, object-per-change
# implementation; a faster path has to reproduce every byte.  The csv and
# json digests were re-recorded for the closed-form p-value and the
# nine-term KL, which moved p_value and kl cells in their last bits, and
# the track json digest again for the cancellation-free trend r_squared,
# which moved 4 of its 6 r_squared values in their last bits, once more
# when `track` stopped taking `--alpha`, which dropped its "alpha" meta line,
# and again when it stopped taking `--min-fill`, `--from` and `--to`, which
# dropped its "min_fill", "from" and "to" meta lines.
GOLDEN_SHA256 = {
    ("analyze", "text"):
        "6bc27d8ae8f6c802166106d4826dfc631fbf3ce0cfc038621dfb2796966f60fd",
    ("analyze", "csv"):
        "d7dda096afc4214a8b044c849a936ef5087af9d9100047c7b1f00901e6d613b9",
    ("analyze", "json"):
        "79b2b4b88526e43f2629dc1ef772fa746c2c5dd67ab38b2e14e01466ea0037f7",
    ("track", "text"):
        "13fdb75ddc8037cd6f327c277992ee5e682c8705a34bd90dea3bafddc1b36887",
    ("track", "csv"):
        "7a63f416488f117cbd6a317c5c4a1269d8c9ae9cf9cceeed2a19308d4402be3f",
    ("track", "json"):
        "49e78509e12602c3d7d7b59cbbe8720ab64bc6de5cc93b450dd23a598b266a64",
}


# sha256 of `synth` output, recorded from the writer that formatted one
# f-string per row; the writer has to reproduce every byte.
SYNTH_SHA256 = {
    ("--kind", "benford", "--n", "1500", "--seed", "42"):
        "9f39f1925a979931e2522d333b689a347089c7a505e90ad0cbd563211a73ca7d",
    ("--kind", "uniform_digit", "--n", "800", "--seed", "3",
     "--manip-fraction", "0.3", "--manip-digit", "1"):
        "78a24d1a9c81ba423319b55bd308ef122acc910ca9d322eb35df8210ed8a93fb",
}


@pytest.mark.parametrize("argv", list(SYNTH_SHA256), ids=lambda a: a[1])
def test_synth_matches_recorded_bytes(argv, tmp_path):
    out = tmp_path / "panel.csv"
    assert main(["synth", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SYNTH_SHA256[argv]


def _avx512_kernels():
    """The AVX-512 kernel targets numpy dispatches to on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [
        target for target in umath.__cpu_dispatch__
        if (target.startswith("AVX512") or target == "X86_V4") and umath.__cpu_features__[target]
    ]


AVX512_KERNELS = _avx512_kernels()

# exits 99 unless the kernels named in NPY_DISABLE_CPU_FEATURES are off,
# then prints the sha256 of main's output for each JSON argv in sys.argv
# and the `kernel_digests`
_DIGESTS_PRELUDE = """
import hashlib, json, os, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
if any(__cpu_features__[t] for t in os.environ["NPY_DISABLE_CPU_FEATURES"].split()):
    raise SystemExit(99)
from benfordtrack.cli import main
for argv in map(json.loads, sys.argv[1:]):
    assert main([*argv, "--out", "out"]) == 0
    with open("out", "rb") as out:
        print(hashlib.sha256(out.read()).hexdigest())
from helpers import kernel_digests
print(*kernel_digests())
"""


def _golden_panel():
    """A seeded Benford series with two exact zero changes and one quote
    gap past the 4-day cap, plus a constant series whose windows carry a
    single digit."""
    base = synth_panel(SynthSpec("benford", 160, 5), entity="AA", tenor="5Y")
    obs = list(base.observations)
    for i in (30, 31):
        obs[i] = (obs[i][0], obs[i - 1][1])
    del obs[60:64]
    flat = synth_panel(SynthSpec("constant", 120, 0), entity="BB", tenor="1Y")
    return [SpreadSeries("AA", "5Y", tuple(obs)), flat]


def test_golden_panel_covers_the_edge_cases():
    aa, bb = (daily_changes(s, max_gap_days=4) for s in _golden_panel())
    assert digit_histogram(aa.changes).excluded == 2
    assert aa.dropped == 1
    spec = WindowSpec(length=30, step=15)
    for series in (aa, bb):
        counts = [
            digit_histogram(series.changes[r.start : r.stop]).counts
            for r in window_ranges(len(series.changes), spec)
        ]
        assert any(0 in c for c in counts)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("argv", [GOLDEN_ANALYZE, GOLDEN_TRACK], ids=lambda a: a[0])
def test_outputs_match_recorded_bytes(argv, fmt, tmp_path):
    panel = tmp_path / "golden.csv"
    panel.write_text(serialize_panel(_golden_panel()), encoding="utf-8")
    out = tmp_path / f"out.{fmt}"
    assert main([*argv, "--input", str(panel), "--format", fmt, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[(argv[0], fmt)]


@pytest.mark.skipif(not AVX512_KERNELS, reason="numpy dispatches no AVX-512 kernel here")
def test_outputs_match_recorded_bytes_without_avx512_kernels(tmp_path):
    # the recorded bytes, p-values and digits hold on CPUs where numpy runs
    # its AVX2 kernels too
    panel = tmp_path / "golden.csv"
    panel.write_text(serialize_panel(_golden_panel()), encoding="utf-8")
    cells = [(argv, fmt) for argv in (GOLDEN_ANALYZE, GOLDEN_TRACK)
             for fmt in ("text", "csv", "json")]
    argvs = [json.dumps([*argv, "--input", str(panel), "--format", fmt]) for argv, fmt in cells]
    tests = os.path.dirname(os.path.abspath(__file__))  # for helpers
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512_KERNELS),
           "PYTHONPATH": os.pathsep.join([cli_env()["PYTHONPATH"], tests])}
    proc = _cli(argvs, tmp_path, env=env, program=("-c", _DIGESTS_PRELUDE))
    assert (proc.returncode, proc.stderr) == (0, b"")
    golden = [GOLDEN_SHA256[(a[0], fmt)] for a, fmt in cells]
    assert proc.stdout.decode().split() == [*golden, *kernel_digests()]
