"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import benfordtrack.cli  # noqa: E402
import benfordtrack.digits  # noqa: E402

import check  # noqa: E402
import oracle  # noqa: E402
from tracer import TARGETS, Target, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# sha256 of each smoke panel for seed 1, recorded when the benchmark was
# defined: a change here means the benchmark's inputs changed.
SMOKE_SHA256 = {
    "track_panel":
        "d4d06276e94e872000a030f4b9c8220441f98c2abcfa570965233a70b315467c",
    "analyze_ragged":
        "b49022b9c44bbd0942502d2d6174423010d7c674531dd5e2a3b3cf2de548c6a5",
    "track_dense":
        "38a967d68369bd3ead2b71659540e98fecdedd5886678f9b00b61295bc197a86",
}


def _run_cli(name, tmp_path, seed=1):
    """Smoke panel, its reference and the CLI's output for workload `name`."""
    w = WORKLOADS[name]
    panel = w.generate(seed, smoke=True)
    src, out = tmp_path / f"{name}.csv", tmp_path / f"{name}.out"
    src.write_text(panel.text, encoding="utf-8")
    assert benfordtrack.cli.main(w.argv(str(src)) + ["--out", str(out)]) == 0
    return w, oracle.expected(w, panel.series), out.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", WORKLOADS)
def test_generation_is_byte_identical_for_a_seed(name):
    w = WORKLOADS[name]
    first = w.generate(1, smoke=True)
    assert first.text == w.generate(1, smoke=True).text
    assert first.record()["sha256"] == SMOKE_SHA256[name]
    assert first.text != w.generate(2, smoke=True).text


@pytest.mark.parametrize("name", WORKLOADS)
def test_check_accepts_the_cli_output(name, tmp_path):
    w, ref, text = _run_cli(name, tmp_path)
    problems, failed = check.compare(text, w.fmt, ref)
    assert problems == []
    assert failed == len(ref.failed)


def _perturb_first_chi2(text, fmt):
    if fmt == "json":
        doc = json.loads(text)
        row = next(r for r in doc["rows"] if r["chi2"] is not None)
        row["chi2"] *= 1.0 + 1e-6
        return json.dumps(doc)
    lines = text.splitlines()
    if fmt == "csv":
        col = lines[0].split(",").index("chi2")
        cells = lines[1].split(",")
        cells[col] = repr(float(cells[col]) * (1.0 + 1e-6))
        lines[1] = ",".join(cells)
    else:
        start = lines[0].index("chi2")
        value = lines[1][start:].split()[0]
        bumped = f"{float(value) + 0.001:.4f}".ljust(len(value))
        lines[1] = lines[1][:start] + bumped + lines[1][start + len(value):]
    return "\n".join(lines) + "\n"


def _add_column(text, fmt):
    if fmt == "json":
        doc = json.loads(text)
        for row in doc["rows"]:
            row["zzz_extra"] = 1
        return json.dumps(doc)
    lines = text.splitlines()
    if fmt == "csv":
        return "\n".join(f"extra,{line}" if i == 0 else f"1,{line}"
                         for i, line in enumerate(lines)) + "\n"
    return "\n".join(f"extra  {line}" if i == 0 else f"1      {line}"
                     for i, line in enumerate(lines)) + "\n"


@pytest.mark.parametrize("name", WORKLOADS)
def test_check_rejects_one_perturbed_chi2(name, tmp_path):
    w, ref, text = _run_cli(name, tmp_path)
    problems, _ = check.compare(_perturb_first_chi2(text, w.fmt), w.fmt, ref)
    assert len(problems) == 1 and "chi2" in problems[0]


@pytest.mark.parametrize("name", WORKLOADS)
def test_check_ignores_an_extra_column(name, tmp_path):
    w, ref, text = _run_cli(name, tmp_path)
    assert check.compare(_add_column(text, w.fmt), w.fmt, ref) == ([], len(ref.failed))


def test_check_rejects_a_missing_failed_cell(tmp_path):
    w, ref, text = _run_cli("analyze_ragged", tmp_path)
    assert ref.failed
    kept = [line for line in text.splitlines() if "empty slice" not in line]
    problems, failed = check.compare("\n".join(kept) + "\n", w.fmt, ref)
    assert failed == 0 and "rows missing" in problems[-1]


def test_tracer_counts_repeat_and_originals_come_back(tmp_path):
    w = WORKLOADS["track_dense"]
    src = tmp_path / "in.csv"
    src.write_text(w.generate(4, smoke=True).text, encoding="utf-8")
    argv = w.argv(str(src)) + ["--out", str(tmp_path / "out")]
    original = benfordtrack.digits.digit_histogram
    runs = []
    for _ in range(2):
        with Tracer() as tracer:
            assert benfordtrack.cli.main(argv) == 0
        summary = tracer.summary()
        runs.append({k: v for k, v in summary.items() if not k.endswith("_s")})
    assert runs[0] == runs[1]
    # track never slices periods: those parts are left out of the join
    assert "panel.slice_s" not in summary and "windows.analyze_period_s" not in summary
    assert summary["windows.aggregate_s"] == summary["windows.track_s"] > 0
    assert runs[0]["digits.histogram_calls"] == runs[0]["windows.windows"] > 0
    assert benfordtrack.digits.digit_histogram is original
    assert benfordtrack.windows.digit_histogram is original


def test_tracer_reports_a_missing_entry_point_as_absent(tmp_path):
    gone = Target(
        "benfordtrack.windows", "rolling_gone", "windows.gone", "aggregate",
        lambda result: {"windows.gone_count": 1}, ("windows.gone_count",),
    )
    w = WORKLOADS["track_dense"]
    src = tmp_path / "in.csv"
    src.write_text(w.generate(1, smoke=True).text, encoding="utf-8")
    argv = w.argv(str(src)) + ["--out", str(tmp_path / "out")]
    with Tracer(TARGETS + (gone,)) as tracer:
        assert benfordtrack.cli.main(argv) == 0
    summary = tracer.summary()
    assert {"windows.gone_s", "windows.gone_count"} <= tracer.absent
    assert "windows.gone_s" not in summary and summary["windows.windows"] > 0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_the_whole_command(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", trace, "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    for name in WORKLOADS:
        for metric in wanted:
            assert result["metrics"][f"{name}.{metric['name']}"]["value"] != 0


def test_exits_nonzero_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track_dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0 and out.stdout == ""
