"""Benchmark of the benfordtrack CLI, end to end and per layer.

    python3 perfbench/run.py --workload track_panel --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each run generates its workload's
panel from `--seed` into a temporary directory inside the checkout,
computes the expected results with `oracle.py`, and then:

- `--trace 0`: runs `python -m benfordtrack` in fresh processes, one at a
  time (a closed loop with one client), for `--seconds` seconds, checking
  every output.  It reports the median wall time, CPU time and peak RSS
  of one invocation, and the median of several set-ups (generating and
  writing the panel).  Times are rescaled to a nominal host speed with
  the `spin()` loop timed around each step; raw times are printed too.
- `--trace 1`: calls `cli.main` in this process, alternating untraced
  and traced calls, and reports per-layer self times and counts from the
  spans `tracer.py` records, the tracing overhead and the fresh-process
  import time.  The JSON result holds the figures every listed workload
  records as nonzero; the report lines also give the rest.

`--workload all` interleaves the three workloads round-robin in one run
and prefixes each metric with its workload.  `--smoke` shrinks every
panel to a few short series.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the
lines before it give quartiles, sample counts, failure counts and the
size and sha256 of each input.  The exit code is 1 when any output
check fails and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

if not (SRC / "benfordtrack" / "__init__.py").is_file():
    print(f"perfbench: no package source under {SRC}", file=sys.stderr)
    raise SystemExit(2)
sys.path.insert(0, str(SRC))

import benfordtrack.cli  # noqa: E402

import check  # noqa: E402
import oracle  # noqa: E402
from tracer import JOINED, STAGES, Tracer, wrapper_cost  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
SPIN_NOMINAL_S = 0.08  # spin() at the nominal host speed (NOTES.md)
IMPORT_PROBES = 3
MIN_INVOCATIONS = 3

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Traced figures printed in the report but not in the JSON result: the
# parts of each joined layer time, and counts that read 0 on one of the
# listed workloads (no gap drops or failed cells on a sorted full panel,
# no rolling windows under `analyze`).
REPORT_ONLY = {
    **{part: "s" for parts in JOINED.values() for part in parts},
    "panel.dropped": "count", "windows.windows": "count",
    "reporting.failed_cells": "count", "trace.wrapper_cost_us": "us",
    "untraced_s": "s", "traced_s": "s",
}


def spin() -> float:
    """Seconds for a fixed pure-Python loop, a measure of host speed."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    return time.perf_counter() - start


class HostSpeed:
    """Spins between timed steps to rescale them to the nominal host speed.

    The host's speed drifts by tens of percent within minutes; the mean of
    the spins just before and just after a step tracks it (NOTES.md).
    """

    def __init__(self):
        self.spins = [spin()]

    def factor(self) -> float:
        """Scale for the step timed since the previous call."""
        self.spins.append(spin())
        return 2.0 * SPIN_NOMINAL_S / (self.spins[-2] + self.spins[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class Case:
    """One workload's input, reference and collected samples within a run."""

    workload: Workload
    input_path: str
    out_path: str
    ref: oracle.Expected
    record: dict
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] | None = None  # of the first traced call
    absent: set[str] = field(default_factory=set)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def verify(self, ok: bool, what: str) -> None:
        """Check the output file; count the invocation and any failure."""
        self.attempted += 1
        if ok:
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
            problems, failed_cells = check.compare(text, self.workload.fmt, self.ref)
            self.add("reporting.failed_cells", failed_cells)
        else:
            problems = [what]
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])


def set_up(w: Workload, seed: int, smoke: bool, tmp: str, repeats: int,
           host: HostSpeed) -> Case:
    """Generate and write the panel `repeats` times, timing each."""
    path = os.path.join(tmp, f"{w.name}.csv")
    raw, scaled, digests = [], [], set()
    for _ in range(repeats):
        panel = None  # free the previous copy outside the timed region
        start = time.perf_counter()
        panel = w.generate(seed, smoke)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(panel.text)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * host.factor())
        record = panel.record()
        digests.add(record["sha256"])
    case = Case(w, path, os.path.join(tmp, f"{w.name}.out"),
                oracle.expected(w, panel.series), record)
    case.samples["raw_setup_s"] = raw
    case.samples["setup_s"] = scaled
    if len(digests) != 1:
        case.problems.append("generation is not repeatable")
    return case


def run_child(argv: list[str], out_path: str, err_path: str) -> dict:
    """Run `python ARGV` through `launch.py`, stdout and stderr to files.

    Returns the child's exit code, wall and CPU seconds and peak RSS.
    """
    done = subprocess.run(
        [sys.executable, "-S", str(LAUNCHER), out_path, err_path,
         sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE, check=True,
    )
    return json.loads(done.stdout)


def _err_text(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read().strip()[-300:]


def invoke(case: Case, tmp: str, host: HostSpeed) -> None:
    """One timed CLI process and its output check."""
    err = os.path.join(tmp, "stderr.txt")
    argv = ["-m", "benfordtrack", *case.workload.argv(case.input_path)]
    child = run_child(argv, case.out_path, err)
    scale = host.factor()
    case.add("raw_wall_s", child["wall_s"])
    case.add("raw_cpu_s", child["cpu_s"])
    case.add("wall_s", child["wall_s"] * scale)
    case.add("cpu_s", child["cpu_s"] * scale)
    case.add("peak_rss_mb", child["peak_rss_mb"])
    case.verify(child["code"] == 0, f"exit {child['code']}: {_err_text(err)}")


def import_time(tmp: str) -> float:
    """Seconds `import benfordtrack` takes in a fresh process."""
    out, err = os.path.join(tmp, "import.txt"), os.path.join(tmp, "stderr.txt")
    code = ("import time; t = time.perf_counter(); import benfordtrack; "
            "print(time.perf_counter() - t)")
    if run_child(["-c", code], out, err)["code"] != 0:
        raise RuntimeError(f"import failed: {_err_text(err)}")
    with open(out, encoding="utf-8") as fh:
        return float(fh.read())


def call_main(case: Case, tracer: Tracer | None) -> float:
    """One in-process `cli.main` call, traced or not; returns its seconds."""
    argv = case.workload.argv(case.input_path) + ["--out", case.out_path]
    start = time.perf_counter()
    try:
        if tracer is None:
            code = benfordtrack.cli.main(argv)
        else:
            with tracer:
                code = benfordtrack.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    seconds = time.perf_counter() - start
    case.verify(code == 0, f"cli.main returned {code}")
    return seconds


def trace_round(case: Case, host: HostSpeed) -> None:
    """An untraced then a traced in-process call; records layer samples.

    The tracing overhead is the traced call's wrapped-call count times
    the cost of one wrapper, measured on a no-op just after the untraced
    call, over the untraced call's time.  Timing the traced call against
    the untraced one instead measures host drift more than tracing.
    """
    untraced = call_main(case, None)
    cost = wrapper_cost()
    tracer = Tracer()
    traced = call_main(case, tracer)
    host.spins.append(spin())
    calls = len(tracer.spans)
    case.add("untraced_s", untraced)
    case.add("traced_s", traced)
    case.add("trace.wrapper_cost_us", cost * 1e6)
    case.add("trace.wrapped_calls", calls)
    case.add("trace.overhead_frac", calls * cost / untraced)
    layers = tracer.summary()
    counts = {k: v for k, v in layers.items() if not k.endswith("_s")}
    if case.counts is None:
        case.counts = counts
    elif counts != case.counts:
        case.problems.append(f"counts differ between traced calls: {counts}")
    for name, value in layers.items():
        case.add(name, value)
    if layers.get("panel.changes"):
        ratio = layers.get("digits.values", 0) / layers["panel.changes"]
        case.add("digits.reextract_ratio", ratio)
    case.absent = tracer.absent


def metrics(case: Case, trace: bool) -> dict[str, float]:
    """Medians of the samples reported for this mode."""
    med = {k: statistics.median(v) for k, v in case.samples.items()}
    if not trace:
        return {k: med[k] for k in END_TO_END_UNITS}
    return {k: med[k] for k in PER_LAYER_UNITS if k in med}


def report(case: Case, trace: bool) -> None:
    """Human-readable lines: input, quartiles with sample counts, failures."""
    w = case.workload
    print(f"workload {w.name}: {' '.join(w.argv('PANEL'))}")
    print("  input " + " ".join(f"{k}={v}" for k, v in case.record.items()))
    if trace:
        shown = [*PER_LAYER_UNITS, *REPORT_ONLY]
    else:
        shown = [*END_TO_END_UNITS, "raw_wall_s", "raw_cpu_s", "raw_setup_s",
                 "host.spin_s"]
    for name in shown:
        values = case.samples.get(name)
        if not values:
            if trace:
                gone = "absent" if name in case.absent else "not reached"
                print(f"  {name:<26} {gone}")
            continue
        q1, q2, q3 = _quartiles(values)
        unit = (PER_LAYER_UNITS.get(name) or END_TO_END_UNITS.get(name)
                or REPORT_ONLY.get(name, "s"))
        print(f"  {name:<26} median {q2:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}"
              f"  n={len(values)}")
    if trace:
        stages: dict[str, float] = {}
        for name, stage in STAGES.items():
            if case.samples.get(name):
                median = statistics.median(case.samples[name])
                stages[stage] = stages.get(stage, 0.0) + median
        print("  stage self time "
              + " ".join(f"{k}={v:.4g}s" for k, v in stages.items()))
    frac = case.failed / case.attempted if case.attempted else 1.0
    print(f"  failed_frac {frac:.4f} ({case.failed}/{case.attempted} invocations)")
    for problem in case.problems[:10]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny panels")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        host = HostSpeed()
        repeats = 1 if trace else SETUPS
        cases = [
            set_up(WORKLOADS[name], args.seed, args.smoke, tmp, repeats, host)
            for name in chosen
        ]
        for case in cases:
            if trace:
                for _ in range(IMPORT_PROBES):
                    case.add("cli.import_s", import_time(tmp))
            else:
                import_time(tmp)  # warm the bytecode and file caches
        deadline = time.perf_counter() + args.seconds
        rounds, min_rounds = 0, 1 if trace else MIN_INVOCATIONS
        while rounds < min_rounds or time.perf_counter() < deadline:
            for case in cases:  # round-robin across workloads
                if trace:
                    trace_round(case, host)
                else:
                    invoke(case, tmp, host)
            rounds += 1
        for case in cases:
            case.samples["host.spin_s"] = host.spins

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    for case in cases:
        report(case, trace)
        prefix = f"{case.workload.name}." if args.workload == "all" else ""
        for name, value in metrics(case, trace).items():
            result["metrics"][prefix + name] = {"value": value, "unit": units[name]}
        result["attempted"] += case.attempted
        result["failed"] += case.failed
        result["correct"] = result["correct"] and not case.failed and not case.problems
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
