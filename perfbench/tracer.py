"""Spans around the package's public entry points, recorded from outside.

Each target below is wrapped wherever a loaded `benfordtrack` module
holds it, so calls through `from .x import y` names are caught too.
Spans stay in memory with their parent; `summary()` turns them into
per-layer self times (span minus the time its child spans cover) and
counts.  A target that no longer exists is skipped and its metrics are
reported as absent; one that a run never calls is left out of its
summary.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _rows(result) -> dict:
    return {
        "panel.rows": sum(len(s.observations) for s in result),
        "panel.series": len(result),
    }


def _changes(result) -> dict:
    return {"panel.changes": len(result.changes), "panel.dropped": result.dropped}


def _histogram(result) -> dict:
    values = result.total + result.excluded
    return {"digits.histogram_calls": 1, "digits.values": values}


def _windows(result) -> dict:
    return {"windows.windows": len(result)}


def _emitted(result) -> dict:
    return {"reporting.emit_bytes": len(result.encode("utf-8"))}


@dataclass(frozen=True)
class Target:
    """An entry point: module, attribute path, layer metric and ROADMAP stage."""

    module: str
    attr: str  # "name" or "Class.method"
    metric: str  # self time is reported as metric + "_s"
    stage: str
    counts: Callable[[object], dict] | None = None  # result -> counts
    count_names: tuple[str, ...] = ()


TARGETS = (
    Target("benfordtrack.cli", "main", "cli.self", "cli"),
    Target("benfordtrack.panel", "parse_panel", "panel.parse", "parse", _rows,
           ("panel.rows", "panel.series")),
    Target("benfordtrack.panel", "daily_changes", "panel.changes", "changes", _changes,
           ("panel.changes", "panel.dropped")),
    Target("benfordtrack.panel", "ChangeSeries.slice", "panel.slice", "aggregate"),
    Target("benfordtrack.digits", "digit_histogram", "digits.histogram", "digits",
           _histogram, ("digits.histogram_calls", "digits.values")),
    Target("benfordtrack.stats", "conformity", "stats.conformity", "stats",
           lambda result: {"stats.conformity_calls": 1}, ("stats.conformity_calls",)),
    Target("benfordtrack.windows", "track", "windows.track", "aggregate", _windows,
           ("windows.windows",)),
    Target("benfordtrack.windows", "analyze_period", "windows.analyze_period",
           "aggregate"),
    Target("benfordtrack.reporting", "build_period_report", "reporting.build_report",
           "aggregate"),
    Target("benfordtrack.reporting", "build_track_report", "reporting.build_report",
           "aggregate"),
    Target("benfordtrack.reporting", "fit_trend", "reporting.fit_trend", "aggregate"),
    Target("benfordtrack.reporting", "emit", "reporting.emit", "emit", _emitted,
           ("reporting.emit_bytes",)),
)

# Period slicing runs only under `analyze`, rolling windows and trend fits
# only under `track`.  Each of those self times is summed with the entry
# points the other command reaches into one layer time that every
# workload records, so no reported time reads 0 on every run of a workload.
JOINED = {
    "windows.aggregate_s": ("panel.slice_s", "windows.track_s",
                            "windows.analyze_period_s"),
    "reporting.build_s": ("reporting.build_report_s", "reporting.fit_trend_s"),
}

STAGES = {t.metric + "_s": t.stage for t in TARGETS}


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counts: dict[str, int] = {}
        self.absent: set[str] = set()
        self._stack: list[int] = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, target: Target, original: Callable) -> Callable:
        spans, stack, counts, absent = self.spans, self._stack, self.counts, self.absent
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (target.metric, start, end, parent)
            if target.counts is not None:
                try:
                    for name, value in target.counts(result).items():
                        counts[name] = counts.get(name, 0) + value
                except (AttributeError, TypeError):
                    absent.update(target.count_names)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def __enter__(self) -> "Tracer":
        installed = []
        for target in self.targets:
            owner_name, _, attr = target.attr.rpartition(".")
            module = importlib.import_module(target.module)
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(target, original)
            holders = [owner] if owner_name else [
                m for n, m in list(sys.modules.items())
                if n.split(".")[0] == "benfordtrack"
                and getattr(m, attr, None) is original
            ]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)
            installed.append(target)
        present = {t.metric for t in installed}
        for target in self.targets:
            if target not in installed:
                self.absent.update(target.count_names)
                if target.metric not in present:
                    self.absent.add(target.metric + "_s")
        for joined, parts in JOINED.items():
            if self.absent.issuperset(parts):
                self.absent.add(joined)
        return self

    def __exit__(self, *exc) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, float]:
        """Self seconds and counts of the layers this run reached.

        A target without a span, or a count never recorded, is left out,
        as is an absent one.  Each `JOINED` time sums the parts present.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (metric, start, end, _), covered in zip(self.spans, child):
            name = metric + "_s"
            out[name] = out.get(name, 0.0) + end - start - covered
        for joined, parts in JOINED.items():
            if any(p in out for p in parts):
                out[joined] = sum(out.get(p, 0.0) for p in parts)
        out.update((k, v) for k, v in self.counts.items() if k not in self.absent)
        return out


def wrapper_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds to a plain one, measured on a no-op."""
    def noop():
        return None

    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        wrapped = Tracer(())._wrap(Target("", "", "noop", ""), noop)
        start = clock()
        for _ in range(calls):
            noop()
        bare = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        costs.append((clock() - start - bare) / calls)
    return statistics.median(costs)
