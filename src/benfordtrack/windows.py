"""Named analysis periods, rolling windows and per-slice conformity."""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

from .digits import digit_histogram
from .panel import ChangeSeries
from .stats import ConformityStats, conformity


@dataclass(frozen=True)
class PeriodSpec:
    """A labeled inclusive date range."""

    label: str
    start: date
    end: date

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("period label must be nonempty")
        if self.start > self.end:
            raise ValueError("period start must not be after its end")


def named_periods() -> tuple[PeriodSpec, ...]:
    """The five built-in analysis periods, in reporting order.

    `full` spans the whole observation range; the remaining four cut it
    at the turn of 2010 and at the end of October 2013.
    """
    return (
        PeriodSpec("full", date(2008, 8, 8), date(2015, 4, 25)),
        PeriodSpec("pre_crisis", date(2008, 8, 8), date(2010, 1, 1)),
        PeriodSpec("crisis", date(2010, 1, 1), date(2013, 10, 31)),
        PeriodSpec("post_crisis", date(2013, 11, 1), date(2015, 4, 25)),
        PeriodSpec("post2010", date(2010, 1, 1), date(2015, 4, 25)),
    )


@dataclass(frozen=True)
class WindowSpec:
    """Rolling window geometry, measured in observations, not days.

    `length` observations per window, `step` observations between
    window starts, and a trailing shorter window is still emitted when
    it holds at least `length * min_fill` observations.
    """

    length: int = 90
    step: int = 45
    min_fill: float = 0.5

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("window length must be at least 1")
        if not 1 <= self.step <= self.length:
            raise ValueError("step must lie in [1, length]")
        if not 0.0 < self.min_fill <= 1.0:
            raise ValueError("min_fill must lie in (0, 1]")


@dataclass(frozen=True)
class WindowResult:
    """Conformity of one rolling window.

    `sample_size` counts the observations inside the window; the digit
    sample actually tested can be smaller when zero changes occur and
    is reported in `stats.sample_size`.
    """

    index: int  # 1-based
    start_date: date
    end_date: date
    sample_size: int
    stats: ConformityStats


def window_ranges(n: int, spec: WindowSpec) -> list[range]:
    """Index ranges of the rolling windows over n observations.

    Window k starts at k * step; every full window of `length`
    observations is emitted, then at most one trailing partial window
    starting at the next step offset, provided it reaches
    length * min_fill observations.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    full = (n - spec.length) // spec.step + 1 if n >= spec.length else 0
    ranges = [
        range(k * spec.step, k * spec.step + spec.length) for k in range(full)
    ]
    tail_start = full * spec.step
    remnant = n - tail_start
    if remnant > 0 and remnant >= spec.length * spec.min_fill:
        ranges.append(range(tail_start, n))
    if not ranges:
        raise ValueError("series too short for windowing")
    return ranges


def analyze_period(
    series: ChangeSeries, period: PeriodSpec, alpha: float = 0.05
) -> ConformityStats:
    """Conformity of the changes dated within one period."""
    sliced = series.slice(period.start, period.end)
    if len(sliced.changes) == 0:
        raise ValueError(f"empty slice for period '{period.label}'")
    return conformity([digit_histogram(sliced.changes)], alpha)[0]


def track(
    series: ChangeSeries,
    spec: WindowSpec = WindowSpec(),
    alpha: float = 0.05,
) -> list[WindowResult]:
    """Conformity through rolling windows, in window order.

    Each window is dated by its first and last observation, and one
    conformity call measures all windows.  A window of only zero
    changes has no digits to test and raises the empty-sample error.
    """
    dates = series.dates.tolist()
    ranges = window_ranges(len(dates), spec)
    histograms = [digit_histogram(series.changes[r.start : r.stop]) for r in ranges]
    return [
        WindowResult(index, dates[r.start], dates[r.stop - 1], len(r), stats)
        for index, (r, stats) in enumerate(zip(ranges, conformity(histograms, alpha)), 1)
    ]
