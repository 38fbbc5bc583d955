"""Named analysis periods, rolling window geometry and rolling conformity."""

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

    `length` observations per window and `step` observations between
    window starts; a trailing shorter window is still emitted when it
    holds at least half a window.
    """

    length: int = 90
    step: int = 45

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("window length must be at least 1")
        if not 1 <= self.step <= self.length:
            raise ValueError("step must lie in [1, length]")


def window_ranges(n: int, spec: WindowSpec) -> list[range]:
    """Index ranges of the rolling windows over n observations.

    Window k starts at k * step; every full window of `length`
    observations is emitted, then at most one trailing partial window
    starting at the next step offset, provided it holds at least half
    of `length` observations.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    full = (n - spec.length) // spec.step + 1 if n >= spec.length else 0
    ranges = [
        range(k * spec.step, k * spec.step + spec.length) for k in range(full)
    ]
    tail_start = full * spec.step
    remnant = n - tail_start
    if remnant > 0 and 2 * remnant >= spec.length:
        ranges.append(range(tail_start, n))
    if not ranges:
        raise ValueError("series too short for windowing")
    return ranges


def track(series: ChangeSeries, spec: WindowSpec = WindowSpec()) -> ConformityStats:
    """Conformity of the rolling windows: one table row per window, in order.

    The windows are `window_ranges(len(series.changes), spec)`, and one
    conformity call measures all of them; each window's dates are its
    range's bounds in `series.dates`.  A window of only zero changes has
    no digits to test and raises the empty-sample error.
    """
    ranges = window_ranges(len(series.changes), spec)
    return conformity([digit_histogram(series.changes[r.start : r.stop]) for r in ranges])
