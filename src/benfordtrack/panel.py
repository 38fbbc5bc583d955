"""Panel CSV ingestion, daily change derivation and date slicing.

The accepted input is a UTF-8 CSV with the exact header
``date,entity,tenor,spread_bps``: ISO dates, comma-free entity and
tenor labels, and strictly positive finite spreads with a ``.`` decimal
separator.  Blank lines are skipped and lines starting with ``#`` are
comments.  Parsing is strict; every rejection names the offending
1-based line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import IO, Iterable

import numpy as np

PANEL_HEADER = "date,entity,tenor,spread_bps"

_CHANGE_MODES = ("absolute", "relative")


class PanelFormatError(ValueError):
    """Malformed panel input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class SpreadSeries:
    """Date-ordered spread observations for one (entity, tenor) pair."""

    entity: str
    tenor: str
    observations: tuple[tuple[date, float], ...]

    def __post_init__(self) -> None:
        prev: date | None = None
        for when, spread in self.observations:
            if prev is not None and when <= prev:
                raise ValueError("observation dates must be strictly increasing")
            if not math.isfinite(spread) or spread <= 0.0:
                raise ValueError("spreads must be positive and finite")
            prev = when


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # datetime64's day 0


@dataclass(frozen=True, eq=False)
class ChangeSeries:
    """Date-ordered changes for one (entity, tenor) pair, stored as columns.

    `dates` (datetime64[D], strictly increasing) dates each change by its
    later observation, `changes` (float64) holds the change values and
    `gaps` (int64) the calendar days back to the previous observation.
    `dropped` counts the consecutive-observation pairs discarded at
    derivation time because their calendar gap exceeded the cap.
    """

    entity: str
    tenor: str
    dates: np.ndarray
    changes: np.ndarray
    gaps: np.ndarray
    dropped: int = 0

    def slice(self, start: date, end: date) -> "ChangeSeries":
        """Changes dated within [start, end] inclusive, order preserved."""
        if start > end:
            raise ValueError("slice start must not be after its end")
        lo = np.searchsorted(self.dates, np.datetime64(start, "D"), side="left")
        hi = np.searchsorted(self.dates, np.datetime64(end, "D"), side="right")
        return ChangeSeries(
            self.entity,
            self.tenor,
            self.dates[lo:hi],
            self.changes[lo:hi],
            self.gaps[lo:hi],
            self.dropped,
        )


def _parse_row(line_no: int, line: str) -> tuple[date, str, str, float]:
    fields = line.split(",")
    if len(fields) != 4:
        raise PanelFormatError(line_no, f"expected 4 fields, got {len(fields)}")
    raw_date, entity, tenor, raw_spread = fields
    try:
        when = date.fromisoformat(raw_date)
    except ValueError:
        raise PanelFormatError(line_no, f"invalid ISO date {raw_date!r}") from None
    if not entity:
        raise PanelFormatError(line_no, "empty entity")
    if not tenor:
        raise PanelFormatError(line_no, "empty tenor")
    if "_" in raw_spread:
        raise PanelFormatError(line_no, f"invalid spread {raw_spread!r}")
    try:
        spread = float(raw_spread)
    except ValueError:
        raise PanelFormatError(line_no, f"invalid spread {raw_spread!r}") from None
    if not math.isfinite(spread):
        raise PanelFormatError(line_no, f"non-finite spread {raw_spread!r}")
    if spread <= 0.0:
        raise PanelFormatError(line_no, f"nonpositive spread {raw_spread!r}")
    return when, entity, tenor, spread


def parse_panel(source: str | IO[str]) -> list[SpreadSeries]:
    """Parse panel CSV text into one SpreadSeries per (entity, tenor).

    Rows may arrive in any order; each series comes back date-sorted
    and the list is sorted by (entity, tenor).  A duplicate
    (entity, tenor, date) triple is a hard error, as are nonpositive or
    non-finite spreads.
    """
    text = source if isinstance(source, str) else source.read()
    lines = text.splitlines()
    if not lines:
        raise PanelFormatError(1, "missing header")
    if lines[0] != PANEL_HEADER:
        raise PanelFormatError(1, f"header must be exactly {PANEL_HEADER!r}")
    groups: dict[tuple[str, str], dict[date, float]] = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        when, entity, tenor, spread = _parse_row(line_no, line)
        cell = groups.setdefault((entity, tenor), {})
        if when in cell:
            raise PanelFormatError(
                line_no, f"duplicate observation for ({entity}, {tenor}, {when})"
            )
        cell[when] = spread
    series = []
    for (entity, tenor), cell in sorted(groups.items()):
        observations = tuple(sorted(cell.items()))
        series.append(SpreadSeries(entity, tenor, observations))
    return series


def serialize_panel(series: Iterable[SpreadSeries]) -> str:
    """Render series back to panel CSV, inverse of parse_panel.

    Spreads are written with repr so parsing the output reproduces the
    exact same float values.
    """
    lines = [PANEL_HEADER]
    for s in sorted(series, key=lambda s: (s.entity, s.tenor)):
        for when, spread in s.observations:
            lines.append(f"{when.isoformat()},{s.entity},{s.tenor},{spread!r}")
    return "\n".join(lines) + "\n"


def daily_changes(
    series: SpreadSeries,
    max_gap_days: int | None = None,
    mode: str = "absolute",
) -> ChangeSeries:
    """Differences between consecutive available observations.

    Weekends and holidays are not bridged or interpolated: each change
    pairs an observation with the previous available one and records
    the calendar gap in days.  Pairs whose gap exceeds `max_gap_days`
    are dropped and counted, never merged.  `mode` selects plain
    differences ("absolute") or fractional ones ("relative").
    """
    if mode not in _CHANGE_MODES:
        raise ValueError(f"change mode must be one of {_CHANGE_MODES}")
    if max_gap_days is not None and max_gap_days < 1:
        raise ValueError("max_gap_days must be at least 1")
    obs = series.observations
    if len(obs) < 2:
        raise ValueError("series too short")
    days = np.fromiter((when.toordinal() for when, _ in obs), np.int64, len(obs))
    spreads = np.fromiter((spread for _, spread in obs), np.float64, len(obs))
    gaps = np.diff(days)
    deltas = np.diff(spreads)
    if mode == "relative":
        deltas /= spreads[:-1]
    dates = (days[1:] - _EPOCH_ORDINAL).astype("datetime64[D]")
    dropped = 0
    if max_gap_days is not None:
        kept = gaps <= max_gap_days
        dropped = len(gaps) - int(np.count_nonzero(kept))
        dates, deltas, gaps = dates[kept], deltas[kept], gaps[kept]
    for column in (dates, deltas, gaps):
        column.flags.writeable = False  # slices are views into these
    return ChangeSeries(series.entity, series.tenor, dates, deltas, gaps, dropped)
