"""Report assembly and emission as aligned text, CSV or JSON.

A report is one table: an ordered column tuple (`PERIOD_COLUMNS` or
`TRACK_COLUMNS`) and rows of Python scalars in that order.  The builders
measure each series in one conformity call, whose `ConformityStats`
columns carry the names of the report columns they fill, and take the
measured cells of its rows from one zip over those columns.  One
generic renderer per format turns the scalars into cells by value type:
the text table shows floats with four decimals, `-` for a missing value
and Roman window labels; CSV carries floats at full precision via repr
and leaves a missing value empty; JSON writes each cell as json.dumps
does and accepts only None, bool, int, float and str cells.  Only the
trend block of a track report is rendered apart from the rows.

Emission is deterministic: rows are ordered by entity, tenor and then
period position or window index, and the JSON document is canonical
(sorted keys, fixed indentation), so identical reports always serialize
to identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .digits import DigitHistogram, digit_histogram
from .panel import ChangeSeries
from .stats import ConformityStats, conformity
from .windows import PeriodSpec, WindowSpec, track, window_ranges

PERIOD_COLUMNS = (
    "entity", "tenor", "period", "chi2", "p_value", "verdict", "n", "small_sample",
)
TRACK_COLUMNS = (
    "entity", "tenor", "window", "start_date", "end_date", "n",
    "chi2", "p_value", "chebyshev", "kl",
)

TREND_METRICS = ("chi2", "chebyshev", "kl")

_ROMAN = (
    (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"),
    (100, "C"), (90, "XC"), (50, "L"), (40, "XL"),
    (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I"),
)


def roman(n: int) -> str:
    """Roman numeral for a positive integer (window labels in text output)."""
    if n < 1:
        raise ValueError("roman numerals start at 1")
    parts = []
    for value, glyph in _ROMAN:
        while n >= value:
            parts.append(glyph)
            n -= value
    return "".join(parts)


@dataclass(frozen=True)
class TrendFit:
    """Least-squares line of one metric against the 1-based window index."""

    metric: str
    slope: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class Report:
    """One output table: `rows` of Python scalars, one per column, in `columns` order.

    `trends` holds an (entity, tenor, TrendFit) triple per fitted metric
    for a track report and is None for a period report.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    meta: Mapping
    trends: tuple[tuple[str, str, TrendFit], ...] | None = None

    def __post_init__(self) -> None:
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ValueError(f"row {i} holds {len(row)} cells, not {len(self.columns)}")


def fit_trend(stats: ConformityStats, metric: str) -> TrendFit:
    """Ordinary least squares of a window metric on the window index.

    `stats` holds the windows in order, as `track` returns them; the
    metric is its column of that name and the regressor each row's
    1-based position.  A constant metric column fits slope 0 with
    r_squared defined as 0.
    """
    if len(stats) < 2:
        raise ValueError("insufficient windows for trend")
    if metric not in TREND_METRICS:
        raise ValueError(f"metric must be one of {TREND_METRICS}")
    n = len(stats)
    y = getattr(stats, metric)
    x = [float(i) for i in range(1, n + 1)]
    x_mean = sum(x) / n
    y_mean = sum(y) / n
    sxx = sum((xi - x_mean) ** 2 for xi in x)
    sxy = sum((xi - x_mean) * (yi - y_mean) for xi, yi in zip(x, y))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_tot = sum((yi - y_mean) ** 2 for yi in y)
    # sxy^2 / (sxx ss_tot) equals 1 - ss_res / ss_tot without its cancellation
    r_squared = min(1.0, sxy * sxy / (sxx * ss_tot)) if ss_tot else 0.0
    return TrendFit(metric, slope, intercept, r_squared)


def _by_key(series: Iterable[ChangeSeries]) -> list[ChangeSeries]:
    return sorted(series, key=lambda s: (s.entity, s.tenor))


def _period_cell(s: ChangeSeries, period: PeriodSpec) -> DigitHistogram | str:
    """Digits of the changes dated within `period`, or why it has none."""
    changes = s.slice(period.start, period.end).changes
    if len(changes) == 0:
        return f"empty slice for period '{period.label}'"
    try:
        h = digit_histogram(changes)
    except ValueError as exc:  # a non-finite change
        return str(exc)
    return h if h.total else "empty sample"


def build_period_report(
    series: Iterable[ChangeSeries],
    periods: Sequence[PeriodSpec],
    alpha: float = 0.05,
    meta: Mapping | None = None,
) -> Report:
    """One row per (entity, tenor, period), periods kept in given order.

    A cell that cannot be measured (an empty slice, or one holding only
    zero changes) becomes an annotated row instead of an error: its
    measurements are missing and its error message is its verdict.  The
    measurable cells of a series are measured in one conformity call.
    """
    rows = []
    for s in _by_key(series):
        cells = [_period_cell(s, period) for period in periods]
        stats = conformity([h for h in cells if not isinstance(h, str)], alpha)
        measured = zip(*(getattr(stats, name) for name in PERIOD_COLUMNS[3:]))
        for period, cell in zip(periods, cells):
            if isinstance(cell, str):
                rows.append((s.entity, s.tenor, period.label, None, None, cell, None, None))
            else:
                rows.append((s.entity, s.tenor, period.label, *next(measured)))
    return Report(PERIOD_COLUMNS, tuple(rows), dict(meta or {}))


def build_track_report(
    series: Iterable[ChangeSeries],
    spec: WindowSpec = WindowSpec(),
    alpha: float = 0.05,
    meta: Mapping | None = None,
) -> Report:
    """Rolling-window rows plus per-series trend fits for every metric.

    A window is dated by the first and last date of its range.  Trend
    fits need at least two windows; a series yielding a single window
    contributes rows but no trends.
    """
    rows = []
    trends = []
    for s in _by_key(series):
        stats = track(s, spec, alpha)
        bounds = [(r.start, r.stop - 1) for r in window_ranges(len(s.changes), spec)]
        spans = np.datetime_as_string(s.dates[np.array(bounds)]).tolist()
        measured = zip(*(getattr(stats, name) for name in TRACK_COLUMNS[5:]))
        for index, ((start, end), cells) in enumerate(zip(spans, measured), 1):
            rows.append((s.entity, s.tenor, index, start, end, *cells))
        if len(stats) >= 2:
            for metric in TREND_METRICS:
                trends.append((s.entity, s.tenor, fit_trend(stats, metric)))
    return Report(TRACK_COLUMNS, tuple(rows), dict(meta or {}), tuple(trends))


# cell formatting by value type; any other type renders with str
_CSV_CELL = {
    type(None): lambda v: "",
    bool: lambda v: "true" if v else "false",
    float: repr,
}
_TEXT_CELL = {**_CSV_CELL, type(None): lambda v: "-", float: "{:.4f}".format}


def _cells(values: Sequence, formats: Mapping, fallback=str) -> list[str]:
    """The cells of one column, each value formatted by its type."""
    return [formats.get(type(v), fallback)(v) for v in values]


def _by_column(columns: Sequence[str], rows: Sequence[tuple]):
    return zip(columns, list(zip(*rows)) or [()] * len(columns))


def _render_text(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    padded = []
    for name, values in _by_column(columns, rows):
        if name == "window":
            cells = list(map(roman, values))
        else:
            cells = _cells(values, _TEXT_CELL)
        width = max([len(name), *map(len, cells)])
        padded.append([cell.ljust(width) for cell in (name, *cells)])
    lines = ["  ".join(cells).rstrip() for cells in zip(*padded)]
    return "\n".join(lines) + "\n"


def _render_csv(columns: Sequence[str], rows: Sequence[tuple]) -> str:
    cells = [_cells(values, _CSV_CELL) for _, values in _by_column(columns, rows)]
    lines = [",".join(columns), *map(",".join, zip(*cells))]
    return "\n".join(lines) + "\n"


def canonical_json(doc) -> str:
    """The one JSON rendering used everywhere: sorted keys, 2-space indent."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _json_float(v: float) -> str:
    if v != v or v in (math.inf, -math.inf):
        raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
    return float.__repr__(v)


# JSON cell text by exact value type, as json.dumps writes it
_JSON_CELL = {
    type(None): lambda v: "null",
    bool: lambda v: "true" if v else "false",
    int: int.__repr__,
    float: _json_float,
    str: json.encoder.encode_basestring_ascii,
}


def _not_json(v) -> str:
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _nested_json(value) -> str:
    """canonical_json of `value` as it reads one level inside a document."""
    return canonical_json(value)[:-1].replace("\n", "\n  ")


def _render_json(
    columns: Sequence[str], rows: Sequence[tuple], meta: Mapping, trends
) -> str:
    """canonical_json of {"meta", "rows", "trends"} with rows as key -> cell.

    Cells are formatted column by column and each row fills one template
    whose keys are sorted once, so the rows never become dicts; `meta`
    and `trends` go through canonical_json.
    """
    position = {name: i for i, name in enumerate(columns)}  # last one wins
    keys = sorted(position)
    order = [position[k] for k in keys]
    fields = ",\n".join(
        f"      {json.encoder.encode_basestring_ascii(k).replace('%', '%%')}: %s"
        for k in keys
    )
    template = "    {\n" + fields + "\n    }" if keys else "    {}"
    parts = ['{\n  "meta": ', _nested_json(dict(meta)), ',\n  "rows": ']
    if rows:
        values = list(zip(*rows))
        cells = [_cells(values[i], _JSON_CELL, _not_json) for i in order]
        rendered = [template % row for row in list(zip(*cells)) or [()] * len(rows)]
        parts += ["[\n", ",\n".join(rendered), "\n  ]"]
    else:
        parts.append("[]")
    if trends is not None:
        nested = {}
        for entity, tenor, fit in trends:
            nested.setdefault(entity, {}).setdefault(tenor, {})[fit.metric] = {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "r_squared": fit.r_squared,
            }
        parts += [',\n  "trends": ', _nested_json(nested)]
    parts.append("\n}\n")
    return "".join(parts)


def _trend_lines(trends) -> str:
    if not trends:
        return ""
    lines = ["", "trends:"]
    lines.extend(
        f"{entity}  {tenor}  {fit.metric}  slope={fit.slope:.4f}  "
        f"intercept={fit.intercept:.4f}  r_squared={fit.r_squared:.4f}"
        for entity, tenor, fit in trends
    )
    return "\n".join(lines) + "\n"


def emit(report: Report, fmt: str = "text") -> str:
    """Serialize a report as "text", "csv" or "json"."""
    if not isinstance(report, Report):
        raise TypeError("report must be a Report")
    if fmt == "text":
        return _render_text(report.columns, report.rows) + _trend_lines(report.trends)
    if fmt == "csv":
        return _render_csv(report.columns, report.rows)
    if fmt == "json":
        return _render_json(report.columns, report.rows, report.meta, report.trends)
    raise ValueError('format must be one of "text", "csv", "json"')
