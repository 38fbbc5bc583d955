"""Report assembly and emission as aligned text, CSV or JSON.

A report is one table held as columns: a dict from each column name of
`PERIOD_COLUMNS` or `TRACK_COLUMNS`, in that order, to its list of
Python scalars.  The builders measure the panel's period cells, or its
windows, in one conformity call, whose `ConformityStats` columns carry
the names of the report columns they fill.  One generic renderer
per format turns each column into cells by value type:
the text table shows floats with four decimals, `-` for a missing value
and Roman window labels; CSV carries floats at full precision via repr
and leaves a missing value empty; JSON writes each cell as json.dumps
does and accepts only None, bool, int, float and str cells.  Only the
trend block of a track report is rendered apart from the table.

Emission is deterministic: rows are ordered by entity, tenor and then
period position or window index, and the JSON document is canonical
(sorted keys, fixed indentation), so identical reports always serialize
to identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .digits import DigitHistogram, digit_histogram
from .panel import ChangeSeries
from .stats import conformity
from .windows import PeriodSpec, WindowSpec, track, window_ranges

PERIOD_COLUMNS = (
    "entity", "tenor", "period", "chi2", "p_value", "verdict", "n", "small_sample",
)
TRACK_COLUMNS = (
    "entity", "tenor", "window", "start_date", "end_date", "n",
    "chi2", "p_value", "chebyshev", "kl",
)

TREND_METRICS = ("chi2", "chebyshev", "kl")

_ROWS = 1024  # rows per block of `_row_blocks`

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
    """One output table: `columns` maps each column name, in order, to its cells.

    Every column is a list of Python scalars of the same length, one
    cell per row.  `trends` holds an (entity, tenor, TrendFit) triple
    per fitted metric for a track report and is None for a period report.
    """

    columns: dict[str, list]
    meta: Mapping
    trends: tuple[tuple[str, str, TrendFit], ...] | None = None

    def __post_init__(self) -> None:
        lengths = {name: len(values) for name, values in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns of unequal length: {lengths}")


def fit_trend(values: Sequence[float], metric: str) -> TrendFit:
    """Ordinary least squares of a window metric on the window index.

    `values` are the `metric` cells of one series' windows in order, as
    a track report's column of that name holds them; the regressor is
    each value's 1-based position.  A constant column fits slope 0 with
    r_squared defined as 0.
    """
    n = len(values)
    if n < 2:
        raise ValueError("insufficient windows for trend")
    if metric not in TREND_METRICS:
        raise ValueError(f"metric must be one of {TREND_METRICS}")
    x_mean = (n + 1) / 2  # the closed forms over positions 1..n are exact
    y_mean = sum(values) / n
    sxx = n * (n * n - 1) / 12
    sxy = sum((x - x_mean) * (y - y_mean) for x, y in enumerate(values, 1))
    slope = sxy / sxx
    ss_tot = sum((yi - y_mean) ** 2 for yi in values)
    # sxy^2 / (sxx ss_tot) equals 1 - ss_res / ss_tot without its cancellation
    r_squared = min(1.0, sxy * sxy / (sxx * ss_tot)) if ss_tot else 0.0
    return TrendFit(metric, slope, y_mean - slope * x_mean, r_squared)


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
    measurable cells of all series are measured in one conformity call.
    """
    rows = [(s, period) for s in _by_key(series) for period in periods]
    cells = [_period_cell(s, period) for s, period in rows]
    stats = conformity([h for h in cells if not isinstance(h, str)], alpha)
    columns = {
        "entity": [s.entity for s, _ in rows],
        "tenor": [s.tenor for s, _ in rows],
        "period": [period.label for _, period in rows],
    }
    for name in PERIOD_COLUMNS[3:]:
        measured = iter(getattr(stats, name))
        columns[name] = [
            (cell if name == "verdict" else None) if isinstance(cell, str) else next(measured)
            for cell in cells
        ]
    return Report(columns, dict(meta or {}))


def build_track_report(
    series: Iterable[ChangeSeries],
    spec: WindowSpec = WindowSpec(),
    meta: Mapping | None = None,
) -> Report:
    """Rolling-window rows plus per-series trend fits for every metric.

    A window is dated by the first and last date of its range.  The rows
    carry measurements only, no verdict, so no significance level is
    taken.  The windows of all series are measured in one conformity
    call, which is fed one series' histograms at a time.  Trend fits
    need at least two windows; a series yielding a single window
    contributes rows but no trends.
    """
    ordered = _by_key(series)
    stats = conformity(h for s in ordered for h in track(s, spec))
    columns = {name: [] for name in TRACK_COLUMNS[:5]}
    columns.update((name, getattr(stats, name)) for name in TRACK_COLUMNS[5:])
    trends = []
    for s in ordered:
        bounds = [(r.start, r.stop - 1) for r in window_ranges(len(s.changes), spec)]
        span = slice(len(columns["entity"]), len(columns["entity"]) + len(bounds))
        starts, ends = np.datetime_as_string(s.dates[np.array(bounds).T]).tolist()
        columns["entity"] += [s.entity] * len(bounds)
        columns["tenor"] += [s.tenor] * len(bounds)
        columns["window"] += range(1, len(bounds) + 1)
        columns["start_date"] += starts
        columns["end_date"] += ends
        if len(bounds) >= 2:
            for metric in TREND_METRICS:
                trends.append((s.entity, s.tenor, fit_trend(columns[metric][span], metric)))
    return Report(columns, dict(meta or {}), tuple(trends))


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


def _row_blocks(columns: Mapping[str, list], names: Sequence[str], row, sep: str,
                formats: Mapping, fallback=str) -> Iterator[str]:
    """The rows of the `names` columns, `row` of each one's cells and `sep` between rows,
    as blocks of `_ROWS` rows to concatenate, so one block's cells are alive at a time."""
    for lo in range(0, len(columns[names[0]]) if names else 0, _ROWS):
        cells = [_cells(columns[k][lo : lo + _ROWS], formats, fallback) for k in names]
        yield (sep if lo else "") + sep.join(map(row, zip(*cells)))


def _render_text(columns: Mapping[str, list]) -> str:
    padded = []
    for name, values in columns.items():
        cells = _cells(values, {int: roman} if name == "window" else _TEXT_CELL)
        width = max([len(name), *map(len, cells)])
        padded.append([cell.ljust(width) for cell in (name, *cells)])
    lines = ["  ".join(cells).rstrip() for cells in zip(*padded)]
    return "\n".join(lines) + "\n"


def _render_csv(columns: Mapping[str, list]) -> str:
    rows = [*_row_blocks(columns, list(columns), ",".join, "\n", _CSV_CELL)]
    return "".join([",".join(columns), "\n", *rows, "\n" if rows else ""])


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


def _render_json(columns: Mapping[str, list], meta: Mapping, trends) -> str:
    """canonical_json of {"meta", "rows", "trends"} with rows as key -> cell.

    Each row fills one template whose keys are sorted once, so the rows
    never become dicts; `meta` and `trends` go through canonical_json.
    """
    keys = sorted(columns)
    names = [json.encoder.encode_basestring_ascii(k).replace("%", "%%") for k in keys]
    template = "    {\n" + ",\n".join(f"      {k}: %s" for k in names) + "\n    }"
    rows = [*_row_blocks(columns, keys, template.__mod__, ",\n", _JSON_CELL, _not_json)]
    parts = ['{\n  "meta": ', _nested_json(dict(meta)), ',\n  "rows": ']
    parts += ["[\n", *rows, "\n  ]"] if rows else ["[]"]
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
    lines = [
        f"{entity}  {tenor}  {fit.metric}  slope={fit.slope:.4f}  "
        f"intercept={fit.intercept:.4f}  r_squared={fit.r_squared:.4f}"
        for entity, tenor, fit in trends or ()
    ]
    return "\ntrends:\n" + "\n".join(lines) + "\n" if lines else ""


def emit(report: Report, fmt: str = "text") -> str:
    """Serialize a report as "text", "csv" or "json"."""
    if not isinstance(report, Report):
        raise TypeError("report must be a Report")
    if fmt == "text":
        return _render_text(report.columns) + _trend_lines(report.trends)
    if fmt == "csv":
        return _render_csv(report.columns)
    if fmt == "json":
        return _render_json(report.columns, report.meta, report.trends)
    raise ValueError('format must be one of "text", "csv", "json"')
