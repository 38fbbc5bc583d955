"""Report construction, trend fits and text/CSV/JSON emission."""

import json
import math
from datetime import date
from fractions import Fraction

import numpy as np
import pytest

from benfordtrack import (
    SMALL_SAMPLE_MIN,
    ConformityStats,
    Report,
    SynthSpec,
    ChangeSeries,
    PeriodSpec,
    TrendFit,
    WindowSpec,
    build_period_report,
    build_track_report,
    conformity,
    digit_histogram,
    emit,
    fit_trend,
    generate,
    named_periods,
    track,
    window_ranges,
)
from benfordtrack import reporting
from benfordtrack.reporting import (
    PERIOD_COLUMNS,
    TRACK_COLUMNS,
    TREND_METRICS,
    canonical_json,
    roman,
)
from helpers import json_document, make_change_series, report_rows


# ---------------------------------------------------------------- roman

@pytest.mark.parametrize(
    "n,expected",
    [
        (1, "I"),
        (4, "IV"),
        (9, "IX"),
        (14, "XIV"),
        (28, "XXVIII"),
        (38, "XXXVIII"),
        (40, "XL"),
        (90, "XC"),
        (1990, "MCMXC"),
        (2026, "MMXXVI"),
    ],
)
def test_roman_numerals(n, expected):
    assert roman(n) == expected


def test_roman_rejects_nonpositive():
    with pytest.raises(ValueError):
        roman(0)
    with pytest.raises(ValueError):
        roman(-5)


# ---------------------------------------------------------------- trend

def _results(chi_values, cheb=None, kl=None, n=90):
    """A window table with these chi-square values, like `track` returns."""
    k = len(chi_values)
    return ConformityStats(
        n=[n] * k,
        chi2=list(chi_values),
        p_value=[0.5] * k,
        verdict=["accept"] * k,
        chebyshev=cheb or [0.01] * k,
        kl=kl or [0.02] * k,
        small_sample=[n < SMALL_SAMPLE_MIN] * k,
    )


def test_fit_trend_recovers_an_exact_line():
    fit = fit_trend(_results([5.0, 7.0, 9.0, 11.0]), "chi2")
    assert fit.metric == "chi2"
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(3.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_trend_constant_sequence():
    fit = fit_trend(_results([4.0, 4.0, 4.0]), "chi2")
    assert fit.slope == 0.0
    assert fit.intercept == 4.0
    assert fit.r_squared == 0.0


def test_fit_trend_noisy_line_keeps_r_squared_in_bounds():
    fit = fit_trend(_results([1.0, 3.5, 2.0, 5.0, 4.5]), "chi2")
    assert 0.0 <= fit.r_squared <= 1.0
    assert fit.slope > 0.0


def test_fit_trend_r_squared_of_a_near_flat_series_matches_exact_arithmetic():
    # a trend a million times weaker than noise that is uncorrelated with the
    # index (+ - - + repeated): r_squared is near 3e-9, where 1 - ss_res / ss_tot
    # would keep only about seven digits
    y = [5.0 + (0.1, -0.1, -0.1, 0.1)[i % 4] + 1e-7 * i for i in range(200)]
    fit = fit_trend(_results(y), "chi2")
    xs = [Fraction(i) for i in range(1, len(y) + 1)]
    ys = [Fraction(v) for v in y]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((a - x_mean) * (b - y_mean) for a, b in zip(xs, ys))
    sxx = sum((a - x_mean) ** 2 for a in xs)
    syy = sum((b - y_mean) ** 2 for b in ys)
    want = float(sxy * sxy / (sxx * syy))
    assert 0.0 < want < 1e-6
    assert fit.r_squared == pytest.approx(want, rel=1e-12, abs=0.0)


def test_fit_trend_reads_the_requested_metric():
    results = _results([1.0] * 3, cheb=[0.10, 0.20, 0.30], kl=[0.30, 0.20, 0.10])
    assert fit_trend(results, "chebyshev").slope == pytest.approx(0.1, abs=1e-12)
    assert fit_trend(results, "kl").slope == pytest.approx(-0.1, abs=1e-12)


def test_fit_trend_validation():
    with pytest.raises(ValueError, match="insufficient windows"):
        fit_trend(_results([1.0]), "chi2")
    with pytest.raises(ValueError, match="metric"):
        fit_trend(_results([1.0, 2.0]), "median")


# -------------------------------------------------------- period report

def _panel():
    # four series spanning the full date range, one per (entity, tenor)
    out = []
    seed = 0
    for entity in ("AT", "DE"):
        for tenor in ("10Y", "5Y"):
            out.append(
                make_change_series(
                    list(generate(SynthSpec("benford", 1750, seed))),
                    start=date(2008, 8, 8),
                    entity=entity,
                    tenor=tenor,
                )
            )
            seed += 1
    return out


def _cells_of(report):
    return [dict(zip(report.columns, row)) for row in report_rows(report)]


def test_build_period_report_row_grid():
    report = build_period_report(_panel(), named_periods())
    rows = _cells_of(report)
    assert len(rows) == 20
    labels = [r["period"] for r in rows[:5]]
    assert labels == ["full", "pre_crisis", "crisis", "post_crisis", "post2010"]
    keys = [(r["entity"], r["tenor"]) for r in rows]
    assert keys == sorted(keys)
    assert all(r["verdict"] in ("accept", "reject") for r in rows)
    assert all(r["chi2"] is not None for r in rows)


def test_build_period_report_annotates_uncoverable_periods():
    late = make_change_series(
        list(generate(SynthSpec("benford", 200, 1))), start=date(2011, 3, 1), entity="GR"
    )
    report = build_period_report([late], named_periods())
    by_period = {r["period"]: r for r in _cells_of(report)}
    failed = by_period["pre_crisis"]
    assert [failed[c] for c in ("chi2", "p_value", "n", "small_sample")] == [None] * 4
    assert "pre_crisis" in failed["verdict"]
    assert by_period["crisis"]["chi2"] is not None


def test_build_period_report_measures_each_series_in_one_call(monkeypatch):
    calls = []

    def counted(histograms, alpha=0.05):
        calls.append(len(histograms))
        return conformity(histograms, alpha)

    monkeypatch.setattr(reporting, "conformity", counted)
    late = make_change_series(
        list(generate(SynthSpec("benford", 200, 1))), start=date(2011, 3, 1), entity="GR"
    )
    report = build_period_report(_panel() + [late], named_periods())
    # GR's 200 weekdays of 2011 miss pre_crisis and post_crisis
    assert calls == [5, 5, 5, 5, 3]
    assert len(report_rows(report)) == 25


def test_build_period_report_aligns_measures_around_failed_cells():
    # per series: a benford year, a year of only zero changes, a year
    # without observations and another benford year, then a span over all
    def series(entity, seed):
        days = [np.arange(f"{y}-01-01", f"{y}-10-01", dtype="datetime64[D]")
                for y in (2010, 2011, 2013)]
        changes = [generate(SynthSpec("benford", len(days[0]), seed)),
                   np.zeros(len(days[1])),
                   generate(SynthSpec("benford", len(days[2]), seed + 1))]
        return ChangeSeries(entity, "5Y", np.concatenate(days), np.concatenate(changes))

    periods = [PeriodSpec(f"y{y}", date(y, 1, 1), date(y, 12, 31))
               for y in (2010, 2011, 2012, 2013)]
    periods.append(PeriodSpec("all", date(2010, 1, 1), date(2013, 12, 31)))
    panel = [series("AT", 1), series("DE", 7)]
    rows = iter(report_rows(build_period_report(panel, periods, alpha=0.1)))
    failed = {"y2011": "empty sample", "y2012": "empty slice for period 'y2012'"}
    for s in panel:
        for period in periods:
            row = next(rows)
            assert row[:3] == (s.entity, "5Y", period.label)
            if period.label in failed:
                assert row[3:] == (None, None, failed[period.label], None, None)
                continue
            cell = s.slice(period.start, period.end).changes
            c = conformity([digit_histogram(cell)], 0.1)
            assert [float.hex(v) for v in row[3:5]] == [
                float.hex(c.chi2[0]), float.hex(c.p_value[0])]
            assert row[5:] == (c.verdict[0], c.n[0], c.small_sample[0])
    assert next(rows, None) is None


def test_build_period_report_annotates_a_non_finite_change():
    # a relative change overflows to inf when a spread jumps from 1e-300 to 1e300
    s = make_change_series([1.0, math.inf, 2.0], start=date(2010, 1, 4))
    (row,) = report_rows(build_period_report([s], named_periods()[:1]))
    assert row == ("X", "5Y", "full", None, None, "non-finite value", None, None)


def test_build_period_report_meta_passthrough():
    report = build_period_report(_panel()[:1], named_periods()[:1], meta={"run": 3})
    assert report.meta == {"run": 3}


# --------------------------------------------------------- track report

def test_build_track_report_counts_rows_and_trends():
    panel = [
        make_change_series(list(generate(SynthSpec("benford", 400, 1))), entity="AT"),
        make_change_series(list(generate(SynthSpec("benford", 400, 2))), entity="DE"),
    ]
    report = build_track_report(panel, WindowSpec())
    # 400 observations make seven full windows plus one 85-long tail
    assert len(report_rows(report)) == 16
    assert len(report.trends) == 6
    metrics = {fit.metric for _, _, fit in report.trends}
    assert metrics == set(TREND_METRICS)


def test_build_track_report_single_window_has_no_trends():
    panel = [make_change_series(list(generate(SynthSpec("benford", 50, 1))))]
    report = build_track_report(panel, WindowSpec())
    assert len(report_rows(report)) == 1
    assert report.trends == ()


# ----------------------------------------------------------- row schema

def test_columns_hold_python_scalars_in_column_order():
    covered = make_change_series(list(generate(SynthSpec("benford", 400, 5))), entity="AT")
    late = make_change_series(
        list(generate(SynthSpec("benford", 200, 1))), start=date(2011, 3, 1), entity="GR"
    )
    single = make_change_series(list(generate(SynthSpec("benford", 50, 2))), entity="PT")
    period = build_period_report([covered, late], named_periods())
    windows = build_track_report([covered, single], WindowSpec())
    assert (tuple(period.columns), period.trends) == (PERIOD_COLUMNS, None)
    assert tuple(windows.columns) == TRACK_COLUMNS
    cells = {(r["entity"], r["period"]): r for r in _cells_of(period)}
    assert cells["GR", "pre_crisis"]["verdict"].startswith("empty slice")
    assert windows.columns["entity"].count("PT") == 1
    for report, rows in ((period, 10), (windows, 9)):
        for name, values in report.columns.items():
            assert type(values) is list and len(values) == rows, name
            for cell in values:
                # exact types: a numpy scalar would render as another type
                assert type(cell) in (type(None), bool, int, float, str), (name, cell)


def test_rows_copy_each_measurement_into_its_column():
    s = make_change_series(list(generate(SynthSpec("benford", 400, 6))), entity="AT")
    full = named_periods()[0]
    (row,) = report_rows(build_period_report([s], [full], alpha=0.1))
    c = conformity([digit_histogram(s.slice(full.start, full.end).changes)], 0.1)
    assert row == ("AT", "5Y", "full", c.chi2[0], c.p_value[0], c.verdict[0],
                   c.n[0], c.small_sample[0])
    rows = report_rows(build_track_report([s], WindowSpec()))
    w = track(s, WindowSpec())
    ranges = window_ranges(len(s.changes), WindowSpec())
    assert rows == tuple(
        ("AT", "5Y", index, s.dates[r.start].item().isoformat(),
         s.dates[r.stop - 1].item().isoformat(), *cells)
        for index, (r, *cells) in enumerate(
            zip(ranges, w.n, w.chi2, w.p_value, w.chebyshev, w.kl), 1
        )
    )


# ----------------------------------------------------------- text table

def _table(columns, rows, meta, trends=None):
    """A Report holding `rows`, given as tuples in `columns` order."""
    cells = {name: [row[i] for row in rows] for i, name in enumerate(columns)}
    return Report(cells, meta, trends)


def _tiny_period_report():
    row = ("DE", "5Y", "full", 12.3456789, 0.5, "accept", 100, True)
    bad = ("DE", "5Y", "pre_crisis", None, None, "empty slice for period 'pre_crisis'",
           None, None)
    return _table(PERIOD_COLUMNS, (row, bad), {"alpha": 0.05})


def test_period_text_layout():
    text = emit(_tiny_period_report(), "text")
    lines = text.splitlines()
    assert lines[0].split() == list(PERIOD_COLUMNS)
    assert lines[1].split() == ["DE", "5Y", "full", "12.3457", "0.5000", "accept", "100", "true"]
    assert "empty slice" in lines[2]
    assert all(line == line.rstrip() for line in lines)
    assert text.endswith("\n")


def test_track_text_uses_roman_window_labels():
    panel = [make_change_series(list(generate(SynthSpec("benford", 400, 1))), entity="AT")]
    report = build_track_report(panel, WindowSpec())
    text = emit(report, "text")
    lines = text.splitlines()
    assert lines[0].split() == list(TRACK_COLUMNS)
    assert lines[1].split()[2] == "I"
    assert lines[8].split()[2] == "VIII"
    assert "trends:" in text
    assert text.count("slope=") == 3


# ------------------------------------------------------------------ csv

def test_period_csv_is_exact():
    got = emit(_tiny_period_report(), "csv")
    assert got == (
        "entity,tenor,period,chi2,p_value,verdict,n,small_sample\n"
        "DE,5Y,full,12.3456789,0.5,accept,100,true\n"
        "DE,5Y,pre_crisis,,,empty slice for period 'pre_crisis',,\n"
    )


def test_csv_floats_round_trip_exactly():
    panel = [make_change_series(list(generate(SynthSpec("benford", 1750, 4))))]
    report = build_period_report(panel, named_periods())
    body = emit(report, "csv").splitlines()[1:]
    for row, line in zip(_cells_of(report), body):
        cells = line.split(",")
        assert float(cells[3]) == row["chi2"]
        assert float(cells[4]) == row["p_value"]


def test_track_csv_layout():
    panel = [make_change_series(list(generate(SynthSpec("benford", 90, 1))), entity="AT")]
    report = build_track_report(panel, WindowSpec())
    lines = emit(report, "csv").splitlines()
    assert lines[0] == ",".join(TRACK_COLUMNS)
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "AT"
    assert first[2] == "1"  # machine format keeps plain integers
    # changes are dated at the later observation: the Monday after the start
    assert first[3] == "2008-08-11"
    assert float(first[6]) == _cells_of(report)[0]["chi2"]


# ----------------------------------------------------------------- json

def test_period_json_document():
    doc = json.loads(emit(_tiny_period_report(), "json"))
    assert set(doc) == {"meta", "rows"}
    assert doc["meta"] == {"alpha": 0.05}
    assert doc["rows"][0]["chi2"] == 12.3456789
    assert doc["rows"][0]["small_sample"] is True
    assert doc["rows"][1]["chi2"] is None
    assert doc["rows"][1]["verdict"].startswith("empty slice")


def test_track_json_document_nests_trends():
    panel = [make_change_series(list(generate(SynthSpec("benford", 400, 1))), entity="AT")]
    report = build_track_report(panel, WindowSpec())
    doc = json.loads(emit(report, "json"))
    assert set(doc) == {"meta", "rows", "trends"}
    assert len(doc["rows"]) == 8
    fits = doc["trends"]["AT"]["5Y"]
    assert set(fits) == set(TREND_METRICS)
    for fit in fits.values():
        assert set(fit) == {"slope", "intercept", "r_squared"}


def test_canonical_json_is_byte_stable():
    doc = {"b": [1.5, None], "a": {"y": True, "x": "s"}}
    once = canonical_json(doc)
    again = canonical_json(json.loads(once))
    assert once == again
    assert once == '{\n  "a": {\n    "x": "s",\n    "y": true\n  },\n  "b": [\n    1.5,\n    null\n  ]\n}\n'


def test_canonical_json_refuses_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_json_emission_round_trips_float_values():
    panel = [make_change_series(list(generate(SynthSpec("benford", 300, 8))))]
    report = build_track_report(panel, WindowSpec())
    doc = json.loads(emit(report, "json"))
    for row, entry in zip(_cells_of(report), doc["rows"]):
        assert entry["chi2"] == row["chi2"]
        assert entry["kl"] == row["kl"]


_AWKWARD_LABELS = [
    'q"uote', "back\\slash", "ctl\x00\x1f\t\n", "caf\u00e9 \u20ac", "astral \U0001f600",
    "%s%%",
]


def _awkward_report(rows, trends=()):
    columns = ("label", "value", "n", "flag", "none", 'k%s"\u00e9')
    fits = tuple(
        (label, "5Y", TrendFit(metric, 0.1 + 0.2, -0.0, 5e-324))
        for label in _AWKWARD_LABELS for metric in TREND_METRICS
    ) if trends is not None else None
    return _table(columns, rows, {"alpha": 0.05, "note": "m\u00e9ta"}, fits)


@pytest.mark.parametrize("build", ["period", "track"])
def test_json_rows_equal_the_dict_document(build):
    panel = [
        make_change_series(list(generate(SynthSpec("benford", 400, s))), entity=e)
        for s, e in ((1, "AT"), (2, 'B"E'), (3, "caf\u00e9"))
    ]
    if build == "period":
        report = build_period_report(panel, named_periods())
    else:
        report = build_track_report(panel, WindowSpec(), meta={"window": 90})
    assert emit(report, "json") == json_document(report)


@pytest.mark.parametrize("trends", [(), None], ids=["trends", "no-trends"])
def test_json_cells_equal_the_dict_document(trends):
    floats = [-0.0, 5e-324, 1e308, 0.1 + 0.2, -1.5, 12.0]
    rows = [
        (label, value, n, flag, None, label)
        for label, value, n, flag in zip(
            _AWKWARD_LABELS, floats, [0, -7, 2**70, 1, 90, 3], [True, False] * 3
        )
    ]
    report = _awkward_report(rows, trends)
    assert emit(report, "json") == json_document(report)
    empty = _awkward_report([], trends)
    assert emit(empty, "json") == json_document(empty)
    for odd in (Report({}, {}), Report({"b": [1, None], "a": ["x", "y"]}, {})):
        assert emit(odd, "json") == json_document(odd)


@pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
def test_json_refuses_a_non_finite_cell(cell):
    with pytest.raises(ValueError):
        emit(_awkward_report([("x", cell, 1, True, None, "x")]), "json")


def test_json_refuses_a_numpy_cell():
    with pytest.raises(TypeError):
        emit(_awkward_report([("x", np.float64(1.5), 1, True, None, "x")]), "json")


# ------------------------------------------------------------ emit guard

def test_report_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match=r"^columns of unequal length: \{'a': 2, 'b': 1\}$"):
        Report({"a": ["x", "y"], "b": [1]}, {})


@pytest.mark.parametrize("columns", [
    {},
    {"a": []},
    {"a": [], "b": []},
    {"a": ["x"], "b": [1], "c": [None]},
], ids=["no-columns", "one-empty-column", "two-empty-columns", "three-one-cell-columns"])
def test_report_accepts_columns_of_equal_length(columns):
    assert Report(columns, {}).columns is columns


def test_emit_rejects_unknown_format_and_type():
    report = _tiny_period_report()
    with pytest.raises(ValueError, match="format"):
        emit(report, "yaml")
    with pytest.raises(TypeError):
        emit({"rows": []}, "text")


def test_emission_is_deterministic_across_calls():
    panel = [make_change_series(list(generate(SynthSpec("benford", 400, 3))))]
    for fmt in ("text", "csv", "json"):
        a = emit(build_track_report(panel, WindowSpec()), fmt)
        b = emit(build_track_report(panel, WindowSpec()), fmt)
        assert a == b
