"""Named periods, window geometry, period rows and rolling tracks."""

from dataclasses import fields
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benfordtrack import (
    ConformityStats,
    PeriodSpec,
    SynthSpec,
    WindowSpec,
    build_period_report,
    build_track_report,
    conformity,
    digit_histogram,
    generate,
    named_periods,
    track,
    window_ranges,
)
from helpers import enumerate_windows, make_change_series, report_rows


# --------------------------------------------------------- named periods

def test_named_period_dates():
    periods = {p.label: p for p in named_periods()}
    assert set(periods) == {"full", "pre_crisis", "crisis", "post_crisis", "post2010"}
    assert periods["full"].start == date(2008, 8, 8)
    assert periods["full"].end == date(2015, 4, 25)
    assert periods["pre_crisis"].start == date(2008, 8, 8)
    assert periods["pre_crisis"].end == date(2010, 1, 1)
    assert periods["crisis"].start == date(2010, 1, 1)
    assert periods["crisis"].end == date(2013, 10, 31)
    assert periods["post_crisis"].start == date(2013, 11, 1)
    assert periods["post_crisis"].end == date(2015, 4, 25)
    assert periods["post2010"].start == date(2010, 1, 1)
    assert periods["post2010"].end == date(2015, 4, 25)


def test_named_periods_nest_inside_full():
    periods = {p.label: p for p in named_periods()}
    full = periods["full"]
    for p in periods.values():
        assert full.start <= p.start <= p.end <= full.end


def test_crisis_and_post_crisis_are_adjacent():
    periods = {p.label: p for p in named_periods()}
    gap = periods["post_crisis"].start - periods["crisis"].end
    assert gap == timedelta(days=1)


def test_period_spec_validation():
    with pytest.raises(ValueError, match="start"):
        PeriodSpec("x", date(2011, 1, 1), date(2010, 1, 1))
    with pytest.raises(ValueError, match="label"):
        PeriodSpec("", date(2010, 1, 1), date(2011, 1, 1))


# ------------------------------------------------------- window geometry

def test_window_spec_defaults():
    spec = WindowSpec()
    assert (spec.length, spec.step) == (90, 45)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"length": 0},
        {"length": -3},
        {"step": 0},
        {"step": 91},
    ],
)
def test_window_spec_validation(kwargs):
    with pytest.raises(ValueError):
        WindowSpec(**kwargs)


def test_window_ranges_reference_panel():
    ranges = window_ranges(1750, WindowSpec())
    assert len(ranges) == 38
    sizes = [len(r) for r in ranges]
    assert sizes[:37] == [90] * 37
    assert sizes[37] == 85
    assert [r.start for r in ranges] == [45 * k for k in range(38)]
    assert ranges[-1] == range(1665, 1750)


@pytest.mark.parametrize(
    "n,expected_sizes",
    [
        (90, [90, 45]),
        (100, [90, 55]),
        (135, [90, 90, 45]),
        (50, [50]),
        (89, [89]),
        (45, [45]),
    ],
)
def test_window_ranges_small_panels(n, expected_sizes):
    ranges = window_ranges(n, WindowSpec())
    assert [len(r) for r in ranges] == expected_sizes


def test_window_ranges_too_short():
    with pytest.raises(ValueError, match="too short"):
        window_ranges(44, WindowSpec())
    with pytest.raises(ValueError, match="too short"):
        window_ranges(0, WindowSpec())


def test_partial_window_needs_half_a_window():
    spec = WindowSpec(length=10, step=10)
    assert [len(r) for r in window_ranges(25, spec)] == [10, 10, 5]
    assert [len(r) for r in window_ranges(24, spec)] == [10, 10]
    odd = WindowSpec(length=11, step=11)  # half of 11 rounds up
    assert [len(r) for r in window_ranges(28, odd)] == [11, 11, 6]
    assert [len(r) for r in window_ranges(27, odd)] == [11, 11]


@given(
    n=st.integers(1, 2000),
    length=st.integers(1, 200),
    step_frac=st.floats(0.0, 1.0),
)
@settings(max_examples=300)
def test_window_ranges_match_enumeration_oracle(n, length, step_frac):
    step = max(1, min(length, round(step_frac * length)))
    spec = WindowSpec(length=length, step=step)
    expected = enumerate_windows(n, length, step)
    if not expected:
        with pytest.raises(ValueError):
            window_ranges(n, spec)
        return
    got = [(r.start, r.stop) for r in window_ranges(n, spec)]
    assert got == expected


@given(
    n=st.integers(10, 2000),
    length=st.integers(2, 200),
    step=st.integers(1, 100),
)
@settings(max_examples=200)
def test_windows_cover_series_when_step_small_enough(n, length, step):
    # overlap guarantee: stepping by at most half a window leaves no
    # observation uncovered, as a dropped tail lies inside the last full window
    step = min(step, length // 2)
    spec = WindowSpec(length=length, step=step)
    if 2 * n < length:
        return
    try:
        ranges = window_ranges(n, spec)
    except ValueError:
        return
    covered = set()
    for r in ranges:
        covered.update(r)
    assert covered == set(range(n))


def test_window_ranges_partition_when_step_equals_length():
    spec = WindowSpec(length=20, step=20)
    ranges = window_ranges(110, spec)
    flat = [i for r in ranges for i in r]
    assert flat == list(range(110))


# -------------------------------------------------------- period slicing

def _measures(c):
    """The measurement cells of a period row, from a one-row ConformityStats."""
    return (c.chi2[0], c.p_value[0], c.verdict[0], c.n[0], c.small_sample[0])


def _row(table, i):
    """Row i of a ConformityStats table, as a one-row table."""
    return ConformityStats(**{f.name: getattr(table, f.name)[i : i + 1] for f in fields(table)})


def test_period_rows_slice_by_date():
    series = make_change_series(list(generate(SynthSpec("benford", 300, 3))))
    dates = series.dates.tolist()
    mid = dates[150]
    period = PeriodSpec("head", dates[0], mid)
    (row,) = report_rows(build_period_report([series], [period]))
    head = [v for d, v in zip(dates, series.changes) if d <= mid]
    manual = conformity([digit_histogram(head)])
    assert row[3:] == _measures(manual)
    assert digit_histogram(series.slice(dates[0], mid).changes) == digit_histogram(head)


def test_period_row_of_an_empty_slice_is_annotated():
    series = make_change_series([1.0, 2.0, 3.0])
    period = PeriodSpec("void", date(1999, 1, 1), date(1999, 2, 1))
    (row,) = report_rows(build_period_report([series], [period]))
    assert row == ("X", "5Y", "void", None, None, "empty slice for period 'void'",
                   None, None)


def test_sub_periods_concatenate_to_post2010():
    values = list(generate(SynthSpec("benford", 1750, 11)))
    series = make_change_series(values, start=date(2008, 8, 8))
    periods = {p.label: p for p in named_periods()}
    crisis = series.slice(periods["crisis"].start, periods["crisis"].end)
    post = series.slice(periods["post_crisis"].start, periods["post_crisis"].end)
    both = series.slice(periods["post2010"].start, periods["post2010"].end)
    for column in ("dates", "changes"):
        joined = np.concatenate([getattr(crisis, column), getattr(post, column)])
        assert np.array_equal(joined, getattr(both, column))
    merged = conformity([digit_histogram(list(crisis.changes) + list(post.changes))])
    (row,) = report_rows(build_period_report([series], [periods["post2010"]]))
    assert row[3:] == _measures(merged)


# --------------------------------------------------------------- tracks

def test_track_reference_panel_geometry():
    series = make_change_series(list(generate(SynthSpec("benford", 1750, 5))))
    results = track(series, WindowSpec())
    ranges = window_ranges(len(series.changes), WindowSpec())
    assert len(results) == len(ranges) == 38
    rows = report_rows(build_track_report([series], WindowSpec()))
    assert [row[2] for row in rows] == list(range(1, 39))
    assert [len(r) for r in ranges] == [90] * 37 + [85]
    starts = [series.dates[r.start].item() for r in ranges]
    assert starts[0] == series.dates[0].item()
    assert series.dates[ranges[-1].stop - 1].item() == series.dates[-1].item()
    for prev, cur in zip(starts, starts[1:]):
        assert prev < cur


def test_track_windows_match_direct_conformity():
    values = list(generate(SynthSpec("benford", 400, 9)))
    series = make_change_series(values)
    spec = WindowSpec(length=100, step=50)
    results = track(series, spec)
    ranges = window_ranges(len(values), spec)
    rows = report_rows(build_track_report([series], spec))
    assert len(results) == len(ranges) == len(rows)
    for i, (r, row) in enumerate(zip(ranges, rows)):
        chunk = values[r.start : r.stop]
        direct = conformity([digit_histogram(chunk)])
        w = _row(results, i)
        assert w == direct
        assert row[3] == series.dates[r.start].item().isoformat()
        assert row[4] == series.dates[r.stop - 1].item().isoformat()
        assert w.n == [len(chunk)]  # benford draws hold no zero


def test_track_window_dates_come_from_the_data():
    series = make_change_series(list(generate(SynthSpec("benford", 90, 2))))
    results = track(series, WindowSpec())
    ranges = window_ranges(len(series.changes), WindowSpec())
    assert len(results) == 2
    assert len(ranges[0]) == 90
    assert len(ranges[1]) == 45
    rows = report_rows(build_track_report([series], WindowSpec()))
    assert rows[1][3] == series.dates[45].item().isoformat()


def test_track_constant_series_rejects_every_window():
    series = make_change_series([5.0] * 200)
    w = track(series, WindowSpec())
    for verdict, p in zip(w.verdict, w.p_value, strict=True):
        assert verdict == "reject"
        assert p < 1e-12


@pytest.mark.parametrize(
    "n, spec",
    [(400, WindowSpec()), (1750, WindowSpec()), (90, WindowSpec()), (50, WindowSpec()),
     (107, WindowSpec(20, 20)), (300, WindowSpec(7, 3)), (11, WindowSpec(1, 1))],
)
def test_track_has_one_row_per_window(n, spec):
    s = make_change_series(list(generate(SynthSpec("benford", n, n))))
    assert len(track(s, spec)) == len(window_ranges(len(s.changes), spec))


def test_track_all_zero_window_raises():
    series = make_change_series([0.0] * 120)
    with pytest.raises(ValueError, match="empty sample"):
        track(series, WindowSpec())


def test_track_group_means_separate_clean_from_shifted():
    # windows drawn from digit-uniform data must sit far above windows
    # drawn from Benford data, consistently across seeds
    for seed in (1, 2, 3):
        clean = make_change_series(list(generate(SynthSpec("benford", 900, seed))))
        noisy = make_change_series(list(generate(SynthSpec("uniform_digit", 900, seed))))
        clean_chi = track(clean, WindowSpec()).chi2
        noisy_chi = track(noisy, WindowSpec()).chi2
        clean_mean = sum(clean_chi) / len(clean_chi)
        noisy_mean = sum(noisy_chi) / len(noisy_chi)
        assert noisy_mean > clean_mean * 3
