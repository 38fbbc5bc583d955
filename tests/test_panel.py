"""Panel CSV parsing, serialization, daily changes and slicing."""

import io
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from benfordtrack import (
    ChangeSeries,
    PanelFormatError,
    SpreadSeries,
    daily_changes,
    parse_panel,
    serialize_panel,
)

GOOD = """date,entity,tenor,spread_bps

# sovereign panel fixture
2010-01-06,Germany,5Y,41.5
2010-01-05,Germany,5Y,40.0
2010-01-05,Germany,10Y,55.25
2010-01-05,France,5Y,30.0
"""


# ------------------------------------------------------------- parsing

def test_parse_groups_and_sorts():
    series = parse_panel(GOOD)
    keys = [(s.entity, s.tenor) for s in series]
    assert keys == [("France", "5Y"), ("Germany", "10Y"), ("Germany", "5Y")]
    germany = series[-1]
    assert germany.observations == (
        (date(2010, 1, 5), 40.0),
        (date(2010, 1, 6), 41.5),
    )


def test_parse_accepts_file_like_sources():
    assert parse_panel(io.StringIO(GOOD)) == parse_panel(GOOD)


def test_parse_skips_blank_and_comment_lines():
    series = parse_panel(GOOD)
    assert sum(len(s.observations) for s in series) == 4


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("", 1, "header"),
        ("date;entity;tenor;spread_bps\n", 1, "header"),
        ("date,entity,tenor,spread\n", 1, "header"),
        (GOOD + "2010-01-07,Germany,5Y\n", 8, "4 fields"),
        (GOOD + "07/01/2010,Germany,5Y,42.0\n", 8, "ISO date"),
        (GOOD + "2010-01-07,,5Y,42.0\n", 8, "entity"),
        (GOOD + "2010-01-07,Germany,,42.0\n", 8, "tenor"),
        (GOOD + "2010-01-07,Germany,5Y,fast\n", 8, "spread"),
        (GOOD + "2010-01-07,Germany,5Y,4_2\n", 8, "spread"),
        (GOOD + "2010-01-07,Germany,5Y,nan\n", 8, "non-finite"),
        (GOOD + "2010-01-07,Germany,5Y,inf\n", 8, "non-finite"),
        (GOOD + "2010-01-07,Germany,5Y,0.0\n", 8, "nonpositive"),
        (GOOD + "2010-01-07,Germany,5Y,-3.5\n", 8, "nonpositive"),
        (GOOD + "2010-01-05,Germany,5Y,40.0\n", 8, "duplicate"),
    ],
)
def test_parse_rejections_carry_line_numbers(text, line, fragment):
    with pytest.raises(PanelFormatError, match=f"line {line}.*{fragment}") as exc:
        parse_panel(text)
    assert exc.value.line_no == line


def test_round_trip_is_identity():
    series = parse_panel(GOOD)
    assert parse_panel(serialize_panel(series)) == series


def test_serialize_preserves_exact_floats():
    text = "date,entity,tenor,spread_bps\n2010-01-05,X,5Y,40.123456789012345\n"
    series = parse_panel(text)
    again = parse_panel(serialize_panel(series))
    assert again[0].observations[0][1] == series[0].observations[0][1]


# ----------------------------------------------------- series validation

def test_spread_series_rejects_unsorted_or_duplicate_dates():
    with pytest.raises(ValueError, match="strictly increasing"):
        SpreadSeries("X", "5Y", ((date(2010, 1, 2), 1.0), (date(2010, 1, 1), 2.0)))
    with pytest.raises(ValueError, match="strictly increasing"):
        SpreadSeries("X", "5Y", ((date(2010, 1, 1), 1.0), (date(2010, 1, 1), 2.0)))


def test_spread_series_rejects_bad_spreads():
    with pytest.raises(ValueError, match="positive"):
        SpreadSeries("X", "5Y", ((date(2010, 1, 1), 0.0),))
    with pytest.raises(ValueError, match="positive"):
        SpreadSeries("X", "5Y", ((date(2010, 1, 1), math.inf),))


# -------------------------------------------------------- daily changes

def _series(pairs):
    return SpreadSeries("X", "5Y", tuple(pairs))


def test_daily_changes_values_and_gaps():
    s = _series(
        [
            (date(2010, 1, 4), 100.0),
            (date(2010, 1, 5), 101.5),
            (date(2010, 1, 8), 101.5),
        ]
    )
    ch = daily_changes(s)
    assert ch.dates.tolist() == [date(2010, 1, 5), date(2010, 1, 8)]
    assert ch.changes.tolist() == [1.5, 0.0]
    assert ch.gaps.tolist() == [1, 3]
    assert ch.dropped == 0
    assert (ch.dates.dtype, ch.changes.dtype, ch.gaps.dtype) == (
        np.dtype("datetime64[D]"),
        np.dtype(np.float64),
        np.dtype(np.int64),
    )
    with pytest.raises(ValueError, match="read-only"):
        ch.slice(date(2010, 1, 5), date(2010, 1, 5)).changes[0] = 9.0


def test_daily_changes_relative_mode():
    s = _series([(date(2010, 1, 4), 100.0), (date(2010, 1, 5), 110.0)])
    ch = daily_changes(s, mode="relative")
    assert ch.changes[0] == pytest.approx(0.1)


def test_daily_changes_gap_cap_drops_without_bridging():
    s = _series(
        [
            (date(2010, 1, 1), 10.0),
            (date(2010, 1, 2), 12.0),
            (date(2010, 3, 1), 15.0),
        ]
    )
    ch = daily_changes(s, max_gap_days=7)
    assert ch.changes.tolist() == [2.0]
    assert ch.dropped == 1
    assert len(ch.changes) + ch.dropped == len(s.observations) - 1


def test_daily_changes_default_keeps_every_gap():
    s = _series([(date(2010, 1, 1), 10.0), (date(2011, 6, 1), 20.0)])
    ch = daily_changes(s)
    assert ch.gaps[0] == (date(2011, 6, 1) - date(2010, 1, 1)).days


def test_daily_changes_validation():
    s = _series([(date(2010, 1, 1), 10.0)])
    with pytest.raises(ValueError, match="too short"):
        daily_changes(s)
    two = _series([(date(2010, 1, 1), 10.0), (date(2010, 1, 2), 11.0)])
    with pytest.raises(ValueError, match="mode"):
        daily_changes(two, mode="log")
    with pytest.raises(ValueError, match="max_gap_days"):
        daily_changes(two, max_gap_days=0)


@given(
    offsets=st.lists(st.integers(1, 40), min_size=1, max_size=40),
    spreads=st.lists(st.floats(1.0, 1e6), min_size=2, max_size=41),
    cap=st.one_of(st.none(), st.integers(1, 60)),
)
def test_daily_changes_match_pairwise_oracle(offsets, spreads, cap):
    n = min(len(offsets) + 1, len(spreads))
    days = [0]
    for o in offsets[: n - 1]:
        days.append(days[-1] + o)
    obs = [(date(2010, 1, 1) + timedelta(days=d), s) for d, s in zip(days, spreads)]
    s = _series(obs)
    ch = daily_changes(s, max_gap_days=cap)
    expected = []
    dropped = 0
    for (d0, s0), (d1, s1) in zip(obs, obs[1:]):
        gap = (d1 - d0).days
        if cap is not None and gap > cap:
            dropped += 1
        else:
            expected.append((d1, s1 - s0, gap))
    got = zip(ch.dates.tolist(), ch.changes.tolist(), ch.gaps.tolist())
    assert list(got) == expected
    assert ch.dropped == dropped
    assert len(ch.changes) + ch.dropped == len(obs) - 1


# --------------------------------------------------------------- slicing

def _change_series(day_values, entity="X", tenor="5Y", dropped=0):
    days, values = zip(*day_values)
    return ChangeSeries(
        entity,
        tenor,
        np.array(days, dtype="datetime64[D]"),
        np.array(values, dtype=np.float64),
        np.ones(len(days), dtype=np.int64),
        dropped,
    )


def _columns(s):
    return s.dates.tolist(), s.changes.tolist(), s.gaps.tolist()


def test_slice_bounds_are_inclusive():
    s = _change_series(
        [
            (date(2010, 1, 1), 1.0),
            (date(2010, 1, 2), 2.0),
            (date(2010, 1, 3), 3.0),
        ]
    )
    cut = s.slice(date(2010, 1, 1), date(2010, 1, 2))
    assert cut.changes.tolist() == [1.0, 2.0]
    assert cut.dates.tolist() == [date(2010, 1, 1), date(2010, 1, 2)]


def test_slice_can_be_empty():
    s = _change_series([(date(2010, 1, 1), 1.0)])
    assert _columns(s.slice(date(2011, 1, 1), date(2011, 2, 1))) == ([], [], [])


def test_slice_rejects_reversed_bounds():
    s = _change_series([(date(2010, 1, 1), 1.0)])
    with pytest.raises(ValueError):
        s.slice(date(2010, 2, 1), date(2010, 1, 1))


def test_slice_is_idempotent_and_keeps_metadata():
    s = _change_series(
        [(date(2010, 1, 1) + timedelta(days=i), float(i + 1)) for i in range(10)],
        entity="E",
        tenor="10Y",
        dropped=2,
    )
    lo, hi = date(2010, 1, 3), date(2010, 1, 7)
    once = s.slice(lo, hi)
    twice = once.slice(lo, hi)
    assert _columns(twice) == _columns(once)
    for cut in (once, twice):
        assert cut.entity == "E" and cut.tenor == "10Y" and cut.dropped == 2


def test_adjacent_slices_concatenate_to_the_union():
    days = [date(2010, 1, 1) + timedelta(days=i) for i in range(60)]
    s = _change_series([(d, float(i + 1)) for i, d in enumerate(days)])
    mid = days[30]
    left = s.slice(days[0], mid)
    right = s.slice(mid + timedelta(days=1), days[-1])
    whole = s.slice(days[0], days[-1])
    joined = [a + b for a, b in zip(_columns(left), _columns(right))]
    assert joined == list(_columns(whole))
