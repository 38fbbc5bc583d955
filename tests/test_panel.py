"""Panel CSV parsing, serialization, daily changes and slicing."""

import math
import mmap
import os
import random
import re
import signal
import time
import tracemalloc
import types
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benfordtrack import (
    ChangeSeries,
    PanelFormatError,
    SpreadSeries,
    SynthSpec,
    daily_changes,
    parse_panel,
    serialize_panel,
    synth_panel,
)
from benfordtrack import panel
from benfordtrack.panel import iso_date
from helpers import reference_serialize

GOOD = """date,entity,tenor,spread_bps

# sovereign panel fixture
2010-01-06,Germany,5Y,41.5
2010-01-05,Germany,5Y,40.0
2010-01-05,Germany,10Y,55.25
2010-01-05,France,5Y,30.0
"""

# every line break of str.splitlines but "\n"
_BREAKS = ("\r", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\u2028", "\u2029")


# ------------------------------------------------------------- parsing

def test_parse_groups_and_sorts():
    series = parse_panel(GOOD)
    keys = [(s.entity, s.tenor) for s in series]
    assert keys == [("France", "5Y"), ("Germany", "10Y"), ("Germany", "5Y")]
    germany = series[-1]
    assert germany.dates.tolist() == [date(2010, 1, 5), date(2010, 1, 6)]
    assert germany.spreads.tolist() == [40.0, 41.5]


def _rows(series):
    """Every field of a series list, so results compare by value."""
    return [(s.entity, s.tenor, s.dates.tolist(), s.spreads.tolist()) for s in series]


def test_parse_skips_blank_and_comment_lines():
    series = parse_panel(GOOD)
    assert sum(len(s.spreads) for s in series) == 4


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("", 1, "header"),
        ("date;entity;tenor;spread_bps\n", 1, "header"),
        ("date,entity,tenor,spread\n", 1, "header"),
        ("\ufeff" + GOOD, 1, "header starts with a UTF-8 byte-order mark"),
        (GOOD + "2010-01-07,Germany,5Y\n", 8, "4 fields"),
        (GOOD + "07/01/2010,Germany,5Y,42.0\n", 8, "ISO date"),
        (GOOD + "20100107,Germany,5Y,42.0\n", 8, "ISO date '20100107'"),
        (GOOD + "2010-W01-4,Germany,5Y,42.0\n", 8, "ISO date '2010-W01-4'"),
        (GOOD + "2010-1-7,Germany,5Y,42.0\n", 8, "ISO date"),
        (GOOD + "2010-01,Germany,5Y,42.0\n", 8, "ISO date"),
        (GOOD + "2010-01-07T00:00,Germany,5Y,42.0\n", 8, "ISO date"),
        (GOOD + "2010-02-30,Germany,5Y,42.0\n", 8, "ISO date"),
        (GOOD + "\u0662\u0660\u0661\u0660-01-07,Germany,5Y,42.0\n", 8, "ISO date"),
        # the same day written twice: an invalid date, not a duplicate
        (GOOD + "20100106,Germany,5Y,42.0\n", 8, "ISO date"),
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
    assert _rows(parse_panel(serialize_panel(series))) == _rows(series)


def test_serialize_preserves_exact_floats():
    text = "date,entity,tenor,spread_bps\n2010-01-05,X,5Y,40.123456789012345\n"
    series = parse_panel(text)
    again = parse_panel(serialize_panel(series))
    assert again[0].spreads[0] == series[0].spreads[0] == 40.123456789012345


def test_serialize_writes_the_header_alone_without_rows():
    empty = SpreadSeries("X", "5Y", ())
    for series in ([], [empty], [empty, SpreadSeries("A", "1Y", ())], iter([empty])):
        assert serialize_panel(series) == "date,entity,tenor,spread_bps\n"


_SPREAD = st.one_of(
    st.sampled_from([5e-324, 1.7976931348623157e308, 100.0, 1.0, 40.5]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
# first days that give ranges reaching year 1, year 9999 and the paper's sample
_FIRST = st.one_of(
    st.sampled_from([date.min, date(2008, 8, 8), date(2008, 8, 20), date.max - timedelta(60)]),
    st.dates(max_value=date.max - timedelta(60)),
)
_OFFSETS = st.frozensets(st.integers(0, 60), max_size=25)


@st.composite
def _unsorted_panels(draw):
    """0-6 series in drawn order, some empty, their dates identical,
    overlapping or disjoint: each may reuse one shared set of day offsets."""
    shared = draw(_OFFSETS)
    series = []
    for k in range(draw(st.integers(0, 6))):
        first = draw(_FIRST)
        offsets = shared if draw(st.booleans()) else draw(_OFFSETS)
        days = [first + timedelta(o) for o in sorted(offsets)]
        spreads = draw(st.lists(_SPREAD, min_size=len(days), max_size=len(days)))
        series.append(SpreadSeries(f"E{k % 3}", f"T{k}", zip(days, spreads)))
    return draw(st.permutations(series))


@settings(max_examples=300)
@given(series=_unsorted_panels())
def test_serialize_matches_the_row_at_a_time_writer(series):
    text = serialize_panel(s for s in series)
    assert text == reference_serialize(series)
    filled = sorted((s for s in series if len(s.dates)), key=lambda s: (s.entity, s.tenor))
    assert _rows(parse_panel(text)) == _rows(filled)


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


def test_daily_changes_values_and_dtypes():
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
    assert ch.dropped == 0
    assert (ch.dates.dtype, ch.changes.dtype) == (np.dtype("datetime64[D]"), np.dtype(np.float64))
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
    assert len(ch.changes) + ch.dropped == len(s.spreads) - 1


def test_daily_changes_default_keeps_every_gap():
    s = _series([(date(2010, 1, 1), 10.0), (date(2011, 6, 1), 20.0)])
    ch = daily_changes(s)
    assert (ch.dates.tolist(), ch.changes.tolist(), ch.dropped) == ([date(2011, 6, 1)], [10.0], 0)


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
            expected.append((d1, s1 - s0))
    got = zip(ch.dates.tolist(), ch.changes.tolist())
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
        dropped,
    )


def _columns(s):
    return s.dates.tolist(), s.changes.tolist()


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
    assert _columns(s.slice(date(2011, 1, 1), date(2011, 2, 1))) == ([], [])


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


# ------------------------------------------------------ column contract

def test_spread_series_columns_are_read_only_copies():
    dates = np.array(["2010-01-04", "2010-01-05"], dtype="datetime64[D]")
    spreads = np.array([40.0, 41.5])
    built = SpreadSeries.from_columns("X", "5Y", dates, spreads)
    dates[0], spreads[0] = np.datetime64("2009-01-01"), 1.0
    assert built.dates.tolist() == [date(2010, 1, 4), date(2010, 1, 5)]
    assert built.spreads.tolist() == [40.0, 41.5]
    paired = _series([(date(2010, 1, 4), 40.0), (date(2010, 1, 5), 41.5)])
    # GOOD has a comment line, so only the line parser reads it
    (columnar,) = parse_panel(serialize_panel([paired]))
    for s in (built, paired, columnar, parse_panel(GOOD)[0]):
        assert (s.dates.dtype, s.spreads.dtype) == (
            np.dtype("datetime64[D]"),
            np.dtype(np.float64),
        )
        for column in (s.dates, s.spreads):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[-1]


def test_observations_are_derived_from_the_columns():
    pairs = ((date(2010, 1, 4), 40.0), (date(2010, 1, 6), 41.5))
    s = _series(pairs)
    assert s.observations == pairs
    assert s.dates.tolist() == [date(2010, 1, 4), date(2010, 1, 6)]
    assert s.spreads.tolist() == [40.0, 41.5]
    assert _series(()).observations == ()


@pytest.mark.parametrize(
    "days,spreads,message",
    [
        (["2010-01-02", "2010-01-01"], [1.0, 2.0], "strictly increasing"),
        (["2010-01-01", "2010-01-01"], [1.0, 2.0], "strictly increasing"),
        (["2010-01-01", "NaT"], [1.0, 2.0], "strictly increasing"),
        (["NaT"], [1.0], "years 1 to 9999"),
        (["10000-01-01"], [1.0], "years 1 to 9999"),
        (["2010-01-01"], [0.0], "positive"),
        (["2010-01-01"], [-1.0], "positive"),
        (["2010-01-01"], [math.inf], "positive"),
        (["2010-01-01"], [math.nan], "positive"),
        (["2010-01-01"], [1.0, 2.0], "equal length"),
    ],
)
def test_from_columns_validates_like_the_pair_constructor(days, spreads, message):
    with pytest.raises(ValueError, match=message):
        SpreadSeries.from_columns("X", "5Y", np.array(days, "datetime64[D]"), spreads)


@pytest.mark.parametrize("field", ["entity", "tenor"])
def test_labels_must_be_writable_as_panel_csv(field):
    day = np.array(["2010-01-04"], "datetime64[D]")
    for bad in ("", ",", "A,B", "A\nB", *(f"A{mark}B" for mark in _BREAKS)):
        labels = {"entity": "X", "tenor": "5Y", field: bad}
        message = rf"^{field} {re.escape(repr(bad))} is empty or holds a comma or line break$"
        with pytest.raises(ValueError, match=message):
            SpreadSeries(labels["entity"], labels["tenor"], ((date(2010, 1, 4), 1.0),))
        with pytest.raises(ValueError, match=message):
            SpreadSeries.from_columns(labels["entity"], labels["tenor"], day, [1.0])


_LABEL = st.text(st.characters(exclude_characters=",\n" + "".join(_BREAKS)), min_size=1)


@given(entity=_LABEL, tenor=_LABEL)
def test_accepted_labels_round_trip_through_csv(entity, tenor):
    s = SpreadSeries(entity, tenor, ((date(2010, 1, 4), 40.0), (date(2010, 1, 5), 41.5)))
    (back,) = parse_panel(serialize_panel([s]))
    assert (back.entity, back.tenor) == (entity, tenor)
    assert back.dates.tolist() == s.dates.tolist()
    assert back.spreads.tolist() == s.spreads.tolist()


def test_iso_date_accepts_exactly_the_ten_character_form():
    assert iso_date("2010-01-05") == date(2010, 1, 5)
    assert iso_date("0001-01-01") == date.min
    for text in ("20100105", "2010-W01-2", "2010-001", "2010-1-5", " 2010-01-05",
                 "2010-01-05 ", "2010-01-05T00", "2010-13-01", "0000-01-01"):
        with pytest.raises(ValueError):
            iso_date(text)


# ------------------------------------------- columnar and line parsers

def _sovereign_panel(entities=40, n=600, seed=0):
    series = [
        synth_panel(SynthSpec("benford", n, seed * 1000 + k), entity=f"E{k:02d}",
                    tenor=tenor)
        for k in range(entities)
        for tenor in ("5Y", "10Y")
    ]
    return serialize_panel(series)


def test_well_formed_panels_never_reach_the_line_parser(monkeypatch):
    header, *body = _sovereign_panel(entities=3, n=40).splitlines()
    random.Random(1).shuffle(body)
    text = "\n".join([header, *body]) + "\n"
    expected = _rows(panel._parse_lines(text))

    def refuse(text):
        raise AssertionError("line parser called on well-formed input")

    monkeypatch.setattr(panel, "_parse_lines", refuse)
    assert _rows(parse_panel(text.rstrip("\n"))) == expected
    for ending in ("\n", "\r\n", "\r"):  # each also with trailing blank lines
        assert _rows(parse_panel(text.replace("\n", ending))) == expected
        assert _rows(parse_panel((text + "\n\n").replace("\n", ending))) == expected
    assert parse_panel(header + "\n\n\n") == []


def test_columnar_parse_spans_chunks(monkeypatch):
    text = _sovereign_panel(entities=4, n=300)
    expected = _rows(panel._parse_lines(text))
    monkeypatch.setattr(panel, "_CHUNK", 997)  # chunks end mid-line
    assert _rows(panel._parse_columns(text)) == expected
    monkeypatch.setattr(panel, "_CHUNK", 20)  # shorter than a line
    assert panel._parse_columns(text) is None


class _TracedMapping(mmap.mmap):
    """An anonymous mapping that holds a traced buffer of its size while it lives.

    tracemalloc does not see mappings; the buffer makes it count the
    parse columns for as long as they are alive.
    """

    def __init__(self, fileno, length, *args, **kwargs):
        self.shadow = bytearray(length)


def test_parsed_panel_keeps_columns_not_row_objects(monkeypatch):
    monkeypatch.setattr(panel, "mmap", types.SimpleNamespace(mmap=_TracedMapping))
    text = _sovereign_panel(entities=50, n=999)
    rows = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series = parse_panel(text)
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert sum(len(s.spreads) for s in series) == rows
    # two 8-byte columns per row, plus a little per series
    assert retained <= 32 * rows
    # three 8-byte parse columns per row plus one chunk's strings (38.0 bytes
    # per row measured), then at most four 8-byte columns per row during the
    # sort (a fifth column alive there measured 40.2)
    assert peak <= 40 * rows


def test_parsed_columns_are_views_that_stay_read_only():
    series = parse_panel(_sovereign_panel(entities=2, n=20))
    assert len(series) == 4
    for s in series:
        for column in (s.dates, s.spreads):
            assert column.base is not None
            with pytest.raises(ValueError):
                column.flags.writeable = True


# rejected spreads, and unusual spellings that `float` accepts
_ODD_SPREADS = ("1_0", "nan", "1e400", "0", "-1", "inf", "-0.0", "1e-400", "", " 4.5",
                "4.5 ", "4.5\x1f", "0x10", "\u0664\u0662", "4,5")
_BAD_DATES = ("20100105", "2010-W01-2", "2010-01", "2010-1-5", "2010-02-30",
              "0000-01-01", " 2010-01-05", "2010-01-05T00:00", "")


def _mutated_panel(rng: random.Random) -> str:
    """A small valid panel, shuffled, with zero to three random defects."""
    series = []
    for entity in rng.sample(["DE", "FR", "IT", "A_B", "Z\u00e9", "x y"], rng.randint(1, 3)):
        for tenor in rng.sample(["5Y", "10Y", "1Y"], rng.randint(1, 2)):
            start = date(2010, 1, 1) + timedelta(rng.randrange(30))
            n = rng.randint(1, 6)
            days = synth_panel(SynthSpec("constant", n, 0), start=start).dates[:n].tolist()
            pairs = [(d, rng.choice([round(rng.uniform(1, 500), 2), rng.uniform(0.1, 9)]))
                     for d in days]
            series.append(SpreadSeries(entity, tenor, pairs))
    header, *body = serialize_panel(series).splitlines()
    rng.shuffle(body)
    ending = "\n"
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(body))
        date_, entity, tenor, spread = body[i].split(",") if body[i].count(",") == 3 else (
            "2010-01-04", "DE", "5Y", "1.0")
        kind = rng.randrange(12)
        if kind == 0 and i + 1 < len(body) and "," in body[i]:
            # adjacent 3-field and 5-field lines
            head, tail = body[i].rsplit(",", 1)
            moved = [body[i + 1], tail] if rng.random() < 0.5 else [tail, body[i + 1]]
            body[i], body[i + 1] = head, ",".join(moved)
        elif kind == 1:  # a line break inside an entity
            body[i] = f"{date_},{entity[:1]}{rng.choice(_BREAKS)}{entity[1:]},{tenor},{spread}"
        elif kind == 2:
            ending = rng.choice(["\r\n", "\n\n", "", "\n \n"])
        elif kind == 3:
            body.insert(i, rng.choice(["", "  ", "\t"]))
        elif kind == 4:
            body.insert(i, rng.choice(["# note", "#" + body[i], "# a,b,c,d"]))
        elif kind == 5:
            pad = rng.choice([" ", "\t", "\xa0", "\x1f"])
            body[i] = pad + body[i] if rng.random() < 0.5 else body[i] + pad
        elif kind == 6:
            body[i] = f"{date_},{entity},{tenor},{rng.choice(_ODD_SPREADS)}"
        elif kind == 7:
            body[i] = f"{rng.choice(_BAD_DATES)},{entity},{tenor},{spread}"
        elif kind == 8:
            body[i] = rng.choice([f"{date_},,{tenor},{spread}", f"{date_},{entity},,{spread}"])
        elif kind == 9:  # a duplicate row, same or different spread
            body.insert(rng.randrange(len(body) + 1),
                        rng.choice([body[i], f"{date_},{entity},{tenor},7.5"]))
        elif kind == 10:
            body[i] = rng.choice([body[i] + ",x", f"{date_},{entity},{tenor}", ""])
        else:
            rng.shuffle(body)
    return ending.join([header, *body]) + ending


def _outcome(parse, text):
    try:
        return _rows(parse(text))
    except PanelFormatError as exc:
        return exc.line_no, str(exc)


def _compare_parsers(text):
    """The outcome both parsers give `text`, and whether it was read as columns."""
    reference = _outcome(panel._parse_lines, text)
    assert _outcome(parse_panel, text) == reference, text
    columnar = panel._parse_columns(text)
    if columnar is not None:
        assert _rows(columnar) == reference, text
    return reference, columnar is not None


def test_columnar_parser_matches_the_line_parser_on_mutated_panels():
    rng = random.Random(20080808)
    outcomes = {"valid": 0, "rejected": 0, "columnar": 0}
    for _ in range(4000):
        reference, columnar = _compare_parsers(_mutated_panel(rng))
        outcomes["columnar"] += columnar
        outcomes["valid" if isinstance(reference, list) else "rejected"] += 1
    assert min(outcomes.values()) > 500, outcomes


def _crlf_variant(kind: str) -> str:
    header, *body = _sovereign_panel(entities=2, n=6).splitlines()
    if kind == "crlf":
        return "\r\n".join([header, *body]) + "\r\n"
    if kind == "mixed":
        lines = [header, *body]
        return "".join(line + ("\r\n", "\n")[i % 2] for i, line in enumerate(lines))
    if kind == "cr_crlf":  # "\r\r\n" is two breaks to the line parser
        body[3] += "\r"
    elif kind == "lone_cr":
        body[3] += "\r" + body.pop(4)
    elif kind == "crlf_header":
        return header + "\r\n" + "\n".join(body) + "\n"
    elif kind == "trailing_lf":
        return "\n".join([header, *body]) + "\n\n"
    elif kind == "trailing_crlf":
        body[-1] += "\r\n"
    elif kind == "header_blanks":
        return header + "\n\n\n"
    elif kind == "cr_then_bad_row":  # the error line counts the extra break
        body[2] += "\r"
        body[5] = body[5].replace(",", ";", 1)
    return "\r\n".join([header, *body]) + "\r\n"


@pytest.mark.parametrize(
    "kind,outcome",
    [("crlf", "columnar"), ("mixed", "columnar"), ("crlf_header", "columnar"),
     ("cr_crlf", "lines"), ("lone_cr", "columnar"), ("trailing_lf", "columnar"),
     ("trailing_crlf", "columnar"), ("header_blanks", "columnar"), ("cr_then_bad_row", 8)],
)
def test_columnar_parser_reads_crlf_endings_like_the_line_parser(kind, outcome):
    reference, columnar = _compare_parsers(_crlf_variant(kind))
    if isinstance(outcome, int):  # the error line, with "\r\r\n" as two breaks
        assert reference[0] == outcome and not columnar
    else:
        assert isinstance(reference, list)
        assert len(reference) == (0 if kind == "header_blanks" else 4)
        assert columnar is (outcome == "columnar")


# --------------------------------------------- forked columnar parse

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork is unavailable")


def _assert_no_child_left():
    # a child left running or unreaped would outlive the parse
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Count forks; small chunks and two allowed CPUs send small panels to a child."""
    count = []
    fork = os.fork

    def counted():
        count.append(1)
        return fork()

    monkeypatch.setattr(panel, "_CHUNK", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    yield count
    _assert_no_child_left()


@needs_fork
def test_forked_parse_matches_the_line_parser_on_mutated_panels(forks):
    rng = random.Random(13)
    outcomes = {"valid": 0, "rejected": 0, "columnar": 0}
    for _ in range(400):
        text = _mutated_panel(rng)
        before = len(forks)
        reference, columnar = _compare_parsers(text)
        _assert_no_child_left()
        if len(forks) > before:
            outcomes["columnar"] += columnar
            outcomes["valid" if isinstance(reference, list) else "rejected"] += 1
    assert min(outcomes.values()) > 50, outcomes


def _claims_logged(text, tmp_path, hold, hold_claims=lambda me, entries: False):
    """`_parse_columns(text)`, each process logging its chunks to one file.

    Entries name the process ("P" for this one, "C" for the forked child):
    "start" before its first chunk, "ok" or "bad" after each chunk and
    "done" once it stops claiming.  Before its first claim a process
    waits while `hold_claims(process, entries)` is true, and before its
    first chunk while `hold(process, entries)` is true, each for at most
    10 s.  Returns the result and the entries.
    """
    path = tmp_path / "claims.log"
    path.write_text("")
    parent, parse_chunk, parse_spans = os.getpid(), panel._parse_chunk, panel._parse_spans

    def who():
        return "P" if os.getpid() == parent else "C"

    def entries():
        return path.read_text().splitlines()

    def log(entry):
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        os.write(fd, f"{who()} {entry}\n".encode())  # one write: entries never interleave
        os.close(fd)

    def wait(while_):
        deadline = time.monotonic() + 10
        while while_(who(), entries()) and time.monotonic() < deadline:
            time.sleep(0.001)

    def chunk(*args):
        if f"{who()} start" not in entries():
            log("start")
            wait(hold)
        done = parse_chunk(*args)
        log("ok" if done else "bad")
        return done

    def spans(*args):
        wait(hold_claims)
        taken = parse_spans(*args)
        log("done")
        return taken

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(panel, "_parse_chunk", chunk)
        patch.setattr(panel, "_parse_spans", spans)
        result = panel._parse_columns(text)
    return result, entries()


def _stall(staller):
    """`staller` holds its first chunk until the other process stops
    claiming, which first waits for the staller to start."""
    other = "C" if staller == "P" else "P"

    def hold(me, entries):
        return (f"{other} done" if me == staller else f"{staller} start") not in entries

    return hold


@needs_fork
@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("defect", [None, "head", "tail"])
def test_forked_parse_reads_labels_first_seen_in_the_child(forks, tmp_path, ending, defect):
    # serialize_panel sorts by entity and this process keeps only the first
    # chunk, so the child alone sees the later entities
    lines = _sovereign_panel(entities=6, n=8).splitlines()
    if defect is not None:
        i = 3 if defect == "head" else len(lines) - 3
        lines[i] = lines[i].replace(",", ";", 1)
    text = ending.join(lines) + ending
    reference = _outcome(panel._parse_lines, text)
    columnar, entries = _claims_logged(text, tmp_path, _stall("P"))
    assert len(forks) == 1
    assert entries.count("P ok") + entries.count("P bad") == 1
    assert "C bad" in entries if defect == "tail" else entries.count("C ok") > 10
    if defect is None:
        assert len(reference) == 12 and _rows(columnar) == reference
    else:
        assert columnar is None and reference[0] == i + 1
    assert _outcome(parse_panel, text) == reference
    assert len(forks) == 2


@needs_fork
@pytest.mark.parametrize("defect", ["duplicate", "empty_entity", "zero_spread"])
def test_series_rules_catch_a_defect_in_the_childs_rows(forks, tmp_path, defect):
    # this process keeps only the first chunk, so the defect is in the
    # child's rows alone, and it is left to `SpreadSeries` at the sort
    lines = _sovereign_panel(entities=6, n=8).splitlines()
    i = len(lines) - 3
    day, entity, tenor, spread = lines[i].split(",")
    if defect == "duplicate":
        i = len(lines)
        lines.append(lines[1])  # the first data row, in this process's chunk
    elif defect == "empty_entity":
        lines[i] = f"{day},,{tenor},{spread}"
    else:
        lines[i] = f"{day},{entity},{tenor},0"
    text = "\n".join(lines) + "\n"
    reference = _outcome(panel._parse_lines, text)
    columnar, entries = _claims_logged(text, tmp_path, _stall("P"))
    assert columnar is None
    assert len(forks) == 1
    assert entries.count("P ok") == 1 and "P bad" not in entries
    assert entries.count("C ok") > 10 and "C bad" not in entries
    message = {"duplicate": "duplicate observation", "empty_entity": "empty entity",
               "zero_spread": "nonpositive spread '0'"}[defect]
    assert reference[0] == i + 1 and message in reference[1]
    assert _outcome(parse_panel, text) == reference
    assert len(forks) == 2


@needs_fork
@pytest.mark.parametrize("idle", ["P", "C"])
def test_a_process_that_claims_no_chunk_leaves_the_rows_to_the_other(forks, tmp_path, idle):
    # the idle process makes its first claim once the other has stopped;
    # an idle child leaves no tail, and an idle parent a tail that is the
    # whole id column
    text = _sovereign_panel(entities=4, n=10)
    other = "C" if idle == "P" else "P"
    series, entries = _claims_logged(
        text, tmp_path, lambda me, e: False, lambda me, e: me == idle and f"{other} done" not in e)
    assert _rows(series) == _rows(panel._parse_lines(text))
    assert len(forks) == 1
    assert f"{idle} start" not in entries and f"{idle} done" in entries
    assert entries.count(f"{other} ok") > 10 and f"{other} bad" not in entries


@needs_fork
@pytest.mark.parametrize("staller", ["P", "C"])
def test_the_free_process_claims_every_other_chunk(forks, tmp_path, staller):
    text = _sovereign_panel(entities=4, n=10)
    series, entries = _claims_logged(text, tmp_path, _stall(staller))
    other = "C" if staller == "P" else "P"
    assert _rows(series) == _rows(panel._parse_lines(text))
    assert len(forks) == 1
    assert entries.count(f"{staller} ok") == 1
    assert entries.count(f"{other} ok") > 10
    assert "P bad" not in entries and "C bad" not in entries


@needs_fork
def test_each_token_claims_a_run_past_the_token_cap(forks, monkeypatch, tmp_path):
    monkeypatch.setattr(panel, "_TOKENS", 3)
    # 40 lines of 21 characters: four lines to each 100-character chunk
    body = [f"2010-01-{day:02d},E{k},5Y,{day % 9 + 1}.5" for k in (1, 2) for day in range(1, 21)]
    text = "\n".join([panel.PANEL_HEADER, *body]) + "\n"
    series, entries = _claims_logged(text, tmp_path, _stall("P"))
    assert _rows(series) == _rows(panel._parse_lines(text))
    assert len(forks) == 1
    # three tokens over ten chunks: runs of 4, 3 and 3, the first one here
    assert (entries.count("P ok"), entries.count("C ok")) == (4, 6)


@needs_fork
def test_a_bad_chunk_stops_the_other_process(forks, tmp_path):
    lines = _sovereign_panel(entities=4, n=10).splitlines()
    lines[2] = lines[2].replace(",", ";", 1)  # in the first chunk, this process's
    text = "\n".join(lines) + "\n"
    # each process holds its first chunk: this one until the child has claimed
    # one, the child until this one has stopped
    result, entries = _claims_logged(
        text, tmp_path, lambda me, e: ("C start" if me == "P" else "P done") not in e)
    assert result is None
    assert len(forks) == 1
    assert entries.count("P bad") == 1 and "P ok" not in entries
    assert 1 <= entries.count("C ok") <= 2  # its first chunk, and one it claimed before the drain
    assert _outcome(parse_panel, text) == _outcome(panel._parse_lines, text)


@needs_fork
@pytest.mark.parametrize("failure", ["raise", "die", "exit_7"])
def test_a_failing_child_leaves_the_text_to_the_line_parser(forks, monkeypatch, tmp_path,
                                                            failure):
    text = _sovereign_panel(entities=3, n=20)
    expected = _rows(panel._parse_lines(text))
    parent = os.getpid()
    parse_chunk, exit_ = panel._parse_chunk, os._exit

    def chunk_in_child(*args):
        if os.getpid() != parent:
            if failure == "raise":
                raise RuntimeError("child failure")
            os.kill(os.getpid(), signal.SIGKILL)
        return parse_chunk(*args)

    def exit_7_in_child(code):
        # the child has sent all of its labels; only its status is wrong
        exit_(7 if os.getpid() != parent else code)

    if failure == "exit_7":
        monkeypatch.setattr(os, "_exit", exit_7_in_child)
    else:
        monkeypatch.setattr(panel, "_parse_chunk", chunk_in_child)
    # this process holds its first chunk until the child has claimed one
    result, _ = _claims_logged(text, tmp_path, lambda me, e: me == "P" and "C start" not in e)
    assert result is None
    _assert_no_child_left()
    assert _rows(parse_panel(text)) == expected
    assert len(forks) == 2


def _labels_that_sort_apart():
    """A shuffled panel whose (entity, tenor) order differs from that of the
    joined "entity,tenor" strings: "!", " " and "+" sort below ","."""
    rng = random.Random(5)
    day = date(2010, 1, 4)
    body = [
        f"{day + timedelta(days=k)},{entity},{tenor},{rng.uniform(10, 900)!r}"
        for entity in ("A", "A!", "A B")
        for tenor in ("5Y", "5Y+")
        for k in range(12)
    ]
    rng.shuffle(body)
    return "\n".join([panel.PANEL_HEADER, *body]) + "\n"


@pytest.mark.parametrize("forked", [False, pytest.param(True, marks=needs_fork)])
def test_series_come_in_entity_then_tenor_order(forked, request):
    text = _labels_that_sort_apart()
    forks = request.getfixturevalue("forks") if forked else []
    expected = _rows(panel._parse_lines(text))
    series = parse_panel(text)
    assert len(forks) == forked
    assert _rows(series) == expected
    assert [(s.entity, s.tenor) for s in series] == [
        ("A", "5Y"), ("A", "5Y+"), ("A B", "5Y"), ("A B", "5Y+"), ("A!", "5Y"), ("A!", "5Y+"),
    ]


def _no_fork():
    raise OSError("no process to spare")


@needs_fork
@pytest.mark.parametrize("limit", ["one_cpu", "no_affinity", "no_fork", "fork_fails"])
def test_serial_parse_gives_the_forked_rows(forks, monkeypatch, limit):
    text = _sovereign_panel(entities=5, n=30)
    expected = _rows(parse_panel(text))
    assert len(forks) == 1
    if limit == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif limit == "no_affinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    elif limit == "no_fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", _no_fork)
    assert _rows(panel._parse_columns(text)) == expected
    assert len(forks) == 1
