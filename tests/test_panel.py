"""Panel CSV parsing, serialization, daily changes and slicing."""

import io
import math
import random
import re
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given
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


def test_parse_accepts_file_like_sources():
    assert _rows(parse_panel(io.StringIO(GOOD))) == _rows(parse_panel(GOOD))


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
    assert _rows(parse_panel(text)) == expected
    assert _rows(parse_panel(text.rstrip("\n"))) == expected
    assert _rows(parse_panel(text.replace("\n", "\r\n"))) == expected


def test_columnar_parse_spans_chunks(monkeypatch):
    text = _sovereign_panel(entities=4, n=300)
    expected = _rows(panel._parse_lines(text))
    monkeypatch.setattr(panel, "_CHUNK", 997)  # chunks end mid-line
    assert _rows(panel._parse_columns(text)) == expected
    monkeypatch.setattr(panel, "_CHUNK", 20)  # shorter than a line
    assert panel._parse_columns(text) is None


def test_parsed_panel_keeps_columns_not_row_objects():
    text = _sovereign_panel(entities=50, n=999)
    rows = 100_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        series = parse_panel(text)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(len(s.spreads) for s in series) == rows
    # two 8-byte columns per row, plus a little per series
    assert retained <= 32 * rows


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
    elif kind == "cr_then_bad_row":  # the error line counts the extra break
        body[2] += "\r"
        body[5] = body[5].replace(",", ";", 1)
    return "\r\n".join([header, *body]) + "\r\n"


@pytest.mark.parametrize(
    "kind,outcome",
    [("crlf", "columnar"), ("mixed", "columnar"), ("crlf_header", "columnar"),
     ("cr_crlf", "lines"), ("lone_cr", "lines"), ("cr_then_bad_row", 8)],
)
def test_columnar_parser_reads_crlf_endings_like_the_line_parser(kind, outcome):
    reference, columnar = _compare_parsers(_crlf_variant(kind))
    if isinstance(outcome, int):  # the error line, with "\r\r\n" as two breaks
        assert reference[0] == outcome and not columnar
    else:
        assert isinstance(reference, list) and len(reference) == 4
        assert columnar is (outcome == "columnar")
