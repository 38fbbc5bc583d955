"""Synthetic sample generators, manipulation and panel synthesis."""

import hashlib
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benfordtrack import (
    SynthSpec,
    benford_pmf,
    daily_changes,
    digit_histogram,
    generate,
    parse_panel,
    serialize_panel,
    synth_panel,
)
from benfordtrack.digits import mantissa_exponent
from benfordtrack.synthetic import inject_manipulation
from helpers import scalar_inject_manipulation, scalar_rule_probes, string_first_digit


def first_digits(values) -> list[int]:
    """The digit rule over nonzero values: each mantissa's integer part."""
    return mantissa_exponent(values)[0].astype(int).tolist()


# ----------------------------------------------------------- generators

def test_generators_are_deterministic_per_seed():
    a = generate(SynthSpec("benford", 2000, 42))
    b = generate(SynthSpec("benford", 2000, 42))
    c = generate(SynthSpec("benford", 2000, 43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    u1 = generate(SynthSpec("uniform_digit", 2000, 7))
    u2 = generate(SynthSpec("uniform_digit", 2000, 7))
    assert np.array_equal(u1, u2)


def test_benford_kind_range_and_digit_frequencies():
    values = generate(SynthSpec("benford", 100_000, 1))
    assert np.all(values >= 1.0)
    assert np.all(values < 1000.0)
    h = digit_histogram(values)
    pmf = benford_pmf()
    for d in range(9):
        assert h.counts[d] / h.total == pytest.approx(pmf[d], abs=0.005)


def test_uniform_digit_kind_frequencies_are_flat():
    values = generate(SynthSpec("uniform_digit", 90_000, 1))
    assert np.all(values >= 1.0)
    assert np.all(values < 100.0)
    h = digit_histogram(values)
    for d in range(9):
        assert h.counts[d] / h.total == pytest.approx(1.0 / 9.0, abs=0.005)


def test_constant_kind_is_ones():
    assert np.array_equal(generate(SynthSpec("constant", 5, 0)), np.ones(5))


# --------------------------------------------------------- manipulation

def test_inject_zero_fraction_is_identity():
    values = generate(SynthSpec("benford", 500, 3))
    out = inject_manipulation(values, 0.0, 9, seed=3)
    assert np.array_equal(out, values)


def test_inject_full_fraction_forces_every_digit():
    values = generate(SynthSpec("benford", 500, 3))
    out = inject_manipulation(values, 1.0, 9, seed=3)
    assert first_digits(out) == [9] * len(out)


def test_inject_changes_exactly_the_rounded_count():
    values = list(generate(SynthSpec("uniform_digit", 200, 5)))
    # retarget to a digit absent from the sample so every pick is visible
    cleaned = [v for v, d in zip(values, first_digits(values)) if d != 4]
    out = inject_manipulation(cleaned, 0.3, 4, seed=5)
    changed = first_digits(out).count(4)
    assert changed == round(0.3 * len(cleaned))


def test_inject_preserves_exponent_and_fraction():
    values = [3.75, 0.0625, 912.0]
    out = inject_manipulation(values, 1.0, 7, seed=1)
    mb, eb = mantissa_exponent(values)
    ma, ea = mantissa_exponent(out)
    assert ea.tolist() == eb.tolist()
    assert np.floor(ma).tolist() == [7.0] * len(values)
    assert ma - np.floor(ma) == pytest.approx(mb - np.floor(mb), abs=1e-12)


def test_inject_preserves_sign_and_skips_zero():
    out = inject_manipulation([-25.0, 0.0, 3.0], 1.0, 8, seed=2)
    assert out[0] < 0.0
    assert first_digits(out[:1]) == [8]
    assert out[1] == 0.0


def test_inject_survives_subnormal_values():
    # floats this small are too sparse to hit the target digit exactly,
    # but the rewrite must stay nonzero and signed instead of underflowing
    out = inject_manipulation([5e-324, -5e-324], 1.0, 7, seed=0)
    assert float(out[0]) > 0.0
    assert float(out[1]) < 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("digit", [1, 5, 9])
@pytest.mark.parametrize("fraction", [0.3, 1.0])
def test_inject_equals_the_scalar_rewrite_bit_for_bit(digit, fraction):
    # values whose 12-digit rendering reaches 1e308 overflow when given
    # a digit of 2 or more; test_inject_rejects_an_overflowing_rewrite
    # covers them
    probes = [v for v in scalar_rule_probes() if abs(v) < 9.9e307]
    want = scalar_inject_manipulation(probes, fraction, digit, seed=digit)
    got = inject_manipulation(probes, fraction, digit, seed=digit)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_inject_rejects_non_finite_values_whatever_the_picks(seed):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            inject_manipulation([bad, 1.5], 0.5, 9, seed=seed)


@pytest.mark.filterwarnings("error")
def test_inject_rejects_an_overflowing_rewrite():
    with pytest.raises(ValueError, match="overflow"):
        inject_manipulation([1.7e308, -1.7e308], 1.0, 9, seed=0)
    # under digit 1 the same values keep their exponent
    out = inject_manipulation([1.7e308, -1.7e308], 1.0, 1, seed=0)
    assert out.tolist() == [1.7e308, -1.7e308]


def test_inject_is_seed_deterministic():
    values = generate(SynthSpec("benford", 300, 11))
    a = inject_manipulation(values, 0.4, 2, seed=11)
    b = inject_manipulation(values, 0.4, 2, seed=11)
    assert np.array_equal(a, b)


def test_inject_validation():
    with pytest.raises(ValueError, match="fraction"):
        inject_manipulation([1.0], 1.5, 9, seed=1)
    with pytest.raises(ValueError, match="fraction"):
        inject_manipulation([1.0], -0.1, 9, seed=1)
    with pytest.raises(ValueError, match="digit"):
        inject_manipulation([1.0], 0.5, 0, seed=1)
    with pytest.raises(ValueError, match="digit"):
        inject_manipulation([1.0], 0.5, 10, seed=1)


@given(
    seed=st.integers(0, 10_000),
    fraction=st.floats(0.0, 1.0),
    digit=st.integers(1, 9),
)
@settings(max_examples=60)
def test_inject_changes_at_most_the_rounded_count(seed, fraction, digit):
    values = generate(SynthSpec("benford", 120, seed))
    out = inject_manipulation(values, fraction, digit, seed=seed)
    assert len(out) == len(values)
    differing = int(np.sum(out != values))
    assert differing <= round(fraction * len(values))


# -------------------------------------------------------------- streams

# sha256 of the float64 bytes of generate(SynthSpec(kind, n, 7, manipulation))
# and of the spreads of synth_panel on the same spec.  Every benchmark panel
# and golden CLI output is built from these streams, so no draw may move.
_STREAMS = {
    ("benford", None, 1): (
        "3ffae583704bdf0e1ff327abfcb316631e524fb9b8c667c94084c22ee7a0fd8d",
        "ec5607f8b302a6801192bcabf258d9e5a09f5fa7403eb264a5baadf0d7bcbecf",
    ),
    ("benford", None, 90): (
        "12576725a1383ba9d389906cf8a03abb21cc943410921fd6384f45af581e7de7",
        "05404cf3986bc5a5ea45334d80fe824b4464a93b9e4ecf7288ebaf8083879734",
    ),
    ("benford", (0.6, 3), 1): (
        "aab76687318fc4ea22a0b67997cb2e6b197862609ae52bee9a47a35b2367bd99",
        "6f0e36ff2fd495a1774164fb08d8058b430549c19b6aba93acbd47a060514de5",
    ),
    ("benford", (0.6, 3), 90): (
        "4262acdfd9b9c5b52d7fc5634ebe0c6587c3e478fe11fa077897f1d9774b3409",
        "6a81478a61092757fb9cc6eb2822a4de2684e0e6c4c1c6d82d6ca2773c15e0bb",
    ),
    ("uniform_digit", None, 1): (
        "07dbf38bb715c59281001555cbe8b3c3abbbd733d1dc4be715c0b83055c4f638",
        "70e8105bc45a0a7bc8aed4080defe619ac34e7d2acb393133b4e2871e4ebb235",
    ),
    ("uniform_digit", None, 90): (
        "f750501d5678ccc27c79b147385097d6ad71d20e01eac37c713f773a2be85fe4",
        "9b079d4ac088d92452cfad2be8ff31f180272331c597f3e4e3766209d5ae1ba6",
    ),
    ("uniform_digit", (0.6, 3), 1): (
        "35636ede1dbbcc6da9abb6fe7170b7f377d861a4b5071a856f53d9d98e324cf3",
        "a576823ac21c1ec1cdb63ee4d427c47e0d45cfaa2a73b2bb438283eca37d70d4",
    ),
    ("uniform_digit", (0.6, 3), 90): (
        "f7e74890da3ef66a2ee05ab713aca0c4efb93de7760f8d49be0d9ac0e904b50d",
        "a41691bc9ff78b275755604ea6d8026ca089361d45cb55ce2c5881d50dd9d50d",
    ),
    ("constant", None, 1): (
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
        "425c01a3470c3ca48a5470778f7ecdf7a66da691ffc65db65b4f4e996cbda87d",
    ),
    ("constant", None, 90): (
        "16002976218684d976e1b8eee87de6988b4f7d8b43a54f730b0f2d67544cda6e",
        "df1fd19e79b8b7f23e9b728cfebbf23bdb84204e34b5141d08ef2e8e65628c59",
    ),
    ("constant", (0.6, 3), 1): (
        "161f4c0b1a18a0501127332c387e782b5acc10c6c7a9f7e494c1e3394c49bad5",
        "ea3fe2a6fdc01217cc67aecc7ea77b5a45f86bda4866510be2e407396531e532",
    ),
    ("constant", (0.6, 3), 90): (
        "b1b7c584cfcc1cfe861046a55fb09eed669bb144315929bdf364272e467da9d3",
        "6a1dd1a5ae90335a3c1663b726cd099a6a478943bae6564dccf1de282fa9c944",
    ),
}
# sha256 of the synth_panel dates, which depend on n only
_DATES = {
    1: "f024c7fc13467e17305de41ddf4c06da3d63fb9f58e3188fb1e396a03e28ee69",
    90: "ea44005d6df4f4fc79e32aa0b7b1c805f7f9467ce2acfcfaec98f18a2a14d665",
}


def _sha256(column):
    return hashlib.sha256(column.tobytes()).hexdigest()


@pytest.mark.parametrize("kind,manipulation,n", list(_STREAMS))
def test_streams_match_recorded_hashes(kind, manipulation, n):
    spec = SynthSpec(kind, n, 7, manipulation)
    series = synth_panel(spec)
    got = (_sha256(generate(spec)), _sha256(series.spreads), _sha256(series.dates))
    assert got == (*_STREAMS[kind, manipulation, n], _DATES[n])


def test_generate_applies_manipulation_with_the_same_seed():
    spec = SynthSpec("benford", 80, 5, manipulation=(0.5, 1))
    expected = inject_manipulation(generate(SynthSpec("benford", 80, 5)), 0.5, 1, seed=5)
    assert np.array_equal(generate(spec), expected)


def test_synth_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        SynthSpec("cauchy", 10, 0)
    with pytest.raises(ValueError, match="n must"):
        SynthSpec("benford", 0, 0)
    with pytest.raises(ValueError, match="n must"):
        SynthSpec("uniform_digit", -2, 1)


# ------------------------------------------------------------- calendar

def _synth_dates(start, n):
    return synth_panel(SynthSpec("constant", n, 0), start=start).dates.tolist()


def test_synth_panel_dates_skip_weekends():
    # 2008-08-08 was a Friday
    dates = _synth_dates(date(2008, 8, 8), 3)
    assert dates == [
        date(2008, 8, 8),
        date(2008, 8, 11),
        date(2008, 8, 12),
        date(2008, 8, 13),
    ]
    assert all(d.weekday() < 5 for d in _synth_dates(date(2020, 1, 1), 99))


def test_synth_panel_dates_roll_forward_from_a_weekend_start():
    assert _synth_dates(date(2008, 8, 9), 1) == [date(2008, 8, 11), date(2008, 8, 12)]


def _weekdays_day_by_day(start, n):
    out, current = [], start
    while len(out) < n:
        if current.weekday() < 5:
            out.append(current)
        current += timedelta(days=1)
    return out


@pytest.mark.parametrize("n", [1, 4, 1750])
def test_synth_panel_dates_match_a_day_by_day_walk(n):
    for offset in range(7):  # 2008-08-04 was a Monday
        start = date(2008, 8, 4) + timedelta(days=offset)
        dates = _synth_dates(start, n)
        assert dates == _weekdays_day_by_day(start, n + 1)
        assert all(type(d) is date for d in dates)


# ---------------------------------------------------------------- panel

def test_synth_panel_daily_changes_recover_the_sample():
    spec = SynthSpec("benford", 400, 42)
    series = synth_panel(spec)
    expected = generate(spec)
    ch = daily_changes(series)
    got = ch.changes
    assert len(got) == 400
    assert np.max(np.abs(got - expected)) < 1e-9
    # cumulative-sum rounding must not move any value across a digit edge
    assert digit_histogram(got) == digit_histogram(expected)


def test_synth_panel_shape_and_metadata():
    series = synth_panel(SynthSpec("benford", 10, 0), entity="DE", tenor="10Y")
    assert series.entity == "DE"
    assert series.tenor == "10Y"
    assert len(series.spreads) == 11
    assert (series.dates[0], series.spreads[0]) == (np.datetime64("2008-08-08"), 100.0)
    assert (series.spreads > 0.0).all()


def test_synth_panel_round_trips_through_csv():
    series = synth_panel(SynthSpec("benford", 250, 7))
    (parsed,) = parse_panel(serialize_panel([series]))
    assert (parsed.entity, parsed.tenor) == (series.entity, series.tenor)
    assert parsed.dates.tolist() == series.dates.tolist()
    assert parsed.spreads.tolist() == series.spreads.tolist()
    recovered = daily_changes(parsed).changes
    assert digit_histogram(recovered) == digit_histogram(generate(SynthSpec("benford", 250, 7)))


# --------------------------------------------------- digit oracle check

@given(seed=st.integers(0, 5000))
@settings(max_examples=50)
def test_generated_digits_agree_with_string_oracle(seed):
    values = generate(SynthSpec("benford", 64, seed))
    assert first_digits(values) == [string_first_digit(x) for x in values.tolist()]
