"""Synthetic sample generators, manipulation and panel synthesis."""

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
    first_significant_digit,
    gen_benford,
    parse_panel,
    serialize_panel,
    synth_panel,
)
from benfordtrack.digits import mantissa_exponent
from benfordtrack.synthetic import (
    gen_constant,
    gen_uniform_digit,
    generate,
    inject_manipulation,
    weekday_dates,
)
from helpers import string_first_digit


# ----------------------------------------------------------- generators

def test_generators_are_deterministic_per_seed():
    a = gen_benford(2000, seed=42)
    b = gen_benford(2000, seed=42)
    c = gen_benford(2000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    u1 = gen_uniform_digit(2000, seed=7)
    u2 = gen_uniform_digit(2000, seed=7)
    assert np.array_equal(u1, u2)


def test_gen_benford_range_and_digit_frequencies():
    values = gen_benford(100_000, seed=1)
    assert np.all(values >= 1.0)
    assert np.all(values < 1000.0)
    h = digit_histogram(values)
    pmf = benford_pmf()
    for d in range(9):
        assert h.counts[d] / h.total == pytest.approx(pmf[d], abs=0.005)


def test_gen_uniform_digit_frequencies_are_flat():
    values = gen_uniform_digit(90_000, seed=1)
    assert np.all(values >= 1.0)
    assert np.all(values < 100.0)
    h = digit_histogram(values)
    for d in range(9):
        assert h.counts[d] / h.total == pytest.approx(1.0 / 9.0, abs=0.005)


def test_gen_constant():
    values = gen_constant(5)
    assert np.array_equal(values, np.ones(5))
    assert np.array_equal(gen_constant(3, value=7.5), np.full(3, 7.5))
    with pytest.raises(ValueError):
        gen_constant(0)
    with pytest.raises(ValueError):
        gen_constant(3, value=0.0)
    with pytest.raises(ValueError):
        gen_constant(3, value=math.inf)


def test_generator_validation():
    with pytest.raises(ValueError):
        gen_benford(0, seed=1)
    with pytest.raises(ValueError):
        gen_uniform_digit(-2, seed=1)


# --------------------------------------------------------- manipulation

def test_inject_zero_fraction_is_identity():
    values = gen_benford(500, seed=3)
    out = inject_manipulation(values, 0.0, 9, seed=3)
    assert np.array_equal(out, values)


def test_inject_full_fraction_forces_every_digit():
    values = gen_benford(500, seed=3)
    out = inject_manipulation(values, 1.0, 9, seed=3)
    assert all(first_significant_digit(x) == 9 for x in out)


def test_inject_changes_exactly_the_rounded_count():
    values = list(gen_uniform_digit(200, seed=5))
    # retarget to a digit absent from the sample so every pick is visible
    cleaned = [v for v in values if first_significant_digit(v) != 4]
    out = inject_manipulation(cleaned, 0.3, 4, seed=5)
    changed = sum(1 for x in out if first_significant_digit(x) == 4)
    assert changed == round(0.3 * len(cleaned))


def test_inject_preserves_exponent_and_fraction():
    values = [3.75, 0.0625, 912.0]
    out = inject_manipulation(values, 1.0, 7, seed=1)
    for before, after in zip(values, out):
        mb, eb = mantissa_exponent(before)
        ma, ea = mantissa_exponent(after)
        assert ea == eb
        assert int(ma) == 7
        assert ma - math.floor(ma) == pytest.approx(mb - math.floor(mb), abs=1e-12)


def test_inject_preserves_sign_and_skips_zero():
    out = inject_manipulation([-25.0, 0.0, 3.0], 1.0, 8, seed=2)
    assert out[0] < 0.0
    assert first_significant_digit(out[0]) == 8
    assert out[1] == 0.0


def test_inject_survives_subnormal_values():
    # floats this small are too sparse to hit the target digit exactly,
    # but the rewrite must stay nonzero and signed instead of underflowing
    out = inject_manipulation([5e-324, -5e-324], 1.0, 7, seed=0)
    assert float(out[0]) > 0.0
    assert float(out[1]) < 0.0


def test_inject_is_seed_deterministic():
    values = gen_benford(300, seed=11)
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
    values = gen_benford(120, seed=seed)
    out = inject_manipulation(values, fraction, digit, seed=seed)
    assert len(out) == len(values)
    differing = int(np.sum(out != values))
    assert differing <= round(fraction * len(values))


# ------------------------------------------------------------- dispatch

def test_generate_dispatches_on_kind():
    assert np.array_equal(
        generate(SynthSpec("benford", 50, 9)), gen_benford(50, seed=9)
    )
    assert np.array_equal(
        generate(SynthSpec("uniform_digit", 50, 9)), gen_uniform_digit(50, seed=9)
    )
    assert np.array_equal(generate(SynthSpec("constant", 4, 0)), np.ones(4))


def test_generate_applies_manipulation_with_the_same_seed():
    spec = SynthSpec("benford", 80, 5, manipulation=(0.5, 1))
    expected = inject_manipulation(gen_benford(80, seed=5), 0.5, 1, seed=5)
    assert np.array_equal(generate(spec), expected)


def test_synth_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        SynthSpec("cauchy", 10, 0)
    with pytest.raises(ValueError, match="n must"):
        SynthSpec("benford", 0, 0)


# ------------------------------------------------------------- calendar

def test_weekday_dates_skip_weekends():
    # 2008-08-08 was a Friday
    dates = weekday_dates(date(2008, 8, 8), 4)
    assert dates == [
        date(2008, 8, 8),
        date(2008, 8, 11),
        date(2008, 8, 12),
        date(2008, 8, 13),
    ]
    assert all(d.weekday() < 5 for d in weekday_dates(date(2020, 1, 1), 100))


def test_weekday_dates_roll_forward_from_a_weekend_start():
    assert weekday_dates(date(2008, 8, 9), 1) == [date(2008, 8, 11)]


def _weekdays_day_by_day(start, n):
    out, current = [], start
    while len(out) < n:
        if current.weekday() < 5:
            out.append(current)
        current += timedelta(days=1)
    return out


@pytest.mark.parametrize("n", [0, 1, 5, 1751])
def test_weekday_dates_match_a_day_by_day_walk(n):
    for offset in range(7):  # 2008-08-04 was a Monday
        start = date(2008, 8, 4) + timedelta(days=offset)
        dates = weekday_dates(start, n)
        assert dates == _weekdays_day_by_day(start, n)
        assert all(type(d) is date for d in dates)
        if n:
            spec = SynthSpec("benford", n - 1 or 1, 0)
            days = synth_panel(spec, start=start).dates.tolist()
            assert days == _weekdays_day_by_day(start, spec.n + 1)


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


def test_synth_panel_base_spread_validation():
    with pytest.raises(ValueError, match="base spread"):
        synth_panel(SynthSpec("benford", 10, 0), base_spread=0.0)


# --------------------------------------------------- digit oracle check

@given(seed=st.integers(0, 5000))
@settings(max_examples=50)
def test_generated_digits_agree_with_string_oracle(seed):
    values = gen_benford(64, seed=seed)
    for x in values:
        assert first_significant_digit(float(x)) == string_first_digit(float(x))
