"""Digit extraction, the reference law, and histogram counting."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from benfordtrack import (
    DigitHistogram,
    SynthSpec,
    benford_pmf,
    digit_histogram,
    generate,
)
from benfordtrack.digits import mantissa_exponent
from helpers import (
    scalar_first_digit,
    scalar_mantissa_exponent,
    scalar_rule_probes,
    string_histogram,
)

# three-decimal reference frequencies for digits 1..9
TABLE = (0.301, 0.176, 0.125, 0.097, 0.079, 0.067, 0.058, 0.051, 0.046)


# ---------------------------------------------------------------- pmf

def test_pmf_matches_three_decimal_table():
    for got, want in zip(benford_pmf(), TABLE):
        assert abs(got - want) <= 0.0005


def test_pmf_is_the_correctly_rounded_log10_of_each_double():
    # 60 significant digits, then one rounding to a double
    with localcontext() as context:
        context.prec = 60
        exact = [float(Decimal(1.0 + 1.0 / d).log10()) for d in range(1, 10)]
    assert [float.hex(p) for p in benford_pmf().tolist()] == list(map(float.hex, exact))


def test_pmf_sums_to_one():
    assert abs(float(np.sum(benford_pmf())) - 1.0) <= 1e-12


def test_pmf_positive_and_strictly_decreasing():
    pmf = benford_pmf()
    assert np.all(pmf > 0.0)
    assert np.all(np.diff(pmf) < 0.0)


def test_pmf_returns_fresh_array():
    a = benford_pmf()
    a[0] = 0.0
    assert benford_pmf()[0] > 0.3


# ------------------------------------------------- digit extraction

def first_digit(x: float) -> int:
    """The digit rule for one nonzero value: its mantissa's integer part."""
    return int(mantissa_exponent([x])[0][0])


@pytest.mark.parametrize(
    "x,digit",
    [
        (127.17, 1),
        (-53.06, 5),
        (0.046, 4),
        (1.0, 1),
        (9.999, 9),
        (-0.00072, 7),
        (123456789.0, 1),
        # decade-edge values that naive log10 arithmetic misreads
        (0.1, 1),
        (999.9999999999, 1),
        (1000.0, 1),
        (0.001, 1),
        # short decimals whose rounded quotient |x| / 10**e drops below
        # the next digit: neither the exact expansion nor the 12-digit
        # rendering agrees on all six, so the rule is pinned as it stands
        (0.3, 2),
        (0.03, 3),
        (0.6, 5),
        (0.06, 6),
        (0.7, 6),
        (0.07, 7),
    ],
)
def test_first_digit_examples(x, digit):
    assert first_digit(x) == digit


def test_zero_has_no_digit():
    h = digit_histogram([0.0, -0.0])
    assert (h.counts, h.excluded) == ((0,) * 9, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        first_digit(bad)


def test_mantissa_exponent_round_trip():
    values = [127.17, -53.06, 0.046, 1.0, 999.9999999999, 5e-7, 3e22]
    m, e = mantissa_exponent(values)
    assert (m.dtype, e.dtype) == (np.float64, np.intp)
    assert len(m) == len(e) == len(values)
    for x, mi, ei in zip(values, m.tolist(), e.tolist()):
        assert 1.0 <= mi < 10.0
        assert math.isclose(mi * 10.0 ** ei, abs(x), rel_tol=1e-11)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "values,message",
    [
        ([0.0], "zero"),
        ([2.5, -0.0, 7.0], "zero"),
        ([math.inf], "non-finite"),
        ([3.0, math.nan], "non-finite"),
        ([-math.inf, 1e-300], "non-finite"),
    ],
)
def test_mantissa_exponent_rejects_zero_and_non_finite(values, message):
    with pytest.raises(ValueError, match=message):
        mantissa_exponent(values)


@pytest.mark.filterwarnings("error")
def test_mantissa_exponent_equals_the_scalar_rule_on_every_probe():
    probes = [v for v in scalar_rule_probes() if v != 0.0]
    m, e = mantissa_exponent(probes)
    want = [scalar_mantissa_exponent(v) for v in probes]
    assert m.tolist() == [wm for wm, _ in want]
    assert e.tolist() == [we for _, we in want]


def test_subnormal_values_have_digits():
    # 10**floor(log10(x)) underflows to zero down here; the smallest
    # positive float prints as 5e-324 but its exact value leads with 4
    assert first_digit(5e-324) == 4
    m, e = mantissa_exponent([5e-324])
    assert (m.tolist(), e.tolist()) == ([4.94065645841], [-324])
    assert first_digit(-1.5e-323) == 1
    assert digit_histogram([5e-324]).counts == (0, 0, 0, 1, 0, 0, 0, 0, 0)


@given(
    m=st.floats(min_value=1.0, max_value=9.9999999),
    k=st.integers(min_value=-15, max_value=15),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_scale_and_sign_invariance(m, k, sign):
    # keep the mantissa away from digit boundaries so the float
    # multiplication below cannot cross one
    assume(min(abs(m - d) for d in range(1, 11)) > 1e-6)
    x = sign * m * 10.0 ** k
    assert first_digit(x) == int(m)


# ---------------------------------------------------------- histogram

def test_histogram_counts_and_exclusions():
    h = digit_histogram([1.2, 0.15, -19.0, 0.0, 250.0])
    assert h.counts == (3, 1, 0, 0, 0, 0, 0, 0, 0)
    assert h.excluded == 1
    assert h.total == 4


def test_histogram_accepts_numpy_arrays():
    h = digit_histogram(np.array([1.0, 2.0, 2.5]))
    assert h.counts == (1, 2, 0, 0, 0, 0, 0, 0, 0)


def test_histogram_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        digit_histogram([1.0, math.nan])


def test_histogram_empty_input():
    h = digit_histogram([])
    assert h.total == 0
    assert h.excluded == 0


def test_histogram_matches_string_oracle_on_generated_sample():
    values = generate(SynthSpec("benford", 200, 7))
    counts, excluded = string_histogram(values)
    h = digit_histogram(values)
    assert h.counts == counts
    assert h.excluded == excluded
    # frozen expectation for this exact seed
    assert h.counts == (56, 29, 27, 22, 22, 13, 12, 11, 8)


def _clear_of_decade_edges(x):
    if x == 0.0:
        return True
    m, _ = mantissa_exponent([x])
    return 1.0 + 1e-8 < m[0] < 10.0 - 1e-8


@given(
    values=st.lists(
        st.floats(min_value=-1e30, max_value=1e30, allow_nan=False),
        max_size=60,
    )
)
def test_histogram_matches_string_oracle(values):
    # the canonical 12-digit rounding near decade edges is the one spot
    # where the exact decimal expansion may legitimately disagree
    assume(all(_clear_of_decade_edges(v) for v in values))
    counts, excluded = string_histogram(values)
    h = digit_histogram(values)
    assert h.counts == counts
    assert h.excluded == excluded


@given(
    values=st.lists(
        st.floats(min_value=-1e15, max_value=1e15, allow_nan=False),
        max_size=80,
    )
)
def test_histogram_totals_add_up(values):
    h = digit_histogram(values)
    assert h.total + h.excluded == len(values)
    assert h.total == sum(h.counts)


@pytest.mark.filterwarnings("error")
def test_histogram_equals_the_scalar_digit_of_every_value():
    # grouping by the scalar reference's digit makes any single
    # disagreement show up as a count outside the group's own bin
    groups = {}
    for v in scalar_rule_probes():
        groups.setdefault(scalar_first_digit(v), []).append(v)
    assert set(groups) == {None, *range(1, 10)}
    for digit, group in groups.items():
        for values in (group, np.array(group)):
            h = digit_histogram(values)
            if digit is None:
                assert (h.counts, h.excluded) == ((0,) * 9, len(group))
            else:
                want = tuple(len(group) if d == digit else 0 for d in range(1, 10))
                assert (h.counts, h.excluded) == (want, 0)


def test_histogram_validation():
    with pytest.raises(ValueError):
        DigitHistogram((1,) * 8)
    with pytest.raises(ValueError):
        DigitHistogram((1,) * 9, excluded=-1)
    with pytest.raises(ValueError):
        DigitHistogram((-1,) + (1,) * 8)

