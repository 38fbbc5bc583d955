"""Chi-square statistic and p-value, Chebyshev and KL distances."""

import math
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from benfordtrack import (
    SMALL_SAMPLE_MIN,
    ConformityStats,
    DigitHistogram,
    benford_pmf,
    chebyshev_distance,
    chi_square_pvalue,
    chi_square_statistic,
    conformity,
    critical_value,
    kl_divergence,
)
from helpers import (
    chi2_tail_decimal,
    chi2_tail_quad,
    direct_chebyshev,
    direct_chi2,
    direct_kl,
    scalar_conformity,
)

UNIFORM = tuple([1.0 / 9.0] * 9)


# ------------------------------------------------------ chi-square stat

def test_chi2_zero_when_counts_equal_expected():
    # expected counts are real-valued; inject them directly
    counts = tuple(1000.0 * p for p in benford_pmf())
    h = DigitHistogram(counts)
    assert abs(chi_square_statistic(h)) < 1e-18


def test_chi2_uniform_counts_match_direct_formula():
    h = DigitHistogram((100,) * 9)
    got = chi_square_statistic(h)
    want = direct_chi2(h.counts, h.total)
    assert got == pytest.approx(want, rel=1e-12)
    # frozen value computed with the direct formula
    assert got == pytest.approx(361.5284636209621, rel=1e-12)


def test_chi2_grows_when_mass_moves_to_rare_digit():
    base = DigitHistogram((301, 176, 125, 97, 79, 67, 58, 51, 46))
    moved = DigitHistogram((300, 176, 125, 97, 79, 67, 58, 51, 47))
    assert chi_square_statistic(moved) > chi_square_statistic(base)


def test_chi2_empty_sample():
    with pytest.raises(ValueError, match="empty sample"):
        chi_square_statistic(DigitHistogram((0,) * 9))


@given(counts=st.lists(st.integers(0, 500), min_size=9, max_size=9))
def test_chi2_matches_direct_formula(counts):
    h = DigitHistogram(tuple(counts))
    if h.total == 0:
        return
    assert chi_square_statistic(h) == pytest.approx(
        direct_chi2(h.counts, h.total), rel=1e-12
    )


# ------------------------------------------------------------- p-value

def test_pvalue_at_zero_is_one():
    assert chi_square_pvalue(0.0) == 1.0
    # a quarter of the smallest positive float underflows to exact zero
    assert chi_square_pvalue(5e-324) == 1.0


def test_pvalue_at_classic_critical_point():
    assert 0.0495 <= chi_square_pvalue(15.507) <= 0.0505


def test_pvalue_frozen_spot_value():
    # frozen from the quadrature oracle
    assert chi_square_pvalue(20.0) == pytest.approx(0.010336050675925725, rel=1e-12)


@pytest.mark.parametrize("stat", [0.5, 1.0, 5.0, 8.9, 9.1, 15.507, 20.0, 35.0, 60.0])
def test_pvalue_matches_quadrature_oracle(stat):
    assert chi_square_pvalue(stat) == pytest.approx(chi2_tail_quad(stat), abs=1e-10)


def _bits(x: float) -> int:
    """The float's bit pattern; for x >= 0 it counts ulps upward from 0."""
    return int(np.float64(x).view(np.int64))


# Measured against the 60-digit reference: at most 5 ulps over 200,000
# statistics in (0, 100) and 4 over 50,000 in [100, 1416]; 1e-323 off
# where the tail is subnormal.
_PVALUE_ULPS = 6


@pytest.mark.parametrize(
    "low, high", [(1e-12, 1.0), (1.0, 40.0), (40.0, 100.0)], ids=["small", "body", "tail"]
)
def test_pvalue_matches_the_decimal_reference_in_ulps(low, high):
    rng = np.random.Generator(np.random.PCG64(int(high)))
    stats = np.exp(rng.uniform(math.log(low), math.log(high), 2000)).tolist()
    for stat in stats:
        got, want = chi_square_pvalue(stat), chi2_tail_decimal(stat)
        assert abs(_bits(got) - _bits(want)) <= _PVALUE_ULPS, stat


def test_pvalue_matches_the_decimal_reference_in_the_far_tail():
    rng = np.random.Generator(np.random.PCG64(1416))
    for stat in rng.uniform(100.0, 1500.0, 2000).tolist():
        got, want = chi_square_pvalue(stat), chi2_tail_decimal(stat)
        if want >= sys.float_info.min:
            assert abs(got - want) <= 1e-15 * want, stat
        else:  # a subnormal tail: its spacing is 5e-324
            assert abs(got - want) <= 4 * 5e-324, stat


def test_pvalue_keeps_the_subnormal_tail():
    want = chi2_tail_decimal(1490.0)
    assert 1.9e-316 < want < 2.0e-316
    assert abs(chi_square_pvalue(1490.0) - want) <= 4 * 5e-324


@pytest.mark.parametrize("stat", [1e104, 1e300, sys.float_info.max])
def test_pvalue_of_huge_statistics_is_zero(stat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert chi_square_pvalue(stat) == 0.0


@given(stat=st.floats(min_value=0.0, allow_infinity=False))
@example(stat=1e104)
@example(stat=sys.float_info.min)
def test_pvalue_lies_in_the_unit_interval_without_warnings(stat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 0.0 <= chi_square_pvalue(stat) <= 1.0


def test_pvalue_monotone_nonincreasing_on_grid():
    grid = [chi_square_pvalue(i * 0.5) for i in range(101)]
    assert all(a >= b for a, b in zip(grid, grid[1:]))


# No floating-point evaluation of the tail is monotone on adjacent floats.
# Over 50 million adjacent pairs in [1e-8, 1500] the p-value rose by at
# most 6 ulps from one statistic to the next.
_PVALUE_RISE_ULPS = 6


@given(
    s1=st.floats(min_value=0.0, max_value=200.0),
    s2=st.floats(min_value=0.0, max_value=200.0),
)
@example(s1=7.899999999997336, s2=7.899999999997337)
def test_pvalue_monotone_pairs(s1, s2):
    lo, hi = sorted((s1, s2))
    assert _bits(chi_square_pvalue(hi)) - _bits(chi_square_pvalue(lo)) <= _PVALUE_RISE_ULPS


def test_pvalue_far_tail_still_finite_and_tiny():
    p = chi_square_pvalue(1000.0)
    assert 0.0 <= p < 1e-100


def test_pvalue_input_validation():
    with pytest.raises(ValueError):
        chi_square_pvalue(-1.0)
    with pytest.raises(ValueError):
        chi_square_pvalue(math.nan)
    with pytest.raises(ValueError):
        chi_square_pvalue(math.inf)


def test_pvalue_and_critical_value_take_no_degrees_of_freedom():
    with pytest.raises(TypeError):
        chi_square_pvalue(1.0, 8)
    with pytest.raises(TypeError):
        critical_value(0.05, 8)


def test_critical_value_reproduces_classic_threshold():
    assert critical_value(0.05) == pytest.approx(15.507, abs=5e-4)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2])
def test_critical_value_round_trips_through_pvalue(alpha):
    assert chi_square_pvalue(critical_value(alpha)) == pytest.approx(alpha, abs=1e-9)


def test_critical_value_brackets_the_smallest_alpha():
    stat = critical_value(5e-324)
    assert 1000.0 < stat < 2048.0
    assert chi_square_pvalue(stat) <= 5e-324


def test_critical_value_alpha_validation():
    with pytest.raises(ValueError):
        critical_value(0.0)
    with pytest.raises(ValueError):
        critical_value(1.0)


# ----------------------------------------------------------- chebyshev

def test_chebyshev_zero_on_identical_vectors():
    assert chebyshev_distance(benford_pmf(), benford_pmf()) == 0.0


def test_chebyshev_uniform_vs_reference():
    d = chebyshev_distance(UNIFORM, benford_pmf())
    assert d == pytest.approx(direct_chebyshev(UNIFORM, benford_pmf()), rel=1e-12)
    # frozen value; the gap is attained at digit 1
    assert d == pytest.approx(0.1899188845528701, rel=1e-12)
    assert d == pytest.approx(0.190, abs=1e-3)


def test_chebyshev_missing_top_digit_gap_equals_its_mass():
    pmf = benford_pmf()
    obs = pmf.copy()
    obs[0] = 0.0
    obs /= obs.sum()
    assert chebyshev_distance(obs, pmf) == pmf[0]


def test_chebyshev_validation():
    with pytest.raises(ValueError):
        chebyshev_distance([0.5] * 8, UNIFORM)
    with pytest.raises(ValueError):
        chebyshev_distance([1.5] + [0.0] * 8, UNIFORM)
    with pytest.raises(ValueError):
        chebyshev_distance([-0.1] + [0.1] * 8, UNIFORM)


_weights = st.lists(st.integers(1, 1000), min_size=9, max_size=9)


def _normalize(w):
    total = float(sum(w))
    return [x / total for x in w]


@given(p=_weights, q=_weights)
def test_chebyshev_symmetric_and_bounded(p, q):
    p, q = _normalize(p), _normalize(q)
    d = chebyshev_distance(p, q)
    assert d == chebyshev_distance(q, p)
    assert 0.0 <= d <= 1.0


@given(p=_weights, q=_weights, r=_weights)
def test_chebyshev_triangle_inequality(p, q, r):
    p, q, r = _normalize(p), _normalize(q), _normalize(r)
    assert chebyshev_distance(p, r) <= (
        chebyshev_distance(p, q) + chebyshev_distance(q, r) + 1e-15
    )


# ------------------------------------------------------------------ kl

def test_kl_zero_on_identical_vectors():
    assert kl_divergence(benford_pmf(), benford_pmf()) == 0.0


def test_kl_uniform_vs_reference():
    d = kl_divergence(UNIFORM, benford_pmf())
    assert d == pytest.approx(direct_kl(UNIFORM, benford_pmf()), rel=1e-12)
    assert d == pytest.approx(0.19120540010462062, rel=1e-12)
    assert d == pytest.approx(0.191, abs=1e-3)


def test_kl_point_mass_on_digit_one():
    delta = [1.0] + [0.0] * 8
    d = kl_divergence(delta, benford_pmf())
    assert d == pytest.approx(math.log(1.0 / benford_pmf()[0]), rel=1e-12)
    assert d == pytest.approx(1.200, abs=1e-3)


def test_kl_zero_observed_components_contribute_nothing():
    obs = [0.5, 0.5] + [0.0] * 7
    want = direct_kl(obs, benford_pmf())
    assert kl_divergence(obs, benford_pmf()) == pytest.approx(want, rel=1e-12)


def test_kl_rejects_unsupported_reference():
    ref = [0.0] + [0.125] * 8
    with pytest.raises(ValueError, match="reference support violation"):
        kl_divergence(UNIFORM, ref)


@given(p=_weights, q=_weights)
def test_kl_nonnegative_with_equality_iff_equal(p, q):
    pn, qn = _normalize(p), _normalize(q)
    d = kl_divergence(pn, qn)
    assert d >= 0.0
    # well-separated vectors must have strictly positive divergence;
    # closer pairs sit under the float noise floor of the 9-term sum
    if direct_chebyshev(pn, qn) > 1e-6:
        assert d > 0.0
    assert kl_divergence(pn, pn) == 0.0


# ---------------------------------------------------------- conformity

def test_conformity_accept_on_near_reference_counts():
    h = DigitHistogram((301, 176, 125, 97, 79, 67, 58, 51, 46))
    st_out = conformity([h], 0.05)[0]
    assert st_out.verdict == "accept"
    assert st_out.p_value > 0.9
    assert st_out.sample_size == 1000
    assert not st_out.small_sample_flag


def test_conformity_reject_on_uniform_counts():
    st_out = conformity([DigitHistogram((100,) * 9)], 0.05)[0]
    assert st_out.verdict == "reject"
    assert st_out.p_value < 1e-10


def test_conformity_verdict_threshold_is_p_value_vs_alpha():
    h = DigitHistogram((56, 29, 27, 22, 22, 13, 12, 11, 8))
    st_out = conformity([h], 0.05)[0]
    assert st_out.verdict == ("accept" if st_out.p_value >= 0.05 else "reject")
    # verdict flips once alpha crosses the p-value
    assert conformity([h], min(st_out.p_value / 2, 0.99))[0].verdict == "accept"


def test_conformity_verdict_agrees_with_critical_value():
    for counts in [(301, 176, 125, 97, 79, 67, 58, 51, 46), (100,) * 9]:
        st_out = conformity([DigitHistogram(counts)], 0.05)[0]
        accept = st_out.chi_square <= critical_value(0.05)
        assert (st_out.verdict == "accept") == accept


def test_conformity_small_sample_flag_threshold():
    assert conformity([DigitHistogram((50, 8, 4, 3, 2, 2, 2, 2, 2))])[0].small_sample_flag
    low = DigitHistogram((SMALL_SAMPLE_MIN - 1,) + (0,) * 8)
    high = DigitHistogram((SMALL_SAMPLE_MIN,) + (0,) * 8)
    assert conformity([low])[0].small_sample_flag
    assert not conformity([high])[0].small_sample_flag


def _single_bin(digit_and_count):
    digit, count = digit_and_count
    return tuple(count if d == digit else 0 for d in range(9))


# any mix of bins, many empty bins, or one nonzero bin; counts up to 2**80
_histograms = st.one_of(
    st.tuples(*[st.integers(0, 2**80)] * 9),
    st.tuples(*[st.sampled_from([0, 1, 2, 89, 10**15, 2**80])] * 9),
    st.tuples(st.integers(0, 8), st.integers(1, 2**80)).map(_single_bin),
).filter(any)


@given(counts=_histograms)
@example(counts=(100,) * 9)
@example(counts=(1,) + (0,) * 8)
def test_conformity_carries_both_distances(counts):
    h = DigitHistogram(counts)
    st_out = conformity([h])[0]
    freq = np.asarray(h.counts, dtype=float) / h.total
    assert st_out.chi_square == chi_square_statistic(h)
    assert st_out.chebyshev == chebyshev_distance(freq, benford_pmf())
    assert st_out.kl_divergence == kl_divergence(freq, benford_pmf())


def _assert_same_bits(got: ConformityStats, want: ConformityStats) -> None:
    for field in fields(ConformityStats):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        assert a.hex() == b.hex() if isinstance(b, float) else a == b, field.name


@given(
    batch=st.lists(_histograms, min_size=1, max_size=60),
    alpha=st.floats(0.001, 0.999),
)
@example(batch=[(1,) + (0,) * 8, (100,) * 9, (0,) * 8 + (2**80,)], alpha=0.05)
def test_conformity_rows_equal_the_scalar_oracle_in_order(batch, alpha):
    histograms = [DigitHistogram(counts) for counts in batch]
    rows = conformity(histograms, alpha)
    assert len(rows) == len(histograms)
    for h, row in zip(histograms, rows):
        _assert_same_bits(row, scalar_conformity(h, alpha))
    assert conformity(histograms[::-1], alpha) == rows[::-1]


_CALIBRATION_DRAWS = 50_000


@pytest.mark.parametrize("n", [20, 45, 90])
def test_small_samples_keep_the_nominal_size(n):
    # The size of the nominal 5% test on samples far below SMALL_SAMPLE_MIN,
    # from multinomial samples of the reference law measured in one batch.
    # The tolerance is five binomial standard errors of the nominal rate
    # (0.0049 at 50,000 draws); earlier measured sizes were 0.0522 at
    # n=20, 0.0508 at n=45 and 0.0502 at n=90.
    alpha = 0.05
    rng = np.random.Generator(np.random.PCG64(20_450 + n))
    draws = rng.multinomial(n, benford_pmf(), size=_CALIBRATION_DRAWS)
    rows = conformity(list(map(DigitHistogram, map(tuple, draws.tolist()))), alpha)
    assert all(row.small_sample_flag for row in rows)
    rate = sum(row.verdict == "reject" for row in rows) / _CALIBRATION_DRAWS
    tolerance = 5.0 * math.sqrt(alpha * (1.0 - alpha) / _CALIBRATION_DRAWS)
    assert abs(rate - alpha) <= tolerance


def test_conformity_is_reproducible():
    h = DigitHistogram((56, 29, 27, 22, 22, 13, 12, 11, 8))
    assert conformity([h], 0.05)[0] == conformity([h], 0.05)[0]


def test_conformity_validation():
    with pytest.raises(ValueError, match="empty sample"):
        conformity([DigitHistogram((0,) * 9)])
    with pytest.raises(ValueError):
        conformity([DigitHistogram((1,) * 9)], alpha=0.0)
    with pytest.raises(ValueError):
        conformity([DigitHistogram((1,) * 9)], alpha=1.0)
    # a batch: any empty histogram in it fails the call; no histograms, no rows
    with pytest.raises(ValueError, match="empty sample"):
        conformity([DigitHistogram((1,) * 9), DigitHistogram((0,) * 9, excluded=4)])
    assert conformity([]) == []
    with pytest.raises(ValueError, match="alpha"):
        conformity([], alpha=1.0)
