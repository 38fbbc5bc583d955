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
    conformity,
)
from benfordtrack.stats import _chi_square_tail
from helpers import (
    chi2_tail_decimal,
    chi2_tail_quad,
    direct_chebyshev,
    direct_chi2,
    direct_kl,
    scalar_conformity,
)


def chi2_of(h: DigitHistogram) -> float:
    """The chi-square statistic of one histogram, measured alone."""
    return conformity([h]).chi2[0]


def pvalue(stat: float) -> float:
    """The p-value of one statistic, by the tail `conformity` applies to its column."""
    return float(_chi_square_tail(np.float64(stat)))


# ------------------------------------------------------ chi-square stat

def test_chi2_zero_when_counts_equal_expected():
    # expected counts are real-valued; inject them directly
    counts = tuple(1000.0 * p for p in benford_pmf())
    h = DigitHistogram(counts)
    assert abs(chi2_of(h)) < 1e-18


def test_chi2_uniform_counts_match_direct_formula():
    h = DigitHistogram((100,) * 9)
    got = chi2_of(h)
    want = direct_chi2(h.counts, h.total)
    assert got == pytest.approx(want, rel=1e-12)
    # frozen value computed with the direct formula
    assert got == pytest.approx(361.5284636209621, rel=1e-12)


def test_chi2_grows_when_mass_moves_to_rare_digit():
    base = DigitHistogram((301, 176, 125, 97, 79, 67, 58, 51, 46))
    moved = DigitHistogram((300, 176, 125, 97, 79, 67, 58, 51, 47))
    assert chi2_of(moved) > chi2_of(base)


def test_chi2_empty_sample():
    with pytest.raises(ValueError, match="empty sample"):
        chi2_of(DigitHistogram((0,) * 9))


@given(counts=st.lists(st.integers(0, 500), min_size=9, max_size=9))
def test_chi2_matches_direct_formula(counts):
    h = DigitHistogram(tuple(counts))
    if h.total == 0:
        return
    assert chi2_of(h) == pytest.approx(
        direct_chi2(h.counts, h.total), rel=1e-12
    )


# ------------------------------------------------------------- p-value

def test_pvalue_at_zero_is_one():
    assert pvalue(0.0) == 1.0
    # a quarter of the smallest positive float underflows to exact zero
    assert pvalue(5e-324) == 1.0


def test_pvalue_at_classic_critical_point():
    assert 0.0495 <= pvalue(15.507) <= 0.0505


def test_pvalue_frozen_spot_value():
    # frozen from the quadrature oracle
    assert pvalue(20.0) == pytest.approx(0.010336050675925725, rel=1e-12)


@pytest.mark.parametrize("stat", [0.5, 1.0, 5.0, 8.9, 9.1, 15.507, 20.0, 35.0, 60.0])
def test_pvalue_matches_quadrature_oracle(stat):
    assert pvalue(stat) == pytest.approx(chi2_tail_quad(stat), abs=1e-10)


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
        got, want = pvalue(stat), chi2_tail_decimal(stat)
        assert abs(_bits(got) - _bits(want)) <= _PVALUE_ULPS, stat


def test_pvalue_matches_the_decimal_reference_in_the_far_tail():
    rng = np.random.Generator(np.random.PCG64(1416))
    for stat in rng.uniform(100.0, 1500.0, 2000).tolist():
        got, want = pvalue(stat), chi2_tail_decimal(stat)
        if want >= sys.float_info.min:
            assert abs(got - want) <= 1e-15 * want, stat
        else:  # a subnormal tail: its spacing is 5e-324
            assert abs(got - want) <= 4 * 5e-324, stat


def test_pvalue_keeps_the_subnormal_tail():
    want = chi2_tail_decimal(1490.0)
    assert 1.9e-316 < want < 2.0e-316
    assert abs(pvalue(1490.0) - want) <= 4 * 5e-324


@pytest.mark.parametrize("stat", [1e104, 1e300, sys.float_info.max])
def test_pvalue_of_huge_statistics_is_zero(stat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pvalue(stat) == 0.0


@given(stat=st.floats(min_value=0.0, allow_infinity=False))
@example(stat=1e104)
@example(stat=sys.float_info.min)
def test_pvalue_lies_in_the_unit_interval_without_warnings(stat):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 0.0 <= pvalue(stat) <= 1.0


def test_pvalue_monotone_nonincreasing_on_grid():
    grid = [pvalue(i * 0.5) for i in range(101)]
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
    assert _bits(pvalue(hi)) - _bits(pvalue(lo)) <= _PVALUE_RISE_ULPS


def test_pvalue_far_tail_still_finite_and_tiny():
    p = pvalue(1000.0)
    assert 0.0 <= p < 1e-100


# ------------------------------------------------------ chebyshev and kl

# The reference law written out here, and the closed forms of each
# histogram's two distances from it.
_P = [math.log10(1.0 + 1.0 / d) for d in range(1, 10)]
_MEAN_LOG_P = sum(map(math.log, _P)) / 9
_MEAN_LOG_P_TAIL = sum(map(math.log, _P[1:])) / 8


@pytest.mark.parametrize(
    "counts, chebyshev, kl",
    [
        # the gap is attained at digit 1; 0.190 and 0.191 to three places
        ((1,) * 9, _P[0] - 1.0 / 9.0, -math.log(9.0) - _MEAN_LOG_P),
        # a missing top digit: the gap is its whole mass
        ((0,) + (1,) * 8, _P[0], -math.log(8.0) - _MEAN_LOG_P_TAIL),
        # a point mass on digit 1: KL is -ln log10(2)
        ((1,) + (0,) * 8, 1.0 - _P[0], -math.log(math.log10(2.0))),
        # zero components add nothing: only digits 1 and 2 have KL terms
        ((1, 1) + (0,) * 7, 0.5 - _P[1], -math.log(2.0) - 0.5 * math.log(_P[0] * _P[1])),
        # a missing bottom digit: the gap stays at digit 1
        ((1,) * 8 + (0,), _P[0] - 1.0 / 8.0, -math.log(8.0) - sum(map(math.log, _P[:8])) / 8),
        # half on each end: the gap moves to digit 9
        ((1,) + (0,) * 7 + (1,), 0.5 - _P[8], -math.log(2.0) - 0.5 * math.log(_P[0] * _P[8])),
    ],
    ids=[
        "uniform", "missing-top-digit", "point-mass", "zero-components",
        "missing-bottom-digit", "both-ends",
    ],
)
def test_conformity_distances_of_known_histograms(counts, chebyshev, kl):
    table = conformity([DigitHistogram(counts)])
    assert table.chebyshev[0] == pytest.approx(chebyshev, rel=1e-12)
    assert table.kl[0] == pytest.approx(kl, rel=1e-12)
    if counts[0] == 0:
        assert table.chebyshev[0] == benford_pmf()[0]


@pytest.mark.parametrize("digit", range(1, 10))
def test_conformity_distances_of_a_point_mass(digit):
    # all mass on one digit: the gap is the rest of the law, KL is -ln P(d)
    counts = tuple(7 if d == digit else 0 for d in range(1, 10))
    table = conformity([DigitHistogram(counts)])
    assert table.chebyshev[0] == pytest.approx(1.0 - _P[digit - 1], rel=1e-12)
    assert table.kl[0] == pytest.approx(-math.log(_P[digit - 1]), rel=1e-12)


# ---------------------------------------------------------- conformity

def test_conformity_accept_on_near_reference_counts():
    h = DigitHistogram((301, 176, 125, 97, 79, 67, 58, 51, 46))
    st_out = conformity([h], 0.05)
    assert st_out.verdict == ["accept"]
    assert st_out.p_value[0] > 0.9
    assert st_out.n == [1000]
    assert st_out.small_sample == [False]


def test_conformity_reject_on_uniform_counts():
    st_out = conformity([DigitHistogram((100,) * 9)], 0.05)
    assert st_out.verdict == ["reject"]
    assert st_out.p_value[0] < 1e-10


def test_conformity_verdict_threshold_is_p_value_vs_alpha():
    h = DigitHistogram((56, 29, 27, 22, 22, 13, 12, 11, 8))
    (p,) = conformity([h], 0.05).p_value
    assert conformity([h], 0.05).verdict == ["accept" if p >= 0.05 else "reject"]
    # verdict flips once alpha crosses the p-value
    assert conformity([h], min(p / 2, 0.99)).verdict == ["accept"]


@pytest.mark.parametrize(
    "alpha, table_value",
    [(0.2, 11.030), (0.1, 13.362), (0.05, 15.507), (0.01, 20.090), (0.001, 26.124)],
)
def test_conformity_verdict_agrees_with_table_critical_values(alpha, table_value):
    # the printed 8-degree critical values, to their three decimals
    low, high = table_value - 5e-4, table_value + 5e-4
    assert pvalue(low) > alpha > pvalue(high)
    # move mass from digit 1 to digit 9 until the statistic crosses it
    batch = [
        DigitHistogram((301 - m, 176, 125, 97, 79, 67, 58, 51, 46 + m)) for m in range(60)
    ]
    table = conformity(batch, alpha)
    verdicts = set()
    for chi2, verdict in zip(table.chi2, table.verdict):
        if not low <= chi2 <= high:
            assert (verdict == "accept") == (chi2 < table_value)
        verdicts.add(verdict)
    assert verdicts == {"accept", "reject"}


def test_conformity_small_sample_flag_threshold():
    assert conformity([DigitHistogram((50, 8, 4, 3, 2, 2, 2, 2, 2))]).small_sample[0]
    low = DigitHistogram((SMALL_SAMPLE_MIN - 1,) + (0,) * 8)
    high = DigitHistogram((SMALL_SAMPLE_MIN,) + (0,) * 8)
    assert conformity([low]).small_sample[0]
    assert not conformity([high]).small_sample[0]
    # the floor is where every expected count n * P(9) reaches 5:
    # 109 * P(9) = 4.988 is an invalid chi-square cell, 110 * P(9) = 5.033
    assert type(SMALL_SAMPLE_MIN) is int
    assert (SMALL_SAMPLE_MIN - 1) * _P[-1] < 5.0 <= SMALL_SAMPLE_MIN * _P[-1]
    below, at = DigitHistogram((109,) + (0,) * 8), DigitHistogram((110,) + (0,) * 8)
    assert conformity([below, at]).small_sample == [True, False]


def _single_bin(digit_and_count):
    digit, count = digit_and_count
    return tuple(count if d == digit else 0 for d in range(9))


# any mix of bins, many empty bins, or one nonzero bin; counts up to 2**80
_histograms = st.one_of(
    st.tuples(*[st.integers(0, 2**80)] * 9),
    st.tuples(*[st.sampled_from([0, 1, 2, 89, 10**15, 2**80])] * 9),
    st.tuples(st.integers(0, 8), st.integers(1, 2**80)).map(_single_bin),
).filter(any)


def _one_row(counts):
    table = conformity([DigitHistogram(counts)])
    return table.n[0], table.chi2[0], table.chebyshev[0], table.kl[0]


@given(counts=_histograms)
@example(counts=(100,) * 9)
@example(counts=(1,) + (0,) * 8)
def test_conformity_carries_both_distances(counts):
    h = DigitHistogram(counts)
    _, chi2, cheb, kl = _one_row(counts)
    freq = [c / h.total for c in h.counts]
    assert chi2 == pytest.approx(direct_chi2(h.counts, h.total), rel=1e-9)
    assert cheb == pytest.approx(direct_chebyshev(freq, _P), rel=1e-12)
    assert kl == pytest.approx(direct_kl(freq, _P), rel=1e-9, abs=1e-15)


@given(counts=_histograms)
@example(counts=(0,) * 8 + (1,))
def test_conformity_distances_are_bounded(counts):
    # no frequency vector is further from the law than a point mass on 9
    pmf = benford_pmf()
    _, _, cheb, kl = _one_row(counts)
    assert 0.0 <= cheb <= 1.0 - pmf[8]
    assert -1e-15 <= kl <= -math.log(pmf[8]) * (1.0 + 1e-12)


@given(counts=_histograms)
def test_conformity_distances_satisfy_pinsker(counts):
    # KL >= 2 TV^2, and total variation is at least the Chebyshev gap
    _, _, cheb, kl = _one_row(counts)
    assert kl >= 2.0 * cheb * cheb - 1e-15


@given(counts=_histograms)
def test_conformity_kl_is_at_most_log_one_plus_chi2_over_n(counts):
    # Jensen: sum p ln(p/q) <= ln sum p^2/q = ln(1 + chi2 / n)
    n, chi2, _, kl = _one_row(counts)
    assert kl <= math.log1p(chi2 / n) * (1.0 + 1e-9) + 1e-15


@given(counts=_histograms)
def test_conformity_chi2_bounds_the_chebyshev_gap(counts):
    # chi2 / n = sum (p - q)^2 / q >= gap^2 / max q, the largest q being P(1)
    n, chi2, cheb, _ = _one_row(counts)
    assert chi2 / n * (1.0 + 1e-9) + 1e-15 >= cheb * cheb / _P[0]


@given(counts=_histograms, shift=st.integers(1, 10))
def test_conformity_distances_are_scale_free(counts, shift):
    # scaling every count by a power of two is exact in binary floating point
    _, chi2, cheb, kl = _one_row(counts)
    _, scaled_chi2, scaled_cheb, scaled_kl = _one_row(tuple(c << shift for c in counts))
    assert scaled_cheb.hex() == cheb.hex()
    assert scaled_kl.hex() == kl.hex()
    assert scaled_chi2 == chi2 * 2**shift


def _columns(table: ConformityStats) -> dict:
    return {field.name: getattr(table, field.name) for field in fields(ConformityStats)}


def _hex_or_value(v):
    return v.hex() if isinstance(v, float) else v


def _assert_same_bits(got: ConformityStats, want: ConformityStats) -> None:
    for name, column in _columns(want).items():
        mine = getattr(got, name)
        assert list(map(type, mine)) == list(map(type, column)), name
        assert list(map(_hex_or_value, mine)) == list(map(_hex_or_value, column)), name


@given(
    batch=st.lists(_histograms, min_size=1, max_size=60),
    alpha=st.floats(0.001, 0.999),
)
@example(batch=[(1,) + (0,) * 8, (100,) * 9, (0,) * 8 + (2**80,)], alpha=0.05)
def test_conformity_rows_equal_the_scalar_oracle_in_order(batch, alpha):
    histograms = [DigitHistogram(counts) for counts in batch]
    table = conformity(histograms, alpha)
    assert len(table) == len(histograms)
    singles = [_columns(scalar_conformity(h, alpha)) for h in histograms]
    _assert_same_bits(
        table,
        ConformityStats(**{name: [v for one in singles for v in one[name]] for name in singles[0]}),
    )
    reversed_table = ConformityStats(**{k: v[::-1] for k, v in _columns(table).items()})
    assert conformity(histograms[::-1], alpha) == reversed_table


@given(batch=st.lists(_histograms, max_size=20))
def test_conformity_columns_hold_k_python_scalars(batch):
    # the JSON renderer takes only exact Python scalars, never numpy ones
    table = conformity([DigitHistogram(counts) for counts in batch])
    kinds = {"n": int, "chi2": float, "p_value": float, "verdict": str,
             "chebyshev": float, "kl": float, "small_sample": bool}
    assert list(_columns(table)) == list(kinds)
    for name, column in _columns(table).items():
        assert type(column) is list and len(column) == len(batch) == len(table), name
        assert all(type(v) is kinds[name] for v in column), name


# Rejection rates at alpha 0.05 and 0.01, from 400,000 multinomial samples
# of the reference law per size under PCG64(2016), drawn for 45, 90, 110,
# 1,500 and 20 in turn; README quotes them.  At 0.01 the test rejects more
# often than nominal on small samples (1.23 alpha at n=45, 1.46 at n=20).
_RECORDED_DRAWS = 400_000
_RECORDED_SIZE = {
    20: (0.0529, 0.0146),
    45: (0.0509, 0.0123),
    90: (0.0500, 0.0110),
    110: (0.0503, 0.0110),
    1500: (0.0498, 0.0101),
}
_CALIBRATION_DRAWS = 50_000


@pytest.mark.parametrize("n", list(_RECORDED_SIZE))
def test_small_samples_keep_the_nominal_size(n):
    # The size of the test far below SMALL_SAMPLE_MIN (20), at the shortest
    # and the default track window (45 and 90 changes), at SMALL_SAMPLE_MIN
    # (110) and over a long period (1,500), measured in one batch of
    # multinomial samples of the reference law.  The tolerance is five
    # binomial standard errors of the difference from the recorded rate.
    rng = np.random.Generator(np.random.PCG64(8_000 + n))
    draws = rng.multinomial(n, benford_pmf(), size=_CALIBRATION_DRAWS)
    histograms = list(map(DigitHistogram, map(tuple, draws.tolist())))
    for alpha, size in zip((0.05, 0.01), _RECORDED_SIZE[n]):
        table = conformity(histograms, alpha)
        assert set(table.small_sample) == {n < SMALL_SAMPLE_MIN}
        rate = table.verdict.count("reject") / _CALIBRATION_DRAWS
        variance = size * (1.0 - size) * (1.0 / _CALIBRATION_DRAWS + 1.0 / _RECORDED_DRAWS)
        assert abs(rate - size) <= 5.0 * math.sqrt(variance), (alpha, rate)


def test_conformity_is_reproducible():
    h = DigitHistogram((56, 29, 27, 22, 22, 13, 12, 11, 8))
    assert conformity([h], 0.05) == conformity([h], 0.05)


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
    assert conformity([]) == ConformityStats([], [], [], [], [], [], [])
    with pytest.raises(ValueError, match="alpha"):
        conformity([], alpha=1.0)
