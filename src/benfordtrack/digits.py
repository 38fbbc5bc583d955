"""First-significant-digit extraction and the logarithmic reference law.

The reference distribution assigns probability log10(1 + 1/d) to first
digit d in 1..9.  Digit extraction works on the absolute value, so the
sign of a change never affects its digit, and zero carries no digit at
all: histograms count zeros separately instead of forcing them into a
bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Mantissas at least this close to a decade edge are re-derived from a
# 12-significant-digit decimal rendering.  Raw floor(log10) arithmetic
# misclassifies values such as 0.1 or 999.9999999999 whose logarithm
# rounds across the edge.
_EDGE_HIGH = 9.9999999999

# Python's 10.0 ** k for every decade a nonzero finite double can fall in.
# np.power(10.0, k) differs from it in the last bit at some k on some
# hosts, which would make the vectorised quotient disagree with the
# scalar one.  Entries whose 10.0 ** k underflows to zero are stored as
# NaN: their quotients are NaN, fail the fast-path test without a
# division warning, and take the string path, as in the scalar code.
_POW10_MIN = -330
_POW10 = np.array([10.0 ** k or math.nan for k in range(_POW10_MIN, 309)])


def benford_pmf() -> np.ndarray:
    """Reference first-digit probabilities log10(1 + 1/d) for d = 1..9.

    Returns a fresh length-9 array; entries are strictly decreasing and
    sum to 1 up to rounding.
    """
    d = np.arange(1, 10, dtype=float)
    return np.log10(1.0 + 1.0 / d)


def mantissa_exponent(x: float) -> tuple[float, int]:
    """Split a nonzero finite value into (m, e) with |x| = m * 10**e, 1 <= m < 10.

    Near decade edges the naive quotient |x| / 10**floor(log10|x|) can
    land just below 1 or at 10 and misreport the leading digit; those
    cases are settled by rounding the value to 12 significant decimal
    digits and reading mantissa and exponent off the rendered string.
    """
    if not math.isfinite(x):
        raise ValueError("non-finite value")
    if x == 0.0:
        raise ValueError("zero has no significant digits")
    ax = abs(x)
    e = math.floor(math.log10(ax))
    scale = 10.0 ** e
    # subnormal inputs underflow the scale to zero; the string path below
    # reads the mantissa without ever forming the quotient
    m = ax / scale if scale > 0.0 else 0.0
    if m < 1.0 or m >= _EDGE_HIGH:
        text = f"{ax:.11e}"
        mantissa, _, exponent = text.partition("e")
        m = float(mantissa)
        e = int(exponent)
    return m, e


def first_significant_digit(x: float) -> int | None:
    """Leading nonzero decimal digit of |x|, or None for exact zero.

    The digit is the integer part of the float quotient
    |x| / 10.0**floor(log10|x|).  Only when that quotient falls outside
    [1, 9.9999999999) is it replaced by the mantissa of the
    12-significant-digit rendering (see mantissa_exponent).  The
    quotient is rounded, so some short decimals lose a unit: 0.3 gives
    2 and 0.7 gives 6, while 0.03 gives 3 and 0.07 gives 7.

    Raises ValueError for NaN or infinities; they have no digits and
    must be rejected before they reach a histogram.
    """
    if not math.isfinite(x):
        raise ValueError("non-finite value")
    if x == 0.0:
        return None
    m, _ = mantissa_exponent(x)
    return int(m)


@dataclass(frozen=True)
class DigitHistogram:
    """Counts of first significant digits 1..9 plus the zero count.

    `counts[i]` is the number of values whose first digit is i + 1 and
    `excluded` counts the exact zeros that carry no digit.  `total` is
    the digit-bearing sample size used by every downstream statistic.
    """

    counts: tuple[int, ...]
    excluded: int = 0

    def __post_init__(self) -> None:
        if len(self.counts) != 9:
            raise ValueError("counts must have nine entries")
        if min(self.counts) < 0:
            raise ValueError("counts must be nonnegative")
        if self.excluded < 0:
            raise ValueError("excluded must be nonnegative")

    @property
    def total(self) -> int:
        return sum(self.counts)


def digit_histogram(values: Iterable[float]) -> DigitHistogram:
    """Count first significant digits over `values`.

    Zeros are excluded (and counted) rather than binned; non-finite
    values raise ValueError.  Every digit equals first_significant_digit
    of its value: the quotient is formed with the same power of ten, and
    values whose quotient leaves [1, 9.9999999999) go through that
    function itself.
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
    x = np.abs(np.asarray(values, dtype=np.float64))
    if np.count_nonzero(np.isfinite(x)) < x.size:
        raise ValueError("non-finite value")
    nonzero = x[x != 0.0]
    e = np.floor(np.log10(nonzero)).astype(np.intp)
    m = nonzero / _POW10[e - _POW10_MIN]
    fast = (m >= 1.0) & (m < _EDGE_HIGH)
    if np.count_nonzero(fast) == len(m):
        counts = np.bincount(m.astype(np.intp), minlength=10)
    else:
        counts = np.bincount(m[fast].astype(np.intp), minlength=10)
        for v in nonzero[~fast].tolist():
            counts[first_significant_digit(v)] += 1
    return DigitHistogram(tuple(counts.tolist()[1:]), len(x) - len(nonzero))

