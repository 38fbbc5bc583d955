"""First-significant-digit extraction and the logarithmic reference law.

The reference distribution assigns probability log10(1 + 1/d) to first
digit d in 1..9.  Digit extraction works on the absolute value, so the
sign of a change never affects its digit, and zero carries no digit at
all: histograms count zeros separately instead of forcing them into a
bin.  Every digit comes from one array rule, mantissa_exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Mantissas this close to a decade edge are re-derived from a 12-digit
# rendering: floor(log10) misreads values such as 0.1 or 999.9999999999
# whose logarithm rounds across the edge.
_EDGE_HIGH = 9.9999999999

# Python's 10.0 ** k for each decade of a nonzero finite double, indexed
# by k (negative k from the end); np.power differs in the last bit at some
# k on some hosts.  NaN marks a 10.0 ** k that underflows to zero: its
# quotients take the string path, and its rewrites the rendered pair.
_POW10 = np.array([10.0 ** k or math.nan for k in (*range(309), *range(-330, 0))])


def benford_pmf() -> np.ndarray:
    """Reference first-digit probabilities log10(1 + 1/d) for d = 1..9.

    Returns a fresh length-9 array; entries are strictly decreasing and
    sum to 1 up to rounding.
    """
    # each log10(1 + 1/d) correctly rounded; np.log10's last bit varies by CPU kernel
    return np.array([0.3010299956639812, 0.17609125905568124, 0.12493873660829993,
                     0.09691001300805642, 0.07918124604762482, 0.06694678963061322,
                     0.05799194697768673, 0.05115252244738129, 0.04575749056067514])


def mantissa_exponent(values: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Split nonzero finite values into (m, e) with |x| = m * 10**e, 1 <= m < 10.

    Takes a 1-D sequence; returns m as float64 and e as intp arrays.  m is
    the quotient |x| / 10.0**floor(log10|x|), except where it leaves
    [1, 9.9999999999), near decade edges and where 10.0**e underflows;
    there m and e are read off x rendered to 12 significant digits.
    Raises ValueError for a zero or non-finite value.
    """
    x = np.abs(np.asarray(values, dtype=np.float64))
    if np.count_nonzero(x) < x.size:
        raise ValueError("zero has no significant digits")
    if np.count_nonzero(np.isfinite(x)) < x.size:
        raise ValueError("non-finite value")
    e = np.floor(np.log10(x)).astype(np.intp)
    m = x / _POW10[e]
    fast = (m >= 1.0) & (m < _EDGE_HIGH)
    if np.count_nonzero(fast) < m.size:
        for i in np.flatnonzero(~fast).tolist():
            mantissa, _, exponent = f"{float(x[i]):.11e}".partition("e")
            m[i] = float(mantissa)
            e[i] = int(exponent)
    return m, e


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
    values raise ValueError.  Each digit is the integer part of the
    mantissa from mantissa_exponent, a rounded quotient: 0.3 counts as 2.
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
    x = np.asarray(values, dtype=np.float64)
    nonzero = x[x != 0.0]
    m, _ = mantissa_exponent(nonzero)
    counts = np.bincount(m.astype(np.intp), minlength=10)
    return DigitHistogram(tuple(counts.tolist()[1:]), len(x) - len(nonzero))
