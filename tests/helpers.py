"""Shared independent oracles and fixtures for the test suite.

Everything here re-derives expected behavior through a different route
than the library takes: decimal-string digit scanning, plain-Python
formula evaluation, adaptive quadrature, and step-by-step window
enumeration.
"""

import math
from datetime import date
from decimal import Decimal

import numpy as np

from benfordtrack import ChangeSeries
from benfordtrack.synthetic import weekday_dates


def string_first_digit(x: float):
    """First nonzero digit read off the exact decimal expansion of the float."""
    if x == 0.0:
        return None
    for ch in str(Decimal(abs(x))):
        if ch in "123456789":
            return int(ch)
    return None


def string_histogram(values):
    counts = [0] * 9
    excluded = 0
    for v in values:
        d = string_first_digit(float(v))
        if d is None:
            excluded += 1
        else:
            counts[d - 1] += 1
    return tuple(counts), excluded


def direct_chi2(counts, total):
    out = 0.0
    for digit, c in enumerate(counts, start=1):
        expected = total * math.log10(1.0 + 1.0 / digit)
        out += (c - expected) ** 2 / expected
    return out


def direct_chebyshev(p, q):
    return max(abs(a - b) for a, b in zip(p, q))


def direct_kl(p, q):
    return sum(a * math.log(a / b) for a, b in zip(p, q) if a > 0.0)


def chi2_tail_quad(stat: float, df: int = 8) -> float:
    """Upper-tail probability by adaptive quadrature of the density."""
    from scipy import integrate

    norm = 2.0 ** (df / 2.0) * math.gamma(df / 2.0)

    def pdf(t):
        return t ** (df / 2.0 - 1.0) * math.exp(-t / 2.0) / norm

    value, _ = integrate.quad(pdf, stat, math.inf, limit=200)
    return value


def enumerate_windows(n, length, step, min_fill):
    """Walk offsets one step at a time: full windows, then at most one
    trailing shorter window that reaches the fill floor."""
    out = []
    offset = 0
    while offset + length <= n:
        out.append((offset, offset + length))
        offset += step
    if offset < n and n - offset >= length * min_fill:
        out.append((offset, n))
    return out


def make_change_series(values, start=date(2008, 8, 8), entity="X", tenor="5Y"):
    """A ChangeSeries over consecutive weekdays carrying `values`."""
    dates = np.array(weekday_dates(start, len(values) + 1), dtype="datetime64[D]")
    gaps = np.diff(dates).astype(np.int64)
    return ChangeSeries(
        entity, tenor, dates[1:], np.asarray(values, dtype=np.float64), gaps
    )
