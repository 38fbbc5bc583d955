"""Conformity statistics over digit histograms.

Three measures are computed against the logarithmic reference law: a
chi-square goodness-of-fit statistic with 8 degrees of freedom (9 digit
bins minus 1) together with its upper-tail p-value in closed form, the
Chebyshev (maximum absolute) distance between frequency vectors, and
the Kullback-Leibler divergence of the observed frequencies from the
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .digits import DigitHistogram, benford_pmf

DEGREES_OF_FREEDOM = 8

# Below this sample size at least one expected digit count drops under
# the usual chi-square validity floor of 5 (5 / P(9) ~ 109), so results
# are flagged rather than suppressed.
SMALL_SAMPLE_MIN = 109

# The reference law and its natural log, read-only; conformity uses them
# on every call.
_REF = benford_pmf()
_LOG_REF = np.log(_REF)
_REF.flags.writeable = _LOG_REF.flags.writeable = False


@dataclass(frozen=True)
class ConformityStats:
    """One conformity measurement: test statistic, verdict and distances."""

    chi_square: float
    p_value: float
    verdict: str  # "accept" or "reject"
    chebyshev: float
    kl_divergence: float
    sample_size: int
    small_sample_flag: bool


def chi_square_statistic(h: DigitHistogram) -> float:
    """Sum of (observed - expected)^2 / expected over the nine digit bins.

    Expected counts are total * P(d) and stay real-valued; they are not
    rounded to integers.
    """
    total = h.total
    if total == 0:
        raise ValueError("empty sample")
    return float(_chi_square(np.asarray(h.counts, dtype=float), float(total)))


def _chi_square(counts: np.ndarray, totals) -> np.ndarray:
    """Chi-square over the last axis; `totals` broadcasts against `counts`."""
    expected = totals * _REF
    return ((counts - expected) ** 2 / expected).sum(axis=-1)


def _chi_square_tail(stat) -> np.ndarray:
    """Upper tail of the chi-square law with 8 degrees of freedom, elementwise.

    For even degrees the tail is a finite sum; with y = stat / 2 it is
    e^-y (1 + y + y^2/2 + y^3/6), here with the cubic written in `stat`.
    e^-y is applied as two factors e^(-y/2), so the partial products
    stay normal wherever the tail does and subnormal tails are kept.
    Statistics above 8000, whose tail is 0, are clamped there so the
    cubic stays finite, and the last rounding is clamped into [0, 1].
    """
    s = np.minimum(stat, 8000.0)
    half = np.exp(-0.25 * s)
    return np.minimum(half * (1.0 + s * (0.5 + s * (0.125 + s / 48.0))) * half, 1.0)


def chi_square_pvalue(stat: float) -> float:
    """Upper-tail probability of a chi-square variable with 8 degrees.

    Validates `stat` (finite and nonnegative) and evaluates the closed
    form that `conformity` applies to its whole chi-square column.
    """
    if not math.isfinite(stat) or stat < 0.0:
        raise ValueError("statistic must be finite and nonnegative")
    return float(_chi_square_tail(np.float64(stat)))


def critical_value(alpha: float) -> float:
    """Statistic value whose upper-tail p-value equals `alpha`.

    Derived from chi_square_pvalue by bisection rather than from a
    table, so verdicts and reported thresholds can never disagree.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    lo, hi = 0.0, 1.0
    while chi_square_pvalue(hi) > alpha:  # p rounds to 0 above about 1,525
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi_square_pvalue(mid) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


def _frequency_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (9,):
        raise ValueError("frequency vector must have nine entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError("frequency vector entries must be finite")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("frequency vector entries must lie in [0, 1]")
    return arr


def chebyshev_distance(p_obs, p_ref) -> float:
    """Maximum absolute componentwise gap between two frequency vectors."""
    return float(_chebyshev(_frequency_vector(p_obs), _frequency_vector(p_ref)))


def _chebyshev(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.abs(p - q).max(axis=-1)


def kl_divergence(p_obs, p_ref) -> float:
    """Kullback-Leibler divergence sum p * ln(p / q) in nats.

    Zero observed components contribute zero (the 0 * ln 0 limit); a
    zero anywhere in the reference makes the divergence undefined and
    raises instead of returning infinity.
    """
    p = _frequency_vector(p_obs)
    q = _frequency_vector(p_ref)
    if np.any(q <= 0.0):
        raise ValueError("reference support violation")
    return float(_kl(p, np.log(q)))


def _kl(p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """KL over the last axis: all nine terms, an absent digit's being 0."""
    return (p * (np.log(p + (p == 0.0)) - log_q)).sum(axis=-1)


def conformity(
    histograms: Sequence[DigitHistogram], alpha: float = 0.05
) -> list[ConformityStats]:
    """Conformity of each digit histogram at level `alpha`, in order.

    The verdict is "accept" exactly when the p-value is at least alpha,
    which matches thresholding the statistic at critical_value(alpha).
    Samples smaller than SMALL_SAMPLE_MIN are flagged, never dropped.
    The measures reduce the rows of one (k x 9) count matrix through
    the kernels of the one-sample functions, so each row has the bits
    of its histogram measured alone.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    totals = [h.total for h in histograms]
    if 0 in totals:
        raise ValueError("empty sample")
    counts = np.array([h.counts for h in histograms], dtype=float).reshape(len(totals), 9)
    scale = np.array(totals, dtype=float)[:, None]
    freq = counts / scale
    chi2 = _chi_square(counts, scale)
    measures = zip(
        totals,
        chi2.tolist(),
        _chi_square_tail(chi2).tolist(),
        _chebyshev(freq, _REF).tolist(),
        _kl(freq, _LOG_REF).tolist(),
    )
    return [
        ConformityStats(
            stat, p, "accept" if p >= alpha else "reject", cheb, div, n, n < SMALL_SAMPLE_MIN
        )
        for n, stat, p, cheb, div in measures
    ]
