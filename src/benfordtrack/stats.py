"""Conformity statistics over digit histograms.

Three measures are computed against the logarithmic reference law: a
chi-square goodness-of-fit statistic with 8 degrees of freedom (9 digit
bins minus 1) together with its exact upper-tail p-value, the Chebyshev
(maximum absolute) distance between frequency vectors, and the
Kullback-Leibler divergence of the observed frequencies from the
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digits import DigitHistogram, benford_pmf

DEGREES_OF_FREEDOM = 8

# Below this sample size at least one expected digit count drops under
# the usual chi-square validity floor of 5 (5 / P(9) ~ 109), so results
# are flagged rather than suppressed.
SMALL_SAMPLE_MIN = 109

_GAMMA_TOL = 1e-14
_GAMMA_MAX_ITER = 10_000

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
    return _chi_square(np.asarray(h.counts, dtype=float), total)


def _chi_square(counts: np.ndarray, total: int) -> float:
    expected = total * _REF
    gap = counts - expected
    gap *= gap
    gap /= expected
    return float(gap.sum())


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by series expansion."""
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_GAMMA_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_TOL:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ArithmeticError("incomplete gamma series did not converge")


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction.

    Modified Lentz evaluation; `tiny` floors intermediate denominators
    so the recurrence never divides by zero.
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _GAMMA_MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_TOL:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ArithmeticError("incomplete gamma continued fraction did not converge")


def chi_square_pvalue(stat: float, df: int = DEGREES_OF_FREEDOM) -> float:
    """Upper-tail probability of a chi-square variable with `df` degrees.

    Evaluates the regularized upper incomplete gamma Q(df/2, stat/2)
    directly: a series expansion below stat = df + 1 and a continued
    fraction above, both iterated to 1e-14 relative convergence.  The
    result is clamped into [0, 1] to absorb the last rounding step.
    """
    if not math.isfinite(stat) or stat < 0.0:
        raise ValueError("statistic must be finite and nonnegative")
    if df < 1:
        raise ValueError("degrees of freedom must be at least 1")
    a = df / 2.0
    x = stat / 2.0
    if x == 0.0:  # covers subnormal stats whose half underflows to zero
        return 1.0
    if stat < df + 1.0:
        q = 1.0 - _lower_gamma_series(a, x)
    else:
        q = _upper_gamma_cf(a, x)
    return min(1.0, max(0.0, q))


def critical_value(alpha: float, df: int = DEGREES_OF_FREEDOM) -> float:
    """Statistic value whose upper-tail p-value equals `alpha`.

    Derived from chi_square_pvalue by bisection rather than from a
    table, so verdicts and reported thresholds can never disagree.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    lo, hi = 0.0, 1.0
    while chi_square_pvalue(hi, df) > alpha:
        hi *= 2.0
        if hi > 1e9:
            raise ArithmeticError("critical value search failed to bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi_square_pvalue(mid, df) > alpha:
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
    return _chebyshev(_frequency_vector(p_obs), _frequency_vector(p_ref))


def _chebyshev(p: np.ndarray, q: np.ndarray) -> float:
    gap = p - q
    return float(np.abs(gap, out=gap).max())


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
    return _kl(p, q)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    mask = p > 0.0
    pm = p[mask]
    return float((pm * (np.log(pm) - np.log(q[mask]))).sum())


def conformity(h: DigitHistogram, alpha: float = 0.05) -> ConformityStats:
    """Full conformity measurement of a digit histogram at level `alpha`.

    The verdict is "accept" exactly when the p-value is at least alpha,
    which matches thresholding the statistic at critical_value(alpha).
    Samples smaller than SMALL_SAMPLE_MIN are flagged, never dropped.
    The three measures share one count vector and one reference vector,
    both valid by construction, so the per-argument checks of
    chebyshev_distance and kl_divergence are not repeated here.  When
    all nine digits occur, KL reads the precomputed log of the
    reference; that sums the same terms in the same order as the masked
    route, so the result is bit-identical.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    total = h.total
    if total == 0:
        raise ValueError("empty sample")
    counts = np.asarray(h.counts, dtype=float)
    stat = _chi_square(counts, total)
    p = chi_square_pvalue(stat, DEGREES_OF_FREEDOM)
    freq = counts / total
    if min(h.counts) > 0:
        log_ratio = np.log(freq)
        log_ratio -= _LOG_REF
        log_ratio *= freq
        kl = float(log_ratio.sum())
    else:
        kl = _kl(freq, _REF)
    return ConformityStats(
        chi_square=stat,
        p_value=p,
        verdict="accept" if p >= alpha else "reject",
        chebyshev=_chebyshev(freq, _REF),
        kl_divergence=kl,
        sample_size=total,
        small_sample_flag=total < SMALL_SAMPLE_MIN,
    )
