"""Conformity statistics over digit histograms.

Three measures are computed against the logarithmic reference law: a
chi-square goodness-of-fit statistic with 8 degrees of freedom (9 digit
bins minus 1) together with its upper-tail p-value in closed form, the
Chebyshev (maximum absolute) distance between frequency vectors, and
the Kullback-Leibler divergence of the observed frequencies from the
reference.  `conformity` measures any number of histograms at once and
returns one columnar `ConformityStats` table, its columns named as the
report columns they fill.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .digits import DigitHistogram, benford_pmf

# The reference law and its libm natural log, read-only; conformity uses
# them on every call (the last bit of `np.log` depends on numpy's CPU kernel).
_REF = benford_pmf()
_LOG_REF = np.array(list(map(math.log, _REF.tolist())))
_REF.flags.writeable = _LOG_REF.flags.writeable = False

# The smallest sample whose every expected digit count n * P(9) reaches
# the usual chi-square validity floor of 5 (110, as 109 * P(9) = 4.988);
# results on smaller samples are flagged rather than suppressed.
SMALL_SAMPLE_MIN = math.ceil(5.0 / _REF[-1])


@dataclass(frozen=True)
class ConformityStats:
    """Conformity of k histograms as seven columns of k Python scalars.

    The columns are named as the report columns they fill; row i of
    every column measures histogram i, and len() is the row count.
    """

    n: list[int]
    chi2: list[float]
    p_value: list[float]
    verdict: list[str]  # "accept" or "reject"
    chebyshev: list[float]
    kl: list[float]
    small_sample: list[bool]

    def __len__(self) -> int:
        return len(self.n)


def _chi_square_tail(stat) -> np.ndarray:
    """Upper tail of the chi-square law with 8 degrees of freedom, elementwise.

    For even degrees the tail is a finite sum; with y = stat / 2 it is
    e^-y (1 + y + y^2/2 + y^3/6), here with the cubic written in `stat`.
    e^-y is applied as two factors e^(-y/2), so the partial products
    stay normal wherever the tail does and subnormal tails are kept.
    Statistics above 8000, whose tail is 0, are clamped there so the
    cubic stays finite, and the last rounding is clamped into [0, 1].
    The factors come from libm's `math.exp`, as the last bit of `np.exp`
    depends on the CPU kernel numpy dispatches.
    """
    s = np.minimum(stat, 8000.0)
    half = np.vectorize(math.exp, otypes=[float])(-0.25 * s)
    return np.minimum(half * (1.0 + s * (0.5 + s * (0.125 + s / 48.0))) * half, 1.0)


def conformity(histograms: Sequence[DigitHistogram], alpha: float = 0.05) -> ConformityStats:
    """Conformity of each digit histogram at level `alpha`, as one table.

    The verdict is "accept" exactly when the p-value is at least alpha.
    Samples smaller than SMALL_SAMPLE_MIN are flagged, never dropped.
    The measures reduce the rows of one (k x 9) count matrix, so each
    row has the bits of its histogram measured alone.  KL sums all nine
    terms p * (ln p - ln q), an absent digit's term being 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    totals = [h.total for h in histograms]
    if 0 in totals:
        raise ValueError("empty sample")
    counts = np.array([h.counts for h in histograms], dtype=float).reshape(len(totals), 9)
    scale = np.array(totals, dtype=float)[:, None]
    freq = counts / scale
    expected = scale * _REF
    chi2 = ((counts - expected) ** 2 / expected).sum(axis=-1)
    # libm's log of each distinct frequency, an absent digit's taken as 1
    distinct, where = np.unique((freq + (freq == 0.0)).ravel(), return_inverse=True)
    log_freq = np.array(list(map(math.log, distinct.tolist())))[where].reshape(freq.shape)
    p_value = _chi_square_tail(chi2).tolist()
    return ConformityStats(
        n=totals,
        chi2=chi2.tolist(),
        p_value=p_value,
        verdict=["accept" if p >= alpha else "reject" for p in p_value],
        chebyshev=np.abs(freq - _REF).max(axis=-1).tolist(),
        kl=(freq * (log_freq - _LOG_REF)).sum(axis=-1).tolist(),
        small_sample=[n < SMALL_SAMPLE_MIN for n in totals],
    )
