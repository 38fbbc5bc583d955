"""Shared independent oracles and fixtures for the test suite.

Everything here re-derives expected behavior through a different route
than the library takes: decimal-string digit scanning, plain-Python
formula evaluation, conformity one histogram at a time, adaptive
quadrature, 60-digit decimals, step-by-step window enumeration, panel
CSV one f-string row at a time, and JSON through a dict document and
json.dumps.
"""

import json
import math
import os
from datetime import date
from decimal import Decimal, localcontext

import numpy as np

import benfordtrack
from benfordtrack import (
    SMALL_SAMPLE_MIN,
    ChangeSeries,
    ConformityStats,
    benford_pmf,
    chi_square_pvalue,
)
from benfordtrack.panel import PANEL_HEADER
from benfordtrack.synthetic import SynthSpec, synth_panel


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


def scalar_conformity(h, alpha=0.05) -> ConformityStats:
    """Conformity of one histogram as a one-row table, from its own length-9 vectors.

    The reference for the columnar `conformity`: the same formulas
    reduced over one vector at a time.  KL sums all nine terms, an
    absent digit's term being zero, and the p-value is the scalar
    `chi_square_pvalue`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    total = h.total
    if total == 0:
        raise ValueError("empty sample")
    ref = benford_pmf()
    counts = np.asarray(h.counts, dtype=float)
    expected = total * ref
    gap = counts - expected
    gap *= gap
    gap /= expected
    stat = float(gap.sum())
    p = chi_square_pvalue(stat)
    freq = counts / total
    log_ratio = np.log(np.where(freq > 0.0, freq, 1.0))
    log_ratio -= np.log(ref)
    log_ratio *= freq
    return ConformityStats(
        n=[total],
        chi2=[stat],
        p_value=[p],
        verdict=["accept" if p >= alpha else "reject"],
        chebyshev=[float(np.abs(freq - ref).max())],
        kl=[float(log_ratio.sum())],
        small_sample=[total < SMALL_SAMPLE_MIN],
    )


def chi2_tail_quad(stat: float) -> float:
    """Upper tail with 8 degrees of freedom by adaptive quadrature of the density."""
    from scipy import integrate

    def pdf(t):
        return t**3 * math.exp(-t / 2.0) / 96.0  # 2^4 * Gamma(4) = 96

    value, _ = integrate.quad(pdf, stat, math.inf, limit=200)
    return value


def chi2_tail_decimal(stat: float) -> float:
    """Upper tail with 8 degrees of freedom from its closed form, in 60-digit decimals."""
    with localcontext() as context:
        context.prec = 60
        y = Decimal(stat) / 2
        return float((-y).exp() * (1 + y + y * y / 2 + y * y * y / 6))


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
    dates = synth_panel(SynthSpec("constant", len(values), 0), start=start).dates
    return ChangeSeries(entity, tenor, dates[1:], np.asarray(values, dtype=np.float64))


def reference_serialize(series) -> str:
    """Panel CSV one f-string row at a time, each series rendering its own dates."""
    lines = [PANEL_HEADER]
    for s in sorted(series, key=lambda s: (s.entity, s.tenor)):
        labels = f",{s.entity},{s.tenor},"
        days = np.datetime_as_string(s.dates).tolist()
        lines += [f"{day}{labels}{spread!r}" for day, spread in zip(days, s.spreads.tolist())]
    return "\n".join(lines) + "\n"


def report_rows(report) -> tuple[tuple, ...]:
    """A report's rows: one tuple of cells per row, in column order."""
    return tuple(zip(*report.columns.values()))


def json_document(report) -> str:
    """A report's JSON through a dict document and json.dumps.

    The meta, rows as column -> value dicts, and the trends nested as
    entity -> tenor -> metric -> fit, rendered with sorted keys and a
    two-space indent.
    """
    doc = {
        "meta": dict(report.meta),
        "rows": [dict(zip(report.columns, row)) for row in report_rows(report)],
    }
    if report.trends is not None:
        doc["trends"] = {}
        for entity, tenor, fit in report.trends:
            doc["trends"].setdefault(entity, {}).setdefault(tenor, {})[fit.metric] = {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "r_squared": fit.r_squared,
            }
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cli_env() -> dict:
    """Environment for a `python -m benfordtrack` child process.

    The child imports the same package as the tests, whether it comes
    from an installation or from the checkout's `src` directory.
    """
    package_root = os.path.dirname(os.path.dirname(benfordtrack.__file__))
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
