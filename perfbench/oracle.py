"""Expected CLI results re-derived from the generated series with numpy.

This is the reference every timed output is checked against.  It is
computed at set-up, because the seed is an argument, and it takes a
different route than the package: whole-array changes, vectorised digit
extraction, window and period histograms as differences of cumulative
digit counts, and the closed-form chi-square tail for 8 degrees of
freedom.  Only the documented behaviour is shared: the five named
periods, the window geometry rule and the 12-significant-digit rule for
mantissas next to a decade edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from workloads import Workload

ALPHA = 0.05
WINDOW_LEN = 90  # the CLI's --window-len and --min-fill defaults
MIN_FILL = 0.5

PERIODS = (
    ("full", "2008-08-08", "2015-04-25"),
    ("pre_crisis", "2008-08-08", "2010-01-01"),
    ("crisis", "2010-01-01", "2013-10-31"),
    ("post_crisis", "2013-11-01", "2015-04-25"),
    ("post2010", "2010-01-01", "2015-04-25"),
)

_PMF = np.log10(1.0 + 1.0 / np.arange(1, 10))
_EDGE_HIGH = 9.9999999999


@dataclass
class Expected:
    """Reference rows keyed by (entity, tenor, period or window index)."""

    rows: dict[tuple, dict] = field(default_factory=dict)
    failed: set[tuple] = field(default_factory=set)


def first_digits(values: np.ndarray) -> np.ndarray:
    """First significant digit of each value, 0 for exact zeros."""
    a = np.abs(values)
    out = np.zeros(len(a), dtype=np.int64)
    nz = np.flatnonzero(a)
    e = np.floor(np.log10(a[nz]))
    m = a[nz] / 10.0**e
    out[nz] = m.astype(np.int64)
    for i in nz[(m < 1.0) | (m >= _EDGE_HIGH)]:
        out[i] = int(f"{a[i]:.11e}"[0])
    return out


def _prefix_counts(digits: np.ndarray) -> np.ndarray:
    """(n+1)x9 cumulative counts; row k counts digits[:k]."""
    onehot = digits[:, None] == np.arange(1, 10)
    out = np.zeros((len(digits) + 1, 9), dtype=np.int64)
    np.cumsum(onehot, axis=0, out=out[1:])
    return out


def _stats(counts: np.ndarray) -> dict[str, np.ndarray]:
    n = counts.sum(axis=1)
    expected = n[:, None] * _PMF
    chi2 = ((counts - expected) ** 2 / expected).sum(axis=1)
    h = chi2 / 2.0  # chi-square survival with 8 df, in closed form
    p = np.exp(-h) * (1.0 + h + h**2 / 2.0 + h**3 / 6.0)
    freq = counts / n[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(freq > 0.0, freq * (np.log(freq) - np.log(_PMF)), 0.0)
    return {
        "n": n,
        "chi2": chi2,
        "p_value": np.clip(p, 0.0, 1.0),
        "chebyshev": np.abs(freq - _PMF).max(axis=1),
        "kl": terms.sum(axis=1),
    }


def _window_bounds(n: int, step: int) -> tuple[np.ndarray, np.ndarray]:
    full = (n - WINDOW_LEN) // step + 1 if n >= WINDOW_LEN else 0
    starts = list(range(0, full * step, step))
    stops = [s + WINDOW_LEN for s in starts]
    tail = full * step
    if 0 < n - tail and n - tail >= WINDOW_LEN * MIN_FILL:
        starts.append(tail)
        stops.append(n)
    return np.array(starts, dtype=np.int64), np.array(stops, dtype=np.int64)


def expected(w: Workload, series) -> Expected:
    """Reference rows for workload `w` run on `series` (SpreadSeries list)."""
    out = Expected()
    periods = [
        (label, np.datetime64(lo, "D"), np.datetime64(hi, "D"))
        for label, lo, hi in PERIODS
    ]
    for s in sorted(series, key=lambda s: (s.entity, s.tenor)):
        dates = np.array([d for d, _ in s.observations], dtype="datetime64[D]")
        spreads = np.array([v for _, v in s.observations], dtype=float)
        delta = np.diff(spreads)
        if w.change_mode == "relative":
            delta = delta / spreads[:-1]
        keep = np.ones(len(delta), dtype=bool)
        if w.max_gap_days is not None:
            keep = np.diff(dates).astype(np.int64) <= w.max_gap_days
        delta, when = delta[keep], dates[1:][keep]
        prefix = _prefix_counts(first_digits(delta))
        if w.command == "track":
            starts, stops = _window_bounds(len(delta), w.step)
            keys = [(s.entity, s.tenor, i + 1) for i in range(len(starts))]
        else:
            starts = np.searchsorted(when, [lo for _, lo, _ in periods], "left")
            stops = np.searchsorted(when, [hi for _, _, hi in periods], "right")
            keys = [(s.entity, s.tenor, label) for label, _, _ in periods]
        counts = prefix[stops] - prefix[starts]
        ok = counts.sum(axis=1) > 0
        stats = _stats(counts[ok])
        if w.command == "analyze":
            stats["verdict"] = np.where(stats["p_value"] >= ALPHA, "accept", "reject")
            del stats["chebyshev"], stats["kl"]  # not in period reports
        ok_keys = [k for k, good in zip(keys, ok) if good]
        out.failed.update(k for k, good in zip(keys, ok) if not good)
        columns = {name: col.tolist() for name, col in stats.items()}
        for j, key in enumerate(ok_keys):
            out.rows[key] = {name: col[j] for name, col in columns.items()}
    return out
