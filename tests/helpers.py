"""Shared independent oracles and fixtures for the test suite.

Everything here re-derives expected behavior through a different route
than the library takes: decimal-string digit scanning, the digit rule
and the digit manipulation one Python float at a time, plain-Python
formula evaluation, conformity one histogram at a time, adaptive
quadrature, 60-digit decimals, step-by-step window enumeration, panel
CSV one f-string row at a time, and JSON through a dict document and
json.dumps.
"""

import hashlib
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
    DigitHistogram,
    benford_pmf,
    conformity,
)
from benfordtrack.digits import mantissa_exponent
from benfordtrack.panel import PANEL_HEADER
from benfordtrack.synthetic import SynthSpec, synth_panel

EDGE_HIGH = 9.9999999999


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


def scalar_mantissa_exponent(x: float) -> tuple[float, int]:
    """The digit rule for one nonzero finite float, in plain Python.

    |x| = m * 10**e with m the quotient |x| / 10.0**floor(log10|x|),
    unless that quotient leaves [1, 9.9999999999) or the power of ten
    underflows; then m and e are read off the 12-significant-digit
    rendering.  The reference for the array `mantissa_exponent`.
    """
    if not math.isfinite(x) or x == 0.0:
        raise ValueError("zero or non-finite value")
    ax = abs(x)
    e = math.floor(math.log10(ax))
    scale = 10.0 ** e
    m = ax / scale if scale > 0.0 else 0.0
    if m < 1.0 or m >= EDGE_HIGH:
        mantissa, _, exponent = f"{ax:.11e}".partition("e")
        m = float(mantissa)
        e = int(exponent)
    return m, e


def scalar_first_digit(x: float):
    """Integer part of the scalar rule's mantissa, or None for zero."""
    if x == 0.0:
        return None
    return int(scalar_mantissa_exponent(x)[0])


def scalar_inject_manipulation(values, fraction, target_digit, seed):
    """`inject_manipulation` one picked element at a time, in plain Python.

    The same seeded PCG64 draw picks the positions; each nonzero pick
    becomes copysign((digit + frac(m)) * 10.0**e, x), or is rebuilt from
    the rendered pair where 10.0**e underflows.
    """
    out = np.array(list(values), dtype=float)
    count = int(round(fraction * len(out)))
    if count == 0:
        return out
    rng = np.random.Generator(np.random.PCG64(seed))
    for i in rng.choice(len(out), size=count, replace=False):
        x = float(out[i])
        if x == 0.0:
            continue
        m, e = scalar_mantissa_exponent(x)
        shifted = target_digit + (m - math.floor(m))
        scale = 10.0 ** e
        if scale == 0.0:
            out[i] = math.copysign(float(f"{shifted}e{e}"), x)
        else:
            out[i] = math.copysign(shifted * scale, x)
    return out


def scalar_rule_probes():
    """Values that stress the digit rule, both signs, plus both zeros.

    Every d * 10**e that is a finite double and its two neighbours, then
    3,000 seeded random subnormals and the largest and smallest
    subnormal.
    """
    values = []
    for e in range(-323, 309):
        for d in range(1, 10):
            x = float(f"{d}e{e}")
            if math.isfinite(x):
                values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    bits = np.random.Generator(np.random.PCG64(11)).integers(1, 2**52, 3000)
    values += bits.astype(np.uint64).view(np.float64).tolist()
    values += [5e-324, 2.225073858507201e-308]
    values += [-v for v in values]
    return values + [0.0, -0.0]


# The first ten frequencies c/n by n (1 <= c <= n) whose natural log under
# numpy 2.4's AVX-512 `np.log` kernel differs from libm's; each as c counts
# at one digit and n - c at the next, at all nine digits
_KL_PROBES = [
    DigitHistogram(tuple(c if k == d else n - c if k == (d + 1) % 9 else 0 for k in range(9)))
    for c, n in [(34, 35), (14, 37), (45, 46), (68, 70), (28, 74),
                 (82, 91), (90, 92), (86, 105), (102, 105), (89, 106)]
    for d in range(9)
]


def kernel_digests() -> list[str]:
    """sha256 of bits that numpy's CPU kernels could move.

    The p-values of 4,000 seeded multinomial Benford samples of 90
    digits, then the mantissas and exponents of the nonzero
    `scalar_rule_probes`, then the KL divergences of `_KL_PROBES`.
    """
    counts = np.random.Generator(np.random.PCG64(90)).multinomial(90, benford_pmf(), 4000)
    p_value = conformity([DigitHistogram(tuple(row)) for row in counts.tolist()]).p_value
    m, e = mantissa_exponent([v for v in scalar_rule_probes() if v != 0.0])
    kl = conformity(_KL_PROBES).kl
    return [
        hashlib.sha256(np.array(p_value).tobytes()).hexdigest(),
        hashlib.sha256(m.tobytes() + e.astype(np.int64).tobytes()).hexdigest(),
        hashlib.sha256(np.array(kl).tobytes()).hexdigest(),
    ]


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
    absent digit's term being zero, with libm's logs, and the p-value is
    the closed-form tail evaluated in plain Python floats.
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
    s = min(stat, 8000.0)
    half = math.exp(-0.25 * s)
    p = min(half * (1.0 + s * (0.5 + s * (0.125 + s / 48.0))) * half, 1.0)
    freq = counts / total
    log_ratio = np.array([math.log(f) if f > 0.0 else 0.0 for f in freq.tolist()])
    log_ratio -= [math.log(q) for q in ref.tolist()]
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


def enumerate_windows(n, length, step):
    """Walk offsets one step at a time: full windows, then at most one
    trailing shorter window that holds at least half a window."""
    out = []
    offset = 0
    while offset + length <= n:
        out.append((offset, offset + length))
        offset += step
    if offset < n and n - offset >= length / 2:
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
