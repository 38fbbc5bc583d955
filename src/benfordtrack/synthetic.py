"""Seeded synthetic samples with controlled first-digit behavior.

All randomness flows through the PCG64 bit generator so a given seed
reproduces the same sample on every platform and run.  Three sample
kinds are provided: values whose digits follow the logarithmic law,
values with uniformly distributed first digits (a null-violating
control), and constant values.  `inject_manipulation` additionally
forces a chosen digit onto a random subset of an existing sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from typing import Iterable

import numpy as np

from .digits import _POW10, mantissa_exponent
from .panel import SpreadSeries

KINDS = ("benford", "uniform_digit", "constant")


def _generator(seed: int) -> np.random.Generator:
    # PCG64 is pinned (not the platform default at whatever version)
    # so documented Monte Carlo rates stay stable.
    return np.random.Generator(np.random.PCG64(seed))


def inject_manipulation(
    values: Iterable[float], fraction: float, target_digit: int, seed: int
) -> np.ndarray:
    """Force `target_digit` onto a seeded random subset of `values`.

    round(fraction * n) positions are drawn without replacement; each
    selected nonzero value keeps its sign, decade exponent and fractional
    mantissa (from mantissa_exponent) while its integer mantissa digit is
    replaced, so at most that many elements change and element order is
    preserved.  Raises ValueError for a non-finite value, or where a
    rewrite would overflow and so lose its exponent.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    if target_digit not in range(1, 10):
        raise ValueError("target digit must lie in 1..9")
    out = np.array(list(values), dtype=float)
    if not np.isfinite(out).all():
        raise ValueError("non-finite value")
    count = int(round(fraction * len(out)))
    if count == 0:
        return out
    picked = _generator(seed).choice(len(out), size=count, replace=False)
    picked = picked[out[picked] != 0.0]  # zeros have no mantissa to rewrite
    m, e = mantissa_exponent(out[picked])
    shifted = target_digit + (m - np.floor(m))
    with np.errstate(over="ignore"):
        rewritten = np.copysign(shifted * _POW10[e], out[picked])
    if np.isinf(rewritten).any():
        raise ValueError("manipulated value overflows the float range")
    for i in np.flatnonzero(np.isnan(rewritten)).tolist():  # NaN power: underflowed decade
        rewritten[i] = math.copysign(float(f"{float(shifted[i])}e{e[i]}"), out[picked[i]])
    out[picked] = rewritten
    return out


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic sample."""

    kind: str
    n: int
    seed: int
    manipulation: tuple[float, int] | None = None  # (fraction, target digit)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.n < 1:
            raise ValueError("n must be at least 1")


def generate(spec: SynthSpec) -> np.ndarray:
    """Sample values per `spec`; manipulation reuses the same seed.

    - benford: 10**(3u), u uniform on [0, 1), a log-uniform over
      [1, 1000).  A log-uniform spanning whole decades has first digits
      distributed exactly by the logarithmic law.
    - uniform_digit: (d + f) * 10**k with digit d uniform on {1..9},
      mantissa offset f uniform on [0, 1) and decade k uniform on
      {0, 1}, so the first digit equals the drawn d by construction.
    - constant: ones, the degenerate single-digit sample.
    """
    rng = _generator(spec.seed)
    if spec.kind == "benford":
        values = 10.0 ** (3.0 * rng.random(spec.n))
    elif spec.kind == "uniform_digit":
        d = rng.integers(1, 10, size=spec.n)
        f = rng.random(spec.n)
        k = rng.integers(0, 2, size=spec.n)
        values = (d + f) * 10.0 ** k
    else:
        values = np.ones(spec.n)
    if spec.manipulation is not None:
        fraction, digit = spec.manipulation
        values = inject_manipulation(values, fraction, digit, spec.seed)
    return values


def synth_panel(
    spec: SynthSpec,
    entity: str = "SYNTH",
    tenor: str = "5Y",
    start: date = date(2008, 8, 8),
) -> SpreadSeries:
    """A spread series whose daily changes are the generated sample.

    Spreads are the running sum of the sample on top of 100.0 over
    n + 1 consecutive weekdays; the generated values are positive, so
    the spread path stays positive.
    """
    values = generate(spec)
    spreads = 100.0 + np.concatenate([[0.0], np.cumsum(values)])
    # Monday to Friday is numpy's default business-day mask
    dates = np.busday_offset(np.datetime64(start, "D"), np.arange(spec.n + 1), roll="forward")
    return SpreadSeries.from_columns(entity, tenor, dates, spreads)
