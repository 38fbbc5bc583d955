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

from .digits import mantissa_exponent
from .panel import SpreadSeries

_KINDS = ("benford", "uniform_digit", "constant")


def _generator(seed: int) -> np.random.Generator:
    # PCG64 is pinned (not the platform default at whatever version)
    # so documented Monte Carlo rates stay stable.
    return np.random.Generator(np.random.PCG64(seed))


def gen_benford(n: int, seed: int) -> np.ndarray:
    """n values 10**(3u), u uniform on [0, 1): log-uniform over [1, 1000).

    A log-uniform spanning whole decades has first digits distributed
    exactly by the logarithmic law.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    u = _generator(seed).random(n)
    return 10.0 ** (3.0 * u)


def gen_uniform_digit(n: int, seed: int) -> np.ndarray:
    """n positive values whose first digits are uniform on {1, ..., 9}.

    Each value is (d + f) * 10**k with digit d uniform on {1..9},
    mantissa offset f uniform on [0, 1), and decade k uniform on
    {0, 1}, so the first digit equals the drawn d by construction.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = _generator(seed)
    d = rng.integers(1, 10, size=n)
    f = rng.random(n)
    k = rng.integers(0, 2, size=n)
    return (d + f) * 10.0 ** k


def gen_constant(n: int, value: float = 1.0) -> np.ndarray:
    """n copies of `value`; the degenerate single-digit sample."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not math.isfinite(value) or value == 0.0:
        raise ValueError("value must be finite and nonzero")
    return np.full(n, float(value))


def inject_manipulation(
    values: Iterable[float], fraction: float, target_digit: int, seed: int
) -> np.ndarray:
    """Force `target_digit` onto a seeded random subset of `values`.

    round(fraction * n) positions are drawn without replacement; each
    selected value keeps its sign, decade exponent and fractional
    mantissa while its integer mantissa digit is replaced, so at most
    that many elements change and element order is preserved.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    if target_digit not in range(1, 10):
        raise ValueError("target digit must lie in 1..9")
    out = np.array(list(values), dtype=float)
    count = int(round(fraction * len(out)))
    if count == 0:
        return out
    picked = _generator(seed).choice(len(out), size=count, replace=False)
    for i in picked:
        x = float(out[i])
        if x == 0.0:
            continue  # no mantissa to rewrite
        m, e = mantissa_exponent(x)
        shifted = target_digit + (m - math.floor(m))
        scale = 10.0 ** e
        if scale == 0.0:  # subnormal decade; rebuild from the rendered pair
            out[i] = math.copysign(float(f"{shifted}e{e}"), x)
        else:
            out[i] = math.copysign(shifted * scale, x)
    return out


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic sample."""

    kind: str
    n: int
    seed: int
    manipulation: tuple[float, int] | None = None  # (fraction, target digit)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if self.n < 1:
            raise ValueError("n must be at least 1")


def generate(spec: SynthSpec) -> np.ndarray:
    """Sample values per `spec`; manipulation reuses the same seed."""
    if spec.kind == "benford":
        values = gen_benford(spec.n, spec.seed)
    elif spec.kind == "uniform_digit":
        values = gen_uniform_digit(spec.n, spec.seed)
    else:
        values = gen_constant(spec.n)
    if spec.manipulation is not None:
        fraction, digit = spec.manipulation
        values = inject_manipulation(values, fraction, digit, spec.seed)
    return values


def _weekday_column(start: date, n: int) -> np.ndarray:
    # Monday to Friday is numpy's default business-day mask
    return np.busday_offset(np.datetime64(start, "D"), np.arange(n), roll="forward")


def weekday_dates(start: date, n: int) -> list[date]:
    """The first n Monday-to-Friday dates on or after `start`."""
    return _weekday_column(start, n).tolist()


def synth_panel(
    spec: SynthSpec,
    entity: str = "SYNTH",
    tenor: str = "5Y",
    start: date = date(2008, 8, 8),
    base_spread: float = 100.0,
) -> SpreadSeries:
    """A spread series whose daily changes are the generated sample.

    Spreads are the running sum of the sample on top of `base_spread`
    over n + 1 consecutive weekdays; the generated values are positive,
    so the spread path stays positive.
    """
    if base_spread <= 0.0:
        raise ValueError("base spread must be positive")
    values = generate(spec)
    spreads = base_spread + np.concatenate([[0.0], np.cumsum(values)])
    dates = _weekday_column(start, spec.n + 1)
    return SpreadSeries.from_columns(entity, tenor, dates, spreads)
