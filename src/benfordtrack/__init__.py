"""Benford first-digit conformity testing for numeric time-series panels.

The package tests whether the daily changes of panel time series (for
example credit spread quotes) follow the logarithmic first-digit law,
both over whole date ranges and through rolling windows, and reports
chi-square, Chebyshev and Kullback-Leibler measures of conformity.
"""

from .digits import (
    DigitHistogram,
    benford_pmf,
    digit_histogram,
    first_significant_digit,
)
from .stats import (
    DEGREES_OF_FREEDOM,
    SMALL_SAMPLE_MIN,
    ConformityStats,
    chi_square_pvalue,
    conformity,
)
from .panel import (
    ChangeSeries,
    PanelFormatError,
    SpreadSeries,
    daily_changes,
    parse_panel,
    serialize_panel,
)
from .windows import (
    PeriodSpec,
    WindowSpec,
    named_periods,
    track,
    window_ranges,
)
from .synthetic import (
    SynthSpec,
    generate,
    synth_panel,
)
from .reporting import (
    Report,
    TrendFit,
    build_period_report,
    build_track_report,
    emit,
    fit_trend,
)

__version__ = "0.1.0"

__all__ = [
    "DigitHistogram",
    "benford_pmf",
    "digit_histogram",
    "first_significant_digit",
    "DEGREES_OF_FREEDOM",
    "SMALL_SAMPLE_MIN",
    "ConformityStats",
    "chi_square_pvalue",
    "conformity",
    "ChangeSeries",
    "PanelFormatError",
    "SpreadSeries",
    "daily_changes",
    "parse_panel",
    "serialize_panel",
    "PeriodSpec",
    "WindowSpec",
    "named_periods",
    "track",
    "window_ranges",
    "SynthSpec",
    "generate",
    "synth_panel",
    "Report",
    "TrendFit",
    "build_period_report",
    "build_track_report",
    "emit",
    "fit_trend",
    "__version__",
]
