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
    mantissa_exponent,
    observed_frequencies,
)
from .stats import (
    DEGREES_OF_FREEDOM,
    SMALL_SAMPLE_MIN,
    ConformityStats,
    chebyshev_distance,
    chi_square_pvalue,
    chi_square_statistic,
    conformity,
    critical_value,
    kl_divergence,
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
    WindowResult,
    WindowSpec,
    analyze_period,
    named_periods,
    track,
    window_ranges,
)
from .synthetic import (
    SynthSpec,
    gen_benford,
    gen_constant,
    gen_uniform_digit,
    generate,
    inject_manipulation,
    synth_panel,
    weekday_dates,
)
from .reporting import (
    PeriodReport,
    PeriodRow,
    TrackReport,
    TrackRow,
    TrendFit,
    build_period_report,
    build_track_report,
    emit,
    fit_trend,
    roman,
)

__version__ = "0.1.0"

__all__ = [
    "DigitHistogram",
    "benford_pmf",
    "digit_histogram",
    "first_significant_digit",
    "mantissa_exponent",
    "observed_frequencies",
    "DEGREES_OF_FREEDOM",
    "SMALL_SAMPLE_MIN",
    "ConformityStats",
    "chebyshev_distance",
    "chi_square_pvalue",
    "chi_square_statistic",
    "conformity",
    "critical_value",
    "kl_divergence",
    "ChangeSeries",
    "PanelFormatError",
    "SpreadSeries",
    "daily_changes",
    "parse_panel",
    "serialize_panel",
    "PeriodSpec",
    "WindowResult",
    "WindowSpec",
    "analyze_period",
    "named_periods",
    "track",
    "window_ranges",
    "SynthSpec",
    "gen_benford",
    "gen_constant",
    "gen_uniform_digit",
    "generate",
    "inject_manipulation",
    "synth_panel",
    "weekday_dates",
    "PeriodReport",
    "PeriodRow",
    "TrackReport",
    "TrackRow",
    "TrendFit",
    "build_period_report",
    "build_track_report",
    "emit",
    "fit_trend",
    "roman",
    "__version__",
]
