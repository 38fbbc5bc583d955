"""Benford first-digit conformity testing for numeric time-series panels.

The package tests whether the daily changes of panel time series (for
example credit spread quotes) follow the logarithmic first-digit law,
both over whole date ranges and through rolling windows, and reports
chi-square, Chebyshev and Kullback-Leibler measures of conformity.

The exported names are loaded on first use, so `import benfordtrack`
alone does not import numpy.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the module that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("digits", "DigitHistogram benford_pmf digit_histogram"),
        ("stats", "SMALL_SAMPLE_MIN ConformityStats conformity"),
        ("panel", "ChangeSeries PanelFormatError SpreadSeries daily_changes "
                  "parse_panel serialize_panel"),
        ("windows", "PeriodSpec WindowSpec named_periods track window_ranges"),
        ("synthetic", "SynthSpec generate synth_panel"),
        ("reporting", "Report TrendFit build_period_report build_track_report "
                      "emit fit_trend"),
    )
    for name in names.split()
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
