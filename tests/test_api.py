"""The public surface: the exported names and the README library example."""

import importlib
import re
from pathlib import Path

import benfordtrack

EXPORTED = {
    "DigitHistogram", "benford_pmf", "digit_histogram", "first_significant_digit",
    "DEGREES_OF_FREEDOM", "SMALL_SAMPLE_MIN", "ConformityStats",
    "chi_square_pvalue", "conformity",
    "ChangeSeries", "PanelFormatError", "SpreadSeries", "daily_changes",
    "parse_panel", "serialize_panel",
    "PeriodSpec", "WindowSpec", "named_periods", "track", "window_ranges",
    "SynthSpec", "generate", "synth_panel",
    "Report", "TrendFit",
    "build_period_report", "build_track_report", "emit", "fit_trend",
    "__version__",
}

# helpers kept out of the top level, with the module that holds each
MODULE_ONLY = {
    "roman": "reporting",
    "mantissa_exponent": "digits",
    "inject_manipulation": "synthetic",
}

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exported_names_are_pinned():
    assert len(EXPORTED) == 30
    assert sorted(benfordtrack.__all__) == sorted(EXPORTED)
    for name in EXPORTED:
        assert getattr(benfordtrack, name) is not None


def test_helpers_are_imported_from_their_modules():
    for name, module in MODULE_ONLY.items():
        assert not hasattr(benfordtrack, name)
        assert callable(getattr(importlib.import_module(f"benfordtrack.{module}"), name))


def _library_section() -> str:
    return README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]


def test_readme_export_list_is_all():
    listing = _library_section().split("The top-level package exports:\n", 1)[1]
    names = re.findall(r"`([^`]+)`", listing.strip("\n").split("\n\n", 1)[0])
    assert sorted(names) == sorted(benfordtrack.__all__)


def test_readme_helper_list_is_module_only():
    text = " ".join(_library_section().split())
    sentence = re.search(r"Helpers are imported from their modules: (.*?)\.(\s|$)", text)[1]
    named, pending = {}, []
    for token in re.findall(r"`([^`]+)`", sentence):
        if token.startswith("benfordtrack."):
            named.update((name, token.removeprefix("benfordtrack.")) for name in pending)
            pending = []
        else:
            pending.append(token)
    assert not pending
    assert named == MODULE_ONLY


def test_readme_library_example_runs(capsys):
    section = _library_section()
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    chi_square, p_value, verdict = capsys.readouterr().out.split()
    assert float(chi_square) >= 0.0
    assert 0.0 <= float(p_value) <= 1.0
    assert verdict in ("accept", "reject")
