"""The public surface: the exported names, the CLI flags and the README's account of both."""

import argparse
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import benfordtrack
import benfordtrack.cli
from helpers import cli_env

EXPORTED = {
    "DigitHistogram", "benford_pmf", "digit_histogram",
    "SMALL_SAMPLE_MIN", "ConformityStats", "conformity",
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
PYPROJECT = README.with_name("pyproject.toml")


def test_exported_names_are_pinned():
    assert len(EXPORTED) == 27
    assert sorted(benfordtrack.__all__) == sorted(EXPORTED)
    for name in EXPORTED:
        assert getattr(benfordtrack, name) is not None


def test_helpers_are_imported_from_their_modules():
    for name, module in MODULE_ONLY.items():
        assert not hasattr(benfordtrack, name)
        assert callable(getattr(importlib.import_module(f"benfordtrack.{module}"), name))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="^module 'benfordtrack' has no attribute 'nope'$"):
        benfordtrack.nope
    with pytest.raises(ImportError):
        from benfordtrack import nope  # noqa: F401


def _python(code: str, **env: str) -> str:
    """Run `python -c CODE` in a fresh process and return its stdout."""
    environ = {k: v for k, v in cli_env().items() if k != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, "-c", code], env={**environ, **env},
                          capture_output=True, text=True, check=True)
    return done.stdout


def test_import_loads_numpy_only_when_a_name_is_used():
    out = _python(
        "import sys, benfordtrack as b\n"
        "print('numpy' in sys.modules, set(b.__all__) <= set(dir(b)))\n"
        "print(all(getattr(b, n) is not None for n in b.__all__), 'numpy' in sys.modules)"
    )
    assert out.split() == ["False", "True", "True", "True"]


def _threads_after_importing_main(**env: str) -> int:
    code = "import os, benfordtrack.__main__; print(len(os.listdir('/proc/self/task')))"
    return int(_python(code, **env))


def _numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no `mode`
        return ""


needs_proc_tasks = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")


@needs_proc_tasks
def test_cli_entry_point_runs_one_thread():
    assert _threads_after_importing_main() == 1


@needs_proc_tasks
@pytest.mark.skipif("openblas" not in _numpy_blas().lower(), reason="numpy is not on OpenBLAS")
def test_explicit_openblas_thread_count_wins():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS starts no more threads than there are CPUs")
    assert _threads_after_importing_main(OPENBLAS_NUM_THREADS="2") == 2


def _pyproject_section(name: str) -> str:
    # a regex, not tomllib: Python 3.10 has no TOML reader
    text = PYPROJECT.read_text(encoding="utf-8")
    return re.search(rf"^\[{re.escape(name)}\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)[1]


def test_console_script_is_cli_main(monkeypatch):
    module, attr = re.search(r'^benfordtrack = "([\w.]+):(\w+)"$',
                             _pyproject_section("project.scripts"), re.M).groups()
    # importing the entry module may set OPENBLAS_NUM_THREADS; restore ours after
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    assert getattr(importlib.import_module(module), attr) is benfordtrack.cli.main


def test_version_is_the_project_version():
    version = re.search(r'^version = "([^"]+)"$', _pyproject_section("project"), re.M)[1]
    assert benfordtrack.__version__ == version


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


def _readme_flags() -> dict[str, set[str]]:
    """The flags the README's "Common flags" bullets name for each subcommand.

    A bullet that opens with a subcommand's name lists that command's own
    flags; the other bullets list the flags `analyze` and `track` share.
    """
    listing = README.read_text(encoding="utf-8").split("\nCommon flags:\n", 1)[1]
    bullets = listing.strip("\n").split("\n\n", 1)[0].removeprefix("- ").split("\n- ")
    flags = {"analyze": set(), "track": set(), "synth": set()}
    for bullet in bullets:
        own = re.match(r"`(\w+)`:", bullet)
        for command in [own[1]] if own else ["analyze", "track"]:
            flags[command] |= set(re.findall(r"--[a-z][a-z-]*", bullet))
    return flags


def test_readme_flag_lists_are_the_parsers_options():
    parser = benfordtrack.cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert _readme_flags() == options
