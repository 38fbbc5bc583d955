"""Reading CLI output back by header or JSON keys and comparing it with
the oracle's reference.

Columns the check does not know are ignored, so added columns do not
break it.  A row counts as a failed cell when it has no `chi2` value.
"""

from __future__ import annotations

import csv
import io
import json
import math

from oracle import ALPHA, Expected

FLOAT_FIELDS = ("chi2", "p_value", "chebyshev", "kl")
_MISSING = (None, "", "-")


def _text_rows(text: str) -> list[dict]:
    """Rows of an aligned text table, columns cut at the header's offsets."""
    lines = text.split("\n\n", 1)[0].splitlines()  # drop the trends block
    header = lines[0]
    starts = [
        i for i, ch in enumerate(header)
        if ch != " " and (i == 0 or header[i - 1] == " ")
    ]
    names = header.split()
    bounds = list(zip(starts, starts[1:] + [None]))
    return [
        {name: line[lo:hi].strip() for name, (lo, hi) in zip(names, bounds)}
        for line in lines[1:]
    ]


def read_rows(text: str, fmt: str) -> list[dict]:
    """Output rows as dicts of column name to value (strings unless JSON)."""
    if fmt == "json":
        return json.loads(text)["rows"]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    return _text_rows(text)


def _key(row: dict) -> tuple:
    where = row.get("period")
    if where is None:
        where = int(row["window"])
    return (row["entity"], row["tenor"], where)


def _close(got, want: float, fmt: str) -> bool:
    got = float(got)
    if fmt == "text":  # four decimals
        return abs(got - want) <= 5.0001e-5
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


def _row_problem(row: dict, want: dict, fmt: str) -> str | None:
    for name, value in want.items():
        got = row.get(name)
        if got in _MISSING:
            return f"missing {name}"
        if name in FLOAT_FIELDS:
            if not _close(got, value, fmt):
                return f"{name} {got!r} != {value!r}"
        elif name == "n":
            if int(got) != value:
                return f"n {got!r} != {value}"
        elif got != value and abs(want["p_value"] - ALPHA) > 1e-9:
            return f"{name} {got!r} != {value!r}"
    return None


def compare(text: str, fmt: str, ref: Expected) -> tuple[list[str], int]:
    """Problems found in one output (empty when it matches) and its
    failed-cell count."""
    try:
        rows = read_rows(text, fmt)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], 0
    problems = []
    seen = set()
    failed = 0
    for row in rows:
        try:
            key = _key(row)
        except (KeyError, ValueError) as exc:
            problems.append(f"row without a key: {exc!r}")
            continue
        if key in seen:
            problems.append(f"{key}: duplicate row")
        seen.add(key)
        if row.get("chi2") in _MISSING:
            failed += 1
            if key not in ref.failed:
                problems.append(f"{key}: failed cell not expected")
        elif key not in ref.rows:
            problems.append(f"{key}: unexpected row")
        else:
            try:
                problem = _row_problem(row, ref.rows[key], fmt)
            except (TypeError, ValueError) as exc:
                problem = f"bad value: {exc!r}"
            if problem:
                problems.append(f"{key}: {problem}")
    missing = (ref.rows.keys() | ref.failed) - seen
    if missing:
        problems.append(f"{len(missing)} rows missing, e.g. {min(missing)}")
    return problems, failed
