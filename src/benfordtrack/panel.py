"""Panel CSV ingestion, daily change derivation and date slicing.

The accepted input is a UTF-8 CSV with the exact header
``date,entity,tenor,spread_bps``: dates written exactly as
``YYYY-MM-DD``, comma-free entity and tenor labels, and strictly
positive finite spreads with a ``.`` decimal separator.  Blank lines
are skipped and lines starting with ``#`` are comments.  Parsing is
strict; every rejection names the offending 1-based line.
"""

from __future__ import annotations

import math
import mmap
import os
import re
from dataclasses import dataclass
from datetime import date
from typing import Iterable

import numpy as np

PANEL_HEADER = "date,entity,tenor,spread_bps"

CHANGE_MODES = ("absolute", "relative")

_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()  # datetime64's day 0
_FIRST_DAY = np.datetime64(date.min, "D")
_LAST_DAY = np.datetime64(date.max, "D")
_DAY_SPAN = date.max.toordinal() - date.min.toordinal() + 1

_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


class PanelFormatError(ValueError):
    """Malformed panel input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def iso_date(text: str) -> date:
    """The date written as exactly ``YYYY-MM-DD`` (ASCII digits).

    `date.fromisoformat` alone accepts other forms such as ``20100105``
    and ``2010-W01-2`` on some Python versions but not on others; this
    rule is the same on every supported version.
    """
    if _ISO_DATE.fullmatch(text) is None:
        raise ValueError(f"invalid ISO date {text!r}")
    return date.fromisoformat(text)


@dataclass(frozen=True, eq=False, init=False)
class SpreadSeries:
    """Date-ordered spreads for one (entity, tenor) pair, stored as columns.

    `dates` (datetime64[D], strictly increasing, within years 1 to 9999)
    and `spreads` (float64, positive and finite) are read-only.  The
    entity and tenor labels are nonempty and hold no comma or line
    break, so every series can be written as panel CSV.  The
    constructor takes ``(date, spread)`` pairs and `from_columns` takes
    the two columns.  Series compare by identity, as their fields are
    arrays.
    """

    entity: str
    tenor: str
    dates: np.ndarray
    spreads: np.ndarray

    def __init__(
        self,
        entity: str,
        tenor: str,
        observations: Iterable[tuple[date, float]],
    ) -> None:
        pairs = tuple(observations)
        days = np.fromiter((when.toordinal() for when, _ in pairs), np.int64, len(pairs))
        spreads = np.fromiter((spread for _, spread in pairs), np.float64, len(pairs))
        self._store(entity, tenor, (days - _EPOCH_ORDINAL).astype("datetime64[D]"), spreads)

    @classmethod
    def from_columns(cls, entity: str, tenor: str, dates, spreads) -> "SpreadSeries":
        """A series holding copies of the `dates` and `spreads` columns."""
        series = cls.__new__(cls)
        series._store(
            entity,
            tenor,
            np.array(dates, dtype="datetime64[D]"),
            np.array(spreads, dtype=np.float64),
        )
        return series

    def _store(self, entity: str, tenor: str, dates: np.ndarray, spreads: np.ndarray) -> None:
        for name, label in (("entity", entity), ("tenor", tenor)):
            if not label or any(mark in label for mark in _NOT_IN_LABELS):
                raise ValueError(f"{name} {label!r} is empty or holds a comma or line break")
        if dates.ndim != 1 or dates.shape != spreads.shape:
            raise ValueError("dates and spreads must be 1-D columns of equal length")
        if not (np.diff(dates) > np.timedelta64(0, "D")).all():
            raise ValueError("observation dates must be strictly increasing")
        if len(dates) and not (_FIRST_DAY <= dates[0] and dates[-1] <= _LAST_DAY):
            raise ValueError("observation dates must lie within years 1 to 9999")
        if not ((spreads > 0.0) & (spreads < np.inf)).all():
            raise ValueError("spreads must be positive and finite")
        for column in (dates, spreads):
            column.flags.writeable = False
        for name, value in zip(("entity", "tenor", "dates", "spreads"),
                               (entity, tenor, dates, spreads)):
            object.__setattr__(self, name, value)

    @property
    def observations(self) -> tuple[tuple[date, float], ...]:
        """``(date, spread)`` pairs, rebuilt from the columns on each call.

        This makes two Python objects per observation; it serves callers
        of the pair-based API, while the package reads the columns.
        """
        return tuple(zip(self.dates.tolist(), self.spreads.tolist()))


@dataclass(frozen=True, eq=False)
class ChangeSeries:
    """Date-ordered changes for one (entity, tenor) pair, stored as columns.

    `dates` (datetime64[D], strictly increasing) dates each change by its
    later observation and `changes` (float64) holds the change values.
    `dropped` counts the consecutive-observation pairs discarded at
    derivation time because their calendar gap exceeded the cap.
    """

    entity: str
    tenor: str
    dates: np.ndarray
    changes: np.ndarray
    dropped: int = 0

    def slice(self, start: date, end: date) -> "ChangeSeries":
        """Changes dated within [start, end] inclusive, order preserved.

        The slice keeps the whole series' `dropped` count: it does not
        count only the gap-dropped pairs that fall within [start, end].
        """
        if start > end:
            raise ValueError("slice start must not be after its end")
        lo = np.searchsorted(self.dates, np.datetime64(start, "D"), side="left")
        hi = np.searchsorted(self.dates, np.datetime64(end, "D"), side="right")
        return ChangeSeries(
            self.entity, self.tenor, self.dates[lo:hi], self.changes[lo:hi], self.dropped
        )


def _parse_row(line_no: int, line: str) -> tuple[date, str, str, float]:
    fields = line.split(",")
    if len(fields) != 4:
        raise PanelFormatError(line_no, f"expected 4 fields, got {len(fields)}")
    raw_date, entity, tenor, raw_spread = fields
    try:
        when = iso_date(raw_date)
    except ValueError:
        raise PanelFormatError(line_no, f"invalid ISO date {raw_date!r}") from None
    if not entity:
        raise PanelFormatError(line_no, "empty entity")
    if not tenor:
        raise PanelFormatError(line_no, "empty tenor")
    if "_" in raw_spread:
        raise PanelFormatError(line_no, f"invalid spread {raw_spread!r}")
    try:
        spread = float(raw_spread)
    except ValueError:
        raise PanelFormatError(line_no, f"invalid spread {raw_spread!r}") from None
    if not math.isfinite(spread):
        raise PanelFormatError(line_no, f"non-finite spread {raw_spread!r}")
    if spread <= 0.0:
        raise PanelFormatError(line_no, f"nonpositive spread {raw_spread!r}")
    return when, entity, tenor, spread


def parse_panel(text: str) -> list[SpreadSeries]:
    """Parse panel CSV text into one SpreadSeries per (entity, tenor).

    Rows may arrive in any order; each series comes back date-sorted
    and the list is sorted by (entity, tenor).  A duplicate
    (entity, tenor, date) triple is a hard error, as are nonpositive or
    non-finite spreads.  Well-formed text is read as columns; any other
    text goes to the line-by-line reference parser, which reports the
    first offending line.  Text longer than one chunk is read with the
    same results and errors by this process and a forked child, which
    claim chunks from either end, where `os.fork` exists and two CPUs
    are allowed (see `_parse_all`).  The CLI forks from one thread, as
    its entry point defaults `OPENBLAS_NUM_THREADS` to 1 (an explicit
    value wins); a caller that loads numpy itself may fork beside a BLAS
    worker thread, which Python 3.12 and later may warn about
    (DeprecationWarning, hidden by default).
    """
    series = _parse_columns(text)
    return _parse_lines(text) if series is None else series


def _parse_lines(text: str) -> list[SpreadSeries]:
    """The reference parser: one line at a time, each error with its line."""
    lines = text.splitlines()
    if not lines:
        raise PanelFormatError(1, "missing header")
    if lines[0] != PANEL_HEADER:
        bom = "header starts with a UTF-8 byte-order mark; "
        prefix = bom if lines[0].startswith("\ufeff") else ""
        raise PanelFormatError(1, f"{prefix}header must be exactly {PANEL_HEADER!r}")
    groups: dict[tuple[str, str], dict[date, float]] = {}
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        when, entity, tenor, spread = _parse_row(line_no, line)
        cell = groups.setdefault((entity, tenor), {})
        if when in cell:
            raise PanelFormatError(
                line_no, f"duplicate observation for ({entity}, {tenor}, {when})"
            )
        cell[when] = spread
    series = []
    for (entity, tenor), cell in sorted(groups.items()):
        series.append(SpreadSeries(entity, tenor, sorted(cell.items())))
    return series


# Line breaks of str.splitlines other than "\n"; the columnar parser turns
# CRLF and lone CR into "\n" and sends text holding any other to the line parser.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_NOT_IN_LABELS = ",\n" + _OTHER_BREAKS

# every byte but "," and "\n"; deleting them leaves a chunk's field layout
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")

_CHUNK = 1 << 17  # characters per columnar step; its per-field strings take about 9x that
_TOKENS = 512  # claim tokens at most, as a pipe holds PIPE_BUF (512 or more) bytes


class _Ids(dict):
    """(entity, tenor) -> series id, numbering each new pair at its first lookup."""

    def __missing__(self, key: tuple[str, str]) -> int:
        self[key] = len(self)
        return len(self) - 1


class _Days(dict):
    """Date text -> days since 1970-01-01, parsed at its first lookup."""

    def __missing__(self, text: str) -> int:
        self[text] = day = iso_date(text).toordinal() - _EPOCH_ORDINAL
        return day


def _parse_columns(text: str) -> list[SpreadSeries] | None:
    """`_parse_lines` for well-formed text, built as columns, or None.

    Works on chunks of whole lines: one `split` per chunk, dates parsed
    once per distinct string, spreads by `float` and each row numbered
    by its (entity, tenor) series in first-seen order, then one sort
    orders the rows.  CRLF and lone CR read as "\\n", and trailing blank
    lines hold no row.  Returns None, leaving the text to the line parser,
    whenever it holds anything that parser treats specially or rejects:
    another line break, an interior blank line, a comment or padded
    line, a line without exactly four fields, an invalid date or spread,
    or a series that `SpreadSeries` rejects: an empty label, a spread not
    positive and finite, or a duplicate row (next to its twin once sorted).
    """
    if "\r" in text:  # line breaks as str.splitlines reads them
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.startswith(PANEL_HEADER + "\n") or any(mark in text for mark in _OTHER_BREAKS):
        return None
    series_ids = _Ids()
    start, stop = len(PANEL_HEADER) + 1, len(text)
    while text.endswith("\n", 0, stop):
        stop -= 1  # trailing blank lines hold no row
    spans, rows = [], 0  # (start, end, first row, end row) of each chunk of whole lines
    while start < stop:
        end = stop if stop - start <= _CHUNK else text.rfind("\n", start, start + _CHUNK)
        if end < 0:
            return None  # a line longer than a chunk
        spans.append((start, end, rows, rows + text.count("\n", start, end) + 1))
        rows, start = spans[-1][3], end + 1
    if not spans:
        return []  # the header alone
    # one anonymous shared mapping per column, so a forked child fills its rows in place
    order_key, days, spreads = (
        np.frombuffer(mmap.mmap(-1, 8 * rows), dtype, rows)
        for dtype in (np.int64, np.int64, np.float64)
    )
    if not _parse_all(text, spans, [order_key, days, spreads], series_ids):
        return None
    # the id column becomes the (series id, date) key in place, one
    # integer that fits int64 for up to 2.5e12 series
    order_key *= _DAY_SPAN
    order_key += days
    del days  # free each column after its last read, to keep the peak low
    order_key -= _FIRST_DAY.astype(np.int64)
    order = np.argsort(order_key)  # unique keys, if accepted: any sort gives this order
    keys = order_key[order]
    del order_key
    spreads = spreads[order]
    del order
    days = keys % _DAY_SPAN + _FIRST_DAY.astype(np.int64)
    keys //= _DAY_SPAN  # the series id of each sorted row
    days.flags.writeable = spreads.flags.writeable = False  # series hold views
    dates = days.view("datetime64[D]")
    bounds = [0, *(np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist(), len(keys)]
    names = list(series_ids)  # in id order
    series = [SpreadSeries.__new__(SpreadSeries) for _ in bounds[1:]]
    try:
        for s, lo, hi in zip(series, bounds, bounds[1:]):
            s._store(*names[keys[lo]], dates[lo:hi], spreads[lo:hi])
    except ValueError:
        return None
    return sorted(series, key=lambda s: (s.entity, s.tenor))  # the order of `_parse_lines`


def _two_cpus() -> bool:
    """Whether a forked child can parse on a CPU of its own."""
    affinity = getattr(os, "sched_getaffinity", None)
    return hasattr(os, "fork") and affinity is not None and len(affinity(0)) > 1


def _parse_spans(text: str, spans: list, chunks: Iterable[int], columns: list[np.ndarray],
                 series_ids: _Ids) -> int | None:
    """Parse the chunks numbered by `chunks` into their rows of `columns`: returns
    how many it parsed, or None at the first chunk that is not well-formed."""
    day_of, parsed = _Days(), 0
    for parsed, k in enumerate(chunks, 1):
        start, end, lo, hi = spans[k]
        out = [column[lo:hi] for column in columns]
        if not _parse_chunk(text[start:end], out, series_ids, day_of):
            return None
    return parsed


def _parse_all(text: str, spans: list, columns: list[np.ndarray], series_ids: _Ids) -> bool:
    """`_parse_spans` over every chunk, with a forked child where two CPUs are allowed.

    Each process claims a run of chunks by reading one of the tokens put
    in a pipe before the fork, this one from the front and the child from
    the back, so the child fills the tail of the shared `columns` after
    this one's chunks.  One that meets a chunk that is not well-formed
    drains the tokens, so the other stops at its next claim.  The child
    sends only one ``entity,tenor`` line per series (labels hold no comma
    or line break) and leaves by `os._exit`; this process renumbers the
    tail's series with its own ids and always reaps the child.  Returns
    False for a bad chunk or a child exit status other than 0.
    """
    every = range(len(spans))
    if len(spans) < 2 or not _two_cpus():
        return _parse_spans(text, spans, every, columns, series_ids) is not None
    runs, fds = np.array_split(every, min(len(spans), _TOKENS)), []  # one run per token
    try:
        fds += os.pipe()
        os.write(fds[1], bytes(len(runs)))  # fewer bytes than a pipe holds: never blocks
        os.close(fds.pop())
        fds += os.pipe()
        pid = os.fork()
    except OSError:  # no descriptor or process to spare: parse here alone
        for fd in fds:
            os.close(fd)
        return _parse_spans(text, spans, every, columns, series_ids) is not None
    claims, read_end, write_end = fds
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                back = (k for run in runs[::-1] if os.read(claims, 1) for k in run)
                taken = _parse_spans(text, spans, back, columns, series_ids)
                while taken is None and os.read(claims, _TOKENS):
                    pass  # stops the parent at its next claim
                if taken is not None:
                    labels = "\n".join(map(",".join, series_ids))
                    pipe.write(labels.encode("utf-8", "surrogatepass"))
            code = 0 if taken is not None else 1  # only once the pipe has flushed the labels
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            front = (k for run in runs if os.read(claims, 1) for k in run)
            parsed = _parse_spans(text, spans, front, columns, series_ids)
            labels = pipe.read() if parsed is not None else b""
    finally:
        while os.read(claims, _TOKENS):
            pass  # a parse that stopped early stops the child at its next claim
        os.close(claims)
        status = os.waitpid(pid, 0)[1]  # the pipe is closed: a child still sending stops
    if parsed is None or status != 0:
        return False
    if parsed < len(spans):  # the child's rows follow this process's chunks
        tail = columns[0][spans[parsed][2] :]
        lines = labels.decode("utf-8", "surrogatepass").splitlines()
        remap = np.array([series_ids[tuple(line.split(","))] for line in lines], np.int64)
        np.take(remap, tail, out=tail, mode="clip")  # in place; "raise" would copy
    return True


def _parse_chunk(chunk: str, out: list[np.ndarray], series_ids: _Ids, day_of: _Days) -> bool:
    """Fill `out` with the series ids, days and spreads of whole lines.

    Returns False, leaving `out` partly filled, when a line is not
    well-formed.  Its per-field strings die on return, so one chunk's
    are alive at a time.
    """
    rows = len(out[0])
    layout = chunk.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATORS)
    if layout != b",,,\n" * (rows - 1) + b",,,":
        return False  # some line has other than four fields
    fields = chunk.replace("\n", ",").split(",")
    dates, entities, tenors, spreads = (fields[i::4] for i in range(4))
    if "_" in "".join(spreads):
        return False
    series_out, days_out, spreads_out = out
    try:
        days_out[:] = np.fromiter(map(day_of.__getitem__, dates), np.int64, rows)
        spreads_out[:] = np.fromiter(map(float, spreads), np.float64, rows)
    except ValueError:
        return False  # an invalid date or spread
    # zip reuses its tuple for a key already numbered, so no per-row object is built
    series_out[:] = np.fromiter(map(series_ids.__getitem__, zip(entities, tenors)), np.int64, rows)
    return True


def serialize_panel(series: Iterable[SpreadSeries]) -> str:
    """Render series back to panel CSV, inverse of parse_panel: rows by
    (entity, tenor), then by date, spreads by repr (so parsing returns the
    same floats), and each distinct date rendered once."""
    ordered = sorted(series, key=lambda s: (s.entity, s.tenor))
    days = np.concatenate([np.empty(0, "datetime64[D]"), *(s.dates for s in ordered)])
    days, where = np.unique(days.view(np.int64), return_inverse=True)  # int64 sorts faster
    day_texts = np.datetime_as_string(days.view("datetime64[D]")).tolist()
    texts = np.array(day_texts, object)[where].tolist()  # one shared str per distinct date
    lines, stop = [PANEL_HEADER], 0
    for s in ordered:
        start, stop = stop, stop + len(s.dates)
        spreads = map(repr, s.spreads.tolist())
        lines += map(f",{s.entity},{s.tenor},".join, zip(texts[start:stop], spreads))
    return "\n".join(lines) + "\n"


def daily_changes(
    series: SpreadSeries,
    max_gap_days: int | None = None,
    mode: str = "absolute",
) -> ChangeSeries:
    """Differences between consecutive available observations.

    Weekends and holidays are not bridged or interpolated: each change
    pairs an observation with the previous available one.  Pairs whose
    calendar gap exceeds `max_gap_days` days are dropped and counted,
    never merged.  `mode` selects plain differences ("absolute") or
    fractional ones ("relative").
    """
    if mode not in CHANGE_MODES:
        raise ValueError(f"change mode must be one of {CHANGE_MODES}")
    if max_gap_days is not None and max_gap_days < 1:
        raise ValueError("max_gap_days must be at least 1")
    spreads = series.spreads
    if len(spreads) < 2:
        raise ValueError("series too short")
    deltas = np.diff(spreads)
    if mode == "relative":
        with np.errstate(over="ignore"):  # an overflow is a non-finite change
            deltas /= spreads[:-1]
    dates = series.dates[1:]  # a read-only view
    dropped = 0
    if max_gap_days is not None:
        kept = np.diff(series.dates).astype(np.int64) <= max_gap_days
        dropped = len(kept) - int(np.count_nonzero(kept))
        dates, deltas = dates[kept], deltas[kept]
    for column in (dates, deltas):
        column.flags.writeable = False  # slices are views into these
    return ChangeSeries(series.entity, series.tenor, dates, deltas, dropped)
