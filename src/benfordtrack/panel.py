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
import os
import re
from dataclasses import dataclass
from datetime import date
from typing import IO, Iterable

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


def parse_panel(source: str | IO[str]) -> list[SpreadSeries]:
    """Parse panel CSV text into one SpreadSeries per (entity, tenor).

    Rows may arrive in any order; each series comes back date-sorted
    and the list is sorted by (entity, tenor).  A duplicate
    (entity, tenor, date) triple is a hard error, as are nonpositive or
    non-finite spreads.  Well-formed text is read as columns; any other
    text goes to the line-by-line reference parser, which reports the
    first offending line.  Text longer than one chunk is read by two
    processes where `os.fork` exists and two CPUs are allowed, with the
    same results and errors: a forked child parses the second half,
    sends it back through a pipe and leaves by `os._exit`.  The CLI
    forks from one thread, as its entry point defaults
    `OPENBLAS_NUM_THREADS` to 1 (an explicit value wins); a caller that
    loads numpy itself may fork beside a BLAS worker thread, which
    Python 3.12 and later may warn about (DeprecationWarning, hidden by
    default).
    """
    text = source if isinstance(source, str) else source.read()
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
# CRLF into "\n" and sends text holding any other break to the line parser.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_NOT_IN_LABELS = ",\n" + _OTHER_BREAKS

# every byte but "," and "\n"; deleting them leaves a chunk's field layout
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")

_CHUNK = 1 << 17  # characters per columnar step; its per-field strings take about 9x that


class _Ids(dict):
    """Label -> id, numbering each new label at its first lookup."""

    def __missing__(self, label: str) -> int:
        self[label] = len(self)
        return len(self) - 1


class _Days(dict):
    """Date text -> days since 1970-01-01, parsed at its first lookup."""

    def __missing__(self, text: str) -> int:
        self[text] = day = iso_date(text).toordinal() - _EPOCH_ORDINAL
        return day


def _parse_columns(text: str) -> list[SpreadSeries] | None:
    """`_parse_lines` for well-formed text, built as columns, or None.

    Works on chunks of whole lines: one `split` per chunk, dates parsed
    once per distinct string, spreads by `float` and labels numbered,
    then one stable sort orders the rows.  Returns None, leaving the
    text to the line parser, whenever it holds anything that parser
    treats specially or rejects: another line break than "\\n" or
    "\\r\\n", a blank, comment or padded line, a line without exactly
    four fields, an invalid date or spread, an empty label or a
    duplicate row.
    """
    if "\r" in text and text.count("\r") == text.count("\r\n"):
        text = text.replace("\r\n", "\n")  # every "\r" ends a CRLF line
    if not text.startswith(PANEL_HEADER + "\n") or any(mark in text for mark in _OTHER_BREAKS):
        return None
    entity_ids, tenor_ids = _Ids(), _Ids()
    start, stop = len(PANEL_HEADER) + 1, len(text) - text.endswith("\n")
    spans = []  # (start, end, rows) of each chunk of whole lines
    while start < stop:
        end = stop if stop - start <= _CHUNK else text.rfind("\n", start, start + _CHUNK)
        if end < 0:
            return None  # a line longer than a chunk
        spans.append((start, end, text.count("\n", start, end) + 1))
        start = end + 1
    rows = sum(n for _, _, n in spans)
    entity_col, tenor_col, days = (np.empty(rows, np.int64) for _ in range(3))
    spreads = np.empty(rows, np.float64)
    parse = _parse_halves if len(spans) > 1 and _two_cpus() else _parse_spans
    if not parse(text, spans, [entity_col, tenor_col, days, spreads], entity_ids, tenor_ids):
        return None
    if "" in entity_ids or "" in tenor_ids or not ((spreads > 0.0) & (spreads < np.inf)).all():
        return None
    entity_names, entity_rank = _sorted_ids(entity_ids)
    tenor_names, tenor_rank = _sorted_ids(tenor_ids)
    # (series, date) as one integer, series numbered in (entity, tenor) order;
    # it fits int64 for up to 2.5e12 label pairs
    order_key = entity_rank[entity_col]
    del entity_col  # free each column after its last read, to keep the peak low
    order_key *= len(tenor_names)
    order_key += tenor_rank[tenor_col]
    del tenor_col
    order_key *= _DAY_SPAN
    order_key += days
    order_key -= _FIRST_DAY.astype(np.int64)
    order = np.argsort(order_key, kind="stable")
    keys = order_key[order]
    del order_key
    if (keys[1:] == keys[:-1]).any():
        return None  # a duplicate (entity, tenor, date)
    keys //= _DAY_SPAN  # the series number of each sorted row
    dates = days.view("datetime64[D]")[order]
    del days
    spreads = spreads[order]
    del order
    dates.flags.writeable = spreads.flags.writeable = False  # series hold views
    bounds = [*np.flatnonzero(np.diff(keys, prepend=-1)).tolist(), len(keys)]
    series = [SpreadSeries.__new__(SpreadSeries) for _ in bounds[1:]]
    for s, lo, hi in zip(series, bounds, bounds[1:]):
        entity, tenor = divmod(int(keys[lo]), len(tenor_names))
        s._store(entity_names[entity], tenor_names[tenor], dates[lo:hi], spreads[lo:hi])
    return series


def _two_cpus() -> bool:
    """Whether a forked child can parse on a CPU of its own."""
    affinity = getattr(os, "sched_getaffinity", None)
    return hasattr(os, "fork") and affinity is not None and len(affinity(0)) > 1


def _parse_spans(
    text: str, spans: list, columns: list[np.ndarray], entity_ids: _Ids, tenor_ids: _Ids,
    row: int = 0,
) -> bool:
    """Parse the chunks `spans` of `text` into `columns` from `row` on.

    Returns False at the first chunk that is not well-formed.
    """
    day_of = _Days()
    for start, end, n in spans:
        out = [column[row : row + n] for column in columns]
        if not _parse_chunk(text[start:end], out, entity_ids, tenor_ids, day_of):
            return False
        row += n
    return True


def _parse_halves(
    text: str, spans: list, columns: list[np.ndarray], entity_ids: _Ids, tenor_ids: _Ids
) -> bool:
    """`_parse_spans` on two CPUs: a forked child parses the second half.

    The child only parses and sends its rows and labels through a pipe;
    it writes nothing else and leaves by `os._exit`.  This process
    parses the first half meanwhile, reads the child's rows into the
    tail of `columns`, renumbers their labels with its own ids and
    always reaps the child.  Returns False when either half is not
    well-formed or the child fails in any way.
    """
    half = len(spans) // 2
    row = sum(n for _, _, n in spans[:half])
    fds = ()
    try:
        fds = read_end, write_end = os.pipe()
        pid = os.fork()
    except OSError:  # no descriptor or process to spare: parse here alone
        for fd in fds:
            os.close(fd)
        return _parse_spans(text, spans, columns, entity_ids, tenor_ids)
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                if _parse_spans(text, spans[half:], columns, entity_ids, tenor_ids, row):
                    _send(pipe, columns, row, entity_ids, tenor_ids)
                    code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            done = _parse_spans(text, spans[:half], columns, entity_ids, tenor_ids)
            done = done and _receive(pipe, columns, row, entity_ids, tenor_ids)
    finally:
        status = os.waitpid(pid, 0)[1]  # the pipe is closed: a child still sending stops
    return done and status == 0


def _send(pipe, columns: list[np.ndarray], row: int, entity_ids: _Ids, tenor_ids: _Ids) -> None:
    """Write the label counts and lists, then each column from `row` on."""
    labels = "\n".join([*entity_ids, *tenor_ids]).encode("utf-8", "surrogatepass")
    pipe.write(np.array([len(entity_ids), len(labels)], np.int64).tobytes())
    pipe.write(labels)
    for column in columns:
        pipe.write(column[row:])


def _receive(pipe, columns: list[np.ndarray], row: int, entity_ids: _Ids, tenor_ids: _Ids) -> bool:
    """Read what `_send` wrote into `columns` from `row` on; False if it is short.

    The child's label ids are mapped to this process's ids in place.
    """
    header = pipe.read(16)
    if len(header) != 16:
        return False
    entities, size = np.frombuffer(header, np.int64).tolist()
    labels = pipe.read(size)
    if len(labels) != size:
        return False
    for column in columns:
        if pipe.readinto(column[row:]) != column[row:].nbytes:
            return False
    names = labels.decode("utf-8", "surrogatepass").split("\n")
    for ids, child_names, column in ((entity_ids, names[:entities], columns[0]),
                                     (tenor_ids, names[entities:], columns[1])):
        remap = np.array([ids[name] for name in child_names], np.int64)
        tail = column[row:]
        np.take(remap, tail, out=tail, mode="clip")  # in place; "raise" would copy `tail`
    return True


def _parse_chunk(
    chunk: str, out: list[np.ndarray], entity_ids: _Ids, tenor_ids: _Ids, day_of: _Days
) -> bool:
    """Fill `out` with the entity ids, tenor ids, days and spreads of whole lines.

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
    entity_out, tenor_out, days_out, spreads_out = out
    try:
        days_out[:] = np.fromiter(map(day_of.__getitem__, dates), np.int64, rows)
        spreads_out[:] = np.fromiter(map(float, spreads), np.float64, rows)
    except ValueError:
        return False  # an invalid date or spread
    entity_out[:] = np.fromiter(map(entity_ids.__getitem__, entities), np.int64, rows)
    tenor_out[:] = np.fromiter(map(tenor_ids.__getitem__, tenors), np.int64, rows)
    return True


def _sorted_ids(ids: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """The labels in sorted order, and each id's position in that order."""
    names = sorted(ids)
    rank = np.empty(len(names), np.int64)
    rank[[ids[name] for name in names]] = np.arange(len(names))
    return names, rank


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
