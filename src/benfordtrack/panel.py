"""Panel CSV ingestion, daily change derivation and date slicing.

The accepted input is a UTF-8 CSV with the exact header
``date,entity,tenor,spread_bps``: dates written exactly as
``YYYY-MM-DD``, comma-free entity and tenor labels, and strictly
positive finite spreads with a ``.`` decimal separator.  Lines end
with LF, CRLF or CR, as in the `csv` module; blank lines are skipped
and lines starting with ``#`` are comments.  Parsing is strict; every
rejection names the offending 1-based line.
"""

from __future__ import annotations

import math
import mmap
import os
import re
import stat
from contextlib import suppress
from dataclasses import dataclass
from datetime import date
from typing import BinaryIO, Callable, Iterable, NamedTuple

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
    entity and tenor labels are nonempty and hold no comma, LF or CR, so
    every series can be written as panel CSV.  The constructor takes
    ``(date, spread)`` pairs and `from_columns` takes the two columns.
    Series compare by identity, as their fields are arrays.
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
        _check_series(entity, tenor, dates, spreads)
        for column in (dates, spreads):
            column.flags.writeable = False
        vars(self).update(entity=entity, tenor=tenor, dates=dates, spreads=spreads)

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
        lo = self.dates.searchsorted(np.datetime64(start, "D"), side="left")
        hi = self.dates.searchsorted(np.datetime64(end, "D"), side="right")
        return ChangeSeries(
            self.entity, self.tenor, self.dates[lo:hi], self.changes[lo:hi], self.dropped
        )


def _check_series(entity: str, tenor: str, dates: np.ndarray, spreads: np.ndarray) -> None:
    """Raise ValueError unless the series keeps the `SpreadSeries` rules."""
    for name, label in (("entity", entity), ("tenor", tenor)):
        if not label or any(mark in label for mark in ",\n\r"):
            raise ValueError(f"{name} {label!r} is empty or holds a comma or line break")
    if dates.ndim != 1 or dates.shape != spreads.shape:
        raise ValueError("dates and spreads must be 1-D columns of equal length")
    if not (dates[1:] > dates[:-1]).all():  # np.diff would build a timedelta column
        raise ValueError("observation dates must be strictly increasing")
    if len(dates) and not (_FIRST_DAY <= dates.min() and dates.max() <= _LAST_DAY):
        raise ValueError("observation dates must lie within years 1 to 9999")
    if not ((spreads > 0.0) & (spreads < np.inf)).all():
        raise ValueError("spreads must be positive and finite")


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


def parse_panel(source: str | bytes | BinaryIO) -> list[SpreadSeries]:
    """Parse panel CSV into one SpreadSeries per (entity, tenor), sorted by both.

    `source` is text, its UTF-8 bytes or a binary file read from where it
    stands: a regular file by `os.pread` of a chunk at a time, never whole,
    and any other (a pipe, `io.BytesIO`) whole.  Rows may come in any
    order; each series is date-sorted.  A duplicate (entity, tenor, date)
    triple is a hard error, as are nonpositive or non-finite spreads, and
    bytes that are not UTF-8 raise as decoding them whole does.
    Well-formed input is read as columns, bytes decoded chunk by chunk; any
    other is read whole by the line-by-line reference parser, which reports
    the first offending line.  The columnar parse drops `source` before it
    builds the series, so text passed straight in is freed by then (CPython
    3.11 and later).  Input longer than one chunk is read half by this
    process and half by a forked child where `os.fork` exists and two CPUs
    are allowed (see `_parse_all`).  The CLI forks from one thread (README:
    `OPENBLAS_NUM_THREADS`); a caller that loads numpy itself may fork
    beside a BLAS worker thread, which Python 3.12 and later may warn about.
    """
    read, start, stop = _reader(source)
    packed = _parse_columns(read, start, stop)
    if packed is None:
        text = read(start, stop)
        return _parse_lines(text if isinstance(text, str) else text.decode("utf-8"))
    del source, read  # the last references to an input passed straight in
    return packed.series()


def _reader(source: str | bytes | BinaryIO) -> tuple[Callable[[int, int], str | bytes], int, int]:
    """`read(start, end)` of the input's text or bytes, and where the input starts and ends."""
    if not isinstance(source, (str, bytes)):
        with suppress(OSError):  # io.BytesIO has no descriptor, and a pipe no position
            st = os.fstat(fd := source.fileno())
            if stat.S_ISREG(st.st_mode) and hasattr(os, "pread"):
                base = source.tell()  # past the end, the input is empty
                return (lambda lo, hi: os.pread(fd, hi - lo, lo)), base, max(base, st.st_size)
        source = source.read()  # a file that cannot be read in place
    return (lambda lo, hi: source[lo:hi]), 0, len(source)


def _parse_lines(text: str) -> list[SpreadSeries]:
    """The reference parser: one line at a time, each error with its line."""
    if not text:
        raise PanelFormatError(1, "missing header")
    if "\r" in text:  # CRLF and lone CR end lines as LF does
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
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


# every byte but "," and "\n"; deleting them leaves a chunk's field layout
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")

_CHUNK = 1 << 17  # bytes (or str characters) per columnar step; its field strings take ~9x that
_BLOCK = 1 << 14  # rows per step of the passes over whole columns, to keep temporaries small


class _Ids(dict):
    """(entity, tenor) -> series id, numbering each new pair at its first lookup."""

    def __missing__(self, key: tuple[str, str]) -> int:
        self[key] = len(self)
        return len(self) - 1


class _Days(dict):
    """Date text -> days since 0001-01-01, parsed at its first lookup."""

    def __missing__(self, text: str) -> int:
        self[text] = day = iso_date(text).toordinal() - 1
        return day


class _Packed(NamedTuple):
    """A parsed and checked panel: `keys` holds ``(series id * _DAY_SPAN + day) << shift
    | row`` in sorted order, with the day counted from 0001-01-01 and the row's position in
    `spreads`, which keeps the input's order; series id i is `labels[i]`.  `series` swaps
    the two columns' roles: `keys` ends holding the sorted spreads, `spreads` the dates."""

    labels: list
    keys: np.ndarray
    spreads: np.ndarray
    shift: int

    def series(self) -> list[SpreadSeries]:
        """The series in `_parse_lines` order; call once, as both columns are overwritten.

        Block by block, each key's day goes to an int32 column and the key
        itself becomes its row's spread; once every row is gathered, the
        dates go where the input-order spreads were.  So the peak holds
        the two columns and the days, 20 bytes a row, and the series are
        read-only views of the two columns.
        """
        labels, keys, spreads, shift = self
        # where each series but the first starts; every threshold fits int64 as the keys do
        starts = keys.searchsorted(np.arange(1, len(labels)) * _DAY_SPAN << shift).tolist()
        bounds, days = [0, *starts, len(keys)], np.empty(len(keys), np.int32)
        for lo in range(0, len(keys), _BLOCK):
            block = keys[lo : lo + _BLOCK]
            days[lo : lo + _BLOCK] = (block >> shift) % _DAY_SPAN
            # "clip" as "raise" buffers; the rows are taken before the block is overwritten
            np.take(spreads, block & ((1 << shift) - 1), out=block.view(float), mode="clip")
        np.add(days, _FIRST_DAY.astype(np.int64), out=spreads.view(np.int64))
        # read-only buffers, as views of the writable mappings could be made writable
        dates = np.frombuffer(memoryview(spreads).toreadonly(), "datetime64[D]")
        ordered = np.frombuffer(memoryview(keys).toreadonly(), float)
        series = [SpreadSeries.__new__(SpreadSeries) for _ in labels]
        for s, (entity, tenor), lo, hi in zip(series, labels, bounds, bounds[1:]):
            vars(s).update(entity=entity, tenor=tenor, dates=dates[lo:hi], spreads=ordered[lo:hi])
        return sorted(series, key=lambda s: (s.entity, s.tenor))


def _parse_columns(read: Callable, base: int, size: int) -> _Packed | None:
    """`_parse_lines` for well-formed input from `base` to `size`, as a packed panel, or None.

    Works on chunks of whole lines got by `read`, a bytes chunk decoded
    strictly: one `split` per chunk, dates parsed once per distinct
    string, spreads by `float` and each row's (entity, tenor) series,
    numbered in first-seen order, packed with its day into one int64 key.
    Then each key takes its row's position in its low bits, one in-place
    sort orders the rows, and the `SpreadSeries` rules are checked while
    the input is alive (days from `iso_date` are always in range).  One
    pass before the parse reads each chunk and the byte after it, to cut
    chunks at line ends and find a lone CR, which has the whole input read
    and folded to LF; CRLF is read in place, as `float` strips the CR left
    on each spread.  Trailing blank lines (a chunk of them) hold no row.
    Returns None, leaving the input to the line parser, for anything that
    parser treats specially or rejects: an interior blank, comment or padded
    line, a line without four fields, an invalid date or spread, bytes that
    are not UTF-8, or a series that `SpreadSeries` rejects (an empty label,
    a spread not positive and finite, a duplicate row); and for keys past
    int64.
    """
    head = read(base, base + len(PANEL_HEADER) + 2)
    lf, cr, header = ("\n", "\r", PANEL_HEADER) if isinstance(head, str) else (
        b"\n", b"\r", PANEL_HEADER.encode())
    if head.startswith(header + cr) and not head.startswith(header + cr + lf):
        return _parse_folded(read(base, size))  # the header ends with a lone CR
    if not head.startswith((header + lf, header + cr + lf)):
        return None
    start, tail = base + head.index(lf) + 1, read(max(base, size - _CHUNK), size)
    stop = size - len(tail) + len(tail.rstrip(lf + cr))  # trailing blank lines hold no row
    spans, rows = [], 0  # (start, end, first row, end row) of each chunk of whole lines
    while start < stop:
        piece = read(start, min(stop, start + _CHUNK + 1))  # a chunk and the byte after it
        end = len(piece) if stop - start <= _CHUNK else piece.rfind(lf, 0, _CHUNK)
        if cr in piece and piece.count(cr, 0, _CHUNK) > piece.count(cr + lf):
            return _parse_folded(read(base, size))  # a lone CR ends a line
        if end < 0:
            return None  # a line longer than a chunk
        spans.append((start, start + end, rows, rows + piece.count(lf, 0, end) + 1))
        rows, start = spans[-1][3], start + end + 1
    if not spans:
        return _Packed([], np.empty(0, np.int64), np.empty(0), 0)  # the header alone
    # one anonymous shared mapping per column, so a forked child fills its rows in place
    keys, spreads = (np.frombuffer(mmap.mmap(-1, 8 * rows), t, rows) for t in (np.int64, float))
    series_ids = _Ids()
    if not _parse_all(read, spans, [keys, spreads], series_ids):
        return None
    labels = list(series_ids)  # in id order
    shift = (rows - 1).bit_length()
    if (len(labels) * _DAY_SPAN) << shift > 1 << 63:
        return None  # a key would not fit int64
    keys <<= shift
    for lo in range(0, rows, _BLOCK):
        keys[lo : lo + _BLOCK] |= np.arange(lo, min(lo + _BLOCK, rows))
    keys.sort()  # in place: unique keys, so any sort gives this order
    for lo in range(0, rows, _BLOCK):
        days = keys[lo : lo + _BLOCK + 1] >> shift  # (series id, day): a repeat is a duplicate
        if not (days[1:] > days[:-1]).all():
            return None
    if not all(map(all, labels)):
        return None  # an empty label; the layout check leaves no comma or line break in one
    return _Packed(labels, keys, spreads, shift)


def _parse_folded(text: str | bytes) -> _Packed | None:
    """`_parse_columns` of the whole input with each CRLF and lone CR folded to LF."""
    lf, cr = ("\n", "\r") if isinstance(text, str) else (b"\n", b"\r")
    return _parse_columns(*_reader(text.replace(cr + lf, lf).replace(cr, lf)))


def _two_cpus() -> bool:
    """Whether a forked child can parse on a CPU of its own."""
    affinity = getattr(os, "sched_getaffinity", None)
    return hasattr(os, "fork") and affinity is not None and len(affinity(0)) > 1


def _parse_spans(read: Callable, spans: list, columns: list[np.ndarray], series_ids: _Ids,
                 stop: mmap.mmap) -> bool:
    """Parse the chunks `spans`, in the order given, into their rows of `columns`: False,
    setting the one-byte `stop`, at the first chunk that is not well-formed or once it is set."""
    day_of = _Days()
    for start, end, lo, hi in spans:
        out = [column[lo:hi] for column in columns]
        if stop[0] or not _parse_chunk(read(start, end), out, series_ids, day_of):
            stop[0] = 1
            return False
    return True


def _parse_all(read: Callable, spans: list, columns: list, series_ids: _Ids) -> bool:
    """`_parse_spans` over every chunk, with a forked child where two CPUs are allowed.

    This process parses the first ``half = len(spans) // 2`` chunks in order and
    the child the rest from the last one back, so it meets a defect in the last
    chunk first; the child's rows of the shared `columns` start at chunk `half`'s
    first row.  One that meets a chunk that is not well-formed sets the stop
    byte, shared like the columns, so the other stops before its next chunk.
    The child sends only one ``entity,tenor`` line per series (labels hold no
    comma or LF) and leaves by `os._exit`; this process renumbers the tail's
    series with its own ids and always reaps the child.  Returns False for a
    bad chunk or a child exit status other than 0.
    """
    stop = mmap.mmap(-1, 1)  # made here, so no parse sees a byte set by an earlier one
    if len(spans) < 2 or not _two_cpus():
        return _parse_spans(read, spans, columns, series_ids, stop)
    half, fds = len(spans) // 2, []
    try:
        fds += os.pipe()
        pid = os.fork()
    except OSError:  # no descriptor or process to spare: parse here alone
        for fd in fds:
            os.close(fd)
        return _parse_spans(read, spans, columns, series_ids, stop)
    read_end, write_end = fds
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                ok = _parse_spans(read, spans[half:][::-1], columns, series_ids, stop)
                labels = "\n".join(map(",".join, series_ids)) if ok else ""
                pipe.write(labels.encode("utf-8", "surrogatepass"))
            code = 0 if ok else 1  # only once the pipe has flushed the labels
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, "rb") as pipe:
            ok = _parse_spans(read, spans[:half], columns, series_ids, stop)
            labels = pipe.read() if ok else b""
    finally:
        stop[0] = 1  # a parse here that stopped early or raised stops the child
        status = os.waitpid(pid, 0)[1]  # the pipe is closed: a child still sending stops
    if not ok or status != 0:
        return False
    tail = columns[0][spans[half][2] :]
    lines = labels.decode("utf-8", "surrogatepass").split("\n")
    remap = np.array([series_ids[tuple(line.split(","))] for line in lines], np.int64)
    for lo in range(0, len(tail), _BLOCK):
        ids, days = np.divmod(tail[lo : lo + _BLOCK], _DAY_SPAN)
        tail[lo : lo + _BLOCK] = remap[ids] * _DAY_SPAN + days
    return True


def _parse_chunk(chunk: str | bytes, out: list, series_ids: _Ids, day_of: _Days) -> bool:
    """Fill `out` with the keys (series id and day) and spreads of whole lines.

    Returns False, leaving `out` partly filled, when a line is not
    well-formed or a bytes chunk is not UTF-8.  Its per-field strings
    die on return, so one chunk's are alive at a time.
    """
    rows = len(out[0])
    raw = chunk if isinstance(chunk, bytes) else chunk.encode("utf-8", "surrogatepass")
    if raw.translate(None, _NOT_SEPARATORS) != b",,,\n" * (rows - 1) + b",,,":
        return False  # some line has other than four fields
    try:
        text = chunk if isinstance(chunk, str) else chunk.decode("utf-8")
    except UnicodeDecodeError:
        return False  # the line parser's whole decode raises it, at its place in the input
    fields = text.replace("\n", ",").split(",")
    dates, entities, tenors, spreads = (fields[i::4] for i in range(4))
    if "_" in "".join(spreads):
        return False
    keys_out, spreads_out = out
    try:
        days = np.fromiter(map(day_of.__getitem__, dates), np.int64, rows)
        spreads_out[:] = np.fromiter(map(float, spreads), np.float64, rows)
    except ValueError:
        return False  # an invalid date or spread
    if not ((spreads_out > 0.0) & (spreads_out < np.inf)).all():
        return False  # a spread that is not positive and finite
    # zip reuses its tuple for a key already numbered, so no per-row object is built
    ids = np.fromiter(map(series_ids.__getitem__, zip(entities, tenors)), np.int64, rows)
    keys_out[:] = ids * _DAY_SPAN + days
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
