"""Price series ingestion, trading-session calendars, and tick resampling.

File formats
------------
Daily close CSV: header ``date,close``, one row per trading day, ISO dates,
positive prices.  Tick CSV: header ``timestamp,price``, ISO-8601 timestamps,
positive prices, rows in any order (they are sorted on load, equal
timestamps keeping their file order).  Both formats allow leading comment
lines starting with ``#``; writers in this package use them to embed the
generating configuration.

A tick timestamp is read as :meth:`datetime.datetime.fromisoformat` reads
it: ``2006-01-04T09:00:00.123456``, a space for the ``T``, a date alone
(midnight), a clock of hours or hours and minutes, any number of
fractional-second digits (cut to microseconds), the basic form
``20060104T090000``, a lower-case ``t``.  A timestamp with a UTC offset
(``+09:00``, ``-05:00``, ``Z``) is converted to UTC, with NumPy's warning
that the offset is dropped.  The loader converts chunks of about 64 KB of
lines column by column when every row has the form
``YYYY-MM-DD[Thh[:mm[:ss[.f...]]]],price`` in ASCII; any other chunk is
parsed row by row, so every form above, and every error with its line
number, is the row parser's.  A tick file of 256 KB or more named by path
is read on two cores, a forked child converting the second half of its
lines, with the same result and errors (see :func:`load_ticks`).

Calendar JSON::

    {
      "weekday_sessions": {
        "mon": [["09:00", "11:00"], ["12:30", "15:00"]],
        ...
      },
      "holidays": ["2005-01-01", ...]
    }

Weekdays absent from ``weekday_sessions`` have no trading.  The built-in
default is the Tokyo Stock Exchange day: 09:00-11:00 and 12:30-15:00,
Monday to Friday.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import os
import stat
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime, time
from pathlib import Path

import numpy as np

from .exceptions import (
    DomainError,
    InsufficientDataError,
    ParseError,
    ValidationError,
)
from .forked import Child

logger = logging.getLogger(__name__)

_WEEKDAY_KEYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")

_US_PER_SECOND = 1_000_000

# Grid instants searched per pass: bounds the index and instant arrays at
# about 512 KB each, whatever the number of days.
_BLOCK_ELEMENTS = 1 << 16


@contextmanager
def _text_source(source):
    """A text stream reading ``source``: a path (opened here), a text
    stream, or a binary stream (wrapped, and detached from the wrapper
    after the read, which leaves it open).  Bytes that are not UTF-8 are a
    :class:`ParseError`."""
    try:
        if isinstance(source, (str, Path)):
            with open(source, "r", newline="", encoding="utf-8") as stream:
                yield stream
        elif isinstance(source, io.TextIOBase):
            yield source
        else:
            stream = io.TextIOWrapper(source, encoding="utf-8")
            try:
                yield stream
            finally:
                stream.detach()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text ({exc.reason})") from exc


def _numbered(reader, lines_before):
    """Yield (line number, row) pairs, each row numbered by the physical
    line it starts on; ``lines_before`` lines were read before ``reader``
    started.

    A line the CSV reader rejects (such as a bare carriage return inside
    a line of a text stream) is a :class:`ParseError` at the line its row
    starts on.
    """
    read = reader.line_num
    try:
        for row in reader:
            yield lines_before + read + 1, row
            read = reader.line_num
    except csv.Error as exc:
        # csv's message ends in advice on how to open the file; drop it
        reason = str(exc).partition(" - ")[0]
        raise ParseError(
            f"malformed CSV row: {reason}", line=lines_before + read + 1
        ) from exc


def _header(stream, expected_header):
    """Consume leading comment and blank rows and the header row.

    A line starting with ``#`` reaches the CSV reader blank, so that a
    comment holding ``,"`` opens no quoted field running over the header.
    Returns the number of lines read, which the caller continues from, and
    their size in UTF-8 bytes.
    """
    size = 0

    def lines():
        nonlocal size
        for line in stream:
            size += len(line.encode("utf-8"))
            yield "\n" if line.startswith("#") else line

    reader = csv.reader(lines())
    for lineno, row in _numbered(reader, 0):
        if not row or row[0].startswith("#"):
            continue
        if [c.strip().lower() for c in row] != list(expected_header):
            raise ParseError(
                f"expected header {','.join(expected_header)!r}, "
                f"got {','.join(row)!r}",
                line=lineno,
            )
        return reader.line_num, size
    raise ParseError("empty file, missing header")


def _body_rows(reader, expected_header, lines_before):
    """Yield (line_number, row) pairs after the header; skips blank lines."""
    for lineno, row in _numbered(reader, lines_before):
        if not row:
            continue
        if len(row) != len(expected_header):
            raise ParseError(
                f"expected {len(expected_header)} fields, got {len(row)}",
                line=lineno,
            )
        yield lineno, row


def _rows(source, expected_header):
    """Yield (line_number, row) pairs after validating the header.

    Skips leading ``#`` comment lines and blank lines anywhere.
    """
    with _text_source(source) as stream:
        lines_read, _ = _header(stream, expected_header)
        yield from _body_rows(csv.reader(stream), expected_header, lines_read)


@dataclass
class DailyPriceSeries:
    """Close prices on strictly increasing dates."""

    dates: tuple[date, ...]
    closes: np.ndarray

    def __post_init__(self):
        self.dates = tuple(self.dates)
        self.closes = np.asarray(self.closes, dtype=np.float64)
        if len(self.dates) != self.closes.shape[0]:
            raise ValidationError("dates and closes have different lengths")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValidationError("dates must be strictly increasing")
        if self.closes.size and not (
            np.isfinite(self.closes).all() and (self.closes > 0).all()
        ):
            raise ValidationError("close prices must be finite and positive")

    def __len__(self):
        return len(self.dates)


@dataclass
class ReturnSeries:
    """Log returns, one per date, with the sample mean cached."""

    dates: tuple[date, ...]
    values: np.ndarray
    mean: float = field(init=False)

    def __post_init__(self):
        self.dates = tuple(self.dates)
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.dates) != self.values.shape[0]:
            raise ValidationError("dates and values have different lengths")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValidationError("dates must be strictly increasing")
        if self.values.size and not np.isfinite(self.values).all():
            raise ValidationError("returns must be finite")
        self.mean = float(self.values.mean()) if self.values.size else 0.0

    def __len__(self):
        return len(self.dates)

    def sample_variance(self):
        """Unbiased sample variance of the returns."""
        if len(self) < 2:
            raise InsufficientDataError("variance needs at least two returns")
        return float(self.values.var(ddof=1))


@dataclass
class TickSeries:
    """Transaction prices at non-decreasing microsecond timestamps."""

    times: np.ndarray  # datetime64[us]
    prices: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype="datetime64[us]")
        self.prices = np.asarray(self.prices, dtype=np.float64)
        if self.times.shape != self.prices.shape or self.times.ndim != 1:
            raise ValidationError("times and prices must be 1-d and equal length")
        if self.times.size:
            if (np.diff(self.times.view(np.int64)) < 0).any():
                raise ValidationError("timestamps must be non-decreasing")
            if not (np.isfinite(self.prices).all() and (self.prices > 0).all()):
                raise ValidationError("tick prices must be finite and positive")

    def __len__(self):
        return self.times.shape[0]


@dataclass(frozen=True)
class SessionCalendar:
    """Trading sessions per weekday plus a holiday list.

    ``weekday_sessions`` maps weekday index (0=Monday) to a tuple of
    (open, close) times, ordered and non-overlapping within the day.
    """

    weekday_sessions: dict[int, tuple[tuple[time, time], ...]]
    holidays: frozenset[date] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "holidays", frozenset(self.holidays))
        cleaned = {}
        for wd, sessions in self.weekday_sessions.items():
            if not 0 <= int(wd) <= 6:
                raise ValidationError(f"weekday index {wd} outside 0..6")
            sessions = tuple((o, c) for o, c in sessions)
            for o, c in sessions:
                if not o < c:
                    raise ValidationError(f"session open {o} not before close {c}")
            for (_, c1), (o2, _) in zip(sessions, sessions[1:]):
                if c1 > o2:
                    raise ValidationError("sessions overlap or are out of order")
            if sessions:
                cleaned[int(wd)] = sessions
        object.__setattr__(self, "weekday_sessions", cleaned)

    @classmethod
    def tokyo(cls):
        """Tokyo Stock Exchange day: 09:00-11:00 and 12:30-15:00, Mon-Fri."""
        sessions = (
            (time(9, 0), time(11, 0)),
            (time(12, 30), time(15, 0)),
        )
        return cls({wd: sessions for wd in range(5)})

    @classmethod
    def from_json(cls, source):
        """Load a calendar from a JSON path, stream, or parsed dict."""
        if isinstance(source, dict):
            doc = source
        else:
            with _text_source(source) as stream:
                try:
                    doc = json.load(stream)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"invalid calendar JSON: {exc}") from exc
        try:
            weekday_sessions = {}
            for key, sessions in doc.get("weekday_sessions", {}).items():
                wd = _WEEKDAY_KEYS.index(key.strip().lower())
                weekday_sessions[wd] = tuple(
                    (time.fromisoformat(o), time.fromisoformat(c))
                    for o, c in sessions
                )
            holidays = frozenset(
                date.fromisoformat(d) for d in doc.get("holidays", ())
            )
        except (ValueError, TypeError, AttributeError) as exc:
            raise ParseError(f"invalid calendar JSON: {exc}") from exc
        return cls(weekday_sessions, holidays)

    def to_json_dict(self):
        return {
            "weekday_sessions": {
                _WEEKDAY_KEYS[wd]: [
                    [o.isoformat(timespec="minutes"), c.isoformat(timespec="minutes")]
                    for o, c in sessions
                ]
                for wd, sessions in sorted(self.weekday_sessions.items())
            },
            "holidays": sorted(d.isoformat() for d in self.holidays),
        }

    def sessions_for(self, day):
        """(open, close) datetimes for ``day``; empty when not a trading day."""
        if day in self.holidays:
            return []
        sessions = self.weekday_sessions.get(day.weekday(), ())
        return [
            (datetime.combine(day, o), datetime.combine(day, c))
            for o, c in sessions
        ]

    def is_trading_day(self, day):
        return bool(self.sessions_for(day))

    def trading_days(self, start, count):
        """First ``count`` trading days on or after ``start``.

        Raises :class:`DomainError` when no weekday trades.
        """
        if count < 0:
            raise DomainError("count must be non-negative")
        if count == 0:
            return []
        return _TradingDays.starting(self, start, count).days.tolist()


_EPOCH = date(1970, 1, 1)


def _clock_us(t):
    """Microseconds from midnight to the time of day ``t``.

    Converted as a session datetime is, so a time with a UTC offset is
    taken in UTC.
    """
    return np.datetime64(datetime.combine(_EPOCH, t), "us").astype(np.int64)


@dataclass(frozen=True)
class _TradingDays:
    """A calendar resolved over a range of days.

    ``days`` are the trading days (``datetime64[D]``, increasing) and
    ``midnight_us`` their starts in microseconds.  ``groups`` pairs each
    distinct session tuple, as (open, close) microseconds after midnight,
    with the indices into ``days`` of the days that trade it.
    """

    days: np.ndarray
    midnight_us: np.ndarray
    groups: tuple

    @classmethod
    def build(cls, calendar, first, last, count=None):
        """The trading days of ``calendar`` from ``first`` to ``last``
        (``datetime64[D]``), by array operations over the whole range;
        only the first ``count`` of them when it is given."""
        span = np.arange(first, last + np.timedelta64(1, "D"))
        weekday = (span.view(np.int64) + 3) % 7  # 1970-01-01 was a Thursday
        holidays = np.array(sorted(calendar.holidays), dtype="datetime64[D]")
        trading = np.isin(weekday, list(calendar.weekday_sessions))
        trading &= ~np.isin(span, holidays)
        days, weekday = span[trading][:count], weekday[trading][:count]
        by_sessions = {}
        for wd, sessions in calendar.weekday_sessions.items():
            by_sessions.setdefault(sessions, []).append(wd)
        groups = tuple(
            (
                tuple((_clock_us(o), _clock_us(c)) for o, c in sessions),
                np.flatnonzero(np.isin(weekday, wds)),
            )
            for sessions, wds in by_sessions.items()
        )
        return cls(days, days.astype("datetime64[us]").view(np.int64), groups)

    @classmethod
    def starting(cls, calendar, start, count):
        """The first ``count`` (at least one) trading days on or after the
        date ``start``."""
        if not calendar.weekday_sessions:
            raise DomainError("the calendar has no trading weekday")
        # every whole week trades each trading weekday once, less at most
        # one day per holiday
        weeks = -(-(count + len(calendar.holidays)) // len(calendar.weekday_sessions))
        first = np.datetime64(start, "D")
        last = first + np.timedelta64(7 * weeks - 1, "D")
        table = cls.build(calendar, first, last, count)
        if table.days[-1] > np.datetime64(date.max):  # no date holds it
            raise DomainError(f"{count} trading days from {start} run past {date.max}")
        return table


def _trading_days_of(ticks, calendar):
    """The calendar from the first tick's day to the last one's.

    Returns the :class:`_TradingDays`, the index of the last tick at or
    before the end of each trading day, and whether that tick is on the day.
    """
    tick_days = ticks.times.astype("datetime64[D]")
    table = _TradingDays.build(calendar, tick_days[0], tick_days[-1])
    last = np.searchsorted(tick_days, table.days, side="right") - 1
    return table, last, tick_days[last] == table.days


@dataclass
class GridBlock:
    """Grid log prices of the days that share one session tuple, a row a day.

    ``positions`` gives each row's index in :attr:`GridPrices.dates`, and
    ``session_ends`` the column after each session's last grid instant.
    """

    positions: np.ndarray
    log_prices: np.ndarray
    session_ends: list[int]

    def day_returns(self):
        """Yield (position, grid log returns) for each row.

        Returns never span the gap between sessions.  The differences are
        taken a bounded number of rows at a time, and each day's returns
        are a fresh array, not a view into a 2-d one: ``r @ r`` on a row
        view can differ from it in the last bit.
        """
        within = np.ones(self.log_prices.shape[1] - 1, dtype=bool)
        for end in self.session_ends[:-1]:
            within[end - 1] = False
        step = max(1, _BLOCK_ELEMENTS // self.log_prices.shape[1])
        for lo in range(0, len(self.positions), step):
            diffs = np.diff(self.log_prices[lo : lo + step], axis=1)
            for pos, row in zip(self.positions[lo : lo + step].tolist(), diffs):
                yield pos, row[within]


@dataclass
class GridPrices:
    """Resampled log prices for a range of days at one sampling period.

    ``dates`` lists the usable days in order; their prices are held in
    ``blocks``, one per session tuple.
    """

    delta_seconds: float
    dates: list[date]
    skipped_days: list[date]
    blocks: list[GridBlock]

    def day_returns(self):
        """Yield (index into ``dates``, grid log returns) for each usable day."""
        for block in self.blocks:
            yield from block.day_returns()


def load_daily_prices(source):
    """Load a ``date,close`` CSV into a :class:`DailyPriceSeries`."""
    dates, closes, seen = [], [], set()
    for lineno, row in _rows(source, ("date", "close")):
        try:
            d = date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise ParseError(f"bad date {row[0]!r}", line=lineno) from exc
        try:
            close = float(row[1])
        except ValueError as exc:
            raise ParseError(f"bad price {row[1]!r}", line=lineno) from exc
        if d in seen:
            raise ValidationError(f"duplicate date {d.isoformat()}")
        if not np.isfinite(close) or close <= 0:
            raise ValidationError(
                f"non-positive close {row[1]} on {d.isoformat()}"
            )
        seen.add(d)
        dates.append(d)
        closes.append(close)
    order = np.argsort(np.array([d.toordinal() for d in dates]), kind="stable")
    return DailyPriceSeries(
        tuple(dates[i] for i in order), np.array(closes)[order]
    )


_TICK_HEADER = ("timestamp", "price")

# Characters read per columnar chunk (whole lines of about 64 KB).  The
# parse holds one chunk's text and cells at a time; on 100k ticks, 256 KB
# chunks were no faster and raised the command's peak RSS by 2.6 MB.
_PARSE_CHUNK_CHARS = 1 << 16
# load_ticks forks for a file whose body is this many chunks or more: the
# fork and the two arrays sent back cost about 2 ms
_TICK_FORK_CHUNKS = 4

_DATE_DIGIT_COLUMNS = [0, 1, 2, 3, 5, 6, 8, 9]
_IS_DIGIT = np.zeros(256, dtype=bool)
_IS_DIGIT[list(b"0123456789")] = True
# byte 10 of a timestamp: the date-time separator, or padding after a date
_IS_SEPARATOR = np.zeros(256, dtype=bool)
_IS_SEPARATOR[list(b"T \0")] = True
# bytes 11 on: the clock, or padding
_IS_CLOCK = _IS_DIGIT.copy()
_IS_CLOCK[list(b":.\0")] = True
_FIRST_DAY = np.datetime64("0001-01-01", "us")


def _row_ticks(lines, stream, lines_before):
    """Parse a chunk row by row, numbering lines on from ``lines_before``.

    Returns (times, prices, number of lines read).  A quoted field may run
    past the chunk's last line; the reader then reads on into ``stream`` to
    the end of that record, and those lines count as read.
    """
    reader = csv.reader(itertools.chain(lines, stream))
    times, prices = [], []
    for lineno, row in _body_rows(reader, _TICK_HEADER, lines_before):
        try:
            ts = datetime.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise ParseError(f"bad timestamp {row[0]!r}", line=lineno) from exc
        try:
            price = float(row[1])
        except ValueError as exc:
            raise ParseError(f"bad price {row[1]!r}", line=lineno) from exc
        if not np.isfinite(price) or price <= 0:
            raise ValidationError(f"non-positive price {row[1]} at {row[0]}")
        times.append(np.datetime64(ts, "us"))
        prices.append(price)
        if reader.line_num >= len(lines):
            break
    return np.array(times, dtype="datetime64[us]"), np.array(prices), reader.line_num


def _iso_stamps_agree(stamps):
    """Whether NumPy reads every stamp as ``datetime.fromisoformat`` does.

    That holds for ASCII ``YYYY-MM-DD``, optionally followed by ``T`` or a
    space and a clock of digits, ``:`` and ``.`` that ends in a digit, when
    NumPy parses it at all: NumPy rejects the other clock forms
    ``fromisoformat`` takes (basic format, a lower-case ``t``, fractional
    minutes), while it accepts ``YYYY``, ``YYYY-MM``, ``now``, ``today``,
    ``NaT`` and a trailing ``.`` that ``fromisoformat`` rejects, and warns
    on a ``Z`` or ``+hh:mm`` suffix.  The caller still treats a NumPy
    warning or error as a disagreement.
    """
    cells = np.array(stamps, dtype="S")
    if cells.itemsize < 10:
        return False
    b = cells.view(np.uint8).reshape(len(stamps), cells.itemsize)
    length = np.count_nonzero(b, axis=1)
    return bool(
        _IS_DIGIT[b[:, _DATE_DIGIT_COLUMNS]].all()
        and (b[:, [4, 7]] == ord("-")).all()
        and (cells.itemsize == 10 or _IS_SEPARATOR[b[:, 10]].all())
        and _IS_CLOCK[b[:, 11:]].all()
        and _IS_DIGIT[b[np.arange(len(stamps)), length - 1]].all()
    )


def _columnar_ticks(lines):
    """(times, prices) of a chunk of data lines, or None for the row parser.

    Any line the columnar reading might take differently from the row
    parser sends the whole chunk there: a non-ASCII, NUL or quote
    character, a bare carriage return, a blank line, a line without exactly
    one comma, a cell that does not convert, a price that is not finite and
    positive, or a timestamp outside the form :func:`_iso_stamps_agree`
    accepts (which includes comment lines and UTC offsets).
    """
    text = "".join(lines)
    if not text.isascii() or '"' in text or "\0" in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    rows = text.split("\n")
    if not rows[-1]:
        rows.pop()
    cells = [row.partition(",") for row in rows]
    try:
        # a blank row or one without a comma leaves the price cell empty, and
        # one with more commas leaves one in it; neither converts
        prices = np.array([c[2] for c in cells], dtype=np.float64)
    except ValueError:
        return None
    if not (np.isfinite(prices).all() and (prices > 0).all()):
        return None
    stamps = [c[0] for c in cells]
    if not _iso_stamps_agree(stamps):
        return None
    with warnings.catch_warnings():
        # NumPy warns where it reads part of a stamp as a UTC offset
        warnings.simplefilter("error")
        try:
            times = np.array(stamps, dtype="datetime64[us]")
        except (ValueError, Warning):
            return None
    if (times < _FIRST_DAY).any():  # year 0, which datetime rejects
        return None
    return times, prices


def load_ticks(source):
    """Load a ``timestamp,price`` CSV into a time-sorted :class:`TickSeries`.

    Rows are read about 64 KB at a time and converted column by column; a
    chunk holding anything that reading might take differently from the
    row parser is parsed row by row instead, with the same errors and line
    numbers.

    A file named by path whose body is ``_TICK_FORK_CHUNKS`` chunks or more
    (256 KB) is read on two cores.  A :class:`~regarch.forked.Child` opens
    the file again by path (through the inherited stream it would move this
    process's file offset) and converts its lines from the first line break
    at or after the middle of the body to the end, while this process
    parses the lines before that break.  This process takes the child's
    arrays only when its own chunks were all converted column by column and
    ended exactly at the break, and the child converted every chunk it read
    column by column; otherwise it parses the rest itself.  So the result,
    and every error with its line number, is that of one process, as it is
    where there is no child (``os.fork`` does not exist or fails).  No
    setting controls it.
    """
    with _text_source(source) as stream:
        lines_read, header_size = _header(stream, _TICK_HEADER)
        split = _tick_split(source, stream, header_size)
        child = Child(_send_tick_half, source, split) if split else None
        try:
            times, prices, taken = [], [], False
            if child:
                lines_read, at_split = _parse_ticks(
                    stream, lines_read, times, prices, split - header_size
                )
                taken = at_split and _take_half(child, times, prices)
            if not taken:
                _parse_ticks(stream, lines_read, times, prices)
            times = np.concatenate(times) if times else np.empty(0, "datetime64[us]")
            prices = np.concatenate(prices) if prices else np.empty(0)
            order = np.argsort(times, kind="stable")
            return TickSeries(times[order], prices[order])
        finally:
            if child:  # reaped only now, so that its exit overlaps the sort
                child.close()


def _parse_ticks(stream, lines_read, times, prices, chars=None):
    """Parse chunks of ``stream`` onto ``times`` and ``prices``, numbering
    lines on from ``lines_read``: to the end, or, given ``chars``, until
    that many characters are read or a chunk needs the row parser.

    Returns the number of lines read by then, and whether exactly ``chars``
    characters were read, every chunk converted column by column.
    """
    hint = _PARSE_CHUNK_CHARS
    while True:
        if chars is not None:
            # readlines stops only once its lines exceed the hint
            hint = max(1, min(_PARSE_CHUNK_CHARS, chars - 1))
        lines = stream.readlines(hint)
        if not lines:
            return lines_read, False
        chunk = _columnar_ticks(lines)
        columnar = chunk is not None
        if columnar:
            lines_read += len(lines)
        else:
            *chunk, read = _row_ticks(lines, stream, lines_read)
            lines_read += read
        times.append(chunk[0])
        prices.append(chunk[1])
        if chars is not None:
            chars -= sum(map(len, lines))
            if chars <= 0 or not columnar:
                return lines_read, columnar and chars == 0


def _tick_split(source, stream, header_size):
    """The byte offset at which :func:`load_ticks` hands a tick file's lines
    to a forked child: just after the first line break at or after the
    middle of the body, which starts ``header_size`` bytes in.

    None for a source that is not a path to a regular file, for a body of
    fewer than ``_TICK_FORK_CHUNKS`` chunks, and when no line break follows
    within 64 KB of the middle.
    """
    if not isinstance(source, (str, Path)):
        return None
    fd = stream.fileno()
    info = os.fstat(fd)
    body = info.st_size - header_size
    if body < _TICK_FORK_CHUNKS * _PARSE_CHUNK_CHARS or not stat.S_ISREG(info.st_mode):
        return None
    middle = header_size + body // 2
    # pread leaves the file offset, which the stream reads on from, alone
    end = os.pread(fd, 1 << 16, middle).find(b"\n")
    split = middle + end + 1
    return split if end >= 0 and split < info.st_size else None


def _send_tick_half(send, path, offset):
    """The forked child of :func:`load_ticks`: convert the lines of ``path``
    from byte ``offset`` on column by column, then send their times (as
    int64, which pickles out of band) and then their prices; nothing if a
    chunk needs the row parser."""
    times, prices = [], []
    with open(path, "r", newline="", encoding="utf-8") as stream:
        stream.seek(offset)
        while lines := stream.readlines(_PARSE_CHUNK_CHARS):
            chunk = _columnar_ticks(lines)
            if chunk is None:
                return
            times.append(chunk[0])
            prices.append(chunk[1])
    # sent whole once converted, as sending as it goes would block on the pipe,
    # and one column at a time, so that one joined column is held at a time
    send(np.concatenate(times).view(np.int64))
    send(np.concatenate(prices))


def _take_half(child, times, prices):
    """Append the times and prices :func:`_send_tick_half` sent onto
    ``times`` and ``prices``; whether it sent both."""
    sent_times, sent_prices = child.receive(), child.receive()
    if sent_prices is not None:
        times.append(sent_times.view("datetime64[us]"))
        prices.append(sent_prices)
    return sent_prices is not None


def daily_log_returns(prices):
    """Close-to-close log returns; dated by the later day of each pair."""
    if len(prices) < 2:
        raise InsufficientDataError("need at least two closes for returns")
    values = np.diff(np.log(prices.closes))
    return ReturnSeries(prices.dates[1:], values)


def daily_closes_from_ticks(ticks, calendar):
    """Last tick price of each trading day as a :class:`DailyPriceSeries`."""
    if len(ticks) == 0:
        raise InsufficientDataError("no ticks")
    table, last, has_ticks = _trading_days_of(ticks, calendar)
    if not has_ticks.any():
        raise InsufficientDataError("no ticks on trading days")
    return DailyPriceSeries(
        tuple(table.days[has_ticks].tolist()), ticks.prices[last[has_ticks]]
    )


def _session_grid_us(open_us, close_us, delta_us):
    """Grid instants in integer microseconds for one session.

    The grid is open + k*delta for every such instant before the close,
    then the close, so each session is covered to its end.  When delta
    does not divide the session its last interval is shorter; a session
    shorter than delta gives the one [open, close] return.  The step is
    capped at the session length, which gives that same return and keeps
    any finite delta within int64.
    """
    step = min(delta_us, close_us - open_us)
    return np.append(np.arange(open_us, close_us, step, dtype=np.int64), close_us)


def _grid_log_prices(t_int, log_p, midnight_us, offsets):
    """Previous-tick log prices at ``midnight_us[:, None] + offsets``."""
    out = np.empty((len(midnight_us), len(offsets)))
    step = max(1, _BLOCK_ELEMENTS // len(offsets))
    for lo in range(0, len(midnight_us), step):
        idx = np.searchsorted(
            t_int, midnight_us[lo : lo + step, None] + offsets, side="right"
        )
        idx -= 1
        log_p.take(idx, out=out[lo : lo + step])
    return out


def resample_grid(ticks, calendar, delta_seconds):
    """Previous-tick log prices on uniform session grids.

    For each trading day between the first and last tick, each session is
    sampled at instants open + k*delta before its close, and at the close.
    The price at an instant is the last tick at or before it (carried
    across days when a session opens before the day's first tick).  Days
    without any tick, or before the first tick ever, are skipped and
    reported in ``skipped_days``.
    """
    if not np.isfinite(delta_seconds) or delta_seconds <= 0:
        raise DomainError("delta_seconds must be positive")
    if len(ticks) == 0:
        raise InsufficientDataError("no ticks to resample")
    delta_us = int(round(delta_seconds * _US_PER_SECOND))
    if delta_us <= 0:
        raise DomainError("delta_seconds is below timestamp resolution")

    table, _, usable = _trading_days_of(ticks, calendar)
    t_int = ticks.times.view(np.int64)
    log_p = np.log(ticks.prices)
    for sessions, rows in table.groups:
        # no tick at or before the first session open of the data set
        usable[rows] &= table.midnight_us[rows] + sessions[0][0] >= t_int[0]
    position = np.cumsum(usable) - 1

    blocks = []
    for sessions, rows in table.groups:
        rows = rows[usable[rows]]
        if rows.size:
            grids = [_session_grid_us(o, c, delta_us) for o, c in sessions]
            log_prices = _grid_log_prices(
                t_int, log_p, table.midnight_us[rows], np.concatenate(grids)
            )
            ends = np.cumsum([len(g) for g in grids]).tolist()
            blocks.append(GridBlock(position[rows], log_prices, ends))

    skipped = table.days[~usable].tolist()
    if skipped:
        logger.warning(
            "skipped %d day(s) without usable ticks: %s",
            len(skipped),
            ", ".join(d.isoformat() for d in skipped[:5])
            + ("..." if len(skipped) > 5 else ""),
        )
    return GridPrices(
        float(delta_seconds), table.days[usable].tolist(), skipped, blocks
    )


_CSV_CHUNK_ROWS = 1024
_CSV_FORK_CHUNKS = 8  # write_csv forks for a file of this many full chunks or more


@contextmanager
def _text_target(target):
    """A text stream writing to ``target``: a path (opened here) or a stream."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as stream:
            yield stream
    else:
        yield target


def _iso_timestamps(values):
    return np.datetime_as_string(values, unit="us").tolist()


def _iso_dates(values):
    return [d.isoformat() for d in values]


def _float_reprs(values):
    return list(map(repr, values.tolist()))


def _csv_column(values):
    """(values, formatter) for one column of :func:`write_csv`."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "M":
        return values, _iso_timestamps
    if len(values) and isinstance(values[0], date):
        return values, _iso_dates
    return np.asarray(values, dtype=np.float64), _float_reprs


def _csv_rows(columns, lo):
    """The rows of the chunk starting at row ``lo``, each ending in a newline."""
    cells = [fmt(values[lo : lo + _CSV_CHUNK_ROWS]) for values, fmt in columns]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _comment_lines(comments):
    """``# `` before each physical line of each comment, so that a comment
    holding a line break stays a comment for this module's loaders."""
    lines = (c.replace("\r\n", "\n").replace("\r", "\n") for c in comments)
    return "".join(f"# {line}\n" for text in lines for line in text.split("\n"))


def write_csv(target, header, columns, comments=()):
    """Emit ``# comment`` lines, a header row, then one row per column entry.

    ``target`` is a path or a text stream.  ``columns`` holds one sequence
    per header name: ``datetime64`` arrays are written as ISO timestamps
    to the microsecond, dates as ISO dates, anything else as floats in
    their shortest round-trip ``repr``.  No cell needs quoting, so none is
    quoted.  Each physical line of a comment gets its own ``# ``.  Rows
    are formatted a bounded chunk at a time, so the whole file is never
    held in memory.

    A file of ``_CSV_FORK_CHUNKS`` full chunks or more (8192 rows: the
    tick file of ``simulate``, or the chain files of a long ``compare``) is
    formatted on two cores: a :class:`~regarch.forked.Child` started
    before the first chunk formats every other chunk with the same function
    and sends each back as one message, and this process writes all of them
    in file order.  The bytes are those of one process: where there is no
    child (``os.fork`` does not exist or fails), or from the chunk at which
    the child stopped short, this process formats the chunks itself.  No
    setting controls it.
    """
    columns = [_csv_column(values) for values in columns]
    n = len(columns[0][0]) if columns else 0
    if len(columns) != len(header) or any(len(v) != n for v, _ in columns):
        raise ValidationError("CSV needs one equal-length column per header name")
    with _text_target(target) as stream:
        stream.write(_comment_lines(comments))
        stream.write(",".join(header) + "\n")
        starts = range(0, n, _CSV_CHUNK_ROWS)
        fork = n >= _CSV_FORK_CHUNKS * _CSV_CHUNK_ROWS
        child = Child(_send_chunks, columns, starts[1::2]) if fork else None
        try:
            for k, lo in enumerate(starts):
                text = child.receive() if child and k % 2 else None
                stream.write(_csv_rows(columns, lo) if text is None else text)
        finally:
            if child:
                child.close()


def _send_chunks(send, columns, starts):
    """The forked child of :func:`write_csv`: send the chunks at ``starts``."""
    for lo in starts:
        send(_csv_rows(columns, lo))


def write_json(target, payload):
    """Write ``payload`` as indented, key-sorted JSON with a final newline
    to a path or a text stream."""
    with _text_target(target) as stream:
        stream.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_daily_csv(prices, target, comments=()):
    """Emit ``date,close`` rows loadable by :func:`load_daily_prices`."""
    write_csv(target, ("date", "close"), (prices.dates, prices.closes), comments)


def write_ticks_csv(ticks, target, comments=()):
    """Emit ``timestamp,price`` rows loadable by :func:`load_ticks`."""
    write_csv(target, ("timestamp", "price"), (ticks.times, ticks.prices), comments)
