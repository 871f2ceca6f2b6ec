"""Price series ingestion, trading-session calendars, and tick resampling.

File formats
------------
Daily close CSV: header ``date,close``, one row per trading day, ISO dates,
positive prices.  Tick CSV: header ``timestamp,price``, ISO-8601 timestamps,
positive prices, rows in any order (they are sorted on load).  Both formats
allow leading comment lines starting with ``#``; writers in this package use
them to embed the generating configuration.

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
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from pathlib import Path

import numpy as np

from .exceptions import (
    DomainError,
    InsufficientDataError,
    ParseError,
    ValidationError,
)

logger = logging.getLogger(__name__)

_WEEKDAY_KEYS = ("mon", "tue", "wed", "thu", "fri", "sat", "sun")

_US_PER_SECOND = 1_000_000


def _open_text(source):
    """Return (text-file-like, should_close) for a path or open stream."""
    if isinstance(source, (str, Path)):
        return open(source, "r", newline="", encoding="utf-8"), True
    if isinstance(source, io.TextIOBase):
        return source, False
    # binary stream: wrap
    return io.TextIOWrapper(source, encoding="utf-8"), False


def _rows(source, expected_header):
    """Yield (line_number, row) pairs after validating the header.

    Skips leading ``#`` comment lines and blank lines anywhere.
    """
    stream, should_close = _open_text(source)
    try:
        reader = csv.reader(stream)
        header = None
        header_line = 0
        for lineno, row in enumerate(reader, start=1):
            if not row or (row[0].startswith("#") and header is None):
                continue
            if header is None:
                header = [c.strip().lower() for c in row]
                header_line = lineno
                if header != list(expected_header):
                    raise ParseError(
                        f"expected header {','.join(expected_header)!r}, "
                        f"got {','.join(row)!r}",
                        line=header_line,
                    )
                continue
            if len(row) != len(expected_header):
                raise ParseError(
                    f"expected {len(expected_header)} fields, got {len(row)}",
                    line=lineno,
                )
            yield lineno, row
        if header is None:
            raise ParseError("empty file, missing header")
    finally:
        if should_close:
            stream.close()


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
            stream, should_close = _open_text(source)
            try:
                doc = json.load(stream)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid calendar JSON: {exc}") from exc
            finally:
                if should_close:
                    stream.close()
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
        """First ``count`` trading days on or after ``start``."""
        if count < 0:
            raise DomainError("count must be non-negative")
        days = []
        day = start
        while len(days) < count:
            if self.is_trading_day(day):
                days.append(day)
            day += timedelta(days=1)
        return days


@dataclass
class GridDay:
    """Previous-tick log prices on one day's session grids."""

    day: date
    session_log_prices: list[np.ndarray]

    def n_returns(self):
        return sum(max(a.shape[0] - 1, 0) for a in self.session_log_prices)


@dataclass
class GridPrices:
    """Resampled log prices for a range of days at one sampling period."""

    delta_seconds: float
    days: list[GridDay]
    skipped_days: list[date]


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


def load_ticks(source):
    """Load a ``timestamp,price`` CSV into a time-sorted :class:`TickSeries`."""
    times, prices = [], []
    for lineno, row in _rows(source, ("timestamp", "price")):
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
    times = np.array(times, dtype="datetime64[us]")
    prices = np.array(prices, dtype=np.float64)
    order = np.argsort(times, kind="stable")
    return TickSeries(times[order], prices[order])


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
    days = ticks.times.astype("datetime64[D]")
    dates, closes = [], []
    for day64 in np.unique(days):
        day = day64.astype(date)
        if not calendar.is_trading_day(day):
            continue
        end = np.searchsorted(days, day64, side="right") - 1
        dates.append(day)
        closes.append(ticks.prices[end])
    if not dates:
        raise InsufficientDataError("no ticks on trading days")
    return DailyPriceSeries(tuple(dates), np.array(closes))


def _session_grid_us(open_us, close_us, delta_us):
    """Grid instants in integer microseconds for one session.

    The grid is open + k*delta for every such instant before the close,
    then the close, so each session is covered to its end.  When delta
    does not divide the session its last interval is shorter; a session
    shorter than delta gives the one [open, close] return.
    """
    return np.append(np.arange(open_us, close_us, delta_us, dtype=np.int64), close_us)


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

    t_int = ticks.times.view(np.int64)
    log_p = np.log(ticks.prices)
    tick_days = ticks.times.astype("datetime64[D]")

    first_day = tick_days[0].astype(date)
    last_day = tick_days[-1].astype(date)

    days, skipped = [], []
    day = first_day
    while day <= last_day:
        sessions = calendar.sessions_for(day)
        if not sessions:
            day += timedelta(days=1)
            continue
        day64 = np.datetime64(day, "D")
        lo = np.searchsorted(tick_days, day64, side="left")
        hi = np.searchsorted(tick_days, day64, side="right")
        if hi == lo:
            skipped.append(day)
            day += timedelta(days=1)
            continue
        session_prices = []
        usable = True
        for open_dt, close_dt in sessions:
            grid = _session_grid_us(
                np.datetime64(open_dt, "us").astype(np.int64),
                np.datetime64(close_dt, "us").astype(np.int64),
                delta_us,
            )
            idx = np.searchsorted(t_int, grid, side="right") - 1
            if idx[0] < 0:
                # no tick at or before the first session open of the data set
                usable = False
                break
            session_prices.append(log_p[idx])
        if usable:
            days.append(GridDay(day, session_prices))
        else:
            skipped.append(day)
        day += timedelta(days=1)

    if skipped:
        logger.warning(
            "skipped %d day(s) without usable ticks: %s",
            len(skipped),
            ", ".join(d.isoformat() for d in skipped[:5])
            + ("..." if len(skipped) > 5 else ""),
        )
    return GridPrices(float(delta_seconds), days, skipped)


def intraday_returns(grid):
    """Per-day arrays of grid log returns.

    Returns a list of (day, returns) pairs.  Returns never span the gap
    between sessions; each session contributes len(grid)-1 differences.
    """
    out = []
    for gd in grid.days:
        parts = [np.diff(a) for a in gd.session_log_prices if a.shape[0] >= 2]
        values = np.concatenate(parts) if parts else np.empty(0)
        out.append((gd.day, values))
    return out


_CSV_CHUNK_ROWS = 1024


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


def write_csv(target, header, columns, comments=()):
    """Emit ``# comment`` lines, a header row, then one row per column entry.

    ``target`` is a path or a text stream.  ``columns`` holds one sequence
    per header name: ``datetime64`` arrays are written as ISO timestamps
    to the microsecond, dates as ISO dates, anything else as floats in
    their shortest round-trip ``repr``.  No cell needs quoting, so none is
    quoted.  Rows are formatted a bounded chunk at a time, so the whole
    file is never held in memory.
    """
    columns = [_csv_column(values) for values in columns]
    n = len(columns[0][0]) if columns else 0
    if len(columns) != len(header) or any(len(v) != n for v, _ in columns):
        raise ValidationError("CSV needs one equal-length column per header name")
    with _text_target(target) as stream:
        stream.write("".join(f"# {line}\n" for line in comments))
        stream.write(",".join(header) + "\n")
        for lo in range(0, n, _CSV_CHUNK_ROWS):
            cells = [fmt(values[lo : lo + _CSV_CHUNK_ROWS]) for values, fmt in columns]
            stream.write("\n".join(map(",".join, zip(*cells))) + "\n")


def json_text(payload):
    """``payload`` as indented, key-sorted JSON with a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(target, payload):
    """Write :func:`json_text` of ``payload`` to a path or a text stream."""
    with _text_target(target) as stream:
        stream.write(json_text(payload))


def write_daily_csv(prices, target, comments=()):
    """Emit ``date,close`` rows loadable by :func:`load_daily_prices`."""
    write_csv(target, ("date", "close"), (prices.dates, prices.closes), comments)


def write_ticks_csv(ticks, target, comments=()):
    """Emit ``timestamp,price`` rows loadable by :func:`load_ticks`."""
    write_csv(target, ("timestamp", "price"), (ticks.times, ticks.prices), comments)
