import csv
import io
import json
import os
import time as clock
import warnings
from datetime import date, datetime, time, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from regarch import data, forked
from regarch.data import (
    DailyPriceSeries,
    SessionCalendar,
    TickSeries,
    daily_closes_from_ticks,
    daily_log_returns,
    load_daily_prices,
    load_ticks,
    resample_grid,
    write_csv,
    write_daily_csv,
    write_ticks_csv,
)
from regarch.exceptions import (
    DomainError,
    InsufficientDataError,
    ParseError,
    ValidationError,
)
from regarch.realized import rv_from_ticks
from conftest import _frames, _no_child_left
from reference import grid_sessions


def _csv(text):
    return io.StringIO(text)


class TestDailyLoader:
    def test_round_trip(self):
        src = _csv("date,close\n2006-01-04,16361.54\n2006-01-05,16423.76\n")
        series = load_daily_prices(src)
        assert series.dates == (date(2006, 1, 4), date(2006, 1, 5))
        np.testing.assert_allclose(series.closes, [16361.54, 16423.76])

    def test_unsorted_rows_are_sorted(self):
        src = _csv("date,close\n2006-01-05,2.0\n2006-01-04,1.0\n")
        series = load_daily_prices(src)
        assert series.dates == (date(2006, 1, 4), date(2006, 1, 5))
        np.testing.assert_allclose(series.closes, [1.0, 2.0])

    def test_comment_lines_skipped(self):
        src = _csv("# seed=7\n# model=garch-re\ndate,close\n2006-01-04,1.0\n")
        assert len(load_daily_prices(src)) == 1

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            load_daily_prices(_csv("day,price\n2006-01-04,1.0\n"))

    def test_bad_date_carries_line_number(self):
        src = _csv("date,close\n2006-01-04,1.0\nnot-a-date,2.0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_daily_prices(src)

    def test_bad_price_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            load_daily_prices(_csv("date,close\n2006-01-04,abc\n"))
        assert err.value.line == 2

    def test_line_numbers_count_physical_lines(self):
        # the quoted close on line 2 runs on to line 3
        src = _csv('date,close\n"2006-06-05","100.5\n"\n2006-06-06,abc\n')
        with pytest.raises(ParseError) as err:
            load_daily_prices(src)
        assert err.value.line == 4

    def test_comment_opening_a_quote_keeps_line_numbers(self):
        # ',"' in a comment opens no quoted field running over the header
        src = _csv('# data = a,"b.csv\n# c\ndate,close\n2006-01-04,1.0\nx,2.0\n')
        with pytest.raises(ParseError, match="bad date") as err:
            load_daily_prices(src)
        assert err.value.line == 5

    def test_duplicate_date_rejected(self):
        src = _csv("date,close\n2006-01-04,1.0\n2006-01-04,2.0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_daily_prices(src)

    def test_negative_price_rejected(self):
        src = _csv("date,close\n2006-01-04,-1.0\n")
        with pytest.raises(ValidationError, match="non-positive"):
            load_daily_prices(src)

    def test_empty_file(self):
        with pytest.raises(ParseError, match="missing header"):
            load_daily_prices(_csv(""))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("date,close\n2006-01-04,1.0\r2006-01-05,2.0\n", 2),
            ("# a note\ndate,close\r2006-01-04,1.0\n", 2),
        ],
        ids=["body", "header"],
    )
    def test_bare_carriage_return_is_a_parse_error(self, text, line):
        # a text stream does not end a line at a lone "\r"; the CSV reader
        # rejects the row
        with pytest.raises(ParseError, match="new-line character") as err:
            load_daily_prices(_csv(text))
        assert err.value.line == line


class TestTickLoader:
    def test_round_trip_and_sorting(self):
        src = _csv(
            "timestamp,price\n"
            "2006-06-05T09:01:00,101.0\n"
            "2006-06-05T09:00:00,100.0\n"
        )
        ticks = load_ticks(src)
        assert len(ticks) == 2
        assert ticks.prices[0] == 100.0
        assert ticks.times[0] == np.datetime64("2006-06-05T09:00:00", "us")

    def test_bad_timestamp(self):
        with pytest.raises(ParseError, match="line 2"):
            load_ticks(_csv("timestamp,price\nyesterday,1.0\n"))

    def test_line_numbers_count_physical_lines(self):
        # the quoted price on line 2 runs on to line 3
        src = _csv(
            'timestamp,price\n"2006-06-05T09:30:00","100.5\n"\n'
            "2006-06-05T09:31:00,abc\n"
        )
        with pytest.raises(ParseError) as err:
            load_ticks(src)
        assert err.value.line == 4

    def test_comment_opening_a_quote_keeps_line_numbers(self):
        src = _csv('# data = a,"b.csv\ntimestamp,price\nyesterday,1.0\n')
        with pytest.raises(ParseError, match="line 3"):
            load_ticks(src)

    def test_non_positive_price(self):
        with pytest.raises(ValidationError):
            load_ticks(_csv("timestamp,price\n2006-06-05T09:00:00,0.0\n"))

    def test_decreasing_times_rejected_in_type(self):
        t = np.array(
            ["2006-06-05T09:01:00", "2006-06-05T09:00:00"], dtype="datetime64[us]"
        )
        with pytest.raises(ValidationError, match="non-decreasing"):
            TickSeries(t, np.array([1.0, 2.0]))


class TestBinarySources:
    # the caller's binary stream is read through a text wrapper, which must
    # not close it
    @pytest.mark.parametrize(
        "load, raw",
        [
            (load_daily_prices, b"date,close\n2006-01-02,2500\n2006-01-03,2501\n"),
            (load_ticks, b"timestamp,price\n2006-06-05T09:00:00,100.0\n"),
            (
                SessionCalendar.from_json,
                b'{"weekday_sessions": {"mon": [["09:00", "15:00"]]}}',
            ),
        ],
        ids=["daily", "ticks", "calendar"],
    )
    def test_left_open(self, load, raw):
        stream = io.BytesIO(raw)
        load(stream)
        assert not stream.closed

    @pytest.mark.parametrize(
        "load, raw",
        [
            (load_daily_prices, b"date,close\n2006-01-02,\xff\n"),
            (load_ticks, b"timestamp,price\nyesterday,1.0\n"),
        ],
        ids=["daily-not-utf8", "ticks-bad-row"],
    )
    def test_left_open_after_a_parse_error(self, load, raw):
        stream = io.BytesIO(raw)
        with pytest.raises(ParseError):
            load(stream)
        assert not stream.closed


class TestReturns:
    def test_log_returns(self):
        series = DailyPriceSeries(
            (date(2006, 1, 4), date(2006, 1, 5), date(2006, 1, 6)),
            np.array([100.0, 110.0, 99.0]),
        )
        rets = daily_log_returns(series)
        assert rets.dates == (date(2006, 1, 5), date(2006, 1, 6))
        np.testing.assert_allclose(
            rets.values, [np.log(1.1), np.log(99.0 / 110.0)], rtol=1e-12
        )
        assert rets.mean == pytest.approx(rets.values.mean())

    def test_needs_two_closes(self):
        series = DailyPriceSeries((date(2006, 1, 4),), np.array([100.0]))
        with pytest.raises(InsufficientDataError):
            daily_log_returns(series)

    def test_sample_variance_is_unbiased_form(self):
        rets = daily_log_returns(
            DailyPriceSeries(
                tuple(date(2006, 1, d) for d in (4, 5, 6, 9)),
                np.array([1.0, 1.1, 1.05, 1.2]),
            )
        )
        assert rets.sample_variance() == pytest.approx(rets.values.var(ddof=1))


class TestCalendar:
    def test_tokyo_day(self):
        cal = SessionCalendar.tokyo()
        sessions = cal.sessions_for(date(2006, 6, 5))  # a Monday
        assert sessions == [
            (datetime(2006, 6, 5, 9, 0), datetime(2006, 6, 5, 11, 0)),
            (datetime(2006, 6, 5, 12, 30), datetime(2006, 6, 5, 15, 0)),
        ]
        assert cal.sessions_for(date(2006, 6, 3)) == []  # Saturday

    def test_holidays(self):
        cal = SessionCalendar(
            SessionCalendar.tokyo().weekday_sessions,
            holidays={date(2006, 6, 5)},
        )
        assert cal.sessions_for(date(2006, 6, 5)) == []
        assert cal.is_trading_day(date(2006, 6, 6))

    def test_json_round_trip(self):
        cal = SessionCalendar.tokyo()
        doc = cal.to_json_dict()
        again = SessionCalendar.from_json(json.loads(json.dumps(doc)))
        assert again == cal

    def test_from_json_stream(self):
        doc = {
            "weekday_sessions": {"mon": [["09:30", "16:00"]]},
            "holidays": ["2006-07-04"],
        }
        cal = SessionCalendar.from_json(io.StringIO(json.dumps(doc)))
        assert cal.is_trading_day(date(2006, 7, 3))
        assert not cal.is_trading_day(date(2006, 7, 4))  # holiday, a Tuesday anyway
        assert not cal.is_trading_day(date(2006, 7, 5))

    def test_overlapping_sessions_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            SessionCalendar({0: ((time(9, 0), time(12, 0)), (time(11, 0), time(15, 0)))})

    def test_open_after_close_rejected(self):
        with pytest.raises(ValidationError):
            SessionCalendar({0: ((time(15, 0), time(9, 0)),)})

    def test_bad_json(self):
        with pytest.raises(ParseError):
            SessionCalendar.from_json(io.StringIO("{not json"))

    def test_trading_days_skip_weekends(self):
        cal = SessionCalendar.tokyo()
        days = cal.trading_days(date(2006, 6, 2), 3)  # Friday start
        assert days == [date(2006, 6, 2), date(2006, 6, 5), date(2006, 6, 6)]

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 40, 400])
    @pytest.mark.parametrize("start", [date(2006, 1, 2), date(2006, 1, 7)])
    def test_trading_days_match_day_by_day_walk(self, start, count):
        # a Wednesday and a Saturday, holidays in a run and on a Saturday
        sessions = ((time(9, 0), time(11, 0)),)
        holidays = {date(2006, 1, 3) + timedelta(days=k) for k in (0, 1, 2, 11)}
        holidays |= {date(2006, 2, 4), date(2005, 12, 30)}
        cal = SessionCalendar({2: sessions, 5: sessions}, holidays)
        walk, day = [], start
        while len(walk) < count:
            if cal.is_trading_day(day):
                walk.append(day)
            day += timedelta(days=1)
        days = cal.trading_days(start, count)
        assert days == walk
        assert all(type(d) is date for d in days)

    def test_trading_days_without_a_trading_weekday(self):
        cal = SessionCalendar({})
        with pytest.raises(DomainError, match="no trading weekday"):
            cal.trading_days(date(2006, 1, 2), 1)
        assert cal.trading_days(date(2006, 1, 2), 0) == []

    def test_trading_days_count_validated(self):
        with pytest.raises(DomainError, match="non-negative"):
            SessionCalendar.tokyo().trading_days(date(2006, 1, 2), -1)


def _make_ticks(rows):
    times = np.array([np.datetime64(t, "us") for t, _ in rows])
    prices = np.array([p for _, p in rows], dtype=float)
    return TickSeries(times, prices)


class TestResampling:
    def test_previous_tick_semantics(self):
        cal = SessionCalendar({0: ((time(9, 0), time(9, 2)),)})
        ticks = _make_ticks(
            [
                ("2006-06-05T08:59:30", 100.0),
                ("2006-06-05T09:00:45", 101.0),
                ("2006-06-05T09:01:30", 102.0),
            ]
        )
        grid = resample_grid(ticks, cal, 60.0)
        assert [day for day, _ in grid_sessions(grid)] == [date(2006, 6, 5)]
        (prices,) = grid_sessions(grid)[0][1]
        # instants 09:00, 09:01, 09:02 take the last tick at or before each
        np.testing.assert_allclose(prices, np.log([100.0, 101.0, 102.0]))

    def test_grid_count_follows_session_length(self):
        cal = SessionCalendar.tokyo()
        rows = [("2006-06-05T08:00:00", 100.0), ("2006-06-05T15:30:00", 101.0)]
        grid = resample_grid(_make_ticks(rows), cal, 60.0)
        a, b = grid_sessions(grid)[0][1]
        assert a.shape[0] == 121  # 2 h at 60 s
        assert b.shape[0] == 151  # 2.5 h at 60 s

    def test_grid_ends_at_session_close(self):
        cal = SessionCalendar.tokyo()
        rows = [("2006-06-05T08:00:00", 100.0), ("2006-06-05T14:45:00", 110.0)]
        grid = resample_grid(_make_ticks(rows), cal, 3600.0)
        a, b = grid_sessions(grid)[0][1]
        np.testing.assert_allclose(a, np.log([100.0] * 3))  # 09:00, 10:00, 11:00
        # 12:30, 13:30, 14:30, then the close at 15:00 sees the 14:45 tick
        np.testing.assert_allclose(b, np.log([100.0, 100.0, 100.0, 110.0]))

    def test_session_shorter_than_delta_gives_one_return(self):
        cal = SessionCalendar.tokyo()
        rows = [("2006-06-05T08:00:00", 100.0), ("2006-06-05T15:30:00", 101.0)]
        grid = resample_grid(_make_ticks(rows), cal, 6 * 3600.0)
        for session in grid_sessions(grid)[0][1]:
            assert session.shape[0] == 2

    def test_day_without_ticks_skipped_and_reported(self, caplog):
        cal = SessionCalendar.tokyo()
        rows = [
            ("2006-06-05T08:30:00", 100.0),
            ("2006-06-07T09:30:00", 102.0),
        ]
        with caplog.at_level("WARNING", logger="regarch.data"):
            grid = resample_grid(_make_ticks(rows), cal, 300.0)
        assert grid.skipped_days == [date(2006, 6, 6)]
        assert [day for day, _ in grid_sessions(grid)] == [date(2006, 6, 5), date(2006, 6, 7)]
        assert "skipped 1 day" in caplog.text

    def test_open_before_first_tick_skips_day(self):
        cal = SessionCalendar.tokyo()
        # first tick after the morning session open: no previous price exists
        rows = [("2006-06-05T09:30:00", 100.0), ("2006-06-06T08:00:00", 101.0)]
        grid = resample_grid(_make_ticks(rows), cal, 300.0)
        assert date(2006, 6, 5) in grid.skipped_days

    def test_carry_across_days(self):
        cal = SessionCalendar.tokyo()
        # Tuesday has a pre-open tick only via Monday's close
        rows = [
            ("2006-06-05T08:00:00", 100.0),
            ("2006-06-06T10:00:00", 105.0),
        ]
        grid = resample_grid(_make_ticks(rows), cal, 3600.0)
        day, sessions = grid_sessions(grid)[1]
        assert day == date(2006, 6, 6)
        first_session = sessions[0]
        np.testing.assert_allclose(
            first_session, np.log([100.0, 105.0, 105.0])
        )

    def test_bad_delta(self):
        ticks = _make_ticks([("2006-06-05T09:30:00", 100.0)])
        with pytest.raises(DomainError):
            resample_grid(ticks, SessionCalendar.tokyo(), 0.0)

    def test_no_ticks(self):
        ticks = TickSeries(np.array([], dtype="datetime64[us]"), np.array([]))
        with pytest.raises(InsufficientDataError):
            resample_grid(ticks, SessionCalendar.tokyo(), 60.0)

    @pytest.mark.parametrize("delta", [1e13, 1e300])
    def test_period_beyond_int64_gives_one_return_per_session(self, delta):
        # a period of a session or more samples only [open, close], as 1e12
        # s does; in microseconds 1e13 s no longer fits in int64
        rows = [
            ("2006-06-05T08:00:00", 100.0),
            ("2006-06-05T10:00:00", 101.0),
            ("2006-06-05T14:00:00", 99.0),
            ("2006-06-06T09:30:00", 102.0),
            ("2006-06-06T13:00:00", 100.5),
        ]
        ticks, cal = _make_ticks(rows), SessionCalendar.tokyo()
        long, longer = rv_from_ticks(ticks, cal, 1e12), rv_from_ticks(ticks, cal, delta)
        assert longer.dates == long.dates
        np.testing.assert_array_equal(longer.values, long.values)


class TestIntradayReturns:
    def test_returns_never_span_sessions(self):
        cal = SessionCalendar.tokyo()
        # the only price move happens inside the lunch break
        rows = [
            ("2006-06-05T08:00:00", 100.0),
            ("2006-06-05T12:00:00", 90.0),
        ]
        grid = resample_grid(_make_ticks(rows), cal, 1800.0)
        ((pos, rets),) = grid.day_returns()
        assert grid.dates[pos] == date(2006, 6, 5)
        a, b = grid_sessions(grid)[0][1]
        assert rets.shape[0] == (a.shape[0] - 1) + (b.shape[0] - 1)
        # the drop over lunch, log(90/100), lands in no return
        np.testing.assert_array_equal(rets, np.zeros_like(rets))

    def test_counts(self):
        cal = SessionCalendar.tokyo()
        rows = [("2006-06-05T08:00:00", 100.0), ("2006-06-05T15:30:00", 101.0)]
        grid = resample_grid(_make_ticks(rows), cal, 60.0)
        ((_, rets),) = grid.day_returns()
        assert rets.shape[0] == 270  # 120 + 150 one-minute returns


class TestDailyClosesFromTicks:
    def test_last_trading_day_price_wins(self):
        cal = SessionCalendar.tokyo()
        ticks = _make_ticks(
            [
                ("2006-06-05T09:30:00", 100.0),
                ("2006-06-05T14:59:00", 104.0),
                ("2006-06-10T10:00:00", 999.0),  # Saturday: ignored
                ("2006-06-12T09:10:00", 106.0),
            ]
        )
        series = daily_closes_from_ticks(ticks, cal)
        assert series.dates == (date(2006, 6, 5), date(2006, 6, 12))
        np.testing.assert_allclose(series.closes, [104.0, 106.0])

    @staticmethod
    def _per_day_closes(ticks, calendar):
        """The loop over each day with ticks, asking the calendar about each."""
        days = ticks.times.astype("datetime64[D]")
        dates, closes = [], []
        for day64 in np.unique(days):
            day = day64.astype(date)
            if not calendar.is_trading_day(day):
                continue
            end = np.searchsorted(days, day64, side="right") - 1
            dates.append(day)
            closes.append(ticks.prices[end])
        return tuple(dates), np.array(closes)

    @pytest.mark.parametrize(
        "cal",
        [
            SessionCalendar.tokyo(),
            SessionCalendar(
                {
                    0: ((time(9, 0), time(11, 0)), (time(12, 30), time(15, 0))),
                    2: ((time(10, 0), time(14, 0)),),
                    5: ((time(9, 0), time(11, 0)),),
                },
                holidays={date(2006, 6, 12), date(2006, 6, 21), date(2006, 7, 1)},
            ),
        ],
        ids=["tokyo", "custom"],
    )
    def test_matches_per_day_loop(self, cal):
        rng = np.random.default_rng(4)
        # ticks on every day of the week, some days without any, holidays
        days = np.datetime64("2006-06-01") + np.sort(rng.choice(45, 30, replace=False))
        times = np.sort(
            days.repeat(5).astype("datetime64[us]")
            + rng.integers(0, 86_400_000_000, 150).astype("timedelta64[us]")
        )
        ticks = TickSeries(times, rng.uniform(90.0, 110.0, 150))
        series = daily_closes_from_ticks(ticks, cal)
        dates, closes = self._per_day_closes(ticks, cal)
        assert series.dates == dates
        assert series.closes.tolist() == closes.tolist()
        tick_days = set(days.tolist())
        assert {date(2006, 6, 12), date(2006, 6, 21)} <= tick_days  # holidays
        assert any(d.weekday() == 6 for d in tick_days)

    def test_no_trading_day(self):
        ticks = _make_ticks([("2006-06-10T10:00:00", 999.0)])  # a Saturday
        with pytest.raises(InsufficientDataError, match="no ticks on trading days"):
            daily_closes_from_ticks(ticks, SessionCalendar.tokyo())


def _reference_cell(value):
    if isinstance(value, date):
        return value.isoformat()
    if isinstance(value, np.datetime64):
        return str(value)
    return repr(float(value))


def _reference_csv(header, columns, comments=()):
    """The same file written row by row with ``csv.writer``."""
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([_reference_cell(v) for v in row])
    return buf.getvalue()


def _columns(n):
    rng = np.random.default_rng(n)
    dates = tuple(date(2006, 1, 2) + timedelta(days=i) for i in range(n))
    times = np.datetime64("2006-01-02T09:00:00.000001", "us") + np.arange(
        n
    ) * np.timedelta64(1_234_567, "us")
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
    values[:4] = [np.nan, np.inf, -0.0, 1e-5]
    return dates, times, values, [float(v) for v in range(n)]


_HEADER = ("date", "timestamp", "value", "index")


class TestWriteCsv:
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundaries_match_reference(self, offset):
        columns = _columns(data._CSV_CHUNK_ROWS + offset)
        buf = io.StringIO()
        write_csv(buf, _HEADER, columns, comments=("a = 1", "b = x,y"))
        assert buf.getvalue() == _reference_csv(_HEADER, columns, ("a = 1", "b = x,y"))

    def test_short_file_matches_reference(self):
        columns = _columns(5)
        buf = io.StringIO()
        write_csv(buf, _HEADER, columns)
        assert buf.getvalue() == _reference_csv(_HEADER, columns)

    def test_no_rows(self):
        buf = io.StringIO()
        write_csv(buf, ("date", "close"), ((), []), comments=("x",))
        assert buf.getvalue() == "# x\ndate,close\n"

    def test_path_and_stream_give_same_bytes(self, tmp_path):
        columns = _columns(2 * data._CSV_CHUNK_ROWS + 1)
        path = tmp_path / "out.csv"
        write_csv(path, _HEADER, columns, comments=("seed = 3",))
        buf = io.StringIO()
        write_csv(buf, _HEADER, columns, comments=("seed = 3",))
        assert path.read_bytes() == buf.getvalue().encode("utf-8")

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValidationError):
            write_csv(io.StringIO(), ("a", "b"), ([1.0, 2.0], [1.0]))
        with pytest.raises(ValidationError):
            write_csv(io.StringIO(), ("a", "b"), ([1.0],))

    def test_comment_line_breaks_stay_comments(self):
        # every physical line of a comment gets its own "# "
        buf = io.StringIO()
        write_csv(buf, ("a",), ([1.0],), comments=("x = a\nb", "y = c\r\nd\re", ""))
        assert buf.getvalue() == "# x = a\n# b\n# y = c\n# d\n# e\n# \na\n1.0\n"

    def test_daily_comment_with_line_break_round_trips(self, tmp_path):
        prices = DailyPriceSeries(
            (date(2006, 1, 4), date(2006, 1, 5)), np.array([100.0, 101.5])
        )
        path = tmp_path / "daily.csv"
        write_daily_csv(prices, path, comments=["data = a\nb", "cal = c\r\nd\re"])
        again = load_daily_prices(path)
        assert again.dates == prices.dates
        np.testing.assert_array_equal(again.closes, prices.closes)

    def test_tick_comment_with_line_break_round_trips(self, tmp_path):
        ticks = _make_ticks(
            [("2006-06-05T09:00:00.5", 100.0), ("2006-06-05T09:01:00", 100.25)]
        )
        path = tmp_path / "ticks.csv"
        write_ticks_csv(ticks, path, comments=["data = a\nb", "cal = c\r\nd\re"])
        again = load_ticks(path)
        np.testing.assert_array_equal(again.times, ticks.times)
        np.testing.assert_array_equal(again.prices, ticks.prices)

    @pytest.mark.parametrize("kind", ["daily", "ticks"])
    def test_comment_opening_a_quote_round_trips(self, tmp_path, kind):
        # a path holding ',"' is recorded as a comment
        comments = ['data = a,"b.csv', 'cal = "c,",d']
        path = tmp_path / f"{kind}.csv"
        if kind == "daily":
            prices = DailyPriceSeries(
                (date(2006, 1, 4), date(2006, 1, 5)), np.array([100.0, 101.5])
            )
            write_daily_csv(prices, path, comments=comments)
            again = load_daily_prices(path)
            assert again.dates == prices.dates
            np.testing.assert_array_equal(again.closes, prices.closes)
        else:
            ticks = _make_ticks(
                [("2006-06-05T09:00:00.5", 100.0), ("2006-06-05T09:01:00", 100.25)]
            )
            write_ticks_csv(ticks, path, comments=comments)
            again = load_ticks(path)
            np.testing.assert_array_equal(again.times, ticks.times)
            np.testing.assert_array_equal(again.prices, ticks.prices)


_FORK_ROWS = data._CSV_FORK_CHUNKS * data._CSV_CHUNK_ROWS


class TestForkedCsvWriter:
    """A file of ``_CSV_FORK_CHUNKS`` chunks or more is formatted on two
    cores; nothing but the wall time may tell."""

    @pytest.mark.parametrize("to_path", [False, True], ids=["stream", "path"])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("chunks", [-1, 0, 1])
    def test_matches_reference(self, tmp_path, chunks, offset, to_path):
        rows = (data._CSV_FORK_CHUNKS + chunks) * data._CSV_CHUNK_ROWS + offset
        columns = _columns(rows)
        expected = _reference_csv(_HEADER, columns, ("seed = 3",))
        if to_path:
            write_csv(tmp_path / "out.csv", _HEADER, columns, comments=("seed = 3",))
            assert (tmp_path / "out.csv").read_bytes() == expected.encode("utf-8")
        else:
            buf = io.StringIO()
            write_csv(buf, _HEADER, columns, comments=("seed = 3",))
            assert buf.getvalue() == expected
        _no_child_left()

    @pytest.mark.parametrize("rows, forks", [(_FORK_ROWS - 1, 0), (_FORK_ROWS, 1)])
    def test_forks_once_from_the_threshold(self, rows, forks):
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            write_csv(io.StringIO(), _HEADER, _columns(rows))
        assert fork.call_count == forks
        _no_child_left()

    def test_child_stopping_early_keeps_the_bytes(self):
        # the child sends its first chunk and exits; this process formats
        # every chunk from the one the child left unsent
        columns = _columns(_FORK_ROWS)
        parent, real_rows, calls = os.getpid(), data._csv_rows, []

        def rows(columns, lo):
            if os.getpid() != parent and calls:  # the child's own copy of calls
                os._exit(3)
            calls.append(lo)
            return real_rows(columns, lo)

        buf = io.StringIO()
        with mock.patch.object(data, "_csv_rows", side_effect=rows):
            write_csv(buf, _HEADER, columns)
        assert buf.getvalue() == _reference_csv(_HEADER, columns)
        assert len(calls) == data._CSV_FORK_CHUNKS - 1
        _no_child_left()

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failing_target_stops_the_child(self, error):
        class Target(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes == 3:  # the first chunk, after comments and header
                    raise error("disk full")
                return super().write(text)

        began = clock.monotonic()
        with pytest.raises(error, match="disk full"):
            write_csv(Target(), _HEADER, _columns(4 * _FORK_ROWS))
        assert clock.monotonic() - began < 30
        _no_child_left()

    def test_same_bytes_without_fork(self, monkeypatch):
        columns = _columns(_FORK_ROWS + 1)
        monkeypatch.delattr(os, "fork")
        buf = io.StringIO()
        write_csv(buf, _HEADER, columns)
        assert buf.getvalue() == _reference_csv(_HEADER, columns)

    def test_same_bytes_when_fork_fails(self):
        columns = _columns(_FORK_ROWS + 1)
        buf = io.StringIO()
        with mock.patch.object(os, "fork", side_effect=BlockingIOError(11, "no pid")):
            write_csv(buf, _HEADER, columns)
        assert buf.getvalue() == _reference_csv(_HEADER, columns)
        _no_child_left()


def _row_load_ticks(source):
    """The row-by-row tick loader: csv.reader, fromisoformat and float per row."""
    if isinstance(source, (str, Path)):
        stream, should_close = open(source, "r", newline="", encoding="utf-8"), True
    elif isinstance(source, io.TextIOBase):
        stream, should_close = source, False
    else:
        stream, should_close = io.TextIOWrapper(source, encoding="utf-8"), False
    times, prices = [], []
    try:
        header = None
        reader = csv.reader(stream)
        read = 0
        try:
            for row in reader:
                # a row's number is the physical line it starts on
                lineno, read = read + 1, reader.line_num
                if not row or (row[0].startswith("#") and header is None):
                    continue
                if header is None:
                    header = [c.strip().lower() for c in row]
                    if header != ["timestamp", "price"]:
                        raise ParseError(
                            f"expected header 'timestamp,price', got {','.join(row)!r}",
                            line=lineno,
                        )
                    continue
                if len(row) != 2:
                    raise ParseError(f"expected 2 fields, got {len(row)}", line=lineno)
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
        except csv.Error as exc:  # a bare carriage return in a text stream
            reason = str(exc).partition(" - ")[0]
            raise ParseError(
                f"malformed CSV row: {reason}", line=reader.line_num
            ) from exc
        if header is None:
            raise ParseError("empty file, missing header")
    finally:
        if should_close:
            stream.close()
    times = np.array(times, dtype="datetime64[us]")
    prices = np.array(prices, dtype=np.float64)
    order = np.argsort(times, kind="stable")
    return TickSeries(times[order], prices[order])


def _outcome(load, make_source):
    """What ``load`` gives: its arrays as integers, or its error; and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ticks = load(make_source())
            result = (
                ticks.times.view(np.int64).tolist(),
                ticks.prices.view(np.int64).tolist(),
            )
        except (ParseError, ValidationError, csv.Error) as exc:
            result = (type(exc), str(exc), getattr(exc, "line", None))
    return result, [(w.category, str(w.message)) for w in caught]


def _good_rows(n, start=0):
    rng = np.random.default_rng(start)
    base = np.datetime64("2006-06-05T09:00:00", "us")
    stamps = base + (start + np.arange(n)) * np.timedelta64(61_234_567, "us")
    return [
        f"{t},{p!r}"
        for t, p in zip(
            np.datetime_as_string(stamps, unit="us").tolist(),
            (100.0 * np.exp(rng.standard_normal(n) * 0.01)).tolist(),
        )
    ]


# one line each, put among well-formed rows; the tick loader must treat each
# exactly as the row parser does
_ODD_LINES = {
    "comment": "# a note",
    "comment_with_comma": "# a,b",
    "blank": "",
    "space_separator": "2006-06-05 09:30:00,100.5",
    "date_only": "2006-06-06,100.5",
    "hour_only": "2006-06-05T10,100.5",
    "minutes": "2006-06-05T10:07,100.5",
    "fraction_0": "2006-06-05T09:30:01,100.5",
    "fraction_1": "2006-06-05T09:30:01.1,100.5",
    "fraction_3": "2006-06-05T09:30:01.123,100.5",
    "fraction_6": "2006-06-05T09:30:01.123456,100.5",
    "fraction_7": "2006-06-05T09:30:01.1234567,100.5",
    "offset_plus": "2006-06-05T09:30:00+09:00,100.5",
    "offset_minus": "2006-06-05T09:30:00-05:00,100.5",
    "offset_z": "2006-06-05T09:30:00Z,100.5",
    "basic_format": "20060605T093000,100.5",
    "lower_case_t": "2006-06-05t09:30:00,100.5",
    "fractional_minutes": "2006-06-05T09:30.5,100.5",
    "quoted": '"2006-06-05T09:30:00","100.5"',
    "quoted_comma": '"2006-06-05T09:30:00","1,5"',
    "quoted_newline": '"2006-06-05T09:30:00","100.5\n"',
    "whitespace": "  2006-06-05T09:30:00 , 100.5 ",
    "tab": "\t2006-06-05T09:30:00\t,\t100.5",
    "underscore_price": "2006-06-05T09:30:00,1_000",
    "arabic_digit_price": "2006-06-05T09:30:00,١٠٠",
    "exponent_price": "2006-06-05T09:30:00,1.005e2",
    "equal_timestamp": "2006-06-05T09:00:00.000000,99.0",
    "earliest": "2006-06-01T00:00:00,99.0",
    "bad_timestamp": "yesterday,100.5",
    "now": "now,100.5",
    "today": "today,100.5",
    "nat": "NaT,100.5",
    "year_only": "2006,100.5",
    "year_month": "2006-06,100.5",
    "year_zero": "0000-01-01,100.5",
    "trailing_dot": "2006-06-05T09:30:00.,100.5",
    "leap_second": "2006-06-05T23:59:60,100.5",
    "hour_24": "2006-06-05T24:00:00,100.5",
    "empty_timestamp": ",100.5",
    "bad_price": "2006-06-05T09:30:00,abc",
    "empty_price": "2006-06-05T09:30:00,",
    "zero_price": "2006-06-05T09:30:00,0.0",
    "negative_price": "2006-06-05T09:30:00,-1.0",
    "nan_price": "2006-06-05T09:30:00,nan",
    "inf_price": "2006-06-05T09:30:00,inf",
    "one_field": "2006-06-05T09:30:00",
    "three_fields": "2006-06-05T09:30:00,100.5,7",
    "bare_carriage_return": "2006-06-05T09:30:00,100.5\r2006-06-05T09:31:00,100.6",
    "nul": "2006-06-05T09:30:00\x00,100.5",
}


class TestTickLoaderMatchesRowParser:
    """``load_ticks`` against ``_row_load_ticks``, with chunks of a few lines."""

    @pytest.fixture(params=[30, 100, 1 << 16], ids=["chunk30", "chunk100", "default"])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(data, "_PARSE_CHUNK_CHARS", request.param)
        return request.param

    def _check(self, text):
        fast = _outcome(load_ticks, lambda: io.StringIO(text))
        assert fast == _outcome(_row_load_ticks, lambda: io.StringIO(text))
        return fast

    @pytest.mark.parametrize("name", sorted(_ODD_LINES))
    def test_odd_line(self, chunk, name):
        # the odd line first, second, mid-file and last, so that with small
        # chunks it falls on either side of a chunk boundary
        for at in (0, 1, 5, 12):
            rows = _good_rows(12)
            rows.insert(at, _ODD_LINES[name])
            text = "# seed = 1\ntimestamp,price\n" + "\n".join(rows) + "\n"
            _, caught = self._check(text)
            if "offset" not in name:
                assert caught == []

    def test_line_numbers_after_a_quoted_newline(self, chunk):
        # the quoted record spans two lines, so the bad last row, record
        # len(rows) + 1 counting the header, is on line len(rows) + 2
        for at in (0, 5, 11):
            rows = _good_rows(12)
            rows.insert(at, _ODD_LINES["quoted_newline"])
            rows.append(_ODD_LINES["bad_price"])
            (_, _, line), _ = self._check("timestamp,price\n" + "\n".join(rows) + "\n")
            assert line == len(rows) + 2

    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_line_endings_and_last_line(self, chunk, ending):
        rows = ["timestamp,price", *_good_rows(20)]
        self._check(ending.join(rows) + ending)
        self._check(ending.join(rows))  # no newline after the last row

    def test_unsorted_and_equal_timestamps_keep_file_order(self, chunk):
        rows = _good_rows(15)
        rows = rows[7:] + rows[:7] + [rows[3].split(",")[0] + ",1.5"] * 3
        (times, prices), _ = self._check("timestamp,price\n" + "\n".join(rows) + "\n")
        assert prices.count(np.float64(1.5).view(np.int64)) == 3

    def test_header_only_and_empty(self, chunk):
        self._check("timestamp,price\n")
        self._check("# only a comment\n")
        self._check("")
        self._check("time,price\n2006-06-05T09:30:00,1.0\n")

    def test_path_binary_and_text_sources(self, chunk, tmp_path):
        rows = _good_rows(30)
        rows[10] = _ODD_LINES["quoted_newline"]
        text = "# x\r\ntimestamp,price\r\n" + "\r\n".join(rows) + "\r\n"
        path = tmp_path / "ticks.csv"
        path.write_bytes(text.encode("utf-8"))
        reference = _outcome(_row_load_ticks, lambda: path)
        assert _outcome(load_ticks, lambda: path) == reference
        assert _outcome(load_ticks, lambda: str(path)) == reference
        raw = text.encode("utf-8")
        assert _outcome(load_ticks, lambda: io.BytesIO(raw)) == _outcome(
            _row_load_ticks, lambda: io.BytesIO(raw)
        )

    def test_written_file_takes_the_columnar_path(self, monkeypatch):
        ticks = TickSeries(
            np.datetime64("2006-06-05T09:00:00", "us")
            + np.arange(5000) * np.timedelta64(1_234_567, "us"),
            np.linspace(100.0, 120.0, 5000),
        )
        buf = io.StringIO()
        data.write_ticks_csv(ticks, buf, comments=("seed = 3",))
        monkeypatch.setattr(data, "_row_ticks", None)  # any fallback would fail
        again = load_ticks(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(again.times, ticks.times)
        np.testing.assert_array_equal(again.prices, ticks.prices)


class TestSplitTickReader:
    """A tick file of ``_TICK_FORK_CHUNKS`` chunks or more is read on two
    cores; nothing but the wall time may tell.  Chunks of 200 characters
    and a threshold of one chunk split files of a few dozen lines."""

    @pytest.fixture(autouse=True)
    def small_split(self, monkeypatch):
        monkeypatch.setattr(data, "_PARSE_CHUNK_CHARS", 200)
        monkeypatch.setattr(data, "_TICK_FORK_CHUNKS", 1)

    def _check(self, path, monkeypatch):
        """The outcome of the split reader on ``path``, which must match the
        one-process reader and the row parser without a warning, and the
        lines this process converted column by column."""
        parent, real_columnar, parsed = os.getpid(), data._columnar_ticks, []

        def columnar(lines):
            if os.getpid() == parent:
                parsed.extend(lines)
            return real_columnar(lines)

        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            with mock.patch.object(data, "_columnar_ticks", side_effect=columnar):
                split = _outcome(load_ticks, lambda: path)
        assert fork.call_count == 1
        assert split == _outcome(_row_load_ticks, lambda: path)
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            assert split == _outcome(load_ticks, lambda: path)
        result, caught = split
        assert caught == []
        return result, parsed

    @staticmethod
    def _write(path, rows, header="timestamp,price\n", ending="\n"):
        path.write_bytes((header + ending.join(rows) + ending).encode("utf-8"))
        return path

    def test_good_file_takes_the_childs_half(self, tmp_path, monkeypatch):
        path = self._write(tmp_path / "ticks.csv", _good_rows(40))
        (times, _), parsed = self._check(path, monkeypatch)
        assert len(times) == 40
        assert 0 < len(parsed) < 40
        _no_child_left()

    def test_quoted_field_spanning_the_split(self, tmp_path, monkeypatch):
        # the quoted record is put at every row in turn, so that for some
        # row the first line break after the middle is the one it quotes
        spans = []
        for at in range(30):
            rows = _good_rows(30)
            rows.insert(at, _ODD_LINES["quoted_newline"])
            path = self._write(tmp_path / "ticks.csv", rows)
            raw = path.read_bytes()
            header = len("timestamp,price\n")
            split = raw.index(b"\n", (header + len(raw)) // 2) + 1
            spans.append(raw[split - 2 : split + 1] == b'5\n"')
            (times, _), _ = self._check(path, monkeypatch)
            assert len(times) == 31
        assert any(spans)
        _no_child_left()

    def test_comments_and_non_ascii_header(self, tmp_path, monkeypatch):
        # the split is found in bytes: a header counted in characters would
        # put this process's end past the split, and the child's half unused
        header = "# seed = 1\n# a café, «naïve»\n\n# a,b\ntimestamp,price\n"
        path = self._write(tmp_path / "ticks.csv", _good_rows(40), header)
        (times, _), parsed = self._check(path, monkeypatch)
        assert len(times) == 40
        assert 0 < len(parsed) < 40
        _no_child_left()

    def test_crlf_and_a_middle_between_cr_and_lf(self, tmp_path, monkeypatch):
        # a comment one byte longer at a time moves the middle of the body
        # across every byte of a line
        between = []
        for pad in range(45):
            header = f"# {'x' * pad}\r\ntimestamp,price\r\n"
            path = self._write(tmp_path / "ticks.csv", _good_rows(40), header, "\r\n")
            raw = path.read_bytes()
            middle = (len(header) + len(raw)) // 2
            between.append(raw[middle - 1 : middle + 1] == b"\r\n")
            (times, _), parsed = self._check(path, monkeypatch)
            assert len(times) == 40
            assert 0 < len(parsed) < 40
        assert any(between)
        _no_child_left()

    @pytest.mark.parametrize("name", ["bad_price", "bad_timestamp", "three_fields"])
    @pytest.mark.parametrize("at", [10, 30, 39])
    def test_bad_row_on_either_side(self, tmp_path, monkeypatch, name, at):
        # rows 30 and 39 are in the child's half; the error and its line
        # number are this process's own
        rows = _good_rows(40)
        rows[at] = _ODD_LINES[name]
        (error, _, line), _ = self._check(
            self._write(tmp_path / "ticks.csv", rows), monkeypatch
        )
        assert error is ParseError
        assert line == at + 2
        _no_child_left()

    def test_not_utf8_in_the_childs_half(self, tmp_path, monkeypatch):
        # long enough that the bad byte is past the stream's first reads
        path = self._write(tmp_path / "ticks.csv", _good_rows(600))
        raw = bytearray(path.read_bytes())
        raw[-30] = 0xFF
        path.write_bytes(raw)
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            with pytest.raises(ParseError, match="not UTF-8 text") as split:
                load_ticks(path)
        assert fork.call_count == 1
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ParseError) as one:
            load_ticks(path)
        assert (str(split.value), split.value.line) == (str(one.value), one.value.line)
        _no_child_left()

    @pytest.mark.parametrize("frames", [0, 1])
    def test_child_exiting_early(self, tmp_path, monkeypatch, frames):
        # the child sends no complete message: it exits before its first
        # frame, or after its first message's pickle but before that array's
        # frame; this process parses the whole body itself
        def pickle_frame_only(pipe, message):
            pipe.write(_frames(message)[0])
            pipe.flush()
            os._exit(3)

        def exit_early(send, path, offset):
            os._exit(3)

        if frames:
            monkeypatch.setattr(forked, "_send", pickle_frame_only)
        else:
            monkeypatch.setattr(data, "_send_tick_half", exit_early)
        path = self._write(tmp_path / "ticks.csv", _good_rows(40))
        (times, _), parsed = self._check(path, monkeypatch)
        assert len(times) == len(parsed) == 40
        _no_child_left()

    @pytest.mark.parametrize("fork", ["missing", "failing"])
    def test_no_child_without_a_fork(self, tmp_path, monkeypatch, fork):
        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(
                os, "fork", mock.Mock(side_effect=BlockingIOError(11, "no pid"))
            )
        path = self._write(tmp_path / "ticks.csv", _good_rows(40))
        fds = sorted(os.listdir("/proc/self/fd"))
        assert _outcome(load_ticks, lambda: path) == _outcome(
            _row_load_ticks, lambda: path
        )
        assert sorted(os.listdir("/proc/self/fd")) == fds
        _no_child_left()

    @pytest.mark.parametrize("chunks, forks", [(3, 0), (2, 1)])
    def test_forks_from_the_threshold(self, tmp_path, monkeypatch, chunks, forks):
        # a body of 40 rows of about 40 bytes is 2 to 3 chunks of 800
        monkeypatch.setattr(data, "_PARSE_CHUNK_CHARS", 800)
        monkeypatch.setattr(data, "_TICK_FORK_CHUNKS", chunks)
        path = self._write(tmp_path / "ticks.csv", _good_rows(40))
        with mock.patch.object(os, "fork", wraps=os.fork) as fork:
            load_ticks(path)
            load_ticks(io.BytesIO(path.read_bytes()))
        assert fork.call_count == forks
        _no_child_left()
