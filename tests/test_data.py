import csv
import io
import json
from datetime import date, datetime, time, timedelta

import numpy as np
import pytest

from regarch import data
from regarch.data import (
    DailyPriceSeries,
    SessionCalendar,
    TickSeries,
    daily_closes_from_ticks,
    daily_log_returns,
    intraday_returns,
    load_daily_prices,
    load_ticks,
    resample_grid,
    write_csv,
)
from regarch.exceptions import (
    DomainError,
    InsufficientDataError,
    ParseError,
    ValidationError,
)


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

    def test_non_positive_price(self):
        with pytest.raises(ValidationError):
            load_ticks(_csv("timestamp,price\n2006-06-05T09:00:00,0.0\n"))

    def test_decreasing_times_rejected_in_type(self):
        t = np.array(
            ["2006-06-05T09:01:00", "2006-06-05T09:00:00"], dtype="datetime64[us]"
        )
        with pytest.raises(ValidationError, match="non-decreasing"):
            TickSeries(t, np.array([1.0, 2.0]))


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
        assert [g.day for g in grid.days] == [date(2006, 6, 5)]
        (prices,) = grid.days[0].session_log_prices
        # instants 09:00, 09:01, 09:02 take the last tick at or before each
        np.testing.assert_allclose(prices, np.log([100.0, 101.0, 102.0]))

    def test_grid_count_follows_session_length(self):
        cal = SessionCalendar.tokyo()
        rows = [("2006-06-05T08:00:00", 100.0), ("2006-06-05T15:30:00", 101.0)]
        grid = resample_grid(_make_ticks(rows), cal, 60.0)
        a, b = grid.days[0].session_log_prices
        assert a.shape[0] == 121  # 2 h at 60 s
        assert b.shape[0] == 151  # 2.5 h at 60 s

    def test_grid_ends_at_session_close(self):
        cal = SessionCalendar.tokyo()
        rows = [("2006-06-05T08:00:00", 100.0), ("2006-06-05T14:45:00", 110.0)]
        grid = resample_grid(_make_ticks(rows), cal, 3600.0)
        a, b = grid.days[0].session_log_prices
        np.testing.assert_allclose(a, np.log([100.0] * 3))  # 09:00, 10:00, 11:00
        # 12:30, 13:30, 14:30, then the close at 15:00 sees the 14:45 tick
        np.testing.assert_allclose(b, np.log([100.0, 100.0, 100.0, 110.0]))

    def test_session_shorter_than_delta_gives_one_return(self):
        cal = SessionCalendar.tokyo()
        rows = [("2006-06-05T08:00:00", 100.0), ("2006-06-05T15:30:00", 101.0)]
        grid = resample_grid(_make_ticks(rows), cal, 6 * 3600.0)
        for session in grid.days[0].session_log_prices:
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
        assert [g.day for g in grid.days] == [date(2006, 6, 5), date(2006, 6, 7)]
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
        tuesday = grid.days[1]
        assert tuesday.day == date(2006, 6, 6)
        first_session = tuesday.session_log_prices[0]
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


class TestIntradayReturns:
    def test_returns_never_span_sessions(self):
        cal = SessionCalendar.tokyo()
        # the only price move happens inside the lunch break
        rows = [
            ("2006-06-05T08:00:00", 100.0),
            ("2006-06-05T12:00:00", 90.0),
        ]
        grid = resample_grid(_make_ticks(rows), cal, 1800.0)
        (day, rets) = intraday_returns(grid)[0]
        assert day == date(2006, 6, 5)
        a, b = grid.days[0].session_log_prices
        assert rets.shape[0] == (a.shape[0] - 1) + (b.shape[0] - 1)
        # the drop over lunch, log(90/100), lands in no return
        np.testing.assert_array_equal(rets, np.zeros_like(rets))

    def test_counts(self):
        cal = SessionCalendar.tokyo()
        rows = [("2006-06-05T08:00:00", 100.0), ("2006-06-05T15:30:00", 101.0)]
        grid = resample_grid(_make_ticks(rows), cal, 60.0)
        (_, rets) = intraday_returns(grid)[0]
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
