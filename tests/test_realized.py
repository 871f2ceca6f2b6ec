"""Realized-variance oracles: hand values, HL identities, RMSPE forms."""

import io
import math
from datetime import date, datetime, time, timedelta
from pathlib import Path

import numpy as np
import pytest

from regarch import data as data_module
from regarch.data import (
    ReturnSeries,
    SessionCalendar,
    TickSeries,
    daily_closes_from_ticks,
    daily_log_returns,
    resample_grid,
)
from regarch.exceptions import DomainError, InsufficientDataError, ValidationError
from regarch.garch import VolSeries
from regarch.realized import (
    NoiseModel,
    RvSeries,
    SignatureCurve,
    hl_adjusted_rv,
    hl_factor,
    realized_variance,
    rmspe,
    rv_from_ticks,
    scale_to_daily_variance,
    signature_curve,
    write_rv_csv,
    write_signature_csv,
)
from reference import grid_sessions

# two-minute single session keeps hand-computed grids tiny
_CAL = SessionCalendar({wd: ((time(9, 0), time(9, 2)),) for wd in range(5)})
_MON = date(2006, 1, 2)


def _dates(n, start=_MON):
    return tuple(start + timedelta(days=i) for i in range(n))


def _ticks(rows):
    times = np.array([np.datetime64(t, "us") for t, _ in rows])
    return TickSeries(times, np.array([p for _, p in rows]))


def _one_day_ticks(day, prices, minutes=None):
    minutes = range(len(prices)) if minutes is None else minutes
    return [
        (datetime.combine(day, time(9, 0)) + timedelta(minutes=m), p)
        for m, p in zip(minutes, prices)
    ]


class TestRealizedVariance:
    def test_hand_value(self):
        r = np.array([0.01, -0.02, 0.005])
        assert realized_variance(r) == pytest.approx(5.25e-4, rel=1e-15)

    def test_single_return(self):
        assert realized_variance([0.03]) == pytest.approx(9e-4, rel=1e-15)

    def test_empty_day_is_zero_with_warning(self, caplog):
        with caplog.at_level("WARNING", logger="regarch.realized"):
            assert realized_variance([]) == 0.0
        assert "realized variance set to 0" in caplog.text


class TestNoiseModel:
    def test_bias_formula(self):
        assert NoiseModel(1e-6).bias(390) == 2.0 * 390 * 1e-6
        assert NoiseModel(2.5e-7).bias(78) == 2.0 * 78 * 2.5e-7

    def test_default_is_noise_free(self):
        assert NoiseModel().rho2 == 0.0
        assert NoiseModel().bias(1000) == 0.0

    @pytest.mark.parametrize("rho2", [-1e-9, math.nan, math.inf])
    def test_invalid_variance_rejected(self, rho2):
        with pytest.raises(DomainError):
            NoiseModel(rho2)


class TestRvSeries:
    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            RvSeries(_dates(3), [1e-4, 2e-4], 60.0)

    @pytest.mark.parametrize("bad", [-1e-4, math.nan, math.inf])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValidationError):
            RvSeries(_dates(2), [1e-4, bad], 60.0)

    @pytest.mark.parametrize("c", [0.0, -0.5])
    def test_nonpositive_hl_rejected(self, c):
        with pytest.raises(ValidationError):
            RvSeries(_dates(1), [1e-4], 60.0, hl_factor=c)

    def test_c_adjusted_defaults_to_identity(self):
        rv = RvSeries(_dates(2), [1e-4, 4e-4], 60.0)
        np.testing.assert_array_equal(rv.c_adjusted(), rv.values)

    def test_with_hl_scales_and_preserves_original(self):
        rv = RvSeries(_dates(2), [1e-4, 4e-4], 60.0)
        adj = rv.with_hl(2.0)
        np.testing.assert_allclose(adj.c_adjusted(), [2e-4, 8e-4], rtol=1e-15)
        assert rv.hl_factor is None
        assert adj.delta_seconds == rv.delta_seconds
        assert len(adj) == 2


class TestRvFromTicks:
    def test_hand_value_on_exact_grid(self):
        # ticks sit exactly on the 60 s grid points 09:00/09:01/09:02
        ticks = _ticks(_one_day_ticks(_MON, [100.0, 101.0, 99.5]))
        rv = rv_from_ticks(ticks, _CAL, 60.0)
        expected = math.log(101.0 / 100.0) ** 2 + math.log(99.5 / 101.0) ** 2
        assert rv.dates == (_MON,)
        assert rv.values[0] == pytest.approx(expected, rel=1e-12)
        assert rv.delta_seconds == 60.0
        assert rv.hl_factor is None

    def test_previous_tick_interpolation(self):
        # lone tick before 09:01 carries forward: price constant after it
        rows = _one_day_ticks(_MON, [100.0]) + [
            (datetime.combine(_MON, time(9, 0, 30)), 102.0)
        ]
        rv = rv_from_ticks(_ticks(rows), _CAL, 60.0)
        # grid prices 100, 102, 102 -> returns ln(1.02), 0
        assert rv.values[0] == pytest.approx(math.log(1.02) ** 2, rel=1e-12)

    def test_multiple_days(self):
        rows = _one_day_ticks(_MON, [100.0, 101.0, 99.5])
        rows += _one_day_ticks(_MON + timedelta(days=1), [99.5, 100.5, 100.0])
        rv = rv_from_ticks(_ticks(rows), _CAL, 60.0)
        assert rv.dates == _dates(2)
        assert (rv.values > 0).all()

    def test_late_move_in_short_last_interval(self):
        # at 3600 s the Tokyo afternoon grid is 12:30, 13:30, 14:30, 15:00:
        # a move at 14:45 falls in the last, half-hour return
        day = date(2006, 6, 5)
        rows = [
            (datetime.combine(day, time(8, 0)), 100.0),
            (datetime.combine(day, time(14, 45)), 110.0),
        ]
        rv = rv_from_ticks(_ticks(rows), SessionCalendar.tokyo(), 3600.0)
        assert rv.dates == (day,)
        assert rv.values[0] == pytest.approx(math.log(1.1) ** 2, rel=1e-12)

    def test_weekend_only_ticks(self):
        sat = date(2006, 1, 7)
        ticks = _ticks(_one_day_ticks(sat, [100.0, 101.0]))
        with pytest.raises(InsufficientDataError, match="no usable days"):
            rv_from_ticks(ticks, _CAL, 60.0)


class TestHlFactor:
    def test_hand_value(self):
        # zero-mean returns: centered sum of squares is 2e-4, RV sum 4e-4
        ret = ReturnSeries(_dates(2), [0.01, -0.01])
        rv = RvSeries(_dates(2), [1e-4, 3e-4], 60.0)
        assert hl_factor(ret, rv) == pytest.approx(0.5, rel=1e-15)

    def test_unit_factor_by_construction(self):
        ret = ReturnSeries(_dates(3), [0.01, -0.01, 0.02])
        centered = ret.values - ret.values.mean()
        rv = RvSeries(_dates(3), centered**2, 60.0)
        assert hl_factor(ret, rv) == pytest.approx(1.0, rel=1e-12)

    def test_homogeneity_in_rv(self):
        ret = ReturnSeries(_dates(3), [0.01, -0.02, 0.005])
        values = np.array([1e-4, 2e-4, 1.5e-4])
        c = hl_factor(ret, RvSeries(_dates(3), values, 60.0))
        c_scaled = hl_factor(ret, RvSeries(_dates(3), 4.0 * values, 60.0))
        assert c_scaled == pytest.approx(c / 4.0, rel=1e-12)

    def test_alignment_drops_unmatched_days(self):
        ret = ReturnSeries(_dates(3), [0.01, -0.01, 0.05])
        rv = RvSeries(_dates(2), [1e-4, 3e-4], 60.0)  # misses the 3rd day
        expected = hl_factor(ReturnSeries(_dates(2), [0.01, -0.01]), rv)
        assert hl_factor(ret, rv) == pytest.approx(expected, rel=1e-15)

    def test_no_overlap(self):
        ret = ReturnSeries(_dates(2), [0.01, -0.01])
        rv = RvSeries(_dates(2, start=date(2010, 1, 1)), [1e-4, 3e-4], 60.0)
        with pytest.raises(InsufficientDataError, match="no overlapping dates"):
            hl_factor(ret, rv)

    def test_zero_rv_sum(self):
        ret = ReturnSeries(_dates(2), [0.01, -0.01])
        rv = RvSeries(_dates(2), [0.0, 0.0], 60.0)
        with pytest.raises(DomainError, match="HL factor undefined"):
            hl_factor(ret, rv)


class TestScaleToDailyVariance:
    def _fixture(self):
        vols = VolSeries(_dates(4), [1e-4, 2e-4, 1.5e-4, 3e-4])
        ret = ReturnSeries(_dates(4), [0.012, -0.02, 0.004, -0.008])
        return vols, ret

    def test_mean_matches_daily_return_variance(self):
        vols, ret = self._fixture()
        scaled = scale_to_daily_variance(vols, ret)
        centered = ret.values - ret.values.mean()
        target = float(centered @ centered) / len(ret)
        assert scaled.values.mean() == pytest.approx(target, rel=1e-12)

    def test_invariant_to_model_scale(self):
        vols, ret = self._fixture()
        base = scale_to_daily_variance(vols, ret)
        bumped = scale_to_daily_variance(
            VolSeries(vols.dates, 37.0 * vols.values), ret
        )
        np.testing.assert_allclose(bumped.values, base.values, rtol=1e-12)

    def test_preserves_shape(self):
        vols, ret = self._fixture()
        scaled = scale_to_daily_variance(vols, ret)
        ratio = scaled.values / vols.values
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_alignment(self):
        vols, ret = self._fixture()
        extra = ReturnSeries(
            ret.dates + (_MON + timedelta(days=9),),
            np.append(ret.values, 0.5),
        )
        scaled = scale_to_daily_variance(vols, extra)
        assert scaled.dates == vols.dates
        # the unmatched huge return must not leak into the mean
        centered = ret.values - ret.values.mean()
        target = float(centered @ centered) / len(ret)
        assert scaled.values.mean() == pytest.approx(target, rel=1e-12)

    def test_no_overlap(self):
        vols, _ = self._fixture()
        ret = ReturnSeries(_dates(2, start=date(2010, 1, 1)), [0.01, -0.01])
        with pytest.raises(InsufficientDataError):
            scale_to_daily_variance(vols, ret)


class TestRmspe:
    def test_hand_value_mean_form(self):
        vols = VolSeries(_dates(2), [1.3, 0.6])
        rv = RvSeries(_dates(2), [1.0, 1.0], 60.0)
        # relative errors 0.3 and -0.4
        assert rmspe(vols, rv) == pytest.approx(math.sqrt(0.125), rel=1e-15)

    def test_hand_value_root_sum_form(self):
        vols = VolSeries(_dates(2), [1.3, 0.6])
        rv = RvSeries(_dates(2), [1.0, 1.0], 60.0)
        assert rmspe(vols, rv, mean_normalized=False) == pytest.approx(
            0.5, rel=1e-15
        )

    def test_hl_factor_applied_to_target(self):
        vols = VolSeries(_dates(2), [1.3, 0.6])
        rv = RvSeries(_dates(2), [0.5, 0.5], 60.0).with_hl(2.0)
        assert rmspe(vols, rv) == pytest.approx(math.sqrt(0.125), rel=1e-12)

    def test_perfect_forecast(self):
        rv = RvSeries(_dates(3), [1e-4, 2e-4, 3e-4], 60.0)
        vols = VolSeries(rv.dates, rv.values.copy())
        assert rmspe(vols, rv) == 0.0

    def test_scale_invariance(self):
        vols = VolSeries(_dates(3), [1.1e-4, 0.8e-4, 1.3e-4])
        rv = RvSeries(_dates(3), [1e-4, 1e-4, 1e-4], 60.0)
        base = rmspe(vols, rv)
        scaled = rmspe(
            VolSeries(vols.dates, 5e3 * vols.values),
            RvSeries(rv.dates, 5e3 * rv.values, 60.0),
        )
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_forms_rank_models_identically(self):
        rv = RvSeries(_dates(4), [1.0, 1.2, 0.9, 1.1], 60.0)
        close = VolSeries(rv.dates, [1.05, 1.1, 0.95, 1.0])
        far = VolSeries(rv.dates, [1.5, 0.7, 1.4, 0.6])
        assert rmspe(close, rv) < rmspe(far, rv)
        assert rmspe(close, rv, mean_normalized=False) < rmspe(
            far, rv, mean_normalized=False
        )

    def test_zero_target_day_reported(self):
        vols = VolSeries(_dates(2), [1.0, 1.0])
        rv = RvSeries(_dates(2), [1.0, 0.0], 60.0)
        second = _dates(2)[1].isoformat()
        with pytest.raises(DomainError, match=f"1 day\\(s\\): {second}"):
            rmspe(vols, rv)

    def test_alignment(self):
        vols = VolSeries(_dates(3), [1.3, 0.6, 99.0])
        rv = RvSeries(_dates(2), [1.0, 1.0], 60.0)
        assert rmspe(vols, rv) == pytest.approx(math.sqrt(0.125), rel=1e-15)

    def test_no_overlap(self):
        vols = VolSeries(_dates(2), [1.0, 1.0])
        rv = RvSeries(_dates(2, start=date(2010, 1, 1)), [1.0, 1.0], 60.0)
        with pytest.raises(InsufficientDataError):
            rmspe(vols, rv)


def _three_day_ticks():
    days = _dates(3)
    prices = [
        [2500.0, 2504.0, 2498.0],
        [2498.0, 2492.0, 2505.0],
        [2505.0, 2500.0, 2503.0],
    ]
    rows = []
    for day, p in zip(days, prices):
        rows += _one_day_ticks(day, p)
    return _ticks(rows)


class TestSignatureCurve:
    def test_single_delta_matches_components(self):
        ticks = _three_day_ticks()
        curve = signature_curve(ticks, _CAL, [60.0])
        rv = rv_from_ticks(ticks, _CAL, 60.0)
        ret = daily_log_returns(daily_closes_from_ticks(ticks, _CAL))
        assert curve.deltas.tolist() == [60.0]
        assert curve.avg_rv[0] == pytest.approx(rv.values.mean(), rel=1e-15)
        assert curve.hl_factors[0] == pytest.approx(hl_factor(ret, rv), rel=1e-15)

    def test_explicit_daily_returns_match_default(self):
        ticks = _three_day_ticks()
        ret = daily_log_returns(daily_closes_from_ticks(ticks, _CAL))
        implicit = signature_curve(ticks, _CAL, [60.0, 120.0])
        explicit = signature_curve(ticks, _CAL, [60.0, 120.0], daily_returns=ret)
        np.testing.assert_array_equal(implicit.avg_rv, explicit.avg_rv)
        np.testing.assert_array_equal(implicit.hl_factors, explicit.hl_factors)

    def test_deltas_preserved_in_order(self):
        curve = signature_curve(_three_day_ticks(), _CAL, [120, 60])
        assert curve.deltas.tolist() == [120.0, 60.0]

    def test_empty_deltas(self):
        with pytest.raises(DomainError, match="at least one sampling period"):
            signature_curve(_three_day_ticks(), _CAL, [])

    def test_curve_is_built_from_hl_adjusted_series(self):
        ticks = _three_day_ticks()
        ret = daily_log_returns(daily_closes_from_ticks(ticks, _CAL))
        series = hl_adjusted_rv(ticks, _CAL, [60, 120.0], ret)
        for rv, delta in zip(series, (60.0, 120.0)):
            plain = rv_from_ticks(ticks, _CAL, delta)
            assert rv.delta_seconds == delta
            np.testing.assert_array_equal(rv.values, plain.values)
            assert rv.hl_factor == hl_factor(ret, plain)
        curve = SignatureCurve.from_rv(series)
        assert curve.deltas.tolist() == [60.0, 120.0]
        assert curve.avg_rv.tolist() == [float(rv.values.mean()) for rv in series]
        assert curve.hl_factors.tolist() == [rv.hl_factor for rv in series]

    def test_column_length_mismatch(self):
        with pytest.raises(ValidationError):
            SignatureCurve([60.0], [1e-4, 2e-4], [1.0])


class TestWriters:
    def _rv(self):
        return RvSeries(_dates(2), [1.5e-4, 2.5e-4], 300.0).with_hl(0.8)

    def test_rv_csv_layout_and_round_trip(self):
        buf = io.StringIO()
        write_rv_csv(self._rv(), buf, comments=("regarch rv", "delta = 300"))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# regarch rv"
        assert lines[1] == "# delta = 300"
        assert lines[2] == "date,rv,c_adjusted_rv"
        day, raw, adjusted = lines[3].split(",")
        assert day == "2006-01-02"
        assert float(raw) == 1.5e-4
        assert float(adjusted) == 0.8 * 1.5e-4
        assert len(lines) == 5

    def test_rv_csv_without_hl_repeats_raw_column(self):
        buf = io.StringIO()
        write_rv_csv(RvSeries(_dates(1), [2e-4], 60.0), buf)
        row = buf.getvalue().splitlines()[-1].split(",")
        assert row[1] == row[2]

    def test_signature_csv_layout_and_round_trip(self):
        curve = SignatureCurve([60.0, 300.0], [2.1e-4, 1.9e-4], [0.92, 0.97])
        buf = io.StringIO()
        write_signature_csv(curve, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "delta_seconds,avg_rv,hl_factor"
        parsed = np.array(
            [[float(x) for x in line.split(",")] for line in lines[1:]]
        )
        np.testing.assert_array_equal(parsed[:, 0], curve.deltas)
        np.testing.assert_array_equal(parsed[:, 1], curve.avg_rv)
        np.testing.assert_array_equal(parsed[:, 2], curve.hl_factors)

    def test_writers_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rv_csv(self._rv(), a, comments=("same",))
        write_rv_csv(self._rv(), b, comments=("same",))
        assert a.read_bytes() == b.read_bytes()

    def test_path_target(self, tmp_path):
        out = tmp_path / "sig.csv"
        write_signature_csv(SignatureCurve([60.0], [1e-4], [1.0]), out)
        assert out.read_text(encoding="utf-8").startswith("delta_seconds,")
        assert isinstance(out, Path)


def _per_day_grid(ticks, calendar, delta_seconds):
    """The calendar walked one day at a time: (days, session arrays, skipped)."""
    delta_us = int(round(delta_seconds * 1_000_000))
    t_int = ticks.times.view(np.int64)
    log_p = np.log(ticks.prices)
    tick_days = ticks.times.astype("datetime64[D]")
    day, last_day = tick_days[0].astype(date), tick_days[-1].astype(date)
    days, skipped = [], []
    while day <= last_day:
        sessions = calendar.sessions_for(day)
        day64 = np.datetime64(day, "D")
        lo = np.searchsorted(tick_days, day64, side="left")
        hi = np.searchsorted(tick_days, day64, side="right")
        if sessions and hi == lo:
            skipped.append(day)
        elif sessions:
            session_prices = []
            for open_dt, close_dt in sessions:
                o = np.datetime64(open_dt, "us").astype(np.int64)
                c = np.datetime64(close_dt, "us").astype(np.int64)
                grid = np.append(np.arange(o, c, delta_us, dtype=np.int64), c)
                idx = np.searchsorted(t_int, grid, side="right") - 1
                if idx[0] < 0:  # no tick at or before the open
                    skipped.append(day)
                    break
                session_prices.append(log_p[idx])
            else:
                days.append((day, session_prices))
        day += timedelta(days=1)
    return days, skipped


def _per_day_rv(ticks, calendar, delta_seconds):
    """Each day's returns concatenated session by session, then ``r @ r``."""
    days, _ = _per_day_grid(ticks, calendar, delta_seconds)
    values = []
    for _, sessions in days:
        r = np.concatenate([np.diff(a) for a in sessions])
        values.append(float(r @ r))
    return tuple(d for d, _ in days), np.array(values)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


# sessions differ by weekday: Tokyo Monday, Tuesday and Friday, a long
# Wednesday, a one-session Thursday and a Saturday half-day
_MIXED_CAL = SessionCalendar(
    {
        0: ((time(9, 0), time(11, 0)), (time(12, 30), time(15, 0))),
        1: ((time(9, 0), time(11, 0)), (time(12, 30), time(15, 0))),
        2: ((time(9, 0), time(11, 30)), (time(12, 30), time(15, 30))),
        3: ((time(9, 0), time(15, 0)),),
        4: ((time(9, 0), time(11, 0)), (time(12, 30), time(15, 0))),
        5: ((time(9, 0), time(11, 0)),),
    },
    holidays={date(2006, 1, 9), date(2006, 1, 18), date(2006, 2, 4)},
)


def _mixed_ticks():
    """About 60 days of ticks, opening after the first session's open."""
    rng = np.random.default_rng(11)
    start = np.datetime64("2006-01-02T09:17:00", "us")  # a Monday, after 09:00
    offsets = np.sort(rng.integers(0, 60 * 86_400_000_000, 40_000))
    times = start + offsets.astype("timedelta64[us]")
    # drop every tick of a few trading days
    days = times.astype("datetime64[D]")
    empty = np.array(["2006-01-11", "2006-01-24", "2006-02-14"], dtype="datetime64[D]")
    keep = ~np.isin(days, empty)
    prices = 100.0 * np.exp(np.cumsum(rng.standard_normal(40_000) * 1e-3))
    return TickSeries(times[keep], prices[keep])


# 7 min 13 s divides no session; 2.5 h outlasts the 2 h sessions; 7 h every one
_DELTAS = (30.0, 60.0, 433.0, 1800.0, 9000.0, 25200.0)


class TestRvPathMatchesPerDayLoop:
    """Grids, RV and HL factors equal, bit for bit, to the per-day loop."""

    @pytest.fixture(params=[1, 600, 10**9], ids=["point", "day", "all-days"])
    def budget(self, request, monkeypatch):
        monkeypatch.setattr(data_module, "_BLOCK_ELEMENTS", request.param)

    @pytest.mark.parametrize(
        "cal", [_MIXED_CAL, SessionCalendar.tokyo()], ids=["mixed", "tokyo"]
    )
    def test_resample_grid(self, budget, cal):
        ticks = _mixed_ticks()
        for delta in _DELTAS:
            grid = resample_grid(ticks, cal, delta)
            days, skipped = _per_day_grid(ticks, cal, delta)
            assert grid.skipped_days == skipped
            sessions = grid_sessions(grid)
            assert [d for d, _ in sessions] == [d for d, _ in days]
            for (_, got), (_, want) in zip(sessions, days):
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert _bits(a) == _bits(b)
        assert date(2006, 1, 2) in skipped  # opens before the first tick
        assert {date(2006, 1, 11), date(2006, 1, 24)} <= set(skipped)

    @pytest.mark.parametrize(
        "cal", [_MIXED_CAL, SessionCalendar.tokyo()], ids=["mixed", "tokyo"]
    )
    def test_rv_and_hl_factors(self, budget, cal):
        ticks = _mixed_ticks()
        returns = daily_log_returns(daily_closes_from_ticks(ticks, cal))
        series = hl_adjusted_rv(ticks, cal, _DELTAS, returns)
        for delta, adjusted in zip(_DELTAS, series):
            dates, values = _per_day_rv(ticks, cal, delta)
            rv = rv_from_ticks(ticks, cal, delta)
            assert rv.dates == adjusted.dates == dates
            assert _bits(rv.values) == _bits(adjusted.values) == _bits(values)
            c = hl_factor(returns, RvSeries(dates, values, delta))
            assert _bits([adjusted.hl_factor]) == _bits([c])
