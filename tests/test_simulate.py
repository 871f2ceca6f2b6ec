"""Simulator oracles: GARCH moments, bridge pinning, noise MA(1), HL."""

import io
import math
from datetime import date, time, timedelta

import numpy as np
import pytest

from regarch.data import (
    SessionCalendar,
    daily_log_returns,
    load_daily_prices,
    load_ticks,
    write_daily_csv,
    write_ticks_csv,
)
from regarch.exceptions import DomainError, ValidationError
from regarch.garch import RATIONAL, GarchParams, volatility_recursion
from regarch.realized import NoiseModel, hl_factor, rv_from_ticks
from regarch.simulate import (
    DiffusionSpec,
    _spawned,
    simulate_garch,
    simulate_intraday,
)

_CAL = SessionCalendar.tokyo()
_GARCH = GarchParams(5e-5, 0.1, 0.8)


class TestSimulateGarch:
    def test_near_iid_sample_variance(self):
        # alpha + beta tiny: returns are nearly i.i.d. with the
        # unconditional variance omega / (1 - alpha - beta)
        params = GarchParams(1e-4, 0.01, 0.01)
        ret, _ = simulate_garch(params, 100_000, np.random.default_rng(12))
        assert ret.values.var() == pytest.approx(1e-4 / 0.98, rel=0.02)

    def test_rational_unconditional_variance(self):
        params = GarchParams(2.8e-4, 0.132, 0.768, RATIONAL, a=1.57)
        ret, _ = simulate_garch(params, 100_000, np.random.default_rng(9))
        assert ret.values.var() == pytest.approx(2.8e-3, rel=0.10)

    @pytest.mark.parametrize(
        "params",
        [_GARCH, GarchParams(2.8e-4, 0.132, 0.768, RATIONAL, a=1.57)],
    )
    def test_matches_variance_recursion(self, params):
        # the simulated variances replay through the fitting recursion
        ret, vol = simulate_garch(params, 500, np.random.default_rng(3))
        uncond = params.unconditional_variance()
        replayed = volatility_recursion(params, ret, init_variance=uncond)
        np.testing.assert_allclose(vol.values, replayed.values, rtol=1e-14)
        assert vol.values[0] == uncond

    def test_nonstationary_starts_at_omega(self):
        ret, vol = simulate_garch(
            GarchParams(1e-4, 0.3, 0.7), 50, np.random.default_rng(0)
        )
        assert vol.values[0] == 1e-4
        assert len(ret) == 50

    def test_deterministic(self):
        a, _ = simulate_garch(_GARCH, 300, np.random.default_rng(5))
        b, _ = simulate_garch(_GARCH, 300, np.random.default_rng(5))
        np.testing.assert_array_equal(a.values, b.values)

    def test_laws_differ(self):
        a, _ = simulate_garch(_GARCH, 300, np.random.default_rng(5))
        rat = GarchParams(5e-5, 0.1, 0.8, RATIONAL, a=2.0)
        b, _ = simulate_garch(rat, 300, np.random.default_rng(5))
        assert not np.array_equal(a.values, b.values)

    def test_dates_are_trading_days(self):
        ret, _ = simulate_garch(_GARCH, 7, np.random.default_rng(0))
        assert ret.dates[0] == date(2006, 1, 2)  # a Monday
        assert all(d.weekday() < 5 for d in ret.dates)
        assert ret.dates[5] == date(2006, 1, 9)  # weekend skipped

    @pytest.mark.parametrize(
        "params",
        [
            GarchParams(-1e-4, 0.1, 0.8),
            GarchParams(1e-4, 0.0, 0.8),
            GarchParams(1e-4, 0.1, 0.0),
        ],
    )
    def test_positivity_enforced(self, params):
        with pytest.raises(DomainError):
            simulate_garch(params, 10, np.random.default_rng(0))

    def test_length_validated(self):
        with pytest.raises(DomainError, match="length"):
            simulate_garch(_GARCH, 0, np.random.default_rng(0))


class TestDiffusionSpec:
    def test_exactly_one_source(self):
        with pytest.raises(DomainError, match="exactly one"):
            DiffusionSpec(day_variances=1e-4, garch=_GARCH)
        with pytest.raises(DomainError, match="exactly one"):
            DiffusionSpec()

    @pytest.mark.parametrize("f", [-0.1, 1.0, 1.5])
    def test_overnight_fraction_range(self, f):
        with pytest.raises(DomainError, match="overnight_fraction"):
            DiffusionSpec(day_variances=1e-4, overnight_fraction=f)

    def test_steps_positive(self):
        with pytest.raises(DomainError, match="steps_per_day"):
            DiffusionSpec(steps_per_day=0, day_variances=1e-4)

    def test_start_price_positive(self):
        with pytest.raises(DomainError, match="start_price"):
            DiffusionSpec(day_variances=1e-4, start_price=0.0)

    @pytest.mark.parametrize("price", [math.inf, math.nan])
    def test_start_price_finite(self, price):
        with pytest.raises(DomainError, match="start_price must be positive and finite"):
            DiffusionSpec(day_variances=1e-4, start_price=price)

    def test_negative_day_variance(self):
        with pytest.raises(DomainError, match="day variances"):
            DiffusionSpec(day_variances=[1e-4, -1e-4])

    def test_zero_variance_allowed(self):
        assert DiffusionSpec(day_variances=0.0).day_variances == 0.0


class TestIntradayTruth:
    def test_prescribed_session_variances_reported_exactly(self):
        spec = DiffusionSpec(steps_per_day=78, day_variances=1e-4)
        sim = simulate_intraday(spec, 10, np.random.default_rng(1), _CAL)
        np.testing.assert_array_equal(sim.session_variances, np.full(10, 1e-4))
        np.testing.assert_array_equal(sim.total_variances, np.full(10, 1e-4))

    def test_per_day_variances_reported_exactly(self):
        v = np.array([1e-4, 4e-4, 0.0, 2e-4])
        spec = DiffusionSpec(steps_per_day=78, day_variances=v)
        sim = simulate_intraday(spec, 4, np.random.default_rng(1), _CAL)
        np.testing.assert_array_equal(sim.session_variances, v)

    def test_garch_session_variances_reported_exactly(self):
        # the day levels are the GARCH variance path, bit for bit; the
        # path generator is the third spawn of the master generator
        spec = DiffusionSpec(steps_per_day=390, garch=_GARCH)
        sim = simulate_intraday(spec, 120, np.random.default_rng(21), _CAL)
        _, _, gap_rng = np.random.default_rng(21).spawn(3)
        _, vol = simulate_garch(_GARCH, 120, gap_rng, start_date=spec.start_date)
        np.testing.assert_array_equal(sim.session_variances, vol.values)
        np.testing.assert_array_equal(sim.total_variances, vol.values)

    def test_bridge_pins_daily_returns_to_garch_draws(self):
        spec = DiffusionSpec(steps_per_day=390, garch=_GARCH)
        sim = simulate_intraday(spec, 120, np.random.default_rng(21), _CAL)
        _, _, gap_rng = np.random.default_rng(21).spawn(3)
        ret, _ = simulate_garch(_GARCH, 120, gap_rng, start_date=spec.start_date)
        np.testing.assert_allclose(
            sim.true_daily_returns, ret.values, rtol=0, atol=1e-12
        )

    def test_noise_free_closes_recover_true_returns(self):
        spec = DiffusionSpec(steps_per_day=390, garch=_GARCH)
        sim = simulate_intraday(spec, 120, np.random.default_rng(21), _CAL)
        observed = daily_log_returns(sim.daily_prices)
        np.testing.assert_allclose(
            observed.values, sim.true_daily_returns[1:], rtol=0, atol=1e-12
        )

    def test_tick_grid_size(self):
        # 390 steps split over the two Tokyo sessions plus one opening
        # print per session
        spec = DiffusionSpec(steps_per_day=390, day_variances=1e-4)
        sim = simulate_intraday(spec, 5, np.random.default_rng(1), _CAL)
        assert len(sim.ticks) == 5 * 392
        assert sim.dates == tuple(_CAL.trading_days(date(2006, 1, 2), 5))

    def test_free_mode_daily_variance(self):
        spec = DiffusionSpec(steps_per_day=78, day_variances=1e-4)
        sim = simulate_intraday(spec, 400, np.random.default_rng(2), _CAL)
        assert (sim.true_daily_returns**2).mean() == pytest.approx(1e-4, rel=0.05)

    def test_hl_factor_near_one_without_overnight(self):
        spec = DiffusionSpec(steps_per_day=390, day_variances=1e-4)
        sim = simulate_intraday(spec, 150, np.random.default_rng(4), _CAL)
        c = hl_factor(
            daily_log_returns(sim.daily_prices),
            rv_from_ticks(sim.ticks, _CAL, 300.0),
        )
        assert 0.85 < c < 1.15

    def test_hl_factor_near_two_with_equal_overnight(self):
        spec = DiffusionSpec(
            steps_per_day=390, day_variances=1e-4, overnight_fraction=0.5
        )
        sim = simulate_intraday(spec, 150, np.random.default_rng(4), _CAL)
        c = hl_factor(
            daily_log_returns(sim.daily_prices),
            rv_from_ticks(sim.ticks, _CAL, 300.0),
        )
        assert 1.5 < c < 2.4

    def test_noise_only_returns_are_ma1(self):
        # flat true path: consecutive tick returns are xi_i - xi_{i-1},
        # an MA(1) with lag-1 autocorrelation -1/2
        spec = DiffusionSpec(
            steps_per_day=390, day_variances=0.0, noise=NoiseModel(1e-6)
        )
        sim = simulate_intraday(spec, 260, np.random.default_rng(7), _CAL)
        r = np.diff(np.log(sim.ticks.prices))
        slope = (r[1:] @ r[:-1]) / (r[:-1] @ r[:-1])
        assert slope == pytest.approx(-0.5, abs=0.01)

    def test_deterministic_and_seed_sensitive(self):
        spec = DiffusionSpec(steps_per_day=78, day_variances=1e-4)
        a = simulate_intraday(spec, 30, np.random.default_rng(2), _CAL)
        b = simulate_intraday(spec, 30, np.random.default_rng(2), _CAL)
        c = simulate_intraday(spec, 30, np.random.default_rng(3), _CAL)
        np.testing.assert_array_equal(a.ticks.prices, b.ticks.prices)
        np.testing.assert_array_equal(a.ticks.times, b.ticks.times)
        np.testing.assert_array_equal(a.true_daily_returns, b.true_daily_returns)
        assert not np.array_equal(a.ticks.prices, c.ticks.prices)

    def test_unpacks_as_triple(self):
        spec = DiffusionSpec(steps_per_day=78, day_variances=1e-4)
        sim = simulate_intraday(spec, 3, np.random.default_rng(0), _CAL)
        ticks, daily, session = sim
        assert ticks is sim.ticks
        assert daily is sim.daily_prices
        assert session is sim.session_variances

    def test_day_variance_length_mismatch(self):
        spec = DiffusionSpec(steps_per_day=78, day_variances=[1e-4, 2e-4])
        with pytest.raises(DomainError, match="length 3"):
            simulate_intraday(spec, 3, np.random.default_rng(0), _CAL)

    def test_days_validated(self):
        spec = DiffusionSpec(day_variances=1e-4)
        with pytest.raises(DomainError, match="days"):
            simulate_intraday(spec, 0, np.random.default_rng(0), _CAL)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_garch_path_rejected(self):
        # alpha + beta far above 1: sigma^2 overflows within 3000 days
        spec = DiffusionSpec(steps_per_day=2, garch=GarchParams(1e-5, 3.0, 0.9))
        with pytest.raises(ValidationError, match="returns must be finite"):
            simulate_intraday(spec, 3000, np.random.default_rng(0), _CAL)


class TestCsvRoundTrip:
    def test_daily_and_ticks_round_trip_exactly(self):
        spec = DiffusionSpec(
            steps_per_day=78, day_variances=1e-4, noise=NoiseModel(2.5e-7)
        )
        sim = simulate_intraday(spec, 30, np.random.default_rng(2), _CAL)

        buf = io.StringIO()
        write_daily_csv(sim.daily_prices, buf)
        buf.seek(0)
        daily = load_daily_prices(buf)
        assert daily.dates == sim.daily_prices.dates
        np.testing.assert_array_equal(daily.closes, sim.daily_prices.closes)

        buf = io.StringIO()
        write_ticks_csv(sim.ticks, buf)
        buf.seek(0)
        ticks = load_ticks(buf)
        np.testing.assert_array_equal(ticks.times, sim.ticks.times)
        np.testing.assert_array_equal(ticks.prices, sim.ticks.prices)


def _per_day_loop(spec, days, rng, calendar):
    """The simulator as a loop over days and ticks, the reference for
    :func:`simulate_intraday`: (dates, tick times as integers, tick prices,
    closes, true returns, session variances, total variances)."""
    dates, day = [], spec.start_date
    while len(dates) < days:
        if calendar.is_trading_day(day):
            dates.append(day)
        day += timedelta(days=1)

    day_rng, noise_rng, gap_rng = rng.spawn(3)
    path_rngs = day_rng.spawn(days)
    noise_rngs = noise_rng.spawn(days)
    f = spec.overnight_fraction
    if spec.garch is not None:
        ret, vol = simulate_garch(spec.garch, days, gap_rng, start_date=spec.start_date)
        total_var, pinned = vol.values.copy(), ret.values.copy()
    else:
        v = np.asarray(spec.day_variances, dtype=np.float64)
        total_var = (np.full(days, float(v)) if v.ndim == 0 else v) / (1.0 - f)
        pinned = None
    session_var = total_var * (1.0 - f)
    gap_var = total_var * f

    times, prices, closes = [], [], []
    true_returns = np.empty(days)
    ln_p = math.log(spec.start_price)
    for d, day in enumerate(dates):
        prev_close = ln_p
        stream = path_rngs[d]
        gap = 0.0
        if d > 0 and gap_var[d] > 0.0:
            gap = math.sqrt(gap_var[d]) * stream.standard_normal()
        ln_p = prev_close + gap

        sessions = calendar.sessions_for(day)
        lengths = np.array([(c - o).total_seconds() for o, c in sessions])
        total_len = lengths.sum()
        layout = []
        for (o, _c), h in zip(sessions, lengths):
            m = max(1, int(round(spec.steps_per_day * h / total_len)))
            layout.append((np.datetime64(o, "us").astype(np.int64), h / m, m))
        rate = session_var[d] / total_len

        if pinned is None:
            increments = np.concatenate(
                [stream.standard_normal(m) * math.sqrt(rate * dt) for _, dt, m in layout]
            )
        else:
            steps = np.concatenate([np.full(m, dt) for _, dt, m in layout])
            z = stream.standard_normal(steps.size)
            increments = np.empty(steps.size)
            remaining_target, remaining_time = pinned[d] - gap, total_len
            for i, dt in enumerate(steps):
                if i == steps.size - 1:
                    increments[i] = remaining_target
                    break
                mean = remaining_target * dt / remaining_time
                var = rate * dt * (remaining_time - dt) / remaining_time
                increments[i] = mean + math.sqrt(max(var, 0.0)) * z[i]
                remaining_target -= increments[i]
                remaining_time -= dt

        day_true = []
        steps = iter(increments)
        for open_us, dt, m in layout:
            times.append(open_us)
            day_true.append(ln_p)
            for k in range(1, m + 1):
                ln_p += next(steps)
                times.append(open_us + int(round(k * dt * 1e6)))
                day_true.append(ln_p)
        xi = noise_rngs[d].standard_normal(len(day_true)) * math.sqrt(spec.noise.rho2)
        observed = np.exp(np.array(day_true) + xi)
        prices.append(observed)
        closes.append(observed[-1])
        true_returns[d] = ln_p - prev_close
    return (
        tuple(dates),
        np.array(times),
        np.concatenate(prices),
        np.array(closes),
        true_returns,
        session_var,
        total_var,
    )


_MORNING = (time(9, 0), time(11, 0))
# sessions differ by weekday: three on Friday, one on Wednesday, a Saturday
# half-day; holidays on a Wednesday, a Thursday and a Friday
_UNEVEN_CAL = SessionCalendar(
    {
        0: (_MORNING, (time(12, 30), time(15, 0))),
        1: ((time(9, 0), time(11, 30)), (time(12, 30), time(15, 10))),
        2: ((time(10, 0), time(14, 0)),),
        3: (_MORNING, (time(12, 30), time(15, 0))),
        4: ((time(8, 15), time(11, 0)), (time(12, 0), time(13, 0)),
            (time(13, 30), time(15, 0))),
        5: (_MORNING,),
    },
    holidays={date(2006, 1, 4), date(2006, 1, 5), date(2006, 1, 13)},
)  # fmt: skip
_DAYS = 24


def _law_spec(law, steps, f):
    """A spec with the day levels from ``law``: a GARCH error law, one
    in-session variance for every day, or one a day with zeros among them."""
    noise = NoiseModel(2.5e-7)
    if law == "garch-n":
        return DiffusionSpec(steps, garch=_GARCH, noise=noise, overnight_fraction=f)
    if law == "garch-re":
        params = GarchParams(2.8e-4, 0.132, 0.768, RATIONAL, a=1.57)
        return DiffusionSpec(steps, garch=params, noise=noise, overnight_fraction=f)
    if law == "scalar":
        return DiffusionSpec(steps, day_variances=1e-4, noise=noise, overnight_fraction=f)
    levels = np.linspace(0.0, 3e-4, _DAYS)
    levels[::5] = 0.0
    return DiffusionSpec(steps, day_variances=levels, noise=noise, overnight_fraction=f)


class TestIntradayMatchesPerDayLoop:
    """``simulate_intraday`` bit for bit against the loop over days and ticks."""

    def _check(self, spec, days, calendar, seed, bit_generator=np.random.PCG64):
        rngs = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
        sim = simulate_intraday(spec, days, rngs[0], calendar)
        dates, times, prices, closes, true_returns, session_var, total_var = (
            _per_day_loop(spec, days, rngs[1], calendar)
        )
        assert sim.dates == dates
        assert sim.daily_prices.dates == dates
        assert np.array_equal(sim.ticks.times.view(np.int64), times)
        assert np.array_equal(sim.ticks.prices, prices)
        assert np.array_equal(sim.daily_prices.closes, closes)
        assert np.array_equal(sim.true_daily_returns, true_returns)
        assert np.array_equal(sim.session_variances, session_var)
        assert np.array_equal(sim.total_variances, total_var)

    @pytest.mark.parametrize("law", ["garch-n", "garch-re", "scalar", "per-day"])
    @pytest.mark.parametrize("f", [0.0, 0.3])
    @pytest.mark.parametrize("steps", [1, 37, 400])
    @pytest.mark.parametrize("calendar", [_CAL, _UNEVEN_CAL], ids=["tokyo", "uneven"])
    def test_matches(self, calendar, steps, f, law):
        self._check(_law_spec(law, steps, f), _DAYS, calendar, seed=steps + int(10 * f))

    @pytest.mark.parametrize("law", ["garch-re", "scalar"])
    @pytest.mark.parametrize("calendar", [_CAL, _UNEVEN_CAL], ids=["tokyo", "uneven"])
    def test_one_day(self, calendar, law):
        self._check(_law_spec(law, 37, 0.3), 1, calendar, seed=4)

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM])
    def test_other_bit_generators_spawn(self, bit_generator):
        self._check(_law_spec("garch-re", 37, 0.3), _DAYS, _UNEVEN_CAL, 1, bit_generator)


class TestSpawnedStreams:
    """``_spawned`` gives each child the stream ``spawn`` gives it."""

    @staticmethod
    def _parent(entropy, key):
        seq = np.random.SeedSequence(entropy, spawn_key=key)
        return np.random.Generator(np.random.PCG64(seq))

    @pytest.mark.parametrize("key", [(), (0,), (1,)])
    @pytest.mark.parametrize(
        "entropy",
        [5, 2**40 + 1, 10**30, [1, 2, 3], [2**33, 7], np.array([1, 2], np.uint32)],
        ids=["1-word", "2-word", "4-word", "list", "list-2-word-int", "array"],
    )
    def test_states_equal_spawn(self, entropy, key):
        # an array entropy is not worked out: it takes spawn's own path
        n = 1500
        children = self._parent(entropy, key).spawn(n)
        streams = _spawned(self._parent(entropy, key), n)
        for i, child in enumerate(children):
            assert streams(i).bit_generator.state == child.bit_generator.state
        last = streams(n - 1).standard_normal(5)
        assert np.array_equal(last, children[n - 1].standard_normal(5))

    def test_children_after_earlier_spawns(self):
        parent, reference = self._parent(7, (0,)), self._parent(7, (0,))
        parent.spawn(2)
        reference.spawn(2)
        streams = _spawned(parent, 3)
        for i, child in enumerate(reference.spawn(3)):
            assert streams(i).bit_generator.state == child.bit_generator.state

    def test_days_draw_independently(self):
        # each day's generator is its own: drawing from one day's stream
        # leaves another day's where it was
        children = self._parent(5, (0,)).spawn(2)
        streams = _spawned(self._parent(5, (0,)), 2)
        day0, day1 = streams(0), streams(1)
        got = [g.standard_normal(4) for g in (day0, day1, day0)]
        want = [g.standard_normal(4) for g in (children[0], children[1], children[0])]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
