"""Synthetic market inputs made apart from the program under test.

A GARCH(1,1) path with rational errors gives each day's return; the
intraday log price is a Brownian bridge pinned to that return over the
Tokyo session day (09:00-11:00 and 12:30-15:00, Monday to Friday), and
each tick carries i.i.d. Gaussian log-price noise.  The rational errors are
drawn by rejection from a Cauchy envelope, not by ``regarch.rational``, so
the inputs do not change when the program's sampler does.

The truth (daily variances, pinned returns, tick times in session time) is
kept for the checks in ``checks.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

# Tokyo session day: (open, close) in seconds after midnight
SESSIONS = ((9 * 3600, 11 * 3600), (12 * 3600 + 1800, 15 * 3600))
SESSION_SECONDS = sum(c - o for o, c in SESSIONS)
START_DATE = date(2006, 1, 2)
START_PRICE = 2500.0


@dataclass(frozen=True)
class Truth:
    """Data-generating parameters shared by the inputs and ``regarch simulate``."""

    omega: float = 2.8e-4
    alpha: float = 0.132
    beta: float = 0.768
    a: float = 1.57
    rho2: float = 5e-7


def rational_pdf(x, a):
    x2 = np.asarray(x, dtype=np.float64) ** 2
    return a / (math.pi * ((x2 - 1.0) ** 2 + a * a * x2))


def sample_rational(count, a, rng):
    """Rational variates by rejection from a standard Cauchy envelope."""
    grid = np.linspace(0.0, 60.0, 600_001)
    cauchy = 1.0 / (math.pi * (1.0 + grid * grid))
    bound = 1.01 * float((rational_pdf(grid, a) / cauchy).max())
    out = np.empty(0)
    while out.size < count:
        x = rng.standard_cauchy(2 * (count - out.size) + 64)
        g = 1.0 / (math.pi * (1.0 + x * x))
        keep = rng.random(x.size) * bound * g <= rational_pdf(x, a)
        out = np.concatenate([out, x[keep]])
    return out[:count]


def trading_days(count):
    """The first ``count`` weekdays from START_DATE."""
    days, day = [], START_DATE
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


def session_steps(steps_per_day):
    """Steps per session, shared by session length as ``regarch simulate`` does."""
    return [
        max(1, int(round(steps_per_day * (c - o) / SESSION_SECONDS)))
        for o, c in SESSIONS
    ]


@dataclass
class Market:
    """Generated inputs plus the truth behind them."""

    days: list
    variances: np.ndarray  # sigma_t^2, also each day's integrated variance
    returns: np.ndarray  # pinned close-to-close returns of the true price
    day_us: np.ndarray  # (days,) epoch microseconds of each midnight
    clock_us: np.ndarray  # (ticks per day,) microseconds after midnight
    tick_session_s: np.ndarray  # (ticks per day,) session time of each tick
    log_prices: np.ndarray  # (days, ticks per day) observed log prices
    closes: np.ndarray  # observed last tick of each day


def make_market(days, steps_per_day, truth, seed):
    """Generate ``days`` trading days with ``steps_per_day`` steps each.

    Each session gets a tick at its open and its close and sorted uniform
    tick times in between, so the tick count per day is steps_per_day plus
    one per session.
    """
    rng = np.random.default_rng([seed, 20130])
    eps = sample_rational(days, truth.a, rng)
    sig2 = np.empty(days)
    y = np.empty(days)
    s = truth.omega / (1.0 - truth.alpha - truth.beta)
    for t in range(days):
        if t > 0:
            s = truth.omega + truth.alpha * y[t - 1] ** 2 + truth.beta * s
        sig2[t] = s
        y[t] = math.sqrt(s) * eps[t]

    clock, session_time, offset = [], [], 0.0
    for (o, c), m in zip(SESSIONS, session_steps(steps_per_day)):
        inner = np.sort(rng.uniform(o, c, m - 1))
        wall = np.concatenate([[o], np.round(inner * 1e6) / 1e6, [c]])
        clock.append(wall)
        session_time.append(offset + wall - o)
        offset += c - o
    clock = np.concatenate(clock)
    session_time = np.concatenate(session_time)

    # Brownian bridge from 0 to y over the session time, per day
    dt = np.diff(session_time)
    rate = sig2 / SESSION_SECONDS
    w = np.zeros((days, session_time.size))
    w[:, 1:] = np.cumsum(
        rng.standard_normal((days, dt.size)) * np.sqrt(rate[:, None] * dt[None, :]),
        axis=1,
    )
    frac = session_time / SESSION_SECONDS
    bridge = w - frac[None, :] * w[:, -1:] + frac[None, :] * y[:, None]
    opens = math.log(START_PRICE) + np.concatenate([[0.0], np.cumsum(y[:-1])])
    noise = rng.standard_normal(w.shape) * math.sqrt(truth.rho2)
    log_prices = opens[:, None] + bridge + noise
    return Market(
        days=trading_days(days),
        variances=sig2,
        returns=y,
        day_us=np.array(
            [(d - date(1970, 1, 1)).days * 86_400_000_000 for d in trading_days(days)],
            dtype=np.int64,
        ),
        clock_us=np.round(clock * 1e6).astype(np.int64),
        tick_session_s=session_time,
        log_prices=log_prices,
        closes=np.exp(log_prices[:, -1]),
    )


def write_inputs(market, ticks_path, daily_path, header):
    """Write ``timestamp,price`` and ``date,close`` CSVs for the CLI."""
    tick_us = market.day_us[:, None] + market.clock_us[None, :]
    stamps = np.datetime_as_string(tick_us.ravel().view("datetime64[us]"))
    prices = np.exp(market.log_prices.ravel()).tolist()
    with open(ticks_path, "w", encoding="utf-8") as out:
        out.write(f"# {header}\ntimestamp,price\n")
        out.write("\n".join(f"{t},{p!r}" for t, p in zip(stamps.tolist(), prices)))
        out.write("\n")
    with open(daily_path, "w", encoding="utf-8") as out:
        out.write(f"# {header}\ndate,close\n")
        for d, c in zip(market.days, market.closes.tolist()):
            out.write(f"{d.isoformat()},{c!r}\n")
