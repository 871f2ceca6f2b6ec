"""Synthetic GARCH return paths and intraday diffusion markets.

The intraday market is a log-price diffusion with piecewise-constant spot
variance per day, observed through i.i.d. Gaussian noise on the log price.
Day levels come either from an explicit per-day variance (possibly zero) or
from a GARCH(1,1) path.  In GARCH mode the in-session path is a Brownian
bridge pinned so that the day's true close-to-close return equals the GARCH
draw exactly; the bridge leaves the expected realized variance of the
session at the prescribed session variance, so realized-measure tests and
daily-return fits see the same market.

Non-trading time is modelled as a single overnight gap before each open,
Gaussian with a configurable fraction of the total daily variance; with
fraction f, session variance is (1-f) of the total and the HL factor tends
to 1/(1-f).

Per-day random streams are spawned from the caller's generator, so output
is reproducible for a given master seed regardless of evaluation order.
Each day's streams are drawn day by day: its opening gap and then its
steps from the day's path stream, its observation noise from the day's
noise stream.  The bridge then runs time-major, one step at a time over
all the days that share a session layout, with the same scalar formulas
applied to a value a day; the log price is one running sum over all
ticks.  Every value is the one a loop over days and ticks gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import date

import numpy as np

from . import rational
from .data import (
    _US_PER_SECOND,
    DailyPriceSeries,
    ReturnSeries,
    SessionCalendar,
    TickSeries,
    _TradingDays,
)
from .exceptions import DomainError, ValidationError
from .garch import RATIONAL, GarchParams, VolSeries, check_constraints
from .realized import NoiseModel


def simulate_garch(params, length, rng, start_date=date(2006, 1, 2), calendar=None):
    """Generate a GARCH path: returns and the true variance series.

    sigma_1^2 starts at the unconditional variance omega/(1-alpha-beta)
    when the process is stationary, at omega otherwise.  Dates run over
    the calendar's trading days (weekdays by default).
    """
    sig2, y = _garch_path(params, length, rng)
    if calendar is None:
        calendar = SessionCalendar.tokyo()
    dates = tuple(calendar.trading_days(start_date, length))
    return ReturnSeries(dates, y), VolSeries(dates, sig2)


def _garch_path(params, length, rng):
    """The conditional variances and returns of :func:`simulate_garch`."""
    report = check_constraints(params)
    if not report.valid:
        raise DomainError("; ".join(report.violations))
    if length < 1:
        raise DomainError("length must be at least 1")

    if params.law == RATIONAL:
        eps = rational.sample(length, params.a, rng)
    else:
        eps = rng.standard_normal(length)

    omega, alpha, beta = params.omega, params.alpha, params.beta
    sig2 = np.empty(length)
    y = np.empty(length)
    s = omega / (1.0 - alpha - beta) if report.stationary else omega
    # an explosive path overflows to inf and nan, which the check below reports
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(length):
            if t > 0:
                s = omega + alpha * y[t - 1] ** 2 + beta * s
            sig2[t] = s
            y[t] = math.sqrt(s) * eps[t]
    if not np.isfinite(y).all():
        raise ValidationError("the GARCH path overflowed; returns must be finite")
    return sig2, y


@dataclass
class DiffusionSpec:
    """Intraday market description.

    Exactly one of ``day_variances`` (scalar or per-day array of in-session
    integrated variances, zero allowed) and ``garch`` (parameters whose
    path sets each day's total variance) must be given.
    ``overnight_fraction`` is the share of total daily variance placed in
    the opening gap.
    """

    steps_per_day: int = 390
    day_variances: object = None
    garch: GarchParams | None = None
    noise: NoiseModel = field(default_factory=NoiseModel)
    overnight_fraction: float = 0.0
    start_price: float = 2500.0
    start_date: date = date(2006, 1, 2)

    def __post_init__(self):
        if self.steps_per_day < 1:
            raise DomainError("steps_per_day must be at least 1")
        if (self.day_variances is None) == (self.garch is None):
            raise DomainError("give exactly one of day_variances and garch")
        if not 0.0 <= self.overnight_fraction < 1.0:
            raise DomainError("overnight_fraction must lie in [0, 1)")
        # a NaN fails every comparison, so test for a number in (0, inf)
        if not 0.0 < self.start_price < math.inf:
            raise DomainError("start_price must be positive and finite")
        if self.day_variances is not None:
            v = np.asarray(self.day_variances, dtype=np.float64)
            if not np.isfinite(v).all() or (v < 0).any():
                raise DomainError("day variances must be finite and >= 0")


@dataclass
class IntradaySim:
    """Simulation output: observed market plus the exact truth behind it."""

    ticks: TickSeries
    daily_prices: DailyPriceSeries  # observed closes (noise included)
    dates: tuple
    session_variances: np.ndarray  # exact integrated in-session variance
    total_variances: np.ndarray  # session plus overnight-gap variance
    true_daily_returns: np.ndarray  # close-to-close on the noise-free path

    def __iter__(self):
        # unpacks as (ticks, daily_prices, session_variances)
        return iter((self.ticks, self.daily_prices, self.session_variances))


def _session_layout(sessions, steps_per_day):
    """Tick layout of a day of ``sessions``, (open, close) in microseconds
    after midnight.

    Steps are shared out by session length, at least one a session.  A
    session of m steps of dt seconds has a tick at its open and one after
    each step.  Returns the ticks' microseconds after midnight, the (tick
    column of the open, dt, m) of each session, and the summed session
    length in seconds.
    """
    lengths = np.array([c - o for o, c in sessions]) / _US_PER_SECOND
    total = lengths.sum()
    offsets, layout = [], []
    col = 0
    for (open_us, _close_us), h in zip(sessions, lengths):
        m = max(1, int(round(steps_per_day * h / total)))
        dt = h / m
        steps_us = np.rint(np.arange(1, m + 1) * dt * 1e6).astype(np.int64)
        offsets += [[open_us], open_us + steps_us]
        layout.append((col, dt, m))
        col += m + 1
    return np.concatenate(offsets), layout, total


def _days_total_variance(spec, days, rng):
    """Per-day total close-to-close variance plus pinned daily returns."""
    f = spec.overnight_fraction
    if spec.garch is not None:
        return _garch_path(spec.garch, days, rng)
    v = np.asarray(spec.day_variances, dtype=np.float64)
    if v.ndim == 0:
        v = np.full(days, float(v))
    if v.shape != (days,):
        raise DomainError(f"day_variances must be scalar or length {days}")
    # v is the in-session variance; the gap adds f/(1-f) of it
    return v / (1.0 - f), None


def simulate_intraday(spec, days, rng, calendar=None):
    """Simulate ``days`` trading days of ticks, closes, and exact truth.

    The true log price moves only inside sessions (plus the overnight gap);
    observed tick prices carry i.i.d. noise of variance ``spec.noise.rho2``.
    The reported per-day session variance is the exact integral of the
    piecewise-constant spot variance.

    Day d draws its path from child d of ``rng.spawn(3)[0].spawn(days)``
    and its noise from child d of ``rng.spawn(3)[1].spawn(days)``.  For a
    PCG64 ``rng`` seeded from integers those children's seed words are
    worked out here, bit for bit the words ``spawn`` gives them, and each
    day's PCG64 seeds itself from its words when the day is drawn; any
    other ``rng`` spawns them.
    """
    if days < 1:
        raise DomainError("days must be at least 1")
    if calendar is None:
        calendar = SessionCalendar.tokyo()
    table = _TradingDays.starting(calendar, spec.start_date, days)
    dates = tuple(table.days.tolist())

    day_rng, noise_rng, gap_rng = rng.spawn(3)
    path_rngs = _spawned(day_rng, days)
    noise_rngs = _spawned(noise_rng, days)

    f = spec.overnight_fraction
    total_var, pinned_returns = _days_total_variance(spec, days, gap_rng)
    session_var = total_var * (1.0 - f)
    gap_var = total_var * f

    groups = [
        (_session_layout(sessions, spec.steps_per_day), rows)
        for sessions, rows in table.groups
    ]
    day_ticks = np.empty(days, dtype=np.int64)
    for (offsets, _, _), rows in groups:
        day_ticks[rows] = offsets.size
    ends = np.cumsum(day_ticks)
    starts = ends - day_ticks
    times = np.empty(ends[-1], dtype=np.int64)
    # what each tick adds to the log price: the gap at a day's first open,
    # nothing at a later open, a step after it; summed in place below
    path = np.empty(ends[-1])

    for (offsets, layout, total_len), rows in groups:
        block = _draw_days(layout, offsets.size, rows, path_rngs, gap_var)
        rate = session_var[rows] / total_len  # spot variance per second
        if pinned_returns is None:
            _free_increments(block, layout, rate)
        else:
            target = pinned_returns[rows] - block[:, 0]
            _bridge_increments(block, layout, rate, target, total_len)
        width = offsets.size
        for i, (d, start) in enumerate(zip(rows.tolist(), starts[rows].tolist())):
            path[start : start + width] = block[i]
            np.add(offsets, table.midnight_us[d], out=times[start : start + width])
        del block  # before the next block or the noise is allocated

    path[0] = math.log(spec.start_price)
    np.cumsum(path, out=path)  # left to right, as a running sum would
    closes = path[ends - 1]
    true_returns = closes - np.append(path[0], closes[:-1])

    noise = np.empty(path.size)
    for d, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
        noise_rngs(d).standard_normal(out=noise[start:end])
    noise *= math.sqrt(spec.noise.rho2)
    path += noise
    del noise  # before TickSeries validates the ticks
    prices = np.exp(path, out=path)

    ticks = TickSeries(times.view("datetime64[us]"), prices)
    daily = DailyPriceSeries(dates, prices[ends - 1])
    return IntradaySim(
        ticks=ticks,
        daily_prices=daily,
        dates=dates,
        session_variances=session_var.copy(),
        total_variances=total_var,
        true_daily_returns=true_returns,
    )


# O'Neill's seed_seq hash as NumPy's SeedSequence runs it (O'Neill 2014,
# "PCG: A Family of Simple Fast Space-Efficient Statistically Good
# Algorithms for Random Number Generation")
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(value):
    """How many 32-bit words SeedSequence makes of the integer ``value``."""
    return max(1, -(-int(value).bit_length() // 32))


def _spawned(parent, n):
    """The streams of ``parent.spawn(n)``: a callable that gives child i's
    generator, built when it is called.

    Child i's seed sequence assembles the parent's entropy words and the
    word i, so its pool is the parent's pool with i mixed in by the hash's
    next ``pool_size`` steps; ``generate_state(4, uint64)`` of that pool
    seeds its PCG64.  This works out those words for all n children at
    once in ``uint32`` arithmetic, and PCG64 seeds itself from child i's
    words.  The parent's spawn count does not advance (NumPy keeps it
    read-only).  A parent that is not PCG64 over a SeedSequence of integer
    entropy spawns.
    """
    bit_generator = parent.bit_generator
    seq = bit_generator.seed_seq
    entropy = seq.entropy if isinstance(seq.entropy, (list, tuple)) else [seq.entropy]
    if (
        type(bit_generator) is not np.random.PCG64
        or type(seq) is not np.random.SeedSequence
        or not all(isinstance(v, (int, np.integer)) for v in entropy)
    ):
        return parent.spawn(n).__getitem__
    pool_size = seq.pool_size
    run_words = sum(_words(v) for v in entropy)
    key_words = sum(_words(v) for v in seq.spawn_key)
    if key_words:  # a spawned sequence pads its entropy to the pool size
        run_words = max(run_words, pool_size)
    # the parent's pool took one hash step a pool word, one a pair of pool
    # words, and one a pool word for each entropy word past the pool's size
    steps = pool_size * max(pool_size, run_words + key_words)
    hash_const = _INIT_A * pow(_MULT_A, steps, _MASK32 + 1) & _MASK32
    first = seq.n_children_spawned
    word = np.arange(first, first + n, dtype=np.uint32)
    pool = [np.full(n, v, dtype=np.uint32) for v in seq.pool.tolist()]
    for j in range(pool_size):  # hashmix the child's word into each pool word
        hashed = word ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        hashed *= np.uint32(hash_const)
        hashed ^= hashed >> np.uint32(16)
        mixed = np.uint32(_MIX_L) * pool[j] - np.uint32(_MIX_R) * hashed
        mixed ^= mixed >> np.uint32(16)
        pool[j] = mixed
    hash_const = _INIT_B
    seeds = np.empty((n, 8), dtype=np.uint32)  # generate_state's 8 words
    for j in range(8):
        out = seeds[:, j]
        np.bitwise_xor(pool[j % pool_size], np.uint32(hash_const), out=out)
        hash_const = hash_const * _MULT_B & _MASK32
        out *= np.uint32(hash_const)
        out ^= out >> np.uint32(16)
    # little-endian word pairs, as generate_state(4, uint64) joins them
    seeds = seeds.astype("<u4").view("<u8").astype(np.uint64)

    # made here: at module level it would import numpy.random with regarch
    class ChildWords(np.random.bit_generator.ISeedSequence):
        """Child i's seed sequence: PCG64 asks it for generate_state(4,
        uint64) and seeds itself from the words."""

        def __init__(self, i):
            self.i = i

        def generate_state(self, n_words, dtype=np.uint32):
            return seeds[self.i]

    return lambda i: np.random.Generator(np.random.PCG64(ChildWords(i)))


def _draw_days(layout, width, rows, path_rngs, gap_var):
    """The path draws of the days ``rows``, a row a day of ``width`` ticks.

    A day draws its opening gap first, into the first open's column (zero
    on the first day or without gap variance), and then its steps into the
    columns after each open.  A later session's open column stays zero.
    """
    block = np.zeros((rows.size, width))
    for i, d in enumerate(rows.tolist()):
        stream = path_rngs(d)
        if d > 0 and gap_var[d] > 0.0:
            block[i, 0] = math.sqrt(gap_var[d]) * stream.standard_normal()
        for col, _dt, m in layout:
            stream.standard_normal(out=block[i, col + 1 : col + 1 + m])
    return block


def _free_increments(block, layout, rate):
    """Independent Gaussian steps with variance rate * dt: the draws in
    ``block`` (a row a day, ``rate`` a value a row) scaled in place."""
    for col, dt, m in layout:
        block[:, col + 1 : col + 1 + m] *= np.sqrt(rate * dt)[:, None]


def _bridge_increments(block, layout, rate, target, total_len):
    """Brownian bridge steps hitting ``target`` over the session time.

    Sequential conditioning: with remaining target R and remaining time
    tau, a step of length dt is N(R dt / tau, rate * dt * (tau - dt) / tau).
    The final step is set to the exact remainder.  ``block`` holds a row a
    day with the draws in the step columns, which the steps overwrite;
    ``rate`` and ``target`` hold a value a row.  tau is the same on every
    day, so the recursion runs a step at a time over all rows at once.
    """
    steps = [(col + k, dt) for col, dt, m in layout for k in range(1, m + 1)]
    remaining_target = target.copy()
    remaining_time = total_len
    for col, dt in steps[:-1]:
        mean = remaining_target * dt / remaining_time
        sd = rate * dt * (remaining_time - dt) / remaining_time
        np.sqrt(np.maximum(sd, 0.0, out=sd), out=sd)
        sd *= block[:, col]
        mean += sd
        block[:, col] = mean
        remaining_target -= mean
        remaining_time -= dt
    block[:, steps[-1][0]] = remaining_target
