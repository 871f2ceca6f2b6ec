"""Realized variance, signature curves, HL adjustment, and RMSPE scoring.

Realized variance RV_t is the sum of squared intraday grid returns of day t.
Under independent microstructure noise of variance rho^2 on n returns a day
its expectation is inflated by about 2 n rho^2, which the signature curve
(average RV against sampling period) makes visible.  Because trading covers
only part of the day, the HL factor

    c = sum_t (R_t - Rbar)^2 / sum_t RV_t

rescales RV so its mean matches the daily close-to-close return variance.
Model fit against c-adjusted RV is scored by the root mean square
percentage error.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    daily_closes_from_ticks,
    daily_log_returns,
    resample_grid,
    write_csv,
)
from .exceptions import DomainError, InsufficientDataError, ValidationError
from .garch import VolSeries

logger = logging.getLogger(__name__)


@dataclass
class NoiseModel:
    """Independent observation noise on log prices, variance rho2."""

    rho2: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.rho2) or self.rho2 < 0.0:
            raise DomainError("noise variance rho2 must be finite and >= 0")

    def bias(self, n_returns):
        """Expected RV inflation from n noisy returns: 2 n rho^2."""
        return 2.0 * n_returns * self.rho2


@dataclass
class RvSeries:
    """Per-day realized variances at one sampling period."""

    dates: tuple
    values: np.ndarray
    delta_seconds: float
    hl_factor: float | None = None

    def __post_init__(self):
        self.dates = tuple(self.dates)
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.dates) != self.values.shape[0]:
            raise ValidationError("dates and values have different lengths")
        if self.values.size and not (
            np.isfinite(self.values).all() and (self.values >= 0).all()
        ):
            raise ValidationError("realized variances must be finite and >= 0")
        if self.hl_factor is not None and self.hl_factor <= 0:
            raise ValidationError("hl_factor must be positive when present")

    def __len__(self):
        return len(self.dates)

    def c_adjusted(self):
        """Values multiplied by the HL factor (1 when absent)."""
        c = 1.0 if self.hl_factor is None else self.hl_factor
        return self.values * c

    def with_hl(self, c):
        return replace(self, hl_factor=float(c))


@dataclass
class SignatureCurve:
    """Average RV and HL factor per sampling period."""

    deltas: np.ndarray
    avg_rv: np.ndarray
    hl_factors: np.ndarray

    def __post_init__(self):
        self.deltas = np.asarray(self.deltas, dtype=np.float64)
        self.avg_rv = np.asarray(self.avg_rv, dtype=np.float64)
        self.hl_factors = np.asarray(self.hl_factors, dtype=np.float64)
        if not (self.deltas.shape == self.avg_rv.shape == self.hl_factors.shape):
            raise ValidationError("signature columns must have equal lengths")

    @classmethod
    def from_rv(cls, series):
        """Curve of HL-adjusted :class:`RvSeries`, one per sampling period."""
        return cls(
            np.array([rv.delta_seconds for rv in series]),
            np.array([float(rv.values.mean()) for rv in series]),
            np.array([rv.hl_factor for rv in series]),
        )


def realized_variance(day_returns):
    """Sum of squared intraday returns; an empty day contributes 0."""
    r = np.asarray(day_returns, dtype=np.float64)
    if r.size == 0:
        logger.warning("empty return day: realized variance set to 0")
        return 0.0
    return float(r @ r)


def rv_from_ticks(ticks, calendar, delta_seconds):
    """Resample ticks on session grids and sum squared returns per day."""
    grid = resample_grid(ticks, calendar, delta_seconds)
    if not grid.dates:
        raise InsufficientDataError("no usable days in the tick data")
    values = np.empty(len(grid.dates))
    for pos, r in grid.day_returns():
        values[pos] = realized_variance(r)
    return RvSeries(grid.dates, values, float(delta_seconds))


def _align(dates_a, dates_b, what):
    """Index arrays selecting the common dates of two sorted date tuples."""
    common = sorted(set(dates_a) & set(dates_b))
    if not common:
        raise InsufficientDataError(f"no overlapping dates between {what}")
    dropped = (len(dates_a) - len(common)) + (len(dates_b) - len(common))
    if dropped:
        logger.info("dropped %d unmatched day(s) aligning %s", dropped, what)
    pos_a = {d: i for i, d in enumerate(dates_a)}
    pos_b = {d: i for i, d in enumerate(dates_b)}
    idx_a = np.array([pos_a[d] for d in common], dtype=np.intp)
    idx_b = np.array([pos_b[d] for d in common], dtype=np.intp)
    return tuple(common), idx_a, idx_b


def hl_factor(daily_returns, rv):
    """c = sum (R_t - Rbar)^2 / sum RV_t over the common days."""
    _, idx_r, idx_v = _align(
        daily_returns.dates, rv.dates, "daily returns and realized variance"
    )
    r = daily_returns.values[idx_r]
    centered = r - r.mean()
    denom = float(rv.values[idx_v].sum())
    if denom <= 0.0:
        raise DomainError("realized variances sum to zero; HL factor undefined")
    return float(centered @ centered) / denom


def hl_adjusted_rv(ticks, calendar, deltas, daily_returns):
    """One :class:`RvSeries` per sampling period, each with its HL factor."""
    deltas = [float(d) for d in deltas]
    if not deltas:
        raise DomainError("need at least one sampling period")
    series = []
    for delta in deltas:
        rv = rv_from_ticks(ticks, calendar, delta)
        series.append(rv.with_hl(hl_factor(daily_returns, rv)))
    return series


def signature_curve(ticks, calendar, deltas, daily_returns=None):
    """Average RV and c for each sampling period in ``deltas``.

    Daily returns default to close-to-close returns of the last tick of
    each day, so a bare tick file is enough.
    """
    if daily_returns is None:
        daily_returns = daily_log_returns(daily_closes_from_ticks(ticks, calendar))
    return SignatureCurve.from_rv(hl_adjusted_rv(ticks, calendar, deltas, daily_returns))


def scale_to_daily_variance(model_vols, daily_returns):
    """Rescale model variances so their mean matches the daily-return variance.

    The factor is [sum (R_t - Rbar)^2 / N] / [sum sigma_t^2 / N] over the
    common days; output covers exactly those days.
    """
    common, idx_v, idx_r = _align(
        model_vols.dates, daily_returns.dates, "model variances and daily returns"
    )
    vols = model_vols.values[idx_v]
    r = daily_returns.values[idx_r]
    centered = r - r.mean()
    mean_model = float(vols.mean())
    if mean_model <= 0.0:
        raise DomainError("model variances average to zero; cannot rescale")
    factor = float(centered @ centered) / len(common) / mean_model
    return VolSeries(common, vols * factor)


def rmspe(scaled_model_vols, adjusted_rv, mean_normalized=True):
    """Root mean square percentage error of model variance against RV.

    ``adjusted_rv`` values are multiplied by the series' HL factor when one
    is attached.  With ``mean_normalized`` false the mean 1/N is omitted
    (legacy root-sum form); rankings between models are unaffected.
    """
    common, idx_v, idx_r = _align(
        scaled_model_vols.dates, adjusted_rv.dates, "model variances and RV"
    )
    vols = scaled_model_vols.values[idx_v]
    target = adjusted_rv.c_adjusted()[idx_r]
    bad = np.nonzero(target <= 0.0)[0]
    if bad.size:
        names = ", ".join(common[i].isoformat() for i in bad[:5])
        raise DomainError(f"adjusted RV is zero on {bad.size} day(s): {names}")
    rel = (vols - target) / target
    total = float(rel @ rel)
    if mean_normalized:
        total /= len(common)
    return math.sqrt(total)


def write_rv_csv(rv, target, comments=()):
    """Emit ``date,rv,c_adjusted_rv`` rows (c taken as 1 when absent)."""
    write_csv(
        target,
        ("date", "rv", "c_adjusted_rv"),
        (rv.dates, rv.values, rv.c_adjusted()),
        comments,
    )


def write_signature_csv(curve, target, comments=()):
    """Emit ``delta_seconds,avg_rv,hl_factor`` rows."""
    write_csv(
        target,
        ("delta_seconds", "avg_rv", "hl_factor"),
        (curve.deltas, curve.avg_rv, curve.hl_factors),
        comments,
    )
