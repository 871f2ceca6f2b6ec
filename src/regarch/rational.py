"""Rational error density a / [pi (1 + (a^2 - 2) x^2 + x^4)] and its CDF.

The density integrates to one and has unit variance for every shape a > 0;
its tails fall off like x^-4, so the fourth moment diverges.  It is unimodal
at zero only for a >= sqrt(2); below that the mode splits symmetrically.

The CDF has a closed form.  With q = 1 + (a^2 - 2) t^2 + t^4, splitting
2/q = (1 + t^2)/q + (1 - t^2)/q gives two integrals elementary in t - 1/t
and t + 1/t; with s = 4 - a^2 and u = x + 1/x for x > 0,

    F(x) = 1/2 + (a / 2 pi) [(arctan((x - 1/x) / a) + pi/2) / a + I(u)],

where I(u) = artanh(sqrt(s)/u)/sqrt(s) for a < 2, arctan(sqrt(-s)/u)/sqrt(-s)
for a > 2 and 1/u for a = 2; F is odd about 1/2.  Beyond |x| = 50 the exact
x^-3 tail integral, joined to the mass left there, takes over.  Sampling
inverts F by safeguarded Newton steps.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DomainError

UNIMODAL_MIN_A = math.sqrt(2.0)

_X_MAX = 50.0
_LN_PI = math.log(math.pi)
# quantile iterations stop once F matches p - 1/2, or x moves, by a few ulps
_RTOL = 4.0 * np.finfo(np.float64).eps
_MAX_ITER = 100
# Gauss-Legendre nodes per panel of the second-moment rule, and its panel
# breakpoints on either side of t = pi/4 in units of a/4
_PANEL_NODES = 64
_PANEL_WIDTHS = np.array([0.25, 1.0, 4.0, 16.0])


def _check_a(a):
    if not np.isscalar(a) or not math.isfinite(a) or a <= 0:
        raise DomainError(f"shape parameter a must be a positive finite scalar, got {a!r}")
    return float(a)


def pdf(x, a):
    """Density at x; accepts scalars or arrays."""
    a = _check_a(a)
    x = np.asarray(x, dtype=np.float64)
    x2 = x * x
    # (x^2 - 1)^2 + a^2 x^2 equals the quartic 1 + (a^2 - 2) x^2 + x^4
    # without cancellation for large |x|
    den = (x2 - 1.0) ** 2 + (a * a) * x2
    out = a / (np.pi * den)
    return out if out.ndim else float(out)


def log_pdf(x, a):
    """Log density at x; accepts scalars or arrays."""
    a = _check_a(a)
    x = np.asarray(x, dtype=np.float64)
    x2 = x * x
    den = (x2 - 1.0) ** 2 + (a * a) * x2
    out = math.log(a) - _LN_PI - np.log(den)
    return out if out.ndim else float(out)


def _half_mass(x, a):
    """P(0 < X <= x) for x >= 0 by the closed form.

    arctan((x - 1/x)/a) + pi/2 is evaluated as atan2(a x, 1 - x^2) and
    sqrt(|s|)/u as sqrt(|s|) x / (1 + x^2): the same values without the
    cancellation near x = 0 or the division by zero at it.
    """
    x2p1 = 1.0 + x * x
    arc = np.arctan2(a * x, (1.0 - x) * (1.0 + x)) / a
    s = (2.0 - a) * (2.0 + a)
    if s > 0.0:
        r = math.sqrt(s)
        inner = np.arctanh(r * x / x2p1) / r
    elif s < 0.0:
        r = math.sqrt(-s)
        inner = np.arctan(r * x / x2p1) / r
    else:
        inner = x / x2p1
    return a / (2.0 * np.pi) * (arc + inner)


def _tail_mass(a):
    """P(X > 50): the mass the x^-3 tail carries."""
    return 0.5 - float(_half_mass(_X_MAX, a))


def cdf(x, a):
    """CDF at x for shape ``a``; accepts scalars or arrays."""
    a = _check_a(a)
    x_in = np.asarray(x, dtype=np.float64)
    ax = np.abs(x_in)
    g = _half_mass(np.minimum(ax, _X_MAX), a)
    # exact tail: integral of a/(pi x^4) from t to inf is a/(3 pi t^3),
    # rescaled so the closed form and the tail meet continuously at 50
    far = ax > _X_MAX
    g = np.where(far, 0.5 - _tail_mass(a) * (_X_MAX / np.maximum(ax, _X_MAX)) ** 3, g)
    out = 0.5 + np.sign(x_in) * g
    return out if out.ndim else float(out)


def _solve_half(q, a):
    """x in [0, 50] with P(0 < X <= x) = q, for each q in [0, P(0 < X <= 50)].

    Newton steps inside a bracket that every evaluation narrows; a step that
    leaves the bracket is replaced by its midpoint.  An entry stops once F
    matches q, or the step moves x, by no more than a few ulps.
    """
    lo = np.zeros_like(q)
    hi = np.full_like(q, _X_MAX)
    # the Cauchy quantile has the same centre and a similar spread
    x = np.minimum(np.tan(np.pi * q), _X_MAX)
    for _ in range(_MAX_ITER):
        r = _half_mass(x, a) - q
        lo = np.where(r < 0.0, x, lo)
        hi = np.where(r > 0.0, x, hi)
        new = x - r / pdf(x, a)
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        done = (np.abs(r) <= _RTOL * q) | (np.abs(new - x) <= _RTOL * x)
        if done.all():
            break
        x = np.where(done, x, new)
    return x


def quantile(p, a):
    """Quantile at probability p in (0, 1) for shape ``a``; scalars or arrays."""
    a = _check_a(a)
    p_in = np.asarray(p, dtype=np.float64)
    if ((p_in <= 0.0) | (p_in >= 1.0)).any():
        raise DomainError("probabilities must lie strictly inside (0, 1)")
    z = np.atleast_1d(p_in - 0.5)
    q = np.abs(z)
    tail = _tail_mass(a)
    inside = q <= 0.5 - tail
    x = np.empty_like(q)
    x[inside] = _solve_half(q[inside], a)
    rest = np.maximum(0.5 - q[~inside], 1e-300)
    x[~inside] = _X_MAX * (tail / rest) ** (1.0 / 3.0)
    out = np.sign(z) * x
    return out if p_in.ndim else float(out[0])


def sample(count, a, rng):
    """Draw ``count`` variates by inverting the CDF."""
    if count < 0:
        raise DomainError("count must be non-negative")
    a = _check_a(a)
    if count == 0:
        return np.empty(0)
    u = rng.random(count)
    # u == 0 would ask for the -inf quantile; nudge inside the open interval
    u = np.maximum(u, 1e-300)
    return quantile(u, a)


def variance_check(a):
    """Second moment by Gauss-Legendre panels; equals 1 up to integration
    error.

    Exposed so callers can confirm the unit-variance normalization that the
    likelihood relies on, rather than trusting it.  Under x = tan(t) the
    integrand x^2 f(x) (1 + x^2) is smooth and bounded on [0, pi/2], with
    peaks of width about a/4 next to t = pi/4 (x = 1).  Panels break at
    0, pi/4, pi/2 and pi/4 +- (a/4) {1/4, 1, 4, 16} inside the interval,
    so the rule resolves the peaks for small a as well as large.
    """
    a = _check_a(a)
    quarter = 0.25 * np.pi
    offsets = 0.25 * a * _PANEL_WIDTHS
    breaks = np.concatenate(
        ([0.0, quarter, 2.0 * quarter], quarter - offsets, quarter + offsets)
    )
    edges = np.unique(np.clip(breaks, 0.0, 2.0 * quarter))
    nodes, weights = np.polynomial.legendre.leggauss(_PANEL_NODES)
    half = 0.5 * np.diff(edges)
    t = (edges[:-1] + half)[:, None] + half[:, None] * nodes
    x = np.tan(t)
    x2 = x * x
    integrand = x2 * pdf(x, a) * (1.0 + x2)
    return 2.0 * float(half @ (integrand @ weights))
