"""GARCH(1,1) conditional variances and log-likelihoods.

The variance recursion is

    sigma_t^2 = omega + alpha * y_{t-1}^2 + beta * sigma_{t-1}^2

with y_t = sigma_t * eps_t and eps_t drawn from either a standard normal or
the unit-variance rational density (see :mod:`regarch.rational`).  Positivity
of omega, alpha, beta is a hard constraint; covariance stationarity
(alpha + beta < 1) is reported but not enforced, matching common practice
for estimation near the IGARCH boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import recursions_python as _kernels
from .exceptions import DomainError, NumericalError

NORMAL = "normal"
RATIONAL = "rational"


@dataclass(frozen=True)
class GarchParams:
    """Parameter point (omega, alpha, beta) plus the error law.

    ``a`` is the rational shape parameter and must be set exactly when
    ``law == RATIONAL``.
    """

    omega: float
    alpha: float
    beta: float
    law: str = NORMAL
    a: float | None = None

    def __post_init__(self):
        if self.law not in (NORMAL, RATIONAL):
            raise DomainError(f"unknown error law {self.law!r}")
        if self.law == RATIONAL and self.a is None:
            raise DomainError("rational law needs the shape parameter a")
        if self.law == NORMAL and self.a is not None:
            raise DomainError("a is only meaningful for the rational law")

    @property
    def names(self):
        if self.law == RATIONAL:
            return ("omega", "alpha", "beta", "a")
        return ("omega", "alpha", "beta")

    @property
    def k(self):
        """Number of free parameters."""
        return 4 if self.law == RATIONAL else 3

    def to_vector(self):
        vec = [self.omega, self.alpha, self.beta]
        if self.law == RATIONAL:
            vec.append(self.a)
        return np.array(vec, dtype=np.float64)

    @classmethod
    def from_vector(cls, vec, law=NORMAL):
        vec = np.asarray(vec, dtype=np.float64)
        if law == RATIONAL:
            if vec.shape != (4,):
                raise DomainError("rational law takes (omega, alpha, beta, a)")
            return cls(float(vec[0]), float(vec[1]), float(vec[2]), RATIONAL, float(vec[3]))
        if vec.shape != (3,):
            raise DomainError("normal law takes (omega, alpha, beta)")
        return cls(float(vec[0]), float(vec[1]), float(vec[2]))

    def unconditional_variance(self):
        """omega / (1 - alpha - beta); only defined in the stationary region."""
        persistence = self.alpha + self.beta
        if persistence >= 1.0:
            raise DomainError("unconditional variance undefined for alpha+beta >= 1")
        return self.omega / (1.0 - persistence)


@dataclass
class ConstraintReport:
    valid: bool
    violations: list[str]
    stationary: bool


def check_constraints(params):
    """Positivity is hard; non-stationarity only flips the ``stationary`` flag."""
    violations = []
    for name in ("omega", "alpha", "beta"):
        v = getattr(params, name)
        if not math.isfinite(v) or v <= 0.0:
            violations.append(f"{name} must be positive and finite, got {v!r}")
    if params.law == RATIONAL:
        if not math.isfinite(params.a) or params.a <= 0.0:
            violations.append(f"a must be positive and finite, got {params.a!r}")
    stationary = (
        not violations and params.alpha + params.beta < 1.0
    )
    return ConstraintReport(not violations, violations, stationary)


@dataclass
class VolSeries:
    """Conditional variances sigma_t^2 aligned with return dates."""

    dates: tuple
    values: np.ndarray

    def __post_init__(self):
        self.dates = tuple(self.dates)
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.dates) != self.values.shape[0]:
            raise DomainError("dates and values have different lengths")
        if self.values.size and not (
            np.isfinite(self.values).all() and (self.values > 0).all()
        ):
            raise NumericalError("variances must be finite and positive")

    def __len__(self):
        return len(self.dates)

    def volatilities(self):
        return np.sqrt(self.values)


def _resolve_init(returns, init_variance):
    if init_variance is None:
        init_variance = returns.sample_variance()
    if not math.isfinite(init_variance) or init_variance <= 0.0:
        raise DomainError(f"initial variance must be positive, got {init_variance!r}")
    return float(init_variance)


def _validated(params):
    report = check_constraints(params)
    if not report.valid:
        raise DomainError("; ".join(report.violations))
    if not report.stationary:
        warnings.warn(
            "alpha + beta >= 1: variance is not covariance stationary",
            RuntimeWarning,
            stacklevel=3,
        )
    return params


def volatility_recursion(params, returns, init_variance=None):
    """Run the variance recursion over a return series.

    sigma_1^2 is the initial variance (sample variance of the returns when
    not given); each later variance feeds on the previous squared return.
    """
    _validated(params)
    init = _resolve_init(returns, init_variance)
    values = np.ascontiguousarray(returns.values, dtype=np.float64)
    out = np.empty(values.shape[0])
    bad = _kernels.garch_recursion(
        params.omega, params.alpha, params.beta, values, init, out
    )
    if bad >= 0:
        raise NumericalError("variance recursion left (0, inf)", index=int(bad))
    return VolSeries(returns.dates, out)


def log_likelihood(params, returns, init_variance=None):
    """Log-likelihood of the returns under ``params``.

    Normal law:   sum of -0.5 * (ln 2 pi sigma_t^2 + y_t^2 / sigma_t^2).
    Rational law: sum of ln f(y_t / sigma_t; a) - 0.5 ln sigma_t^2.
    """
    _validated(params)
    init = _resolve_init(returns, init_variance)
    values = np.ascontiguousarray(returns.values, dtype=np.float64)
    if params.law == RATIONAL:
        ll, bad = _kernels.rational_loglik(
            params.omega, params.alpha, params.beta, params.a, values, init
        )
    else:
        ll, bad = _kernels.normal_loglik(
            params.omega, params.alpha, params.beta, values, init
        )
    if bad >= 0:
        raise NumericalError("non-finite likelihood term", index=int(bad))
    return float(ll)


def log_likelihoods(thetas, law, returns, init_variance=None):
    """Log-likelihood at each row of ``thetas``, one parameter vector per row
    in the order of :meth:`GarchParams.to_vector` for ``law``.

    Each row equals :func:`log_likelihood` at that point, bit for bit; a row
    at which it would raise (a parameter that is not positive and finite, a
    variance or likelihood term outside the finite range) scores -inf.  One
    row runs the scalar kernel, whose float-loop recursion is several times
    faster for a single point than a block pass; more rows run the block
    kernels.
    """
    init = _resolve_init(returns, init_variance)
    thetas = np.asarray(thetas, dtype=np.float64)
    values = np.ascontiguousarray(returns.values, dtype=np.float64)
    out = np.full(thetas.shape[0], -math.inf)
    valid = (np.isfinite(thetas) & (thetas > 0.0)).all(axis=1)
    if thetas.shape[0] == 1:
        if valid[0]:
            scalar = _kernels.rational_loglik if law == RATIONAL else _kernels.normal_loglik
            ll, bad = scalar(*thetas[0].tolist(), values, init)
            if bad < 0:
                out[0] = ll
        return out
    block = (
        _kernels.rational_loglik_block
        if law == RATIONAL
        else _kernels.normal_loglik_block
    )
    out[valid] = block(*np.ascontiguousarray(thetas[valid].T), values, init)
    return out
