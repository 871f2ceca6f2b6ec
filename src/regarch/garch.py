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

_GARCH_NAMES = ("omega", "alpha", "beta")
# each error law's parameters in vector order: the GARCH(1,1) three, then
# the law's own
PARAM_NAMES = {NORMAL: _GARCH_NAMES, RATIONAL: _GARCH_NAMES + ("a",)}


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
        if self.law not in PARAM_NAMES:
            raise DomainError(f"unknown error law {self.law!r}")
        if self.law == RATIONAL and self.a is None:
            raise DomainError("rational law needs the shape parameter a")
        if self.law == NORMAL and self.a is not None:
            raise DomainError("a is only meaningful for the rational law")

    @property
    def names(self):
        return PARAM_NAMES[self.law]

    @property
    def k(self):
        """Number of free parameters."""
        return len(self.names)

    def to_vector(self):
        return np.array([getattr(self, name) for name in self.names], dtype=np.float64)

    @classmethod
    def from_vector(cls, vec, law=NORMAL):
        if law not in PARAM_NAMES:
            raise DomainError(f"unknown error law {law!r}")
        names = PARAM_NAMES[law]
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (len(names),):
            raise DomainError(f"{law} law takes ({', '.join(names)})")
        return cls(law=law, **dict(zip(names, vec.tolist())))

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
    for name in params.names:
        v = getattr(params, name)
        if not math.isfinite(v) or v <= 0.0:
            violations.append(f"{name} must be positive and finite, got {v!r}")
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
    sig2, bad = _kernels.garch_recursion(
        params.omega, params.alpha, params.beta, values, init
    )
    if bad >= 0:
        raise NumericalError("variance recursion left (0, inf)", index=int(bad))
    return VolSeries(returns.dates, sig2)


def _scalar_loglik(law, theta, values, init):
    """The scalar kernel of ``law`` at the parameter list ``theta``:
    (loglik, bad_index).  The kernel is looked up on each call, so a
    wrapper installed on the kernel module is the one that runs."""
    return getattr(_kernels, f"{law}_loglik")(*theta, values, init)


def log_likelihood(params, returns, init_variance=None):
    """Log-likelihood of the returns under ``params``.

    Normal law:   sum of -0.5 * (ln 2 pi sigma_t^2 + y_t^2 / sigma_t^2).
    Rational law: sum of ln f(y_t / sigma_t; a) - 0.5 ln sigma_t^2.
    """
    _validated(params)
    init = _resolve_init(returns, init_variance)
    values = np.ascontiguousarray(returns.values, dtype=np.float64)
    ll, bad = _scalar_loglik(params.law, params.to_vector().tolist(), values, init)
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
            ll, bad = _scalar_loglik(law, thetas[0].tolist(), values, init)
            if bad < 0:
                out[0] = ll
        return out
    block = getattr(_kernels, f"{law}_loglik_block")
    out[valid] = block(*np.ascontiguousarray(thetas[valid].T), values, init)
    return out


def log_likelihood_gradient(theta, law, returns, init_variance=None):
    """Log-likelihood at the parameter vector ``theta`` (in the order of
    :meth:`GarchParams.to_vector` for ``law``) and its gradient in those
    parameters: (loglik, gradient), or (-inf, None) where a parameter is not
    positive and finite or a variance, term or slope is not.  The value
    equals :func:`log_likelihoods`' to rounding, not bit for bit.
    """
    init = _resolve_init(returns, init_variance)
    theta = np.asarray(theta, dtype=np.float64)
    if not (np.isfinite(theta) & (theta > 0.0)).all():
        return -math.inf, None
    values = np.ascontiguousarray(returns.values, dtype=np.float64)
    return getattr(_kernels, f"{law}_loglik_grad")(*theta.tolist(), values, init)
