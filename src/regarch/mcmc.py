"""Adaptive independence Metropolis-Hastings for GARCH posteriors.

Proposals are multivariate Student's t, independent of the current state,
so all candidates of a block with a fixed proposal are drawn and scored
before an accept pass that only compares numbers.  The draws keep the
per-step order of a one-at-a-time sampler, so a seed gives the same chain.
During burn-in the proposal's location and scale are refitted every
``adapt_interval`` draws to the sample mean and covariance of the chain so
far; after burn-in the proposal is frozen, which keeps the retained chain a
valid MH sample.  Sampling runs in log coordinates so the positivity
constraints become unbounded, with the Jacobian folded into the target.

The flat prior on the positive orthant is improper.  Under garch-n the
likelihood decays fast enough in every direction for the posterior to be
proper in practice; under garch-re it does not.  As a -> inf with
omega ~ a^2 the rational law tends to a Cauchy law and the likelihood to a
constant, while the Jacobian keeps growing, so the posterior is improper
along that ridge, and chains on short series can run off along it.  A
start search that runs off to where the parameters overflow, a posterior
mean or sd that is not finite, and a collapsed acceptance rate are reported
as errors rather than papered over.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import write_csv
from .exceptions import (
    AdaptationFailureError,
    DomainError,
    InsufficientDataError,
    InsufficientHistoryError,
    NumericalError,
    ValidationError,
)
from .garch import (
    NORMAL,
    PARAM_NAMES,
    RATIONAL,
    GarchParams,
    log_likelihood,
    log_likelihood_gradient,
    log_likelihoods,
)
from .rational import UNIMODAL_MIN_A

logger = logging.getLogger(__name__)

MODEL_NORMAL = "garch-n"
MODEL_RATIONAL = "garch-re"

_LAW_FOR_MODEL = {MODEL_NORMAL: NORMAL, MODEL_RATIONAL: RATIONAL}

# window rule for the integrated autocorrelation time: smallest W with
# W >= _TAU_WINDOW_FACTOR * tau(W)
_TAU_WINDOW_FACTOR = 5.0
_TAU_MAX_LAG = 10_000

# frozen-phase MH steps scored per block
_FROZEN_BLOCK = 2000

# the start search stops once every gradient component is this small, or
# after this many iterations; a line search gives up after this many trials
_SEARCH_GTOL = 1e-6
_SEARCH_ITERATIONS = 200
_LINE_TRIALS = 40

# the largest proposal dof: the t normaliser's lgamma overflows past 5.1e305
_MAX_DOF = 5e305
_DOF_RANGE = f"proposal dof must be finite and exceed 2, at most {_MAX_DOF:g}"

# where a chain or its start search runs off
_RIDGE = (
    "an improper ridge of the posterior (garch-re has one: a -> inf with "
    "omega ~ a^2, the Cauchy limit of the rational law, which a short series "
    "does not rule out)"
)


def model_law(model):
    """The error law of ``model``; an unknown model is a DomainError."""
    if model not in _LAW_FOR_MODEL:
        raise DomainError(f"unknown model {model!r}; expected garch-n or garch-re")
    return _LAW_FOR_MODEL[model]


@dataclass
class Prior:
    """Flat prior on a per-parameter box inside the positive orthant.

    Unspecified bounds default to (0, inf).  The density is an unnormalized
    indicator: 0 inside the box (log scale), -inf outside.
    """

    lower: dict[str, float] = field(default_factory=dict)
    upper: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        known = set().union(*PARAM_NAMES.values())
        unknown = sorted((self.lower.keys() | self.upper.keys()) - known)
        if unknown:
            raise ValidationError(f"prior bounds name unknown parameters {unknown}")

    def contains(self, thetas, names):
        """Mask of the rows of ``thetas`` (parameters ``names``) in the box."""
        lo = np.array([self.lower.get(name, 0.0) for name in names])
        hi = np.array([self.upper.get(name, math.inf) for name in names])
        return (np.isfinite(thetas) & (lo < thetas) & (thetas < hi)).all(axis=1)


class StudentTProposal:
    """Multivariate Student's t distribution used as the independence proposal.

    ``scale`` is the scale matrix Sigma; the covariance is Sigma * dof/(dof-2).
    """

    def __init__(self, location, scale, dof):
        if not 2.0 < dof <= _MAX_DOF:  # a NaN fails both
            raise DomainError(_DOF_RANGE)
        self.location = np.asarray(location, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.dof = float(dof)
        d = self.location.shape[0]
        if self.scale.shape != (d, d):
            raise DomainError("scale matrix shape does not match the location")
        # raises LinAlgError when the scale is not positive definite
        self._chol = np.linalg.cholesky(self.scale)
        self._log_norm = (
            math.lgamma((self.dof + d) / 2.0)
            - math.lgamma(self.dof / 2.0)
            - 0.5 * d * math.log(self.dof * math.pi)
            - np.log(np.diag(self._chol)).sum()
        )

    @property
    def dim(self):
        return self.location.shape[0]

    def covariance(self):
        return self.scale * self.dof / (self.dof - 2.0)

    def log_density(self, x):
        """Log density at a point (d,) or at each row of a block (m, d)."""
        r = (np.asarray(x, dtype=np.float64) - self.location).T
        # forward substitution L z = r, one row of the factor at a time
        z = np.empty_like(r)
        for i, row in enumerate(self._chol):
            z[i] = (r[i] - row[:i] @ z[:i]) / row[i]
        m = (z * z).sum(axis=0)
        out = self._log_norm - 0.5 * (self.dof + self.dim) * np.log1p(m / self.dof)
        return out if out.ndim else float(out)

    def sample(self, rng):
        return self.transform(rng.standard_normal(self.dim), rng.chisquare(self.dof))

    def transform(self, z, w):
        """Draws from standard normal vectors ``z`` (d,) or (m, d) and
        chi-square(dof) variates ``w``."""
        scaled = np.matmul(self._chol, z[..., None])[..., 0]
        return self.location + scaled * np.sqrt(self.dof / w)[..., None]


def adapt_proposal(history, dof):
    """Student's t proposal moment-matched to the chain history.

    The scale is the sample covariance shrunk by (dof-2)/dof so the proposal
    covariance equals the history covariance.  Degenerate covariances get an
    escalating diagonal jitter before giving up.
    """
    h = np.asarray(history, dtype=np.float64)
    if h.ndim != 2:
        raise InsufficientHistoryError("history must be a 2-d sample block")
    n, d = h.shape
    if n < d + 2:
        raise InsufficientHistoryError(
            f"need at least {d + 2} draws to fit a {d}-dimensional proposal"
        )
    location = h.mean(axis=0)
    cov = np.atleast_2d(np.cov(h, rowvar=False, ddof=1))
    scale = cov * (dof - 2.0) / dof
    jitter = 0.0
    for _ in range(6):
        try:
            return StudentTProposal(scale=scale + jitter * np.eye(d), location=location, dof=dof)
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 100.0
    raise NumericalError("proposal covariance is not repairable")


def mh_step(current, candidate, u):
    """Independence MH accept test on precomputed (log target, proposal log
    density) pairs ``current`` and ``candidate``, with the step's uniform
    draw ``u``.  Returns whether the candidate is accepted."""
    log_target, log_proposal = current
    candidate_target, candidate_proposal = candidate
    if candidate_target == -math.inf:
        return False
    log_ratio = candidate_target - log_target + log_proposal - candidate_proposal
    if math.isnan(log_ratio):
        return log_target == -math.inf
    return log_ratio >= 0.0 or u < math.exp(log_ratio)


def acf(series, max_lag):
    """Autocorrelation function out to ``max_lag`` with 1/N normalization."""
    x = np.asarray(series, dtype=np.float64)
    n = x.shape[0]
    if not 0 <= max_lag < n:
        raise InsufficientDataError("series must be longer than max_lag")
    x = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    # the power spectrum in place: one spectrum-sized temporary fewer
    np.multiply(f, np.conj(f), out=f)
    autocov = np.fft.irfft(f, m)[: max_lag + 1] / n
    if autocov[0] == 0.0:
        raise NumericalError("series is constant; autocorrelation undefined")
    return autocov / autocov[0]


@dataclass
class AcfDiagnostics:
    acf: np.ndarray
    tau_int: float
    window: int


def integrated_autocorr_time(series):
    """Integrated autocorrelation time tau = 1 + 2 sum ACF with a self-
    consistent window: the sum stops at the smallest W >= 5 tau(W)."""
    x = np.asarray(series, dtype=np.float64)
    max_lag = min(x.shape[0] - 1, _TAU_MAX_LAG)
    if max_lag < 1:
        raise InsufficientDataError("need at least two points")
    r = acf(x, max_lag)
    tau = 1.0 + 2.0 * np.cumsum(r[1:])
    windows = np.arange(1, max_lag + 1, dtype=np.float64)
    hits = np.nonzero(windows >= _TAU_WINDOW_FACTOR * tau)[0]
    if hits.size == 0:
        logger.warning(
            "window rule unsatisfied out to lag %d; tau estimate is a floor",
            max_lag,
        )
        w = max_lag
    else:
        w = int(hits[0]) + 1
    return AcfDiagnostics(acf=r[: w + 1], tau_int=float(tau[w - 1]), window=w)


def format_uncertainty(mean, sd):
    """Render mean and one-sigma spread as e.g. 0.132(38) or 2.8(1.2)e-05.

    The spread keeps two significant digits and the mean is rounded to the
    same decimal place.
    """
    if not math.isfinite(mean) or not math.isfinite(sd) or sd <= 0.0:
        return repr(mean)
    exp10 = math.floor(math.log10(abs(mean))) if mean != 0.0 else math.floor(
        math.log10(sd)
    )
    if -3 <= exp10 <= 4:
        return _plain_uncertainty(mean, sd)
    mantissa = mean / 10.0**exp10
    body = _plain_uncertainty(mantissa, sd / 10.0**exp10)
    return f"{body}e{exp10:+03d}"


def _plain_uncertainty(mean, sd):
    sd_exp = math.floor(math.log10(sd))
    decimals = max(-sd_exp + 1, 0)
    sd_rounded = round(sd, -sd_exp + 1)
    # rounding can push the spread to the next decade (0.099 -> 0.10)
    if sd_rounded >= 10.0 ** (sd_exp + 1):
        sd_exp += 1
        decimals = max(-sd_exp + 1, 0)
        sd_rounded = round(sd, -sd_exp + 1)
    if sd_exp >= 0:
        # spread crosses the decimal point: keep it explicit, 1.57 +- 1.2
        # renders as 1.6(1.2) rather than the ambiguous 1.6(12)
        paren = f"{sd_rounded:.{max(1 - sd_exp, 0)}f}"
    else:
        paren = f"{int(round(sd_rounded * 10.0**decimals)):d}"
    return f"{mean:.{decimals}f}({paren})"


@dataclass
class ChainConfig:
    """Run lengths, proposal dof, adaptation cadence, prior, and seed."""

    burn_in: int = 6000
    samples: int = 50_000
    adapt_interval: int = 500
    nu: float = 10.0
    seed: int = 0
    prior: Prior = field(default_factory=Prior)

    def __post_init__(self):
        if self.samples < 2:
            raise ValidationError("samples must be at least 2 for a posterior sd")
        if self.adapt_interval <= 0:
            raise ValidationError("adapt_interval must be positive")
        if self.burn_in < self.adapt_interval:
            raise ValidationError("burn_in must cover at least one adaptation")
        if not 2.0 < self.nu <= _MAX_DOF:  # a NaN fails both
            raise ValidationError(_DOF_RANGE)
        if self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")

    def public_dict(self):
        d = {
            "burn_in": self.burn_in,
            "samples": self.samples,
            "adapt_interval": self.adapt_interval,
            "nu": self.nu,
            "seed": self.seed,
        }
        if self.prior.lower or self.prior.upper:
            d["prior"] = {"lower": self.prior.lower, "upper": self.prior.upper}
        return d


@dataclass
class ParamSummary:
    name: str
    mean: float
    sd: float
    tau_int: float

    def formatted(self):
        return format_uncertainty(self.mean, self.sd)


@dataclass
class ChainDraws:
    """The kept draws of one chain, before any summary: one row per kept
    step of the positions in log coordinates, their log targets and their
    log-likelihoods, and the kept steps' acceptance rate."""

    model: str
    samples_log: np.ndarray
    log_posteriors: np.ndarray
    log_likelihoods: np.ndarray
    acceptance_rate: float
    config: ChainConfig


@dataclass
class PosteriorChain(ChainDraws):
    """A chain's draws and their summary on the series they were drawn on."""

    samples: np.ndarray  # natural parameter space, (n, d)
    summaries: list
    lnl_at_mean: float
    n_obs: int
    data_digest: str

    @property
    def param_names(self):
        return PARAM_NAMES[model_law(self.model)]

    def mean(self):
        return self.samples.mean(axis=0)

    def params_at_mean(self):
        return GarchParams.from_vector(self.mean(), law=model_law(self.model))

    def mean_log_likelihood(self):
        return float(self.log_likelihoods.mean())

    def summary_dict(self):
        return {
            "model": self.model,
            "config": self.config.public_dict(),
            "n_obs": self.n_obs,
            "data_digest": self.data_digest,
            "acceptance_rate": self.acceptance_rate,
            "log_likelihood_at_mean": self.lnl_at_mean,
            "mean_log_likelihood": self.mean_log_likelihood(),
            "parameters": {
                s.name: {
                    "mean": s.mean,
                    "sd": s.sd,
                    "tau_int": s.tau_int,
                    "formatted": s.formatted(),
                }
                for s in self.summaries
            },
        }

    def export_samples_csv(self, target, comments=()):
        write_csv(target, self.param_names, self.samples.T, comments)


def data_digest(returns):
    """Stable fingerprint of a return series for comparability checks."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(returns.values).tobytes())
    h.update(",".join(d.isoformat() for d in returns.dates).encode())
    return h.hexdigest()[:16]


def _start_point(returns, law):
    """Moment-informed start: modest ARCH, strong persistence, and a unimodal
    rational law; the values of ``law``'s parameters in log coordinates."""
    var = returns.sample_variance()
    start = {"omega": 0.1 * var, "alpha": 0.1, "beta": 0.8, "a": 2.0}
    return np.log(np.array([start[name] for name in PARAM_NAMES[law]]))


def _laplace_scale(target, x, f0, nu):
    """Proposal scale from the curvature of the log target at its mode.

    An independence proposal narrower than the posterior has unbounded
    importance ratios, so the chain can freeze on a lucky tail point; the
    inverse Hessian puts the very first proposal on the right scale and
    the moment-matched re-adaptations only have to refine it.  ``f0`` is
    the log target at ``x``.  Falls back to a conservative diagonal when the
    curvature is unusable.
    """
    d = x.shape[0]
    h = 1e-3
    steps = h * np.eye(d)
    up, down = x + steps, x - steps
    i, j = np.triu_indices(d, 1)
    c = len(i)
    points = (
        up, down, up[i] + steps[j], up[i] - steps[j], down[i] + steps[j], down[i] - steps[j]
    )
    # all 2d + 4c points in one block call; each score equals the scalar call's
    scores = target.score(np.concatenate(points))[0]
    f_up, f_down, f_uu, f_ud, f_du, f_dd = np.split(scores, np.cumsum([d, d, c, c, c]))
    with np.errstate(invalid="ignore"):
        hess = np.diag((f_up - 2.0 * f0 + f_down) / h**2)
        hess[i, j] = hess[j, i] = (f_uu - f_ud - f_du + f_dd) / (4.0 * h**2)
    if np.isfinite(hess).all():
        lam, vec = np.linalg.eigh(-hess)
        if np.isfinite(lam).all() and lam.max() > 0.0:
            # covariance eigenvalues floored/capped to a sane log-coordinate range
            var = np.clip(1.0 / np.maximum(lam, 1e-12), 1e-4, 1.0)
            cov = (vec * var) @ vec.T
            return cov * (nu - 2.0) / nu
    return np.eye(d) * 0.01 * (nu - 2.0) / nu


class _LogTarget:
    """Log target of ``model`` in log coordinates: log prior + log-likelihood
    + the Jacobian of theta = exp(x), -inf wherever the target rejects.  An
    unknown model, a series of under 30 returns and one with no variance
    are refused here, where every chain starts.

    :meth:`score` scores a block of points at once; a call scores one point
    as a one-row block, which ``log_likelihoods`` runs on the scalar kernel,
    while the many-row blocks of MH candidates run on the block kernels.
    :meth:`value_and_gradient` serves the start search, on the gradient
    kernels.
    """

    def __init__(self, model, returns, prior):
        self.law = model_law(model)
        if len(returns) < 30:
            raise InsufficientDataError(
                f"{len(returns)} returns are too few to estimate a volatility model"
            )
        self.init_variance = returns.sample_variance()
        if not self.init_variance > 0.0:  # flat prices, refused before a log of 0 warns
            raise DomainError(f"initial variance must be positive, got {self.init_variance!r}")
        self.model = model
        self.returns = returns
        self.names = PARAM_NAMES[self.law]
        self.prior = prior

    def __call__(self, x):
        return float(self.score(x[None])[0][0])

    def score(self, xs):
        """Log targets and log-likelihoods at each row of ``xs``."""
        with np.errstate(over="ignore"):
            thetas = np.exp(xs)
        inside = self.prior.contains(thetas, self.names)
        lls = np.full(xs.shape[0], -math.inf)
        lls[inside] = log_likelihoods(
            thetas[inside], self.law, self.returns, self.init_variance
        )
        # Jacobian of theta = exp(x) is sum(x)
        lts = np.where(lls == -math.inf, -math.inf, lls + xs.sum(axis=1))
        return lts, lls

    def value_and_gradient(self, x):
        """Log target at one point ``x`` and its gradient in x, from the
        gradient kernel: (log target, gradient), or (-inf, None) wherever
        the target rejects."""
        with np.errstate(over="ignore"):
            theta = np.exp(x)
        if not self.prior.contains(theta[None], self.names)[0]:
            return -math.inf, None
        ll, grad = log_likelihood_gradient(theta, self.law, self.returns, self.init_variance)
        if grad is None:
            return -math.inf, None
        # the chain rule through theta = exp(x), and the Jacobian sum(x)
        with np.errstate(over="ignore", invalid="ignore"):
            grad = theta * grad + 1.0
        if not np.isfinite(grad).all():
            return -math.inf, None
        return ll + float(x.sum()), grad


def _draw_block(proposal, rng, count):
    """``count`` candidates and accept uniforms, drawn in the per-step order
    of a one-at-a-time sampler: normal vector, chi-square, uniform."""
    z = np.empty((count, proposal.dim))
    w = np.empty(count)
    u = np.empty(count)
    normal, chisquare, uniform = rng.standard_normal, rng.chisquare, rng.random
    dof = proposal.dof
    for i in range(count):
        normal(out=z[i])
        w[i] = chisquare(dof)
        u[i] = uniform()
    return proposal.transform(z, w), u


def _mh_block(positions, log_targets, log_liks, proposal, target, rng):
    """MH steps under one fixed proposal, in place on views of the chain
    arrays: row 0 holds the state the block enters from, and row k becomes
    the state after step k.  Returns the number of accepts."""
    # the candidates go in first; the rows the accept pass held replace them
    positions[1:], us = _draw_block(proposal, rng, len(positions) - 1)
    log_targets[1:], log_liks[1:] = target.score(positions[1:])
    candidates = zip(log_targets[1:].tolist(), proposal.log_density(positions[1:]).tolist())
    # the entering state is rescored under this block's proposal
    current = (float(log_targets[0]), proposal.log_density(positions[0]))
    held = np.empty(us.shape, dtype=np.intp)
    row = accepts = 0
    for step, (candidate, u) in enumerate(zip(candidates, us.tolist())):
        if mh_step(current, candidate, u):
            current, row = candidate, step + 1
            accepts += 1
        held[step] = row
    positions[1:] = positions[held]
    log_targets[1:] = log_targets[held]
    log_liks[1:] = log_liks[held]
    return accepts


class _Box:
    """Unbounded search coordinates z for the log coordinates x inside the
    prior's box, as Stan maps a bounded parameter (Stan Reference Manual,
    "Constraint transforms"): with l and h the logs of a parameter's bounds,
    x = l + exp(z) above a lone lower bound, x = h - exp(z) below a lone
    upper bound, x = l + (h - l) / (1 + exp(-z)) between both, and x = z
    where the prior sets none.  A line search then never meets a wall."""

    def __init__(self, prior, names):
        with np.errstate(divide="ignore"):
            self.lo = np.log([max(prior.lower.get(name, 0.0), 0.0) for name in names])
            self.hi = np.log([prior.upper.get(name, math.inf) for name in names])
        self.lower = np.isfinite(self.lo)
        self.upper = np.isfinite(self.hi)
        self.bounded = bool((self.lower | self.upper).any())

    def x(self, z):
        """x at ``z``, and dx/dz."""
        if not self.bounded:
            return z, np.ones_like(z)
        kinds = [self.lower & self.upper, self.lower, self.upper]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            e = np.exp(z)
            width = self.hi - self.lo
            share = 1.0 / (1.0 + 1.0 / e)
            x = np.select(kinds, [self.lo + width * share, self.lo + e, self.hi - e], z)
            slope = np.select(kinds, [width * share / (1.0 + e), e, -e], 1.0)
        return x, slope

    def z(self, x):
        """z at ``x``, inside the box."""
        kinds = [self.lower & self.upper, self.lower, self.upper]
        with np.errstate(divide="ignore", invalid="ignore"):
            above, below = np.log(x - self.lo), np.log(self.hi - x)
            return np.select(kinds, [above - below, above, below], x)


def _wolfe_step(func, x, f, g, p, alpha):
    """A step from ``x`` along the descent direction ``p`` that meets the
    weak Wolfe conditions, found by doubling and bisection from the trial
    step ``alpha`` (Lewis & Overton, Math. Program. 141, 2013).  ``func``
    gives (value, gradient), with the value inf where it rejects a point;
    ``f`` and ``g`` are its values at ``x``.  Near a minimum the decrease
    is lost in the rounding of the value, and the approximate Wolfe test of
    Hager & Zhang (SIAM J. Optim. 16(1), 2005) stands in for it: the value
    no more than 1e-10 |f| higher and the slope at the step below 0.9998
    times the slope at x in size.  Returns ((x, f, g) at the step,
    evaluations, edge); the step is None when ``_LINE_TRIALS`` trials find
    none, and edge is whether the last trial to fail the decrease test was a
    rejected point.
    """
    slope = g @ p
    lo, hi, edge = 0.0, math.inf, False
    for trial in range(1, _LINE_TRIALS + 1):
        with np.errstate(over="ignore"):
            xt = x + alpha * p
        ft, gt = func(xt)
        slope_t = math.nan if gt is None else gt @ p
        if not (
            ft <= f + 1e-4 * alpha * slope
            or (ft <= f + 1e-10 * abs(f) and slope_t <= -0.9998 * slope)
        ):
            hi, edge = alpha, ft == math.inf
        elif slope_t < 0.9 * slope:
            lo = alpha
        else:
            return (xt, ft, gt), trial, False
        alpha = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
    return None, _LINE_TRIALS, edge


def _bfgs(func, x0, gtol, maxiter):
    """Minimize ``func``, which gives (value, gradient) with the value inf
    where it rejects a point, by BFGS from the accepted point ``x0``
    (Nocedal & Wright, Numerical Optimization, 2nd ed., alg. 6.1) with a
    weak Wolfe line search.  The first trial step is at most 1 long in each
    coordinate, and the first update rescales the identity by s'y / y'y
    (their eq. 6.20).  Stops when every gradient component is at most
    ``gtol`` ("converged"), after ``maxiter`` iterations ("iterations"), or
    when the line search finds no step ("edge" when it gave up against
    rejected points, else "stalled").  Returns (x, value, evaluations,
    iterations, stop).
    """
    x = np.array(x0, dtype=np.float64)
    f, g = func(x)
    evaluations = 1
    eye = np.eye(x.shape[0])
    h = eye
    alpha = 1.0 / max(1.0, float(np.abs(g).max()))
    for iteration in range(maxiter):
        if np.abs(g).max() <= gtol:
            return x, f, evaluations, iteration, "converged"
        step, trials, edge = _wolfe_step(func, x, f, g, -h @ g, alpha)
        evaluations += trials
        if step is None:
            return x, f, evaluations, iteration, "edge" if edge else "stalled"
        s, y = step[0] - x, step[2] - g
        # s'y > 0 under the curvature condition
        sy = s @ y
        if iteration == 0:
            h = eye * (sy / (y @ y))
        v = eye - np.outer(s, y) / sy
        h = v @ h @ v.T + np.outer(s, s) / sy
        x, f, g = step
        alpha = 1.0
    return x, f, evaluations, maxiter, "iterations"


def _start(target, nu):
    """Start state (position, log target, log-likelihood) and the
    Laplace-scaled proposal centred there.

    The start is the log-target mode found by BFGS (:func:`_bfgs`) on the
    gradient kernel from the moment-informed start point, in coordinates
    in which the prior's box has no walls (:class:`_Box`), and scored once
    by :meth:`_LogTarget.score`.  A search that gives up against rejected
    points, still short of a mode, has run off to the overflow edge of
    theta = exp(x) along an improper ridge, and raises
    :class:`NumericalError`.  The search draws no random numbers, so
    replicas of a chain share it.
    """
    x0 = _start_point(target.returns, target.law)
    if target(x0) == -math.inf:
        raise DomainError("prior excludes the moment-informed starting point")
    box = _Box(target.prior, target.names)

    def descent(z):
        x, slope = box.x(z)
        lt, grad = target.value_and_gradient(x)
        return (math.inf, None) if grad is None else (-lt, -grad * slope)

    z_start, _, _, _, stop = _bfgs(descent, box.z(x0), _SEARCH_GTOL, _SEARCH_ITERATIONS)
    if stop == "edge":
        raise NumericalError(
            f"{target.model}: the start search found no mode; the log target "
            f"still rises where theta = exp(x) overflows, along {_RIDGE}"
        )
    x_start = box.x(z_start)[0]
    lt, ll = (float(s[0]) for s in target.score(x_start[None]))
    proposal = StudentTProposal(x_start, _laplace_scale(target, x_start, lt, nu), nu)
    return (x_start, lt, ll), proposal


def _chain(target, state, proposal, config):
    """One chain's kept draws from a scored start ``state`` and its proposal.

    The chain arrays, the sampler's only record, hold the start in row 0 and
    the state after step k in row k.  The steps run in blocks: one per
    adaptation interval of burn-in, refitting the proposal to all rows after
    the start after each full one, then up to ``_FROZEN_BLOCK`` steps at a
    time under the frozen proposal.  Only kept steps count as accepts.
    """
    rng = np.random.default_rng(config.seed)
    burn_in, interval = config.burn_in, config.adapt_interval
    steps = burn_in + config.samples
    positions = np.empty((steps + 1, len(target.names)))
    log_targets = np.empty(steps + 1)
    log_liks = np.empty(steps + 1)
    positions[0], log_targets[0], log_liks[0] = state
    bounds = [*range(0, burn_in, interval), *range(burn_in, steps, _FROZEN_BLOCK), steps]
    accepts = 0
    for start, stop in zip(bounds, bounds[1:]):
        rows = slice(start, stop + 1)
        block_accepts = _mh_block(
            positions[rows], log_targets[rows], log_liks[rows], proposal, target, rng
        )
        if start >= burn_in:
            accepts += block_accepts
        elif stop % interval == 0:
            # an interval without accepts has nothing new to learn from; widen
            # the net instead
            proposal = (
                adapt_proposal(positions[1 : stop + 1], config.nu)
                if block_accepts
                else StudentTProposal(proposal.location, proposal.scale * 4.0, config.nu)
            )

    acceptance_rate = accepts / config.samples
    if acceptance_rate < 0.01:
        raise AdaptationFailureError(
            f"acceptance rate {acceptance_rate:.2%} after adaptation; "
            "the proposal never matched the posterior (data too short, "
            "or burn-in too small)"
        )
    kept = slice(burn_in + 1, None)
    return ChainDraws(
        target.model, positions[kept], log_targets[kept], log_liks[kept], acceptance_rate, config
    )


def summarize(draws, returns):
    """The :class:`PosteriorChain` of ``draws`` on ``returns``, the series
    they were drawn on: each parameter's mean, sd and tau_int, and lnL at
    the posterior mean.  The chain's log records and warnings come from
    here, not from the draws: the INFO line, a window rule left unmet, a
    bimodal posterior mean and a non-stationary one.  Raises
    :class:`NumericalError` when the posterior mean or an sd is not finite.
    """
    law = model_law(draws.model)
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.exp(draws.samples_log)
        theta_bar = samples.mean(axis=0)
        sds = [float(col.std(ddof=1)) for col in samples.T]
    if not np.isfinite([*theta_bar, *sds]).all():
        raise NumericalError(
            f"{draws.model}: posterior mean or sd is not finite; the chain ran off "
            f"along {_RIDGE}"
        )
    summaries = []
    for name, col, sd in zip(PARAM_NAMES[law], samples.T, sds):
        tau_int = integrated_autocorr_time(col).tau_int
        summaries.append(ParamSummary(name, float(col.mean()), sd, tau_int))

    lnl_at_mean = log_likelihood(GarchParams.from_vector(theta_bar, law=law), returns)

    if law == RATIONAL:
        a_mean = theta_bar[3]
        if a_mean < UNIMODAL_MIN_A:
            logger.warning(
                "posterior mean a=%.3f is below sqrt(2); the fitted error "
                "density is bimodal",
                a_mean,
            )

    logger.info(
        "%s chain: acceptance %.1f%%, lnL(theta_bar)=%.2f",
        draws.model,
        100.0 * draws.acceptance_rate,
        lnl_at_mean,
    )
    return PosteriorChain(
        **vars(draws),
        samples=samples,
        summaries=summaries,
        lnl_at_mean=lnl_at_mean,
        n_obs=len(returns),
        data_digest=data_digest(returns),
    )


def run_chain(model, returns, config=None):
    """Estimate ``model`` ("garch-n" or "garch-re") on a return series:
    :func:`summarize` of :func:`draw_chain`.

    Raises :class:`ValidationError` for run lengths the sampler cannot use,
    :class:`AdaptationFailureError` (from the draws) when the kept
    acceptance rate is degenerate (< 1%), and :class:`NumericalError` when
    the start search runs off along an improper ridge (from the draws) or
    the posterior mean or an sd is not finite (from the summary).
    """
    return summarize(draw_chain(model, returns, config), returns)


def draw_chain(model, returns, config=None):
    """The kept draws of ``model``'s chain on a return series, before any
    summary: finds the start state and proposal (:func:`_start`), then runs
    one chain from them (:func:`_chain`).  Logs and warns nothing."""
    config = config or ChainConfig()
    return _chains(model, returns, config, [config.seed])[0]


def run_chains(model, returns, config=None, n_chains=2):
    """Independent replicas from one shared start, with seeds spawned from
    ``config.seed``, each summarised; each equals :func:`run_chain` at its
    spawned seed."""
    if n_chains < 1:
        raise DomainError("n_chains must be at least 1")
    config = config or ChainConfig()
    seeds = np.random.SeedSequence(config.seed).generate_state(n_chains)
    return [summarize(draws, returns) for draws in _chains(model, returns, config, seeds)]


def check_adapt_interval(model, config):
    """Refuse an adaptation interval too short to refit ``model``'s
    proposal, which needs d + 2 draws of the d parameters."""
    d = len(PARAM_NAMES[model_law(model)])
    if config.adapt_interval < d + 2:
        raise ValidationError(f"adapt_interval must be at least {d + 2} for {model}")


def _chains(model, returns, config, seeds):
    """The draws of one chain per seed from one start search, which a too
    short adaptation interval never reaches."""
    target = _LogTarget(model, returns, config.prior)
    check_adapt_interval(model, config)
    start = _start(target, config.nu)
    return [_chain(target, *start, replace(config, seed=int(s))) for s in seeds]
