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

The flat prior on the positive orthant is improper; the likelihood decays
fast enough in every direction for the posterior to be proper in practice,
and a collapsed acceptance rate is reported as an error rather than papered
over.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import write_csv, write_json
from .exceptions import (
    AdaptationFailureError,
    DomainError,
    InsufficientDataError,
    InsufficientHistoryError,
    NumericalError,
    ValidationError,
)
from .garch import NORMAL, RATIONAL, GarchParams, log_likelihood, log_likelihoods
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

_PARAM_NAMES = ("omega", "alpha", "beta", "a")


@dataclass
class Prior:
    """Flat prior on a per-parameter box inside the positive orthant.

    Unspecified bounds default to (0, inf).  The density is an unnormalized
    indicator: 0 inside the box (log scale), -inf outside.
    """

    lower: dict[str, float] = field(default_factory=dict)
    upper: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        unknown = sorted((self.lower.keys() | self.upper.keys()) - set(_PARAM_NAMES))
        if unknown:
            raise ValidationError(f"prior bounds name unknown parameters {unknown}")

    def log_density(self, params):
        inside = self.contains(params.to_vector()[None], params.names)[0]
        return 0.0 if inside else -math.inf

    def contains(self, thetas, names):
        """Mask of the rows of ``thetas`` (parameters ``names``) in the box."""
        lo = np.array([self.lower.get(name, 0.0) for name in names])
        hi = np.array([self.upper.get(name, math.inf) for name in names])
        return (np.isfinite(thetas) & (lo < thetas) & (thetas < hi)).all(axis=1)


def log_posterior(params, returns, prior=None, init_variance=None):
    """Unnormalized log posterior; -inf encodes any rejection."""
    if prior is None:
        prior = Prior()
    lp = prior.log_density(params)
    if lp == -math.inf:
        return -math.inf
    try:
        return lp + log_likelihood(params, returns, init_variance)
    except (DomainError, NumericalError):
        return -math.inf


class StudentTProposal:
    """Multivariate Student's t distribution used as the independence proposal.

    ``scale`` is the scale matrix Sigma; the covariance is Sigma * dof/(dof-2).
    """

    def __init__(self, location, scale, dof):
        if dof <= 2.0 or not math.isfinite(dof):
            raise DomainError("proposal dof must be finite and exceed 2")
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


@dataclass(slots=True)
class MhState:
    """A scored point: log target and proposal log density at ``position``."""

    position: np.ndarray
    log_target: float
    log_proposal: float
    log_likelihood: float = math.nan


def mh_step(state, candidate, u):
    """Independence MH accept test on precomputed scores.

    ``u`` is the step's uniform draw.  Returns (new_state, accepted).
    """
    if candidate.log_target == -math.inf:
        return state, False
    log_ratio = (
        candidate.log_target
        - state.log_target
        + state.log_proposal
        - candidate.log_proposal
    )
    if math.isnan(log_ratio):
        accepted = state.log_target == -math.inf
    else:
        accepted = log_ratio >= 0.0 or u < math.exp(log_ratio)
    if accepted:
        return candidate, True
    return state, False


def acf(series, max_lag):
    """Autocorrelation function out to ``max_lag`` with 1/N normalization."""
    x = np.asarray(series, dtype=np.float64)
    n = x.shape[0]
    if not 0 <= max_lag < n:
        raise InsufficientDataError("series must be longer than max_lag")
    x = x - x.mean()
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    autocov = np.fft.irfft(f * np.conj(f), m)[: max_lag + 1] / n
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
    init_variance: float | None = None

    def __post_init__(self):
        if self.samples <= 0:
            raise ValidationError("samples must be positive")
        if self.adapt_interval <= 0:
            raise ValidationError("adapt_interval must be positive")
        if self.burn_in < self.adapt_interval:
            raise ValidationError("burn_in must cover at least one adaptation")
        if self.nu <= 2.0:
            raise ValidationError("proposal dof must exceed 2")

    def public_dict(self):
        d = {
            "burn_in": self.burn_in,
            "samples": self.samples,
            "adapt_interval": self.adapt_interval,
            "nu": self.nu,
            "seed": self.seed,
        }
        if self.init_variance is not None:
            d["init_variance"] = self.init_variance
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
class PosteriorChain:
    """Retained MH samples for one model on one return series."""

    model: str
    param_names: tuple
    samples: np.ndarray  # natural parameter space, (n, d)
    samples_log: np.ndarray  # log coordinates, same shape
    log_posteriors: np.ndarray
    log_likelihoods: np.ndarray
    acceptance_rate: float
    summaries: list
    lnl_at_mean: float
    config: ChainConfig
    n_obs: int
    data_digest: str

    def mean(self):
        return self.samples.mean(axis=0)

    def params_at_mean(self):
        law = _LAW_FOR_MODEL[self.model]
        return GarchParams.from_vector(self.mean(), law=law)

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

    def export_summary_json(self, target):
        write_json(target, self.summary_dict())

    def export_samples_csv(self, target, comments=()):
        write_csv(target, self.param_names, self.samples.T, comments)


def data_digest(returns):
    """Stable fingerprint of a return series for comparability checks."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(returns.values).tobytes())
    h.update(",".join(d.isoformat() for d in returns.dates).encode())
    return h.hexdigest()[:16]


def _start_point(returns, law):
    """Moment-informed start: modest ARCH, strong persistence."""
    var = returns.sample_variance()
    theta = [0.1 * var, 0.1, 0.8]
    if law == RATIONAL:
        theta.append(2.0)
    return np.log(np.array(theta))


def _laplace_scale(target, x, nu):
    """Proposal scale from the curvature of the log target at its mode.

    An independence proposal narrower than the posterior has unbounded
    importance ratios, so the chain can freeze on a lucky tail point; the
    inverse Hessian puts the very first proposal on the right scale and
    the moment-matched re-adaptations only have to refine it.  Falls back
    to a conservative diagonal when the curvature is unusable.
    """
    d = x.shape[0]
    fallback = np.eye(d) * 0.01
    h = 1e-3
    f0 = target(x)
    steps = h * np.eye(d)
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    points = []
    for i, j in pairs:
        if i == j:
            points += [x + steps[i], x - steps[i]]
        else:
            points += [
                x + steps[i] + steps[j],
                x + steps[i] - steps[j],
                x - steps[i] + steps[j],
                x - steps[i] - steps[j],
            ]
    # all points in one block call; each score equals the scalar call's
    scores = iter(target.score(np.array(points))[0].tolist())
    hess = np.empty((d, d))
    for i, j in pairs:
        if i == j:
            val = (next(scores) - 2.0 * f0 + next(scores)) / h**2
        else:
            val = (
                next(scores) - next(scores) - next(scores) + next(scores)
            ) / (4.0 * h**2)
        if not math.isfinite(val):
            return fallback * (nu - 2.0) / nu
        hess[i, j] = hess[j, i] = val
    lam, vec = np.linalg.eigh(-hess)
    if not np.isfinite(lam).all() or lam.max() <= 0.0:
        return fallback * (nu - 2.0) / nu
    # covariance eigenvalues floored/capped to a sane log-coordinate range
    var = np.clip(1.0 / np.maximum(lam, 1e-12), 1e-4, 1.0)
    cov = (vec * var) @ vec.T
    return cov * (nu - 2.0) / nu


class _LogTarget:
    """Log target in log coordinates: log prior + log-likelihood + the
    Jacobian of theta = exp(x), -inf wherever the target rejects.

    :meth:`score` scores a block of points at once; a call scores one point
    as a one-row block, which ``log_likelihoods`` runs on the scalar kernel,
    while the many-row blocks of MH candidates run on the block kernels.
    """

    def __init__(self, returns, law, prior, init_variance):
        self.returns = returns
        self.law = law
        self.names = _PARAM_NAMES if law == RATIONAL else _PARAM_NAMES[:3]
        self.prior = prior
        if init_variance is None:
            init_variance = returns.sample_variance()
        self.init_variance = init_variance

    def __call__(self, x):
        # a Python float: an np.float64 -inf would warn in the Laplace
        # differences
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


def _draw_block(proposal, rng, count):
    """``count`` candidates and accept uniforms, drawn in the per-step order
    of a one-at-a-time sampler: normal vector, chi-square, uniform."""
    z = np.empty((count, proposal.dim))
    w = np.empty(count)
    u = np.empty(count)
    for i in range(count):
        z[i] = rng.standard_normal(proposal.dim)
        w[i] = rng.chisquare(proposal.dof)
        u[i] = rng.random()
    return proposal.transform(z, w), u


def _mh_block(state, proposal, target, rng, count):
    """``count`` MH steps under one fixed proposal; returns the state after
    each step and the number of accepts."""
    xs, us = _draw_block(proposal, rng, count)
    lts, lls = target.score(xs)
    lqs = proposal.log_density(xs)
    candidates = map(MhState, xs, lts.tolist(), lqs.tolist(), lls.tolist())
    state = replace(state, log_proposal=proposal.log_density(state.position))
    visited = []
    accepts = 0
    for candidate, u in zip(candidates, us.tolist()):
        state, accepted = mh_step(state, candidate, u)
        accepts += accepted
        visited.append(state)
    return visited, accepts


def _nelder_mead(func, x0, maxiter, xatol, fatol):
    """Minimize ``func`` from ``x0`` by the Nelder-Mead simplex.

    The path of ``scipy.optimize.minimize(method="Nelder-Mead")`` that the
    start-point search takes, in the same arithmetic: the default initial
    simplex (each coordinate scaled by 1.05, or set to 0.00025 where it is
    zero), no bounds, the standard coefficients (reflection 1, expansion 2,
    contraction 1/2, shrink 1/2), no limit on evaluations, and the same
    stopping tests.  Returns (x, f(x), evaluations, iterations).
    """
    n = x0.shape[0]
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return func(np.copy(x))

    fsim = np.array([f(v) for v in sim], dtype=np.float64)
    # the reference sorts twice before the loop; argsort need not be stable,
    # so ties may move on the second pass
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    nit = 1
    while nit < maxiter:
        if (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:
                # inside contraction
                xcc = 0.5 * xbar + 0.5 * sim[-1]
                fxcc = f(xcc)
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        nit += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), nfev, nit


def _initial_proposal(target, nu):
    """Start point (the log-target mode found by Nelder-Mead from the
    moment-informed start) and the Laplace-scaled proposal centred there."""
    x0 = _start_point(target.returns, target.law)
    f0 = target(x0)
    if f0 == -math.inf:
        raise DomainError("prior excludes the moment-informed starting point")
    x_min, f_min, _, _ = _nelder_mead(
        lambda x: -target(x), x0, maxiter=500 * x0.shape[0], xatol=1e-6, fatol=1e-8
    )
    x_start = x_min if math.isfinite(f_min) and -f_min >= f0 else x0
    x_start = np.asarray(x_start, dtype=np.float64)
    return x_start, StudentTProposal(x_start, _laplace_scale(target, x_start, nu), nu)


def run_chain(model, returns, config=None):
    """Estimate ``model`` ("garch-n" or "garch-re") on a return series.

    Burn-in adapts the proposal every ``config.adapt_interval`` draws from
    the accumulated history; the retained phase uses the frozen proposal.
    Raises :class:`AdaptationFailureError` when the final acceptance rate
    is degenerate (< 1%).
    """
    if model not in _LAW_FOR_MODEL:
        raise DomainError(f"unknown model {model!r}; expected garch-n or garch-re")
    law = _LAW_FOR_MODEL[model]
    if config is None:
        config = ChainConfig()
    if len(returns) < 30:
        raise InsufficientDataError(
            f"{len(returns)} returns are too few to estimate a volatility model"
        )
    rng = np.random.default_rng(config.seed)
    target = _LogTarget(returns, law, config.prior, config.init_variance)
    d = len(target.names)
    x_start, proposal = _initial_proposal(target, config.nu)
    lt, ll = (float(s[0]) for s in target.score(x_start[None]))
    state = MhState(x_start, lt, math.nan, ll)

    # one block per adaptation interval; the proposal is refitted after each
    # full one
    history = np.empty((config.burn_in, d))
    for start in range(0, config.burn_in, config.adapt_interval):
        stop = min(start + config.adapt_interval, config.burn_in)
        visited, interval_accepts = _mh_block(
            state, proposal, target, rng, stop - start
        )
        state = visited[-1]
        history[start:stop] = [s.position for s in visited]
        if stop % config.adapt_interval == 0:
            if interval_accepts == 0:
                # nothing new to learn from; widen the net instead
                proposal = StudentTProposal(
                    proposal.location, proposal.scale * 4.0, config.nu
                )
            else:
                proposal = adapt_proposal(history[:stop], config.nu)

    n = config.samples
    samples_log = np.empty((n, d))
    log_posts = np.empty(n)
    log_liks = np.empty(n)
    accepts = 0
    for start in range(0, n, _FROZEN_BLOCK):
        stop = min(start + _FROZEN_BLOCK, n)
        visited, block_accepts = _mh_block(state, proposal, target, rng, stop - start)
        state = visited[-1]
        accepts += block_accepts
        samples_log[start:stop] = [s.position for s in visited]
        log_posts[start:stop] = [s.log_target for s in visited]
        log_liks[start:stop] = [s.log_likelihood for s in visited]

    acceptance_rate = accepts / n
    if acceptance_rate < 0.01:
        raise AdaptationFailureError(
            f"acceptance rate {acceptance_rate:.2%} after adaptation; "
            "the proposal never matched the posterior (data too short, "
            "or burn-in too small)"
        )

    samples = np.exp(samples_log)
    names = target.names
    summaries = []
    for j, name in enumerate(names):
        col = samples[:, j]
        diag = integrated_autocorr_time(col)
        summaries.append(
            ParamSummary(
                name=name,
                mean=float(col.mean()),
                sd=float(col.std(ddof=1)),
                tau_int=diag.tau_int,
            )
        )

    theta_bar = samples.mean(axis=0)
    params_bar = GarchParams.from_vector(theta_bar, law=law)
    lnl_at_mean = log_likelihood(params_bar, returns, config.init_variance)

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
        model,
        100.0 * acceptance_rate,
        lnl_at_mean,
    )
    return PosteriorChain(
        model=model,
        param_names=names,
        samples=samples,
        samples_log=samples_log,
        log_posteriors=log_posts,
        log_likelihoods=log_liks,
        acceptance_rate=acceptance_rate,
        summaries=summaries,
        lnl_at_mean=float(lnl_at_mean),
        config=config,
        n_obs=len(returns),
        data_digest=data_digest(returns),
    )


def run_chains(model, returns, config=None, n_chains=2):
    """Independent replicas with seeds spawned from ``config.seed``."""
    if n_chains < 1:
        raise DomainError("n_chains must be at least 1")
    if config is None:
        config = ChainConfig()
    children = np.random.SeedSequence(config.seed).generate_state(n_chains)
    return [
        run_chain(model, returns, replace(config, seed=int(s))) for s in children
    ]
