"""Deliberately plain references shared by the tests.

The library works on blocks: the MH target scores many points at a time
through masks, and a resampled grid holds the days that share a session
layout as rows of one array.  These take one point or one day the obvious
way, so the tests can compare the two.  The start-point search that the
library replaced, Nelder-Mead, is kept here as the reference for where the
search ends.
"""

import math

import numpy as np

from regarch.exceptions import DomainError, NumericalError
from regarch.garch import NORMAL, log_likelihood
from regarch.mcmc import Prior


def prior_log_density(prior, params):
    """Log density of the flat prior: 0 inside its box, -inf outside."""
    for name, value in zip(params.names, params.to_vector().tolist()):
        if not prior.lower.get(name, 0.0) < value < prior.upper.get(name, math.inf):
            return -math.inf
    return 0.0


def log_posterior(params, returns, prior=None, init_variance=None):
    """Unnormalized log posterior; -inf encodes any rejection."""
    if prior_log_density(prior or Prior(), params) == -math.inf:
        return -math.inf
    try:
        return log_likelihood(params, returns, init_variance)
    except (DomainError, NumericalError):
        return -math.inf


def grid_sessions(grid):
    """(day, [session log prices]) for each usable day of a ``GridPrices``,
    read from the rows of its blocks split at ``session_ends``."""
    days = [None] * len(grid.dates)
    for block in grid.blocks:
        spans = list(zip([0, *block.session_ends[:-1]], block.session_ends))
        for pos, row in zip(block.positions.tolist(), block.log_prices):
            days[pos] = (grid.dates[pos], [row[a:b] for a, b in spans])
    return days


def loglik_gradient(law, theta, y, init):
    """Log-likelihood and its gradient in ``theta``, deliberately plain: one
    float loop forward in time, carrying the variance and its derivatives
    in omega, alpha and beta, with each term's derivatives written out."""
    omega, alpha, beta = theta[:3]
    s, ds = init, [0.0, 0.0, 0.0]
    ll, grad = 0.0, [0.0] * len(theta)
    for t in range(len(y)):
        if t > 0:
            u = (1.0, y[t - 1] ** 2, s)
            ds = [u[i] + beta * ds[i] for i in range(3)]
            s = omega + alpha * y[t - 1] ** 2 + beta * s
        x2 = y[t] ** 2 / s
        if law == NORMAL:
            ll += -0.5 * (math.log(2.0 * math.pi) + math.log(s) + x2)
            slope = 0.5 * (x2 - 1.0) / s
        else:
            a = theta[3]
            den = (x2 - 1.0) ** 2 + a * a * x2
            ll += math.log(a) - math.log(math.pi) - math.log(den) - 0.5 * math.log(s)
            slope = (x2 * (2.0 * (x2 - 1.0) + a * a) / den - 0.5) / s
            grad[3] += 1.0 / a - 2.0 * a * x2 / den
        for i in range(3):
            grad[i] += slope * ds[i]
    return ll, np.array(grad)


def nelder_mead(func, x0, maxiter, xatol, fatol):
    """Minimize ``func`` from ``x0`` by the Nelder-Mead simplex.

    The path of ``scipy.optimize.minimize(method="Nelder-Mead")`` with the
    start-point search's options, in the same arithmetic: the default initial
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
