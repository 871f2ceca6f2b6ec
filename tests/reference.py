"""Deliberately plain references shared by the tests.

The library works on blocks: the MH target scores many points at a time
through masks, and a resampled grid holds the days that share a session
layout as rows of one array.  These take one point or one day the obvious
way, so the tests can compare the two.
"""

import math

from regarch.exceptions import DomainError, NumericalError
from regarch.garch import log_likelihood
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
