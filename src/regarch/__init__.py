"""GARCH(1,1) volatility with normal or rational errors.

Library layout:

- :mod:`regarch.data` - price/tick ingestion, calendars, grid resampling
- :mod:`regarch.rational` - the rational error density, CDF, sampling
- :mod:`regarch.garch` - variance recursion and likelihoods
- :mod:`regarch.recursions_python` - the NumPy kernels behind them
- :mod:`regarch.mcmc` - adaptive independence Metropolis-Hastings
- :mod:`regarch.selection` - AIC / DIC scores and model comparison
- :mod:`regarch.realized` - realized variance, signature plots, RMSPE
- :mod:`regarch.simulate` - synthetic daily and intraday data
- :mod:`regarch.cli` - the ``regarch`` command line tool
"""

__version__ = "0.1.0"
