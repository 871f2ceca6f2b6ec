"""The variance-recursion and likelihood kernels of :mod:`regarch.garch`.

The scalar kernels run the variance recursion as a plain float loop and the
likelihood terms as NumPy array operations, summed pairwise by
``ndarray.sum``.  The block kernels score many parameter points at once:
the recursion runs time-major, vectorised across the points, and the terms
are summed row by row, so each row is bit for bit the scalar kernel's
result.
"""

import numpy as np

_LN_2PI = 1.8378770664093453
_LN_PI = 1.1447298858494002

# cap on points x observations per block-kernel pass; the pass holds one
# array of this many doubles (4 MB)
_BLOCK_ELEMENTS = 1 << 19
# time steps per slab of the block kernel's variance recursion
_SLAB = 32


def _variance_path(omega, alpha, beta, returns, init_variance):
    n = returns.shape[0]
    sig2 = np.empty(n)
    if n == 0:
        return sig2
    with np.errstate(over="ignore", invalid="ignore"):
        x = omega + alpha * returns[:-1] ** 2
    # sig2[t] = x[t-1] + beta * sig2[t-1]
    s = init_variance
    path = [s]
    for xt in x.tolist():
        s = xt + beta * s
        path.append(s)
    sig2[:] = path
    return sig2


def _first_bad(values):
    bad = ~(np.isfinite(values) & (values > 0.0))
    if bad.any():
        return int(np.argmax(bad))
    return -1


def garch_recursion(omega, alpha, beta, returns, init_variance, out):
    """Fill ``out`` with conditional variances; return the first bad index or -1."""
    sig2 = _variance_path(omega, alpha, beta, returns, init_variance)
    bad = _first_bad(sig2)
    if bad >= 0:
        out[:bad] = sig2[:bad]
        return bad
    out[:] = sig2
    return -1


def _normal_terms(s, y2):
    return -0.5 * (_LN_2PI + np.log(s) + y2 / s)


def _rational_terms(s, y2, a):
    x2 = y2 / s
    den = (x2 - 1.0) ** 2 + (a * a) * x2
    return (np.log(a) - _LN_PI) - np.log(den) - 0.5 * np.log(s)


def _finish(sig2, terms_of):
    """Report the first bad event in time order: term or variance."""
    bad_var = _first_bad(sig2)
    n = sig2.shape[0] if bad_var < 0 else bad_var
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = terms_of(sig2[:n], n)
    finite = np.isfinite(terms)
    if not finite.all():
        return 0.0, int(np.argmax(~finite))
    if bad_var >= 0:
        return 0.0, bad_var
    return float(terms.sum()), -1


def normal_loglik(omega, alpha, beta, returns, init_variance):
    """Gaussian log-likelihood; returns (loglik, bad_index)."""
    sig2 = _variance_path(omega, alpha, beta, returns, init_variance)
    return _finish(sig2, lambda s, n: _normal_terms(s, returns[:n] ** 2))


def rational_loglik(omega, alpha, beta, a, returns, init_variance):
    """Rational-error log-likelihood; returns (loglik, bad_index)."""
    sig2 = _variance_path(omega, alpha, beta, returns, init_variance)
    return _finish(sig2, lambda s, n: _rational_terms(s, returns[:n] ** 2, a))


def _variance_slabs(omega, alpha, beta, returns, init_variance):
    """Yield (t0, sig2) with sig2 the (steps, points) variances from time t0,
    in slabs of up to ``_SLAB`` steps.  The recursion runs over time,
    vectorised across points, in the scalar kernel's operation order."""
    n = returns.shape[0]
    step = np.empty(omega.shape[0])
    prev = None
    for t0 in range(0, n, _SLAB):
        sig2 = np.empty((min(_SLAB, n - t0), omega.shape[0]))
        first = 0
        if prev is None:
            sig2[0] = prev = init_variance
            first = 1
        y2 = returns[t0 + first - 1 : t0 + sig2.shape[0] - 1] ** 2
        sig2[first:] = omega + alpha * y2[:, None]
        for cur in sig2[first:]:
            np.multiply(beta, prev, out=step)
            np.add(cur, step, out=cur)
            prev = cur
        yield t0, sig2


def _loglik_rows(omega, alpha, beta, law_params, returns, init_variance, terms_of):
    """Row sums of the likelihood terms of each point; -inf for a point the
    scalar kernel would report a bad index for."""
    terms = np.empty((omega.shape[0], returns.shape[0]))
    bad = np.zeros(omega.shape[0], dtype=bool)
    for t0, sig2 in _variance_slabs(omega, alpha, beta, returns, init_variance):
        y2 = (returns[t0 : t0 + sig2.shape[0]] ** 2)[:, None]
        terms[:, t0 : t0 + sig2.shape[0]] = terms_of(sig2, y2, *law_params).T
        bad |= ~(np.isfinite(sig2) & (sig2 > 0.0)).all(axis=0)
    bad |= ~np.isfinite(terms).all(axis=1)
    # each row is contiguous, so its sum is the scalar kernel's pairwise sum
    ll = terms.sum(axis=1)
    ll[bad] = -np.inf
    return ll


def _loglik_block(params, returns, init_variance, terms_of):
    """Log-likelihood at each point, at most ``_BLOCK_ELEMENTS`` point-steps
    per pass."""
    out = np.empty(params[0].shape[0])
    rows = max(1, _BLOCK_ELEMENTS // max(returns.shape[0], 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(0, out.shape[0], rows):
            omega, alpha, beta, *law_params = (p[lo : lo + rows] for p in params)
            out[lo : lo + rows] = _loglik_rows(
                omega, alpha, beta, law_params, returns, init_variance, terms_of
            )
    return out


def normal_loglik_block(omega, alpha, beta, returns, init_variance):
    """Gaussian log-likelihood at each point of the parameter arrays;
    -inf where :func:`normal_loglik` reports a bad index."""
    return _loglik_block((omega, alpha, beta), returns, init_variance, _normal_terms)


def rational_loglik_block(omega, alpha, beta, a, returns, init_variance):
    """Rational-error log-likelihood at each point of the parameter arrays;
    -inf where :func:`rational_loglik` reports a bad index."""
    return _loglik_block(
        (omega, alpha, beta, a), returns, init_variance, _rational_terms
    )
