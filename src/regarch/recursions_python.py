"""The variance-recursion and likelihood kernels of :mod:`regarch.garch`.

Each error law's likelihood terms are written once, as an in-place function
(``_normal_terms_into``, ``_rational_terms_into``) that the scalar and the
block kernels share.  The scalar kernels run the variance recursion as a
plain float loop and the terms over the whole path, summed pairwise by
``ndarray.sum``.  :func:`regarch.garch.log_likelihoods` runs the scalar
kernel for one point and the block kernels for more.

Both kernels use one bad-point rule: the first non-finite term is the first
bad event.  A variance outside (0, inf) makes its own term non-finite (the
log of a non-positive or infinite variance, or 0/0), so neither kernel
checks the variances separately.  The scalar kernel reports the index of that
term, and a block row with one scores -inf.

The block kernels score many parameter points at once.  The recursion runs
time-major over all the points of a pass, vectorised across them, one leaf
of time steps at a time, and each leaf's terms are computed in place on
buffers reused across leaves.  Each row is still bit for bit the scalar
kernel's result, because ``ndarray.sum`` adds a contiguous row in a fixed
order (Higham, SIAM J. Sci. Comput. 14(4), 1993): a range longer than 128
elements splits at half its length, rounded down to a multiple of 8; a leaf
of 8 or more elements is summed by eight interleaved accumulators, combined
as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and then the remainder in
order; a shorter leaf is a running sum.  The block kernels sum each leaf
column by column in that order and combine the leaf sums in that tree.  A
NumPy release that changed its reduction would break the equality, and the
differential tests, which compare block rows with the scalar kernel at
lengths on both sides of each leaf and split boundary, would catch it.

The gradient kernels (``normal_loglik_grad``, ``rational_loglik_grad``)
give the log-likelihood at one point and its gradient, for the start-point
search.  Each law's slopes (``_normal_slopes``, ``_rational_slopes``) give
the derivative of every term in its variance, vectorised over t, and the
sum of the derivatives in the law's own parameter.  The variance depends on
(omega, alpha, beta) through the recursion, and the chain rule runs it
backwards: one pass of the constant-beta filter h_k = u_k + beta h_{k-1}
over the reversed variance slopes, then three dot products.  Both that pass
and the variance path run the filter in closed form over chunks of
``_CHUNK`` steps, which rounds differently from the float loop: the value
agrees with the scalar kernel to rounding, not bit for bit.
"""

import math

import numpy as np

_LN_2PI = 1.8378770664093453
_LN_PI = 1.1447298858494002

# the longest range ndarray.sum adds without splitting (PW_BLOCKSIZE in
# NumPy's loops_utils.h)
_LEAF = 128
# cap on the doubles in a pass's three leaf buffers, which sets the points
# per pass: _BLOCK_ELEMENTS // (3 * _LEAF)
_BLOCK_ELEMENTS = 1 << 19
# steps per chunk of the closed-form filter, and the lags i - j of a chunk's
# transfer matrix
_CHUNK = 32
_LAGS = np.abs(np.subtract.outer(np.arange(_CHUNK), np.arange(_CHUNK)))


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


def garch_recursion(omega, alpha, beta, returns, init_variance):
    """Conditional variances and the first index outside (0, inf), or -1."""
    sig2 = _variance_path(omega, alpha, beta, returns, init_variance)
    return sig2, _first_bad(sig2)


def _normal_terms_into(s, y2, bufs):
    """Gaussian terms -0.5 * (ln 2 pi + ln s + y2 / s), overwriting ``s``
    and ``bufs[0]``."""
    quotient = np.divide(y2, s, out=bufs[0])
    np.log(s, out=s)
    s += _LN_2PI
    s += quotient
    s *= -0.5
    return s


def _rational_terms_into(s, y2, bufs, a):
    """Rational terms ln a - ln pi - ln((x2 - 1)^2 + a^2 x2) - 0.5 ln s with
    x2 = y2 / s, overwriting ``s``, ``bufs[0]`` and ``bufs[1]``."""
    x2 = np.divide(y2, s, out=bufs[0])
    den = np.subtract(x2, 1.0, out=bufs[1])
    np.square(den, out=den)
    x2 *= a * a
    den += x2
    terms = np.log(den, out=den)
    np.subtract(np.log(a) - _LN_PI, terms, out=terms)
    np.log(s, out=s)
    s *= 0.5
    terms -= s
    return terms


def _normal_slopes(s, y2):
    """The derivative of each Gaussian term in its variance ``s``, and the
    law's own parameter slopes (none)."""
    x2 = y2 / s
    return 0.5 * (x2 - 1.0) / s, ()


def _rational_slopes(s, y2, a):
    """The derivative of each rational term in its variance ``s``, and the
    derivative of their sum in ``a``."""
    x2 = y2 / s
    ratio = x2 / ((x2 - 1.0) ** 2 + a * a * x2)
    ds = (ratio * (2.0 * (x2 - 1.0) + a * a) - 0.5) / s
    return ds, (y2.shape[0] / a - 2.0 * a * ratio.sum(),)


def _beta_filter(u, beta, h0):
    """h[k] = u[k] + beta * h[k-1] with h[-1] = ``h0``, in closed form over
    chunks of ``_CHUNK`` steps: within a chunk h[i] = sum over j <= i of
    beta^(i-j) u[j], plus beta^(i+1) times the chunk's carry in, one matrix
    product for all chunks; then the carries, one float step per chunk."""
    n = u.shape[0]
    chunks = -(-n // _CHUNK)
    v = np.zeros((chunks, _CHUNK))
    v.ravel()[:n] = u
    powers = beta ** np.arange(_CHUNK + 1.0)
    h = v @ np.tril(powers[_LAGS]).T
    carries = np.empty(chunks)
    carry, step = h0, float(powers[-1])
    for i, last in enumerate(h[:, -1].tolist()):
        carries[i] = carry
        carry = last + step * carry
    h += np.multiply.outer(carries, powers[1:])
    return h.ravel()[:n]


def _loglik_grad(params, returns, init_variance, terms_into, slopes):
    """Log-likelihood at one point and its gradient in ``params``:
    (loglik, gradient), or (-inf, None) where a term or a slope is not
    finite."""
    omega, alpha, beta, *law_params = params
    n = returns.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y2 = returns**2
        sig2 = np.empty(n)
        sig2[0] = init_variance
        sig2[1:] = _beta_filter(omega + alpha * y2[:-1], beta, init_variance)
        ll = float(terms_into(sig2.copy(), y2, np.empty((2, n)), *law_params).sum())
        ds, law_grad = slopes(sig2, y2, *law_params)
        # d sig2[t] / d theta = sum over j < t of beta^(t-1-j) u[j], with
        # u = 1, y2 and sig2 for omega, alpha and beta; swapping the sums,
        # the gradient is sum over j of u[j] g[j], where
        # g[j] = ds[j+1] + beta * g[j+1] is the filter run backwards over ds
        g = _beta_filter(ds[:0:-1], beta, 0.0)[::-1]
        grad = np.array([g.sum(), y2[:-1] @ g, sig2[:-1] @ g, *law_grad])
    if not (math.isfinite(ll) and np.isfinite(grad).all()):
        return -math.inf, None
    return ll, grad


def normal_loglik_grad(omega, alpha, beta, returns, init_variance):
    """Gaussian log-likelihood and its gradient in (omega, alpha, beta);
    (-inf, None) at a bad point."""
    return _loglik_grad(
        (omega, alpha, beta), returns, init_variance, _normal_terms_into, _normal_slopes
    )


def rational_loglik_grad(omega, alpha, beta, a, returns, init_variance):
    """Rational-error log-likelihood and its gradient in
    (omega, alpha, beta, a); (-inf, None) at a bad point."""
    return _loglik_grad(
        (omega, alpha, beta, a), returns, init_variance, _rational_terms_into, _rational_slopes
    )


def _loglik(params, returns, init_variance, terms_into):
    """Log-likelihood at one point and the index of its first non-finite
    term, or -1: (loglik, bad_index)."""
    omega, alpha, beta, *law_params = params
    sig2 = _variance_path(omega, alpha, beta, returns, init_variance)
    n = sig2.shape[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = terms_into(sig2, returns**2, np.empty((2, n)), *law_params)
    finite = np.isfinite(terms)
    if not finite.all():
        return 0.0, int(np.argmax(~finite))
    return float(terms.sum()), -1


def normal_loglik(omega, alpha, beta, returns, init_variance):
    """Gaussian log-likelihood; returns (loglik, bad_index)."""
    return _loglik((omega, alpha, beta), returns, init_variance, _normal_terms_into)


def rational_loglik(omega, alpha, beta, a, returns, init_variance):
    """Rational-error log-likelihood; returns (loglik, bad_index)."""
    return _loglik(
        (omega, alpha, beta, a), returns, init_variance, _rational_terms_into
    )


def _leaf_sum(terms):
    """Column sums of a (steps, points) leaf, each added as ``ndarray.sum``
    adds a leaf of that many steps."""
    steps = terms.shape[0]
    if steps < 8:
        total = np.zeros(terms.shape[1])
        for row in terms:
            total += row
        return total
    whole = steps - steps % 8
    r = terms[:8].copy()
    for i in range(8, whole, 8):
        r += terms[i : i + 8]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for row in terms[whole:]:
        total += row
    return total


def _pairwise_sum(lo, hi, leaf_sum):
    """``leaf_sum`` over time steps ``lo`` to ``hi`` combined in the tree of
    ``ndarray.sum``; the leaves are called in time order."""
    n = hi - lo
    if n <= _LEAF:
        return leaf_sum(lo, hi)
    half = n // 2 - n // 2 % 8
    left = _pairwise_sum(lo, lo + half, leaf_sum)
    return left + _pairwise_sum(lo + half, hi, leaf_sum)


def _loglik_pass(omega, alpha, beta, law_params, y2, init_variance, terms_into):
    """Log-likelihood at each point; -inf for a point the scalar kernel
    would report a bad index for."""
    bufs = np.empty((3, min(_LEAF, y2.shape[0]), omega.shape[0]))
    # beta times the variance before the next one: its own array, as the
    # buffer row it comes from is overwritten by the next leaf
    step = beta * init_variance

    def leaf_sum(lo, hi):
        # rows t = lo..hi-1: s[0] = init_variance at t = 0, then
        # s[t] = (omega + alpha * y2[t-1]) + beta * s[t-1]
        s = bufs[0, : hi - lo]
        first = 1 if lo == 0 else 0
        s[:first] = init_variance
        np.multiply(alpha, y2[lo + first - 1 : hi - 1, None], out=s[first:])
        s[first:] += omega
        for row in s[first:]:
            row += step
            np.multiply(beta, row, out=step)
        terms = terms_into(s, y2[lo:hi, None], bufs[1:, : hi - lo], *law_params)
        return _leaf_sum(terms)

    ll = _pairwise_sum(0, y2.shape[0], leaf_sum)
    # a variance outside (0, inf) makes its own term non-finite, and one
    # non-finite term makes the sum non-finite
    ll[~np.isfinite(ll)] = -np.inf
    return ll


def _loglik_block(params, returns, init_variance, terms_into):
    """Log-likelihood at each point, ``_BLOCK_ELEMENTS // (3 * _LEAF)``
    points per pass."""
    out = np.empty(params[0].shape[0])
    rows = max(1, _BLOCK_ELEMENTS // (3 * _LEAF))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y2 = returns**2
        for lo in range(0, out.shape[0], rows):
            omega, alpha, beta, *law_params = (p[lo : lo + rows] for p in params)
            out[lo : lo + rows] = _loglik_pass(
                omega, alpha, beta, law_params, y2, init_variance, terms_into
            )
    return out


def normal_loglik_block(omega, alpha, beta, returns, init_variance):
    """Gaussian log-likelihood at each point of the parameter arrays;
    -inf where :func:`normal_loglik` reports a bad index."""
    return _loglik_block(
        (omega, alpha, beta), returns, init_variance, _normal_terms_into
    )


def rational_loglik_block(omega, alpha, beta, a, returns, init_variance):
    """Rational-error log-likelihood at each point of the parameter arrays;
    -inf where :func:`rational_loglik` reports a bad index."""
    return _loglik_block(
        (omega, alpha, beta, a), returns, init_variance, _rational_terms_into
    )
