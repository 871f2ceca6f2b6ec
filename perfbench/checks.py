"""Correctness checks on the artifacts of each command.

Every expected value is computed here, from the generated inputs and their
truth or from first principles, never by calling ``regarch``.  Each check
returns ``(name, ok, detail)``; the caller counts each as one operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate, stats

from market import SESSION_SECONDS, SESSIONS, rational_pdf, trading_days

KS_MIN_P = 1e-5  # a correct sampler fails this once in 1e5 seeds
Z_MAX = 6.0  # statistical tolerance, in standard errors
POSTERIOR_SDS = 5.0
RTOL_RECURSION = 1e-11
RTOL_EXACT = 1e-9


def read_csv(path):
    """(header, columns as lists of strings), skipping ``#`` comment lines."""
    lines = [
        line
        for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    header = lines[0].split(",")
    columns = list(zip(*(line.split(",") for line in lines[1:])))
    return header, {name: list(col) for name, col in zip(header, columns)}


def floats(column):
    return np.array(column, dtype=np.float64)


def _rel(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def _check(name, ok, detail):
    return (name, bool(ok), detail)


# -- simulate -----------------------------------------------------------------


def rational_cdf(x, a):
    """CDF of the rational density by adaptive quadrature, piece by piece."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(np.abs(x))
    edges = np.abs(x)[order]
    pieces = np.empty(edges.size)
    prev = 0.0
    for i, edge in enumerate(edges):
        pieces[i], _ = integrate.quad(
            rational_pdf, prev, edge, args=(a,), epsabs=1e-13, epsrel=1e-12
        )
        prev = edge
    half = np.empty(x.size)
    half[order] = np.cumsum(pieces)
    return 0.5 + np.sign(x) * half


def check_simulate(out_dir, workload, truth):
    """truth.csv recursion, ticks per day, last tick = close, KS of y/sigma."""
    out = Path(out_dir)
    results = []

    _, cols = read_csv(out / "truth.csv")
    var = floats(cols["total_variance"])
    y = floats(cols["true_return"])
    expected = np.empty(var.size)
    expected[0] = truth.omega / (1.0 - truth.alpha - truth.beta)
    expected[1:] = truth.omega + truth.alpha * y[:-1] ** 2 + truth.beta * var[:-1]
    err = _rel(var, expected)
    results.append(
        _check(
            "simulate.truth_recursion",
            var.size == workload.days and err <= RTOL_RECURSION,
            f"{var.size} days, max relative error {err:.2e}",
        )
    )

    _, ticks = read_csv(out / "ticks.csv")
    times = np.array(ticks["timestamp"], dtype="datetime64[us]")
    days, first, counts = np.unique(
        times.astype("datetime64[D]"), return_index=True, return_counts=True
    )
    want_days = np.array(trading_days(workload.days), dtype="datetime64[D]")
    per_day = workload.steps_per_day + len(SESSIONS)
    results.append(
        _check(
            "simulate.ticks_per_day",
            np.array_equal(days, want_days) and (counts == per_day).all(),
            f"{days.size} days, {counts.min()}..{counts.max()} ticks a day "
            f"(want {per_day})",
        )
    )

    _, daily = read_csv(out / "daily.csv")
    last = floats(ticks["price"])[first + counts - 1]
    closes = floats(daily["close"])
    results.append(
        _check(
            "simulate.last_tick_is_close",
            daily["date"] == [str(d) for d in days] and np.array_equal(last, closes),
            f"{int((last != closes).sum())} of {closes.size} closes differ",
        )
    )

    z = y / np.sqrt(var)
    p = stats.kstest(z, lambda x: rational_cdf(x, truth.a)).pvalue
    results.append(
        _check(
            "simulate.ks_rational",
            p >= KS_MIN_P,
            f"KS p-value {p:.3g} on {z.size} standardised returns",
        )
    )
    return results


# -- rv -----------------------------------------------------------------------


def _sampled_ticks(clock_us, delta, through_close):
    """Per session, indices of the previous tick at each grid instant.

    The grid is open + k*delta up to the last whole step; with
    ``through_close`` the session close is added when delta does not divide
    the session.
    """
    out = []
    step = int(round(delta * 1e6))
    for o, c in SESSIONS:
        o, c = o * 1_000_000, c * 1_000_000
        grid = o + step * np.arange((c - o) // step + 1, dtype=np.int64)
        if through_close and grid[-1] < c:
            grid = np.append(grid, c)
        out.append(np.searchsorted(clock_us, grid, side="right") - 1)
    return out


def _previous_tick_rv(log_prices, sampled):
    rv = np.zeros(log_prices.shape[0])
    for idx in sampled:
        r = np.diff(log_prices[:, idx], axis=1)
        rv += (r * r).sum(axis=1)
    return rv


def _expected_rv(market, sampled, truth):
    """E[RV | day returns]: Brownian bridge increments plus 2 rho^2 per change.

    An increment of a bridge pinned to y over session time T, spanning d, has
    second moment rate*d*(1 - d/T) + y^2 d^2 / T^2.
    """
    rate = market.variances / SESSION_SECONDS
    d1, d2, changes = 0.0, 0.0, 0
    for idx in sampled:
        span = np.diff(market.tick_session_s[idx])
        d1 += span.sum()
        d2 += (span * span).sum()
        changes += int((np.diff(idx) != 0).sum())
    return (
        rate * (d1 - d2 / SESSION_SECONDS)
        + market.returns**2 * d2 / SESSION_SECONDS**2
        + 2.0 * truth.rho2 * changes
    )


def check_rv(out_dir, deltas, market, truth):
    """Exact previous-tick RV and HL factors; mean RV against the truth."""
    out = Path(out_dir)
    log_prices = np.log(np.exp(market.log_prices))  # the prices as written
    day_returns = np.diff(np.log(market.closes))
    centred = day_returns - day_returns.mean()

    _, signature = read_csv(out / "signature.csv")
    _, hl = read_csv(out / "hl.csv")
    exact_errors, stat_details, stat_ok = [], [], True
    for i, delta in enumerate(deltas):
        _, cols = read_csv(out / f"rv_{delta:g}s.csv")
        rv = floats(cols["rv"])
        factor = float(hl["hl_factor"][i])
        divides = all((c - o) % delta == 0 for o, c in SESSIONS)
        if divides:
            ref = _previous_tick_rv(
                log_prices, _sampled_ticks(market.clock_us, delta, False)
            )
            ref_c = float(centred @ centred) / ref[1:].sum()
            exact_errors.append(
                max(
                    _rel(rv, ref),
                    _rel(floats(cols["c_adjusted_rv"]), ref * ref_c),
                    _rel(factor, ref_c),
                    _rel(float(signature["avg_rv"][i]), ref.mean()),
                    _rel(float(signature["hl_factor"][i]), ref_c),
                )
                if rv.size == ref.size
                else math.inf
            )
        # the floor grid drops the end of a session that delta does not
        # divide; a grid through the close is accepted too
        zs = []
        for through_close in (False,) if divides else (False, True):
            expected = _expected_rv(
                market, _sampled_ticks(market.clock_us, delta, through_close), truth
            )
            resid = rv - expected
            zs.append(resid.mean() / (resid.std(ddof=1) / math.sqrt(resid.size)))
        z = min(zs, key=abs)
        stat_ok &= abs(z) <= Z_MAX
        stat_details.append(f"{delta:g}s z={z:+.2f}")
    worst = max(exact_errors) if exact_errors else math.inf
    return [
        _check(
            "rv.previous_tick_exact",
            worst <= RTOL_EXACT,
            f"{len(exact_errors)} periods, max relative error {worst:.2e}",
        ),
        _check("rv.noise_bias", stat_ok, ", ".join(stat_details)),
    ]


# -- compare ------------------------------------------------------------------


def plain_loglik(theta, returns, rational):
    """Log-likelihood by a plain loop over the returns."""
    omega, alpha, beta = theta[:3]
    n = len(returns)
    mean = sum(returns) / n
    s = sum((r - mean) ** 2 for r in returns) / (n - 1)
    total = 0.0
    for t, y in enumerate(returns):
        if t > 0:
            s = omega + alpha * returns[t - 1] ** 2 + beta * s
        if rational:
            a = theta[3]
            x2 = y * y / s
            total += (
                math.log(a / math.pi)
                - math.log((x2 - 1.0) ** 2 + a * a * x2)
                - 0.5 * math.log(s)
            )
        else:
            total += -0.5 * (math.log(2.0 * math.pi * s) + y * y / s)
    return total


def mean_loglik(samples, returns, rational):
    """Average log-likelihood over posterior samples, one time step at a time."""
    omega, alpha, beta = samples[:, 0], samples[:, 1], samples[:, 2]
    s = np.full(samples.shape[0], float(np.var(returns, ddof=1)))
    total = np.zeros(samples.shape[0])
    for t, y in enumerate(returns):
        if t > 0:
            s = omega + alpha * returns[t - 1] ** 2 + beta * s
        if rational:
            a = samples[:, 3]
            x2 = y * y / s
            total += np.log(a / math.pi) - np.log((x2 - 1.0) ** 2 + a * a * x2)
            total -= 0.5 * np.log(s)
        else:
            total += -0.5 * (np.log(2.0 * math.pi * s) + y * y / s)
    return float(total.mean())


def check_compare(out_dir, market, truth, long_series):
    """lnL at the mean, AIC/DIC and acceptance; on a long series also the
    recovery of the truth and the preferred law.

    A few hundred returns do not identify the persistence: on some seeds the
    likelihood itself peaks near beta = 0, so recovery is not checked there.
    """
    out = Path(out_dir)
    returns = np.diff(np.log(market.closes))
    report = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    scores = {s["model"]: s for s in report["scores"]}
    lnl_err, crit_err, acceptance = [], [], []
    for model, rational in (("garch-n", False), ("garch-re", True)):
        summary = json.loads(
            (out / f"summary_{model}.json").read_text(encoding="utf-8")
        )
        names = ("omega", "alpha", "beta", "a") if rational else ("omega", "alpha", "beta")
        theta = [summary["parameters"][p]["mean"] for p in names]
        lnl = plain_loglik(theta, returns.tolist(), rational)
        lnl_err.append(_rel(summary["log_likelihood_at_mean"], lnl))

        _, chain = read_csv(out / f"chain_{model}.csv")
        samples = np.column_stack([floats(chain[p]) for p in names])
        e_lnl = mean_loglik(samples, returns, rational)
        score = scores[model]
        crit_err.append(
            max(
                _rel(score["aic"], -2.0 * lnl + 2.0 * len(names)),
                _rel(score["dic"], 2.0 * (lnl - 2.0 * e_lnl)),
                _rel(score["mean_log_likelihood"], e_lnl),
            )
        )
        acceptance.append(summary["acceptance_rate"])
        if rational and long_series:
            params = summary["parameters"]
            off = {
                p: abs(params[p]["mean"] - getattr(truth, p)) / params[p]["sd"]
                for p in names
            }
    results = [
        _check(
            "compare.lnl_at_mean",
            max(lnl_err) <= RTOL_EXACT,
            f"max relative error {max(lnl_err):.2e}",
        ),
        _check(
            "compare.aic_dic",
            max(crit_err) <= RTOL_EXACT,
            f"max relative error {max(crit_err):.2e}",
        ),
        _check(
            "compare.acceptance",
            all(0.01 < r < 1.0 for r in acceptance),
            "acceptance " + ", ".join(f"{r:.3f}" for r in acceptance),
        ),
    ]
    if long_series:
        results += [
            _check(
                "compare.recovery",
                max(off.values()) <= POSTERIOR_SDS,
                "garch-re |mean - truth| / sd: "
                + ", ".join(f"{p} {v:.2f}" for p, v in off.items()),
            ),
            _check(
                "compare.prefers_rational",
                report["aic_preferred"] == report["dic_preferred"] == "garch-re",
                f"AIC prefers {report['aic_preferred']}, "
                f"DIC prefers {report['dic_preferred']}",
            ),
        ]
    return results
