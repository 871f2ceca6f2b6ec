"""Acceptance gate: statistical and reproducibility criteria, end to end.

The heavy fixtures (full-length chains, thousand-day markets) are session
scoped and shared across criteria; a forked child draws half of
``recovery_batch``'s chains, and the whole module takes about 40 s on two
cores.  Every experiment is seeded, so each criterion is a deterministic
pass/fail.
"""

import math
from datetime import date, time, timedelta

import numpy as np
import pytest
from scipy import integrate, stats

from regarch import cli, rational
from regarch.data import ReturnSeries, SessionCalendar, daily_log_returns
from regarch.forked import Child
from regarch.garch import (
    NORMAL,
    RATIONAL,
    GarchParams,
    log_likelihood,
    volatility_recursion,
)
from regarch.mcmc import (
    MODEL_NORMAL,
    MODEL_RATIONAL,
    ChainConfig,
    draw_chain,
    integrated_autocorr_time,
    run_chain,
    summarize,
)
from regarch.realized import (
    NoiseModel,
    hl_factor,
    rmspe,
    rv_from_ticks,
    scale_to_daily_variance,
)
from regarch.selection import compare, score_chain
from regarch.simulate import DiffusionSpec, simulate_garch, simulate_intraday

_A_GRID = (0.5, 1.0, 1.57, 3.0)
_TOKYO = SessionCalendar.tokyo()

# shared truth for the recovery/selection/mixing criteria
_TRUTH_N = GarchParams(1.3e-5, 0.148, 0.836)
_TRUTH_RE = GarchParams(1.3e-5, 0.148, 0.836, RATIONAL, a=1.57)
_REPS = 10


def _draw_in_child(send, jobs):
    """The forked child of ``recovery_batch``: draw each job's chain, then
    send each one's draws as ``cli._worker_main`` does.  Every chain is
    drawn before the first frame: a child sending as it goes would block on
    the pipe while the parent draws its own."""
    frames = []
    for job in jobs:
        cli._worker_main(frames.append, *job)
    for frame in frames:
        send(frame)


@pytest.fixture(scope="session")
def recovery_batch():
    """Ten replications: matched-law fits on both laws plus a cross fit.

    Per replication i: 3000 normal-law returns (data seed 100+i) fitted
    with the normal model (chain seed 9000+i); 3000 rational-law returns
    (data seed 200+i) fitted with the rational model (9100+i) and with
    the normal model (9200+i) for the selection criterion.  Default chain
    settings throughout (burn-in 6000, 50000 samples).

    A forked child draws the odd replications' chains while this process
    draws the even ones (all of them where there is no child); every chain
    is summarised here, in replication order, so its log records and
    warnings come as they would from one chain after another.
    """
    jobs = []
    for i in range(_REPS):
        data_n, _ = simulate_garch(_TRUTH_N, 3000, np.random.default_rng(100 + i))
        data_re, _ = simulate_garch(_TRUTH_RE, 3000, np.random.default_rng(200 + i))
        jobs.append(
            [
                (MODEL_NORMAL, data_n, ChainConfig(seed=9000 + i)),
                (MODEL_RATIONAL, data_re, ChainConfig(seed=9100 + i)),
                (MODEL_NORMAL, data_re, ChainConfig(seed=9200 + i)),
            ]
        )
    child = Child(_draw_in_child, [job for rep in jobs[1::2] for job in rep])
    try:
        drawn = [
            None if i % 2 and child.pid else [draw_chain(*job) for job in rep]
            for i, rep in enumerate(jobs)
        ]
        reps = []
        for rep, draws in zip(jobs, drawn):
            if draws is None:
                draws = [cli._received(model, child) for model, _, _ in rep]
            chains = [summarize(d, returns) for d, (_, returns, _) in zip(draws, rep)]
            reps.append(dict(zip(("normal", "rational", "cross"), chains)))
        return reps
    finally:
        child.close()


def _recoveries(chains, truth):
    """Per chain: every parameter mean within 3 posterior SDs of truth."""
    hits = []
    for chain in chains:
        ok = all(
            abs(s.mean - getattr(truth, s.name)) <= 3.0 * s.sd
            for s in chain.summaries
        )
        hits.append(ok)
    return hits


class TestErrorDistribution:
    def test_density_integrates_to_one(self):
        for a in _A_GRID:
            total, _ = integrate.quad(
                lambda x: rational.pdf(x, a), -np.inf, np.inf, limit=400
            )
            assert total == pytest.approx(1.0, abs=1e-8), f"a={a}"

    def test_density_has_unit_variance(self):
        for a in _A_GRID:
            second, _ = integrate.quad(
                lambda x: x * x * rational.pdf(x, a), -np.inf, np.inf, limit=400
            )
            assert second == pytest.approx(1.0, abs=1e-6), f"a={a}"

    @pytest.mark.parametrize("a,seed", [(1.0, 0), (1.57, 1)])
    def test_sampler_matches_cdf(self, a, seed):
        n = 100_000
        draws = rational.sample(n, a, np.random.default_rng(seed))
        stat = stats.kstest(draws, lambda x: rational.cdf(x, a)).statistic
        assert stat < 1.36 / math.sqrt(n)


def _hand_loglik(params, values, init):
    """Independent reference: sequential recursion and literal densities."""
    s = init
    total = 0.0
    for t, y in enumerate(values):
        if t > 0:
            s = params.omega + params.alpha * values[t - 1] ** 2 + params.beta * s
        if params.law == NORMAL:
            total += -0.5 * (math.log(2.0 * math.pi) + math.log(s) + y * y / s)
        else:
            x2 = y * y / s
            total += (
                math.log(params.a)
                - math.log(math.pi)
                - math.log((x2 - 1.0) ** 2 + params.a**2 * x2)
                - 0.5 * math.log(s)
            )
    return total


class TestLikelihood:
    def test_five_observation_hand_check(self):
        values = [0.013, -0.021, 0.004, -0.002, 0.017]
        dates = tuple(date(2006, 1, 2) + timedelta(days=i) for i in range(5))
        returns = ReturnSeries(dates, values)
        init = 2.5e-4
        for params in (
            GarchParams(1.2e-5, 0.15, 0.80),
            GarchParams(1.2e-5, 0.15, 0.80, RATIONAL, a=1.57),
        ):
            expected = _hand_loglik(params, values, init)
            got = log_likelihood(params, returns, init_variance=init)
            assert got == pytest.approx(expected, rel=1e-12)


class TestEstimation:
    def test_parameter_recovery_normal(self, recovery_batch):
        hits = _recoveries([r["normal"] for r in recovery_batch], _TRUTH_N)
        assert sum(hits) >= 9, f"recoveries: {hits}"

    def test_parameter_recovery_rational(self, recovery_batch):
        hits = _recoveries([r["rational"] for r in recovery_batch], _TRUTH_RE)
        assert sum(hits) >= 9, f"recoveries: {hits}"

    def test_selection_prefers_true_law(self, recovery_batch):
        wins = []
        for rep in recovery_batch:
            report = compare(score_chain(rep["cross"]), score_chain(rep["rational"]))
            wins.append(
                report.aic_preferred == MODEL_RATIONAL
                and report.dic_preferred == MODEL_RATIONAL
            )
        assert sum(wins) >= 8, f"wins: {wins}"

    def test_chains_mix(self, recovery_batch):
        for rep in recovery_batch:
            for key in ("normal", "rational"):
                for s in rep[key].summaries:
                    assert s.tau_int <= 20.0, f"{key}/{s.name}: tau {s.tau_int}"

    def test_iid_autocorr_time_is_one(self):
        draws = np.random.default_rng(42).standard_normal(100_000)
        diag = integrated_autocorr_time(draws)
        assert diag.tau_int == pytest.approx(1.0, abs=0.05)


class TestRealizedMeasures:
    def test_noise_bias_matches_theory(self):
        # coupled same-seed markets (identical true path, noise on/off);
        # one 6.5 h session makes the per-day return count exact
        cal = SessionCalendar({wd: ((time(9, 0), time(15, 30)),) for wd in range(5)})
        rho2 = 2.5e-7
        for delta, n in ((60.0, 390), (300.0, 78)):
            means = {}
            for r2 in (0.0, rho2):
                spec = DiffusionSpec(
                    steps_per_day=390, day_variances=1e-4, noise=NoiseModel(r2)
                )
                sim = simulate_intraday(spec, 250, np.random.default_rng(3), cal)
                means[r2] = rv_from_ticks(sim.ticks, cal, delta).values.mean()
            bias = means[rho2] - means[0.0]
            expected = NoiseModel(rho2).bias(n)
            assert bias == pytest.approx(expected, rel=0.10), f"n={n}"

    @pytest.mark.parametrize(
        "fraction,target,tol", [(0.0, 1.0, 0.05), (0.5, 2.0, 0.2)]
    )
    def test_hl_factor_calibration(self, fraction, target, tol):
        spec = DiffusionSpec(
            steps_per_day=390, day_variances=1e-4, overnight_fraction=fraction
        )
        sim = simulate_intraday(spec, 500, np.random.default_rng(0), _TOKYO)
        c = hl_factor(
            daily_log_returns(sim.daily_prices),
            rv_from_ticks(sim.ticks, _TOKYO, 300.0),
        )
        assert c == pytest.approx(target, abs=tol)


_MARKET = GarchParams(2.8e-4, 0.132, 0.768, RATIONAL, a=1.57)
_DELTAS = (15.0, 30.0, 60.0, 120.0, 300.0, 900.0, 1800.0, 3600.0)


@pytest.fixture(scope="session")
def market_scores():
    """RMSPE-vs-sampling-period curves for both models on six markets.

    Each market: 1000 days of the heavy-tailed GARCH market observed
    through weak noise on a Tokyo calendar; both models are fitted on the
    observed daily returns, their conditional variances rescaled to the
    daily-return variance, and scored against c-adjusted RV per period.
    """
    curves = []
    for seed in range(6):
        spec = DiffusionSpec(
            steps_per_day=1080, garch=_MARKET, noise=NoiseModel(5e-7)
        )
        sim = simulate_intraday(spec, 1000, np.random.default_rng(seed), _TOKYO)
        returns = daily_log_returns(sim.daily_prices)
        # the c-adjusted RV per period, which every model is scored against
        rvs = (rv_from_ticks(sim.ticks, _TOKYO, delta) for delta in _DELTAS)
        adjusted = [rv.with_hl(hl_factor(returns, rv)) for rv in rvs]
        per_model = {}
        for model in (MODEL_NORMAL, MODEL_RATIONAL):
            chain = run_chain(model, returns, ChainConfig(seed=seed + 100))
            vols = volatility_recursion(chain.params_at_mean(), returns)
            scaled = scale_to_daily_variance(vols, returns)
            per_model[model] = np.array([rmspe(scaled, rv) for rv in adjusted])
        curves.append(per_model)
    return curves


class TestMarketEvaluation:
    def test_rational_curve_is_u_shaped(self, market_scores):
        # noise inflates RV at small periods, discretization at large
        # ones: the winning model's curve should dip in between
        interior = []
        for per_model in market_scores:
            k = int(np.argmin(per_model[MODEL_RATIONAL]))
            interior.append(0 < k < len(_DELTAS) - 1)
        assert sum(interior) >= 5, f"interior minima: {interior}"

    def test_rational_model_scores_no_worse(self, market_scores):
        wins = [
            per_model[MODEL_RATIONAL].min() <= per_model[MODEL_NORMAL].min()
            for per_model in market_scores
        ]
        assert sum(wins) >= 4, f"wins: {wins}"


_FAST = ["--burn-in", "600", "--samples", "2000", "--adapt-interval", "200"]


def _run_twice(args, tmp_path, names):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert cli.main(args + ["--out-dir", str(d)]) == 0
    for name in names:
        a, b = (d / name for d in dirs)
        assert a.is_file() and b.is_file()
        assert a.read_bytes() == b.read_bytes(), name


class TestCliReproducibility:
    def test_every_subcommand_is_byte_deterministic(self, tmp_path):
        sim_args = [
            "simulate", "--days", "120", "--steps-per-day", "78",
            "--model", "garch-re", "--omega", "2.8e-4", "--alpha", "0.132",
            "--beta", "0.768", "--a", "1.57", "--rho2", "2.5e-7",
            "--seed", "11",
        ]
        _run_twice(
            sim_args, tmp_path / "simulate", ("daily.csv", "ticks.csv", "truth.csv")
        )
        market = tmp_path / "simulate" / "a"
        daily = str(market / "daily.csv")
        ticks = str(market / "ticks.csv")

        _run_twice(
            ["fit", "--model", "garch-n", "--data", daily, "--seed", "5"] + _FAST,
            tmp_path / "fit",
            ("chain_garch-n.csv", "summary_garch-n.json"),
        )
        _run_twice(
            ["compare", "--data", daily, "--seed", "5"] + _FAST,
            tmp_path / "compare",
            (
                "comparison.json",
                "chain_garch-n.csv", "summary_garch-n.json",
                "chain_garch-re.csv", "summary_garch-re.json",
            ),
        )
        _run_twice(
            ["rv", "--ticks", ticks, "--data", daily, "--delta-list", "300,900"],
            tmp_path / "rv",
            ("rv_300s.csv", "rv_900s.csv", "signature.csv", "hl.csv"),
        )
        _run_twice(
            [
                "rmspe", "--data", daily, "--ticks", ticks,
                "--delta-list", "300,900", "--seed", "5",
            ] + _FAST,
            tmp_path / "rmspe",
            (
                "rmspe.csv",
                "chain_garch-n.csv", "summary_garch-n.json",
                "chain_garch-re.csv", "summary_garch-re.json",
            ),
        )
