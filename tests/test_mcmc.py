import io
import json
import math
import warnings
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.optimize import minimize
from scipy.special import gammaln
from scipy.stats import multivariate_t

from regarch import mcmc
from regarch.data import ReturnSeries, write_json
from regarch.exceptions import (
    AdaptationFailureError,
    DomainError,
    InsufficientDataError,
    InsufficientHistoryError,
    NumericalError,
    ValidationError,
)
from regarch.garch import NORMAL, RATIONAL, GarchParams, log_likelihood
from regarch.mcmc import (
    MODEL_NORMAL,
    MODEL_RATIONAL,
    AcfDiagnostics,
    ChainConfig,
    ChainDraws,
    Prior,
    StudentTProposal,
    acf,
    adapt_proposal,
    check_adapt_interval,
    data_digest,
    format_uncertainty,
    integrated_autocorr_time,
    mh_step,
    _Box,
    _LogTarget,
    _laplace_scale,
    _start,
    _start_point,
    run_chain,
    run_chains,
    summarize,
)
from regarch.simulate import simulate_garch
from reference import log_posterior, nelder_mead, prior_log_density


def _returns(values, start=date(2006, 1, 2)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return ReturnSeries(dates, np.asarray(values, dtype=float))


def _synthetic_returns(n=800, seed=10):
    params = GarchParams(5e-5, 0.1, 0.8)
    returns, _ = simulate_garch(params, n, np.random.default_rng(seed))
    return params, returns


def _contains(prior, *points):
    return prior.contains(np.array([p.to_vector() for p in points]), points[0].names).tolist()


class TestPrior:
    def test_default_positive_orthant(self):
        prior = Prior()
        assert prior_log_density(prior, GarchParams(1e-5, 0.1, 0.8)) == 0.0
        assert _contains(prior, GarchParams(1e-5, 0.1, 0.8)) == [True]

    def test_box_bounds(self):
        prior = Prior(lower={"alpha": 0.05}, upper={"beta": 0.9})
        points = [
            GarchParams(1e-5, 0.1, 0.8),
            GarchParams(1e-5, 0.01, 0.8),
            GarchParams(1e-5, 0.1, 0.95),
        ]
        assert prior_log_density(prior, points[0]) == 0.0
        assert prior_log_density(prior, points[1]) == -math.inf
        assert prior_log_density(prior, points[2]) == -math.inf
        assert _contains(prior, *points) == [True, False, False]

    def test_unknown_parameter_name_rejected(self):
        with pytest.raises(ValidationError, match="Beta"):
            Prior(upper={"Beta": 0.9})
        with pytest.raises(ValidationError, match="gamma"):
            Prior(lower={"alpha": 0.05, "gamma": 0.1})

    def test_posterior_rejects_out_of_box(self):
        _, returns = _synthetic_returns(n=60)
        prior = Prior(upper={"alpha": 0.05})
        params = GarchParams(1e-5, 0.1, 0.8)
        assert log_posterior(params, returns, prior) == -math.inf
        assert math.isfinite(log_posterior(params, returns))


class TestStudentTProposal:
    def test_log_density_matches_scipy(self):
        loc = np.array([0.5, -1.0, 2.0])
        scale = np.array(
            [[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.5]]
        )
        proposal = StudentTProposal(loc, scale, 7.0)
        reference = multivariate_t(loc=loc, shape=scale, df=7.0)
        for x in np.random.default_rng(0).normal(size=(8, 3)):
            assert proposal.log_density(x) == pytest.approx(
                reference.logpdf(x), rel=1e-12
            )

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_block_log_density_matches_triangular_solve(self, d):
        # forward substitution against LAPACK's triangular solve and SciPy's
        # log-gamma, point by point and over random blocks
        rng = np.random.default_rng(d)
        for _ in range(20):
            a = rng.normal(size=(d, d))
            scale = a @ a.T + 0.05 * np.eye(d)
            loc = rng.normal(size=d)
            dof = float(rng.uniform(2.5, 30.0))
            proposal = StudentTProposal(loc, scale, dof)
            xs = loc + rng.standard_t(4.0, size=(50, d)) * 3.0
            chol = np.linalg.cholesky(scale)
            z = solve_triangular(chol, (xs - loc).T, lower=True, check_finite=False)
            log_norm = (
                gammaln((dof + d) / 2.0)
                - gammaln(dof / 2.0)
                - 0.5 * d * math.log(dof * math.pi)
                - np.log(np.diag(chol)).sum()
            )
            kernel = 0.5 * (dof + d) * np.log1p((z * z).sum(axis=0) / dof)
            ref = log_norm - kernel
            # rel 1e-13, with a slack of 1e-13 times the two terms' sizes
            # where they cancel to near zero
            slack = 1e-13 * (abs(log_norm) + kernel)
            got = proposal.log_density(xs)
            assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref) + slack)
            assert abs(proposal.log_density(xs[0]) - ref[0]) <= 1e-13 * abs(ref[0]) + slack[0]

    def test_covariance_is_scale_times_dof_ratio(self):
        scale = np.array([[2.0, 0.5], [0.5, 1.0]])
        proposal = StudentTProposal(np.zeros(2), scale, 5.0)
        np.testing.assert_allclose(proposal.covariance(), scale * 5.0 / 3.0)

    def test_sampling_moments(self):
        loc = np.array([1.0, -2.0])
        scale = np.array([[1.0, 0.4], [0.4, 2.0]])
        proposal = StudentTProposal(loc, scale, 10.0)
        rng = np.random.default_rng(3)
        draws = np.array([proposal.sample(rng) for _ in range(40_000)])
        np.testing.assert_allclose(draws.mean(axis=0), loc, atol=0.05)
        np.testing.assert_allclose(
            np.cov(draws, rowvar=False), proposal.covariance(), atol=0.12
        )

    def test_dof_must_exceed_two(self):
        with pytest.raises(DomainError):
            StudentTProposal(np.zeros(1), np.eye(1), 2.0)

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            StudentTProposal(np.zeros(2), np.eye(3), 5.0)

    def test_non_positive_definite_scale(self):
        with pytest.raises(np.linalg.LinAlgError):
            StudentTProposal(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 5.0)


class TestAdaptation:
    def test_moment_matching(self):
        rng = np.random.default_rng(1)
        history = rng.multivariate_normal(
            [0.5, -0.3], [[1.0, 0.2], [0.2, 0.5]], size=500
        )
        proposal = adapt_proposal(history, dof=10.0)
        np.testing.assert_allclose(proposal.location, history.mean(axis=0))
        np.testing.assert_allclose(
            proposal.covariance(),
            np.cov(history, rowvar=False, ddof=1),
            rtol=1e-12,
        )

    def test_degenerate_history_gets_jitter(self):
        history = np.tile([1.0, 2.0, 3.0], (50, 1))
        proposal = adapt_proposal(history, dof=10.0)
        np.testing.assert_allclose(proposal.location, [1.0, 2.0, 3.0])
        draw = proposal.sample(np.random.default_rng(0))
        np.testing.assert_allclose(draw, [1.0, 2.0, 3.0], atol=1e-3)

    def test_history_too_short(self):
        with pytest.raises(InsufficientHistoryError):
            adapt_proposal(np.zeros((3, 2)), dof=10.0)
        with pytest.raises(InsufficientHistoryError):
            adapt_proposal(np.zeros(10), dof=10.0)


class TestMhStep:
    @staticmethod
    def _gaussian(v):
        return -0.5 * float(v @ v)

    @staticmethod
    def _scored(proposal, log_target, x):
        return log_target(x), proposal.log_density(x)

    def test_recovers_gaussian_target(self):
        proposal = StudentTProposal(np.zeros(1), np.eye(1) * 1.5, 8.0)
        rng = np.random.default_rng(5)
        x = np.array([3.0])
        current = self._scored(proposal, self._gaussian, x)
        draws = np.empty(20_000)
        accepted = 0
        for i in range(draws.shape[0]):
            y = proposal.sample(rng)
            candidate = self._scored(proposal, self._gaussian, y)
            if mh_step(current, candidate, rng.random()):
                x, current = y, candidate
                accepted += 1
            draws[i] = x[0]
        assert abs(draws.mean()) < 0.05
        assert abs(draws.var() - 1.0) < 0.05
        assert 0.7 < accepted / draws.shape[0] < 0.95

    def test_impossible_candidate_rejected(self):
        proposal = StudentTProposal(np.zeros(1), np.eye(1), 8.0)
        rng = np.random.default_rng(0)
        current = (0.0, proposal.log_density(np.array([0.5])))
        candidate = self._scored(proposal, lambda v: -math.inf, proposal.sample(rng))
        assert mh_step(current, candidate, rng.random()) is False
        # even from an impossible state
        assert mh_step((-math.inf, current[1]), candidate, rng.random()) is False

    def test_escapes_impossible_start(self):
        proposal = StudentTProposal(np.zeros(1), np.eye(1), 8.0)
        rng = np.random.default_rng(0)
        current = (-math.inf, proposal.log_density(np.array([50.0])))
        candidate = self._scored(proposal, self._gaussian, proposal.sample(rng))
        assert math.isfinite(candidate[0])
        assert mh_step(current, candidate, rng.random()) is True
        # a start the proposal cannot reach either makes the ratio NaN
        assert mh_step((-math.inf, -math.inf), candidate, 1.0) is True


class TestAcf:
    def test_matches_direct_computation(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(400)
        r = acf(x, 30)
        centered = x - x.mean()
        denom = float(centered @ centered)
        direct = [
            float(centered[: 400 - k] @ centered[k:]) / denom for k in range(31)
        ]
        np.testing.assert_allclose(r, direct, rtol=1e-10, atol=1e-12)

    def test_power_spectrum_in_place_keeps_the_bits(self):
        x = np.random.default_rng(5).standard_normal(3001)
        centred = x - x.mean()
        m = 1 << (2 * x.shape[0] - 1).bit_length()
        f = np.fft.rfft(centred, m)
        autocov = np.fft.irfft(f * np.conj(f), m)[:501] / x.shape[0]
        np.testing.assert_array_equal(acf(x, 500), autocov / autocov[0])

    def test_lag_zero_is_one(self):
        r = acf(np.arange(50, dtype=float), 5)
        assert r[0] == pytest.approx(1.0)

    def test_constant_series_rejected(self):
        with pytest.raises(Exception, match="constant"):
            acf(np.ones(100), 10)

    def test_max_lag_bounds(self):
        with pytest.raises(InsufficientDataError):
            acf(np.arange(10, dtype=float), 10)


class TestIntegratedAutocorrTime:
    def test_iid_is_one(self):
        rng = np.random.default_rng(42)
        diag = integrated_autocorr_time(rng.standard_normal(100_000))
        assert diag.tau_int == pytest.approx(1.0, abs=0.05)

    def test_ar1_matches_analytic(self):
        # AR(1) with phi = 0.6 has tau = (1 + phi) / (1 - phi) = 4
        rng = np.random.default_rng(7)
        e = rng.standard_normal(200_000)
        x = np.empty_like(e)
        x[0] = e[0]
        for i in range(1, e.shape[0]):
            x[i] = 0.6 * x[i - 1] + e[i]
        diag = integrated_autocorr_time(x)
        assert diag.tau_int == pytest.approx(4.0, abs=0.35)
        assert diag.window >= 5 * diag.tau_int

    def test_window_rule_shape(self):
        rng = np.random.default_rng(0)
        diag = integrated_autocorr_time(rng.standard_normal(2_000))
        assert isinstance(diag, AcfDiagnostics)
        assert diag.acf.shape[0] == diag.window + 1

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            integrated_autocorr_time(np.array([1.0]))

    def test_window_rule_unmet_warns(self, caplog):
        # a ramp longer than the largest lag stays correlated out to it
        ramp = np.arange(mcmc._TAU_MAX_LAG * 2.0)
        with caplog.at_level("WARNING", logger="regarch.mcmc"):
            diag = integrated_autocorr_time(ramp)
        assert diag.window == mcmc._TAU_MAX_LAG
        assert caplog.messages == [
            f"window rule unsatisfied out to lag {mcmc._TAU_MAX_LAG}; "
            "tau estimate is a floor"
        ]


class TestFormatUncertainty:
    @pytest.mark.parametrize(
        "mean, sd, expected",
        [
            (0.132, 0.038, "0.132(38)"),
            (2.8e-05, 1.2e-05, "2.8(1.2)e-05"),
            (1.57, 0.09, "1.570(90)"),
            (0.858, 0.0075, "0.8580(75)"),
            (1.62, 1.2, "1.6(1.2)"),
            (1.0, 0.0996, "1.00(10)"),
            (0.0, 0.038, "0.000(38)"),
            (-0.132, 0.038, "-0.132(38)"),
            (1.23e6, 4.5e4, "1.230(45)e+06"),
        ],
    )
    def test_cases(self, mean, sd, expected):
        assert format_uncertainty(mean, sd) == expected

    def test_zero_or_bad_spread_falls_back_to_repr(self):
        assert format_uncertainty(0.25, 0.0) == repr(0.25)
        assert format_uncertainty(0.25, math.nan) == repr(0.25)


class TestChainConfig:
    def test_defaults(self):
        config = ChainConfig()
        assert config.burn_in == 6000
        assert config.samples == 50_000
        assert config.adapt_interval == 500
        assert config.nu == 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples": 0},
            {"samples": 1},
            {"adapt_interval": 0},
            {"burn_in": 100, "adapt_interval": 200},
            {"nu": 2.0},
            {"nu": math.inf},
            {"nu": math.nan},
            {"seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            ChainConfig(**kwargs)

    def test_public_dict_includes_prior_when_set(self):
        config = ChainConfig(prior=Prior(upper={"alpha": 0.5}))
        d = config.public_dict()
        assert d["prior"] == {"lower": {}, "upper": {"alpha": 0.5}}
        assert "prior" not in ChainConfig().public_dict()


class TestDataDigest:
    def test_stable_and_sensitive(self):
        r1 = _returns([0.01, -0.02, 0.005])
        r2 = _returns([0.01, -0.02, 0.006])
        assert data_digest(r1) == data_digest(r1)
        assert data_digest(r1) != data_digest(r2)
        assert len(data_digest(r1)) == 16


_SMOKE_CONFIG = ChainConfig(burn_in=1500, samples=5000, seed=3)


class TestRunChain:
    def test_recovers_truth(self, normal_chain):
        truth, _ = _synthetic_returns()
        chain = normal_chain
        assert chain.model == MODEL_NORMAL
        assert chain.param_names == ("omega", "alpha", "beta")
        assert chain.samples.shape == (5000, 3)
        assert chain.acceptance_rate > 0.3
        for summary, true_value in zip(chain.summaries, truth.to_vector()):
            assert abs(summary.mean - true_value) < 5.0 * summary.sd
            assert summary.tau_int < 50.0
        assert math.isfinite(chain.lnl_at_mean)
        assert chain.lnl_at_mean >= chain.mean_log_likelihood()

    def test_deterministic(self):
        _, returns = _synthetic_returns(n=200)
        config = ChainConfig(burn_in=600, samples=800, seed=11)
        first = run_chain(MODEL_NORMAL, returns, config)
        second = run_chain(MODEL_NORMAL, returns, config)
        np.testing.assert_array_equal(first.samples, second.samples)
        np.testing.assert_array_equal(
            first.log_likelihoods, second.log_likelihoods
        )
        assert first.acceptance_rate == second.acceptance_rate

    def test_prior_box_respected(self):
        _, returns = _synthetic_returns(n=200)
        config = ChainConfig(
            burn_in=600,
            samples=800,
            seed=4,
            prior=Prior(upper={"beta": 0.85}),
        )
        chain = run_chain(MODEL_NORMAL, returns, config)
        beta = chain.samples[:, list(chain.param_names).index("beta")]
        assert beta.max() < 0.85

    def test_rational_model_has_shape_parameter(self):
        params = GarchParams(5e-5, 0.1, 0.8, law="rational", a=1.57)
        returns, _ = simulate_garch(params, 400, np.random.default_rng(2))
        chain = run_chain(
            MODEL_RATIONAL, returns, ChainConfig(burn_in=800, samples=1500, seed=6)
        )
        assert chain.param_names == ("omega", "alpha", "beta", "a")
        assert chain.samples.shape[1] == 4
        assert chain.samples[:, 3].min() > 0.0

    def test_unknown_model(self):
        _, returns = _synthetic_returns(n=60)
        with pytest.raises(DomainError, match="unknown model"):
            run_chain("garch-x", returns, _SMOKE_CONFIG)
        with pytest.raises(DomainError, match="unknown model 'garch-x'"):
            check_adapt_interval("garch-x", _SMOKE_CONFIG)

    def test_too_few_returns(self):
        _, returns = _synthetic_returns(n=20)
        with pytest.raises(InsufficientDataError):
            run_chain(MODEL_NORMAL, returns, _SMOKE_CONFIG)

    def test_flat_prices_refused_without_a_warning(self):
        returns = _returns(np.zeros(40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="initial variance must be positive, got 0.0"):
                run_chain(MODEL_NORMAL, returns, _SMOKE_CONFIG)

    def test_no_accepts_is_an_adaptation_failure(self, monkeypatch):
        _, returns = _synthetic_returns(n=200)
        monkeypatch.setattr(mcmc, "mh_step", lambda current, candidate, u: False)
        config = ChainConfig(burn_in=600, samples=800, seed=11)
        with pytest.raises(AdaptationFailureError, match="acceptance rate 0.00% after"):
            run_chain(MODEL_NORMAL, returns, config)

    @pytest.mark.parametrize("run", [run_chain, run_chains])
    @pytest.mark.parametrize("model, interval", [(MODEL_NORMAL, 4), (MODEL_RATIONAL, 5)])
    def test_adapt_interval_too_short_to_refit_refused_before_the_search(
        self, monkeypatch, run, model, interval
    ):
        # a refit of the d-dimensional proposal needs d + 2 draws
        _, returns = _synthetic_returns(n=200)
        searched = []
        monkeypatch.setattr(mcmc, "_bfgs", lambda *args, **kwargs: searched.append(1))
        config = ChainConfig(burn_in=600, samples=500, adapt_interval=interval)
        with pytest.raises(ValidationError, match=f"at least {interval + 1} for {model}"):
            run(model, returns, config)
        assert not searched

    def test_acceptance_counts_kept_steps_only(self, normal_chain):
        # an accepted candidate moves the chain; whether the first kept step
        # moved depends on the burn-in's last position, which is not kept
        moves = int(np.any(np.diff(normal_chain.samples_log, axis=0) != 0.0, axis=1).sum())
        accepts = normal_chain.acceptance_rate * normal_chain.samples.shape[0]
        assert moves <= round(accepts) <= moves + 1

    def test_start_scored_once_after_the_search(self, monkeypatch):
        _, returns = _synthetic_returns(n=200)
        searched, rows = [], []
        score, search = _LogTarget.score, mcmc._bfgs

        def counted_search(*args, **kwargs):
            result = search(*args, **kwargs)
            searched.append(1)
            return result

        def counted_score(self, xs):
            if searched:
                rows.append(xs.shape[0])
            return score(self, xs)

        monkeypatch.setattr(mcmc, "_bfgs", counted_search)
        monkeypatch.setattr(_LogTarget, "score", counted_score)
        run_chain(MODEL_NORMAL, returns, ChainConfig(burn_in=600, samples=500))
        # the start state; the Hessian points and the MH blocks are many rows
        assert rows.count(1) == 1

    def test_log_posterior_consistency(self, normal_chain):
        # retained log posterior includes the log-coordinate Jacobian
        chain = normal_chain
        i = int(np.argmax(chain.log_posteriors))
        params = GarchParams.from_vector(chain.samples[i], law=NORMAL)
        _, returns = _synthetic_returns()
        expected = log_posterior(params, returns) + chain.samples_log[i].sum()
        assert chain.log_posteriors[i] == pytest.approx(expected, rel=1e-9)


def _plain_scores(x, law, returns, prior):
    """Log target and log-likelihood at ``x`` in log coordinates, deliberately
    plain: the log posterior at exp(x) plus the Jacobian sum(x), and the
    scalar log-likelihood; both -inf where the posterior rejects."""
    with warnings.catch_warnings():
        # exp overflows far out, and the chain visits alpha + beta >= 1
        warnings.simplefilter("ignore", RuntimeWarning)
        params = GarchParams.from_vector(np.exp(x), law=law)
        lp = log_posterior(params, returns, prior)
        if lp == -math.inf:
            return -math.inf, -math.inf
        return lp + float(x.sum()), log_likelihood(params, returns)


def _reference_chain(model, returns, config):
    """One MH step at a time, deliberately plain: draw a candidate, score it
    with :func:`_plain_scores`, accept or reject, adapt at interval ends.

    Returns the retained log positions, log targets and log-likelihoods, and
    the number of candidates the prior box rejected.
    """
    law = NORMAL if model == MODEL_NORMAL else RATIONAL
    target = _LogTarget(model, returns, config.prior)
    (x, _, _), proposal = _start(target, config.nu)

    def scores(x):
        return _plain_scores(x, law, returns, config.prior)

    lt, ll = scores(x)
    rng = np.random.default_rng(config.seed)
    positions, log_targets, log_liks = [], [], []
    interval_accepts = 0
    outside_box = 0
    for i in range(config.burn_in + config.samples):
        candidate = proposal.sample(rng)
        u = rng.random()
        params = GarchParams.from_vector(np.exp(candidate), law=law)
        outside_box += prior_log_density(config.prior, params) == -math.inf
        lt_candidate, ll_candidate = scores(candidate)
        if lt_candidate != -math.inf:
            log_ratio = (
                lt_candidate
                - lt
                + proposal.log_density(x)
                - proposal.log_density(candidate)
            )
            if math.isnan(log_ratio):
                accepted = lt == -math.inf
            else:
                accepted = log_ratio >= 0.0 or u < math.exp(log_ratio)
            if accepted:
                x, lt, ll = candidate, lt_candidate, ll_candidate
                interval_accepts += 1
        positions.append(x)
        log_targets.append(lt)
        log_liks.append(ll)
        if i < config.burn_in and (i + 1) % config.adapt_interval == 0:
            if interval_accepts == 0:
                proposal = StudentTProposal(
                    proposal.location, proposal.scale * 4.0, config.nu
                )
            else:
                proposal = adapt_proposal(np.array(positions), config.nu)
            interval_accepts = 0
    k = config.burn_in
    return (
        np.array(positions[k:]),
        np.array(log_targets[k:]),
        np.array(log_liks[k:]),
        outside_box,
    )


class TestBlockScoredChain:
    @pytest.mark.parametrize(
        "model, prior",
        [
            (MODEL_NORMAL, Prior(upper={"alpha": 0.2, "beta": 0.85})),
            (MODEL_RATIONAL, Prior(lower={"a": 1.3}, upper={"beta": 0.85})),
        ],
    )
    def test_matches_one_step_reference(self, model, prior):
        params = GarchParams(5e-5, 0.1, 0.8, law=RATIONAL, a=1.57)
        returns, _ = simulate_garch(params, 300, np.random.default_rng(8))
        # 1100 burn-in steps: two full adaptation intervals and a partial
        # one; 2500 kept steps: one full frozen block and a partial one
        config = ChainConfig(burn_in=1100, samples=2500, seed=12, prior=prior)
        chain = run_chain(model, returns, config)
        samples_log, log_posts, log_liks, outside_box = _reference_chain(
            model, returns, config
        )
        assert outside_box > 0
        np.testing.assert_array_equal(chain.samples_log, samples_log)
        np.testing.assert_array_equal(chain.log_posteriors, log_posts)
        np.testing.assert_array_equal(chain.log_likelihoods, log_liks)

    def test_interval_without_accepts_widens(self, monkeypatch):
        params = GarchParams(5e-5, 0.1, 0.8, law=RATIONAL, a=1.57)
        returns, _ = simulate_garch(params, 300, np.random.default_rng(8))
        # ten intervals of six steps, the fewest a garch-re refit can use
        config = ChainConfig(burn_in=60, adapt_interval=6, samples=1500, seed=1)
        blocks = []
        block = mcmc._mh_block

        def recorded(positions, log_targets, log_liks, *rest):
            accepts = block(positions, log_targets, log_liks, *rest)
            repeats = (positions == positions[0]).all() and (log_targets == log_targets[0]).all()
            blocks.append((accepts, repeats))
            return accepts

        monkeypatch.setattr(mcmc, "_mh_block", recorded)
        chain = run_chain(MODEL_RATIONAL, returns, config)
        burn_in_blocks = blocks[: config.burn_in // config.adapt_interval]
        widened = [repeats for accepts, repeats in burn_in_blocks if accepts == 0]
        # the widening path runs, and a block without accepts holds its
        # entering state throughout
        assert widened and all(widened)
        samples_log, log_posts, log_liks, _ = _reference_chain(MODEL_RATIONAL, returns, config)
        np.testing.assert_array_equal(chain.samples_log, samples_log)
        np.testing.assert_array_equal(chain.log_posteriors, log_posts)
        np.testing.assert_array_equal(chain.log_likelihoods, log_liks)


class TestSummarize:
    @pytest.mark.parametrize("a, bimodal", [(1.2, True), (2.0, False)])
    def test_bimodal_posterior_mean_warns(self, caplog, a, bimodal):
        _, returns = _synthetic_returns(n=200)
        rng = np.random.default_rng(5)
        centre = np.log([5e-5, 0.1, 0.8, a])
        samples_log = centre + 0.01 * rng.standard_normal((400, 4))
        draws = ChainDraws(
            MODEL_RATIONAL, samples_log, np.zeros(400), np.zeros(400), 0.5, ChainConfig()
        )
        with caplog.at_level("WARNING", logger="regarch.mcmc"):
            chain = summarize(draws, returns)
        a_mean = chain.mean()[3]
        expected = [
            f"posterior mean a={a_mean:.3f} is below sqrt(2); the fitted error "
            "density is bimodal"
        ]
        assert caplog.messages == (expected if bimodal else [])


_NM_OPTIONS = {"xatol": 1e-6, "fatol": 1e-8}


def _assert_same_minimize(func, x0, maxiter):
    ref = minimize(func, x0, method="Nelder-Mead", options={"maxiter": maxiter, **_NM_OPTIONS})
    x, fun, nfev, nit = nelder_mead(func, x0, maxiter=maxiter, **_NM_OPTIONS)
    np.testing.assert_array_equal(x, ref.x)
    assert (fun, nfev, nit) == (ref.fun, ref.nfev, ref.nit)
    return nit


class TestNelderMead:
    """The reference search, ``reference.nelder_mead``, against
    ``scipy.optimize.minimize``, bit for bit."""

    def test_random_smooth_targets(self):
        rng = np.random.default_rng(4)
        for trial in range(40):
            d = 1 + trial % 4
            a = rng.normal(size=(d, d))
            curvature = a @ a.T + 0.1 * np.eye(d)
            centre = rng.normal(size=d)

            def func(x, curvature=curvature, centre=centre):
                r = x - centre
                return float(r @ curvature @ r + 0.1 * np.sum(r**4))

            x0 = rng.normal(size=d) * 3.0
            if trial % 5 == 0:
                x0[0] = 0.0  # a zero coordinate gets the absolute step
            _assert_same_minimize(func, x0, 500 * d)

    def test_stops_at_maxiter(self):
        def rosenbrock(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

        assert _assert_same_minimize(rosenbrock, np.array([-1.2, 1.0]), 30) == 30

    def test_infinite_region(self):
        # outside the unit ball the objective is +inf, as -log target is
        # where the target rejects
        hits = []

        def func(x):
            if x @ x > 1.0:
                hits.append(1)
                return math.inf
            return float((x[0] - 0.9) ** 2 + 2.0 * (x[1] + 0.3) ** 2)

        _assert_same_minimize(func, np.array([0.6, 0.5]), 1000)
        assert hits

    @pytest.mark.parametrize("model", [MODEL_NORMAL, MODEL_RATIONAL])
    def test_log_target(self, model):
        law = NORMAL if model == MODEL_NORMAL else RATIONAL
        _, returns = _synthetic_returns(n=300, seed=3)
        target = _LogTarget(model, returns, Prior())
        x0 = _start_point(returns, law)
        _assert_same_minimize(lambda x: -target(x), x0, 500 * x0.shape[0])


_SEARCH_TRUTH = GarchParams(1.3e-5, 0.148, 0.836, law=RATIONAL, a=1.57)


def _search_target(model, n, seed):
    returns, _ = simulate_garch(_SEARCH_TRUTH, n, np.random.default_rng(seed))
    return _LogTarget(model, returns, Prior())


def _reference_start(target):
    """The start by the reference search: Nelder-Mead on minus the log
    target, with the options the library used before BFGS."""
    x0 = _start_point(target.returns, target.law)
    return nelder_mead(lambda x: -target(x), x0, maxiter=500 * x0.shape[0], **_NM_OPTIONS)[0]


class TestStartSearch:
    """BFGS on the gradient kernel against the reference Nelder-Mead."""

    @pytest.mark.parametrize(
        "model, n, seed",
        [
            (model, n, seed)
            for model in (MODEL_NORMAL, MODEL_RATIONAL)
            for n in (249, 1499)
            for seed in (1001, 1002, 1003)
        ]
        # short series whose chains finish silently far out along the ridge
        # start from a proper mode
        + [(MODEL_RATIONAL, 30, 1005), (MODEL_RATIONAL, 40, 1004), (MODEL_RATIONAL, 100, 1000)],
    )
    def test_end_point_matches_the_reference(self, model, n, seed):
        target = _search_target(model, n, seed)
        (x, lt, _), proposal = _start(target, 10.0)
        x_ref = _reference_start(target)
        sd = np.sqrt(np.diag(proposal.covariance()))
        # well inside 0.01 posterior sd; the searches agree to about 2e-6
        assert np.abs(x - x_ref).max() < 1e-3 * sd.min()
        assert lt >= target(x_ref) - 1e-9

    @pytest.mark.parametrize(
        "model, prior",
        [
            (MODEL_NORMAL, Prior(upper={"alpha": 0.2, "beta": 0.85})),
            (MODEL_RATIONAL, Prior(lower={"a": 1.3}, upper={"beta": 0.85})),
            (MODEL_RATIONAL, Prior(lower={"alpha": 0.05}, upper={"beta": 0.9, "a": 3.0})),
        ],
    )
    def test_prior_box_is_no_wall(self, model, prior):
        # the mode is inside the box; searched on the log coordinates, the
        # second case stopped at the beta = 0.85 wall after two iterations
        params = GarchParams(5e-5, 0.1, 0.8, law=RATIONAL, a=1.57)
        returns, _ = simulate_garch(params, 300, np.random.default_rng(8))
        target = _LogTarget(model, returns, prior)
        (x, _, _), proposal = _start(target, 10.0)
        sd = np.sqrt(np.diag(proposal.covariance()))
        assert np.abs(x - _reference_start(target)).max() < 1e-3 * sd.min()

    def test_box_coordinates(self):
        names = ("omega", "alpha", "beta", "a")
        box = _Box(Prior(lower={"omega": 1e-6, "a": 1.3}, upper={"beta": 0.85, "a": 40.0}), names)
        z = np.array([0.3, -1.0, 0.7, -0.4])
        x, slope = box.x(z)
        np.testing.assert_allclose(box.z(x), z, rtol=1e-12)
        theta = np.exp(x)
        assert theta[0] > 1e-6 and theta[2] < 0.85 and 1.3 < theta[3] < 40.0
        h = 1e-6
        np.testing.assert_allclose(slope, (box.x(z + h)[0] - box.x(z - h)[0]) / (2 * h), rtol=1e-8)
        # no bound set: the search runs on x itself
        free = _Box(Prior(), names)
        assert free.x(z)[0].tolist() == z.tolist() and free.z(z).tolist() == z.tolist()
        assert free.x(z)[1].tolist() == [1.0] * 4

    @pytest.mark.parametrize("n, seed", [(30, 1002), (40, 1000)])
    def test_ridge_is_caught_at_the_search(self, n, seed, monkeypatch):
        target = _search_target(MODEL_RATIONAL, n, seed)
        monkeypatch.setattr(mcmc, "_laplace_scale", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="garch-re: the start search found no mode.*improper ridge"):
                _start(target, 10.0)


def _laplace_scale_per_point(target, x, nu):
    """Proposal scale from a Hessian scored one ``target`` call per point."""
    d = x.shape[0]
    fallback = np.eye(d) * 0.01
    h = 1e-3
    f0 = target(x)
    hess = np.empty((d, d))
    steps = h * np.eye(d)
    for i in range(d):
        for j in range(i, d):
            if i == j:
                val = (target(x + steps[i]) - 2.0 * f0 + target(x - steps[i])) / h**2
            else:
                val = (
                    target(x + steps[i] + steps[j])
                    - target(x + steps[i] - steps[j])
                    - target(x - steps[i] + steps[j])
                    + target(x - steps[i] - steps[j])
                ) / (4.0 * h**2)
            if not math.isfinite(val):
                return fallback * (nu - 2.0) / nu
            hess[i, j] = hess[j, i] = val
    lam, vec = np.linalg.eigh(-hess)
    if not np.isfinite(lam).all() or lam.max() <= 0.0:
        return fallback * (nu - 2.0) / nu
    var = np.clip(1.0 / np.maximum(lam, 1e-12), 1e-4, 1.0)
    cov = (vec * var) @ vec.T
    return cov * (nu - 2.0) / nu


class TestLaplaceScale:
    @pytest.mark.parametrize("model", [MODEL_NORMAL, MODEL_RATIONAL])
    def test_matches_per_point_reference(self, model):
        law = NORMAL if model == MODEL_NORMAL else RATIONAL
        _, returns = _synthetic_returns(n=400, seed=6)
        target = _LogTarget(model, returns, Prior())
        (x, _, _), _ = _start(target, 10.0)

        def plain(x):
            return _plain_scores(x, law, returns, Prior())[0]

        for point in (x, x + 0.05, _start_point(returns, law)):
            np.testing.assert_array_equal(
                _laplace_scale(target, point, target(point), 10.0),
                _laplace_scale_per_point(plain, point, 10.0),
            )

    def test_point_outside_prior_box_falls_back(self):
        _, returns = _synthetic_returns(n=400, seed=6)
        x = np.log(np.array([5e-5, 0.1, 0.8]))
        # a box edge 0.05% above alpha puts x + h outside it
        prior = Prior(upper={"alpha": 0.1 * (1.0 + 5e-4)})
        target = _LogTarget(MODEL_NORMAL, returns, prior)
        assert target(x + 1e-3 * np.eye(3)[1]) == -math.inf
        scale = _laplace_scale(target, x, target(x), 10.0)

        def plain(x):
            return _plain_scores(x, NORMAL, returns, prior)[0]

        np.testing.assert_array_equal(scale, _laplace_scale_per_point(plain, x, 10.0))
        np.testing.assert_array_equal(scale, np.eye(3) * 0.01 * 8.0 / 10.0)


class TestImproperRidge:
    """Short garch-re series on which the chain runs off along a -> inf with
    omega ~ a^2, where the posterior is improper."""

    @pytest.mark.parametrize("n, seed", [(30, 1002), (40, 1000)])
    def test_non_finite_posterior_is_a_numerical_error(self, n, seed):
        truth = GarchParams(1.3e-5, 0.148, 0.836, law=RATIONAL, a=1.57)
        returns, _ = simulate_garch(truth, n, np.random.default_rng(seed))
        config = ChainConfig(burn_in=1000, samples=3000)
        with warnings.catch_warnings():
            # no overflow warnings from the summaries ahead of the error
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="improper ridge"):
                run_chain(MODEL_RATIONAL, returns, config)


class TestRunChains:
    def test_distinct_but_deterministic(self):
        _, returns = _synthetic_returns(n=200)
        config = ChainConfig(burn_in=600, samples=500, seed=9)
        chains = run_chains(MODEL_NORMAL, returns, config, n_chains=2)
        assert len(chains) == 2
        assert not np.array_equal(chains[0].samples, chains[1].samples)
        again = run_chains(MODEL_NORMAL, returns, config, n_chains=2)
        np.testing.assert_array_equal(chains[0].samples, again[0].samples)
        np.testing.assert_array_equal(chains[1].samples, again[1].samples)

    @pytest.mark.parametrize("model", [MODEL_NORMAL, MODEL_RATIONAL])
    def test_replicas_equal_run_chain_at_spawned_seeds(self, model):
        _, returns = _synthetic_returns(n=200)
        config = ChainConfig(burn_in=600, samples=2500, seed=9)
        chains = run_chains(model, returns, config, n_chains=3)
        seeds = np.random.SeedSequence(9).generate_state(3)
        for chain, seed in zip(chains, seeds):
            alone = run_chain(model, returns, replace(config, seed=int(seed)))
            np.testing.assert_array_equal(chain.samples_log, alone.samples_log)
            np.testing.assert_array_equal(chain.log_posteriors, alone.log_posteriors)
            np.testing.assert_array_equal(chain.log_likelihoods, alone.log_likelihoods)
            assert chain.acceptance_rate == alone.acceptance_rate
            assert chain.lnl_at_mean == alone.lnl_at_mean
            assert chain.summaries == alone.summaries
            assert chain.config.seed == int(seed)

    def test_one_start_search_for_all_replicas(self, monkeypatch):
        _, returns = _synthetic_returns(n=200)
        calls = []
        search = mcmc._bfgs

        def counted(*args, **kwargs):
            calls.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(mcmc, "_bfgs", counted)
        run_chains(MODEL_NORMAL, returns, ChainConfig(burn_in=600, samples=500), n_chains=3)
        assert len(calls) == 1

    def test_validated_like_run_chain(self):
        _, returns = _synthetic_returns(n=60)
        with pytest.raises(DomainError, match="unknown model"):
            run_chains("garch-x", returns, _SMOKE_CONFIG)
        _, short = _synthetic_returns(n=20)
        with pytest.raises(InsufficientDataError):
            run_chains(MODEL_NORMAL, short, _SMOKE_CONFIG)
        with pytest.raises(DomainError, match="n_chains"):
            run_chains(MODEL_NORMAL, returns, _SMOKE_CONFIG, n_chains=0)


class TestExports:
    def test_summary_json_round_trip(self, normal_chain):
        buf = io.StringIO()
        write_json(buf, normal_chain.summary_dict())
        payload = json.loads(buf.getvalue())
        assert payload["model"] == MODEL_NORMAL
        assert payload["config"]["seed"] == 3
        assert set(payload["parameters"]) == {"omega", "alpha", "beta"}
        for entry in payload["parameters"].values():
            assert set(entry) == {"mean", "sd", "tau_int", "formatted"}

    def test_samples_csv_exact_round_trip(self, normal_chain):
        buf = io.StringIO()
        normal_chain.export_samples_csv(buf, comments=("config a=1", "seed 3"))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# config a=1"
        assert lines[1] == "# seed 3"
        assert lines[2] == "omega,alpha,beta"
        parsed = np.array(
            [[float(v) for v in line.split(",")] for line in lines[3:]]
        )
        np.testing.assert_array_equal(parsed, normal_chain.samples)

    def test_exports_deterministic(self, normal_chain):
        a, b = io.StringIO(), io.StringIO()
        write_json(a, normal_chain.summary_dict())
        write_json(b, normal_chain.summary_dict())
        assert a.getvalue() == b.getvalue()
