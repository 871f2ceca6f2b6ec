import math
import warnings
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regarch import rational, recursions_python
from regarch.data import ReturnSeries
from regarch.exceptions import DomainError, NumericalError
from regarch.garch import (
    NORMAL,
    PARAM_NAMES,
    RATIONAL,
    GarchParams,
    VolSeries,
    check_constraints,
    log_likelihood,
    log_likelihood_gradient,
    log_likelihoods,
    volatility_recursion,
)
from regarch.mcmc import (
    MODEL_NORMAL,
    MODEL_RATIONAL,
    Prior,
    _LogTarget,
    _start,
    _start_point,
    _wolfe_step,
)
from regarch.simulate import simulate_garch
from reference import log_posterior, loglik_gradient

def _returns(values, start=date(2006, 1, 2)):
    dates = tuple(start + timedelta(days=i) for i in range(len(values)))
    return ReturnSeries(dates, np.asarray(values, dtype=float))


def _slow_recursion(omega, alpha, beta, y, init):
    """Reference loop, deliberately plain."""
    sig2 = [init]
    for t in range(1, len(y)):
        sig2.append(omega + alpha * y[t - 1] ** 2 + beta * sig2[-1])
    return np.array(sig2)


def _hand_loglik(law, theta, y, init):
    """Reference log-likelihood, deliberately plain: sequential recursion
    and literal densities.  Also returns the sum of the absolute terms."""
    omega, alpha, beta = theta[:3]
    s = init
    terms = []
    for t in range(len(y)):
        if t > 0:
            s = omega + alpha * y[t - 1] ** 2 + beta * s
        if law == NORMAL:
            terms.append(
                -0.5 * (math.log(2.0 * math.pi) + math.log(s) + y[t] ** 2 / s)
            )
        else:
            a = theta[3]
            x2 = y[t] ** 2 / s
            terms.append(
                math.log(a)
                - math.log(math.pi)
                - math.log((x2 - 1.0) ** 2 + a * a * x2)
                - 0.5 * math.log(s)
            )
    return sum(terms), sum(abs(v) for v in terms)


class TestParams:
    def test_law_validation(self):
        with pytest.raises(DomainError):
            GarchParams(1e-5, 0.1, 0.8, law="cauchy")
        with pytest.raises(DomainError):
            GarchParams(1e-5, 0.1, 0.8, law=RATIONAL)  # a missing
        with pytest.raises(DomainError):
            GarchParams(1e-5, 0.1, 0.8, law=NORMAL, a=2.0)

    def test_vector_round_trip(self):
        p = GarchParams(1e-5, 0.1, 0.8, law=RATIONAL, a=1.6)
        assert p.names == ("omega", "alpha", "beta", "a")
        assert p.k == 4
        q = GarchParams.from_vector(p.to_vector(), law=RATIONAL)
        assert q == p
        n = GarchParams(2e-5, 0.2, 0.7)
        assert n.k == 3
        assert GarchParams.from_vector(n.to_vector()) == n
        with pytest.raises(DomainError, match=r"rational law takes \(omega, alpha, beta, a\)"):
            GarchParams.from_vector(n.to_vector(), law=RATIONAL)
        with pytest.raises(DomainError, match="unknown error law 'cauchy'"):
            GarchParams.from_vector(n.to_vector(), law="cauchy")

    def test_unconditional_variance(self):
        p = GarchParams(1e-5, 0.1, 0.8)
        assert p.unconditional_variance() == pytest.approx(1e-4)
        with pytest.raises(DomainError):
            GarchParams(1e-5, 0.5, 0.5).unconditional_variance()


class TestConstraints:
    def test_positivity_is_hard(self):
        report = check_constraints(GarchParams(-1e-5, 0.1, 0.8))
        assert not report.valid
        assert any("omega" in v for v in report.violations)

    def test_nonstationary_is_soft(self):
        report = check_constraints(GarchParams(1e-5, 0.6, 0.5))
        assert report.valid
        assert not report.stationary

    def test_rational_shape_checked(self):
        report = check_constraints(
            GarchParams(1e-5, 0.1, 0.8, law=RATIONAL, a=-2.0)
        )
        assert not report.valid

    def test_recursion_warns_when_nonstationary(self):
        rets = _returns([0.01, -0.02, 0.015])
        with pytest.warns(RuntimeWarning, match="stationary"):
            volatility_recursion(GarchParams(1e-5, 0.6, 0.5), rets)


class TestRecursion:
    def test_hand_oracle(self):
        rets = _returns([1.0, 2.0])
        vols = volatility_recursion(
            GarchParams(0.5, 0.2, 0.3), rets, init_variance=2.0
        )
        np.testing.assert_allclose(vols.values, [2.0, 1.3], rtol=1e-15)
        assert vols.dates == rets.dates

    def test_default_init_is_sample_variance(self):
        rets = _returns([0.01, -0.02, 0.015, 0.005])
        vols = volatility_recursion(GarchParams(1e-5, 0.1, 0.8), rets)
        assert vols.values[0] == pytest.approx(rets.sample_variance(), rel=1e-15)

    @given(
        st.lists(st.floats(-0.2, 0.2), min_size=1, max_size=40),
        st.floats(1e-8, 1e-3),
        st.floats(0.01, 0.5),
        st.floats(0.01, 0.45),
        st.floats(1e-6, 1e-2),
    )
    @settings(max_examples=80)
    def test_matches_reference_loop(self, values, omega, alpha, beta, init):
        rets = _returns(values)
        vols = volatility_recursion(
            GarchParams(omega, alpha, beta), rets, init_variance=init
        )
        np.testing.assert_allclose(
            vols.values,
            _slow_recursion(omega, alpha, beta, np.asarray(values), init),
            rtol=1e-12,
        )

    def test_invalid_params_rejected(self):
        rets = _returns([0.01, 0.02])
        with pytest.raises(DomainError):
            volatility_recursion(GarchParams(0.0, 0.1, 0.8), rets)
        with pytest.raises(DomainError):
            volatility_recursion(
                GarchParams(1e-5, 0.1, 0.8), rets, init_variance=-1.0
            )

    def test_overflow_carries_index(self):
        rets = _returns([1e200, 1e200, 1e200])
        with pytest.raises(NumericalError) as err:
            volatility_recursion(
                GarchParams(1e-5, 0.1, 0.8), rets, init_variance=1e-4
            )
        assert err.value.index == 1

    def test_volseries_validates(self):
        with pytest.raises(NumericalError):
            VolSeries((date(2006, 1, 2),), np.array([-1.0]))


class TestLikelihood:
    def test_normal_hand_oracle(self):
        rets = _returns([1.0, 2.0])
        ll = log_likelihood(GarchParams(0.5, 0.2, 0.3), rets, init_variance=2.0)
        assert ll == pytest.approx(-4.104094327384603, rel=1e-14)

    def test_rational_hand_oracle(self):
        rets = _returns([1.0, 2.0])
        ll = log_likelihood(
            GarchParams(0.5, 0.2, 0.3, law=RATIONAL, a=1.57),
            rets,
            init_variance=2.0,
        )
        assert ll == pytest.approx(-4.735123736207125, rel=1e-14)

    def test_rational_matches_density_module(self):
        rng = np.random.default_rng(2)
        rets = _returns(rng.standard_normal(60) * 0.01)
        p = GarchParams(1e-5, 0.12, 0.82, law=RATIONAL, a=1.8)
        vols = volatility_recursion(p, rets)
        sig = np.sqrt(vols.values)
        expected = float(
            np.sum(rational.log_pdf(rets.values / sig, 1.8) - np.log(sig))
        )
        assert log_likelihood(p, rets) == pytest.approx(expected, rel=1e-12)

    def test_normal_matches_scipy(self):
        from scipy import stats

        rng = np.random.default_rng(3)
        rets = _returns(rng.standard_normal(60) * 0.01)
        p = GarchParams(1e-5, 0.12, 0.82)
        sig = np.sqrt(volatility_recursion(p, rets).values)
        expected = float(stats.norm.logpdf(rets.values, scale=sig).sum())
        assert log_likelihood(p, rets) == pytest.approx(expected, rel=1e-12)

    def test_numerical_error_index(self):
        rets = _returns([1e200, 0.01])
        with pytest.raises(NumericalError):
            log_likelihood(GarchParams(1e-5, 0.1, 0.8), rets, init_variance=1e-4)


class TestKernels:
    def test_kernel_contract(self):
        kernels = recursions_python
        y = np.array([0.01, -0.02, 0.015])
        sig2, bad = kernels.garch_recursion(1e-5, 0.1, 0.8, y, 1e-4)
        assert bad == -1 and sig2.shape == y.shape and (sig2 > 0).all()
        ll, bad = kernels.normal_loglik(1e-5, 0.1, 0.8, y, 1e-4)
        assert bad == -1 and math.isfinite(ll)
        ll, bad = kernels.rational_loglik(1e-5, 0.1, 0.8, 1.57, y, 1e-4)
        assert bad == -1 and math.isfinite(ll)

    @pytest.mark.parametrize(
        "p", [0, 1, 20, 39], ids=["first", "second", "middle", "last"]
    )
    def test_bad_index_reported(self, p):
        kernels = recursions_python
        y = np.full(40, 0.01)
        y[p] = 1e200
        # the huge return ruins the variance one step after it appears,
        # but ruins its own likelihood term immediately
        ruined = p + 1 if p + 1 < y.size else -1
        assert kernels.garch_recursion(1e-5, 0.1, 0.8, y, 1e-4)[1] == ruined
        _, bad = kernels.normal_loglik(1e-5, 0.1, 0.8, y, 1e-4)
        assert bad == p
        _, bad = kernels.rational_loglik(1e-5, 0.1, 0.8, 1.57, y, 1e-4)
        assert bad == p
        rets = _returns(y)
        points = [(NORMAL, [1e-5, 0.1, 0.8]), (RATIONAL, [1e-5, 0.1, 0.8, 1.57])]
        for law, theta in points:
            with pytest.raises(NumericalError) as err:
                log_likelihood(GarchParams.from_vector(theta, law=law), rets, 1e-4)
            assert err.value.index == p
            assert log_likelihoods([theta], law, rets, 1e-4)[0] == -math.inf


class TestBlockKernel:
    @given(
        st.sampled_from([NORMAL, RATIONAL]),
        st.lists(st.floats(-0.2, 0.2), min_size=2, max_size=60),
        st.lists(
            st.tuples(
                st.floats(1e-8, 1e-3),
                st.floats(0.01, 0.5),
                st.floats(0.01, 1.05),
                st.floats(0.3, 5.0),
            ),
            min_size=1,
            max_size=12,
        ),
        st.floats(1e-6, 1e-2),
        st.sampled_from([1, 1920, 1 << 19]),
    )
    @settings(max_examples=120, deadline=None)
    def test_rows_match_scalar_and_reference(
        self, law, values, points, init, block_elements
    ):
        rets = _returns(values)
        thetas = np.array(points)[:, : 4 if law == RATIONAL else 3]
        # small budgets split the block into passes of 1 or 5 points
        with mock.patch.object(recursions_python, "_BLOCK_ELEMENTS", block_elements):
            block = log_likelihoods(thetas, law, rets, init)
        for theta, got in zip(thetas, block):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                expected = log_likelihood(
                    GarchParams.from_vector(theta, law=law), rets, init
                )
            assert got == expected
            reference, scale = _hand_loglik(law, theta, values, init)
            assert got == pytest.approx(reference, rel=1e-12, abs=1e-12 * scale)

    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    @pytest.mark.parametrize(
        "n", [1, 7, 8, 9, 127, 128, 129, 136, 255, 256, 257, 1499, 3000]
    )
    @pytest.mark.parametrize("law", [NORMAL, RATIONAL])
    def test_rows_match_scalar_across_leaves(self, law, n):
        # ndarray.sum adds up to 128 terms in one leaf and splits longer
        # ranges at multiples of 8, so these lengths straddle a leaf, a split
        # and (at 3000) three levels of splits; 2000 points, a frozen MH
        # block, fill more than one pass
        rng = np.random.default_rng(n)
        rets = _returns(rng.standard_normal(n) * 0.01)
        count = 2000 if n > 1000 else 60
        thetas = np.column_stack(
            [
                rng.uniform(1e-7, 1e-4, count),
                rng.uniform(0.01, 0.4, count),
                rng.uniform(0.5, 1.02, count),
                rng.uniform(0.3, 5.0, count),
            ]
        )[:, : 4 if law == RATIONAL else 3]
        block = log_likelihoods(thetas, law, rets, 1e-4)
        for theta, got in zip(thetas, block):
            params = GarchParams.from_vector(theta, law=law)
            assert got == log_likelihood(params, rets, 1e-4)

    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    @pytest.mark.parametrize("law", [NORMAL, RATIONAL])
    def test_bad_points_score_minus_inf(self, law):
        # with returns of 1e154 the variance settles near 5e307 when
        # beta = 0.8 but passes the largest double when beta = 1.05, while
        # every term before that stays finite
        rets = _returns([1e154] * 40)
        good = [1e-5, 0.1, 0.8, 1.6]
        overflow = [1e-5, 0.1, 1.05, 1.6]
        zero_omega = [0.0, 0.1, 0.8, 1.6]
        thetas = np.array([good, overflow, zero_omega, good])
        thetas = thetas[:, : 4 if law == RATIONAL else 3]
        block = log_likelihoods(thetas, law, rets, 1e300)
        assert block[1] == block[2] == -math.inf
        with pytest.raises(NumericalError):
            log_likelihood(GarchParams.from_vector(thetas[1], law=law), rets, 1e300)
        with pytest.raises(DomainError):
            log_likelihood(GarchParams.from_vector(thetas[2], law=law), rets, 1e300)
        params = GarchParams.from_vector(thetas[0], law=law)
        assert block[0] == block[3] == log_likelihood(params, rets, 1e300)

    @pytest.mark.filterwarnings("ignore:alpha \\+ beta >= 1")
    @pytest.mark.parametrize("law", [NORMAL, RATIONAL])
    def test_one_row_matches_block_row_and_scalar(self, law):
        # one row runs the scalar kernel, more rows the block kernels, which
        # sum 300 steps in the leaves 0-71, 72-143, 144-215 and 216-299
        k = 4 if law == RATIONAL else 3
        good = np.array([1e-5, 0.1, 0.8, 1.6])[:k]
        y = np.random.default_rng(5).standard_normal(300) * 0.01

        def spiked(index, value):
            v = y.copy()
            v[index] = value
            return v

        def with_param(j, value):
            theta = good.copy()
            theta[j] = value
            return theta

        # (returns, initial variance, point, what log_likelihood raises:
        # nothing, DomainError, or a NumericalError at this index)
        cases = [(y, 1e-4, good, None)]
        cases += [
            (y, 1e-4, with_param(j, v), DomainError)
            for j in range(k)
            for v in (0.0, math.inf)
        ]
        # a return of 1e154 over variances near 1e300 keeps its own term
        # finite, but alpha = 10 sends the next variance past the largest
        # double; index 0 holds the validated initial variance, so index 1
        # is the first a variance can go bad at
        cases += [
            (spiked(p - 1, 1e154), 1e300, with_param(1, 10.0), p)
            for p in (1, 20, 72, 200, 299)
        ]
        # a return of 1e200 makes its own term non-finite; at the last index
        # no variance follows it
        cases += [(spiked(p, 1e200), 1e-4, good, p) for p in (150, 299)]
        for values, init, theta, error in cases:
            rets = _returns(values)
            one = log_likelihoods(theta[None], law, rets, init)
            many = log_likelihoods(np.array([good, theta, good]), law, rets, init)
            assert one.shape == (1,) and one[0] == many[1]
            params = GarchParams.from_vector(theta, law=law)
            if error is None:
                assert one[0] == log_likelihood(params, rets, init)
                continue
            assert one[0] == -math.inf
            if error is DomainError:
                with pytest.raises(DomainError):
                    log_likelihood(params, rets, init)
            else:
                with pytest.raises(NumericalError) as err:
                    log_likelihood(params, rets, init)
                assert err.value.index == error

    @pytest.mark.parametrize("law", [NORMAL, RATIONAL])
    def test_candidate_scores_match_scalar_target(self, law):
        rng = np.random.default_rng(4)
        rets = _returns(rng.standard_normal(80) * 0.01)
        prior = Prior(upper={"beta": 0.85})
        model = MODEL_NORMAL if law == NORMAL else MODEL_RATIONAL
        target = _LogTarget(model, rets, prior)
        base = np.log([1e-5, 0.1, 0.8, 1.6][: len(target.names)])
        rows = [base]
        for j, value in [
            (0, -800.0),  # exp underflows: omega is 0
            (2, 800.0),  # exp overflows: beta is inf
            (2, math.log(0.9)),  # outside the prior box
            (1, math.log(0.2)),
        ]:
            row = base.copy()
            row[j] = value
            rows.append(row)
        xs = np.array(rows)
        log_targets, lls = target.score(xs)
        assert list(log_targets[1:4]) == [-math.inf] * 3
        assert list(lls[1:4]) == [-math.inf] * 3
        for x, lt, ll in zip(xs, log_targets, lls):
            assert target(x) == lt
            # the plain reference: log posterior plus the Jacobian sum(x)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                params = GarchParams.from_vector(np.exp(x), law=law)
                lp = log_posterior(params, rets, prior)
                if lp == -math.inf:
                    assert lt == ll == -math.inf
                    continue
                assert lt == lp + x.sum()
                assert ll == log_likelihood(params, rets)
        assert math.isfinite(log_targets[0]) and math.isfinite(log_targets[4])


_GRADIENT_TRUTH = GarchParams(1.3e-5, 0.148, 0.836, law=RATIONAL, a=1.57)


def _gradient_target(model, n, prior=None):
    returns, _ = simulate_garch(_GRADIENT_TRUTH, n, np.random.default_rng(1001))
    return _LogTarget(model, returns, prior or Prior())


def _descent(target):
    """The start search's objective: minus the log target and its gradient,
    inf where the target rejects; every value it gives is kept in order."""
    seen = []

    def func(x):
        lt, grad = target.value_and_gradient(x)
        seen.append(lt)
        return (math.inf, None) if grad is None else (-lt, -grad)

    return func, seen


class TestGradientKernel:
    """The log-likelihood's gradient kernels against central differences of
    the MH target and against a forward float loop, at the moment-informed
    start point and at the mode."""

    @pytest.fixture(scope="class", params=[30, 249, 1499])
    def points(self, request):
        out = []
        for model in (MODEL_NORMAL, MODEL_RATIONAL):
            target = _gradient_target(model, request.param)
            (mode, _, _), _ = _start(target, 10.0)
            x0 = _start_point(target.returns, target.law)
            out += [(target, x0), (target, mode)]
        return out

    def test_matches_central_differences_of_the_target(self, points):
        # fourth-order differences with h = 1e-4 agree to about 1e-8 here
        h = 1e-4
        for target, x in points:
            lt, grad = target.value_and_gradient(x)
            assert lt == pytest.approx(target(x), rel=1e-13)
            steps = h * np.eye(x.shape[0])
            fd = [
                (-target(x + 2 * e) + 8 * target(x + e) - 8 * target(x - e) + target(x - 2 * e))
                / (12 * h)
                for e in steps
            ]
            np.testing.assert_allclose(grad, fd, rtol=1e-9, atol=1e-6)

    def test_matches_the_float_loop_reference(self, points):
        for target, x in points:
            theta = np.exp(x)
            ll, grad = log_likelihood_gradient(
                theta, target.law, target.returns, target.init_variance
            )
            ref_ll, ref_grad = loglik_gradient(
                target.law, theta.tolist(), target.returns.values.tolist(), target.init_variance
            )
            assert ll == pytest.approx(ref_ll, rel=1e-12)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-9)

    # every law: one without a kernel table entry fails here
    @pytest.mark.parametrize("law", list(PARAM_NAMES))
    def test_kernel_contract(self, law):
        y = np.array([0.01, -0.02, 0.015, 0.003])
        theta = [1e-5, 0.1, 0.8, 1.57][: len(PARAM_NAMES[law])]
        ll, grad = recursions_python.loglik_grad(law, theta, y, 1e-4)
        scalar, bad = getattr(recursions_python, f"{law}_loglik")(*theta, y, 1e-4)
        assert bad == -1 and ll == pytest.approx(scalar, rel=1e-14)
        block = recursions_python.loglik_block(law, np.array(theta)[:, None], y, 1e-4)
        assert block.tolist() == [scalar]
        assert grad.shape == (len(theta),) and np.isfinite(grad).all()
        assert log_likelihood_gradient([*theta[:-1], 0.0], law, _returns(y), 1e-4) == (
            -math.inf,
            None,
        )

    @pytest.mark.parametrize(
        "model, bad",
        [
            (MODEL_NORMAL, "prior"),
            (MODEL_RATIONAL, "prior"),
            (MODEL_NORMAL, "variance"),
            (MODEL_RATIONAL, "variance"),
            # the variances underflow, and y^2 / sigma^2 overflows
            (MODEL_NORMAL, "term"),
            # a^2 overflows
            (MODEL_RATIONAL, "term"),
        ],
    )
    def test_rejected_point_is_minus_inf_and_the_line_search_steps_short(
        self, model, bad
    ):
        target = _gradient_target(model, 249, Prior(upper={"alpha": 0.5}))
        (mode, _, _), _ = _start(target, 10.0)
        x_bad = mode.copy()
        if bad == "prior":
            x_bad[1] = math.log(0.6)
        elif bad == "variance":
            # omega = 8e307: the variances reach 1.5e308, then overflow
            x_bad[0] = 709.0
        elif model == MODEL_NORMAL:
            x_bad[:3] = -740.0
        else:
            x_bad[3] = 400.0
        func, seen = _descent(target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theta = np.exp(x_bad)
            y = target.returns.values
            _, bad_variance = recursions_python.garch_recursion(
                *theta[:3].tolist(), y, target.init_variance
            )
            assert (bad_variance >= 0) == (bad == "variance")
            assert func(x_bad) == (math.inf, None)
            # from just short of the mode on the far side, the trial step
            # lands on the rejected point
            away = (x_bad - mode) / np.linalg.norm(x_bad - mode)
            x = mode - 0.01 * away
            f, g = func(x)
            seen.clear()
            step, trials, edge = _wolfe_step(func, x, f, g, x_bad - x, 1.0)
        assert seen[0] == -math.inf
        assert step is not None and not edge and trials > 1
        assert step[1] < f and np.isfinite(step[2]).all()
