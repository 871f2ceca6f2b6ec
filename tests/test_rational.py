import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

from regarch import rational
from regarch.exceptions import DomainError

# independently integrated CDF values (adaptive quadrature straight over
# the density on (-inf, x], no change of variables)
CDF_ORACLE = {
    (0.3, 0.8): 0.5796140967122251,
    (1.0, 0.8): 0.8588313036143596,
    (2.5, 0.8): 0.9938104052955326,
    (10.0, 0.8): 0.9999144216367228,
    (0.3, 1.57): 0.6476558868028676,
    (1.0, 1.57): 0.8960500854766124,
    (2.5, 1.57): 0.9898936694393766,
    (10.0, 1.57): 0.9998338880405382,
    (0.3, 3.0): 0.7419221753816351,
    (1.0, 3.0): 0.9295923528455802,
    (2.5, 3.0): 0.9874548285352105,
    (10.0, 3.0): 0.9996944373776803,
}


def _quad_cdf(x, a):
    """CDF at x >= 0 by adaptive quadrature of the density, piece by piece."""
    edges = [0.0] + [e for e in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0) if e < x] + [x]
    mass = sum(
        quad(rational.pdf, lo, hi, args=(a,), epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    return 0.5 + mass


class TestDensity:
    def test_value_at_origin(self):
        assert rational.pdf(0.0, 1.57) == pytest.approx(
            0.4997465213085514, rel=1e-14
        )

    def test_analytic_point(self):
        # at x=1 the quartic collapses to a^2, so f(1) = 1/(pi a)
        assert rational.pdf(1.0, 2.0) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)

    def test_log_pdf_matches_log_of_pdf(self):
        x = np.linspace(-8.0, 8.0, 101)
        np.testing.assert_allclose(
            rational.log_pdf(x, 1.3), np.log(rational.pdf(x, 1.3)), rtol=1e-13
        )
        assert rational.log_pdf(0.0, 1.57) == pytest.approx(
            -0.6936542664891834, rel=1e-14
        )

    @pytest.mark.parametrize("a", [0.5, 1.0, math.sqrt(2.0), 1.57, 3.0, 10.0])
    def test_normalization(self, a):
        total, err = quad(rational.pdf, -np.inf, np.inf, args=(a,), limit=400)
        assert total == pytest.approx(1.0, abs=5e-9)

    @pytest.mark.parametrize("a", [0.7, 1.0, 1.57, 2.0, 4.0])
    def test_unit_variance(self, a):
        # Gauss-Legendre panels under x = tan(t)
        assert rational.variance_check(a) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("a", [0.05, 0.1, 0.3, 0.7, 1.57, 3.0, 10.0, 50.0])
    def test_unit_variance_to_rounding(self, a):
        # the peaks next to x = 1 narrow as a/4 in t = arctan x; a single
        # 400-node rule missed 1 by 5.8e-6 at a = 0.05
        assert abs(rational.variance_check(a) - 1.0) <= 1e-12

    @given(st.floats(-50, 50), st.floats(0.05, 50))
    def test_symmetry_and_positivity(self, x, a):
        left = rational.pdf(-x, a)
        right = rational.pdf(x, a)
        assert left == pytest.approx(right, rel=1e-12)
        assert right > 0

    def test_bad_shape_rejected(self):
        for a in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                rational.pdf(1.0, a)

    def test_unimodal_threshold(self):
        assert rational.UNIMODAL_MIN_A == pytest.approx(math.sqrt(2.0))
        # below the threshold the density dips at the origin; the twin
        # modes sit at x^2 = 1 - a^2/2
        a = 1.0
        mode = math.sqrt(1.0 - a * a / 2.0)
        assert rational.pdf(0.0, a) < rational.pdf(mode, a)
        # above it the origin is the mode
        assert rational.pdf(0.0, 2.0) > rational.pdf(0.5, 2.0)


class TestCdf:
    @pytest.mark.parametrize(("x", "a"), sorted(CDF_ORACLE))
    def test_against_independent_quadrature(self, x, a):
        assert rational.cdf(x, a) == pytest.approx(CDF_ORACLE[(x, a)], abs=2e-8)
        # symmetry pins the negative side to the same oracle
        assert rational.cdf(-x, a) == pytest.approx(1.0 - CDF_ORACLE[(x, a)], abs=2e-8)

    def test_closed_form_family(self):
        # at a=2 the quartic is (1+x^2)^2 and the CDF is elementary:
        # F(x) = 1/2 + (arctan x + x/(1+x^2)) / pi
        x = np.linspace(-40.0, 40.0, 401)
        expected = 0.5 + (np.arctan(x) + x / (1.0 + x * x)) / np.pi
        np.testing.assert_allclose(rational.cdf(x, 2.0), expected, atol=1e-9)

    def test_center_and_limits(self):
        assert rational.cdf(0.0, 1.57) == 0.5
        assert rational.cdf(-1e12, 1.57) == pytest.approx(0.0, abs=1e-30)
        assert rational.cdf(1e12, 1.57) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("a", [0.3, 0.8, math.sqrt(2.0), 1.999, 2.0, 2.001, 3.0, 10.0])
    def test_closed_form_matches_quadrature(self, a):
        # a near 2 crosses the switch of the closed form from artanh (s > 0)
        # through 1/u (s = 0) to arctan (s < 0)
        x = np.concatenate([np.geomspace(1e-6, 49.0, 40), [0.5, 1.0, 2.0]])
        ref = np.array([_quad_cdf(v, a) for v in x])
        np.testing.assert_allclose(rational.cdf(x, a), ref, rtol=0, atol=1e-13)
        np.testing.assert_allclose(rational.cdf(-x, a), 1.0 - ref, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("a", [0.8, 1.57, 3.0])
    def test_tail_joins_at_fifty(self, a):
        # closed form up to 50, then (1 - F(50)) (50 / x)^3, with the mass
        # beyond 50 equal to the integral of the density there
        tail = 1.0 - rational.cdf(50.0, a)
        ref, _ = quad(rational.pdf, 50.0, np.inf, args=(a,), epsabs=1e-16, epsrel=1e-12)
        assert tail == pytest.approx(ref, rel=1e-9)
        above = np.nextafter(50.0, np.inf)
        assert abs(rational.cdf(above, a) - rational.cdf(50.0, a)) <= 1e-16
        assert rational.cdf(-above, a) <= rational.cdf(-50.0, a)
        for t in (60.0, 200.0, 1e4):
            assert 1.0 - rational.cdf(t, a) == pytest.approx(
                tail * (50.0 / t) ** 3, rel=1e-9
            )
            assert rational.cdf(-t, a) == pytest.approx(tail * (50.0 / t) ** 3, rel=1e-9)

    def test_tail_matches_asymptote(self):
        # P(X > t) -> a / (3 pi t^3) for large t
        a = 1.57
        for t in (80.0, 200.0, 1000.0):
            tail = 1.0 - rational.cdf(t, a)
            assert tail == pytest.approx(a / (3.0 * math.pi * t**3), rel=1e-2)

    @given(
        st.floats(-60, 60),
        st.floats(-60, 60),
        st.sampled_from([0.8, 1.57, 2.5]),
    )
    @settings(max_examples=60)
    def test_monotone(self, x1, x2, a):
        lo, hi = min(x1, x2), max(x1, x2)
        assert rational.cdf(lo, a) <= rational.cdf(hi, a) + 1e-15

    def test_knot_grid_shape(self):
        # the CDF on the grid the tabulated form used: 801 knots uniform in
        # arctan(x) on [0, 50], mirrored to the negative side
        x_pos = np.tan(np.linspace(0.0, math.atan(50.0), 801))
        x = np.concatenate([-x_pos[:0:-1], x_pos])
        cum = rational.cdf(x, 1.57)
        tail_mass, _ = quad(rational.pdf, 50.0, np.inf, args=(1.57,))
        assert np.all(np.diff(x) > 0)
        assert np.all(np.diff(cum) > 0)
        assert cum[0] == pytest.approx(tail_mass, rel=1e-9)
        assert cum[-1] == pytest.approx(1.0 - tail_mass, rel=1e-9)
        assert 0.0 < tail_mass < 1e-4


class TestInverse:
    def test_round_trip_x(self):
        x = np.concatenate([np.linspace(-30, 30, 301), [-45.0, 45.0, -200.0, 200.0]])
        back = rational.quantile(rational.cdf(x, 1.57), 1.57)
        np.testing.assert_allclose(back, x, rtol=1e-4, atol=1e-9)

    def test_round_trip_p(self):
        p = np.linspace(1e-6, 1.0 - 1e-6, 501)
        np.testing.assert_allclose(
            rational.cdf(rational.quantile(p, 0.9), 0.9), p, atol=2e-9
        )

    @pytest.mark.parametrize("a", [0.3, 0.9, 1.57, 1.999, 2.0, 2.001, 3.0, 10.0])
    def test_round_trip_p_to_rounding(self, a):
        # the Newton inverse matches F to 1e-12 in p over the whole line,
        # in the x^-3 tail beyond 50 too
        rng = np.random.default_rng(17)
        p = np.concatenate(
            [rng.random(2000), np.geomspace(1e-12, 0.5, 200), 1.0 - np.geomspace(1e-12, 0.5, 200)]
        )
        x = rational.quantile(p, a)
        np.testing.assert_allclose(rational.cdf(x, a), p, rtol=0, atol=1e-12)
        assert np.all(np.diff(x[np.argsort(p)]) >= 0)

    def test_scalar_and_array_shapes(self):
        assert isinstance(rational.quantile(0.7, 1.57), float)
        assert rational.quantile(np.full((2, 3), 0.7), 1.57).shape == (2, 3)

    def test_median_is_zero(self):
        assert rational.quantile(0.5, 2.2) == 0.0

    def test_domain(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                rational.quantile(p, 1.57)


class TestSampling:
    def test_matches_cdf_distribution(self):
        rng = np.random.default_rng(7)
        draws = rational.sample(20000, 1.57, rng)
        result = stats.kstest(draws, lambda x: rational.cdf(x, 1.57))
        assert result.pvalue > 1e-3

    def test_seeded_moments(self):
        rng = np.random.default_rng(11)
        draws = rational.sample(200000, 1.57, rng)
        assert abs(draws.mean()) < 0.02
        assert draws.var() == pytest.approx(1.0, abs=0.1)

    def test_count_contract(self):
        rng = np.random.default_rng(0)
        assert rational.sample(0, 1.0, rng).shape == (0,)
        with pytest.raises(DomainError):
            rational.sample(-1, 1.0, rng)

    def test_deterministic_given_seed(self):
        a = rational.sample(5, 1.57, np.random.default_rng(3))
        b = rational.sample(5, 1.57, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_heavy_tails_present(self):
        # x^-4 tails put ~a/(3 pi 8) of mass beyond 2; a normal would not
        rng = np.random.default_rng(5)
        draws = rational.sample(50000, 1.57, rng)
        frac = (np.abs(draws) > 3.0).mean()
        assert frac > 0.005  # standard normal: 0.0027
