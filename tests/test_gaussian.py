import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

import quad_oracles
import walkcurrent as wc
from sampler_oracles import (Mesh, MeshTooCoarseError, StochasticIntegralSampler,
                             default_mesh)
from walkcurrent.normal import bvn_cdf, mvn_cdf_3

SQRT_2PI = math.sqrt(2.0 * math.pi)


class TestNormalMeanExcess:
    def test_at_zero(self):
        assert wc.mean_excess(1.0, 0.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-15)

    def test_far_tail(self):
        assert wc.mean_excess(1.0, 10.0) < 1e-20

    def test_degenerate_variance(self):
        assert wc.mean_excess(0.0, 0.0) == 0.0
        assert wc.mean_excess(0.0, 2.0) == 0.0

    def test_monte_carlo_oracle(self, rng):
        # the function must equal E(N - x)^+ computed by plain averaging
        sigma2, x = 4.0, 1.0
        draws = rng.normal(0.0, math.sqrt(sigma2), size=1_000_000)
        excess = np.maximum(draws - x, 0.0)
        se = excess.std() / math.sqrt(draws.size)
        assert abs(wc.mean_excess(sigma2, x) - excess.mean()) < 4 * se

    def test_convex_in_x(self):
        xs = np.arange(0.0, 5.0, 1e-3)
        vals = wc.mean_excess(1.0, xs)
        second = np.diff(vals, 2)
        assert second.min() > -1e-6

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            wc.mean_excess(-1.0, 0.0)
        with pytest.raises(ValueError):
            wc.mean_excess(1.0, -0.1)


    def test_broadcast_matches_scalar_path(self):
        # the scalar-variance formula, one variance at a time, must agree
        # bit for bit with the broadcast call, zero variances included
        from walkcurrent.normal import ndtr

        var = np.array([0.0, 1e-300, 0.37, 1.0, 4.0, 0.0, 12.5])[:, None]
        x = np.array([0.0, 1e-8, 0.3, 1.0, 2.5, 9.0, 40.0])
        got = wc.mean_excess(var, x)
        assert got.shape == (var.size, x.size)
        for row, v in zip(got, var[:, 0]):
            if v == 0.0:
                expect = np.zeros_like(x)
            else:
                sd = math.sqrt(v)
                z = x / sd
                expect = sd * np.exp(-0.5 * z * z) / SQRT_2PI - x * ndtr(-z)
            assert np.array_equal(row, expect)
            assert np.array_equal(row, wc.mean_excess(float(v), x))
        assert np.array_equal(wc.mean_excess(var[:, 0], 0.7),
                              [wc.mean_excess(float(v), 0.7) for v in var[:, 0]])
        with pytest.raises(ValueError):
            wc.mean_excess(np.array([1.0, -1e-12]), 0.0)
        with pytest.raises(ValueError):
            wc.mean_excess(np.array([1.0, 2.0]), np.array([0.1, -0.1]))

class TestCovarianceComponents:
    def test_dynamic_vanishes_at_s_zero(self):
        for q, t, r in [(-1.0, 2.0, 0.5), (0.0, 1.0, 0.0), (2.0, 0.3, -1.0)]:
            assert wc.dynamic_cov(0.0, q, t, r, 1.3) == 0.0

    def test_dynamic_diagonal(self):
        t, k2 = 1.7, 0.8
        assert wc.dynamic_cov(t, 0.2, t, 0.2, k2) == pytest.approx(
            math.sqrt(k2 * t / math.pi), rel=1e-14)

    def test_initial_diagonal(self):
        t, k2 = 0.9, 2.0
        expect = (2.0 - math.sqrt(2.0)) * math.sqrt(k2 * t / (2.0 * math.pi))
        assert wc.initial_cov(t, -0.4, t, -0.4, k2) == pytest.approx(expect, rel=1e-14)

    def test_limit_cov_diagonal_stationary(self):
        params = wc.LimitCovariance(rho0=1.5, v0=1.5, kappa2=1.2)
        t = 0.7
        val = wc.limit_cov(params, (t, 0.3), (t, 0.3))
        assert val == pytest.approx(1.5 * math.sqrt(2.0 * 1.2 * t / math.pi), rel=1e-14)

    def test_limit_cov_s_zero_initial_only(self):
        params = wc.LimitCovariance(rho0=2.0, v0=0.7, kappa2=1.0)
        val = wc.limit_cov(params, (0.0, -0.5), (1.0, 0.5))
        assert val == pytest.approx(0.7 * wc.initial_cov(0.0, -0.5, 1.0, 0.5, 1.0), rel=1e-14)

    def test_limit_cov_symmetric(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=0.5, kappa2=2.0)
        for _ in range(1000):
            s, t = rng.uniform(0.0, 3.0, size=2)
            q, r = rng.uniform(-2.0, 2.0, size=2)
            assert abs(wc.limit_cov(params, (s, q), (t, r))
                       - wc.limit_cov(params, (t, r), (s, q))) <= 1e-12

    def test_matrix_matches_pairwise(self, rng):
        params = wc.LimitCovariance(rho0=0.8, v0=1.1, kappa2=0.6)
        pts = [(float(t), float(r)) for t, r in
               zip(rng.uniform(0.05, 2, 5), rng.uniform(-1, 1, 5))]
        mat = wc.limit_cov_matrix(params, pts)
        for i, a in enumerate(pts):
            for j, b in enumerate(pts):
                assert mat[i, j] == pytest.approx(wc.limit_cov(params, a, b), abs=1e-14)


class TestFbmCov:
    def test_equal_times(self):
        assert wc.fbm_cov(2.0, 2.0, 1.5, 0.9) == pytest.approx(
            1.5 * math.sqrt(2.0 * 0.9 * 2.0 / math.pi), rel=1e-14)

    def test_zero_time(self):
        assert wc.fbm_cov(0.0, 3.0, 1.0, 1.0) == 0.0

    def test_matches_limit_cov_stationary(self, rng):
        rho, k2 = 1.3, 0.7
        params = wc.LimitCovariance(rho0=rho, v0=rho, kappa2=k2)
        for _ in range(100):
            s, t = rng.uniform(0.0, 4.0, size=2)
            assert abs(wc.fbm_cov(s, t, rho, k2)
                       - wc.limit_cov(params, (s, 1.1), (t, 1.1))) < 1e-10


class TestIntegralForms:
    def test_matches_closed_forms(self, rng):
        worst = 0.0
        for _ in range(10):
            s, t = rng.uniform(0.05, 3.0, size=2)
            q, r = rng.uniform(-2.0, 2.0, size=2)
            k2 = rng.uniform(0.3, 3.0)
            worst = max(
                worst,
                abs(wc.dynamic_cov_quadrature(s, q, t, r, k2)
                    - wc.dynamic_cov(s, q, t, r, k2)),
                abs(wc.initial_cov_quadrature(s, q, t, r, k2)
                    - wc.initial_cov(s, q, t, r, k2)))
        assert worst <= 1e-8

    def test_dynamic_zero_at_s_zero(self):
        assert wc.dynamic_cov_quadrature(0.0, 0.3, 1.0, -0.2, 1.0) == 0.0

    def test_zero_where_a_time_is_zero(self):
        # the closed forms give 0 too: Y(0, .) = 0
        s = np.array([0.0, 1.0, 0.0])
        t = np.array([1.0, 0.0, 0.0])
        for form in (wc.dynamic_cov_quadrature, wc.initial_cov_quadrature,
                     wc.dynamic_cov, wc.initial_cov):
            assert np.array_equal(form(s, 0.4, t, -0.1, 1.3), np.zeros(3))

    def test_short_time_beside_long(self):
        # deviations 140 to 1,700 times apart: the windows follow the short one
        for s, q, t, r in [(1e-6, 0.0, 3.0, 0.0), (3.0, 0.5, 1e-6, 0.0),
                           (1e-6, -2.0, 3.0, 2.0), (1e-4, 0.3, 2.0, 0.3)]:
            assert abs(wc.dynamic_cov_quadrature(s, q, t, r, 1.0)
                       - wc.dynamic_cov(s, q, t, r, 1.0)) <= 1e-12
            assert abs(wc.initial_cov_quadrature(s, q, t, r, 1.0)
                       - wc.initial_cov(s, q, t, r, 1.0)) <= 1e-12

    def test_broadcast_matches_scalar(self, rng):
        s, t = rng.uniform(0.05, 3.0, size=(2, 4, 1))
        q, r = rng.uniform(-2.0, 2.0, size=(2, 1, 5))
        for form in (wc.dynamic_cov_quadrature, wc.initial_cov_quadrature,
                     wc.dynamic_cov, wc.initial_cov):
            got = form(s, q, t, r, 0.7)
            assert got.shape == (4, 5)
            for i in range(4):
                for j in range(5):
                    one = form(float(s[i, 0]), float(q[0, j]), float(t[i, 0]),
                               float(r[0, j]), 0.7)
                    assert isinstance(one, float)
                    assert one == got[i, j]

    def test_initial_diagonal_identity(self):
        t, k2 = 1.2, 0.9
        lhs = wc.initial_cov_quadrature(t, 0.0, t, 0.0, k2)
        rhs = (2.0 * wc.mean_excess(k2 * t, 0.0)
               - wc.mean_excess(2.0 * k2 * t, 0.0))
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestBivariateNormal:
    def test_against_scipy(self, rng):
        for _ in range(25):
            h, k = rng.normal(size=2) * 1.5
            rho = rng.uniform(-0.98, 0.98)
            ref = spstats.multivariate_normal(mean=[0, 0],
                                              cov=[[1, rho], [rho, 1]]).cdf([h, k])
            assert bvn_cdf(h, k, rho) == pytest.approx(ref, abs=5e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(-0.98, 0.98))
    def test_against_scipy_property(self, h, k, rho):
        ref = spstats.multivariate_normal(mean=[0, 0],
                                          cov=[[1, rho], [rho, 1]]).cdf([h, k])
        assert bvn_cdf(h, k, rho) == pytest.approx(ref, abs=5e-9)

    def test_edge_cases(self):
        assert bvn_cdf(0.0, 0.0, 0.5) == pytest.approx(0.25 + math.asin(0.5) / (2 * math.pi))
        assert bvn_cdf(1.0, 2.0, 1.0) == pytest.approx(spstats.norm.cdf(1.0))
        assert bvn_cdf(1.0, -1.0, -1.0) == pytest.approx(0.0, abs=1e-15)
        # h * k underflows to -0.0 here; the branch must follow the signs
        for cdf in (bvn_cdf, quad_oracles.bvn_cdf):
            assert cdf(1.8e-127, -8.1e-227, 0.0) == pytest.approx(0.25, abs=1e-15)
            assert cdf(-8.1e-227, 1.8e-127, 0.3) == pytest.approx(
                0.25 + math.asin(0.3) / (2 * math.pi), abs=1e-15)

    def test_subnormal_argument(self):
        # rho * h rounds to 0 at h = 5e-324; the answer is the h = k = 0
        # value 1/4 + asin(1/2) / (2 pi) = 1/3
        for cdf in (bvn_cdf, quad_oracles.bvn_cdf):
            for h, k in ((0.0, 5e-324), (5e-324, 0.0)):
                assert cdf(h, k, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(-8.0, 8.0)),
        st.one_of(st.just(0.0), st.floats(-8.0, 8.0)),
        st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-0.999, 0.999))),
        min_size=1, max_size=20))
    def test_array_matches_scalar(self, points):
        h, k, rho = (np.array(col) for col in zip(*points))
        got = bvn_cdf(h, k, rho)
        ref = [quad_oracles.bvn_cdf(*p) for p in points]
        assert all(isinstance(v, float) for v in ref)
        assert isinstance(bvn_cdf(*points[0]), float)
        # only np.arcsin (h = k = 0) may differ from math.asin, by an ulp
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-15)

    def test_trivariate_against_quad_oracle(self, rng):
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            cov = a @ a.T + 0.3 * np.eye(3)
            u = rng.normal(size=3) * np.sqrt(np.diag(cov))
            assert mvn_cdf_3(u, cov) == pytest.approx(quad_oracles.mvn_cdf_3(u, cov),
                                                      abs=1e-12)

    def test_trivariate_batch_and_close_times(self):
        # B at times (1, 1.001, 2): the conditional law of the second
        # coordinate is narrow, which the panel doubling has to resolve
        times = [1.0, 1.001, 2.0]
        cov = np.minimum.outer(times, times)
        upper = np.array([[0.3, 0.2, -0.4], [-1.0, 0.5, 1.0], [2.0, 2.0, 0.0]])
        batch = mvn_cdf_3(upper, cov)
        assert batch.shape == (3,)
        for u, val in zip(upper, batch):
            assert mvn_cdf_3(u, cov) == val
            assert val == pytest.approx(quad_oracles.mvn_cdf_3(u, cov), abs=1e-12)

    def test_trivariate_panel_cap_raises(self, monkeypatch):
        from walkcurrent import normal
        monkeypatch.setattr(normal, "MVN_MAX_PANELS", normal.MVN_PANELS)
        cov = np.minimum.outer([1.0, 1.001, 2.0], [1.0, 1.001, 2.0])
        with pytest.raises(wc.QuadratureConvergenceError):
            mvn_cdf_3([0.3, 0.2, -0.4], cov)

    def test_trivariate_against_scipy(self, rng):
        cov = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.6], [0.3, 0.6, 1.0]])
        for _ in range(5):
            u = rng.normal(size=3)
            ref = spstats.multivariate_normal(mean=np.zeros(3), cov=cov).cdf(u)
            assert mvn_cdf_3(u, cov) == pytest.approx(ref, abs=2e-5)


class TestGridGaussian:
    """The limit field on a point grid: the Gaussian vector with covariance
    limit_cov_matrix, drawn by numpy's Cholesky multivariate normal."""

    def test_single_point_value(self):
        params = wc.LimitCovariance(rho0=1.2, v0=0.8, kappa2=1.5)
        t = 0.6
        cov = wc.limit_cov_matrix(params, [(t, 0.1)])
        expect = (1.2 * math.sqrt(1.5 * t / math.pi)
                  + 0.8 * (2 - math.sqrt(2)) * math.sqrt(1.5 * t / (2 * math.pi)))
        assert cov[0, 0] == pytest.approx(expect, rel=1e-14)

    def test_fbm_matrix_on_time_line(self):
        rho, k2 = 1.0, 1.0
        params = wc.LimitCovariance(rho0=rho, v0=rho, kappa2=k2)
        times = [0.25, 0.5, 1.0, 2.0]
        cov = wc.limit_cov_matrix(params, [(t, 0.0) for t in times])
        ref = np.array([[wc.fbm_cov(s, t, rho, k2) for t in times] for s in times])
        assert np.abs(cov - ref).max() < 1e-12

    def test_cholesky_on_random_grids(self, rng):
        # positive definite as computed, with no jitter, on 200 random points
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        pts = {(float(t), float(r)) for t, r in
               zip(rng.uniform(0.01, 3.0, 200), rng.uniform(-2.0, 2.0, 200))}
        chol = np.linalg.cholesky(wc.limit_cov_matrix(params, sorted(pts)))
        assert np.all(np.diag(chol) > 0.0)

    def test_sampler_covariance(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        pts = [(0.5, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, -0.5)]
        c = wc.limit_cov_matrix(params, pts)
        draws = rng.multivariate_normal(np.zeros(len(pts)), c, size=100_000,
                                        method="cholesky")
        emp = np.cov(draws.T)
        se = np.sqrt((np.outer(np.diag(c), np.diag(c)) + c ** 2) / draws.shape[0])
        assert np.max(np.abs(emp - c) / se) < 4.0


class TestStochasticIntegralSampler:
    def test_mesh_cov_close_to_limit(self):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        pts = [(0.5, 0.0), (1.0, 0.0), (1.0, 0.5)]
        s = StochasticIntegralSampler(params, pts, default_mesh(pts, 1.0))
        c = wc.limit_cov_matrix(params, pts)
        assert np.max(np.abs(s.mesh_cov - c) / np.abs(c)) < 0.01

    def test_dynamic_only_variance(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=0.0, kappa2=1.0)
        pts = [(1.0, 0.0)]
        s = StochasticIntegralSampler(params, pts, default_mesh(pts, 1.0))
        draws = s.sample(rng, size=10_000)
        assert abs(draws.var() / math.sqrt(1.0 / math.pi) - 1.0) < 0.05

    def test_initial_only_variance(self, rng):
        params = wc.LimitCovariance(rho0=0.0, v0=1.0, kappa2=1.0)
        pts = [(1.0, 0.0)]
        s = StochasticIntegralSampler(params, pts, default_mesh(pts, 1.0))
        draws = s.sample(rng, size=10_000)
        assert abs(draws.var() / wc.initial_cov(1.0, 0.0, 1.0, 0.0, 1.0) - 1.0) < 0.05

    def test_parts_independent(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        pts = [(1.0, 0.0)]
        s = StochasticIntegralSampler(params, pts, default_mesh(pts, 1.0))
        w_part, b_part = s.sample(rng, size=20_000, split_parts=True)
        corr = np.corrcoef(w_part[:, 0], b_part[:, 0])[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(20_000)

    def test_coarse_mesh_rejected(self):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        with pytest.raises(MeshTooCoarseError):
            StochasticIntegralSampler(params, [(0.5, 0.0)],
                                      Mesh(dt=0.05, dz=0.05, z_max=5.0))


class TestCovarianceTable:
    def test_rows_consistent(self):
        params = wc.LimitCovariance(rho0=2.0, v0=0.5, kappa2=1.0)
        pairs = [((0.5, 0.0), (1.0, 0.3))]
        rows = wc.covariance_table(params, pairs)
        row = rows[0]
        assert row["cov"] == pytest.approx(
            wc.limit_cov(params, (0.5, 0.0), (1.0, 0.3)), rel=1e-14)
        assert row["cov"] == pytest.approx(
            2.0 * row["dynamic_cov"] + 0.5 * row["initial_cov"], rel=1e-14)
