import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

import quad_oracles
import walkcurrent as wc
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
        from scipy.special import ndtr

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

    def test_edge_cases(self):
        assert bvn_cdf(0.0, 0.0, 0.5) == pytest.approx(0.25 + math.asin(0.5) / (2 * math.pi))
        assert bvn_cdf(1.0, 2.0, 1.0) == pytest.approx(spstats.norm.cdf(1.0))
        assert bvn_cdf(1.0, -1.0, -1.0) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.one_of(st.just(0.0), st.floats(-8.0, 8.0)),
        st.one_of(st.just(0.0), st.floats(-8.0, 8.0)),
        st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-0.999, 0.999))),
        min_size=1, max_size=20))
    def test_array_matches_scalar(self, points):
        h, k, rho = (np.array(col) for col in zip(*points))
        got = bvn_cdf(h, k, rho)
        ref = [bvn_cdf(*p) for p in points]
        assert all(isinstance(v, float) for v in ref)
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
            assert mvn_cdf_3(u, cov) == pytest.approx(val, rel=1e-13)
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
    def test_single_point_value(self):
        params = wc.LimitCovariance(rho0=1.2, v0=0.8, kappa2=1.5)
        t = 0.6
        gg = wc.build_grid_gaussian(params, [(t, 0.1)])
        expect = (1.2 * math.sqrt(1.5 * t / math.pi)
                  + 0.8 * (2 - math.sqrt(2)) * math.sqrt(1.5 * t / (2 * math.pi)))
        assert gg.cov[0, 0] == pytest.approx(expect, rel=1e-14)

    def test_fbm_matrix_on_time_line(self):
        rho, k2 = 1.0, 1.0
        params = wc.LimitCovariance(rho0=rho, v0=rho, kappa2=k2)
        times = [0.25, 0.5, 1.0, 2.0]
        gg = wc.build_grid_gaussian(params, [(t, 0.0) for t in times])
        ref = np.array([[wc.fbm_cov(s, t, rho, k2) for t in times] for s in times])
        assert np.abs(gg.cov - ref).max() < 1e-12

    def test_jitter_small_on_random_grids(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        pts = {(float(t), float(r)) for t, r in
               zip(rng.uniform(0.01, 3.0, 200), rng.uniform(-2.0, 2.0, 200))}
        gg = wc.build_grid_gaussian(params, sorted(pts))
        assert gg.jitter_used <= 1e-10

    def test_duplicate_points_rejected(self):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        with pytest.raises(ValueError):
            wc.build_grid_gaussian(params, [(1.0, 0.0), (1.0, 0.0)])

    def test_zero_time_samples_exactly_zero(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        gg = wc.build_grid_gaussian(params, [(0.0, 0.5), (1.0, 0.0)])
        draws = wc.sample_limit_process(gg, rng, size=1000)
        assert np.all(draws[:, 0] == 0.0)
        assert draws[:, 1].std() > 0.5

    def test_sampler_covariance(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        pts = [(0.5, 0.0), (1.0, 0.0), (1.0, 0.5), (0.5, -0.5)]
        gg = wc.build_grid_gaussian(params, pts)
        draws = wc.sample_limit_process(gg, rng, size=100_000)
        emp = np.cov(draws.T)
        c = gg.cov
        se = np.sqrt((np.outer(np.diag(c), np.diag(c)) + c ** 2) / draws.shape[0])
        assert np.max(np.abs(emp - c) / se) < 4.0

    def test_sampler_reproducible(self):
        params = wc.LimitCovariance(rho0=1.0, v0=0.5, kappa2=1.0)
        gg = wc.build_grid_gaussian(params, [(1.0, 0.0), (2.0, 0.0)])
        a = wc.sample_limit_process(gg, np.random.default_rng(5), size=10)
        b = wc.sample_limit_process(gg, np.random.default_rng(5), size=10)
        assert np.array_equal(a, b)


class TestStochasticIntegralSampler:
    def test_mesh_cov_close_to_limit(self):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        pts = [(0.5, 0.0), (1.0, 0.0), (1.0, 0.5)]
        s = wc.StochasticIntegralSampler(params, pts, wc.default_mesh(pts, 1.0))
        c = wc.limit_cov_matrix(params, pts)
        assert np.max(np.abs(s.mesh_cov - c) / np.abs(c)) < 0.01

    def test_dynamic_only_variance(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=0.0, kappa2=1.0)
        pts = [(1.0, 0.0)]
        s = wc.StochasticIntegralSampler(params, pts, wc.default_mesh(pts, 1.0))
        draws = s.sample(rng, size=10_000)
        assert abs(draws.var() / math.sqrt(1.0 / math.pi) - 1.0) < 0.05

    def test_initial_only_variance(self, rng):
        params = wc.LimitCovariance(rho0=0.0, v0=1.0, kappa2=1.0)
        pts = [(1.0, 0.0)]
        s = wc.StochasticIntegralSampler(params, pts, wc.default_mesh(pts, 1.0))
        draws = s.sample(rng, size=10_000)
        assert abs(draws.var() / wc.initial_cov(1.0, 0.0, 1.0, 0.0, 1.0) - 1.0) < 0.05

    def test_parts_independent(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        pts = [(1.0, 0.0)]
        s = wc.StochasticIntegralSampler(params, pts, wc.default_mesh(pts, 1.0))
        w_part, b_part = s.sample(rng, size=20_000, split_parts=True)
        corr = np.corrcoef(w_part[:, 0], b_part[:, 0])[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(20_000)

    def test_coarse_mesh_rejected(self):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        with pytest.raises(wc.MeshTooCoarseError):
            wc.StochasticIntegralSampler(params, [(0.5, 0.0)],
                                         wc.Mesh(dt=0.05, dz=0.05, z_max=5.0))


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
