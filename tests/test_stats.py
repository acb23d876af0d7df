import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkcurrent as wc
from walkcurrent.stats import _leave_one_out


def fill(data, nbatches=1):
    """Accumulate rows of `data` into equal batches."""
    parts = np.array_split(np.asarray(data, float), nbatches)
    accs = []
    for part in parts:
        acc = wc.EnsembleAccumulator.empty(np.asarray(data).shape[1])
        for x in part:
            acc.add(x)
        accs.append(acc)
    return accs


def limit_draws(rng, params, points, size):
    """`size` draws of the limit field on `points`: numpy's Cholesky draw
    of the Gaussian vector with covariance limit_cov_matrix."""
    cov = wc.limit_cov_matrix(params, points)
    return rng.multivariate_normal(np.zeros(len(points)), cov, size=size, method="cholesky")


class TestAccumulator:
    def test_single_field(self):
        acc = wc.EnsembleAccumulator.empty(3)
        acc.add([1.0, -2.0, 0.5])
        assert acc.count == 1
        assert acc.mean.tolist() == [1.0, -2.0, 0.5]
        assert np.all(acc.comoment == 0.0)

    def test_two_identical_fields(self):
        acc = wc.EnsembleAccumulator.empty(2)
        acc.add([3.0, 1.0])
        acc.add([3.0, 1.0])
        assert np.all(acc.comoment == 0.0)
        assert acc.low.tolist() == [3.0, 1.0] and acc.high.tolist() == [3.0, 1.0]

    def test_synthetic_normal_diagonal(self, rng):
        data = rng.normal(size=(10_000, 2))
        (acc,) = fill(data)
        v = np.diag(acc.cov())
        se = math.sqrt(2.0 / data.shape[0])
        assert np.all(np.abs(v - 1.0) < 4 * se)

    def test_grid_mismatch(self):
        acc = wc.EnsembleAccumulator.empty(2)
        with pytest.raises(wc.GridMismatchError):
            acc.add([1.0, 2.0, 3.0])

    def test_merge_matches_bulk(self, rng):
        data = rng.normal(size=(5000, 3))
        (bulk,) = fill(data)
        for nb in (2, 7, 50):
            merged = wc.merge_accumulators(fill(data, nb))
            assert merged.count == bulk.count
            assert np.abs(merged.mean - bulk.mean).max() < 1e-12
            assert np.abs(merged.comoment - bulk.comoment).max() < 1e-9

    def test_merge_commutative(self, rng):
        data = rng.normal(size=(3000, 2))
        accs = fill(data, 6)
        forward = wc.merge_accumulators(accs)
        backward = wc.merge_accumulators(accs[::-1])
        assert np.abs(forward.mean - backward.mean).max() < 1e-10
        assert np.abs(forward.comoment - backward.comoment).max() < 1e-10

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 80), st.lists(st.integers(0, 80), max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_add_batch_add_and_merge_agree(self, nrows, cuts, seed):
        # any split of the same rows: one add_batch per part, one add per
        # row, and per-part accumulators merged all agree within round-off
        data = np.random.default_rng(seed).normal(3.0, 10.0, size=(nrows, 3))
        bounds = sorted({0, nrows} | {min(c, nrows) for c in cuts})
        parts = [data[a:b] for a, b in zip(bounds, bounds[1:])]
        (rowwise,) = fill(data)
        batched = wc.EnsembleAccumulator.empty(3)
        singles = []
        for part in parts:
            batched.add_batch(part)
            single = wc.EnsembleAccumulator.empty(3)
            single.add_batch(part)
            singles.append(single)
        merged = wc.merge_accumulators(singles)
        scale = np.abs(rowwise.comoment).max() + 1.0
        for acc in (batched, merged):
            assert acc.count == rowwise.count == nrows
            assert np.abs(acc.mean - rowwise.mean).max() < 1e-12 * 100.0
            assert np.abs(acc.comoment - rowwise.comoment).max() < 1e-12 * scale
            assert np.array_equal(acc.low, rowwise.low)
            assert np.array_equal(acc.high, rowwise.high)

    def test_add_batch_grid_mismatch(self):
        acc = wc.EnsembleAccumulator.empty(2)
        with pytest.raises(wc.GridMismatchError):
            acc.add_batch(np.zeros((4, 3)))

    def test_leave_one_out(self, rng):
        data = rng.normal(size=(1000, 2))
        accs = fill(data, 10)
        loo = _leave_one_out(accs)
        for j, acc in enumerate(loo):
            manual = wc.merge_accumulators([a for i, a in enumerate(accs) if i != j])
            assert acc.count == manual.count
            assert np.abs(acc.mean - manual.mean).max() < 1e-12


class TestCovarianceReport:
    def test_self_sampled_gaussian(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        pts = [(0.5, 0.0), (1.0, 0.0), (1.0, 0.5)]
        draws = limit_draws(rng, params, pts, 100_000)
        report = wc.covariance_report(fill(draws, 50), params, pts)
        assert report["max_abs_z"] <= 4.0

    def test_z_scores_calibrated(self, rng):
        # across synthetic repetitions the z-scores should be ~standard normal
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        pts = [(0.5, 0.0), (1.0, 0.5)]
        zs = []
        for _ in range(25):
            draws = limit_draws(rng, params, pts, 5000)
            report = wc.covariance_report(fill(draws, 50), params, pts)
            zs.extend(r["z_score"] for r in report["rows"])
        assert 0.8 <= np.std(zs) <= 1.2

    def test_needs_replicas_and_batches(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        pts = [(1.0, 0.0)]
        with pytest.raises(wc.InsufficientReplicasError):
            wc.covariance_report(fill(rng.normal(size=(50, 1)), 5), params, pts)
        with pytest.raises(wc.InsufficientReplicasError):
            wc.covariance_report(fill(rng.normal(size=(500, 1)), 1), params, pts)


class TestMeanReport:
    def test_centered_data(self, rng):
        pts = [(1.0, 0.0), (2.0, 0.0)]
        draws = rng.normal(size=(20_000, 2))
        report = wc.mean_report(fill(draws, 50), pts)
        assert report["max_ratio"] < 4.0
        assert all(r["std_error"] > 0 for r in report["rows"])

    def test_shifted_data_flagged(self, rng):
        draws = rng.normal(size=(5000, 1)) + 0.5
        report = wc.mean_report(fill(draws, 10), [(1.0, 0.0)])
        assert report["max_ratio"] > 10.0


class TestScalingExponent:
    def test_analytic_variances_exact_half(self):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        ts = [0.25, 0.5, 1.0, 2.0, 4.0]
        variances = [wc.limit_cov(params, (t, 0.0), (t, 0.0)) for t in ts]
        slope, stderr = wc.scaling_exponent(ts, variances)
        assert abs(slope - 0.5) < 1e-12
        assert stderr < 1e-12

    def test_sampled_slope_in_band(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        ts = [0.25, 0.5, 1.0, 2.0, 4.0]
        draws = limit_draws(rng, params, [(t, 0.0) for t in ts], 100_000)
        slope, _ = wc.scaling_exponent(ts, draws.var(axis=0, ddof=1))
        assert abs(slope - 0.5) <= 0.02

    def test_needs_four_times(self):
        with pytest.raises(wc.InsufficientReplicasError):
            wc.scaling_exponent([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan])
    def test_nonpositive_variance_names_its_time(self, bad):
        # it has no log: the slope used to be NaN, with RuntimeWarnings
        with pytest.raises(wc.InsufficientReplicasError, match="at t = 2.0"):
            wc.scaling_exponent([0.5, 1.0, 2.0, 4.0], [0.5, 0.7, bad, 1.4])


class TestNormalityDiagnostics:
    def test_gaussian_samples_pass(self, rng):
        params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
        var = wc.limit_cov_matrix(params, [(1.0, 0.0)])[0, 0]
        draws = limit_draws(rng, params, [(1.0, 0.0)], 50_000)[:, 0]
        diag = wc.normality_diagnostics(draws, var)
        assert diag["ks_p"] > 0.01
        assert abs(diag["skewness"]) < 0.05 and abs(diag["excess_kurtosis"]) < 0.1

    def test_cauchy_samples_fail(self, rng):
        draws = rng.standard_cauchy(size=50_000)
        diag = wc.normality_diagnostics(draws, 1.0)
        assert abs(diag["excess_kurtosis"]) > 10.0
        assert diag["ks_p"] < 1e-6

    def test_lattice_dithering(self, rng):
        # integer-rounded normals fail the raw KS but pass once dithered
        sd = 3.0
        draws = np.round(rng.normal(0.0, sd, size=100_000))
        raw = wc.normality_diagnostics(draws, sd * sd)
        dithered = wc.normality_diagnostics(draws, sd * sd + 1.0 / 12.0, lattice=1.0,
                                            rng=np.random.default_rng(1))
        assert raw["ks_p"] < 1e-4
        assert dithered["ks_p"] > 0.01

    def test_needs_samples(self, rng):
        with pytest.raises(wc.InsufficientReplicasError):
            wc.normality_diagnostics(rng.normal(size=100), 1.0)

    @pytest.mark.parametrize("var", [0.0, -1.0, float("nan")])
    def test_needs_positive_variance(self, rng, var):
        # a point at t = 0 has variance 0: the moments and the KS statistic
        # would divide by it
        with pytest.raises(ValueError, match="positive variance"):
            wc.normality_diagnostics(rng.normal(size=10_000), var)
