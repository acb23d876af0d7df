import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

import walkcurrent as wc
from conftest import lattice_chisquare
from pmf_oracles import (convolution_walk_pmf, exact_poisson_tail, pmf_moments,
                         sample_increments, stats_poisson_window)
from sampler_oracles import gillespie_displacement
from walkcurrent import kernel as kernel_module
from window_oracles import brute_force_chernoff_log_tail


class TestValidateKernel:
    def test_single_jump(self):
        k = wc.validate_kernel({1: 1.0})
        assert k.v == 1.0 and k.kappa2 == 1.0

    def test_drift_kernel_moments(self):
        k = wc.validate_kernel({1: 0.7, -1: 0.3})
        assert k.v == pytest.approx(0.4, abs=1e-15)
        assert k.kappa2 == pytest.approx(1.0, abs=1e-15)

    def test_wide_kernel_moments(self):
        k = wc.validate_kernel({2: 0.5, -1: 0.5})
        assert k.v == pytest.approx(0.5, abs=1e-15)
        assert k.kappa2 == pytest.approx(2.5, abs=1e-15)

    def test_negative_weight(self):
        with pytest.raises(wc.NegativeWeightError):
            wc.validate_kernel({1: -0.1, -1: 1.1})

    def test_zero_mass(self):
        with pytest.raises(wc.ZeroMassError):
            wc.validate_kernel({})
        with pytest.raises(wc.ZeroMassError):
            wc.validate_kernel({1: 0.0, -1: 0.0})

    def test_non_integer_offset(self):
        with pytest.raises(wc.UnboundedSupportError):
            wc.validate_kernel({0.5: 1.0})

    def test_normalization_and_recompute(self):
        k = wc.validate_kernel({2: 5.0, -1: 5.0})
        assert abs(k.probs.sum() - 1.0) < 1e-12
        assert k.v == float(np.sum(k.offsets * k.probs))
        assert k.kappa2 == float(np.sum(k.offsets.astype(float) ** 2 * k.probs))


class TestSampleDisplacement:
    def test_zero_time(self, drift_kernel, rng):
        assert wc.sample_displacement(drift_kernel, 0.0, rng) == 0
        assert np.all(wc.sample_displacement(drift_kernel, 0.0, rng, size=100) == 0)

    def test_pure_poisson_mean(self, pure_right_kernel, rng):
        d = wc.sample_displacement(pure_right_kernel, 5.0, rng, size=100_000)
        se = math.sqrt(5.0 / d.size)
        assert abs(d.mean() - 5.0) < 4 * se

    def test_drift_kernel_moments(self, drift_kernel, rng):
        tau = 100.0
        d = wc.sample_displacement(drift_kernel, tau, rng, size=100_000)
        se_mean = math.sqrt(drift_kernel.kappa2 * tau / d.size)
        assert abs(d.mean() - drift_kernel.v * tau) < 4 * se_mean
        v = d.var()
        m4 = np.mean((d - d.mean()) ** 4)
        se_var = math.sqrt(max(m4 - v * v, 0.0) / d.size)
        assert abs(v - drift_kernel.kappa2 * tau) < 5 * se_var

    def test_rejects_bad_tau(self, drift_kernel, rng):
        with pytest.raises(ValueError):
            wc.sample_displacement(drift_kernel, -1.0, rng)
        with pytest.raises(ValueError):
            wc.sample_displacement(drift_kernel, math.inf, rng)


class TestSampleIncrements:
    def test_single_zero_time(self, drift_kernel, rng):
        assert sample_increments(drift_kernel, [0.0], rng).tolist() == [0]

    def test_repeated_time_equal(self, drift_kernel, rng):
        pos = sample_increments(drift_kernel, [2.0, 2.0], rng, size=500)
        assert np.array_equal(pos[0], pos[1])

    def test_unsorted_times_rejected(self, drift_kernel, rng):
        with pytest.raises(ValueError):
            sample_increments(drift_kernel, [2.0, 1.0], rng)
        with pytest.raises(ValueError):
            sample_increments(drift_kernel, [-1.0, 1.0], rng)

    def test_poisson_increment_law(self, pure_right_kernel, rng):
        pos = sample_increments(pure_right_kernel, [1.0, 2.0], rng, size=100_000)
        diff = pos[1] - pos[0]
        support = np.arange(0, 12)
        p = lattice_chisquare(diff, support, spstats.poisson.pmf(support, 1.0))
        assert p > 0.01

    def test_marginals_match_walk_pmf(self, drift_kernel):
        rng = np.random.default_rng(8675309)
        times = [1.0, 3.0]
        pos = sample_increments(drift_kernel, times, rng, size=100_000)
        for row, t in zip(pos, times):
            pmf = wc.walk_pmf(drift_kernel, t)
            p = lattice_chisquare(row, pmf_moments(pmf)[0], pmf.masses)
            assert p > 0.01, f"marginal at t={t} off (p={p})"


class TestGillespie:
    def test_zero_time(self, drift_kernel, rng):
        assert gillespie_displacement(drift_kernel, 0.0, rng) == 0

    def test_poisson_count_mean(self, pure_right_kernel, rng):
        d = gillespie_displacement(pure_right_kernel, 3.0, rng, size=100_000)
        se = math.sqrt(3.0 / d.size)
        assert abs(d.mean() - 3.0) < 4 * se

    @pytest.mark.parametrize("tau", [1.0, 10.0, 100.0])
    def test_matches_compound_sampler(self, drift_kernel, rng, tau):
        g = gillespie_displacement(drift_kernel, tau, rng, size=100_000)
        c = wc.sample_displacement(drift_kernel, tau, rng, size=100_000)
        assert spstats.ks_2samp(g, c).pvalue > 0.01

    @pytest.mark.parametrize("raw", [{1: 1.0}, {2: 0.5, -1: 0.5}])
    def test_matches_compound_other_kernels(self, raw, rng):
        k = wc.validate_kernel(raw)
        for tau in (1.0, 10.0, 100.0):
            g = gillespie_displacement(k, tau, rng, size=20_000)
            c = wc.sample_displacement(k, tau, rng, size=20_000)
            assert spstats.ks_2samp(g, c).pvalue > 0.01


class TestWalkPmf:
    def test_zero_time_point_mass(self, drift_kernel):
        pmf = wc.walk_pmf(drift_kernel, 0.0)
        assert pmf.offset_min == 0 and pmf.masses.tolist() == [1.0]
        assert pmf.deficit == 0.0

    def test_degenerate_kernel_is_poisson(self, pure_right_kernel):
        pmf = wc.walk_pmf(pure_right_kernel, 2.0)
        ref = spstats.poisson.pmf(pmf_moments(pmf)[0], 2.0)
        assert np.abs(pmf.masses - ref).max() < 1e-13

    def test_skellam_cross_check(self, drift_kernel):
        # thinned-Poisson structure: +1 jumps at rate 0.7 tau, -1 at 0.3 tau
        tau = 50.0
        pmf = wc.walk_pmf(drift_kernel, tau)
        ref = spstats.skellam.pmf(pmf_moments(pmf)[0], 0.7 * tau, 0.3 * tau)
        assert np.abs(pmf.masses - ref).max() < 1e-12

    def test_moment_identities(self, drift_kernel):
        tau, mass_tol = 50.0, 1e-12
        pmf = wc.walk_pmf(drift_kernel, tau)
        assert pmf.deficit <= mass_tol
        support, mean, var = pmf_moments(pmf)
        corrected_mean = mean / (1.0 - pmf.deficit)
        assert abs(corrected_mean - drift_kernel.v * tau) < 1e-8
        # deficit accounting: the dropped tail sits at lever-arm distance
        lever = max(abs(int(support[0])), abs(int(support[-1])))
        assert abs(corrected_mean - drift_kernel.v * tau) < 10 * mass_tol * lever
        corrected_var = var / (1.0 - pmf.deficit)
        assert abs(corrected_var - drift_kernel.kappa2 * tau) < 10 * mass_tol * lever ** 2

    def test_support_cap(self, drift_kernel, monkeypatch):
        monkeypatch.setattr(kernel_module, "PMF_LENGTH_CAP", 100)
        with pytest.raises(wc.TruncationBudgetError):
            wc.walk_pmf(drift_kernel, 1e4)

    @pytest.mark.parametrize("raw", [{1: 0.7, -1: 0.3}, {1: 0.4, -1: 0.3, 2: 0.2, -3: 0.1}])
    @pytest.mark.parametrize("tau", [2500.0, 1e4, 1e5, 1e6])
    def test_mass_plus_deficit_is_one(self, raw, tau):
        pmf = wc.walk_pmf(wc.validate_kernel(raw), tau)
        assert 0.0 <= pmf.deficit <= 1e-12
        assert abs(pmf.masses.sum() + pmf.deficit - 1.0) <= 1e-14

    @pytest.mark.parametrize("raw", [{1: 0.7, -1: 0.3}, {1: 0.4, -1: 0.3, 2: 0.2, -3: 0.1},
                                     {0: 0.5, 2: 0.5}, {-2: 0.6, 3: 0.4}])
    @pytest.mark.parametrize("tau", [0.3, 10.0, 300.0, 2500.0])
    def test_matches_convolution_oracle(self, raw, tau):
        kernel = wc.validate_kernel(raw)
        a, b = wc.walk_pmf(kernel, tau), convolution_walk_pmf(kernel, tau)
        lo = min(a.offset_min, b.offset_min)
        size = max(a.offset_min + a.masses.size, b.offset_min + b.masses.size) - lo
        dense = np.zeros((2, size))
        for row, pmf in zip(dense, (a, b)):
            row[pmf.offset_min - lo:pmf.offset_min - lo + pmf.masses.size] = pmf.masses
        assert np.abs(dense[0] - dense[1]).max() <= 1e-13

    def test_cdf_sf_complement(self, drift_kernel):
        pmf = wc.walk_pmf(drift_kernel, 10.0)
        ks = np.arange(-20, 25)
        total = np.asarray(pmf.cdf(ks)) + [pmf.tail_geq(k + 1) for k in ks]
        assert np.abs(total - (1.0 - pmf.deficit)).max() < 1e-14


class TestPoissonWindow:
    """The window's start and masses are those of the oracle that reads its
    tail from scipy.stats.poisson, bit for bit.  The raw tail, summed
    outward from a - 1 and b + 1, is checked against the incomplete gamma
    function in 30 digits, to 1e-12 relative down to the smallest normal
    float: scipy's own Poisson tails are off by up to 1e-8 relative at tol
    1e-12 near mu = 1e6, so they cannot check it."""

    @staticmethod
    def assert_same(got, want, mu, tol):
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()
        exact = exact_poisson_tail(mu, tol)
        assert abs(got[2] - exact) <= 1e-12 * max(exact, np.finfo(float).tiny)

    @pytest.mark.parametrize("mu", [0.0, 1e-3, 0.5])
    def test_window_from_zero(self, mu):
        window = kernel_module._poisson_window(mu, 1e-12)
        assert window[0] == 0
        self.assert_same(window, stats_poisson_window(mu, 1e-12), mu, 1e-12)

    def test_random_means(self):
        rng = np.random.default_rng(17)
        for mu in 10.0 ** rng.uniform(-3.0, 6.0, 100):
            for tol in (1e-12, 1e-300):
                self.assert_same(kernel_module._poisson_window(mu, tol),
                                 stats_poisson_window(mu, tol), mu, tol)

    def test_pmfs_unchanged_at_bench_configs(self, monkeypatch):
        drift = wc.validate_kernel({1: 0.7, -1: 0.3})
        taus = [2500 * g for g in (0.25, 0.5, 1.0, 2.0)] + [100.0, 400.0, 1600.0]
        configs = [wc.ExperimentConfig(n=n, T=1.0, S=0.25, t_grid=(1.0,), r_grid=(0.0,),
                                       kernel=drift, occupancy=wc.OccupancyModel.poisson(1.0),
                                       master_seed=1)
                   for n in (100, 400, 1600)]

        def pmfs():
            return ([wc.walk_pmf(drift, tau) for tau in taus]
                    + [wc.exact_current_pmf(cfg, 1.0, 0.0) for cfg in configs])

        got = pmfs()
        monkeypatch.setattr(kernel_module, "_poisson_window", stats_poisson_window)
        for a, b in zip(got, pmfs()):
            assert (a.offset_min, a.masses.tobytes(), a.deficit) == \
                (b.offset_min, b.masses.tobytes(), b.deficit)


SMALL_KERNELS = st.dictionaries(st.integers(-3, 3), st.floats(0.05, 1.0),
                                min_size=1, max_size=4)


def check_lattice_identities(pmf, missing: float):
    """Mass accounting and tail identities of a LatticePmf whose masses
    sum to 1 - missing."""
    assert abs(pmf.masses.sum() + missing - 1.0) <= 1e-12
    ks = np.arange(pmf.offset_min - 2, pmf.offset_min + pmf.masses.size + 2)
    tails = np.array([pmf.tail_geq(int(k)) for k in ks])
    assert np.max(np.abs(pmf.cdf(ks - 1) + tails + missing - 1.0)) <= 1e-12


class TestLatticePmfProperties:
    @settings(max_examples=60, deadline=None)
    @given(SMALL_KERNELS, st.floats(0.0, 30.0))
    def test_walk_pmf(self, raw, tau):
        pmf = wc.walk_pmf(wc.validate_kernel(raw), tau)
        check_lattice_identities(pmf, pmf.deficit)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 64), st.floats(0.05, 1.0), st.sampled_from(["poisson", "custom"]))
    def test_exact_current_pmf(self, n, t, kind):
        occupancy = (wc.OccupancyModel.poisson(1.3) if kind == "poisson"
                     else wc.OccupancyModel.custom([(0, 0.5), (2, 0.5)]))
        kernel = wc.validate_kernel({1: 0.7, -1: 0.3})
        cfg = wc.ExperimentConfig(n=n, T=1.0, S=0.25, t_grid=(t,), r_grid=(0.0,),
                                  kernel=kernel, occupancy=occupancy, master_seed=0)
        pmf = wc.exact_current_pmf(cfg, t, 0.0)
        check_lattice_identities(pmf, pmf.deficit)


def chernoff_bound(kernel, tau, delta):
    """The two-sided Chernoff bound at one distance, capped at 1, as the
    window certification reads it."""
    return float(np.exp(min(wc.chernoff_log_tail(kernel, tau, delta)[0], 0.0)))


class TestChernoffTail:
    def test_delta_zero_vacuous(self, drift_kernel):
        assert chernoff_bound(drift_kernel, 10.0, 0) == 1.0

    def test_log_bound_past_exp_range_is_capped(self, drift_kernel):
        # at tau = 1e12 the log bound at delta 0 is far above log(DBL_MAX),
        # yet finite, so the capped bound is 1 rather than inf or NaN
        log_bound = wc.chernoff_log_tail(drift_kernel, 1e12, 0)[0]
        assert math.log(sys.float_info.max) < log_bound < math.inf
        assert chernoff_bound(drift_kernel, 1e12, 0) == 1.0

    def test_dominates_exact_tail(self, pure_right_kernel):
        tau, delta = 100.0, 60
        pmf = wc.walk_pmf(pure_right_kernel, tau)
        center = pure_right_kernel.v * tau
        sup = pmf_moments(pmf)[0]
        exact = pmf.masses[np.abs(sup - center) >= delta].sum()
        bound = chernoff_bound(pure_right_kernel, tau, delta)
        assert exact <= bound <= 0.01

    def test_dominates_exact_tail_drift(self, drift_kernel):
        tau = 50.0
        pmf = wc.walk_pmf(drift_kernel, tau)
        sup = pmf_moments(pmf)[0]
        center = drift_kernel.v * tau
        for delta in (5, 15, 30, 45):
            exact = pmf.masses[np.abs(sup - center) >= delta].sum()
            assert exact <= chernoff_bound(drift_kernel, tau, delta)

    def test_monotone_in_delta(self, drift_kernel):
        log_bounds = wc.chernoff_log_tail(drift_kernel, 20.0, range(0, 40, 2))
        assert np.all(np.diff(log_bounds) <= 0.0)

    @pytest.mark.parametrize("size", [1, 32, 512, 1000])
    def test_blocked_minimum_is_bit_identical(self, wide_kernel, size):
        # the theta-minimum taken over the whole (deltas x theta) array at once
        tau = 300.0
        deltas = np.arange(size, dtype=float) * 0.75
        ref = brute_force_chernoff_log_tail(wide_kernel, tau, deltas)
        assert np.array_equal(kernel_module.chernoff_log_tail(wide_kernel, tau, deltas), ref)

    @settings(max_examples=150, deadline=None)
    @given(SMALL_KERNELS, st.floats(-1.0, 7.0), st.integers(0, 20_000))
    # the lower side's lines flatten towards log P(X = 0) = -tau and their
    # rounded crossings fall out of order: the grid minimum lies past the
    # running maximum's line by more than ENVELOPE_REACH lines
    @example(raw={3: 1.0}, log_tau=1.0, start=0)
    def test_envelope_minimum_is_the_grid_minimum(self, raw, log_tau, start):
        # a window block's distances, as the window certification asks for them
        kernel = wc.validate_kernel(raw)
        tau = 10.0 ** log_tau
        deltas = np.maximum(np.arange(start, start + 512, dtype=float) - 1.0, 0.0)
        assert np.array_equal(kernel_module.chernoff_log_tail(kernel, tau, deltas),
                              brute_force_chernoff_log_tail(kernel, tau, deltas))
