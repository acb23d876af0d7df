import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as spstats

import walkcurrent as wc
from conftest import lattice_chisquare


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
        assert wc.sample_increments(drift_kernel, [0.0], rng).tolist() == [0]

    def test_repeated_time_equal(self, drift_kernel, rng):
        pos = wc.sample_increments(drift_kernel, [2.0, 2.0], rng, size=500)
        assert np.array_equal(pos[0], pos[1])

    def test_unsorted_times_rejected(self, drift_kernel, rng):
        with pytest.raises(wc.UnsortedTimesError):
            wc.sample_increments(drift_kernel, [2.0, 1.0], rng)
        with pytest.raises(wc.UnsortedTimesError):
            wc.sample_increments(drift_kernel, [-1.0, 1.0], rng)

    def test_poisson_increment_law(self, pure_right_kernel, rng):
        pos = wc.sample_increments(pure_right_kernel, [1.0, 2.0], rng, size=100_000)
        diff = pos[1] - pos[0]
        support = np.arange(0, 12)
        p = lattice_chisquare(diff, support, spstats.poisson.pmf(support, 1.0))
        assert p > 0.01

    def test_marginals_match_walk_pmf(self, drift_kernel):
        rng = np.random.default_rng(8675309)
        times = [1.0, 3.0]
        pos = wc.sample_increments(drift_kernel, times, rng, size=100_000)
        for row, t in zip(pos, times):
            pmf = wc.walk_pmf(drift_kernel, t)
            p = lattice_chisquare(row, pmf.support(), pmf.masses)
            assert p > 0.01, f"marginal at t={t} off (p={p})"


class TestGillespie:
    def test_zero_time(self, drift_kernel, rng):
        assert wc.gillespie_displacement(drift_kernel, 0.0, rng) == 0

    def test_poisson_count_mean(self, pure_right_kernel, rng):
        d = wc.gillespie_displacement(pure_right_kernel, 3.0, rng, size=100_000)
        se = math.sqrt(3.0 / d.size)
        assert abs(d.mean() - 3.0) < 4 * se

    @pytest.mark.parametrize("tau", [1.0, 10.0, 100.0])
    def test_matches_compound_sampler(self, drift_kernel, rng, tau):
        g = wc.gillespie_displacement(drift_kernel, tau, rng, size=100_000)
        c = wc.sample_displacement(drift_kernel, tau, rng, size=100_000)
        assert spstats.ks_2samp(g, c).pvalue > 0.01

    @pytest.mark.parametrize("raw", [{1: 1.0}, {2: 0.5, -1: 0.5}])
    def test_matches_compound_other_kernels(self, raw, rng):
        k = wc.validate_kernel(raw)
        for tau in (1.0, 10.0, 100.0):
            g = wc.gillespie_displacement(k, tau, rng, size=20_000)
            c = wc.sample_displacement(k, tau, rng, size=20_000)
            assert spstats.ks_2samp(g, c).pvalue > 0.01


class TestWalkPmf:
    def test_zero_time_point_mass(self, drift_kernel):
        pmf = wc.walk_pmf(drift_kernel, 0.0)
        assert pmf.offset_min == 0 and pmf.masses.tolist() == [1.0]
        assert pmf.deficit == 0.0

    def test_degenerate_kernel_is_poisson(self, pure_right_kernel):
        pmf = wc.walk_pmf(pure_right_kernel, 2.0)
        ref = spstats.poisson.pmf(pmf.support(), 2.0)
        assert np.abs(pmf.masses - ref).max() < 1e-13

    def test_skellam_cross_check(self, drift_kernel):
        # thinned-Poisson structure: +1 jumps at rate 0.7 tau, -1 at 0.3 tau
        tau = 50.0
        pmf = wc.walk_pmf(drift_kernel, tau)
        ref = spstats.skellam.pmf(pmf.support(), 0.7 * tau, 0.3 * tau)
        assert np.abs(pmf.masses - ref).max() < 1e-12

    def test_moment_identities(self, drift_kernel):
        tau, mass_tol = 50.0, 1e-12
        pmf = wc.walk_pmf(drift_kernel, tau, mass_tol=mass_tol)
        assert pmf.deficit <= mass_tol
        corrected_mean = pmf.mean() / (1.0 - pmf.deficit)
        assert abs(corrected_mean - drift_kernel.v * tau) < 1e-8
        # deficit accounting: the dropped tail sits at lever-arm distance
        lever = max(abs(int(pmf.support()[0])), abs(int(pmf.support()[-1])))
        assert abs(corrected_mean - drift_kernel.v * tau) < 10 * mass_tol * lever
        corrected_var = pmf.var() / (1.0 - pmf.deficit)
        assert abs(corrected_var - drift_kernel.kappa2 * tau) < 10 * mass_tol * lever ** 2

    def test_mass_tol_validation(self, drift_kernel):
        with pytest.raises(ValueError):
            wc.walk_pmf(drift_kernel, 1.0, mass_tol=1e-3)

    def test_cdf_sf_complement(self, drift_kernel):
        pmf = wc.walk_pmf(drift_kernel, 10.0)
        ks = np.arange(-20, 25)
        total = np.asarray(pmf.cdf(ks)) + np.asarray(pmf.sf(ks))
        assert np.abs(total - (1.0 - pmf.deficit)).max() < 1e-14


SMALL_KERNELS = st.dictionaries(st.integers(-3, 3), st.floats(0.05, 1.0),
                                min_size=1, max_size=4)


def check_lattice_identities(pmf, missing: float):
    """Mass accounting and tail identities of a LatticePmf whose masses
    sum to 1 - missing."""
    assert abs(pmf.masses.sum() + missing - 1.0) <= 1e-12
    ks = np.arange(pmf.offset_min - 2, pmf.offset_min + pmf.masses.size + 2)
    assert np.max(np.abs(pmf.cdf(ks) + pmf.sf(ks) + missing - 1.0)) <= 1e-12
    # tail_geq and sf sum the same masses in two orders; masses.size * eps
    # bounds the rounding gap of the two sums
    tails = np.array([pmf.tail_geq(int(k)) for k in ks])
    assert np.max(np.abs(tails - pmf.sf(ks - 1))) <= pmf.masses.size * np.finfo(float).eps


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
        # the walk pmf's truncated tail enters the deficit, but no current
        # mass is dropped for it: only the Poisson occupancy tails are
        walk_deficit = wc.walk_pmf(kernel, n * t).deficit
        check_lattice_identities(pmf, pmf.deficit - walk_deficit)


class TestChernoffTail:
    def test_delta_zero_vacuous(self, drift_kernel):
        assert wc.chernoff_tail(drift_kernel, 10.0, 0) == 1.0

    def test_dominates_exact_tail(self, pure_right_kernel):
        tau, delta = 100.0, 60
        pmf = wc.walk_pmf(pure_right_kernel, tau)
        center = pure_right_kernel.v * tau
        sup = pmf.support()
        exact = pmf.masses[np.abs(sup - center) >= delta].sum()
        bound = wc.chernoff_tail(pure_right_kernel, tau, delta)
        assert exact <= bound <= 0.01

    def test_dominates_exact_tail_drift(self, drift_kernel):
        tau = 50.0
        pmf = wc.walk_pmf(drift_kernel, tau)
        sup = pmf.support()
        center = drift_kernel.v * tau
        for delta in (5, 15, 30, 45):
            exact = pmf.masses[np.abs(sup - center) >= delta].sum()
            assert exact <= wc.chernoff_tail(drift_kernel, tau, delta)

    def test_monotone_in_delta(self, drift_kernel):
        bounds = [wc.chernoff_tail(drift_kernel, 20.0, d) for d in range(0, 40, 2)]
        assert all(b1 >= b2 for b1, b2 in zip(bounds, bounds[1:]))

    def test_negative_delta_rejected(self, drift_kernel):
        with pytest.raises(ValueError):
            wc.chernoff_tail(drift_kernel, 1.0, -1)
