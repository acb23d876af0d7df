"""The Kolmogorov-Smirnov p-value against scipy.stats.

`normal.kolmogorov_sf` carries the branches of `scipy.stats.kstwo.sf` for
more than 140 samples, and `normality_diagnostics` forms the statistic
itself; both are compared here with scipy, on inputs that reach every
branch.
"""

import numpy as np
import pytest
from scipy import special
from scipy import stats as spstats

import walkcurrent as wc
from walkcurrent.normal import KS_MIN_SAMPLES, kolmogorov_sf, smirnov
from walkcurrent.stats import MIN_NORMALITY_SAMPLES

ALL_BRANCHES = {"ruben-gambino-low", "ruben-gambino-high", "smirnov-half", "smirnov",
                "zero", "durbin", "pelz-good", "pelz-good-large-n"}


def ks_branch(n, d):
    """The branch of Simard and L'Ecuyer's selection that (n, d) takes,
    for d strictly inside (1/(2n), 1)."""
    t, nxx = n * d, n * d * d
    if t <= 1.0:
        return "ruben-gambino-low"
    if t >= n - 1:
        return "ruben-gambino-high"
    if d >= 0.5:
        return "smirnov-half"
    if nxx >= 370.0:
        return "zero"
    if nxx >= 2.2:
        return "smirnov"
    if n <= 100_000:
        return "durbin" if n * d ** 1.5 <= 1.4 else "pelz-good"
    return "pelz-good-large-n"


# (n, d) reaching each branch: on both sides of its edges where they are
# close, and for n on both sides of 1e5
SF_CASES = [
    (141, 0.6 / 141), (1000, 1.0 / 1000), (10_000, 0.75e-4),
    (141, 140.5 / 141), (2000, 1999.5 / 2000),
    (141, 0.5), (500, 0.7), (20_000, 0.9),
    (200, 0.2), (10_000, 0.02), (10_000, 0.0148), (100_001, 0.005),
    (10_000, 0.193), (10_000, 0.25), (1_000_000, 0.02),
    (141, 0.05), (10_000, 2.5e-4), (10_000, 2.69e-3), (100_000, 2e-4), (100_000, 5.8e-4),
    (141, 0.1), (10_000, 2.8e-3), (10_000, 0.01), (100_000, 3e-3),
    (100_001, 2e-4), (1_000_000, 1e-3), (1_000_000, 2e-5),
]


class TestKolmogorovSf:
    def test_cases_reach_every_branch(self):
        assert {ks_branch(n, d) for n, d in SF_CASES} == ALL_BRANCHES

    @pytest.mark.parametrize("n, d", SF_CASES)
    def test_matches_kstwo(self, n, d):
        assert abs(kolmogorov_sf(n, d) - spstats.kstwo.sf(d, n)) <= 1e-12

    def test_random_points(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(10 ** rng.uniform(np.log10(141), 4.5))
            d = rng.uniform(0.0, 3.0 / np.sqrt(n)) if rng.random() < 0.8 else rng.random()
            assert abs(kolmogorov_sf(n, d) - spstats.kstwo.sf(d, n)) <= 1e-12

    def test_ends(self):
        assert kolmogorov_sf(1000, 0.0) == kolmogorov_sf(1000, 0.5 / 1000) == 1.0
        assert kolmogorov_sf(1000, 1.0) == kolmogorov_sf(1000, 1.5) == 0.0

    def test_upper_tail_is_smirnov_sum(self):
        # where the two one-sided events cannot both occur
        assert kolmogorov_sf(500, 0.7) == 2.0 * smirnov(500, 0.7)

    @pytest.mark.parametrize("n", [1, 50, KS_MIN_SAMPLES])
    def test_small_n_raises(self, n):
        with pytest.raises(ValueError, match="140"):
            kolmogorov_sf(n, 0.1)

    def test_diagnostics_sample_floor_is_above_the_bound(self):
        assert MIN_NORMALITY_SAMPLES > KS_MIN_SAMPLES


def sample_with_statistic(n, bump, sd=1.0):
    """n sorted points whose Normal(0, sd^2) cdf values are the midpoints
    (i - 1/2)/n pushed up by bump * sin(pi (i - 1/2)/n): D = 1/(2n) + bump
    for 0 <= bump < 1/pi."""
    u = (np.arange(n) + 0.5) / n
    return sd * special.ndtri(u + bump * np.sin(np.pi * u))


def sample_near_one(n, gap):
    """n points whose cdf values all lie within gap of 1: D >= 1 - gap."""
    return special.ndtri(1.0 - gap * (np.arange(n, 0, -1) / n))


def kstest_p(x, var):
    return spstats.kstest(x, "norm", args=(0.0, np.sqrt(var))).pvalue


def statistic(x, var):
    return spstats.kstest(x, "norm", args=(0.0, np.sqrt(var))).statistic


class TestNormalityPValue:
    N = MIN_NORMALITY_SAMPLES
    SAMPLES = [
        (N, 0.3 / N), (N, 1e-3), (N, 8e-3), (N, 0.03), (N, 0.25),
        (100_001, 4e-4), (100_001, 5e-3),
    ]

    def check(self, x, var=1.0):
        got = wc.normality_diagnostics(x, var)["ks_p"]
        assert abs(got - kstest_p(x, var)) <= 1e-12
        return ks_branch(x.size, statistic(x, var))

    def test_every_branch(self):
        hit = {self.check(sample_with_statistic(n, bump)) for n, bump in self.SAMPLES}
        hit.add(self.check(sample_near_one(self.N, 1e-5)))
        hit.add(self.check(sample_near_one(self.N, 0.3)))
        assert hit == ALL_BRANCHES

    def test_scaled_variance(self):
        x = sample_with_statistic(self.N, 5e-3, sd=1.7)
        assert self.check(x, var=1.7 ** 2) == "pelz-good"

    def test_random_samples(self):
        rng = np.random.default_rng(5)
        for size in (10_000, 31_623, 200_000):
            for scale in (1.0, 1.02):
                self.check(scale * rng.standard_normal(size))

    def test_dithered_lattice_samples(self):
        # what cov-check passes: lattice values, dithered with a seeded rng
        rng = np.random.default_rng(3)
        lattice = 2500 ** -0.25
        x = lattice * rng.poisson(30.0, size=20_000) - 30.0 * lattice
        got = wc.normality_diagnostics(x, 30.0 * lattice ** 2, lattice=lattice,
                                       rng=np.random.default_rng(9))["ks_p"]
        dithered = x + np.random.default_rng(9).uniform(-0.5 * lattice, 0.5 * lattice,
                                                        size=x.size)
        assert abs(got - kstest_p(dithered, 30.0 * lattice ** 2)) <= 1e-12
