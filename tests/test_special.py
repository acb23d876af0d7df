"""The package's numpy ports of special functions against scipy.

walkcurrent needs no scipy at run time: the normal CDF and its logarithm,
the bivariate normal CDF, the one-sided Kolmogorov-Smirnov tail, logsumexp,
log_expit and the binomial pmf are numpy code in the modules that use them.
scipy stays the oracle here.  The Poisson window tail is checked in
test_kernel.py's TestPoissonWindow, against the incomplete gamma function.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import special
from scipy import stats as spstats

import quad_oracles
from test_ks import SF_CASES, ks_branch
from walkcurrent.ldp import log_expit
from walkcurrent.normal import bvn_cdf, log_ndtr, ndtr, smirnov
from walkcurrent.occupancy import logsumexp
from walkcurrent.simulate import _finite_site_pmfs


def assert_relative(got, want, rtol):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    both = ~np.isnan(want)
    assert np.all(np.abs(got[both] - want[both]) <= rtol * np.abs(want[both]))


class TestNdtr:
    def test_matches_scipy(self):
        x = np.linspace(-38.0, 9.0, 200_001)
        assert_relative(ndtr(x), special.ndtr(x), 1e-14)

    def test_branch_edges(self):
        # around |x| = 1 (erf to erfc), sqrt 2 and 8 sqrt 2 (erfc's two
        # rational forms), and the underflow of exp(-x^2 / 2)
        edges = np.array([1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.5, 37.7, 38.5])
        x = np.concatenate([edges, -edges])[:, None] * (1.0 + np.linspace(-1e-9, 1e-9, 21))
        assert_relative(ndtr(x), special.ndtr(x), 1e-14)

    def test_special_values(self):
        # -20 and -30 take erfc's far form beside the NaN of their block
        x = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 40.0, -40.0,
                      -20.0, -30.0])
        got = ndtr(x)
        assert np.array_equal(got, special.ndtr(x), equal_nan=True)
        assert got[0] == got[1] == 0.5 and got[2] == 1.0 and got[3] == 0.0

    def test_shapes(self):
        assert ndtr(0.3) == special.ndtr(0.3)
        assert ndtr(np.zeros((2, 3))).shape == (2, 3)


class TestLogNdtr:
    def test_matches_scipy(self):
        x = np.concatenate([np.linspace(-1e3, 40.0, 200_001), -np.logspace(-3.0, 3.0, 10_001),
                            [-20.0, -1.0, 0.0, 6.0]])
        want = special.log_ndtr(x)
        assert_relative(log_ndtr(x), want, 1e-14)
        assert np.array_equal(log_ndtr(x) == 0.0, want == 0.0)

    def test_special_values(self):
        got = log_ndtr(np.array([np.inf, -np.inf, np.nan]))
        assert got[0] == 0.0 and got[1] == -np.inf and np.isnan(got[2])


class TestBivariateNormal:
    """Genz's method against the Owen's-T identity, to 1e-15 absolute."""

    @pytest.mark.parametrize("rho", [0.0, 0.2, -0.29, 0.3, -0.6, 0.74, 0.75, -0.9, 0.924,
                                     0.925, -0.925, 0.95, -0.99, 0.999, -0.9999])
    def test_scalar_rho(self, rho):
        rng = np.random.default_rng(int(abs(rho) * 1e4))
        h, k = rng.uniform(-9.0, 9.0, (2, 300))
        # near the diagonals, where the strong-correlation terms cancel most
        h[:50] = k[:50] + rng.normal(0.0, 0.01, 50)
        h[50:100] = -k[50:100] + rng.normal(0.0, 0.01, 50)
        got = bvn_cdf(h, k, rho)
        want = [quad_oracles.bvn_cdf(a, b, rho) for a, b in zip(h, k)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)

    def test_per_point_rho(self):
        rng = np.random.default_rng(5)
        h, k = rng.uniform(-9.0, 9.0, (2, 2000))
        rho = rng.uniform(-0.9999, 0.9999, 2000)
        rho[:300] = rng.choice([-1.0, 1.0, 0.3, 0.75, 0.925], 300)
        got = bvn_cdf(h, k, rho)
        want = [quad_oracles.bvn_cdf(*p) for p in zip(h, k, rho)]
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        # one correlation per row, broadcast along it
        rows = bvn_cdf(h.reshape(40, 50), k.reshape(40, 50), rho[:40, None])
        np.testing.assert_array_equal(rows[7], bvn_cdf(h[350:400], k[350:400], rho[7]))

    def test_infinite_limits(self):
        # an infinite limit leaves the other margin, or nothing
        for rho in (0.0, 0.5, -0.95, 0.99):
            assert bvn_cdf(np.inf, 1.0, rho) == bvn_cdf(1.0, np.inf, rho) == special.ndtr(1.0)
            assert bvn_cdf(np.inf, np.inf, rho) == 1.0
            assert bvn_cdf(-np.inf, 1.0, rho) == bvn_cdf(2.0, -np.inf, rho) == 0.0


class TestSmirnov:
    def test_ks_cases(self):
        rng = np.random.default_rng(11)
        cases = list(SF_CASES)
        for _ in range(100):  # test_ks's random points
            n = int(10 ** rng.uniform(np.log10(141), 4.5))
            d = rng.uniform(0.0, 3.0 / np.sqrt(n)) if rng.random() < 0.8 else rng.random()
            cases.append((n, d))
        cases = [(n, d) for n, d in cases if ks_branch(n, d) in ("smirnov", "smirnov-half")]
        assert len(cases) >= 30
        for n, d in cases:
            assert abs(smirnov(n, d) - special.smirnov(n, d)) <= 1e-12

    @pytest.mark.parametrize("n", [141, 1000, 10_000, 100_000])
    def test_large_n(self, n):
        # from n d^2 = 2.2, where kolmogorov_sf starts to use it, to d near 1
        for d in np.concatenate([math.sqrt(2.2 / n) * np.array([1.0, 1.5, 3.0]),
                                 [0.5, 0.9, 1.0 - 1.5 / n]]):
            assert abs(smirnov(n, d) - special.smirnov(n, d)) <= 1e-12


class TestLogsumexp:
    def test_weights_and_axis(self):
        rng = np.random.default_rng(9)
        a = rng.normal(0.0, 30.0, (40, 7))
        b = rng.uniform(0.0, 2.0, 7)
        for axis in (-1, 0, None):
            assert_relative(logsumexp(a, b=np.broadcast_to(b, a.shape), axis=axis),
                            special.logsumexp(a, b=np.broadcast_to(b, a.shape), axis=axis),
                            1e-15)
        lw = rng.normal(-50.0, 10.0, 5000)
        assert logsumexp(lw) == pytest.approx(special.logsumexp(lw), rel=1e-15)

    def test_occupancy_log_mgf_pattern(self):
        # theta * values against the law's probabilities, as the custom law
        # forms them; ties at theta = 0 and a zero weight included
        theta = np.linspace(-40.0, 40.0, 161)[:, None]
        values = np.array([0.0, 2.0, 3.0, 7.0])
        probs = np.array([0.4, 0.0, 0.35, 0.25])
        assert_relative(logsumexp(theta * values, b=probs, axis=-1),
                        special.logsumexp(theta * values, b=probs, axis=-1), 1e-15)


def test_log_expit():
    x = np.concatenate([np.linspace(-800.0, 800.0, 100_001), [0.0, -0.0, 1e-300, -1e-300]])
    assert_relative(log_expit(x), special.log_expit(x), 1e-15)


class TestBinomialPmf:
    LAWS = [([1], [1.0]), ([2], [1.0]), ([0, 2], [0.5, 0.5]), ([1, 3, 7], [0.2, 0.3, 0.5])]

    @pytest.mark.parametrize("values, probs", LAWS)
    def test_matches_scipy(self, values, probs):
        rng = np.random.default_rng(4)
        p = np.concatenate([rng.uniform(0.0, 1.0, 200), [1.0, 1e-3, 1.0 - 1e-6, 0.5]])
        values, probs = np.array(values), np.array(probs)
        got = _finite_site_pmfs(values, probs, p)
        binom = spstats.binom.pmf(np.arange(values[-1] + 1), values[:, None, None], p[:, None])
        want = np.einsum("v,vmc->mc", probs, binom)
        want /= np.array([math.fsum(row) for row in want])[:, None]
        assert np.array_equal(got == 0.0, want == 0.0)
        live = want > 1e-300
        assert np.all(np.abs(got[live] - want[live]) <= 1e-14 * want[live])

    def test_exact_at_larger_counts(self):
        # scipy's own pmf drifts to 2e-14 here; exact rationals do not
        p = np.array([0.39122819049566204, 0.03, 0.5, 0.97])
        got = _finite_site_pmfs(np.array([12]), np.array([1.0]), p)
        for row, pm in zip(got, p):
            q = Fraction(pm)
            exact = [math.comb(12, j) * q ** j * (1 - q) ** (12 - j) for j in range(13)]
            assert np.all(np.abs(row - np.array([float(e) for e in exact]))
                          <= 1e-15 * np.array([float(e) for e in exact]))
