"""Every quadrature value depends only on its own inputs: a point's value has
the same bits whether it is computed alone, inside a batch or inside a
shuffled batch.  That is what lets the kernels pick their block sizes for
speed alone, and what makes a report's values independent of which other
points share its calls."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import walkcurrent as wc
from walkcurrent import ldp
from walkcurrent.normal import bvn_cdf, bvn_cov, mvn_cdf_3

# |rho| in every bracket of Genz's rule (below 0.3, 0.75 and 0.925, then
# the strong-correlation form) and the degenerate +-1
RHOS = [-1.0, -0.99, -0.93, -0.8, -0.5, -0.2, 0.0, 0.2, 0.5, 0.8, 0.93, 0.99, 1.0]
limits = st.one_of(st.just(0.0), st.sampled_from([-np.inf, np.inf]), st.floats(-9.0, 9.0))
rhos = st.one_of(st.sampled_from(RHOS), st.floats(-1.0, 1.0))
seeds = st.integers(0, 2**32 - 1)


def assert_batch_invariant(f, columns, seed, shared=()):
    """f(*columns, *shared) equals, bit for bit, f at each point alone (as
    scalars) and f at a shuffled copy of the points."""
    columns = [np.array(c, float) for c in columns]
    batch = f(*columns, *shared)
    perm = np.random.default_rng(seed).permutation(batch.size)
    np.testing.assert_array_equal(f(*(c[perm] for c in columns), *shared), batch[perm])
    for i, want in enumerate(batch):
        assert f(*(float(c[i]) for c in columns), *shared) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(limits, limits, rhos), min_size=1, max_size=40), seeds)
def test_bvn_per_point_rho(points, seed):
    for f in (bvn_cdf, bvn_cov):
        assert_batch_invariant(f, zip(*points), seed)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(limits, limits), min_size=1, max_size=40), rhos, seeds)
def test_bvn_shared_rho(points, rho, seed):
    for f in (bvn_cdf, bvn_cov):
        assert_batch_invariant(f, zip(*points), seed, shared=(rho,))


def brownian_cov(steps):
    times = np.cumsum(steps)
    return np.minimum.outer(times, times)


# Brownian covariances at three ascending times; a short gap makes the
# integrand steep, so that some points double their panels
gaps = st.one_of(st.floats(0.01, 2.0), st.just(0.001))
trivariate_covs = st.tuples(st.floats(0.1, 2.0), gaps, gaps).map(brownian_cov)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=3),
                min_size=1, max_size=12), trivariate_covs, seeds)
def test_trivariate(upper, cov, seed):
    upper = np.array(upper)
    batch = mvn_cdf_3(upper, cov)
    perm = np.random.default_rng(seed).permutation(len(upper))
    np.testing.assert_array_equal(mvn_cdf_3(upper[perm], cov), batch[perm])
    for u, want in zip(upper, batch):
        assert mvn_cdf_3(u, cov) == want


times = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
places = st.floats(-2.0, 2.0)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(times, places, times, places), min_size=1, max_size=30),
       st.floats(0.3, 2.0), seeds)
def test_covariance_quadratures(points, kappa2, seed):
    for f in (wc.dynamic_cov_quadrature, wc.initial_cov_quadrature):
        assert_batch_invariant(f, zip(*points), seed, shared=(kappa2,))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.0, 14.0), min_size=1, max_size=12),
       st.sampled_from([tuple((i >> j) & 1 for j in range(3)) for i in range(1, 8)]),
       st.booleans(), seeds)
def test_pattern_orthant_prob_at_three_times(x, pattern, invert, seed):
    def prob(x):
        return ldp._pattern_orthant_prob(x, (0.5, 1.0, 2.0), pattern, 1.0, invert)

    assert_batch_invariant(prob, [x], seed)
