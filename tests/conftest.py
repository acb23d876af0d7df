import numpy as np
import pytest
from scipy import stats as spstats

import walkcurrent as wc


@pytest.fixture(scope="session")
def drift_kernel():
    return wc.validate_kernel({1: 0.7, -1: 0.3})


@pytest.fixture(scope="session")
def pure_right_kernel():
    return wc.validate_kernel({1: 1.0})


@pytest.fixture(scope="session")
def wide_kernel():
    return wc.validate_kernel({2: 0.5, -1: 0.5})


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def lattice_chisquare(samples, support, probs, min_expected=5.0):
    """Chi-square p-value of integer samples against an exact lattice pmf.

    Folds out-of-range samples into the edge bins, then greedily merges
    adjacent bins left to right so every tested bin carries at least
    min_expected expected counts.
    """
    samples = np.asarray(samples)
    support = np.asarray(support)
    probs = np.asarray(probs, float)
    n = samples.size
    obs = np.array([(samples == v).sum() for v in support], float)
    obs[0] += (samples < support[0]).sum()
    obs[-1] += (samples > support[-1]).sum()
    exp = probs * n

    bins_obs, bins_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            bins_obs.append(acc_o)
            bins_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_o > 0.0 or acc_e > 0.0:
        bins_obs[-1] += acc_o
        bins_exp[-1] += acc_e
    obs_arr = np.asarray(bins_obs)
    exp_arr = np.asarray(bins_exp)
    exp_arr = exp_arr * (obs_arr.sum() / exp_arr.sum())
    return spstats.chisquare(obs_arr, exp_arr).pvalue


def lattice_two_sample(a, b, min_expected=5.0):
    """Chi-square homogeneity p-value of two integer samples.

    Counts both samples on their common integer range, then greedily merges
    adjacent values left to right so every tested cell of the 2 x bins
    table carries at least min_expected expected counts.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    values = np.arange(min(a.min(), b.min()), max(a.max(), b.max()) + 1)
    counts = np.array([[(a == v).sum() for v in values],
                       [(b == v).sum() for v in values]], float)
    share = min(a.size, b.size) / (a.size + b.size)
    bins = []
    acc = np.zeros(2)
    for col in counts.T:
        acc = acc + col
        if acc.sum() * share >= min_expected:
            bins.append(acc)
            acc = np.zeros(2)
    if acc.sum() > 0.0:
        bins[-1] = bins[-1] + acc
    return spstats.chi2_contingency(np.array(bins).T, correction=False).pvalue


def site_class_laws(table):
    """pi_m(c) rebuilt from a non-Poisson class table: site m's move
    probability times the steps of its cumulative conditional class law."""
    return table.move[:, None] * np.diff(table.cdf, axis=1, prepend=0.0)
