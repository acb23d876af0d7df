"""Streaming ensemble estimators and comparison reports.

Accumulators hold single-pass stable means and centered second cross-moments
over a fixed list of grid points; merging two accumulators is exact (Chan's
parallel update), so replica batches can be combined in any partition while
agreeing to float round-off.  Reports compare empirical moments against the
analytic limit covariance with jackknife-over-batches standard errors; each
is a plain dict, and its row dicts are the rows the experiments write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import GridMismatchError, InsufficientReplicasError
from .gaussian import LimitCovariance, limit_cov_matrix
from .normal import kolmogorov_sf, ndtr

# The smallest inputs the estimators accept; load_config checks the same
# numbers, so that a config too small for its command fails before any
# compute.
MIN_COV_REPLICAS = 2  # a sample covariance
MIN_REPORT_REPLICAS = 100  # the covariance and mean reports
MIN_NORMALITY_SAMPLES = 10_000  # the normality diagnostics
MIN_SCALING_TIMES = 4  # the variance-growth fit


@dataclass
class EnsembleAccumulator:
    """Count, mean vector, centered cross-moment matrix, min/max per point."""

    count: int
    mean: np.ndarray
    comoment: np.ndarray
    low: np.ndarray
    high: np.ndarray

    @classmethod
    def empty(cls, npoints: int) -> "EnsembleAccumulator":
        return cls(count=0,
                   mean=np.zeros(npoints),
                   comoment=np.zeros((npoints, npoints)),
                   low=np.full(npoints, np.inf),
                   high=np.full(npoints, -np.inf))

    def add(self, x: np.ndarray) -> None:
        """Fold in one replica's vector of scaled currents: a batch of one."""
        self.add_batch(np.asarray(x, float).reshape(1, -1))

    def add_batch(self, rows: np.ndarray) -> None:
        """Fold in a batch of replica vectors, one per row: the batch's own
        mean and comoment, then the Chan merge."""
        x = np.asarray(rows, float)
        if x.ndim != 2 or x.shape[1] != self.mean.size:
            raise GridMismatchError(
                f"batch has shape {x.shape}, accumulator has {self.mean.size} points")
        if not x.shape[0]:
            return
        mean = x.mean(axis=0)
        dev = x - mean
        merged = self.merge(EnsembleAccumulator(count=x.shape[0], mean=mean,
                                                comoment=dev.T @ dev,
                                                low=x.min(axis=0), high=x.max(axis=0)))
        self.count, self.mean, self.comoment = merged.count, merged.mean, merged.comoment
        self.low, self.high = merged.low, merged.high

    def merge(self, other: "EnsembleAccumulator") -> "EnsembleAccumulator":
        """Combine two disjoint accumulations; associative and commutative
        up to round-off."""
        if other.mean.size != self.mean.size:
            raise GridMismatchError("cannot merge accumulators on different grids")
        if self.count == 0:
            return other.copy()
        if other.count == 0:
            return self.copy()
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / n)
        com = (self.comoment + other.comoment
               + np.outer(delta, delta) * (self.count * other.count / n))
        return EnsembleAccumulator(count=n, mean=mean, comoment=com,
                                   low=np.minimum(self.low, other.low),
                                   high=np.maximum(self.high, other.high))

    def copy(self) -> "EnsembleAccumulator":
        return EnsembleAccumulator(count=self.count, mean=self.mean.copy(),
                                   comoment=self.comoment.copy(),
                                   low=self.low.copy(), high=self.high.copy())

    def cov(self) -> np.ndarray:
        if self.count < MIN_COV_REPLICAS:
            raise InsufficientReplicasError(
                f"need at least {MIN_COV_REPLICAS} replicas for a covariance")
        return self.comoment / (self.count - 1)


def merge_accumulators(batches: Sequence[EnsembleAccumulator]) -> EnsembleAccumulator:
    total = batches[0].copy()
    for b in batches[1:]:
        total = total.merge(b)
    return total


def _leave_one_out(batches: Sequence[EnsembleAccumulator]):
    """Merged accumulator with each batch removed, via prefix/suffix merges."""
    B = len(batches)
    prefix = [None] * (B + 1)
    suffix = [None] * (B + 1)
    prefix[0] = EnsembleAccumulator.empty(batches[0].mean.size)
    suffix[B] = EnsembleAccumulator.empty(batches[0].mean.size)
    for i in range(B):
        prefix[i + 1] = prefix[i].merge(batches[i])
        suffix[B - 1 - i] = batches[B - 1 - i].merge(suffix[B - i])
    return [prefix[i].merge(suffix[i + 1]) for i in range(B)]


def _jackknife_se(loo_stats: Sequence[np.ndarray]) -> np.ndarray:
    B = len(loo_stats)
    arr = np.stack(loo_stats)
    bar = arr.mean(axis=0)
    return np.sqrt((B - 1) / B * np.sum((arr - bar) ** 2, axis=0))


def covariance_report(batches: Sequence[EnsembleAccumulator],
                      params: LimitCovariance,
                      points: Sequence[Tuple[float, float]]) -> dict:
    """Empirical vs analytic covariance for every point pair, with jackknife
    standard errors over the replica batches: the rows, each keyed (t_a,
    r_a, t_b, r_b, empirical, analytic, std_error, z_score), with the
    largest |z| and the share of |z| <= 3."""
    if len(batches) < 2:
        raise InsufficientReplicasError("covariance report needs >= 2 batches")
    total = merge_accumulators(batches)
    if total.count < MIN_REPORT_REPLICAS:
        raise InsufficientReplicasError(
            f"covariance report needs >= {MIN_REPORT_REPLICAS} replicas")
    emp = total.cov()
    ana = limit_cov_matrix(params, points)
    loo = [a.cov() for a in _leave_one_out(batches)]
    se = _jackknife_se(loo)
    rows = []
    p = len(points)
    for i in range(p):
        for j in range(i, p):
            diff = emp[i, j] - ana[i, j]
            # a pair that never varies (a t = 0 row) has SE 0: compare exactly
            z = diff / se[i, j] if se[i, j] > 0 else (0.0 if diff == 0 else math.inf)
            (t_a, r_a), (t_b, r_b) = points[i], points[j]
            rows.append({"t_a": t_a, "r_a": r_a, "t_b": t_b, "r_b": r_b,
                         "empirical": float(emp[i, j]), "analytic": float(ana[i, j]),
                         "std_error": float(se[i, j]), "z_score": float(z)})
    zs = np.array([abs(r["z_score"]) for r in rows])
    return {"rows": rows, "max_abs_z": float(np.max(zs)),
            "frac_within_3": float(np.mean(zs <= 3.0))}


def mean_report(batches: Sequence[EnsembleAccumulator],
                points: Sequence[Tuple[float, float]]) -> dict:
    """|mean| / SE per point, for the null that the scaled mean vanishes:
    the rows, each keyed (t, r, mean, std_error, ratio), with the largest
    ratio."""
    if len(batches) < 2:
        raise InsufficientReplicasError("mean report needs >= 2 batches")
    total = merge_accumulators(batches)
    if total.count < MIN_REPORT_REPLICAS:
        raise InsufficientReplicasError(
            f"mean report needs >= {MIN_REPORT_REPLICAS} replicas")
    se = np.sqrt(np.diag(total.cov()) / total.count)
    rows = []
    for k, (t, r) in enumerate(points):
        s = se[k]
        ratio = abs(total.mean[k]) / s if s > 0 else (0.0 if total.mean[k] == 0 else np.inf)
        rows.append({"t": t, "r": r, "mean": float(total.mean[k]),
                     "std_error": float(s), "ratio": float(ratio)})
    return {"rows": rows, "max_ratio": float(max(row["ratio"] for row in rows))}


def scaling_exponent(t_values: Sequence[float],
                     variances: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope of log variance against log time, with its SE.
    A variance that is not positive (too few replicas to vary) raises."""
    t = np.asarray(t_values, float)
    v = np.asarray(variances, float)
    if t.size < MIN_SCALING_TIMES:
        raise InsufficientReplicasError(
            f"scaling fit needs >= {MIN_SCALING_TIMES} distinct times")
    for ti, vi in zip(t.tolist(), v.tolist()):
        if not vi > 0.0:
            raise InsufficientReplicasError(
                f"scaling fit needs positive variances, got {vi!r} at t = {ti!r}")
    x = np.log(t)
    y = np.log(v)
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    resid = y - y.mean() - slope * xc
    dof = t.size - 2
    stderr = float(math.sqrt(max(np.dot(resid, resid), 0.0) / dof / np.dot(xc, xc)))
    return slope, stderr


def normality_diagnostics(samples: np.ndarray, analytic_var: float,
                          lattice: Optional[float] = None,
                          rng: Optional[np.random.Generator] = None) -> dict:
    """Moment diagnostics plus a KS test against Normal(0, analytic_var),
    keyed (skewness, excess_kurtosis, ks_p).

    `lattice` is the spacing of lattice-valued samples; when given, samples
    are dithered by Uniform(-lattice/2, lattice/2) so the KS statistic
    measures distance from the normal law rather than raw discreteness.
    The statistic D = max(D+, D-) is formed as `scipy.stats.ks_1samp` forms
    it and its p-value is `normal.kolmogorov_sf`, so `ks_p` is `kstest`'s
    (to 1e-12 where the one-sided tail decides it).
    """
    if not analytic_var > 0.0:
        raise ValueError(f"normality diagnostics need a positive variance, got {analytic_var!r}")
    x = np.asarray(samples, float)
    if x.size < MIN_NORMALITY_SAMPLES:
        raise InsufficientReplicasError(
            f"normality diagnostics need >= {MIN_NORMALITY_SAMPLES} samples")
    m = x.mean()
    c = x - m
    m2 = np.mean(c ** 2)
    skew = float(np.mean(c ** 3) / m2 ** 1.5)
    kurt = float(np.mean(c ** 4) / m2 ** 2 - 3.0)
    if lattice is not None:
        if rng is None:
            rng = np.random.default_rng(0)
        x = x + rng.uniform(-0.5 * lattice, 0.5 * lattice, size=x.size)
    cdf = ndtr(np.sort(x) / math.sqrt(analytic_var))
    n = cdf.size
    d = max(np.max(np.arange(1.0, n + 1) / n - cdf), np.max(cdf - np.arange(0.0, n) / n))
    return {"skewness": skew, "excess_kurtosis": kurt, "ks_p": kolmogorov_sf(n, d)}
