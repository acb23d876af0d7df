"""Streaming ensemble estimators and comparison reports.

Accumulators hold single-pass stable means and centered second cross-moments
over a fixed list of grid points; merging two accumulators is exact (Chan's
parallel update), so replica batches can be combined in any partition while
agreeing to float round-off.  Reports compare empirical moments against the
analytic limit covariance with jackknife-over-batches standard errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import stats as spstats

from .errors import GridMismatchError, InsufficientReplicasError
from .gaussian import LimitCovariance, limit_cov_matrix


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
        """Fold in one replica's vector of scaled currents."""
        x = np.asarray(x, float).ravel()
        if x.size != self.mean.size:
            raise GridMismatchError(
                f"field has {x.size} points, accumulator has {self.mean.size}")
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.comoment += np.outer(delta, x - self.mean)
        np.minimum(self.low, x, out=self.low)
        np.maximum(self.high, x, out=self.high)

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
        if self.count < 2:
            raise InsufficientReplicasError("need at least 2 replicas for a covariance")
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


def _jackknife_se(full_stat: np.ndarray, loo_stats: Sequence[np.ndarray]) -> np.ndarray:
    B = len(loo_stats)
    arr = np.stack(loo_stats)
    bar = arr.mean(axis=0)
    return np.sqrt((B - 1) / B * np.sum((arr - bar) ** 2, axis=0))


@dataclass(frozen=True)
class ComparisonRow:
    point_a: Tuple[float, float]
    point_b: Tuple[float, float]
    empirical: float
    analytic: float
    std_error: float
    z_score: float


@dataclass(frozen=True)
class ComparisonReport:
    rows: Tuple[ComparisonRow, ...]
    max_abs_z: float
    frac_within_3: float


def covariance_report(batches: Sequence[EnsembleAccumulator],
                      params: LimitCovariance,
                      points: Sequence[Tuple[float, float]]) -> ComparisonReport:
    """Empirical vs analytic covariance for every point pair, with jackknife
    standard errors over the replica batches."""
    if len(batches) < 2:
        raise InsufficientReplicasError("covariance report needs >= 2 batches")
    total = merge_accumulators(batches)
    if total.count < 100:
        raise InsufficientReplicasError("covariance report needs >= 100 replicas")
    emp = total.cov()
    ana = limit_cov_matrix(params, points)
    loo = [a.cov() for a in _leave_one_out(batches)]
    se = _jackknife_se(emp, loo)
    rows = []
    p = len(points)
    for i in range(p):
        for j in range(i, p):
            s = se[i, j] if se[i, j] > 0 else np.nan
            z = (emp[i, j] - ana[i, j]) / s
            rows.append(ComparisonRow(point_a=tuple(points[i]), point_b=tuple(points[j]),
                                      empirical=float(emp[i, j]), analytic=float(ana[i, j]),
                                      std_error=float(s), z_score=float(z)))
    zs = np.array([abs(r.z_score) for r in rows])
    return ComparisonReport(rows=tuple(rows), max_abs_z=float(np.nanmax(zs)),
                            frac_within_3=float(np.mean(zs <= 3.0)))


@dataclass(frozen=True)
class MeanRow:
    point: Tuple[float, float]
    mean: float
    std_error: float
    ratio: float


@dataclass(frozen=True)
class MeanReport:
    rows: Tuple[MeanRow, ...]
    max_ratio: float


def mean_report(batches: Sequence[EnsembleAccumulator],
                points: Sequence[Tuple[float, float]]) -> MeanReport:
    """|mean| / SE per point, for the null that the scaled mean vanishes."""
    if len(batches) < 2:
        raise InsufficientReplicasError("mean report needs >= 2 batches")
    total = merge_accumulators(batches)
    if total.count < 100:
        raise InsufficientReplicasError("mean report needs >= 100 replicas")
    se = np.sqrt(np.diag(total.cov()) / total.count)
    rows = []
    for k, pt in enumerate(points):
        s = se[k]
        ratio = abs(total.mean[k]) / s if s > 0 else (0.0 if total.mean[k] == 0 else np.inf)
        rows.append(MeanRow(point=tuple(pt), mean=float(total.mean[k]),
                            std_error=float(s), ratio=float(ratio)))
    return MeanReport(rows=tuple(rows), max_ratio=float(max(r.ratio for r in rows)))


def scaling_exponent(t_values: Sequence[float],
                     variances: Sequence[float]) -> Tuple[float, float]:
    """Least-squares slope of log variance against log time, with its SE."""
    t = np.asarray(t_values, float)
    v = np.asarray(variances, float)
    if t.size < 4:
        raise InsufficientReplicasError("scaling fit needs >= 4 distinct times")
    x = np.log(t)
    y = np.log(v)
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    resid = y - y.mean() - slope * xc
    dof = t.size - 2
    stderr = float(math.sqrt(max(np.dot(resid, resid), 0.0) / dof / np.dot(xc, xc)))
    return slope, stderr


@dataclass(frozen=True)
class NormalityReport:
    skewness: float
    excess_kurtosis: float
    ks_p: float


def normality_diagnostics(samples: np.ndarray, analytic_var: float,
                          lattice: Optional[float] = None,
                          rng: Optional[np.random.Generator] = None) -> NormalityReport:
    """Moment diagnostics plus a KS test against Normal(0, analytic_var).

    `lattice` is the spacing of lattice-valued samples; when given, samples
    are dithered by Uniform(-lattice/2, lattice/2) so the KS statistic
    measures distance from the normal law rather than raw discreteness.
    """
    x = np.asarray(samples, float)
    if x.size < 10_000:
        raise InsufficientReplicasError("normality diagnostics need >= 1e4 samples")
    m = x.mean()
    c = x - m
    m2 = np.mean(c ** 2)
    skew = float(np.mean(c ** 3) / m2 ** 1.5)
    kurt = float(np.mean(c ** 4) / m2 ** 2 - 3.0)
    if lattice is not None:
        if rng is None:
            rng = np.random.default_rng(0)
        x = x + rng.uniform(-0.5 * lattice, 0.5 * lattice, size=x.size)
    ks = spstats.kstest(x, "norm", args=(0.0, math.sqrt(analytic_var)))
    return NormalityReport(skewness=skew, excess_kurtosis=kurt, ks_p=float(ks.pvalue))
