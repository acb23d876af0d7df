"""Jump kernels for continuous-time lattice random walks.

A walk jumps at unit rate; each jump displaces by an integer offset drawn
from a finitely supported probability kernel.  This module validates
kernels, samples displacements two independent ways (a compound-Poisson
shortcut and an event-driven reference), computes the exact displacement
pmf by convolution, and produces rigorous Chernoff tail bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np
from scipy import stats

from .errors import (
    NegativeWeightError,
    TruncationBudgetError,
    UnboundedSupportError,
    UnsortedTimesError,
    ZeroMassError,
)

# exp(theta*x) overflows fast; bounds are valid for every theta, so capping
# the search range only loosens, never breaks, the bound
MGF_THETA_CAP = 50.0
CHERNOFF_GRID = 256
PMF_LENGTH_CAP = 50_000_000


@dataclass(frozen=True, eq=False)
class JumpKernel:
    """A validated, finitely supported jump distribution.

    offsets / probs are aligned arrays (offsets strictly increasing, probs
    summing to 1).  v is the mean jump per unit time, kappa2 the second
    moment; both are in lattice units.
    """

    offsets: np.ndarray
    probs: np.ndarray
    v: float
    kappa2: float
    mgf_radius: float

    def as_dict(self) -> dict[int, float]:
        return {int(o): float(p) for o, p in zip(self.offsets, self.probs)}

    def log_mgf(self, theta):
        """log E exp(theta * xi) for a single jump xi; theta may be an array."""
        theta = np.asarray(theta, float)
        ext = theta[..., None] * self.offsets
        m = np.max(ext, axis=-1, keepdims=True)
        return (np.log(np.sum(self.probs * np.exp(ext - m), axis=-1)) + m[..., 0])[()]


def validate_kernel(raw: Mapping[int, float]) -> JumpKernel:
    """Normalize a mapping offset -> weight into a JumpKernel.

    Raises NegativeWeightError, ZeroMassError, or UnboundedSupportError when
    the input cannot define a finitely supported probability kernel.
    """
    if not raw:
        raise ZeroMassError("kernel needs at least one offset")
    offsets = []
    weights = []
    for off, w in raw.items():
        o = int(off)
        if o != off:
            raise UnboundedSupportError(f"offset {off!r} is not an integer")
        w = float(w)
        if not math.isfinite(w):
            raise UnboundedSupportError(f"weight for offset {o} is not finite")
        if w < 0.0:
            raise NegativeWeightError(f"weight for offset {o} is negative")
        if w > 0.0:
            offsets.append(o)
            weights.append(w)
    if not offsets:
        raise ZeroMassError("all kernel weights are zero")
    order = np.argsort(offsets)
    offsets = np.asarray(offsets, np.int64)[order]
    weights = np.asarray(weights, float)[order]
    probs = weights / weights.sum()
    v = float(np.sum(offsets * probs))
    kappa2 = float(np.sum(offsets.astype(float) ** 2 * probs))
    return JumpKernel(offsets=offsets, probs=probs, v=v, kappa2=kappa2,
                      mgf_radius=MGF_THETA_CAP)


def sample_displacement(kernel: JumpKernel, tau: float, rng: np.random.Generator,
                        size: Optional[int] = None):
    """Displacement of the walk after running for time tau.

    Exact sampler: the jump process is a marked Poisson process, so the
    number of jumps of each offset over [0, tau] are independent
    Poisson(tau * p(offset)) counts.  Marginally this is the Poisson(tau)
    mixture of kernel convolutions.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError("tau must be finite and nonnegative")
    if size is None:
        counts = rng.poisson(tau * kernel.probs)
        return int(np.dot(kernel.offsets, counts))
    out = np.zeros(int(size), np.int64)
    for off, p in zip(kernel.offsets, kernel.probs):
        out += off * rng.poisson(tau * p, size=int(size))
    return out


def sample_increments(kernel: JumpKernel, times, rng: np.random.Generator,
                      size: Optional[int] = None):
    """Walk positions (started at 0) at each of the given ascending times.

    With `size` set, returns an array of shape (len(times), size): `size`
    independent walks sharing the time grid.
    """
    times = np.asarray(times, float)
    if times.ndim != 1 or times.size == 0:
        raise UnsortedTimesError("times must be a nonempty 1-d array")
    if times[0] < 0.0 or np.any(np.diff(times) < 0.0):
        raise UnsortedTimesError("times must be ascending and start at >= 0")
    scalar = size is None
    m = 1 if scalar else int(size)
    pos = np.zeros(m, np.int64)
    out = np.empty((times.size, m), np.int64)
    prev = 0.0
    for k, t in enumerate(times):
        gap = float(t) - prev
        prev = float(t)
        if gap > 0.0:
            pos = pos + sample_displacement(kernel, gap, rng, size=m)
        out[k] = pos
    return out[:, 0] if scalar else out


def gillespie_displacement(kernel: JumpKernel, tau: float, rng: np.random.Generator,
                           size: Optional[int] = None):
    """Event-driven displacement: explicit Exp(1) holding times, then jumps.

    Independent of the compound-Poisson shortcut in sample_displacement;
    used as a distributional oracle in tests.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError("tau must be finite and nonnegative")
    scalar = size is None
    m = 1 if scalar else int(size)
    if tau == 0.0:
        out = np.zeros(m, np.int64)
        return int(out[0]) if scalar else out

    # enough exponential holding times to cover [0, tau] except with
    # probability ~1e-20; stragglers are finished one event at a time
    chunk = int(tau + 10.0 * math.sqrt(tau + 1.0) + 30.0)
    jumps_per_draw = np.empty(m, np.int64)
    batch = max(1, int(2e7 / chunk))
    for lo in range(0, m, batch):
        hi = min(m, lo + batch)
        holds = rng.exponential(size=(hi - lo, chunk))
        cum = np.cumsum(holds, axis=1)
        jumps_per_draw[lo:hi] = (cum < tau).sum(axis=1)
        for i in np.nonzero(cum[:, -1] < tau)[0]:
            t_acc = cum[i, -1]
            n = chunk
            while True:
                t_acc += rng.exponential()
                if t_acc >= tau:
                    break
                n += 1
            jumps_per_draw[lo + i] = n
    total = int(jumps_per_draw.sum())
    jump_values = rng.choice(kernel.offsets, size=total, p=kernel.probs)
    owner = np.repeat(np.arange(m), jumps_per_draw)
    disp = np.bincount(owner, weights=jump_values, minlength=m).astype(np.int64)
    return int(disp[0]) if scalar else disp


@dataclass(frozen=True, eq=False)
class LatticePmf:
    """Pmf of an integer variable on offset_min .. offset_min+len(masses)-1.

    `deficit` is the truncation budget.  A walk pmf drops its Poisson
    jump-count tail, so its masses sum to 1 - deficit.  A current pmf drops
    the per-site Poisson occupancy tails, and its deficit adds those to the
    deficit of the walk pmf it was built from.
    """

    offset_min: int
    masses: np.ndarray
    deficit: float

    def support(self) -> np.ndarray:
        return np.arange(self.offset_min, self.offset_min + self.masses.size)

    def mean(self) -> float:
        return float(np.dot(self.support(), self.masses))

    def var(self) -> float:
        s = self.support().astype(float)
        m = self.mean()
        return float(np.dot((s - m) ** 2, self.masses))

    def cdf(self, k):
        """P(X <= k); truncated mass is excluded, making this a lower bound."""
        k = np.asarray(k)
        cum = np.concatenate(([0.0], np.cumsum(self.masses)))
        idx = np.clip(k - self.offset_min + 1, 0, self.masses.size)
        return cum[idx][()]

    def sf(self, k):
        """P(X > k), summed from the top so small tails keep precision."""
        k = np.asarray(k)
        rev = np.concatenate(([0.0], np.cumsum(self.masses[::-1])))[::-1]
        idx = np.clip(k - self.offset_min + 1, 0, self.masses.size)
        return rev[idx][()]

    def tail_geq(self, k: int) -> float:
        """P(X >= k) for one k, summed over the masses from k up."""
        idx = max(0, int(k) - self.offset_min)
        return float(self.masses[idx:].sum())


def walk_pmf(kernel: JumpKernel, tau: float, mass_tol: float = 1e-12) -> LatticePmf:
    """Exact displacement pmf at time tau by Poisson-weighted convolution.

    The jump count is truncated at the smallest J whose Poisson(tau) tail is
    below mass_tol; the dropped mass is reported as the deficit.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError("tau must be finite and nonnegative")
    if not (0.0 < mass_tol < 1e-6):
        raise ValueError("mass_tol must lie in (0, 1e-6)")
    if tau == 0.0:
        return LatticePmf(offset_min=0, masses=np.array([1.0]), deficit=0.0)

    j_max = int(stats.poisson.isf(mass_tol, tau)) + 1
    while stats.poisson.sf(j_max, tau) >= mass_tol:
        j_max += 1
    while j_max > 0 and stats.poisson.sf(j_max - 1, tau) < mass_tol:
        j_max -= 1
    off_lo = int(kernel.offsets[0])
    off_hi = int(kernel.offsets[-1])
    length = (off_hi - off_lo) * j_max + 1
    if length > PMF_LENGTH_CAP:
        raise TruncationBudgetError(
            f"pmf support of {length} values exceeds the cap {PMF_LENGTH_CAP}")

    weights = stats.poisson.pmf(np.arange(j_max + 1), tau)
    deficit = float(stats.poisson.sf(j_max, tau))

    # dense single-jump pmf over off_lo..off_hi (holes stay zero)
    kvec = np.zeros(off_hi - off_lo + 1)
    kvec[kernel.offsets - off_lo] = kernel.probs

    total_min = min(0, off_lo * j_max)
    total_max = max(0, off_hi * j_max)
    acc = np.zeros(total_max - total_min + 1)
    acc[-total_min] += weights[0]
    cur = np.array([1.0])  # j-fold convolution, support j*off_lo .. j*off_hi
    for j in range(1, j_max + 1):
        cur = np.convolve(cur, kvec)
        start = j * off_lo - total_min
        acc[start:start + cur.size] += weights[j] * cur

    nz = np.nonzero(acc)[0]
    lo, hi = int(nz[0]), int(nz[-1])
    return LatticePmf(offset_min=total_min + lo, masses=acc[lo:hi + 1], deficit=deficit)


def chernoff_log_tail(kernel: JumpKernel, tau: float, deltas) -> np.ndarray:
    """log of a two-sided Chernoff bound on P(|X(tau) - v*tau| >= delta).

    Minimizes exp(tau*(M(+-theta)-1) -+ theta*v*tau - theta*delta) over a
    fixed log-spaced theta grid; every grid point gives a valid bound, so
    the minimum does too.  Not capped at log(1); callers cap as needed.
    """
    deltas = np.atleast_1d(np.asarray(deltas, float))
    theta = np.logspace(-4, math.log10(kernel.mgf_radius), CHERNOFF_GRID)
    mg_plus = np.sum(kernel.probs * np.exp(np.outer(theta, kernel.offsets)), axis=1)
    mg_minus = np.sum(kernel.probs * np.exp(np.outer(-theta, kernel.offsets)), axis=1)
    base_hi = tau * (mg_plus - 1.0) - theta * kernel.v * tau   # log E e^{th(X-v tau)}
    base_lo = tau * (mg_minus - 1.0) + theta * kernel.v * tau  # log E e^{-th(X-v tau)}
    ext = theta[None, :] * deltas[:, None]
    hi = np.min(base_hi[None, :] - ext, axis=1)
    lo = np.min(base_lo[None, :] - ext, axis=1)
    return np.logaddexp(hi, lo)


def chernoff_tail(kernel: JumpKernel, tau: float, delta: int) -> float:
    """Rigorous upper bound on P(|X(tau) - v*tau| >= delta), capped at 1."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return float(min(1.0, math.exp(chernoff_log_tail(kernel, tau, [float(delta)])[0])))
