"""Jump kernels for continuous-time lattice random walks.

A walk jumps at unit rate; each jump displaces by an integer offset drawn
from a finitely supported probability kernel.  This module validates
kernels, samples displacements through the marking theorem (one Poisson
jump count per offset), computes the exact displacement pmf the same way,
and produces rigorous Chernoff tail bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .errors import (
    NegativeWeightError,
    TruncationBudgetError,
    UnboundedSupportError,
    ZeroMassError,
)
from .normal import stirling_remainder

# exp(theta*x) overflows fast; bounds are valid for every theta, so capping
# the search range only loosens, never breaks, the bound
MGF_THETA_CAP = 50.0
CHERNOFF_GRID = 256
# lines either side of the envelope's line whose minimum a distance takes
ENVELOPE_REACH = 3
PMF_LENGTH_CAP = 50_000_000
# total mass a walk pmf may drop
WALK_MASS_TOL = 1e-12


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
    return JumpKernel(offsets=offsets, probs=probs, v=v, kappa2=kappa2)


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


@dataclass(frozen=True, eq=False)
class LatticePmf:
    """Pmf of an integer variable on offset_min .. offset_min+len(masses)-1.

    `deficit` is the probability mass left out of `masses`, so
    masses.sum() + deficit == 1 up to rounding.  A walk pmf and a Poisson
    current pmf leave out the tails of their Poisson factors; a current pmf
    under a finite occupancy law leaves out nothing.  The package reads two
    sums of the masses: `cdf` gives each site's crossing probability, and
    `tail_geq` the exact tail that the tilted estimates are checked against.
    """

    offset_min: int
    masses: np.ndarray
    deficit: float

    def cdf(self, k):
        """P(X <= k); truncated mass is excluded, making this a lower bound."""
        k = np.asarray(k)
        cum = np.concatenate(([0.0], np.cumsum(self.masses)))
        idx = np.clip(k - self.offset_min + 1, 0, self.masses.size)
        return cum[idx][()]

    def tail_geq(self, k: int) -> float:
        """P(X >= k) for one k, summed over the masses from k up."""
        idx = max(0, int(k) - self.offset_min)
        return float(self.masses[idx:].sum())


def _poisson_pmf(k: int, mu: float) -> float:
    """Poisson(mu) mass at k, in Loader's saddle-point form (2000): exp(-bd0
    - stirling_remainder(k)) / sqrt(2 pi k), where the deviance bd0 = k
    log(k/mu) + mu - k is a series of positive terms in v = (k - mu)/(k +
    mu) while |v| < 1/2, so that no O(k) terms cancel."""
    if k == 0:
        return math.exp(-mu)
    v = (k - mu) / (k + mu)
    if abs(v) < 0.5:
        bd0 = (k - mu) * v
        term = 2.0 * k * v
        v2 = v * v
        j = 1
        while True:
            term *= v2
            nxt = bd0 + term / (2 * j + 1)
            if nxt == bd0:
                break
            bd0 = nxt
            j += 1
    else:
        bd0 = k * math.log(k / mu) + mu - k
    return math.exp(-bd0 - float(stirling_remainder(k))) / math.sqrt(2.0 * math.pi * k)


def _poisson_tail(start: int, mu: float, step: int) -> float:
    """P(N <= start) (step -1) or P(N >= start) (step +1) for N ~
    Poisson(mu), start on the far side of the mode: the masses summed
    outward from start by their ratio recurrence, until the geometric bound
    on the rest is below the last bit."""
    first = _poisson_pmf(start, mu)
    if first == 0.0:
        return 0.0
    ratio = start / mu if step < 0 else mu / (start + 1)  # the largest ratio
    if ratio <= 0.0:
        return first
    count = math.ceil(math.log(1e-17 * (1.0 - ratio)) / math.log(ratio)) + 1
    if step < 0:
        ks = np.arange(start, max(start - count, 0), -1)
        ratios = ks / mu
    else:
        ratios = mu / np.arange(start + 1, start + count + 1)
    return first * (1.0 + float(np.sum(np.cumprod(ratios))))


def _poisson_window(mu: float, tol: float) -> tuple[int, np.ndarray, float]:
    """(a, masses, tail): Poisson(mu) masses on a window [a, b] whose two
    tails are each at most tol/2, rescaled so that masses plus tail is 1.

    Bernstein's inequalities, P(N <= mu - d) <= exp(-d^2 / (2 mu)) and
    P(N >= mu + d) <= exp(-d^2 / (2 (mu + d/3))), place the window; the
    masses come from the ratio recurrence out from the mode, the tail from
    the masses summed outward from a - 1 and from b + 1.
    """
    log_t = math.log(2.0 / tol)
    a = max(0, math.floor(mu - math.sqrt(2.0 * log_t * mu)))
    b = math.ceil(mu + log_t / 3.0 + math.sqrt(log_t ** 2 / 9.0 + 2.0 * log_t * mu))
    mode = math.floor(mu)
    down = np.cumprod(np.arange(mode, a, -1) / mu)
    up = np.cumprod(mu / np.arange(mode + 1, b + 1))
    raw = np.concatenate((down[::-1], [1.0], up))
    tail = 0.0
    if mu > 0.0:
        tail = (_poisson_tail(a - 1, mu, -1) if a > 0 else 0.0) + _poisson_tail(b + 1, mu, 1)
    return a, raw * ((1.0 - tail) / math.fsum(raw)), tail


def marked_poisson_pmf(offsets, means, tol: float) -> LatticePmf:
    """Pmf of sum_o o * N_o for independent N_o ~ Poisson(means[o]).

    Each of the K nonzero offsets contributes one Poisson window with tails
    of at most tol / K, dilated by its offset; the windows are convolved.
    The deficit is the mass outside their product, 1 - prod(1 - tail_o).
    """
    moves = np.asarray(offsets) != 0
    offsets = np.asarray(offsets)[moves].tolist()
    windows = [_poisson_window(float(mu), tol / len(offsets))
               for mu in np.asarray(means, float)[moves]]
    length = 1 + sum(abs(o) * (w.size - 1) for o, (_, w, _) in zip(offsets, windows))
    if length > PMF_LENGTH_CAP:
        raise TruncationBudgetError(
            f"pmf support of {length} values exceeds the cap {PMF_LENGTH_CAP}")

    acc = np.ones(1)
    acc_min = 0
    for o, (a, w, _) in zip(offsets, windows):
        dilated = np.zeros(abs(o) * (w.size - 1) + 1)
        dilated[::abs(o)] = w if o > 0 else w[::-1]
        acc = np.convolve(acc, dilated)
        acc_min += min(o * a, o * (a + w.size - 1))
    kept = float(np.prod([1.0 - tail for _, _, tail in windows]))

    nz = np.nonzero(acc)[0]
    lo, hi = int(nz[0]), int(nz[-1])
    return LatticePmf(offset_min=acc_min + lo, masses=acc[lo:hi + 1], deficit=1.0 - kept)


def walk_pmf(kernel: JumpKernel, tau: float) -> LatticePmf:
    """Exact displacement pmf at time tau: by the marking theorem the
    offsets' jump counts are independent Poisson(tau * p_o), so this is a
    marked_poisson_pmf dropping at most WALK_MASS_TOL."""
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError("tau must be finite and nonnegative")
    return marked_poisson_pmf(kernel.offsets, tau * kernel.probs, WALK_MASS_TOL)


def chernoff_lines(kernel: JumpKernel, tau: float):
    """(theta, base_hi, base_lo) on the fixed log-spaced theta grid: the
    log-MGFs tau*(M(+-theta)-1) -+ theta*v*tau of X(tau) - v*tau and of its
    negative, so that base - theta*delta is the log Chernoff bound of one
    side at distance delta."""
    theta = np.logspace(-4, math.log10(MGF_THETA_CAP), CHERNOFF_GRID)
    mg_plus = np.sum(kernel.probs * np.exp(np.outer(theta, kernel.offsets)), axis=1)
    mg_minus = np.sum(kernel.probs * np.exp(np.outer(-theta, kernel.offsets)), axis=1)
    base_hi = tau * (mg_plus - 1.0) - theta * kernel.v * tau   # log E e^{th(X-v tau)}
    base_lo = tau * (mg_minus - 1.0) + theta * kernel.v * tau  # log E e^{-th(X-v tau)}
    return theta, base_hi, base_lo


def _envelope_min(theta: np.ndarray, base: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """min over the grid of base - theta*delta for each delta, read off the
    lower envelope of these lines.  base is convex in theta, so every line
    lies on the envelope, between its crossings with its two neighbours.
    Rounded crossings fall out of order where the lines flatten, so a
    delta's line lies between the first line whose running maximum of
    crossings reaches delta and the first whose right-to-left running
    minimum does; the minimum runs over those lines and ENVELOPE_REACH
    lines either side, which absorbs the crossings' own rounding."""
    with np.errstate(invalid="ignore"):  # inf - inf where exp overflowed
        raw = np.diff(base) / np.diff(theta)
    first = np.searchsorted(np.maximum.accumulate(raw), deltas) - ENVELOPE_REACH
    last = np.searchsorted(np.fmin.accumulate(raw[::-1])[::-1], deltas) + ENVELOPE_REACH
    near = first[:, None] + np.arange(int(np.max(last - first)) + 1)
    near = np.clip(np.minimum(near, last[:, None]), 0, theta.size - 1)
    return np.min(base[near] - theta[near] * deltas[:, None], axis=1)


def chernoff_log_tail(kernel: JumpKernel, tau: float, deltas) -> np.ndarray:
    """log of a two-sided Chernoff bound on P(|X(tau) - v*tau| >= delta).

    Minimizes exp(tau*(M(+-theta)-1) -+ theta*v*tau - theta*delta) over a
    fixed log-spaced theta grid; every grid point gives a valid bound, so
    the minimum does too.  Each side's minimum is taken near its lower
    envelope's line at delta, and equals the minimum over the whole grid.
    Not capped at log(1); callers cap as needed.
    """
    deltas = np.atleast_1d(np.asarray(deltas, float))
    theta, base_hi, base_lo = chernoff_lines(kernel, tau)
    return np.logaddexp(_envelope_min(theta, base_hi, deltas),
                        _envelope_min(theta, base_lo, deltas))

