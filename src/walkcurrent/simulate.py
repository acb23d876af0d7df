"""Microscopic simulation of the space-time particle current.

For scaling parameter n, the current Y_n(t, r) counts, with sign, the
particles that sit on the wrong side of the moving reference line
floor(n*v*t) + floor(r*sqrt(n)) at time n*t relative to where they started:
+1 for a particle started right of the line's anchor that ends at or below
the line, -1 for one started at or left of the anchor that ends above it.

Replicas are simulated only inside a certified start-site window; the
probability that any omitted particle could have affected any measured
value is bounded by Chernoff tails and kept below an explicit tolerance.

Two replica engines share that window and its law.  The particle engine
(`simulate_replica`) draws every particle and its path.  The cell engine
(`CellTable`) serves Poisson occupancy: particles then form a Poisson
process on (start site, path), so the counts in disjoint path classes are
independent Poisson variables and every grid current is a fixed signed sum
of them.  An exact single-point distribution oracle (convolution over
window sites) is provided for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np
from scipy import stats

from .errors import TruncationBudgetError, WindowUnreachableError
from .kernel import JumpKernel, LatticePmf, chernoff_log_tail, sample_displacement, walk_pmf
from .occupancy import OccupancyModel

REPLICA_STREAM = 0
TILT_STREAM = 1

# Floor with a one-sided snap guard: products such as n*v*t that are exact
# integers in real arithmetic must not floor down on a 1-ulp float error.
BRACKET_GUARD = 1e-9


def bracket(x: float) -> int:
    """Gauss bracket floor(x), guarded against float jitter just below ints."""
    return int(math.floor(x + BRACKET_GUARD))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything a current-simulation experiment needs, seeds included."""

    n: int
    T: float
    S: float
    t_grid: Tuple[float, ...]
    r_grid: Tuple[float, ...]
    kernel: JumpKernel
    occupancy: OccupancyModel
    master_seed: int
    replicas: int = 1
    window_tol: float = 1e-6
    max_window_sites: int = 4_000_000

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not (self.T > 0.0 and self.S > 0.0):
            raise ValueError("T and S must be positive")
        tg = tuple(float(t) for t in self.t_grid)
        rg = tuple(float(r) for r in self.r_grid)
        if not tg or any(b <= a for a, b in zip(tg, tg[1:])):
            raise ValueError("t_grid must be nonempty and strictly ascending")
        if not rg or any(b <= a for a, b in zip(rg, rg[1:])):
            raise ValueError("r_grid must be nonempty and strictly ascending")
        if tg[0] < 0.0 or tg[-1] > self.T:
            raise ValueError("t_grid must lie in [0, T]")
        if rg[0] < -self.S or rg[-1] > self.S:
            raise ValueError("r_grid must lie in [-S, S]")
        if not (0.0 < self.window_tol <= 1e-4):
            raise ValueError("window_tol must lie in (0, 1e-4]")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        object.__setattr__(self, "t_grid", tg)
        object.__setattr__(self, "r_grid", rg)

    @property
    def sqrt_n(self) -> float:
        return math.sqrt(self.n)

    def anchors(self) -> list[int]:
        """Start-site anchor floor(r*sqrt(n)) for each grid r."""
        return [bracket(r * self.sqrt_n) for r in self.r_grid]

    def line_shifts(self) -> list[int]:
        """Reference-line shift floor(n*v*t) for each grid t."""
        return [bracket(self.n * self.kernel.v * t) for t in self.t_grid]

    def grid_points(self) -> list[Tuple[float, float]]:
        return [(t, r) for t in self.t_grid for r in self.r_grid]


@dataclass(frozen=True, eq=False)
class CurrentField:
    """One replica's currents on the (t_grid x r_grid) lattice of points."""

    values: np.ndarray   # int64, shape (len(t_grid), len(r_grid))
    scaled: np.ndarray   # values * n**-0.25
    replica_seed: int


def replica_rng(master_seed: int, stream: int, index: int) -> np.random.Generator:
    """Deterministic per-replica generator; independent of execution order."""
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(stream, int(index)))
    return np.random.Generator(np.random.PCG64(seq))


# --------------------------------------------------------------------------
# certified start-site window
# --------------------------------------------------------------------------

def window_span(config: ExperimentConfig, width: int) -> Tuple[int, int]:
    """First and last start site of the window of the given width."""
    return (bracket(-config.S * config.sqrt_n) - width,
            bracket(config.S * config.sqrt_n) + width)


def _window_sites(config: ExperimentConfig, width: int) -> int:
    lo, hi = window_span(config, width)
    return hi - lo + 1


def window_bound(config: ExperimentConfig, width: int) -> float:
    """Expected number of out-of-window particles that could affect any
    measured point, bounded by two-sided Chernoff tails per distance.

    A particle at distance d beyond either window edge must move against
    its own centering by at least d - 1 lattice sites to sit on the wrong
    side of any measured line, at some measured time; union-bound over grid
    times and both edges.  The whole sum is returned at every width, so the
    bound is nonincreasing in the width.
    """
    rho0 = config.occupancy.rho0
    if rho0 == 0.0:
        return 0.0
    total = 0.0
    cutoff = 1e-4 * config.window_tol
    for t in config.t_grid:
        if t <= 0.0:
            continue
        tau = config.n * t
        d0 = width + 1
        acc = 0.0
        while True:
            ds = np.arange(d0, d0 + 512, dtype=float)
            terms = np.minimum(
                np.exp(chernoff_log_tail(config.kernel, tau, np.maximum(ds - 1.0, 0.0))),
                1.0)
            acc += float(terms.sum())
            last, prev = terms[-1], terms[-2]
            if last == 0.0:
                break
            ratio = last / prev
            if ratio < 1.0:
                # the log-bound is concave in d, so the tail is dominated
                # by a geometric series with this ratio
                rem = last * ratio / (1.0 - ratio)
                if rem < cutoff:
                    acc += rem
                    break
            d0 += 512
            if d0 > 50_000_000:
                raise WindowUnreachableError("tail bound would not converge")
        total += 2.0 * acc
    return rho0 * total


def truncation_radius(config: ExperimentConfig) -> int:
    """Smallest window width of at least 16 meeting window_tol.

    Doubles from 16 to the first passing width, then bisects between the
    last failing doubling width and it; window_bound is nonincreasing in
    the width, so the result is the smallest passing width.
    """
    failing, width = 15, 16
    while True:
        if _window_sites(config, width) > config.max_window_sites:
            raise WindowUnreachableError(
                f"window would need more than {config.max_window_sites} sites")
        if window_bound(config, width) <= config.window_tol:
            break
        failing, width = width, 2 * width
    while width - failing > 1:
        mid = (failing + width) // 2
        if window_bound(config, mid) <= config.window_tol:
            width = mid
        else:
            failing = mid
    return width


# --------------------------------------------------------------------------
# replica simulation
# --------------------------------------------------------------------------

def signed_crossing_count(starts: np.ndarray, positions: np.ndarray,
                          anchor: int, line: int) -> int:
    """Net current for given particles: +1 per (start > anchor, pos <= line),
    -1 per (start <= anchor, pos > line)."""
    right = starts > anchor
    plus = int(np.count_nonzero(right & (positions <= line)))
    minus = int(np.count_nonzero(~right & (positions > line)))
    return plus - minus


def simulate_replica(config: ExperimentConfig, replica_index: int,
                     window: Optional[int] = None,
                     return_particles: bool = False):
    """Simulate one replica of the current field.

    Draws the occupancy profile on the certified window, evolves every
    particle jointly across the time grid via independent increments, and
    counts signed crossings for each (t, r).  Deterministic given
    (master_seed, replica_index).
    """
    if not (0 <= replica_index < config.replicas):
        raise ValueError("replica_index out of range")
    w = truncation_radius(config) if window is None else int(window)
    lo, hi = window_span(config, w)
    rng = replica_rng(config.master_seed, REPLICA_STREAM, replica_index)

    counts = config.occupancy.sample_counts(rng, hi - lo + 1)
    starts = np.repeat(np.arange(lo, hi + 1, dtype=np.int64), counts)
    pos = starts.copy()

    anchors = config.anchors()
    shifts = config.line_shifts()
    values = np.zeros((len(config.t_grid), len(config.r_grid)), np.int64)
    snapshots = []
    prev_t = 0.0
    for k, t in enumerate(config.t_grid):
        gap = config.n * (t - prev_t)
        prev_t = t
        if gap > 0.0:
            pos = pos + sample_displacement(config.kernel, gap, rng, size=starts.size)
        if return_particles:
            snapshots.append(pos.copy())
        for i, anchor in enumerate(anchors):
            values[k, i] = signed_crossing_count(starts, pos, anchor, anchor + shifts[k])

    fieldval = CurrentField(values=values, scaled=values * config.n ** -0.25,
                            replica_seed=replica_index)
    if return_particles:
        return fieldval, starts, snapshots
    return fieldval


# --------------------------------------------------------------------------
# cell-count engine for Poisson occupancy
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CellTable:
    """Poisson path-class means and their signed weights on the grid.

    A particle's class is (j, c_1, ..., c_K): j anchors lie strictly below
    its start and c_k time-k lines strictly below its position at grid time
    k.  The class adds [c_k <= i] - [j <= i] to Y(t_k, r_i); classes whose
    signs are all zero are left out.  Rows are in lexicographic class order.
    """

    classes: np.ndarray  # int64, shape (ncls, 1 + len(t_grid))
    means: np.ndarray    # float, shape (ncls,)
    signs: np.ndarray    # int64, shape (ncls, len(t_grid) * len(r_grid))

    def replica(self, config: ExperimentConfig, replica_index: int) -> CurrentField:
        """One replica of the current field from independent class counts.

        Deterministic given (master_seed, replica_index); the draws differ
        from the particle engine's, the law does not.
        """
        if not (0 <= replica_index < config.replicas):
            raise ValueError("replica_index out of range")
        rng = replica_rng(config.master_seed, REPLICA_STREAM, replica_index)
        values = (rng.poisson(self.means) @ self.signs).reshape(
            len(config.t_grid), len(config.r_grid))
        return CurrentField(values=values, scaled=values * config.n ** -0.25,
                            replica_seed=replica_index)


def cell_table(config: ExperimentConfig,
               window: Optional[int] = None) -> Optional[CellTable]:
    """Exact class means over the certified window, or None for the
    particle engine.

    Each start interval begins as density rho on its window sites; at every
    grid time each state is convolved with the exact walk pmf of the time
    gap and split at that time's lines, and a class mean is the mass of one
    final state.  Returns None unless occupancy is Poisson, and None when
    there are more nonempty classes than window sites.
    """
    if config.occupancy.kind != "poisson":
        return None
    w = truncation_radius(config) if window is None else int(window)
    lo, hi = window_span(config, w)
    nsites = hi - lo + 1
    anchors = np.asarray(config.anchors(), np.int64)
    rho = config.occupancy.rho0

    # a state is (class prefix, first position, density over positions)
    sites = np.arange(lo, hi + 1)
    below = np.searchsorted(anchors, sites, side="left")
    states = []
    for j in range(anchors.size + 1):
        idx = np.flatnonzero(below == j)
        if idx.size:
            states.append(((j,), int(sites[idx[0]]), np.full(idx.size, rho)))

    prev_t = 0.0
    for t, shift in zip(config.t_grid, config.line_shifts()):
        gap = config.n * (t - prev_t)
        prev_t = t
        if gap > 0.0:
            wp = walk_pmf(config.kernel, gap, mass_tol=1e-12)
            states = [(cls, first + wp.offset_min, np.convolve(dens, wp.masses))
                      for cls, first, dens in states]
        lines = anchors + shift
        split = []
        for cls, first, dens in states:
            cuts = np.clip(lines - first + 1, 0, dens.size)
            bounds = np.concatenate(([0], cuts, [dens.size]))
            for c in range(anchors.size + 1):
                a, b = int(bounds[c]), int(bounds[c + 1])
                piece = dens[a:b]
                if piece.size and piece.sum() > 0.0:
                    split.append((cls + (c,), first + a, piece))
        if len(split) > nsites:
            return None
        states = split

    ncols = len(config.t_grid) * anchors.size
    classes = np.array([cls for cls, _, _ in states], np.int64).reshape(
        len(states), 1 + len(config.t_grid))
    means = np.array([dens.sum() for _, _, dens in states], float)
    idx = np.arange(anchors.size)
    signs = ((classes[:, 1:, None] <= idx).astype(np.int64)
             - (classes[:, :1, None] <= idx)).reshape(len(states), ncols)
    keep = np.any(signs != 0, axis=1)
    return CellTable(classes=classes[keep], means=means[keep], signs=signs[keep])


def replica_field(config: ExperimentConfig, replica_index: int, window: int,
                  table: Optional[CellTable]) -> CurrentField:
    """One replica from the cell engine when a table is given, else from
    the particle engine."""
    if table is not None:
        return table.replica(config, replica_index)
    return simulate_replica(config, replica_index, window=window)


def run_ensemble(config: ExperimentConfig,
                 window: Optional[int] = None) -> Iterator[CurrentField]:
    """Yield all replicas in index order; each depends only on its own seed.

    Poisson occupancy runs on the cell engine, any other on the particle
    engine, exactly as the batched runner does.
    """
    w = truncation_radius(config) if window is None else int(window)
    table = cell_table(config, w)
    for i in range(config.replicas):
        yield replica_field(config, i, w, table)


# --------------------------------------------------------------------------
# exact single-point distribution oracle
# --------------------------------------------------------------------------

def _poisson_site_pmf(mu: float, tail_tol: float) -> tuple[np.ndarray, float]:
    if mu == 0.0:
        return np.array([1.0]), 0.0
    k_max = int(stats.poisson.isf(tail_tol, mu)) + 1
    while stats.poisson.sf(k_max, mu) >= tail_tol:
        k_max += 1
    pmf = stats.poisson.pmf(np.arange(k_max + 1), mu)
    return pmf, float(stats.poisson.sf(k_max, mu))


def _finite_site_pmf(values: np.ndarray, probs: np.ndarray, p: float) -> np.ndarray:
    # law of Binomial(eta, p) with eta drawn from the finite occupancy law
    vmax = int(values[-1])
    out = np.zeros(vmax + 1)
    for v, pv in zip(values, probs):
        out[:int(v) + 1] += pv * stats.binom.pmf(np.arange(int(v) + 1), int(v), p)
    return out


def exact_current_pmf(config: ExperimentConfig, t: float, r: float,
                      site_tail_tol: float = 1e-14,
                      window: Optional[int] = None) -> LatticePmf:
    """Exact distribution of Y_n(t, r) by convolution over window sites.

    Site m > anchor contributes +Binomial(count, p_m) and site m <= anchor
    contributes -Binomial(count, q_m), where p_m is the walk's exact
    probability of ending at or below the reference line and q_m = 1 - p_m.
    Occupancy must be Poisson (thinned to an exact Poisson contribution,
    truncated at site_tail_tol per site) or finitely supported.
    """
    occ = config.occupancy
    if occ.kind == "geometric":
        raise ValueError("exact pmf needs a finite or Poisson occupancy law")
    w = truncation_radius(config) if window is None else int(window)
    lo, hi = window_span(config, w)
    anchor = bracket(r * config.sqrt_n)
    line = anchor + bracket(config.n * config.kernel.v * t)

    tau = config.n * t
    if tau > 0.0:
        wp = walk_pmf(config.kernel, tau, mass_tol=1e-12)
        walk_deficit = wp.deficit
    else:
        wp = None
        walk_deficit = 0.0

    sites = np.arange(lo, hi + 1)
    if wp is None:
        p_site = (sites <= line).astype(float)  # X(0) = 0: below iff m <= line
    else:
        p_site = np.asarray(wp.cdf(line - sites), float)

    acc = np.array([1.0])
    acc_min = 0
    deficit = walk_deficit
    for m, p in zip(sites, p_site):
        is_right = m > anchor
        cross = p if is_right else 1.0 - p
        if cross <= 0.0:
            continue
        if occ.kind == "poisson":
            site_pmf, d = _poisson_site_pmf(occ.rho0 * cross, site_tail_tol)
            deficit += d
        else:
            site_pmf = _finite_site_pmf(occ._values if occ.kind == "custom"
                                        else np.array([int(occ.rho0)]),
                                        occ._probs if occ.kind == "custom"
                                        else np.array([1.0]),
                                        cross)
        if site_pmf.size == 1:
            continue
        if is_right:
            acc = np.convolve(acc, site_pmf)
        else:
            acc = np.convolve(acc, site_pmf[::-1])
            acc_min -= site_pmf.size - 1
        if acc.size > 4_000_000:
            raise TruncationBudgetError("current pmf support exceeded the cap")

    nz = np.nonzero(acc)[0]
    lo_i, hi_i = int(nz[0]), int(nz[-1])
    return LatticePmf(offset_min=acc_min + lo_i, masses=acc[lo_i:hi_i + 1],
                      deficit=float(deficit))
