"""Microscopic simulation of the space-time particle current.

For scaling parameter n, the current Y_n(t, r) counts, with sign, the
particles that sit on the wrong side of the moving reference line
floor(n*v*t) + floor(r*sqrt(n)) at time n*t relative to where they started:
+1 for a particle started right of the line's anchor that ends at or below
the line, -1 for one started at or left of the anchor that ends above it.

Replicas are simulated only inside a certified start-site window; the
probability that any omitted particle could have affected any measured
value is bounded by Chernoff tails and kept below an explicit tolerance.

Two replica engines share that window and its law.  The class engine
(`ClassTable`) runs every ensemble it can: every grid current is a fixed
signed sum of the particle counts in path classes, and the table holds each
start site's class law, so a batch of replicas is one draw -- independent
Poisson class counts under Poisson occupancy, and under any other law a
class for each particle that moves (falls in a class with a nonzero sign),
the first class whose cumulative law at its site exceeds one uniform, the
others never drawn.  The particle engine (`simulate_replica`) draws every
particle and its path; it is the independent check on the class engine and
runs the ensembles whose classes outnumber the window sites.  An exact
single-point distribution oracle (a Skellam law under Poisson occupancy) is
provided for validation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np
# numpy loads its random module on first use; every command that draws
# needs it, so it loads with the package rather than in the first draw
import numpy.random  # noqa: F401

from .errors import TruncationBudgetError, WindowUnreachableError
from .kernel import (JumpKernel, LatticePmf, chernoff_log_tail, marked_poisson_pmf,
                     sample_displacement, walk_pmf)
from .occupancy import OccupancyModel

REPLICA_STREAM = 0
TILT_STREAM = 1
BATCH_STREAM = 2

# An ensemble's replicas run in this many contiguous batches (fewer when
# there are fewer replicas), whatever the worker count.
N_BATCHES = 50
# Cells of one class-engine draw call -- (replica, class) under Poisson
# occupancy, dense-site particles under a fixed count, (replica, site)
# counts under a random one: small enough that its arrays stay in cache and
# add little to peak memory
DRAW_CELLS = 1 << 12
# A site whose particles move with probability above this draws one uniform
# per particle; one at or below it draws Poisson points over its particles
DENSE_MOVE = 0.5
# Cells of one block of the guide table's build (rows x buckets): 256 rows
# at 128 buckets, so its temporaries add well under a megabyte to peak memory
GUIDE_CELLS = 1 << 15

# Tail mass each Poisson window of the Skellam current pmf may drop: so far
# below any tail that tail_geq reads that the windows reach the underflow.
CURRENT_TAIL_TOL = 1e-300

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
        for key in ("T", "S"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite")
        tg = tuple(float(t) for t in self.t_grid)
        rg = tuple(float(r) for r in self.r_grid)
        if not all(map(math.isfinite, tg + rg)):
            raise ValueError("t_grid and r_grid must hold finite numbers")
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


# window widths start here
MIN_WINDOW_WIDTH = 16
# distances per Chernoff evaluation; a time's terms end only at a block end
TAIL_BLOCK = 512
# a time's terms that have not ended by this distance raise
MAX_TAIL_DISTANCE = 50_000_000


def _tail_block(kernel: JumpKernel, tau: float, d0: int, size: int = TAIL_BLOCK) -> np.ndarray:
    """Chernoff bounds, capped at 1, on a particle at distance d0, d0 + 1,
    ..., d0 + size - 1 beyond a window edge moving d - 1 sites."""
    ds = np.arange(d0, d0 + size, dtype=float)
    # capping the log keeps exp from overflowing where the bound exceeds 1
    return np.exp(np.minimum(chernoff_log_tail(kernel, tau, np.maximum(ds - 1.0, 0.0)), 0.0))


def _time_terms(kernel: JumpKernel, tau: float, cutoff: float) -> Tuple[np.ndarray, float]:
    """One grid time's terms at distances 1, 2, ..., out to the first block
    end whose tail has a geometric bound below cutoff, and that bound."""
    blocks = []
    while True:
        blocks.append(_tail_block(kernel, tau, 1 + TAIL_BLOCK * len(blocks)))
        last, prev = blocks[-1][-1], blocks[-1][-2]
        if last == 0.0:
            return np.concatenate(blocks), 0.0
        ratio = last / prev
        if ratio < 1.0:
            # the log-bound is concave in d, so the tail is dominated by a
            # geometric series with this ratio
            rem = last * ratio / (1.0 - ratio)
            if rem < cutoff:
                return np.concatenate(blocks), rem
        if TAIL_BLOCK * len(blocks) >= MAX_TAIL_DISTANCE:
            raise WindowUnreachableError("tail bound would not converge")


@functools.lru_cache(maxsize=16)
def _width_bounds(config: ExperimentConfig) -> np.ndarray:
    """window_bound at widths 0, 1, ..., size - 1; the last entry holds at
    every larger width.  Each grid time's terms have one horizon, so every
    width's bound is a suffix sum of the same terms plus their remainder."""
    rho0 = config.occupancy.rho0
    taus = [config.n * t for t in config.t_grid if t > 0.0]
    if rho0 == 0.0 or not taus:
        return np.zeros(1)
    tails = [_time_terms(config.kernel, tau, 1e-4 * config.window_tol) for tau in taus]
    total = np.zeros(1 + max(terms.size for terms, _ in tails))
    for terms, rem in tails:
        # the terms past width w start at index w, distance w + 1
        suffix = np.zeros(total.size)
        suffix[:terms.size] = np.cumsum(terms[::-1])[::-1]
        total += suffix + rem
    return 2.0 * rho0 * total


def window_bound(config: ExperimentConfig, width: int) -> float:
    """Expected number of out-of-window particles that could affect any
    measured point, bounded by two-sided Chernoff tails per distance.

    A particle at distance d beyond either window edge must move against
    its own centering by at least d - 1 lattice sites to sit on the wrong
    side of any measured line, at some measured time; union-bound over grid
    times and both edges.  The bound is nonincreasing in the width.
    """
    if width < 0:
        raise ValueError("window width must be nonnegative")
    bounds = _width_bounds(config)
    return float(bounds[min(width, bounds.size - 1)])


@functools.lru_cache(maxsize=16)
def certified_window(config: ExperimentConfig) -> Tuple[int, float]:
    """(width, window_bound(config, width)) for the smallest width of at
    least MIN_WINDOW_WIDTH whose bound meets window_tol.

    Raises WindowUnreachableError when no width passes, or when the window
    at the least width of 16, 32, 64, ... that is at least the answer has
    more than max_window_sites sites, as the doubling search that this
    replaced did.  Cached per config: simulate_replica reads it once per
    replica.
    """
    unreachable = WindowUnreachableError(
        f"window would need more than {config.max_window_sites} sites")
    if _window_sites(config, MIN_WINDOW_WIDTH) > config.max_window_sites:
        raise unreachable
    # the widest width a doubling from MIN_WINDOW_WIDTH reaches within the cap
    widest = MIN_WINDOW_WIDTH
    while _window_sites(config, 2 * widest) <= config.max_window_sites:
        widest *= 2
    rho0, tol = config.occupancy.rho0, config.window_tol
    taus = [config.n * t for t in config.t_grid if t > 0.0]
    # every bound up to the widest width holds the terms just past it: when
    # those fail, nothing fits, and the terms are never summed far out
    past = sum(float(_tail_block(config.kernel, tau, widest + 1, size=1)[0]) for tau in taus)
    if 2.0 * rho0 * past > tol:
        raise unreachable
    bounds = _width_bounds(config)
    width = MIN_WINDOW_WIDTH + int(np.argmax(
        bounds[min(MIN_WINDOW_WIDTH, bounds.size - 1):] <= tol))
    value = window_bound(config, width)
    if value > tol or width > widest:
        raise unreachable
    return width, value


def truncation_radius(config: ExperimentConfig) -> int:
    """Smallest window width of at least MIN_WINDOW_WIDTH whose
    window_bound meets window_tol (see certified_window)."""
    return certified_window(config)[0]


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
# path-class engine
# --------------------------------------------------------------------------

def split_batches(replicas: int) -> list[range]:
    """Contiguous replica ranges, as equal as possible: the batches of an
    ensemble, fixed by the replica count alone."""
    nbatches = min(N_BATCHES, replicas)
    base, extra = divmod(replicas, nbatches)
    out = []
    start = 0
    for i in range(nbatches):
        size = base + (1 if i < extra else 0)
        out.append(range(start, start + size))
        start += size
    return out


@dataclass(frozen=True, eq=False)
class ClassTable:
    """Path classes of the certified window, with each start site's law.

    A particle's class is (j, c_1, ..., c_K): j anchors lie strictly below
    its start and c_k time-k lines strictly below its position at grid time
    k.  The class adds [c_k <= i] - [j <= i] to Y(t_k, r_i); classes whose
    signs are all zero are left out.  Rows are in lexicographic class order.

    With pi_m(c) the probability that a particle started at the m-th
    window site has class c, means[c] = E eta * sum_m pi_m(c) is the
    expected class count and site_means[m] = sum_c pi_m(c) s_c the site's
    expected sign vector; occupancy is the law the table was built for.
    Under any occupancy law other than Poisson, move[m] = sum_c pi_m(c) is
    the probability that a particle started at site m moves (falls in a
    class with a nonzero sign), and cdf[m] is the cumulative sum of its
    conditional class law pi_m(c) / move[m], ending at exactly 1; the rows
    of sites with move 0 are all 0 and never read.  The mover pick reads
    cdf itself, through guide, the rows' guide table (`_guide_table`).
    """

    classes: np.ndarray     # int64, shape (ncls, 1 + len(t_grid))
    signs: np.ndarray       # int64, shape (ncls, len(t_grid) * len(r_grid))
    means: np.ndarray       # float, shape (ncls,)
    site_means: np.ndarray  # float, shape (nsites, len(t_grid) * len(r_grid))
    occupancy: OccupancyModel
    move: Optional[np.ndarray] = None  # float, shape (nsites,)
    cdf: Optional[np.ndarray] = None   # float, shape (nsites, ncls)
    guide: Optional[np.ndarray] = None  # int16 or int32, shape (nsites, buckets)

    def draw(self, rng: np.random.Generator, size: int,
             cells: int = DRAW_CELLS) -> np.ndarray:
        """Currents of `size` replicas drawn from rng, one flattened (t, r)
        row each.

        Poisson occupancy thins into independent Poisson class counts.  Any
        other law draws which particles move, then each mover's class by
        inverting its site's cumulative class law, in one pass whose fixed
        and random counts differ only in where a site's particles sit
        (`_draw_movers`).  The rows go at most `cells` cells at a time, but
        at least one row, which bounds the memory of one call: (replica,
        class) cells under Poisson occupancy, particles at dense sites under
        a fixed count, (replica, site) counts under a random count.  The
        split is fixed by the table, `size` and `cells`.
        """
        if self.move is None:
            width, part = self.means.size, self._draw_class_counts
        else:
            dense = np.flatnonzero(self.move > DENSE_MOVE)
            sparse = np.flatnonzero((self.move > 0.0) & (self.move <= DENSE_MOVE))
            hazard = -np.log1p(-self.move[sparse])
            occ = self.occupancy
            width = int(occ.rho0) * dense.size if occ.v0 == 0.0 else self.move.size
            part = functools.partial(self._draw_movers, dense=dense, sparse=sparse,
                                     hazard=hazard)
        step = max(1, cells // max(width, 1))
        return np.concatenate([part(rng, min(step, size - done))
                               for done in range(0, size, step)])

    def _draw_class_counts(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.poisson(self.means, size=(size, self.means.size)) @ self.signs

    def _draw_movers(self, rng: np.random.Generator, size: int, dense: np.ndarray,
                     sparse: np.ndarray, hazard: np.ndarray) -> np.ndarray:
        """Rows of `size` replicas, drawing only the particles that move.

        The call's particles are numbered site by site, and within a site
        replica by replica: site m's run starts at first[m] and holds
        site_counts[m].  Under a fixed count k that is size k particles at
        every site, and particle p is in cell p // k; under a random count
        the counts are drawn site-major and cumulated, and a particle's cell
        is read from the cumulative counts.  Cell c is replica c % size of
        site c // size.

        A particle at a dense site moves iff its uniform falls below
        move[m].  The particles at a sparse site are unit intervals of a
        Poisson process of rate hazard = -log(1 - move[m]); a particle moves
        iff a point hits it, with probability move[m], independently of the
        others.  Each mover then takes a class from one uniform
        (`_pick_classes`): the dense sites' movers in site order, then the
        sparse sites'.
        """
        nsites, ncls = self.cdf.shape
        occ = self.occupancy
        if occ.v0 == 0.0:
            k = int(occ.rho0)
            first = np.arange(nsites) * (k * size)
            site_counts = np.full(nsites, k * size)
        else:
            ends = np.cumsum(occ.sample_counts(rng, nsites * size))
            first = np.concatenate(([0], ends[size - 1:-1:size]))
            site_counts = ends[size - 1::size] - first
        # dense sites: one uniform per particle
        counts = site_counts[dense]
        below = np.repeat(self.move[dense], counts)
        hit = np.flatnonzero(rng.random(below.size) < below)
        moved = hit + np.repeat(first[dense] - (np.cumsum(counts) - counts), counts)[hit]
        # sparse sites: Poisson points on uniform particles
        points = rng.poisson(site_counts[sparse] * hazard)
        owner = np.repeat(sparse, points)
        hits = _distinct(first[owner]
                         + (rng.random(owner.size) * site_counts[owner]).astype(np.int64))
        particles = np.concatenate((moved, hits))
        cell = (particles // k if occ.v0 == 0.0
                else np.searchsorted(ends, particles, side="right"))
        site, replica = np.divmod(cell, size)
        cls = self._pick_classes(site, rng.random(site.size))
        tally = np.bincount(replica * ncls + cls, minlength=size * ncls)
        return tally.reshape(size, ncls) @ self.signs

    def _pick_classes(self, site: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Class of each mover at window site `site` with uniform u in
        [0, 1): the first class c with cdf[site, c] > u.  A mover's row ends
        at 1, so the class is in its row; a class with pi_site(c) = 0 has the
        same cdf as the one before it (or 0), so it is never picked.

        floor(u B), exact as B is a power of two, is the mover's guide
        bucket.  A bucket's first class is the pick, or the class after it
        when u is at or past that class's cdf.  The movers of a bucket
        holding two or more cdf steps (guide -1) count the entries of their
        own row at or below u instead, in one pass over the gathered rows.
        """
        ncls, buckets = self.cdf.shape[1], self.guide.shape[1]
        bucket = site * buckets + (u * buckets).astype(np.int64)
        cls = self.guide.ravel()[bucket].astype(np.int64)
        crowded = np.flatnonzero(cls < 0)
        cls += self.cdf.ravel()[site * ncls + cls] <= u
        cls[crowded] = np.count_nonzero(self.cdf[site[crowded]] <= u[crowded, None], axis=1)
        return cls

    def moments(self) -> Tuple[np.ndarray, np.ndarray]:
        """Exact mean and covariance of the flattened grid currents under
        the table's occupancy law.

        The law of a compound sum gives mean sum_m E eta E_m[s] and
        covariance sum_m (E eta Cov_m(s) + Var eta E_m[s] E_m[s]^T), E_m and
        Cov_m under pi_m: the Poisson covariance sum_c means[c] s_c s_c^T
        plus (Var eta - E eta) sum_m E_m[s] E_m[s]^T.
        """
        signs = self.signs.astype(float)
        outer = self.site_means.T @ self.site_means
        return (self.means @ signs,
                signs.T @ (self.means[:, None] * signs)
                + (self.occupancy.v0 - self.occupancy.rho0) * outer)


def _site_class_laws(config: ExperimentConfig, lo: int, hi: int):
    """(classes, signs, rows) for the nonempty classes with a nonzero sign:
    rows[m, c] = pi_m(c).  None when the live classes at any cut outnumber
    the window sites.

    One backward pass of cuts builds the laws.  A class tail (c_k, ..., c_K)
    is a function of the position at time k - 1: the probability of going
    on to that tail.  Cut k splits every tail function at grid time k's
    lines, and correlates each nonzero piece with the walk pmf of the gap
    before time k (one np.convolve); all-zero pieces are pruned, and
    positions are kept to the range reachable from the window.  The last
    cut is the start intervals: at the anchors, with no walk, over the
    window, so each piece there is a window site's class law.
    """
    nsites = hi - lo + 1
    anchors = np.asarray(config.anchors(), np.int64)
    # (lines, walk pmf of the gap before them, positions reachable from the
    # window before the gap) per cut, the start cut first
    cuts = [(anchors, None, (lo, hi))]
    a, b = lo, hi
    prev_t = 0.0
    for t, shift in zip(config.t_grid, config.line_shifts()):
        gap = config.n * (t - prev_t)
        prev_t = t
        wp = walk_pmf(config.kernel, gap) if gap > 0.0 else None
        cuts.append((anchors + shift, wp, (a, b)))
        if wp is not None:
            a, b = a + wp.offset_min, b + wp.offset_min + wp.masses.size - 1

    laws = {(): (a, np.ones(b - a + 1))}
    for lines, wp, (a, b) in reversed(cuts):
        split = {}
        for tail, (first, vals) in laws.items():
            bounds = np.concatenate(([0], np.clip(lines - first + 1, 0, vals.size), [vals.size]))
            for c in range(anchors.size + 1):
                piece = vals[bounds[c]:bounds[c + 1]]
                if not piece.any():
                    continue
                start = first + int(bounds[c])
                if wp is not None:
                    piece = np.convolve(piece, wp.masses[::-1])
                    start -= wp.offset_min + wp.masses.size - 1
                i, j = max(a - start, 0), min(b + 1 - start, piece.size)
                if i < j and piece[i:j].any():
                    split[(c,) + tail] = (start + i, piece[i:j])
        if len(split) > nsites:
            return None
        laws = split

    names = sorted(laws)
    classes = np.array(names, np.int64)
    idx = np.arange(anchors.size)
    signs = ((classes[:, 1:, None] <= idx).astype(np.int64)
             - (classes[:, :1, None] <= idx)).reshape(len(names), -1)
    keep = np.flatnonzero(np.any(signs != 0, axis=1))
    rows = np.zeros((nsites, keep.size))
    for c, i in enumerate(keep):
        first, vals = laws[names[i]]
        rows[first - lo:first - lo + vals.size, c] = vals
    return classes[keep], signs[keep], rows


def class_table(config: ExperimentConfig) -> Optional[ClassTable]:
    """The path-class table of the certified window, or None for the
    particle engine: when the live classes at any cut outnumber the window
    sites."""
    lo, hi = window_span(config, truncation_radius(config))
    laws = _site_class_laws(config, lo, hi)
    if laws is None:
        return None
    return _table_from_laws(config.occupancy, *laws)


def _distinct(hits: np.ndarray) -> np.ndarray:
    """The particles hit, sorted, each once: a sort finds the particles
    hit more than once."""
    hits.sort()
    once = np.ones(hits.size, bool)
    once[1:] = hits[1:] != hits[:-1]
    return hits[once]


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """The guide table of cumulative class rows (Chen and Asau, 1974).

    Each row's range [0, 1) splits into B equal buckets, B the least power
    of two at least 2 ncls, so cdf[m, c] B is exact.  guide[m, b] is the
    number of classes with cdf at most the bucket's start b / B, capped at
    ncls - 1: the first class a uniform in the bucket can take.  When two
    or more cdf entries fall strictly inside the bucket it holds -1
    instead.  int16 while ncls fits, otherwise int32.  Built GUIDE_CELLS
    cells at a time.
    """
    nsites, ncls = cdf.shape
    buckets = 1 << (2 * ncls - 1).bit_length()
    guide = np.empty((nsites, buckets),
                     np.int16 if ncls <= np.iinfo(np.int16).max else np.int32)
    step = max(1, GUIDE_CELLS // buckets)
    classes = np.tile(np.arange(ncls, dtype=guide.dtype), min(step, nsites))
    for a in range(0, nsites, step):
        scaled = cdf[a:a + step] * buckets
        # class c holds the buckets whose start is at or past cdf c - 1 and
        # before cdf c, ceil(cdf B) the first bucket past an entry; the last
        # class's run ends at B, so a row of move 0 holds ncls - 1
        ends = np.ceil(scaled).astype(np.int64)
        ends[:, -1] = buckets
        cells = guide[a:a + step].reshape(-1)
        cells[:] = np.repeat(classes[:scaled.size], np.diff(ends, axis=1, prepend=0).ravel())
        # two entries strictly inside a bucket: sorted entries with the
        # same bucket, the lower one off the bucket's start
        inside = scaled.astype(np.int64)
        crowded = (inside[:, 1:] == inside[:, :-1]) & (scaled[:, :-1] != inside[:, :-1])
        row, col = np.nonzero(crowded)
        cells[row * buckets + inside[row, col]] = -1
    return guide


def _table_from_laws(occ: OccupancyModel, classes: np.ndarray, signs: np.ndarray,
                     probs: np.ndarray) -> ClassTable:
    """The ClassTable of `_site_class_laws`'s output under occupancy occ;
    probs is overwritten."""
    means = occ.rho0 * probs.sum(axis=0)
    site_means = probs @ signs
    move = cdf = guide = None
    if occ.kind != "poisson":
        cdf = np.cumsum(probs, axis=1, out=probs)
        move = np.minimum(cdf[:, -1], 1.0)
        live = cdf[:, -1] > 0.0
        cdf[live] /= cdf[live, -1:]
        guide = _guide_table(cdf)
    return ClassTable(classes=classes, signs=signs, means=means, site_means=site_means,
                      occupancy=occ, move=move, cdf=cdf, guide=guide)


def batch_currents(config: ExperimentConfig, table: Optional[ClassTable],
                   index: int, batch: range) -> np.ndarray:
    """Currents of one batch's replicas, one flattened (t, r) row each.

    With a class table the batch is one draw from its own stream, so
    replica i is row i - batch.start of that draw; without one, each
    replica runs on the particle engine from its own stream.
    """
    if table is not None:
        return table.draw(replica_rng(config.master_seed, BATCH_STREAM, index), len(batch))
    return np.stack([simulate_replica(config, i).values.ravel() for i in batch])


def run_ensemble(config: ExperimentConfig,
                 table: Optional[ClassTable]) -> Iterator[CurrentField]:
    """Yield all replicas in index order, batch by batch, exactly as the
    batched runner draws them from the config's class table (None on the
    particle engine)."""
    shape = (len(config.t_grid), len(config.r_grid))
    for index, batch in enumerate(split_batches(config.replicas)):
        for i, row in zip(batch, batch_currents(config, table, index, batch)):
            values = row.reshape(shape)
            yield CurrentField(values=values, scaled=values * config.n ** -0.25,
                               replica_seed=i)


# --------------------------------------------------------------------------
# exact single-point distribution oracle
# --------------------------------------------------------------------------

def _finite_site_pmfs(values: np.ndarray, probs: np.ndarray, p: np.ndarray) -> np.ndarray:
    # row m: Binomial(eta, p[m]) mixed over eta from the finite law, each
    # pmf C(eta, k) p^k (1 - p)^(eta - k) from exact binomial coefficients;
    # each row rescaled so rounding cannot build up
    counts = np.arange(int(values[-1]) + 1)
    p = p[:, None]
    q = 1.0 - p
    out = np.zeros((p.size, counts.size))
    for eta, pv in zip(values.tolist(), probs):
        k = counts[:eta + 1]
        comb = np.array([math.comb(eta, j) for j in k.tolist()], float)
        out[:, :eta + 1] += pv * (comb * p ** k * q ** (eta - k))
    return out / np.array([math.fsum(row) for row in out])[:, None]


def _site_crossings(config: ExperimentConfig, t: float,
                    r: float) -> Tuple[np.ndarray, np.ndarray]:
    """(right, cross) over the certified window's sites: whether a site
    lies right of the anchor, and the probability that a particle started
    there crosses the reference line (p_m on the right, q_m = 1 - p_m on
    the left)."""
    lo, hi = window_span(config, truncation_radius(config))
    anchor = bracket(r * config.sqrt_n)
    line = anchor + bracket(config.n * config.kernel.v * t)

    sites = np.arange(lo, hi + 1)
    right = sites > anchor
    p_site = np.asarray(walk_pmf(config.kernel, config.n * t).cdf(line - sites), float)
    return right, np.where(right, p_site, 1.0 - p_site)


def exact_current_pmf(config: ExperimentConfig, t: float, r: float) -> LatticePmf:
    """Exact distribution of Y_n(t, r) over the certified window's sites.

    Site m > anchor contributes +Binomial(count, p_m) and site m <= anchor
    -Binomial(count, q_m), where p_m is the walk's probability of ending at
    or below the reference line and q_m = 1 - p_m.  Poisson occupancy thins
    to independent Poisson counts, so Y is Skellam(rho sum_{m > anchor} p_m,
    rho sum_{m <= anchor} q_m), dropping at most CURRENT_TAIL_TOL; a finite
    occupancy law is convolved site by site and drops nothing.  The walk
    pmf's truncation is not dropped mass: it moves each p_m by at most the
    walk deficit, so this law by at most E[particles in window] * walk
    deficit in total variation.
    """
    occ = config.occupancy
    if occ.kind == "geometric":
        raise ValueError("exact pmf needs a finite or Poisson occupancy law")
    right, cross = _site_crossings(config, t, r)
    if occ.kind == "poisson":
        means = occ.rho0 * np.array([cross[right].sum(), cross[~right].sum()])
        return marked_poisson_pmf([1, -1], means, CURRENT_TAIL_TOL)

    live = cross > 0.0
    acc = np.array([1.0])
    acc_min = 0
    for is_right, site_pmf in zip(right[live],
                                  _finite_site_pmfs(occ._values, occ._probs, cross[live])):
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
    return LatticePmf(offset_min=acc_min + lo_i, masses=acc[lo_i:hi_i + 1], deficit=0.0)
