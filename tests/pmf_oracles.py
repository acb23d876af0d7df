"""Convolution versions of the walk and current pmfs.

The package builds both pmfs from the marking theorem: the walk as a
convolution of one dilated Poisson pmf per offset, the Poisson current as a
Skellam law.  The functions here keep the earlier route -- a Poisson(tau)
mixture of j-fold kernel convolutions, and a convolution of one truncated
Poisson pmf per window site -- so the tests can compare the two.  They also
keep the Poisson window with its tail read from `scipy.stats.poisson`, the
exact window tail from mpmath's incomplete gamma function, a multi-time
walk sampler built on `sample_displacement`, and the support and moments
of a `LatticePmf`, read from its offset and masses.
"""

import math

import mpmath
import numpy as np
from scipy import stats

import walkcurrent as wc
from walkcurrent.simulate import bracket


def pmf_moments(pmf):
    """(support, mean, variance) of a LatticePmf, from offset_min and
    masses; the deficit, which has no position, is left out."""
    support = np.arange(pmf.offset_min, pmf.offset_min + pmf.masses.size)
    mean = float(np.dot(support, pmf.masses))
    return support, mean, float(np.dot((support - mean) ** 2, pmf.masses))


def convolution_walk_pmf(kernel, tau):
    """Displacement pmf as sum_j Poisson(tau)(j) * kernel^{*j}.

    The jump count is truncated at the smallest J whose Poisson(tau) tail
    is below 1e-12; that tail is returned as the deficit.
    """
    mass_tol = 1e-12
    j_max = int(stats.poisson.isf(mass_tol, tau)) + 1
    while stats.poisson.sf(j_max, tau) >= mass_tol:
        j_max += 1
    while j_max > 0 and stats.poisson.sf(j_max - 1, tau) < mass_tol:
        j_max -= 1
    off_lo = int(kernel.offsets[0])
    off_hi = int(kernel.offsets[-1])
    weights = stats.poisson.pmf(np.arange(j_max + 1), tau)

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
    return wc.LatticePmf(offset_min=total_min + lo, masses=acc[lo:hi + 1],
                         deficit=float(stats.poisson.sf(j_max, tau)))


def poisson_site_current_pmf(config, t, r, window):
    """Current pmf under Poisson occupancy, one site at a time.

    Site m contributes +Poisson(rho p_m) right of the anchor and
    -Poisson(rho q_m) at or left of it, each truncated where its upper tail
    falls below 1e-14; the masses are convolved over the window.  Only the
    masses are meant for comparison: the deficit is left at 0.
    """
    site_tail_tol = 1e-14
    lo, hi = wc.window_span(config, window)
    anchor = bracket(r * config.sqrt_n)
    line = anchor + bracket(config.n * config.kernel.v * t)
    sites = np.arange(lo, hi + 1)
    p_site = np.asarray(wc.walk_pmf(config.kernel, config.n * t).cdf(line - sites), float)
    acc = np.array([1.0])
    acc_min = 0
    for m, p in zip(sites, p_site):
        mu = config.occupancy.rho0 * (p if m > anchor else 1.0 - p)
        if mu <= 0.0:
            continue
        k_max = int(stats.poisson.isf(site_tail_tol, mu)) + 1
        while stats.poisson.sf(k_max, mu) >= site_tail_tol:
            k_max += 1
        site_pmf = stats.poisson.pmf(np.arange(k_max + 1), mu)
        if m > anchor:
            acc = np.convolve(acc, site_pmf)
        else:
            acc = np.convolve(acc, site_pmf[::-1])
            acc_min -= site_pmf.size - 1
    return wc.LatticePmf(offset_min=acc_min, masses=acc, deficit=0.0)


def stats_poisson_window(mu, tol):
    """kernel._poisson_window with the tail mass from scipy.stats.poisson's
    cdf and sf."""
    log_t = math.log(2.0 / tol)
    a = max(0, math.floor(mu - math.sqrt(2.0 * log_t * mu)))
    b = math.ceil(mu + log_t / 3.0 + math.sqrt(log_t ** 2 / 9.0 + 2.0 * log_t * mu))
    mode = math.floor(mu)
    down = np.cumprod(np.arange(mode, a, -1) / mu)
    up = np.cumprod(mu / np.arange(mode + 1, b + 1))
    raw = np.concatenate((down[::-1], [1.0], up))
    tail = float(stats.poisson.cdf(a - 1, mu) + stats.poisson.sf(b, mu))
    return a, raw * ((1.0 - tail) / math.fsum(raw)), tail


def exact_poisson_tail(mu, tol):
    """The tail mass P(N < a) + P(N > b) of kernel._poisson_window's window
    [a, b], from the regularized incomplete gamma function in 30 digits:
    P(N < a) = Q(a, mu) and P(N > b) = P(b + 1, mu)."""
    log_t = math.log(2.0 / tol)
    a = max(0, math.floor(mu - math.sqrt(2.0 * log_t * mu)))
    b = math.ceil(mu + log_t / 3.0 + math.sqrt(log_t ** 2 / 9.0 + 2.0 * log_t * mu))
    with mpmath.workdps(30):
        low = mpmath.gammainc(a, mu, mpmath.inf, regularized=True) if a > 0 else 0
        return float(low + mpmath.gammainc(b + 1, 0, mu, regularized=True))


def sample_increments(kernel, times, rng, size=None):
    """Walk positions (started at 0) at each of the given ascending times.

    With `size` set, returns an array of shape (len(times), size): `size`
    independent walks sharing the time grid.
    """
    times = np.asarray(times, float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty 1-d array")
    if times[0] < 0.0 or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be ascending and start at >= 0")
    scalar = size is None
    m = 1 if scalar else int(size)
    pos = np.zeros(m, np.int64)
    out = np.empty((times.size, m), np.int64)
    prev = 0.0
    for k, t in enumerate(times):
        gap = float(t) - prev
        prev = float(t)
        if gap > 0.0:
            pos = pos + wc.sample_displacement(kernel, gap, rng, size=m)
        out[k] = pos
    return out[:, 0] if scalar else out
