"""Closed-form covariances of the limiting Gaussian current field.

The scaled current converges to a centered Gaussian field Z(t, r) whose
covariance splits into a dynamical part (noise created by the jumps) and an
initial part (occupancy noise transported by the evolution), both built from
the normal mean-excess function.  Along a fixed spatial offset the field is
fractional Brownian motion with Hurst exponent 1/4.

This module evaluates those closed forms, cross-checks them against their
independent Brownian-probability integral representations by adaptive
quadrature, and samples the limit field two ways: exactly from a Cholesky
factor on a point grid, and approximately through a discretized stochastic
integral driven by space-time white noise plus an initial-noise line
integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import integrate

from .errors import CovarianceNotPSDError, MeshTooCoarseError, QuadratureConvergenceError
from .normal import bvn_cdf, mean_excess, norm_cdf

Point = Tuple[float, float]  # (t, r)


def dynamic_cov(s: float, q: float, t: float, r: float, kappa2: float) -> float:
    """Covariance contribution from jump noise between points (s,q), (t,r)."""
    if s < 0.0 or t < 0.0:
        raise ValueError("times must be nonnegative")
    d = abs(q - r)
    return float(mean_excess(kappa2 * (t + s), d) - mean_excess(kappa2 * abs(t - s), d))


def initial_cov(s: float, q: float, t: float, r: float, kappa2: float) -> float:
    """Covariance contribution from transported initial-occupancy noise."""
    if s < 0.0 or t < 0.0:
        raise ValueError("times must be nonnegative")
    d = abs(q - r)
    return float(mean_excess(kappa2 * s, d) + mean_excess(kappa2 * t, d)
                 - mean_excess(kappa2 * (t + s), d))


@dataclass(frozen=True)
class LimitCovariance:
    """Parameters of the limit field: occupancy mean rho0, occupancy variance
    v0, and walk second moment kappa2."""

    rho0: float
    v0: float
    kappa2: float

    def __post_init__(self):
        if not (math.isfinite(self.rho0) and self.rho0 >= 0.0):
            raise ValueError("rho0 must be finite and >= 0")
        if not (math.isfinite(self.v0) and self.v0 >= 0.0):
            raise ValueError("v0 must be finite and >= 0")
        if not (math.isfinite(self.kappa2) and self.kappa2 > 0.0):
            raise ValueError("kappa2 must be finite and > 0")


def limit_cov(params: LimitCovariance, a: Point, b: Point) -> float:
    """E Z(a) Z(b) = rho0 * dynamic + v0 * initial; symmetric in (a, b)."""
    s, q = a
    t, r = b
    return (params.rho0 * dynamic_cov(s, q, t, r, params.kappa2)
            + params.v0 * initial_cov(s, q, t, r, params.kappa2))


def limit_cov_matrix(params: LimitCovariance, points: Sequence[Point]) -> np.ndarray:
    """Covariance matrix of the limit field on a list of (t, r) points."""
    ts = np.asarray([p[0] for p in points], float)
    rs = np.asarray([p[1] for p in points], float)
    if np.any(ts < 0.0):
        raise ValueError("times must be nonnegative")
    k2 = params.kappa2
    d = np.abs(rs[:, None] - rs[None, :])
    sum_t = ts[:, None] + ts[None, :]
    diff_t = np.abs(ts[:, None] - ts[None, :])
    dyn = mean_excess(k2 * sum_t, d) - mean_excess(k2 * diff_t, d)
    ini = (mean_excess(k2 * ts[:, None], d) + mean_excess(k2 * ts[None, :], d)
           - mean_excess(k2 * sum_t, d))
    cov = params.rho0 * dyn + params.v0 * ini
    return 0.5 * (cov + cov.T)


def fbm_cov(s: float, t: float, rho: float, kappa2: float) -> float:
    """Fixed-r time covariance rho*sqrt(kappa2/2pi)*(sqrt s + sqrt t - sqrt|t-s|).

    This is fractional Brownian motion with Hurst exponent 1/4, scaled; it
    equals limit_cov at q == r when rho0 == v0 == rho.
    """
    if s < 0.0 or t < 0.0:
        raise ValueError("times must be nonnegative")
    return rho * math.sqrt(kappa2 / (2.0 * math.pi)) * (
        math.sqrt(s) + math.sqrt(t) - math.sqrt(abs(t - s)))


# --------------------------------------------------------------------------
# quadrature cross-checks: Brownian crossing-probability integral forms
# --------------------------------------------------------------------------

def _quad(f, a, b, epsabs, points=None):
    val, err = integrate.quad(f, a, b, epsabs=epsabs, epsrel=1e-12, limit=400,
                              points=points)
    if err > max(100.0 * epsabs, 1e-9):
        raise QuadratureConvergenceError(
            f"quadrature error estimate {err:.3e} exceeds target {epsabs:.3e}")
    return val


def dynamic_cov_quadrature(s: float, q: float, t: float, r: float, kappa2: float,
                           epsabs: float = 1e-11) -> float:
    """Dynamic covariance via its integral form.

    Integrates the covariance of the two crossing indicators of a Brownian
    particle started at x: P(joint) - P(.)P(.), with Cov(B(s), B(t)) =
    min(s, t).  Independent of the closed form, which it is used to verify.
    """
    if s < 0.0 or t < 0.0:
        raise ValueError("times must be nonnegative")
    if s == 0.0 or t == 0.0:
        return 0.0
    sd_s = math.sqrt(kappa2 * s)
    sd_t = math.sqrt(kappa2 * t)
    corr = min(s, t) / math.sqrt(s * t)

    def f(x):
        h = (q - x) / sd_s
        k = (r - x) / sd_t
        return bvn_cdf(h, k, corr) - norm_cdf(q - x, kappa2 * s) * norm_cdf(r - x, kappa2 * t)

    half = 10.0 * math.sqrt(kappa2 * max(s, t))
    lo = min(q, r) - half
    hi = max(q, r) + half
    inner = sorted({q, r})
    return _quad(f, lo, hi, epsabs, points=inner)


def initial_cov_quadrature(s: float, q: float, t: float, r: float, kappa2: float,
                           epsabs: float = 1e-11) -> float:
    """Initial-noise covariance via its integral form.

    Piecewise products of one-point crossing probabilities, with the sign
    pattern depending on where the start x sits relative to q and r.
    """
    if s < 0.0 or t < 0.0:
        raise ValueError("times must be nonnegative")

    def cdf_s(x):
        return norm_cdf(q - x, kappa2 * s)

    def cdf_t(x):
        return norm_cdf(r - x, kappa2 * t)

    half = 10.0 * math.sqrt(kappa2 * max(s, t, 1e-12))
    lo_pt, hi_pt = min(q, r), max(q, r)
    total = _quad(lambda x: cdf_s(x) * cdf_t(x), hi_pt, hi_pt + half, epsabs / 3)
    total += _quad(lambda x: (1.0 - cdf_s(x)) * (1.0 - cdf_t(x)),
                   lo_pt - half, lo_pt, epsabs / 3)
    if r > q:
        total -= _quad(lambda x: cdf_s(x) * (1.0 - cdf_t(x)), q, r, epsabs / 3)
    elif q > r:
        total -= _quad(lambda x: (1.0 - cdf_s(x)) * cdf_t(x), r, q, epsabs / 3)
    return total


# --------------------------------------------------------------------------
# exact grid sampler
# --------------------------------------------------------------------------

JITTER_LADDER = (0.0, 1e-12, 1e-10, 1e-8)


@dataclass(frozen=True, eq=False)
class GridGaussian:
    """Cholesky-factored limit covariance on a fixed point grid."""

    points: Tuple[Point, ...]
    cov: np.ndarray
    chol: np.ndarray
    jitter_used: float


def build_grid_gaussian(params: LimitCovariance, points: Sequence[Point]) -> GridGaussian:
    """Factor the limit covariance on `points`, trying a small jitter ladder.

    Zero-variance points (t == 0) are carried as exact zeros rather than
    jittered, so their samples are exactly 0.
    """
    pts = tuple((float(t), float(r)) for t, r in points)
    if len(set(pts)) != len(pts):
        raise ValueError("grid points must be distinct")
    cov = limit_cov_matrix(params, pts)
    n = cov.shape[0]
    chol = np.zeros_like(cov)
    active = np.nonzero(np.diag(cov) > 0.0)[0]
    jitter = 0.0
    if active.size:
        sub = cov[np.ix_(active, active)]
        for jitter in JITTER_LADDER:
            try:
                sub_chol = np.linalg.cholesky(sub + jitter * np.eye(active.size))
                break
            except np.linalg.LinAlgError:
                continue
        else:
            raise CovarianceNotPSDError(
                "covariance not PSD even with jitter 1e-8; formula bug likely")
        chol[np.ix_(active, active)] = sub_chol
    return GridGaussian(points=pts, cov=cov, chol=chol, jitter_used=jitter)


def sample_limit_process(gg: GridGaussian, rng: np.random.Generator,
                         size: Optional[int] = None) -> np.ndarray:
    """Draw from the grid Gaussian: chol @ iid standard normals."""
    if size is None:
        return gg.chol @ rng.standard_normal(gg.chol.shape[0])
    normals = rng.standard_normal((int(size), gg.chol.shape[0]))
    return normals @ gg.chol.T


# --------------------------------------------------------------------------
# stochastic-integral sampler
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Mesh:
    dt: float
    dz: float
    z_max: float


def default_mesh(points: Sequence[Point], kappa2: float) -> Mesh:
    """Mesh resolving the heat kernel at the smallest positive time in `points`."""
    ts = [t for t, _ in points if t > 0.0]
    rs = [abs(r) for _, r in points]
    t_min = min(ts)
    t_max = max(ts)
    dt = t_min / 50.0
    dz = 0.5 * math.sqrt(kappa2 * dt)
    z_max = max(rs) + 6.0 * math.sqrt(kappa2 * t_max)
    return Mesh(dt=dt, dz=dz, z_max=z_max)


class StochasticIntegralSampler:
    """Riemann discretization of the limit field's stochastic-integral form.

    The dynamical part integrates the heat kernel against space-time white
    noise over [0, t] x R; the initial part integrates a signed crossing
    probability against a spatial white noise.  Cell noises are independent
    Gaussians, so their sum has the summed Gram matrix as its covariance:
    one factor of it draws the whole dynamical part, and one the initial
    part, with the law of drawing every cell weight individually.

    Cell coefficients use the cell root-mean-square of the heat kernel, so
    single-point variances equal the mesh-restricted integral exactly; the
    s -> t endpoint singularity is handled by integrating in sqrt(t - s).
    """

    def __init__(self, params: LimitCovariance, points: Sequence[Point], mesh: Mesh):
        self.params = params
        self.points = [(float(t), float(r)) for t, r in points]
        self.mesh = mesh
        ts = [t for t, _ in self.points if t > 0.0]
        if not ts:
            raise ValueError("need at least one point with t > 0")
        if mesh.dt > min(ts) / 50.0 + 1e-12:
            raise MeshTooCoarseError(
                f"dt={mesh.dt:.4g} exceeds t_min/50={min(ts)/50.0:.4g}")
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self):
        params, mesh = self.params, self.mesh
        k2 = params.kappa2
        npts = len(self.points)
        t_vals = np.array([t for t, _ in self.points])
        r_vals = np.array([r for _, r in self.points])
        t_max = float(t_vals.max())

        # time-slice edges: uniform dt grid, with every point time inserted
        edges = np.arange(0.0, t_max + mesh.dt * 0.5, mesh.dt)
        edges = np.union1d(np.round(edges, 12), np.round(t_vals[t_vals > 0], 12))
        if edges[0] > 0.0:
            edges = np.concatenate(([0.0], edges))
        if edges[-1] < t_max:
            edges = np.concatenate((edges, [t_max]))
        z_edges = np.arange(-mesh.z_max, mesh.z_max + mesh.dz * 0.5, mesh.dz)

        gl_x, gl_w = np.polynomial.legendre.leggauss(12)
        gram_w = np.zeros((npts, npts))
        for lo, hi in zip(edges[:-1], edges[1:]):
            coeff = np.zeros((npts, z_edges.size - 1))
            for kp, (t_k, r_k) in enumerate(self.points):
                if t_k < hi - 1e-12:
                    continue  # slice not yet active for this point
                # integrate phi^2 over the slice in w = sqrt(t_k - s)
                w_lo = math.sqrt(max(t_k - hi, 0.0))
                w_hi = math.sqrt(t_k - lo)
                half = 0.5 * (w_hi - w_lo)
                mid = 0.5 * (w_hi + w_lo)
                cell_var = np.zeros(z_edges.size - 1)
                for xg, wg in zip(gl_x, gl_w):
                    w = mid + half * xg
                    sig2 = k2 * w * w
                    if sig2 <= 0.0:
                        continue
                    # int phi_{sig2}(r-z)^2 dz over each z cell, in closed form
                    cdf_half = norm_cdf(r_k - z_edges, 0.5 * sig2)
                    inner = (cdf_half[:-1] - cdf_half[1:]) / (2.0 * math.sqrt(math.pi * sig2))
                    cell_var += wg * half * 2.0 * w * inner
                coeff[kp] = np.sqrt(np.maximum(cell_var, 0.0) * k2 * params.rho0)
            gram_w += coeff @ coeff.T

        # initial-noise line integral: z cells split at every r so the signed
        # crossing profile is smooth inside each cell
        b_edges = np.union1d(z_edges, r_vals)
        widths = np.diff(b_edges)
        bcoef = np.zeros((npts, widths.size))
        for kp, (t_k, r_k) in enumerate(self.points):
            if t_k <= 0.0:
                continue
            sig2 = k2 * t_k
            left = b_edges[:-1]
            right = b_edges[1:]
            cell_int = np.zeros(widths.size)
            pos = left >= r_k - 1e-15
            neg = right <= r_k + 1e-15
            cell_int[pos] = (mean_excess(sig2, np.maximum(left[pos] - r_k, 0.0))
                             - mean_excess(sig2, np.maximum(right[pos] - r_k, 0.0)))
            cell_int[neg] = -(mean_excess(sig2, np.maximum(r_k - right[neg], 0.0))
                              - mean_excess(sig2, np.maximum(r_k - left[neg], 0.0)))
            with np.errstate(divide="ignore", invalid="ignore"):
                bcoef[kp] = np.where(widths > 0, cell_int / np.sqrt(widths), 0.0)
        bcoef *= math.sqrt(params.v0)
        gram_b = bcoef @ bcoef.T

        self._w_factor = self._psd_factor(gram_w)
        self._b_factor = self._psd_factor(gram_b)
        self.mesh_cov = gram_w + gram_b

    @staticmethod
    def _psd_factor(g: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(g)
        return vecs * np.sqrt(np.clip(vals, 0.0, None))

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int = 1,
               split_parts: bool = False):
        """Draw `size` field vectors; optionally return (dynamic, initial) parts."""
        npts = len(self.points)
        w_part = rng.standard_normal((size, npts)) @ self._w_factor.T
        b_part = rng.standard_normal((size, npts)) @ self._b_factor.T
        if split_parts:
            return w_part, b_part
        return w_part + b_part


# --------------------------------------------------------------------------
# table emission
# --------------------------------------------------------------------------

def covariance_table(params: LimitCovariance, pairs) -> list[dict]:
    """Rows of (s, q, t, r, initial, dynamic, cov) for goldens and docs."""
    rows = []
    for (s, q), (t, r) in pairs:
        ini = initial_cov(s, q, t, r, params.kappa2)
        dyn = dynamic_cov(s, q, t, r, params.kappa2)
        rows.append({
            "s": s, "q": q, "t": t, "r": r,
            "initial_cov": ini, "dynamic_cov": dyn,
            "cov": params.rho0 * dyn + params.v0 * ini,
        })
    return rows
