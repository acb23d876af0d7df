"""Closed-form covariances of the limiting Gaussian current field.

The scaled current converges to a centered Gaussian field Z(t, r) whose
covariance splits into a dynamical part (noise created by the jumps) and an
initial part (occupancy noise transported by the evolution), both built from
the normal mean-excess function.  Along a fixed spatial offset the field is
fractional Brownian motion with Hurst exponent 1/4.

This module evaluates those closed forms, cross-checks them against their
independent Brownian-probability integral representations by a gated
Gauss-Legendre panel rule, and samples the limit field approximately
through a discretized stochastic integral driven by space-time white noise
plus an initial-noise line integral.  On a point grid the field is the
Gaussian vector with covariance limit_cov_matrix, which numpy samples
exactly: rng.multivariate_normal(zeros, cov, method="cholesky").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .errors import MeshTooCoarseError
from .normal import bvn_cov, gated_rule, mean_excess, ndtr, norm_cdf

Point = Tuple[float, float]  # (t, r)


def _broadcast(s, q, t, r):
    """(s, q, t, r) as broadcast float arrays; the times must be nonnegative."""
    s, q, t, r = np.broadcast_arrays(*(np.asarray(v, float) for v in (s, q, t, r)))
    if np.any(s < 0.0) or np.any(t < 0.0):
        raise ValueError("times must be nonnegative")
    return s, q, t, r


def _value(out):
    """A float for a 0-d result, else the array."""
    return float(out) if np.ndim(out) == 0 else out


def dynamic_cov(s, q, t, r, kappa2: float):
    """Covariance contribution from jump noise between points (s,q), (t,r).

    Broadcasts over arrays of (s, q, t, r); scalars give a float.
    """
    s, q, t, r = _broadcast(s, q, t, r)
    at_sum, at_gap = mean_excess(kappa2 * np.stack([t + s, np.abs(t - s)]), np.abs(q - r))
    return _value(at_sum - at_gap)


def initial_cov(s, q, t, r, kappa2: float):
    """Covariance contribution from transported initial-occupancy noise.

    Broadcasts like dynamic_cov.
    """
    s, q, t, r = _broadcast(s, q, t, r)
    at_s, at_t, at_sum = mean_excess(kappa2 * np.stack([s, t, t + s]), np.abs(q - r))
    return _value(at_s + at_t - at_sum)


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


def limit_cov(params: LimitCovariance, a: Point, b: Point):
    """E Z(a) Z(b) = rho0 * dynamic + v0 * initial; symmetric in (a, b).

    The coordinates of a = (s, q) and b = (t, r) broadcast like dynamic_cov's.
    """
    s, q = a
    t, r = b
    return (params.rho0 * dynamic_cov(s, q, t, r, params.kappa2)
            + params.v0 * initial_cov(s, q, t, r, params.kappa2))


def limit_cov_matrix(params: LimitCovariance, points: Sequence[Point]) -> np.ndarray:
    """Covariance matrix of the limit field on a list of (t, r) points."""
    ts = np.asarray([p[0] for p in points], float)
    rs = np.asarray([p[1] for p in points], float)
    cov = limit_cov(params, (ts[:, None], rs[:, None]), (ts[None, :], rs[None, :]))
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

# Rule of the integral forms: INTEGRAL_PANELS panels of INTEGRAL_ORDER
# Gauss-Legendre nodes, doubled up to INTEGRAL_MAX_PANELS.  Each window ends
# INTEGRAL_SDS deviations past a crossing point, where the integrand is below
# Phi(-10), so a short time beside a long one narrows the window instead.
INTEGRAL_PANELS = 2
INTEGRAL_ORDER = 48
INTEGRAL_MAX_PANELS = 64
INTEGRAL_SDS = 10.0


def _integral(values_at, lo, hi, what: str):
    """Integrals of values_at(x) over [lo, hi] (broadcast; 0 where hi <= lo)."""
    span = np.maximum(hi - lo, 0.0)

    def at_nodes(nodes):
        return values_at(lo[..., None] + span[..., None] * nodes)

    return gated_rule(at_nodes, span.shape, INTEGRAL_PANELS, INTEGRAL_ORDER, 1e-12,
                      INTEGRAL_MAX_PANELS, what, scale=span)


def dynamic_cov_quadrature(s, q, t, r, kappa2: float):
    """Dynamic covariance via its integral form.

    Integrates the covariance of the two crossing indicators of a Brownian
    particle started at x: P(joint) - P(.)P(.), with Cov(B(s), B(t)) =
    min(s, t).  Independent of the closed form, which it is used to verify.
    |Cov(1_A, 1_B)| <= min(P(A), 1 - P(A)), and the same for B, so x runs
    only over the starts within INTEGRAL_SDS deviations of q and of r.
    Broadcasts like dynamic_cov; 0 where s or t is 0.
    """
    s, q, t, r = _broadcast(s, q, t, r)
    live = (s > 0.0) & (t > 0.0)  # elsewhere a dummy time 1, its integral discarded
    sd_s, sd_t = (np.sqrt(kappa2 * np.where(live, v, 1.0)) for v in (s, t))
    corr = np.minimum(sd_s, sd_t) / np.maximum(sd_s, sd_t)  # min(s, t) / sqrt(s t)

    def f(x):
        h = (q[..., None] - x) / sd_s[..., None]
        k = (r[..., None] - x) / sd_t[..., None]
        return bvn_cov(h, k, corr[..., None])

    val = _integral(f, np.maximum(q - INTEGRAL_SDS * sd_s, r - INTEGRAL_SDS * sd_t),
                    np.minimum(q + INTEGRAL_SDS * sd_s, r + INTEGRAL_SDS * sd_t),
                    "dynamic covariance integral")
    return _value(np.where(live, val, 0.0))


def initial_cov_quadrature(s, q, t, r, kappa2: float):
    """Initial-noise covariance via its integral form.

    Piecewise products of one-point crossing probabilities, with the sign
    pattern depending on where the start x sits relative to q and r.
    Broadcasts like dynamic_cov; 0 where s or t is 0.
    """
    s, q, t, r = _broadcast(s, q, t, r)
    live = (s > 0.0) & (t > 0.0)
    sd_s, sd_t = (np.sqrt(kappa2 * np.where(live, v, 1.0)) for v in (s, t))
    # the form is symmetric in its two points: a is the lower one, b the upper
    swap = q > r
    a, b = np.where(swap, r, q), np.where(swap, q, r)
    sd_a, sd_b = np.where(swap, sd_t, sd_s), np.where(swap, sd_s, sd_t)
    tail = INTEGRAL_SDS * np.minimum(sd_a, sd_b)

    # three pieces on a leading axis: right of both points, left of both,
    # and between them, where exactly one indicator counts
    def f(x):
        cdf_a = ndtr((a[..., None] - x) / sd_a[..., None])
        cdf_b = ndtr((b[..., None] - x) / sd_b[..., None])
        return np.stack([cdf_a[0] * cdf_b[0], (1.0 - cdf_a[1]) * (1.0 - cdf_b[1]),
                         cdf_a[2] * (1.0 - cdf_b[2])])

    lo = np.stack([b, a - tail, np.maximum(a, b - INTEGRAL_SDS * sd_b)])
    hi = np.stack([b + tail, a, np.minimum(b, a + INTEGRAL_SDS * sd_a)])
    right, left, between = _integral(f, lo, hi, "initial covariance integral")
    return _value(np.where(live, right + left - between, 0.0))


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
    s, q, t, r = np.asarray(pairs, float).reshape(-1, 4).T
    ini = initial_cov(s, q, t, r, params.kappa2)
    dyn = dynamic_cov(s, q, t, r, params.kappa2)
    cov = params.rho0 * dyn + params.v0 * ini  # limit_cov, from the parts at hand
    return [{"s": s, "q": q, "t": t, "r": r,
             "initial_cov": i, "dynamic_cov": d, "cov": c}
            for ((s, q), (t, r)), i, d, c in zip(pairs, ini.tolist(), dyn.tolist(),
                                                 cov.tolist())]
