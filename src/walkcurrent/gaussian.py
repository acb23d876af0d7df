"""Closed-form covariances of the limiting Gaussian current field.

The scaled current converges to a centered Gaussian field Z(t, r) whose
covariance splits into a dynamical part (noise created by the jumps) and an
initial part (occupancy noise transported by the evolution), both built from
the normal mean-excess function.  Along a fixed spatial offset the field is
fractional Brownian motion with Hurst exponent 1/4.

This module evaluates those closed forms and cross-checks them against
their independent Brownian-probability integral representations by a gated
Gauss-Legendre panel rule.  On a point grid the field is the Gaussian
vector with covariance limit_cov_matrix, which numpy samples exactly:
rng.multivariate_normal(zeros, cov, method="cholesky").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .normal import bvn_cov, gated_rule, mean_excess, ndtr

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
