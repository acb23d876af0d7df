"""Centered-normal distribution primitives used across the package.

Everything is parameterized by the *variance* (not the standard deviation),
because variances of the form kappa2*t are what the covariance formulas and
the rate-function integrands pass around.  CDFs go through the complementary
error function so that tails keep full relative accuracy.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import log_ndtr, ndtr, owens_t

from .errors import QuadratureConvergenceError

SQRT_2PI = math.sqrt(2.0 * math.pi)


def norm_cdf(x, var):
    """P(N <= x) for N ~ Normal(0, var).  var == 0 gives the unit step at 0."""
    if var < 0.0:
        raise ValueError("variance must be nonnegative")
    if var == 0.0:
        return np.where(np.asarray(x, float) >= 0.0, 1.0, 0.0)[()]
    return ndtr(np.asarray(x, float) / math.sqrt(var))[()]


def norm_sf(x, var):
    """P(N > x), evaluated as ndtr(-x/sd) to keep tiny tails accurate."""
    if var < 0.0:
        raise ValueError("variance must be nonnegative")
    if var == 0.0:
        return np.where(np.asarray(x, float) >= 0.0, 0.0, 1.0)[()]
    return ndtr(-np.asarray(x, float) / math.sqrt(var))[()]


def norm_pdf(x, var):
    """Density of Normal(0, var)."""
    if var <= 0.0:
        raise ValueError("variance must be positive")
    sd = math.sqrt(var)
    z = np.asarray(x, float) / sd
    return (np.exp(-0.5 * z * z) / (sd * SQRT_2PI))[()]


def norm_logit_cdf(x, var):
    """log(Phi(x)/(1 - Phi(x))) for Normal(0, var); stable far into both tails."""
    z = np.asarray(x, float) / math.sqrt(var)
    return (log_ndtr(z) - log_ndtr(-z))[()]


def mean_excess(var, x):
    """E(N - x)^+ for N ~ Normal(0, var) and x >= 0.

    Equals var*pdf(x) - x*(1 - cdf(x)); by convention 0 for all x when
    var == 0 (the pointwise limit).  This is the building block of both
    limit covariances, and its negative derivative in x is the survival
    function, which the quadrature modules use for tail bounds.
    """
    x_arr = np.asarray(x, float)
    if var < 0.0:
        raise ValueError("variance must be nonnegative")
    if np.any(x_arr < 0.0):
        raise ValueError("mean_excess is defined for x >= 0")
    if var == 0.0:
        return np.zeros_like(x_arr)[()]
    sd = math.sqrt(var)
    z = x_arr / sd
    return (sd * np.exp(-0.5 * z * z) / SQRT_2PI - x_arr * ndtr(-z))[()]


def mean_excess_grid(var, x):
    """Vectorized mean_excess where `var` and `x` are broadcastable arrays.

    Entries with var == 0 return 0; used to fill covariance matrices in one
    shot.
    """
    var = np.asarray(var, float)
    x = np.asarray(x, float)
    var_b, x_b = np.broadcast_arrays(var, x)
    out = np.zeros(var_b.shape, float)
    pos = var_b > 0.0
    if np.any(pos):
        sd = np.sqrt(var_b[pos])
        z = x_b[pos] / sd
        out[pos] = sd * np.exp(-0.5 * z * z) / SQRT_2PI - x_b[pos] * ndtr(-z)
    return out


def bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for standard bivariate normal with correlation rho.

    Owen's-T identity; accurate to ~1e-15, which the covariance quadrature
    cross-checks rely on.  Degenerate rho = +-1 are handled as hard limits.
    Scalars take a branch per case and give a float; arrays broadcast and
    take the same formula elementwise.
    """
    if isinstance(h, np.ndarray) or isinstance(k, np.ndarray) or isinstance(rho, np.ndarray):
        out = _bvn_cdf_array(h, k, rho)
        return float(out) if out.ndim == 0 else out
    if rho >= 1.0:
        return float(min(ndtr(h), ndtr(k)))
    if rho <= -1.0:
        return float(max(0.0, ndtr(h) + ndtr(k) - 1.0))
    if h == 0.0 and k == 0.0:
        return 0.25 + math.asin(rho) / (2.0 * math.pi)
    if h == 0.0:
        # reduce to the k == 0 branch by symmetry of the joint law
        return bvn_cdf(k, h, rho)
    den = math.sqrt(1.0 - rho * rho)
    beta = 0.5 if (h * k < 0.0 or (h * k == 0.0 and h + k < 0.0)) else 0.0
    t_h = owens_t(h, (k - rho * h) / (h * den))
    if k == 0.0:
        t_k = math.copysign(0.25, h)  # T(0, +-inf) limit
    else:
        t_k = owens_t(k, (h - rho * k) / (k * den))
    return float(0.5 * (ndtr(h) + ndtr(k)) - t_h - t_k - beta)


def _bvn_cdf_array(h, k, rho) -> np.ndarray:
    """bvn_cdf over broadcast arrays, its branches selected by np.where."""
    h, k, rho = np.broadcast_arrays(np.asarray(h, float), np.asarray(k, float),
                                    np.asarray(rho, float))
    swap = h == 0.0
    h, k = np.where(swap, k, h), np.where(swap, h, k)
    r = np.where(np.abs(rho) < 1.0, rho, 0.0)
    den = np.sqrt(1.0 - r * r)
    hk = h * k
    beta = np.where((hk < 0.0) | ((hk == 0.0) & (h + k < 0.0)), 0.5, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_h = owens_t(h, (k - r * h) / (h * den))
        t_k = np.where(k == 0.0, np.copysign(0.25, h),
                       owens_t(k, (h - r * k) / (k * den)))
    nh, nk = ndtr(h), ndtr(k)
    out = 0.5 * (nh + nk) - t_h - t_k - beta
    out = np.where((h == 0.0) & (k == 0.0), 0.25 + np.arcsin(r) / (2.0 * math.pi), out)
    out = np.where(rho >= 1.0, np.minimum(nh, nk), out)
    return np.where(rho <= -1.0, np.maximum(0.0, nh + nk - 1.0), out)


@functools.lru_cache(maxsize=16)
def gauss_panels(panels: int, order: int):
    """Nodes and weights of the `order`-point Gauss-Legendre rule on each of
    `panels` equal panels of [0, 1] (read-only arrays)."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 / panels
    mid = (np.arange(panels) + 0.5) / panels
    nodes = (mid[:, None] + half * x).ravel()
    weights = np.tile(half * w, panels)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def panel_rule(panels: int, order: int):
    """A Gauss-Legendre panel rule on [0, 1] with its doubled twin.

    Returns (nodes, w_coarse, w_fine): the gauss_panels nodes on `panels`
    panels followed by those on 2*panels panels, and the two weight
    vectors.  The fine sum is the integral, and its gap to the coarse sum
    the error estimate.
    """
    coarse, w_coarse = gauss_panels(panels, order)
    fine, w_fine = gauss_panels(2 * panels, order)
    return np.concatenate([coarse, fine]), w_coarse, w_fine


def rule_sum(values: np.ndarray, w_coarse: np.ndarray, w_fine: np.ndarray):
    """Fine-rule sums of values at panel_rule nodes (last axis), and their
    gaps |fine - coarse| to the coarse-rule sums."""
    nc = w_coarse.size
    fine = values[..., nc:] @ w_fine
    return fine, np.abs(fine - values[..., :nc] @ w_coarse)


def quadrature_ok(err, epsabs: float, magnitude) -> bool:
    """Whether doubling error estimates meet the quadrature gate.

    The gate is absolute near zero but relative for huge integrals
    (extreme tilts reach magnitudes ~e^40, where absolute targets are
    meaningless).
    """
    limit = np.maximum(max(200.0 * epsabs, 1e-9), 1e-8 * np.asarray(magnitude))
    return bool(np.all(np.asarray(err) <= limit))


# Fixed rule of mvn_cdf_3: MVN_PANELS panels of MVN_ORDER Gauss-Legendre
# nodes, checked against twice the panels.  Nearly equal times make the
# integrand steep; then the panels double, up to MVN_MAX_PANELS.
MVN_PANELS = 2
MVN_ORDER = 48
MVN_MAX_PANELS = 64


def mvn_cdf_3(upper, cov):
    """P(Z_i <= upper_i, i=1..3) for a centered trivariate normal.

    Deterministic evaluation: condition on the first coordinate and reduce
    to a 1-d integral of Owen's-T bivariate CDFs (Genz, Stat. Comput. 14,
    2004), by a Gauss-Legendre panel rule on node arrays.  `upper` may
    carry leading batch axes (shape (..., 3)); a single vector gives a
    float.  Requires a nonsingular covariance.
    """
    upper = np.asarray(upper, float)
    cov = np.asarray(cov, float)
    s11 = cov[0, 0]
    sd1 = math.sqrt(s11)
    # conditional law of (Z2, Z3) given Z1 = z
    slope = cov[1:, 0] / s11
    ccov = cov[1:, 1:] - np.outer(cov[1:, 0], cov[1:, 0]) / s11
    sd2 = math.sqrt(ccov[0, 0])
    sd3 = math.sqrt(ccov[1, 1])
    rho = ccov[0, 1] / (sd2 * sd3)

    lo = -9.0 * sd1
    span = np.maximum(np.minimum(upper[..., 0], 9.0 * sd1) - lo, 0.0)
    panels = MVN_PANELS
    while True:
        nodes, w_coarse, w_fine = panel_rule(panels, MVN_ORDER)
        z = lo + span[..., None] * nodes
        h = (upper[..., 1:2] - slope[0] * z) / sd2
        k = (upper[..., 2:3] - slope[1] * z) / sd3
        val, err = rule_sum(norm_pdf(z, s11) * bvn_cdf(h, k, rho), w_coarse, w_fine)
        val, err = val * span, err * span
        if quadrature_ok(err, 1e-12, np.abs(val)):
            return float(val) if val.ndim == 0 else val
        if panels >= MVN_MAX_PANELS:
            raise QuadratureConvergenceError(
                f"trivariate normal CDF: quadrature error {float(np.max(err)):.2e} "
                f"at {panels} panels")
        panels *= 2
