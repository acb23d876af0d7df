"""Centered-normal distribution primitives used across the package.

Everything is parameterized by the *variance* (not the standard deviation),
because variances of the form kappa2*t are what the covariance formulas and
the rate-function integrands pass around.  CDFs go through the complementary
error function so that tails keep full relative accuracy.  The upper tail of
the Kolmogorov-Smirnov statistic lives here too, so that the normality
diagnostics need no `scipy.stats`.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import ndtr, owens_t, smirnov

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


def mean_excess(var, x):
    """E(N - x)^+ for N ~ Normal(0, var) and x >= 0, broadcast over both.

    Equals var*pdf(x) - x*(1 - cdf(x)); by convention 0 for all x where
    var == 0 (the pointwise limit).  This is the building block of both
    limit covariances, and its negative derivative in x is the survival
    function, which the quadrature modules use for tail bounds.
    """
    var = np.asarray(var, float)
    x = np.asarray(x, float)
    if np.any(var < 0.0):
        raise ValueError("variance must be nonnegative")
    if np.any(x < 0.0):
        raise ValueError("mean_excess is defined for x >= 0")
    var, x = np.broadcast_arrays(var, x)
    out = np.zeros(var.shape)
    pos = var > 0.0
    sd = np.sqrt(var[pos])
    z = x[pos] / sd
    out[pos] = sd * np.exp(-0.5 * z * z) / SQRT_2PI - x[pos] * ndtr(-z)
    return out[()]


def bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for standard bivariate normal with correlation rho.

    Owen's-T identity; accurate to ~1e-15, which the covariance quadrature
    cross-checks rely on.  Degenerate rho = +-1 are handled as hard limits.
    Arrays broadcast; scalars give a float.
    """
    h, k, rho = np.broadcast_arrays(np.asarray(h, float), np.asarray(k, float),
                                    np.asarray(rho, float))
    swap = h == 0.0
    h, k = np.where(swap, k, h), np.where(swap, h, k)
    r = np.where(np.abs(rho) < 1.0, rho, 0.0)
    den = np.sqrt(1.0 - r * r)
    # signs compared, not h * k, which underflows to 0 for tiny h and k;
    # the Owen's-T arguments divide before they subtract, since r * h
    # rounds to 0 for a subnormal h
    beta = np.where((h < 0.0) != (k < 0.0), 0.5, 0.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_h = owens_t(h, (k / h - r) / den)
        t_k = np.where(k == 0.0, np.copysign(0.25, h),
                       owens_t(k, (h / k - r) / den))
    nh, nk = ndtr(h), ndtr(k)
    out = 0.5 * (nh + nk) - t_h - t_k - beta
    out = np.where((h == 0.0) & (k == 0.0), 0.25 + np.arcsin(r) / (2.0 * math.pi), out)
    out = np.where(rho >= 1.0, np.minimum(nh, nk), out)
    out = np.where(rho <= -1.0, np.maximum(0.0, nh + nk - 1.0), out)
    return float(out) if out.ndim == 0 else out


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


def gated_rule(values_at, panels: int, order: int, epsabs: float,
               max_panels: int, what: str, scale=1.0):
    """scale times the integral over [0, 1] of a panel-rule integrand.

    values_at(nodes) gives the integrand at the panel_rule nodes on its
    last axis.  Until the doubling error estimate, times scale, meets
    quadrature_ok, the panels double, up to max_panels; then it raises
    QuadratureConvergenceError.
    """
    while True:
        nodes, w_coarse, w_fine = panel_rule(panels, order)
        val, err = rule_sum(values_at(nodes), w_coarse, w_fine)
        val, err = val * scale, err * scale
        if quadrature_ok(err, epsabs, np.abs(val)):
            return val
        if panels >= max_panels:
            raise QuadratureConvergenceError(
                f"{what}: quadrature error {float(np.max(err)):.2e} "
                f"at {panels} panels")
        panels *= 2


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

    def values_at(nodes):
        z = lo + span[..., None] * nodes
        h = (upper[..., 1:2] - slope[0] * z) / sd2
        k = (upper[..., 2:3] - slope[1] * z) / sd3
        return norm_pdf(z, s11) * bvn_cdf(h, k, rho)

    val = gated_rule(values_at, MVN_PANELS, MVN_ORDER, 1e-12, MVN_MAX_PANELS,
                     "trivariate normal CDF", scale=span)
    return float(val) if val.ndim == 0 else val


# --------------------------------------------------------------------------
# upper tail of the two-sided Kolmogorov-Smirnov statistic
# --------------------------------------------------------------------------

# kolmogorov_sf takes more samples than this; fewer need exact branches
# (Pomeranz's recursion, products in place of Stirling) that are not here.
KS_MIN_SAMPLES = 140
# Durbin's matrix powers are rescaled by 2^128 in long double
_KS_EXP = 128
_KS_BIG = np.ldexp(np.longdouble(1), _KS_EXP)
_KS_SMALL = np.ldexp(np.longdouble(1), -_KS_EXP)
# B_2j / (2j (2j - 1)) for j = 8, ..., 1: Stirling's series for log n!
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided one-sample Kolmogorov-Smirnov
    statistic D_n of n > KS_MIN_SAMPLES samples from a continuous law.

    Simard and L'Ecuyer's method selection (J. Stat. Softw. 39(11), 2011),
    as scipy's `kstwo.sf` makes it for such n: Ruben-Gambino where n d <= 1
    or n d >= n - 1, twice the one-sided Smirnov tail where d >= 1/2 or
    n d^2 >= 2.2, 0 where n d^2 >= 370, else one minus the CDF, by Durbin's
    matrix where n <= 1e5 and n d^1.5 <= 1.4 and by Pelz-Good otherwise.
    Each branch keeps scipy's operations and their order, so the two agree
    bit for bit.
    """
    if n <= KS_MIN_SAMPLES:
        raise ValueError(f"kolmogorov_sf needs more than {KS_MIN_SAMPLES} samples, got {n}")
    # a 0-d array, as scipy passes d, so that every operation rounds alike
    x = np.asarray(d, dtype=float)
    if x >= 1.0:
        return 0.0
    if x <= 0.0:
        return 1.0
    t = n * x
    if t <= 1.0:
        if t <= 0.5:
            return 1.0
        rn = 1.0 / n
        log_ratio = (np.log(n) / 2 - n + np.log(2 * np.pi) / 2
                     + rn * np.polyval(_STIRLING_COEFFS, rn / n))  # log(n! / n^n)
        return _unit(1.0 - np.exp(log_ratio + n * np.log(2 * t - 1)))
    if t >= n - 1:
        return _unit(2 * (1.0 - x) ** n)
    nxx = t * x
    if x < 0.5 and nxx >= 370.0:
        return 0.0
    if x >= 0.5 or nxx >= 2.2:
        return _unit(2 * smirnov(n, x))
    if n <= 100_000 and n * x ** 1.5 <= 1.4:
        cdf = _durbin_cdf(n, x)
    else:
        cdf = _pelz_good_cdf(n, x)
    return _unit(1.0 - np.clip(cdf, 0.0, 1.0))


def _unit(p) -> float:
    return float(np.clip(p, 0.0, 1.0))


def _durbin_cdf(n: int, d) -> float:
    """P(D_n < d) from Durbin's matrix, as Marsaglia, Tsang and Wang compute
    it (J. Stat. Softw. 8(18), 2003): with d = (k - h)/n, the (k, k) entry of
    (n!/n^n) H^n for a (2k - 1)-square H, powers of 2^128 kept apart."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    # v: first column and reversed last row of H; w[j] = 1/j!
    powers = np.arange(1, m + 1)
    v = 1.0 - h ** powers
    w = np.empty(m)
    fac = 1.0
    for j in powers:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    corner = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + corner) * fac
    H = np.zeros((m, m))
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    power = np.eye(m)
    expnt = 0  # power is H^j / 2^expnt
    h_expnt = 0  # H is the matrix / 2^h_expnt
    left = n
    while left > 0:
        if left % 2:
            power = np.matmul(power, H)
            expnt += h_expnt
        H = np.matmul(H, H)
        h_expnt *= 2
        if np.abs(H[k - 1, k - 1]) > _KS_BIG:
            H /= _KS_BIG
            h_expnt += _KS_EXP
        left //= 2

    p = power[k - 1, k - 1]
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _KS_SMALL:
            p *= _KS_BIG
            expnt -= _KS_EXP
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return p


def _pelz_good_cdf(n: int, d) -> float:
    """P(D_n < d) by Pelz and Good's series (J. R. Stat. Soc. B 38(2), 1976):
    the Li-Chien-Korolyuk expansion K0 + K1/sqrt(n) + K2/n + K3/n^1.5 in
    z = d sqrt(n), each term rewritten through Jacobi's theta identity to
    converge fast at small z."""
    z = np.sqrt(n) * d
    z2, z3, z4, z6 = z ** 2, z ** 3, z ** 4, z ** 6
    pi2, pi4, pi6 = np.pi ** 2, np.pi ** 4, np.pi ** 6
    log_q = -pi2 / 8 / z2
    if log_q < -708:
        return 0.0
    q = np.exp(log_q)

    k1a, k1b = -z2, pi2 / 4
    k2a = 6 * z6 + 2 * z4
    k2b = (2 * z4 - 5 * z2) * pi2 / 4
    k2c = pi4 * (1 - 2 * z2) / 16
    k3d = pi6 * (5 - 30 * z2) / 64
    k3c = pi4 * (-60 * z2 + 212 * z4) / 16
    k3b = pi2 * (135 * z4 - 96 * z6) / 4
    k3a = -30 * z6 - 90 * z ** 8

    # sums of c_i q^(m^2) over odd m = 2k - 1, by Horner's scheme in q^8k
    terms = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        m2, m4, m6 = m ** 2, m ** 4, m ** 6
        terms *= np.power(q, 8 * k)
        terms += np.array([1.0,
                           k1a + k1b * m2,
                           k2a + k2b * m2 + k2c * m4,
                           k3a + k3b * m2 + k3c * m4 + k3d * m6])
    terms *= q
    terms *= math.sqrt(2 * math.pi)
    terms /= np.array([z, 6 * z4, 72 * z ** 7, 6480 * z ** 10])

    # the sums over all integers k in K2 and K3
    q = np.exp(-pi2 / 2 / z2)
    ks = np.arange(maxk, 0, -1)
    ks2 = ks ** 2
    sqrt3z = math.sqrt(3) * z
    kspi = np.pi * ks
    qk = q ** ks2
    terms[2] += np.sum(ks2 * qk) * (pi2 * math.sqrt(2 * math.pi) / (-36 * z3))
    terms[3] += (np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ks2 * qk)
                 * (pi2 * math.sqrt(2 * math.pi) / (216 * z6)))
    terms /= np.power(n * 1.0, np.arange(4) / 2.0)
    return sum(terms)
