"""Scalar, adaptive-quadrature versions of the rate and normal-CDF layers.

The package evaluates these integrals by fixed Gauss-Legendre panel rules on
node arrays.  The functions here keep the earlier route -- scalar integrands
under adaptive `scipy.integrate.quad`, and a Brent solve per node for the
custom occupancy dual -- so the tests can compare the two.
"""

import math

import numpy as np
from scipy import integrate, optimize
from scipy.special import log_expit, log_ndtr

from walkcurrent.ldp import _pattern_orthant_prob
from walkcurrent.normal import bvn_cdf, norm_cdf, norm_pdf, norm_sf


def crossing_log_mgf(lam, y, kappa2, t):
    if y > 0.0:
        return math.log1p(math.expm1(lam) * float(norm_sf(y, kappa2 * t)))
    return math.log1p(math.expm1(-lam) * float(norm_cdf(y, kappa2 * t)))


def tilted_crossing_prob(alpha, y, kappa2, t):
    z = y / math.sqrt(kappa2 * t)
    return float(1.0 / (1.0 + math.exp(alpha - (log_ndtr(z) - log_ndtr(-z)))))


def custom_dual(occ, x):
    """Convex dual of a custom occupancy law by one Brent solve."""
    vmin, vmax = float(occ._values[0]), float(occ._values[-1])
    if x < vmin or x > vmax:
        return math.inf
    if x == vmin:
        return -math.log(occ._probs[0])
    if x == vmax:
        return -math.log(occ._probs[-1])
    th = optimize.brentq(lambda t: occ.log_mgf_prime(t) - x, -200.0, 200.0,
                         xtol=1e-13, rtol=8.9e-16, maxiter=200)
    return th * x - occ.log_mgf(th)


def _two_sided(f_right, f_left, y_cut):
    kw = dict(epsabs=1e-14, epsrel=1e-13, limit=400)
    hi, _ = integrate.quad(f_right, 0.0, y_cut, **kw)
    lo, _ = integrate.quad(f_left, -y_cut, 0.0, **kw)
    return hi, lo


def current_log_mgf(model, lam):
    if lam == 0.0:
        return 0.0
    occ, k2, t = model.occupancy, model.kappa2, model.t

    def f(y):
        return occ.log_mgf(crossing_log_mgf(lam, y, k2, t))

    hi, lo = _two_sided(f, f, model.y_cut)
    return hi + lo


def current_log_mgf_prime(model, lam):
    occ, k2, t = model.occupancy, model.kappa2, model.t

    def f_right(y):
        gp = occ.log_mgf_prime(crossing_log_mgf(lam, y, k2, t))
        return gp * (1.0 - tilted_crossing_prob(lam, y, k2, t))

    def f_left(y):
        gp = occ.log_mgf_prime(crossing_log_mgf(lam, y, k2, t))
        return gp * tilted_crossing_prob(lam, y, k2, t)

    hi, lo = _two_sided(f_right, f_left, model.y_cut)
    return hi - lo


def rate_parts(model, alpha):
    """(occupancy cost, crossing cost) at tilt alpha."""
    occ, k2, t = model.occupancy, model.kappa2, model.t
    sd = math.sqrt(k2 * t)

    def occupancy_integrand(y):
        w = occ.log_mgf_prime(crossing_log_mgf(alpha, y, k2, t))
        if occ.kind == "custom":
            w = min(max(w, float(occ._values[0])), float(occ._values[-1]))
            return custom_dual(occ, w)
        return occ.log_mgf_dual(w)

    def crossing_integrand(y):
        z = y / sd
        logit_p = log_ndtr(z) - log_ndtr(-z)
        log_f = log_expit(logit_p - alpha)
        log_1mf = log_expit(alpha - logit_p)
        fv = math.exp(log_f)
        ent = 0.0
        if fv > 0.0:
            ent += fv * (log_f - log_ndtr(z))
        if fv < 1.0:
            ent += (1.0 - fv) * (log_1mf - log_ndtr(-z))
        return occ.log_mgf_prime(crossing_log_mgf(alpha, y, k2, t)) * ent

    occ_cost = sum(_two_sided(occupancy_integrand, occupancy_integrand, model.y_cut))
    cross_cost = sum(_two_sided(crossing_integrand, crossing_integrand, model.y_cut))
    return occ_cost, cross_cost


def mvn_cdf_3(upper, cov):
    """Trivariate normal CDF: adaptive quad over the first coordinate."""
    upper = np.asarray(upper, float)
    cov = np.asarray(cov, float)
    s11 = cov[0, 0]
    sd1 = math.sqrt(s11)
    slope = cov[1:, 0] / s11
    ccov = cov[1:, 1:] - np.outer(cov[1:, 0], cov[1:, 0]) / s11
    sd2 = math.sqrt(ccov[0, 0])
    sd3 = math.sqrt(ccov[1, 1])
    rho = ccov[0, 1] / (sd2 * sd3)

    def integrand(z):
        h = (upper[1] - slope[0] * z) / sd2
        k = (upper[2] - slope[1] * z) / sd3
        return float(norm_pdf(z, s11)) * bvn_cdf(h, k, rho)

    lo = -9.0 * sd1
    hi = min(upper[0], 9.0 * sd1)
    if hi <= lo:
        return 0.0
    val, _ = integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)
    return val


def pattern_rates(times, rho, kappa2):
    """build_multi_time_spec intensities, (pattern, side), by one adaptive
    quad per pattern and side over the same x range."""
    times = tuple(float(t) for t in times)
    k = len(times)
    patterns = [tuple((i >> j) & 1 for j in range(k)) for i in range(1, 1 << k)]
    x_max = 10.0 * math.sqrt(kappa2 * max(times))
    out = np.empty((len(patterns), 2))
    for i, u in enumerate(patterns):
        for side, invert in enumerate((False, True)):
            val, _ = integrate.quad(
                lambda x: float(_pattern_orthant_prob(x, times, u, kappa2, invert)),
                0.0, x_max, epsabs=1e-14, epsrel=1e-13, limit=400)
            out[i, side] = rho * val
    return out
