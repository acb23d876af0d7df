"""Large-deviation apparatus for the current at a single space-time point.

On the sqrt(n) scale the current satisfies a large deviation principle whose
limiting log-MGF is an integral, over the starting coordinate y, of the
occupancy log-MGF composed with the log-MGF of a signed Bernoulli crossing
indicator.  This module evaluates that integral and its derivative by
certified quadrature, inverts the derivative to find the tilt realizing a
target mean, and computes the rate function along two independent routes:
the Legendre dual, and the decomposition into an occupancy-deviation cost
plus a crossing-probability relative-entropy cost.  Closed forms for
Poisson occupancy, an exponentially tilted importance sampler for finite-n
tail probabilities, and the multi-time marginal rates obtained from
independent Poisson crossing counts complete the picture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import integrate, optimize
from scipy.special import expit, log_expit, log_ndtr, logsumexp

from .errors import (
    DegenerateWeightsError,
    MgfDomainError,
    NewtonConvergenceError,
    QuadratureConvergenceError,
    TiltBracketError,
)
from .kernel import walk_pmf
from .normal import bvn_cdf, mean_excess, mvn_cdf_3, norm_cdf, norm_logit_cdf, norm_sf
from .occupancy import OccupancyModel
from .simulate import (
    TILT_STREAM,
    ExperimentConfig,
    bracket,
    replica_rng,
    truncation_radius,
    window_span,
)


def crossing_log_mgf(lam: float, y: float, kappa2: float, t: float) -> float:
    """Per-particle log-MGF of the signed crossing indicator at tilt lam.

    A particle starting at macroscopic distance y > 0 right of the line
    crosses (counting +1) with probability sf(y); one at y <= 0 crosses
    against the count (-1) with probability cdf(y).  Evaluated in log1p
    form for stability at large |lam| and in the Gaussian tails.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if y > 0.0:
        return math.log1p(math.expm1(lam) * norm_sf(y, kappa2 * t))
    return math.log1p(math.expm1(-lam) * norm_cdf(y, kappa2 * t))


def tilted_crossing_prob(alpha: float, y: float, kappa2: float, t: float) -> float:
    """Crossing probability cdf(y) exponentially tilted by alpha.

    Equals expit(logit(cdf(y)) - alpha); decreasing in alpha, and the
    untilted cdf at alpha = 0.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    return float(expit(norm_logit_cdf(y, kappa2 * t) - alpha))


def bernoulli_dual(p: float, x: float) -> float:
    """Relative entropy x*log(x/p) + (1-x)*log((1-x)/(1-p)), 0*log 0 = 0."""
    if x < 0.0 or x > 1.0:
        return math.inf
    out = 0.0
    if x > 0.0:
        if p == 0.0:
            return math.inf
        out += x * (math.log(x) - math.log(p))
    if x < 1.0:
        if p == 1.0:
            return math.inf
        out += (1.0 - x) * (math.log1p(-x) - math.log1p(-p))
    return out


@dataclass(frozen=True, eq=False)
class RateModel:
    """Inputs of the single-point rate apparatus: occupancy law, kappa2, t.

    y_cut is the quadrature truncation half-width; when omitted it is
    solved so that a rigorous bound on the discarded Gaussian tails stays
    below quad_tol for every tilt up to lambda_max.
    """

    occupancy: OccupancyModel
    kappa2: float
    t: float
    quad_tol: float = 1e-10
    lambda_max: float = 40.0
    y_cut: Optional[float] = None

    def __post_init__(self):
        if not self.occupancy.mgf_domain_is_real:
            raise MgfDomainError(
                "rate functions need an occupancy law whose log-MGF is finite "
                "for every real tilt; geometric occupancy is not")
        if not (self.kappa2 > 0.0 and self.t > 0.0):
            raise ValueError("kappa2 and t must be positive")
        if self.y_cut is None:
            object.__setattr__(self, "y_cut", self._solve_y_cut())

    def _solve_y_cut(self) -> float:
        sd = math.sqrt(self.kappa2 * self.t)
        amp = math.expm1(self.lambda_max)
        y = 8.0 * sd
        while True:
            # |integrand| <= gamma'(z_cap) * (e^|lam| - 1) * sf(y) out there,
            # and the sf integrates to the mean-excess at the cut
            z_cap = min(1.0, amp * float(norm_sf(y, self.kappa2 * self.t)))
            gp = self.occupancy.log_mgf_prime(z_cap)
            tail = 4.0 * amp * max(gp, 1e-300) * float(mean_excess(self.kappa2 * self.t, y))
            if tail <= 0.01 * self.quad_tol:
                return y
            y += 0.5 * sd
            if y > 200.0 * sd:
                raise QuadratureConvergenceError("could not certify a quadrature cut")


def _quad_two_sided(f, y_cut: float, epsabs: float) -> float:
    """Integrate f over [-y_cut, y_cut] split at the y = 0 kink.

    The error gate is absolute near zero but relative for huge integrals
    (extreme tilts reach magnitudes ~e^40, where absolute targets are
    meaningless).
    """
    hi, err_hi = integrate.quad(f, 0.0, y_cut, epsabs=epsabs, epsrel=1e-12, limit=400)
    lo, err_lo = integrate.quad(f, -y_cut, 0.0, epsabs=epsabs, epsrel=1e-12, limit=400)
    err = err_hi + err_lo
    if err > max(200.0 * epsabs, 1e-9, 1e-8 * (abs(hi) + abs(lo))):
        raise QuadratureConvergenceError(
            f"quadrature error {err:.2e} above target {epsabs:.2e}")
    return hi + lo


def current_log_mgf(model: RateModel, lam: float) -> float:
    """Limiting log-MGF of the current: the y-integral of the occupancy
    log-MGF evaluated at the per-particle crossing log-MGF."""
    if abs(lam) > model.lambda_max:
        raise ValueError(f"|lambda| must be <= {model.lambda_max}")
    if lam == 0.0:
        return 0.0
    occ = model.occupancy

    def f(y):
        return occ.log_mgf(crossing_log_mgf(lam, y, model.kappa2, model.t))

    return _quad_two_sided(f, model.y_cut, model.quad_tol / 4.0)


def current_log_mgf_prime(model: RateModel, lam: float) -> float:
    """Derivative of the limiting log-MGF: the tilted mean current.

    Integrand: tilted occupancy mean times the tilted crossing probability
    of the favorable side (differentiation under the integral sign).
    """
    if abs(lam) > model.lambda_max:
        raise ValueError(f"|lambda| must be <= {model.lambda_max}")
    occ = model.occupancy
    k2, t = model.kappa2, model.t

    def f_right(y):
        gp = occ.log_mgf_prime(crossing_log_mgf(lam, y, k2, t))
        return gp * (1.0 - tilted_crossing_prob(lam, y, k2, t))

    def f_left(y):
        gp = occ.log_mgf_prime(crossing_log_mgf(lam, y, k2, t))
        return gp * tilted_crossing_prob(lam, y, k2, t)

    eps = model.quad_tol / 4.0
    hi, err_hi = integrate.quad(f_right, 0.0, model.y_cut, epsabs=eps, epsrel=1e-12, limit=400)
    lo, err_lo = integrate.quad(f_left, -model.y_cut, 0.0, epsabs=eps, epsrel=1e-12, limit=400)
    if err_hi + err_lo > max(200.0 * eps, 1e-9, 1e-8 * (abs(hi) + abs(lo))):
        raise QuadratureConvergenceError("log-MGF derivative quadrature did not converge")
    return hi - lo


def tilt_for_mean(model: RateModel, x: float, tol: float = 1e-10) -> float:
    """Solve for the tilt alpha with mean current x (strictly increasing).

    Bracketed Brent solve on [-lambda_max, lambda_max]; the convergence
    contract is on the mean residual, not on alpha itself.
    """
    if x == 0.0:
        return 0.0
    L = model.lambda_max
    f_lo = current_log_mgf_prime(model, -L) - x
    f_hi = current_log_mgf_prime(model, L) - x
    if f_lo > 0.0 or f_hi < 0.0:
        raise TiltBracketError(
            f"x={x:.6g} is outside the mean range at |lambda| <= {L}")
    alpha = optimize.brentq(lambda a: current_log_mgf_prime(model, a) - x,
                            -L, L, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    resid = abs(current_log_mgf_prime(model, alpha) - x)
    if resid > max(tol, 1e-9 * abs(x)):
        raise NewtonConvergenceError(f"tilt residual {resid:.2e} above {tol:.2e}")
    return float(alpha)


def rate_legendre(model: RateModel, x: float) -> float:
    """Rate function as the Legendre dual, evaluated at the optimal tilt."""
    alpha = tilt_for_mean(model, x)
    return alpha * x - current_log_mgf(model, alpha)


@dataclass(frozen=True)
class RateParts:
    """Occupancy-deviation cost, crossing-deviation cost, and their sum."""

    occupancy_cost: float
    crossing_cost: float
    total: float


def rate_decomposed(model: RateModel, x: float) -> RateParts:
    """Rate function split into its two mechanisms, by direct quadrature.

    The occupancy part integrates the occupancy convex dual of the tilted
    per-site mean; the crossing part integrates that mean times the
    Bernoulli relative entropy between tilted and untilted crossing
    probabilities.  The sum must agree with rate_legendre.
    """
    alpha = tilt_for_mean(model, x)
    occ = model.occupancy
    k2, t = model.kappa2, model.t
    sd = math.sqrt(k2 * t)
    vmax = None
    if occ.kind == "custom":
        vmax = float(occ._values[-1])

    def occupancy_integrand(y):
        w = occ.log_mgf_prime(crossing_log_mgf(alpha, y, k2, t))
        if vmax is not None:
            w = min(max(w, float(occ._values[0])), vmax)
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

    i1 = _quad_two_sided(occupancy_integrand, model.y_cut, model.quad_tol / 4.0)
    i2 = _quad_two_sided(crossing_integrand, model.y_cut, model.quad_tol / 4.0)
    return RateParts(occupancy_cost=i1, crossing_cost=i2, total=i1 + i2)


def poisson_rate(x: float, rho: float, kappa2: float, t: float) -> float:
    """Closed-form rate function for Poisson(rho) occupancy.

    Written with asinh so the even symmetry in x is exact in floats.
    """
    if not (rho > 0.0 and kappa2 > 0.0 and t > 0.0):
        raise ValueError("rho, kappa2, t must be positive")
    scale = rho * math.sqrt(2.0 * kappa2 * t / math.pi)
    u = x / scale
    return x * math.asinh(u) - scale * (math.sqrt(1.0 + u * u) - 1.0)


# --------------------------------------------------------------------------
# exponentially tilted importance sampling at finite n
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TailEstimate:
    p_hat: float
    relative_se: float
    empirical_rate: float
    ess: float
    alpha: float
    threshold: int
    samples: int


def tilted_tail_estimate(config: ExperimentConfig, t: float, r: float, x: float,
                         samples: int, alpha: Optional[float] = None,
                         batch_size: int = 8192,
                         min_ess: float = 100.0) -> TailEstimate:
    """Importance-sampling estimate of P(Y_n(t, r) >= x * sqrt(n)).

    Site occupancies are tilted through the limiting per-site crossing
    log-MGF at the optimal tilt, crossing indicators through their exact
    exponential tilt; the likelihood ratio is accumulated exactly in log
    space, so the estimator is unbiased for any proposal tilt.  Only
    single-time crossing indicators are needed: the one-point current is a
    deterministic function of them.
    """
    occ = config.occupancy
    if occ.kind not in ("poisson", "deterministic"):
        raise ValueError("tilted sampling supports Poisson or deterministic occupancy")
    n = config.n
    sqrt_n = config.sqrt_n
    model = RateModel(occupancy=occ, kappa2=config.kernel.kappa2, t=t)
    if alpha is None:
        alpha = tilt_for_mean(model, x)

    lo, hi = window_span(config, truncation_radius(config))
    anchor = bracket(r * sqrt_n)
    line = anchor + bracket(n * config.kernel.v * t)
    sites = np.arange(lo, hi + 1)
    right = sites > anchor

    wp = walk_pmf(config.kernel, n * t, mass_tol=1e-12)
    p_cross = np.where(right,
                       np.asarray(wp.cdf(line - sites), float),
                       np.asarray(wp.sf(line - sites), float))
    sign = math.exp(alpha)
    tilt_amt = np.where(right, math.expm1(alpha), math.expm1(-alpha))
    log_m = np.log1p(tilt_amt * p_cross)
    with np.errstate(divide="ignore"):
        tilted_p = np.where(p_cross > 0.0,
                            np.exp(np.log(np.maximum(p_cross, 1e-300))
                                   + np.where(right, alpha, -alpha) - log_m),
                            0.0)
    tilted_p = np.clip(tilted_p, 0.0, 1.0)

    # occupancy tilt via the limiting Gaussian crossing log-MGF
    y_sites = sites / sqrt_n - r
    theta = np.array([crossing_log_mgf(alpha, y, config.kernel.kappa2, t)
                      for y in y_sites])
    if occ.kind == "poisson":
        prop_mean = occ.rho0 * np.exp(theta)
        log_const = float(occ.rho0 * np.sum(np.expm1(theta)))
    else:
        base_counts = np.full(sites.size, int(occ.rho0), np.int64)
        log_const = float(np.dot(base_counts, log_m))

    threshold = math.ceil(x * sqrt_n - 1e-9)
    total = 0
    hit_logw = []
    for batch_index in range(0, math.ceil(samples / batch_size)):
        b = min(batch_size, samples - total)
        rng = replica_rng(config.master_seed, TILT_STREAM, batch_index)
        if occ.kind == "poisson":
            counts = rng.poisson(prop_mean, size=(b, sites.size))
        else:
            counts = np.broadcast_to(base_counts, (b, sites.size))
        crossers = rng.binomial(counts, tilted_p[None, :])
        y_val = crossers[:, right].sum(axis=1) - crossers[:, ~right].sum(axis=1)
        if occ.kind == "poisson":
            logw = log_const - counts @ theta + counts @ log_m - alpha * y_val
        else:
            logw = log_const - alpha * y_val
        hits = y_val >= threshold
        if np.any(hits):
            hit_logw.append(np.asarray(logw, float)[hits])
        total += b

    if not hit_logw:
        raise DegenerateWeightsError("no samples reached the threshold")
    lw = np.concatenate(hit_logw)
    log_sum = float(logsumexp(lw))
    log_sum2 = float(logsumexp(2.0 * lw))
    ess = math.exp(2.0 * log_sum - log_sum2)
    if ess < min_ess:
        raise DegenerateWeightsError(
            f"effective sample size {ess:.1f} below {min_ess}")
    p_hat = math.exp(log_sum - math.log(total))
    second = math.exp(log_sum2 - math.log(total))
    var = max(second - p_hat * p_hat, 0.0)
    se = math.sqrt(var / total)
    return TailEstimate(p_hat=p_hat, relative_se=se / p_hat,
                        empirical_rate=-math.log(p_hat) / sqrt_n,
                        ess=ess, alpha=float(alpha), threshold=threshold,
                        samples=total)


# --------------------------------------------------------------------------
# multi-time marginal rates from independent Poisson crossing counts
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MultiTimeSpec:
    """Poisson intensities of the per-pattern crossing counts at k <= 3 times.

    For each nonzero 0/1 pattern u over the times, alpha_rates[u] is the
    intensity of right-started particles realizing exactly that crossing
    pattern, beta_rates[u] the mirrored left-started intensity.
    """

    times: Tuple[float, ...]
    rho: float
    kappa2: float
    patterns: Tuple[Tuple[int, ...], ...]
    alpha_rates: np.ndarray
    beta_rates: np.ndarray


def _pattern_orthant_prob(x: float, times, u, kappa2, invert: bool) -> float:
    """P over a Brownian path of the crossing pattern u at distance x.

    invert=False: ones mean {B(kappa2 t_j) <= -x}, zeros the complement.
    invert=True: ones mean {B(kappa2 t_j) > x}, zeros {<= x} (mirror side).
    Duplicated times collapse; inconsistent patterns have probability zero.
    """
    groups: dict[float, int] = {}
    red_times = []
    red_u = []
    for tj, uj in zip(times, u):
        if tj in groups:
            if red_u[groups[tj]] != uj:
                return 0.0
        else:
            groups[tj] = len(red_times)
            red_times.append(tj)
            red_u.append(uj)
    k = len(red_times)
    var = [kappa2 * tj for tj in red_times]
    cov = np.array([[kappa2 * min(a, b) for b in red_times] for a in red_times])

    def subset_cdf(idx: Sequence[int], limits: Sequence[float]) -> float:
        if len(idx) == 0:
            return 1.0
        if len(idx) == 1:
            return float(norm_cdf(limits[0], var[idx[0]]))
        sub = cov[np.ix_(idx, idx)]
        sds = np.sqrt(np.diag(sub))
        z = np.asarray(limits, float) / sds
        if len(idx) == 2:
            rho_ = sub[0, 1] / (sds[0] * sds[1])
            return bvn_cdf(z[0], z[1], rho_)
        corr = sub / np.outer(sds, sds)
        return mvn_cdf_3(z, corr)

    if not invert:
        ones = [j for j in range(k) if red_u[j] == 1]
        zeros = [j for j in range(k) if red_u[j] == 0]
        flip = zeros
        base = ones
        limit = -x
    else:
        # mirror side: expand over the ones set against {B <= x} margins
        ones = [j for j in range(k) if red_u[j] == 1]
        zeros = [j for j in range(k) if red_u[j] == 0]
        flip = ones
        base = zeros
        limit = x

    total = 0.0
    for mask in range(1 << len(flip)):
        chosen = [flip[j] for j in range(len(flip)) if (mask >> j) & 1]
        idx = sorted(base + chosen)
        total += (-1.0) ** len(chosen) * subset_cdf(idx, [limit] * len(idx))
    return total


def build_multi_time_spec(times: Sequence[float], rho: float, kappa2: float,
                          quad_tol: float = 1e-11) -> MultiTimeSpec:
    """Compute the Poisson pattern intensities for k <= 3 ascending times."""
    times = tuple(float(t) for t in times)
    k = len(times)
    if not (1 <= k <= 3):
        raise ValueError("between 1 and 3 times are supported")
    if any(t <= 0.0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("times must be positive and ascending")
    if not (rho > 0.0 and kappa2 > 0.0):
        raise ValueError("rho and kappa2 must be positive")
    patterns = [tuple((i >> j) & 1 for j in range(k)) for i in range(1, 1 << k)]
    x_max = 10.0 * math.sqrt(kappa2 * max(times))
    alpha_rates = []
    beta_rates = []
    for u in patterns:
        for invert, dest in ((False, alpha_rates), (True, beta_rates)):
            if k <= 2:
                val, err = integrate.quad(
                    lambda x: _pattern_orthant_prob(x, times, u, kappa2, invert),
                    0.0, x_max, epsabs=quad_tol, epsrel=1e-12, limit=300)
                if err > 1e-8:
                    raise QuadratureConvergenceError("pattern rate quadrature failed")
            else:
                # trivariate CDFs are costly; fixed Gauss-Legendre panels hit
                # the 1e-5 target comfortably for these smooth integrands
                nodes, weights = np.polynomial.legendre.leggauss(16)
                val = 0.0
                edges = np.linspace(0.0, x_max, 9)
                for a, b in zip(edges[:-1], edges[1:]):
                    mid, half = 0.5 * (a + b), 0.5 * (b - a)
                    for xg, wg in zip(nodes, weights):
                        val += half * wg * _pattern_orthant_prob(
                            mid + half * xg, times, u, kappa2, invert)
            dest.append(rho * val)
    return MultiTimeSpec(times=times, rho=rho, kappa2=kappa2,
                         patterns=tuple(patterns),
                         alpha_rates=np.asarray(alpha_rates),
                         beta_rates=np.asarray(beta_rates))


def multi_time_rate(spec: MultiTimeSpec, x: Sequence[float]) -> float:
    """Joint rate of the current at the spec's times, by convex duality.

    Maximizes <lam, x> minus the joint log-MGF of the signed Poisson
    pattern counts; returns math.inf when x is not representable (e.g.
    unequal values at duplicated times).
    """
    x = np.asarray(x, float)
    k = len(spec.times)
    if x.shape != (k,):
        raise ValueError(f"x must have length {k}")
    active = (spec.alpha_rates > 0.0) | (spec.beta_rates > 0.0)
    U = np.asarray(spec.patterns, float)[active]
    a_r = spec.alpha_rates[active]
    b_r = spec.beta_rates[active]
    if U.size == 0:
        return math.inf if np.any(x != 0.0) else 0.0

    # gradients live in the row space of U; outside it the dual is +inf
    coeffs, resid, rank, _ = np.linalg.lstsq(U.T, x, rcond=None)
    if not np.allclose(U.T @ coeffs, x, atol=1e-9 * (1.0 + float(np.abs(x).max()))):
        return math.inf
    basis = np.linalg.svd(U, full_matrices=False)[2][:rank].T  # k x rank
    P = U @ basis  # pattern exposures in reduced coordinates
    xr = basis.T @ x

    mu = np.zeros(rank)
    for _ in range(200):
        s = np.clip(P @ mu, -60.0, 60.0)
        ea = a_r * np.exp(s)
        eb = b_r * np.exp(-s)
        grad = xr - P.T @ (ea - eb)
        if np.linalg.norm(grad) <= 1e-10 * (1.0 + np.linalg.norm(xr)):
            value = float(mu @ xr - np.sum(a_r * np.expm1(s)) - np.sum(b_r * np.expm1(-s)))
            return value
        hess = (P.T * (ea + eb)) @ P
        step = np.linalg.solve(hess, grad)
        # backtracking on the concave dual objective
        def objective(m):
            sv = np.clip(P @ m, -60.0, 60.0)
            return float(m @ xr - np.sum(a_r * np.expm1(sv)) - np.sum(b_r * np.expm1(-sv)))
        base = objective(mu)
        scale = 1.0
        while scale > 1e-12:
            cand = mu + scale * step
            if objective(cand) > base - 1e-15:
                mu = cand
                break
            scale *= 0.5
        else:
            raise NewtonConvergenceError("multi-time dual line search stalled")
    raise NewtonConvergenceError("multi-time dual did not converge in 200 steps")
