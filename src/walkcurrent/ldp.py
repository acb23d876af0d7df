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
from scipy import optimize
from scipy.special import expit, log_expit, log_ndtr, logsumexp

from .errors import (
    DegenerateWeightsError,
    MgfDomainError,
    NewtonConvergenceError,
    QuadratureConvergenceError,
    TiltBracketError,
)
from .kernel import walk_pmf
from .normal import (
    bvn_cdf,
    gated_rule,
    mean_excess,
    mvn_cdf_3,
    norm_cdf,
    norm_logit_cdf,
    norm_sf,
    panel_rule,
    quadrature_ok,
    rule_sum,
)
from .occupancy import OccupancyModel
from .simulate import (
    TILT_STREAM,
    ExperimentConfig,
    bracket,
    replica_rng,
    truncation_radius,
    window_span,
)


def crossing_log_mgf(lam: float, y, kappa2: float, t: float):
    """Per-particle log-MGF of the signed crossing indicator at tilt lam.

    A particle starting at macroscopic distance y > 0 right of the line
    crosses (counting +1) with probability sf(y); one at y <= 0 crosses
    against the count (-1) with probability cdf(y) = sf(|y|).  Evaluated
    in log1p form for stability at large |lam| and in the Gaussian tails;
    elementwise over an array y (a scalar y gives a float).
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    y = np.asarray(y, float)
    out = _sided_log_mgf(np.where(y > 0.0, lam, -lam), norm_sf(np.abs(y), kappa2 * t))
    return float(out) if out.ndim == 0 else out


def _sided_log_mgf(side_lam, p):
    """log E exp(side_lam * B) for a Bernoulli(p) crossing indicator B."""
    return np.log1p(np.expm1(side_lam) * p)


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


# Fixed y-rule of the rate quadratures: QUAD_PANELS panels of QUAD_ORDER
# Gauss-Legendre nodes on [0, y_cut], mirrored to [-y_cut, 0], checked
# against twice the panels.
QUAD_PANELS = 16
QUAD_ORDER = 24


@dataclass(frozen=True, eq=False)
class RateModel:
    """Inputs of the single-point rate apparatus: occupancy law, kappa2, t.

    y_cut is the quadrature truncation half-width; when omitted it is
    solved so that a rigorous bound on the discarded Gaussian tails stays
    below quad_tol for every tilt up to lambda_max.  The quadrature nodes
    on [-y_cut, y_cut] are fixed here, once per model.
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
        # nodes on [0, y_cut], then their mirror images; a node's particle
        # crosses with probability sf(|y|) on either side
        nodes, w_coarse, w_fine = panel_rule(QUAD_PANELS, QUAD_ORDER)
        y = self.y_cut * nodes
        cross = norm_sf(y, self.kappa2 * self.t)
        object.__setattr__(self, "_y", np.concatenate([y, -y]))
        object.__setattr__(self, "_side", np.repeat([1.0, -1.0], y.size))
        object.__setattr__(self, "_cross", np.concatenate([cross, cross]))
        object.__setattr__(self, "_weights", (self.y_cut * w_coarse, self.y_cut * w_fine))

    def node_theta(self, lam: float) -> np.ndarray:
        """crossing_log_mgf(lam, y) at the quadrature nodes y."""
        return _sided_log_mgf(lam * self._side, self._cross)

    def _solve_y_cut(self) -> float:
        sd = math.sqrt(self.kappa2 * self.t)
        amp = math.expm1(self.lambda_max)
        y = 8.0 * sd
        while True:
            # |integrand| <= gamma'(z_cap) * (e^|lam| - 1) * sf(y) out there,
            # and the integral of the sf beyond the cut is the mean-excess
            z_cap = min(1.0, amp * float(norm_sf(y, self.kappa2 * self.t)))
            gp = self.occupancy.log_mgf_prime(z_cap)
            tail = 4.0 * amp * max(gp, 1e-300) * float(mean_excess(self.kappa2 * self.t, y))
            if tail <= 0.01 * self.quad_tol:
                return y
            y += 0.5 * sd
            if y > 200.0 * sd:
                raise QuadratureConvergenceError("could not certify a quadrature cut")


def _quad_two_sided(vals: np.ndarray, model: RateModel, what: str) -> float:
    """Integral over [-y_cut, y_cut] of an integrand given at the model's
    nodes.  Each side has its own panels, so the y = 0 kink sits on a panel
    edge and no node lies on it."""
    m = vals.size // 2
    w_coarse, w_fine = model._weights
    hi, err_hi = rule_sum(vals[:m], w_coarse, w_fine)
    lo, err_lo = rule_sum(vals[m:], w_coarse, w_fine)
    epsabs = model.quad_tol / 4.0
    if not quadrature_ok(err_hi + err_lo, epsabs, abs(hi) + abs(lo)):
        raise QuadratureConvergenceError(
            f"{what}: quadrature error {err_hi + err_lo:.2e} above target {epsabs:.2e}")
    return float(hi + lo)


def current_log_mgf(model: RateModel, lam: float) -> float:
    """Limiting log-MGF of the current: the y-integral of the occupancy
    log-MGF evaluated at the per-particle crossing log-MGF."""
    if abs(lam) > model.lambda_max:
        raise ValueError(f"|lambda| must be <= {model.lambda_max}")
    if lam == 0.0:
        return 0.0
    return _quad_two_sided(model.occupancy.log_mgf(model.node_theta(lam)), model, "log-MGF")


def current_log_mgf_prime(model: RateModel, lam: float) -> float:
    """Derivative of the limiting log-MGF: the tilted mean current.

    Integrand: tilted occupancy mean times the tilted probability that a
    particle crosses, negative on the left (differentiation under the
    integral sign).  A crossing of probability p tilted by e^(+-lam) has
    probability p e^(+-lam) / (1 + (e^(+-lam) - 1) p) = p e^(+-lam - theta),
    with theta the crossing log-MGF.
    """
    if abs(lam) > model.lambda_max:
        raise ValueError(f"|lambda| must be <= {model.lambda_max}")
    side_lam = lam * model._side
    theta = _sided_log_mgf(side_lam, model._cross)
    tilted = model._cross * np.exp(side_lam - theta)
    vals = model.occupancy.log_mgf_prime(theta) * model._side * tilted
    return _quad_two_sided(vals, model, "log-MGF derivative")


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


def rate_legendre(model: RateModel, x: float, alpha: Optional[float] = None) -> float:
    """Rate function as the Legendre dual, evaluated at the optimal tilt.

    alpha, when given, must be tilt_for_mean(model, x); it saves the solve.
    """
    if alpha is None:
        alpha = tilt_for_mean(model, x)
    return alpha * x - current_log_mgf(model, alpha)


@dataclass(frozen=True)
class RateParts:
    """Occupancy-deviation cost, crossing-deviation cost, and their sum."""

    occupancy_cost: float
    crossing_cost: float
    total: float


def rate_decomposed(model: RateModel, x: float,
                    alpha: Optional[float] = None) -> RateParts:
    """Rate function split into its two mechanisms, by direct quadrature.

    The occupancy part is the y-integral of the occupancy convex dual of
    the tilted per-site mean; the crossing part that of the same mean times
    the Bernoulli relative entropy between tilted and untilted crossing
    probabilities.  The sum must agree with rate_legendre.  alpha, when
    given, must be tilt_for_mean(model, x); it saves the solve.
    """
    if alpha is None:
        alpha = tilt_for_mean(model, x)
    occ = model.occupancy
    # tilted occupancy mean per node
    w = occ.log_mgf_prime(model.node_theta(alpha))
    if occ.kind == "custom":
        w = np.clip(w, float(occ._values[0]), float(occ._values[-1]))
    i1 = _quad_two_sided(occ.log_mgf_dual(w), model, "occupancy cost")

    # Bernoulli relative entropy of the tilted crossing indicator
    z = model._y / math.sqrt(model.kappa2 * model.t)
    log_cdf, log_sf = log_ndtr(z), log_ndtr(-z)
    logit_p = log_cdf - log_sf
    log_f = log_expit(logit_p - alpha)
    log_1mf = log_expit(alpha - logit_p)
    fv = np.exp(log_f)
    ent = fv * (log_f - log_cdf) + (1.0 - fv) * (log_1mf - log_sf)
    i2 = _quad_two_sided(w * ent, model, "crossing cost")
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
    if alpha is None:
        alpha = tilt_for_mean(RateModel(occupancy=occ, kappa2=config.kernel.kappa2, t=t), x)

    lo, hi = window_span(config, truncation_radius(config))
    anchor = bracket(r * sqrt_n)
    line = anchor + bracket(n * config.kernel.v * t)
    sites = np.arange(lo, hi + 1)
    right = sites > anchor
    # the sites right of the anchor are the suffix sites[split:]
    split = int(np.clip(anchor + 1 - lo, 0, sites.size))

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
    theta = crossing_log_mgf(alpha, y_sites, config.kernel.kappa2, t)
    if occ.kind == "poisson":
        prop_mean = occ.rho0 * np.exp(theta)
        log_const = float(occ.rho0 * np.sum(np.expm1(theta)))
        log_ratio = log_m - theta
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
        y_val = crossers[:, split:].sum(axis=1) - crossers[:, :split].sum(axis=1)
        del crossers
        if occ.kind == "poisson":
            logw = log_const + counts @ log_ratio - alpha * y_val
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


def _pattern_orthant_prob(x, times, u, kappa2, invert: bool,
                          memo: Optional[dict] = None):
    """P over a Brownian path of the crossing pattern u at distance x.

    invert=False: ones mean {B(kappa2 t_j) <= -x}, zeros the complement.
    invert=True: ones mean {B(kappa2 t_j) > x}, zeros {<= x} (mirror side).
    Duplicated times collapse; inconsistent patterns have probability zero.
    Elementwise over an array x.  `memo`, when given, keeps the orthant
    CDFs for reuse by other patterns evaluated at the same x and times.
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

    def subset_cdf(idx: Sequence[int], limit):
        """P(B(kappa2 t_j) <= limit for every j in idx)."""
        if len(idx) == 0:
            return 1.0
        if memo is None:
            return orthant_cdf(idx, limit)
        key = (tuple(idx), invert)
        if key not in memo:
            memo[key] = orthant_cdf(idx, limit)
        return memo[key]

    def orthant_cdf(idx: Sequence[int], limit):
        if len(idx) == 1:
            return norm_cdf(limit, var[idx[0]])
        sub = cov[np.ix_(idx, idx)]
        sds = np.sqrt(np.diag(sub))
        z = np.multiply.outer(limit, 1.0 / sds)
        if len(idx) == 2:
            rho_ = sub[0, 1] / (sds[0] * sds[1])
            # [()] turns a scalar limit's 0-d slices into scalars
            return bvn_cdf(z[..., 0][()], z[..., 1][()], rho_)
        corr = sub / np.outer(sds, sds)
        return mvn_cdf_3(z, corr)

    ones = [j for j in range(k) if red_u[j] == 1]
    zeros = [j for j in range(k) if red_u[j] == 0]
    # mirror side: expand over the ones set against {B <= x} margins
    base, flip, limit = (zeros, ones, x) if invert else (ones, zeros, -x)

    total = 0.0
    for mask in range(1 << len(flip)):
        chosen = [flip[j] for j in range(len(flip)) if (mask >> j) & 1]
        idx = sorted(base + chosen)
        total = total + (-1.0) ** len(chosen) * subset_cdf(idx, limit)
    return total


# Fixed x-rule of the pattern intensities on [0, x_max], per number of
# times: panels of Gauss-Legendre nodes, checked against twice the panels
# and doubled up to SPEC_MAX_PANELS.  Three times need trivariate CDFs at
# every node, so they start on fewer, lower-order panels.
SPEC_RULES = {1: (2, 48), 2: (2, 48), 3: (4, 16)}
SPEC_MAX_PANELS = 64
SPEC_TOL = 1e-11


def build_multi_time_spec(times: Sequence[float], rho: float,
                          kappa2: float) -> MultiTimeSpec:
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

    def pattern_probs(nodes):
        # (pattern, side, node); the orthant CDFs are shared across patterns
        x = x_max * nodes
        memo: dict = {}
        return np.array([[np.broadcast_to(
            _pattern_orthant_prob(x, times, u, kappa2, invert, memo), x.shape)
            for invert in (False, True)] for u in patterns])

    panels, order = SPEC_RULES[k]
    rates = rho * gated_rule(pattern_probs, panels, order, SPEC_TOL,
                             SPEC_MAX_PANELS, "pattern rate", scale=x_max)
    return MultiTimeSpec(times=times, rho=rho, kappa2=kappa2,
                         patterns=tuple(patterns),
                         alpha_rates=rates[:, 0], beta_rates=rates[:, 1])


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
