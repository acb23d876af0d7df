"""Large-deviation apparatus for the current at a single space-time point.

On the sqrt(n) scale the current satisfies a large deviation principle whose
limiting log-MGF is an integral, over the starting coordinate y, of the
occupancy log-MGF composed with the log-MGF of a signed Bernoulli crossing
indicator.  This module evaluates that integral and its derivative by
certified quadrature, inverts the derivative to find the tilt realizing a
target mean, and computes the rate function along two independent routes:
the Legendre dual, and the decomposition into an occupancy-deviation cost
plus a crossing-probability relative-entropy cost.  Closed forms for
Poisson occupancy, an importance sampler for finite-n tail probabilities
(the exact exponential tilt of the current, drawn from the point's
path-class table with each class reweighted by e^(alpha s_c), under Poisson
or fixed-count occupancy), and the multi-time marginal rates obtained
from independent Poisson crossing counts complete the picture.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateWeightsError,
    MgfDomainError,
    NewtonConvergenceError,
    QuadratureConvergenceError,
    TiltBracketError,
)
from .normal import (
    bvn_cdf,
    gated_rule,
    log_ndtr,
    mean_excess,
    mvn_cdf_3,
    norm_cdf,
    norm_sf,
    panel_rule,
    quadrature_ok,
    rule_sum,
)
from .occupancy import OccupancyModel, logsumexp
from .simulate import (
    TILT_STREAM,
    ClassTable,
    ExperimentConfig,
    _site_class_laws,
    _table_from_laws,
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


# Fixed y-rule of the rate quadratures: QUAD_PANELS panels of QUAD_ORDER
# Gauss-Legendre nodes on [0, y_cut], mirrored to [-y_cut, 0], checked
# against twice the panels.
QUAD_PANELS = 16
QUAD_ORDER = 24


@dataclass(frozen=True, eq=False)
class RateModel:
    """Inputs of the single-point rate apparatus: occupancy law, kappa2, t.

    y_cut, the quadrature truncation half-width, is derived: it is solved
    so that a rigorous bound on the discarded Gaussian tails stays below
    quad_tol for every tilt up to the class constant lambda_max.  The
    quadrature nodes on [-y_cut, y_cut] are fixed here, once per model.
    """

    lambda_max = 40.0  # not a field: the largest |tilt| any model takes

    occupancy: OccupancyModel
    kappa2: float
    t: float
    quad_tol: float = 1e-10
    y_cut: float = dataclasses.field(init=False)

    def __post_init__(self):
        if not self.occupancy.mgf_domain_is_real:
            raise MgfDomainError(
                "rate functions need an occupancy law whose log-MGF is finite "
                "for every real tilt; geometric occupancy is not")
        if not (self.kappa2 > 0.0 and self.t > 0.0):
            raise ValueError("kappa2 and t must be positive")
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


TILT_TOL = 1e-10  # largest mean residual of a tilt solve (or 1e-9 |x|)
# Brent's method stops when the bracket is within TILT_XTOL + TILT_RTOL |x|
TILT_XTOL = 1e-14
TILT_RTOL = 8.9e-16
TILT_MAXITER = 200


def _brent_root(f, x_lo: float, x_hi: float, f_lo: float, f_hi: float) -> float:
    """Root of f on [x_lo, x_hi] by Brent's method, given f at both ends
    with opposite signs (or a zero).

    Step for step the C routine behind scipy.optimize.brentq (Zeros/brentq.c)
    with xtol TILT_XTOL, rtol TILT_RTOL and maxiter TILT_MAXITER, so it
    returns the same float; tests/quad_oracles.py keeps brentq as the
    oracle.  Inverse quadratic interpolation or a secant step when it stays
    well inside the bracket, else bisection.
    """
    xpre, xcur, fpre, fcur = x_lo, x_hi, f_lo, f_hi
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    for _ in range(TILT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (TILT_XTOL + TILT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NewtonConvergenceError(f"tilt solve did not converge in {TILT_MAXITER} steps")


def tilt_for_mean(model: RateModel, x: float) -> float:
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
    alpha = _brent_root(lambda a: current_log_mgf_prime(model, a) - x, -L, L, f_lo, f_hi)
    resid = abs(current_log_mgf_prime(model, alpha) - x)
    if resid > max(TILT_TOL, 1e-9 * abs(x)):
        raise NewtonConvergenceError(f"tilt residual {resid:.2e} above {TILT_TOL:.2e}")
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


def log_expit(x):
    """log(1 / (1 + exp(-x))) elementwise, as scipy.special.log_expit forms it:
    x - log1p(exp(x)) below 0 and -log1p(exp(-x)) above, so neither tail
    overflows or rounds to 0."""
    x = np.asarray(x, float)
    neg = x < 0.0
    return np.where(neg, x, 0.0) - np.log1p(np.exp(np.where(neg, x, -x)))


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
    log_cdf, log_sf = log_ndtr(np.stack([z, -z]))
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


# Batch b of the tilted sampler draws TAIL_BATCH samples from the tilt
# stream's generator b, so this size fixes the random stream.
TAIL_BATCH = 8192
TAIL_MIN_ESS = 100.0  # smallest effective sample size of the hits
# Cells of one tilted table draw (see ClassTable.draw): a whole batch of the
# two Poisson classes, and under a fixed count a whole batch while a sample
# has at most 128 particles at dense sites (about 110 at n = 1e4, x = 1)
TAIL_DRAW_CELLS = 1 << 20


def tilts_exactly(occ: OccupancyModel) -> bool:
    """Whether the tilted class table is exact under occ: a Poisson count
    stays Poisson and a fixed count (v0 = 0) stays fixed under the tilt."""
    return occ.kind == "poisson" or occ.v0 == 0.0


def _tilted_table(config: ExperimentConfig, t: float, r: float,
                  alpha: float) -> Tuple[ClassTable, float]:
    """The class table of Y_n(t, r) tilted by e^(alpha Y) over config's
    certified window, and the constant c of the log likelihood ratio
    log w(y) = c - alpha y.

    The one-point table has two classes, s = +1 (started right of the
    anchor, ended at or below the line) and s = -1.  Tilting multiplies
    each class's weight pi_m(c) by e^(alpha s_c); site m's weights then sum
    to Z_m = 1 + sum_c pi_m(c) expm1(alpha s_c), a particle that does not
    cross keeping weight 1, and its count law is tilted by log Z_m.  A
    Poisson(rho) count becomes Poisson(rho Z_m), so the class means are
    rho sum_m pi_m(c) e^(alpha s_c); a fixed count stays fixed, so each row
    is renormalised by Z_m.  Either way c = sum_m Lambda_eta(log Z_m), with Lambda_eta the
    occupancy log-MGF.
    """
    occ = config.occupancy
    point = dataclasses.replace(config, t_grid=(t,), r_grid=(r,))
    lo, hi = window_span(config, truncation_radius(config))
    # one point has two classes, fewer than any window's sites
    classes, signs, probs = _site_class_laws(point, lo, hi)
    tilt = alpha * signs[:, 0]
    z_minus_1 = probs @ np.expm1(tilt)
    probs *= np.exp(tilt)
    if occ.kind != "poisson":
        probs /= (1.0 + z_minus_1)[:, None]
    log_const = float(np.sum(occ.log_mgf(np.log1p(z_minus_1))))
    return _table_from_laws(occ, classes, signs, probs), log_const


def tilted_tail_estimate(config: ExperimentConfig, t: float, r: float, x: float,
                         samples: int, alpha: Optional[float] = None) -> TailEstimate:
    """Importance-sampling estimate of P(Y_n(t, r) >= x * sqrt(n)).

    The proposal is the exact exponential tilt of Y by alpha (by default
    the limiting tilt with mean x), drawn from the tilted class table of
    the point over config's certified window (the window of the whole
    grid, which exact_current_pmf reads too), so the likelihood ratio is
    exp(c - alpha Y) and the estimator is unbiased for any alpha.
    """
    occ = config.occupancy
    if not tilts_exactly(occ):
        raise ValueError("tilted sampling supports Poisson or fixed-count occupancy")
    if alpha is None:
        alpha = tilt_for_mean(RateModel(occupancy=occ, kappa2=config.kernel.kappa2, t=t), x)
    table, log_const = _tilted_table(config, t, r, alpha)

    sqrt_n = config.sqrt_n
    threshold = math.ceil(x * sqrt_n - 1e-9)
    total = 0
    hit_logw = []
    for batch_index in range(0, math.ceil(samples / TAIL_BATCH)):
        b = min(TAIL_BATCH, samples - total)
        rng = replica_rng(config.master_seed, TILT_STREAM, batch_index)
        y_val = table.draw(rng, b, TAIL_DRAW_CELLS)[:, 0]
        hits = y_val >= threshold
        if np.any(hits):
            hit_logw.append(log_const - alpha * y_val[hits])
        total += b

    if not hit_logw:
        raise DegenerateWeightsError("no samples reached the threshold")
    lw = np.concatenate(hit_logw)
    log_sum = float(logsumexp(lw))
    log_sum2 = float(logsumexp(2.0 * lw))
    ess = math.exp(2.0 * log_sum - log_sum2)
    if ess < TAIL_MIN_ESS:
        raise DegenerateWeightsError(
            f"effective sample size {ess:.1f} below {TAIL_MIN_ESS}")
    log_p = log_sum - math.log(total)
    p_hat = math.exp(log_p)
    if p_hat < sys.float_info.min:
        raise DegenerateWeightsError(
            f"tail estimate underflows at x = {x}, n = {config.n}: log p_hat = {log_p:.1f}")
    # se / p_hat = sqrt((total sum w^2 / (sum w)^2 - 1) / total), taken in
    # logs: p_hat^2 underflows where p_hat nears the float floor
    relative_se = math.sqrt(max(math.expm1(log_sum2 + math.log(total) - 2.0 * log_sum), 0.0)
                            / total)
    return TailEstimate(p_hat=p_hat, relative_se=relative_se,
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
            return bvn_cdf(z[..., 0], z[..., 1], rho_)
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


def is_finite_number(value) -> bool:
    """True for a real, finite number that is not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def check_multi_time_inputs(times, rho, kappa2, x_vectors=None) -> None:
    """Raise ValueError, its message starting with the input's name, unless
    there are 1 to 3 positive ascending times, rho and kappa2 are positive,
    and x_vectors, when given, is a nonempty list of lists of one number
    per time, equal at equal times.  All numbers must be finite."""
    if not (isinstance(times, (list, tuple)) and 1 <= len(times) <= 3
            and all(map(is_finite_number, times))):
        raise ValueError(f"times: expected 1 to 3 numbers, got {times!r}")
    if any(t <= 0.0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError(f"times: expected positive ascending times, got {times!r}")
    for key, value in (("rho", rho), ("kappa2", kappa2)):
        if not (is_finite_number(value) and value > 0.0):
            raise ValueError(f"{key}: expected a positive number, got {value!r}")
    if x_vectors is None:
        return
    if not (isinstance(x_vectors, list) and x_vectors and all(
            isinstance(x, list) and len(x) == len(times) and all(map(is_finite_number, x))
            for x in x_vectors)):
        raise ValueError(f"x_vectors: expected a nonempty list of vectors of "
                         f"{len(times)} numbers, got {x_vectors!r}")
    # a repeated time is one current, which cannot take two values
    if any(a == b and u != v for x in x_vectors for a, b, u, v in zip(times, times[1:], x, x[1:])):
        raise ValueError(f"x_vectors: expected equal values at a repeated time, got {x_vectors!r}")


def build_multi_time_spec(times: Sequence[float], rho: float,
                          kappa2: float) -> MultiTimeSpec:
    """Compute the Poisson pattern intensities for k <= 3 ascending times."""
    check_multi_time_inputs(list(times), rho, kappa2)
    times = tuple(float(t) for t in times)
    k = len(times)
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
    # at three times, the trivariate CDFs of one call double their panels
    # together; from 16 panels on, the nodes come in more than one block,
    # and each block's CDFs meet the same gate on their own
    rates = rho * gated_rule(pattern_probs, (len(patterns), 2), panels, order, SPEC_TOL,
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
