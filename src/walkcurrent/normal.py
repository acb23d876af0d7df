"""Centered-normal distribution primitives used across the package.

Everything is parameterized by the *variance* (not the standard deviation),
because variances of the form kappa2*t are what the covariance formulas and
the rate-function integrands pass around.  CDFs go through the complementary
error function so that tails keep full relative accuracy.  The special
functions are numpy ports: the standard normal CDF and its logarithm
(Cephes), the bivariate CDF (Genz), and the upper tails of the
Kolmogorov-Smirnov statistics, so that the package needs no scipy.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureConvergenceError

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT1_2 = math.sqrt(0.5)
# Cephes' MAXLOG, log of the largest double: erfc(x) is 0 past x^2 = _MAXLOG
_MAXLOG = 7.09782712893383996843e2

# Cephes' rational approximations of erf and erfc (ndtr.c): erf(x) =
# x T(x^2) / U(x^2) for |x| < 1, and erfc(x) = exp(-x^2) P(x) / Q(x) for
# 1 <= x < 8, exp(-x^2) R(x) / S(x) above.  Each pair is one array, highest
# power first, the shorter polynomial padded with leading zeros (which
# leave Horner's scheme exact).
_ERF_TU = np.array([
    (0.0, 1.0),
    (9.60497373987051638749e0, 3.35617141647503099647e1),
    (9.00260197203842689217e1, 5.21357949780152679795e2),
    (2.23200534594684319226e3, 4.59432382970980127987e3),
    (7.00332514112805075473e3, 2.26290000613890934246e4),
    (5.55923013010394962768e4, 4.92673942608635921086e4)])
_ERFC_PQ = np.array([
    (2.46196981473530512524e-10, 1.0),
    (5.64189564831068821977e-1, 1.32281951154744992508e1),
    (7.46321056442269912687e0, 8.67072140885989742329e1),
    (4.86371970985681366614e1, 3.54937778887819891062e2),
    (1.96520832956077098242e2, 9.75708501743205489753e2),
    (5.26445194995477358631e2, 1.82390916687909736289e3),
    (9.34528527171957607540e2, 2.24633760818710981792e3),
    (1.02755188689515710272e3, 1.65666309194161350182e3),
    (5.57535335369399327526e2, 5.57535340817727675546e2)])
_ERFC_RS = np.array([
    (0.0, 1.0),
    (5.64189583547755073984e-1, 2.26052863220117276590e0),
    (1.27536670759978104416e0, 9.39603524938001434673e0),
    (5.01905042251180477414e0, 1.20489539808096656605e1),
    (6.16021097993053585195e0, 1.70814450747565897222e1),
    (7.40974269950448939160e0, 9.60896809063285878198e0),
    (2.97886665372100240670e0, 3.36907645100081516050e0)])


def _horner(x: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """A pair of polynomials (columns of `pair`, highest power first) at x,
    as the two rows of one array, by Horner's scheme on both at once."""
    rows = pair[:, :, None]
    out = rows[0] * x
    out += rows[1]
    for c in rows[2:]:
        out *= x
        out += c
    return out


# The cell budget of every kernel block: ndtr works through its values,
# bvn_cdf through its (Genz node, point) cells and gated_rule through its
# (point, node) cells in blocks of at most this many, which keeps the
# temporaries of their array passes in cache.  Block lengths are multiples
# of BLOCK_ALIGN: a matrix-vector product (OpenBLAS dgemv) computes the
# outputs past the last multiple of 4 in a loop of their own, which rounds
# differently, so only blocks of whole multiples leave every value as one
# call over all the points gives it.
BLOCK_CELLS = 1 << 13
BLOCK_ALIGN = 16


def _block_length(cells_per_item: int) -> int:
    """Items per block: as many as BLOCK_CELLS cells hold, rounded down to
    a multiple of BLOCK_ALIGN, and at least BLOCK_ALIGN."""
    return max(BLOCK_CELLS // max(cells_per_item, 1) // BLOCK_ALIGN, 1) * BLOCK_ALIGN


def _ndtr_block(a: np.ndarray, out: np.ndarray) -> None:
    """ndtr(a sqrt 2) for a 1-d block into out, as Cephes' ndtr takes it:
    1/2 + erf(a)/2 where |a| < 1/sqrt 2, else erfc(|a|)/2 or its
    complement.  Each pass that can runs in place, so that the block holds
    few temporaries."""
    z = np.abs(a)
    z2 = z * z
    tu = _horner(z2, _ERF_TU)
    erf = z * tu[0]
    erf /= tu[1]  # erf(z), used where z < 1
    del tu
    pq = _horner(z, _ERFC_PQ)
    np.negative(z2, out=out)
    np.exp(out, out=out)
    out *= pq[0]
    out /= pq[1]  # erfc(z)
    del pq
    # a NaN fails the test, so it leaves the other values of its block alone
    far = z >= 8.0
    if far.any():
        zf = z[far]
        rs = _horner(zf, _ERFC_RS)
        out[far] = np.exp(-zf * zf) * rs[0] / rs[1]
    np.subtract(1.0, erf, out=out, where=z < 1.0)
    out[z2 > _MAXLOG] = 0.0
    out *= 0.5
    np.subtract(1.0, out, out=out, where=a > 0.0)
    np.copysign(erf, a, out=erf)
    erf *= 0.5
    erf += 0.5
    np.copyto(out, erf, where=z < SQRT1_2)


def ndtr(x):
    """Standard normal CDF, as Cephes' ndtr computes it: 1/2 + erf(x/sqrt 2)/2
    near 0, erfc(|x|/sqrt 2)/2 (or its complement) elsewhere, so that the
    lower tail keeps full relative accuracy down to the underflow near -38.5.
    Arrays map elementwise; a scalar gives a 0-d result as numpy's ufuncs do.
    """
    x = np.asarray(x, float)
    a = (x * SQRT1_2).ravel()
    out = np.empty(a.shape)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        for s in range(0, a.size, BLOCK_CELLS):
            _ndtr_block(a[s:s + BLOCK_CELLS], out[s:s + BLOCK_CELLS])
    return out.reshape(x.shape)[()]


# log ndtr(x) below this x is the asymptotic series, in LOG_NDTR_TERMS terms
_LOG_NDTR_SERIES_BELOW = -20.0
_LOG_NDTR_TERMS = 16


def log_ndtr(x):
    """log of the standard normal CDF with full relative accuracy: log1p of
    minus the upper tail above -1, the log of ndtr down to -20, and below it
    the asymptotic series -x^2/2 - log(-x sqrt(2 pi)) + log(1 - 1/x^2 +
    3/x^4 - ...), whose terms fall below 1e-20 there."""
    x = np.asarray(x, float)
    high = x > -1.0
    tail = ndtr(np.where(high, -x, x))
    with np.errstate(divide="ignore"):
        out = np.where(high, np.log1p(-tail), np.log(tail))
    low = x <= _LOG_NDTR_SERIES_BELOW
    if low.any():
        xl = x[low]
        inv = 1.0 / (xl * xl)
        term = np.ones(xl.shape)
        series = np.ones(xl.shape)
        for i in range(1, _LOG_NDTR_TERMS):
            term *= -(2 * i - 1) * inv
            series += term
        out[low] = (-0.5 * xl * xl - np.log(-xl) - 0.5 * math.log(2.0 * math.pi)
                    + np.log(series))
    return out[()]


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


def _bvn_moderate(h, k, r, nh, nk, x, w):
    """P(X <= h, Y <= k) for |r| < 0.925: Drezner and Wesolowsky's integral
    of the density over the correlation, from 0 to r, in Genz's
    arcsine form."""
    # arrays are (node, point), so that each pass runs along the points; a
    # scalar r gives (node, 1) node terms
    asr = 0.5 * np.arcsin(r)
    sn = np.sin(x[:, None] * asr)
    den = 1.0 - sn * sn
    hs = 0.5 * (h * h + k * k)
    # the exponent is at most 0: |sn hk| <= |hk| <= hs
    e = sn * (h * k)
    e -= hs
    e /= den
    return (w @ np.exp(e)) * (asr / (2.0 * math.pi)) + nh * nk


def _bvn_strong(h, k, r, nh, nk, x, w):
    """P(X <= h, Y <= k) for 0.925 <= |r| < 1: Genz's bvnu(-h, -k, r), which
    integrates from |r| to 1 after an asymptotic expansion of the
    singular part."""
    # arrays are (node, point), so that each pass runs along the points; a
    # scalar r gives (node, 1) node terms
    neg = r < 0.0
    as_ = 1.0 - r * r
    a = np.sqrt(as_)
    xs = (0.5 * x[:, None] * a) ** 2
    rs = np.sqrt(1.0 - xs)
    shrink, inv_rs = xs / (1.0 + rs) ** 2, 1.0 / rs
    hh = -h
    kk = np.where(neg, k, -k)
    hk = hh * kk
    bs = (hh - kk) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    # every exponent below is at most 0, since bs >= -4 hk
    bvn = a * np.exp(-0.5 * (bs / as_ + hk)) * (
        1.0 - c * (bs - as_) * (1.0 - d * bs) / 3.0 + c * d * as_ * as_)
    b = np.sqrt(bs)
    with np.errstate(over="ignore", invalid="ignore"):
        lead = (np.exp(-0.5 * hk) * (SQRT_2PI * ndtr(-b / a)) * b
                * (1.0 - c * bs * (1.0 - d * bs) / 3.0))
    bvn = bvn - np.where(hk > -100.0, lead, 0.0)
    expo = bs / xs
    expo += hk
    expo *= -0.5
    # Genz drops the nodes whose exponent is below -100; the floor keeps
    # exp off its slow path for huge negative arguments
    drop = expo < -100.0
    np.maximum(expo, -100.0, out=expo)
    sp = 5.0 * d * xs
    sp += 1.0
    sp *= c * xs
    sp += 1.0
    sp *= np.exp(expo)
    expo -= 0.5 * hk * shrink
    sp -= np.exp(expo) * inv_rs
    sp[drop] = 0.0
    bvn = (0.5 * a * (w @ sp) - bvn) / (2.0 * math.pi)
    # P(X > -h, Y > -k) for r > 0; for r < 0, the orthant with k flipped
    flip = hh < 0.0
    upper = np.where(flip, nk, nh) - ndtr(np.where(flip, -h, -k))
    return np.where(neg, np.where(hh >= kk, -bvn, upper - bvn), bvn + np.minimum(nh, nk))


@functools.cache
def _bvn_rules():
    """(upper |rho|, nodes, weights, form) for Genz's brackets: 6, 12 and
    20 Gauss-Legendre nodes on [0, 2] below |rho| = 0.3, 0.75 and 0.925,
    the moderate form, and 20 with the strong form below 1.  Built on the
    first call, so that a run that never needs them skips numpy.polynomial."""
    rules = []
    for hi, order, form in ((0.3, 6, _bvn_moderate), (0.75, 12, _bvn_moderate),
                            (0.925, 20, _bvn_moderate), (1.0, 20, _bvn_strong)):
        x, w = np.polynomial.legendre.leggauss(order)
        x = 1.0 + x
        x.setflags(write=False)
        w.setflags(write=False)
        rules.append((hi, x, w, form))
    return tuple(rules)


def _bvn(h, k, rho):
    """(cdf, ndtr(h), ndtr(k), shape): bvn_cdf's values and marginals as
    flat arrays, and the broadcast shape to give them."""
    h, k = np.asarray(h, float), np.asarray(k, float)
    rho = np.asarray(rho, float)
    shape = np.broadcast_shapes(h.shape, k.shape, rho.shape)
    h, k = np.broadcast_to(h, shape).ravel(), np.broadcast_to(k, shape).ravel()
    if rho.ndim:
        rho = np.broadcast_to(rho, shape).ravel()
    nh, nk = ndtr(h), ndtr(k)
    out = np.full(h.shape, np.nan)
    mag = np.abs(rho)
    lo = 0.0
    # an infinite h or k gives NaN here; it is set from the margins below
    with np.errstate(invalid="ignore"):
        for hi, x, w, form in _bvn_rules():
            step = _block_length(x.size)
            if rho.ndim:
                idx = np.flatnonzero((mag >= lo) & (mag < hi))
                blocks = [idx[s:s + step] for s in range(0, idx.size, step)]
            else:  # a shared rho puts every point in one bracket, read in slices
                blocks = [slice(s, s + step) for s in range(0, h.size if lo <= mag < hi else 0,
                                                             step)]
            lo = hi
            for blk in blocks:
                r = rho if rho.ndim == 0 else rho[blk]
                out[blk] = form(h[blk], k[blk], r, nh[blk], nk[blk], x, w)
    np.clip(out, 0.0, 1.0, out=out)
    origin = (h == 0.0) & (k == 0.0)
    if origin.any():
        np.copyto(out, 0.25 + np.arcsin(np.where(mag < 1.0, rho, 0.0)) / (2.0 * math.pi),
                  where=origin)
    if np.any(rho >= 1.0):
        np.copyto(out, np.minimum(nh, nk), where=rho >= 1.0)
    if np.any(rho <= -1.0):
        np.copyto(out, np.maximum(0.0, nh + nk - 1.0), where=rho <= -1.0)
    np.copyto(out, nh, where=k == np.inf)
    np.copyto(out, nk, where=h == np.inf)
    np.copyto(out, 0.0, where=(h == -np.inf) | (k == -np.inf))
    return out, nh, nk, shape


def _shaped(out: np.ndarray, shape):
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


def bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for standard bivariate normal with correlation rho.

    Genz's Gauss-Legendre form of Drezner and Wesolowsky's method (Stat.
    Comput. 14, 2004), blockwise over the points; accurate to ~1e-16
    absolute, which the covariance quadrature cross-checks rely on.
    Degenerate rho = +-1 and h = k = 0 are handled as closed forms.  Arrays
    broadcast; a scalar rho is shared by every point, an array rho is read
    per point.  Scalars give a float.
    """
    out, _, _, shape = _bvn(h, k, rho)
    return _shaped(out, shape)


def bvn_cov(h, k, rho):
    """bvn_cdf(h, k, rho) - ndtr(h) ndtr(k), the covariance of the indicators
    of X <= h and Y <= k, reusing bvn_cdf's own marginals."""
    out, nh, nk, shape = _bvn(h, k, rho)
    return _shaped(out - nh * nk, shape)


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


def gated_rule(values_at, shape: tuple, panels: int, order: int, epsabs: float,
               max_panels: int, what: str, scale=1.0):
    """scale times the integral over [0, 1] of a panel-rule integrand.

    values_at(nodes) gives the integrand at the given panel_rule nodes on
    its last axis, as an array of shape `shape + nodes.shape` (or one that
    broadcasts to it).  It is called on blocks of at most BLOCK_CELLS
    (point, node) cells, but at least BLOCK_ALIGN nodes, and the blocks
    fill one array of values, so an integrand that is elementwise along
    its nodes gives the same sums whatever the blocks.  Until the doubling
    error estimate, times scale, meets quadrature_ok, the panels double,
    up to max_panels; then it raises QuadratureConvergenceError.
    """
    step = _block_length(math.prod(shape))
    while True:
        nodes, w_coarse, w_fine = panel_rule(panels, order)
        values = np.empty(shape + nodes.shape)
        for s in range(0, nodes.size, step):
            values[..., s:s + step] = values_at(nodes[s:s + step])
        val, err = rule_sum(values, w_coarse, w_fine)
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
    to a 1-d integral of bivariate CDFs (Genz, Stat. Comput. 14, 2004), by
    a Gauss-Legendre panel rule on node arrays.  `upper` may
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

    val = gated_rule(values_at, span.shape, MVN_PANELS, MVN_ORDER, 1e-12, MVN_MAX_PANELS,
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
    bit for bit, but for the one-sided tail, `smirnov`, which agrees with
    scipy's to 1e-12.
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


# Stirling's remainder at k = 0, ..., 9 (0 at k = 0, where it is unused)
_STIRLING_SMALL = np.array([0.0] + [
    math.lgamma(j + 1.0) - (j * math.log(j) - j + 0.5 * math.log(2.0 * math.pi * j))
    for j in range(1, 10)])


def stirling_remainder(k):
    """log k! - (k log k - k + log(2 pi k) / 2) for integers k >= 1, the
    remainder of Stirling's formula, elementwise: from math.lgamma for
    k < 10, else the first eight terms of its series (error below 1e-17)."""
    k = np.asarray(k, float)
    small = k < _STIRLING_SMALL.size
    kb = np.where(small, 10.0, k)
    series = np.polyval(_STIRLING_COEFFS, 1.0 / (kb * kb)) / kb
    return np.where(small, _STIRLING_SMALL[np.where(small, k, 0).astype(np.int64)],
                    series)[()]


def smirnov(n: int, d) -> float:
    """P(D+_n >= d) for the one-sided Kolmogorov-Smirnov statistic of n
    samples, 0 < d < 1: the Birnbaum-Tingey sum (Ann. Math. Statist. 22,
    1951) over j <= n (1 - d) of C(n, j) (1 - d - j/n)^(n - j) (d + j/n)^(j - 1) d.

    Each term is formed in log space, with Stirling's formula for C(n, j)
    written so that its O(n) parts cancel before rounding: j log(1 + d n/j)
    + (n - j) log(1 - d n/(n - j)) plus O(log n) terms.
    """
    d = float(d)
    j = np.arange(1.0, min(math.floor(n * (1.0 - d)), n - 1) + 1.0)
    m = n - j
    with np.errstate(divide="ignore"):
        log_terms = (j * np.log1p(d * n / j) + m * np.log1p(-np.minimum(d * n / m, 1.0))
                     - np.log(d + j / n) + 0.5 * np.log(n / (2.0 * math.pi * j * m))
                     + stirling_remainder(n) - stirling_remainder(j) - stirling_remainder(m))
    return float(np.sum(d * np.exp(log_terms))) + math.exp(n * math.log1p(-d))


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
