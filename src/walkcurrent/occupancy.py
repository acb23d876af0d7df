"""Initial occupancy laws: per-site samplers and their cumulant apparatus.

Each model is a nonnegative-integer law used i.i.d. across lattice sites.
Besides sampling, a model exposes its log-MGF, the tilted mean (the log-MGF
derivative), and the convex dual -- the three ingredients the rate-function
module consumes.  Models are restricted to an analytically whitelisted set
(Poisson, geometric, finite custom pmf, with a fixed count its one-point
case) so every constraint the rest of the package relies on is checkable
at construction time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import MgfDomainError, NewtonConvergenceError

INF = math.inf


def _result(arr: np.ndarray):
    """A 0-d result as a Python float, any other as the array itself."""
    return float(arr) if arr.ndim == 0 else arr


def logsumexp(a, b=None, axis=None):
    """log(sum(b * exp(a))) over `axis` (all axes by default), for weights
    b >= 0 (1 by default), as scipy.special.logsumexp forms it: the largest
    terms are factored out and the rest enter through log1p."""
    a = np.asarray(a, float)
    b = np.ones(a.shape) if b is None else np.broadcast_to(np.asarray(b, float), a.shape)
    a = np.where(b != 0.0, a, -INF)
    top = np.max(a, axis=axis, keepdims=True)
    is_top = a == top
    m = np.sum(np.where(is_top, b, 0.0), axis=axis, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        rest = np.sum(np.where(is_top, 0.0, b * np.exp(a - top)), axis=axis, keepdims=True)
        out = np.log1p(rest / m) + np.log(m) + top
        if not np.isfinite(out).all():
            # an infinite maximum, or no positive weight: the plain sum is
            # exact there
            out = np.where(np.isfinite(out), out,
                           np.log(np.sum(b * np.exp(a), axis=axis, keepdims=True)))
    return np.squeeze(out, axis=axis)[()]


@dataclass(frozen=True, eq=False)
class OccupancyModel:
    """Per-site occupancy law with mean rho0 and variance v0.

    Use the classmethod constructors; `kind` is one of "poisson",
    "geometric", "custom".  A fixed count is the one-value custom law.
    """

    kind: str
    rho0: float
    v0: float
    # geometric: success ratio s = rho/(1+rho); custom: support/probs arrays
    _s: float = 0.0
    _values: Optional[np.ndarray] = field(default=None)
    _probs: Optional[np.ndarray] = field(default=None)
    # custom: the normalized cdf of _probs, numpy's own Generator.choice table
    _cdf: Optional[np.ndarray] = field(default=None)

    # ---------------------------------------------------------------- ctors
    @classmethod
    def poisson(cls, rho: float) -> "OccupancyModel":
        if not 0.0 < rho < INF:
            raise ValueError("poisson occupancy needs a finite rho > 0")
        return cls(kind="poisson", rho0=float(rho), v0=float(rho))

    @classmethod
    def deterministic(cls, count: int) -> "OccupancyModel":
        """A fixed count: the one-point law, which custom checks."""
        return cls.custom([(count, 1.0)])

    @classmethod
    def geometric(cls, rho: float) -> "OccupancyModel":
        if not 0.0 < rho < INF:
            raise ValueError("geometric occupancy needs a finite mean rho > 0")
        s = rho / (1.0 + rho)
        return cls(kind="geometric", rho0=float(rho), v0=float(rho * (1.0 + rho)), _s=s)

    @classmethod
    def custom(cls, pmf: Sequence[Tuple[int, float]]) -> "OccupancyModel":
        if not pmf:
            raise ValueError("custom occupancy needs at least one (value, prob) pair")
        vals = []
        probs = []
        for v, p in pmf:
            iv = int(v)
            if iv != v or iv < 0:
                raise ValueError(f"occupancy value {v!r} is not a nonnegative integer")
            p = float(p)
            if p < 0.0 or not math.isfinite(p):
                raise ValueError(f"probability for value {v} must be finite and >= 0")
            if p > 0.0:
                vals.append(iv)
                probs.append(p)
        if not vals:
            raise ValueError("custom occupancy has zero total mass")
        order = np.argsort(vals)
        values = np.asarray(vals, np.int64)[order]
        if np.any(np.diff(values) == 0):
            raise ValueError("custom occupancy has duplicate values")
        parr = np.asarray(probs, float)[order]
        parr = parr / parr.sum()
        mean = float(np.dot(values, parr))
        var = float(np.dot((values - mean) ** 2, parr))
        cdf = parr.cumsum()
        cdf /= cdf[-1]
        return cls(kind="custom", rho0=mean, v0=var, _values=values, _probs=parr, _cdf=cdf)

    # ------------------------------------------------------------ cumulants
    @property
    def mgf_domain_is_real(self) -> bool:
        """True when the log-MGF is finite for every real tilt."""
        return self.kind != "geometric"

    @property
    def mgf_radius(self) -> float:
        """Supremum of admissible tilts (inf unless geometric)."""
        if self.kind == "geometric":
            return -math.log(self._s)
        return INF

    def log_mgf(self, theta):
        """log E exp(theta * count), elementwise over an array of tilts."""
        th = np.asarray(theta, float)
        if self.kind == "poisson":
            out = self.rho0 * np.expm1(th)
        elif self.kind == "geometric":
            if np.any(th >= self.mgf_radius):
                bad = float(np.max(th))
                raise MgfDomainError(
                    f"geometric occupancy log-MGF diverges at theta={bad:.6g} "
                    f"(radius {self.mgf_radius:.6g})")
            out = math.log1p(-self._s) - np.log1p(-self._s * np.exp(th))
        else:
            out = logsumexp(th[..., None] * self._values, b=self._probs, axis=-1)
        return _result(out)

    def log_mgf_prime(self, theta):
        """d/dtheta log_mgf = mean of the law tilted by exp(theta * count)."""
        th = np.asarray(theta, float)
        if self.kind == "poisson":
            out = self.rho0 * np.exp(th)
        elif self.kind == "geometric":
            if np.any(th >= self.mgf_radius):
                raise MgfDomainError("geometric occupancy tilt beyond MGF radius")
            se = self._s * np.exp(th)
            out = se / (1.0 - se)
        else:
            out = self._tilted_weights(th) @ self._values.astype(float)
        return _result(out)

    def _tilted_weights(self, th: np.ndarray) -> np.ndarray:
        """Probabilities of the custom law tilted by exp(th * count), over a
        new last axis that runs along the sorted support."""
        vals = self._values.astype(float)
        top = np.where(th >= 0.0, th * vals[-1], th * vals[0])
        w = self._probs * np.exp(th[..., None] * vals - top[..., None])
        return w / w.sum(axis=-1, keepdims=True)

    def log_mgf_dual(self, x):
        """Convex dual sup_theta {theta*x - log_mgf(theta)} for x >= 0.

        Returns math.inf where the dual diverges (values the law cannot
        tilt to), e.g. any x != c for a fixed count c.
        """
        x = np.asarray(x, float)
        if np.any(x < 0.0):
            raise ValueError("occupancy dual is defined for x >= 0")
        pos = x > 0.0
        xp = np.where(pos, x, 1.0)
        if self.kind == "poisson":
            rho = self.rho0
            out = np.where(pos, xp * np.log(xp / rho) - xp + rho, rho)
        elif self.kind == "geometric":
            s = self._s
            th = np.log(xp) - math.log(s) - np.log1p(xp)
            out = np.where(pos, th * xp - self.log_mgf(th), -math.log1p(-s))
        else:
            out = self._custom_dual(x)
        return _result(out)

    def _custom_dual(self, x: np.ndarray) -> np.ndarray:
        vmin = float(self._values[0])
        vmax = float(self._values[-1])
        out = np.full(x.shape, INF)
        out[x == vmin] = -math.log(self._probs[0])
        out[x == vmax] = -math.log(self._probs[-1])
        inner = (x > vmin) & (x < vmax)
        if np.any(inner):
            xi = x[inner]
            th = self._tilt_for_mean(xi)
            out[inner] = th * xi - self.log_mgf(th)
        return out

    def _tilt_for_mean(self, x: np.ndarray) -> np.ndarray:
        """Tilts whose custom tilted means are x, for vmin < x < vmax.

        Solves logit((mean - vmin) / (vmax - vmin)) = logit of x, which is
        linear in the tilt for a two-point law and asymptotically linear at
        both ends for any finite support.  Safeguarded Newton, elementwise:
        a step that leaves the bracket [-200, 200] (narrowed at every
        iterate) or fails to halve the previous step is replaced by
        bisection (rtsafe, Numerical Recipes 9.4).
        """
        vals = self._values.astype(float)
        vmin, vmax = vals[0], vals[-1]
        target = np.log(x - vmin) - np.log(vmax - x)
        lo = np.full(x.shape, -200.0)
        hi = np.full(x.shape, 200.0)
        th = np.zeros(x.shape)
        step_old = hi - lo
        done = np.zeros(x.shape, bool)
        for _ in range(200):
            w = self._tilted_weights(th)
            above = w @ (vals - vmin)
            below = w @ (vmax - vals)
            var = (w * (vals - (vmin + above)[..., None]) ** 2).sum(axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                f = np.log(above) - np.log(below) - target
                slope = var / above + var / below
                newton = th - f / slope
            lo = np.where(f < 0.0, th, lo)
            hi = np.where(f > 0.0, th, hi)
            use_newton = ((newton >= lo) & (newton <= hi)
                          & (np.abs(2.0 * f) <= step_old * slope))
            new = np.where(use_newton, newton, 0.5 * (lo + hi))
            step_old = np.abs(new - th)
            # a converged tilt stays put: rounding noise in f would fail the
            # halving test and send it back to bisection
            th = np.where(done | (f == 0.0), th, new)
            done |= (step_old <= 1e-13 + 4e-16 * np.abs(new)) | (f == 0.0)
            if np.all(done):
                return th
        raise NewtonConvergenceError("custom occupancy dual tilt did not converge")

    # ------------------------------------------------------------- sampling
    def sample_counts(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """i.i.d. per-site counts, as an int64 array of the given size."""
        size = int(size)
        if self.kind == "poisson":
            return rng.poisson(self.rho0, size=size).astype(np.int64)
        if self.v0 == 0.0:
            # a fixed count draws nothing
            return np.full(size, self._values[0], np.int64)
        if self.kind == "geometric":
            # numpy's geometric counts trials >= 1; subtract for support {0,1,...}
            return (rng.geometric(1.0 - self._s, size=size) - 1).astype(np.int64)
        # rng.choice(values, size, p=probs) draw for draw, without rebuilding
        # and revalidating its table on every call
        return self._values[self._cdf.searchsorted(rng.random(size), side="right")]
