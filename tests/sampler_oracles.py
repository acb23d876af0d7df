"""Second samplers of the walk and of the limit field, kept as oracles.

The package draws a displacement through the marking theorem
(`walkcurrent.kernel.sample_displacement`) and the limit field on a grid
through numpy's Cholesky draw of `walkcurrent.gaussian.limit_cov_matrix`.
The samplers here reach the same laws another way, so that the tests can
compare the two:

- `gillespie_displacement` runs the walk event by event, with explicit
  Exp(1) holding times;
- `StochasticIntegralSampler` discretizes the limit field's stochastic
  integral: space-time white noise through the heat kernel, plus the
  initial-noise line integral, on a `Mesh` (`default_mesh` resolves the
  heat kernel at the smallest time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from walkcurrent.gaussian import LimitCovariance, Point
from walkcurrent.kernel import JumpKernel
from walkcurrent.normal import mean_excess, norm_cdf


class MeshTooCoarseError(ValueError):
    """The stochastic-integral mesh does not resolve the heat kernel."""


def gillespie_displacement(kernel: JumpKernel, tau: float, rng: np.random.Generator,
                           size: Optional[int] = None):
    """Event-driven displacement: explicit Exp(1) holding times, then jumps.

    Independent of the compound-Poisson shortcut in sample_displacement;
    used as a distributional oracle in tests.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError("tau must be finite and nonnegative")
    scalar = size is None
    m = 1 if scalar else int(size)
    if tau == 0.0:
        out = np.zeros(m, np.int64)
        return int(out[0]) if scalar else out

    # enough exponential holding times to cover [0, tau] except with
    # probability ~1e-20; stragglers are finished one event at a time
    chunk = int(tau + 10.0 * math.sqrt(tau + 1.0) + 30.0)
    jumps_per_draw = np.empty(m, np.int64)
    batch = max(1, int(2e7 / chunk))
    for lo in range(0, m, batch):
        hi = min(m, lo + batch)
        holds = rng.exponential(size=(hi - lo, chunk))
        cum = np.cumsum(holds, axis=1)
        jumps_per_draw[lo:hi] = (cum < tau).sum(axis=1)
        for i in np.nonzero(cum[:, -1] < tau)[0]:
            t_acc = cum[i, -1]
            n = chunk
            while True:
                t_acc += rng.exponential()
                if t_acc >= tau:
                    break
                n += 1
            jumps_per_draw[lo + i] = n
    total = int(jumps_per_draw.sum())
    jump_values = rng.choice(kernel.offsets, size=total, p=kernel.probs)
    owner = np.repeat(np.arange(m), jumps_per_draw)
    disp = np.bincount(owner, weights=jump_values, minlength=m).astype(np.int64)
    return int(disp[0]) if scalar else disp


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
