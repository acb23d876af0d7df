"""The Gaussian limit field and its covariance, three ways.

The scaled current converges to a centered Gaussian field whose covariance
is a closed-form combination of normal mean-excess values.  This demo
evaluates the closed forms, re-derives them by quadrature of Brownian
crossing probabilities, and samples the field on a grid as the Gaussian
vector with that covariance, by numpy's Cholesky draw -- the routes agree.
Along a fixed spatial offset the field is fractional Brownian motion with
Hurst exponent 1/4: variances grow like sqrt(t).
"""

import numpy as np

import walkcurrent as wc

params = wc.LimitCovariance(rho0=1.0, v0=1.0, kappa2=1.0)
points = [(0.5, 0.0), (1.0, 0.0), (1.0, 0.5)]

print("closed-form covariance vs quadrature of the integral representation:")
for (s, q) in points:
    for (t, r) in points:
        closed = wc.limit_cov(params, (s, q), (t, r))
        quad = (params.rho0 * wc.dynamic_cov_quadrature(s, q, t, r, params.kappa2)
                + params.v0 * wc.initial_cov_quadrature(s, q, t, r, params.kappa2))
        print(f"  ({s},{q})x({t},{r}): closed {closed:.8f}  quad {quad:.8f}  "
              f"diff {closed - quad:+.1e}")

# on a grid the field is a Gaussian vector, which numpy samples exactly
cov = wc.limit_cov_matrix(params, points)
draws = np.random.default_rng(2).multivariate_normal(np.zeros(len(points)), cov,
                                                     size=50_000, method="cholesky")
emp = np.cov(draws.T)
print(f"\nexact grid draw (Cholesky), 5e4 draws: max |emp - analytic| = "
      f"{np.abs(emp - cov).max():.4f}")

ts = [0.25, 0.5, 1.0, 2.0, 4.0]
variances = [wc.limit_cov(params, (t, 0.0), (t, 0.0)) for t in ts]
slope, _ = wc.scaling_exponent(ts, variances)
print(f"\nfBM check: analytic log-variance slope across times = {slope:.12f}")
print("  (variance of the time marginal grows exactly like sqrt(t))")
for t, v in zip(ts, variances):
    print(f"  t={t:<4} var={v:.6f}  fbm_cov={wc.fbm_cov(t, t, 1.0, 1.0):.6f}")
