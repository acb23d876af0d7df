"""Simulating the signed particle current across moving reference lines.

Particles start from i.i.d. per-site occupancies and walk independently.
The current Y_n(t, r) counts how many ended up at or below the line
floor(n v t) + floor(r sqrt(n)) having started right of its anchor, minus
those that did the opposite.  Only a certified window of start sites is
simulated; an exact convolution gives the single-point distribution so the
simulator can be checked replica for replica.
"""

import numpy as np

import walkcurrent as wc

config = wc.ExperimentConfig(
    n=100, T=1.0, S=0.25, t_grid=(0.5, 1.0), r_grid=(-0.25, 0.0, 0.25),
    kernel=wc.validate_kernel({1: 0.7, -1: 0.3}),
    occupancy=wc.OccupancyModel.poisson(1.0),
    master_seed=7, replicas=5000)

width = wc.truncation_radius(config)
print(f"window half-width W = {width} sites "
      f"(omitted-particle bound {wc.window_bound(config, width):.2e} "
      f"<= {config.window_tol:.0e})")

field, starts, snapshots = wc.simulate_replica(config, 0, window=width,
                                               return_particles=True)
print(f"\none replica, {starts.size} particles; current matrix (t x r):")
print(field.values)

# telescoping identity: the current equals a difference of two headcounts
anchor = config.anchors()[1]
line = anchor + config.line_shifts()[1]
lhs = field.values[1, 1]
rhs = int(np.count_nonzero(snapshots[1] <= line) - np.count_nonzero(starts <= anchor))
print(f"counting identity at (t=1, r=0): {lhs} == {rhs}")

pmf = wc.exact_current_pmf(config, 1.0, 0.0)
support = np.arange(pmf.offset_min, pmf.offset_min + pmf.masses.size)
pmf_mean = np.dot(support, pmf.masses)
values = np.array([wc.simulate_replica(config, i, window=width).values[1, 1]
                   for i in range(config.replicas)])
print(f"\nexact distribution of Y_n(1, 0): mean {pmf_mean:+.4f}, "
      f"var {np.dot((support - pmf_mean) ** 2, pmf.masses):.4f}")
print(f"simulated {config.replicas} replicas: mean {values.mean():+.4f}, "
      f"var {values.var():.4f}")
scale = config.n ** 0.25
print(f"scaled comparison: simulated var {values.var() / scale**2:.4f} vs "
      f"limit {wc.limit_cov(wc.LimitCovariance(1.0, 1.0, 1.0), (1.0, 0.0), (1.0, 0.0)):.4f}")
