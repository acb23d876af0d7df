"""Rare currents: exponentially tilted sampling and multi-time rates.

Plain Monte Carlo cannot see P(Y_n >= x sqrt(n)) once n grows.  Under
Poisson occupancy the current is a difference of two Poisson crossing
counts, so exponentially tilting it toward the rare event multiplies their
means by e^(+-alpha); one sample is two Poisson draws, and the likelihood
ratio, carried in log space, depends on the current alone.  The decay rate
-log(p)/sqrt(n) approaches the analytic rate as n grows, and the exact
Skellam pmf certifies every estimate.
Joint deviations at several times reduce to a small convex program over
Poisson crossing-pattern counts.
"""

import walkcurrent as wc

kernel = wc.validate_kernel({1: 0.7, -1: 0.3})
occupancy = wc.OccupancyModel.poisson(1.0)
model = wc.RateModel(occupancy=occupancy, kappa2=kernel.kappa2, t=1.0)
x = 1.0
analytic = wc.rate_legendre(model, x)
print(f"analytic rate I({x}) = {analytic:.6f}, optimal tilt "
      f"alpha = {wc.tilt_for_mean(model, x):.6f}")

print(f"\ntilted tail estimates of P(Y_n >= {x}*sqrt(n)):")
for n in (100, 400, 1600):
    cfg = wc.ExperimentConfig(
        n=n, T=1.0, S=0.25, t_grid=(1.0,), r_grid=(0.0,),
        kernel=kernel, occupancy=occupancy, master_seed=5, replicas=1)
    est = wc.tilted_tail_estimate(cfg, 1.0, 0.0, x, samples=40_000)
    line = (f"  n={n:>4}: p = {est.p_hat:.3e} (+-{100 * est.relative_se:.1f}%), "
            f"empirical rate {est.empirical_rate:.4f}, ESS {est.ess:,.0f}")
    exact = wc.exact_current_pmf(cfg, 1.0, 0.0).tail_geq(est.threshold)
    print(line + f", exact {exact:.3e}")
print(f"  the empirical rates descend toward {analytic:.4f}")

print("\njoint rate of (Y(t1), Y(t2)) deviations, Poisson(1), kappa2 = 1:")
spec = wc.build_multi_time_spec([0.5, 1.5], 1.0, 1.0)
for u, a, b in zip(spec.patterns, spec.alpha_rates, spec.beta_rates):
    print(f"  crossing pattern {u}: intensities alpha={a:.6f} beta={b:.6f}")
for xv in ([0.5, 0.8], [0.8, 0.5], [1.0, 1.0], [-0.5, 1.0]):
    print(f"  rate at x={xv}: {wc.multi_time_rate(spec, xv):.6f}")
marg = wc.poisson_rate(0.8, 1.0, 1.0, 1.5)
print(f"  (each joint rate dominates its marginals, e.g. I_t2(0.8) = {marg:.6f})")
