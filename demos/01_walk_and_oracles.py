"""Jump kernels and their displacement oracles.

A walk jumps at unit rate with integer displacements drawn from a validated
kernel.  Its position after time tau can be sampled two independent ways --
a compound-Poisson shortcut and an explicit event loop -- and its exact law
is available by convolution.  Rigorous Chernoff bounds cap how far the walk
strays; those bounds drive the simulation window elsewhere in the package.
"""

import numpy as np
from scipy import stats

import walkcurrent as wc

kernel = wc.validate_kernel({1: 0.7, -1: 0.3})
print(f"kernel offsets {kernel.offsets.tolist()}, probs {kernel.probs.tolist()}")
print(f"drift v = {kernel.v:.3f} sites/time, second moment kappa2 = {kernel.kappa2:.3f}")

rng = np.random.default_rng(1)
tau = 25.0
fast = wc.sample_displacement(kernel, tau, rng, size=50_000)
slow = wc.gillespie_displacement(kernel, tau, rng, size=50_000)
print(f"\ndisplacement over tau={tau}:")
print(f"  compound sampler: mean {fast.mean():+.3f}, var {fast.var():.3f}")
print(f"  event-driven:     mean {slow.mean():+.3f}, var {slow.var():.3f}")
print(f"  expected:         mean {kernel.v * tau:+.3f}, var {kernel.kappa2 * tau:.3f}")
print(f"  two-sample KS p = {stats.ks_2samp(fast, slow).pvalue:.3f}")

pmf = wc.walk_pmf(kernel, tau)
print(f"\nexact pmf: support [{pmf.support()[0]}, {pmf.support()[-1]}], "
      f"truncation deficit {pmf.deficit:.2e}")
print(f"  pmf mean {pmf.mean():+.6f} vs v*tau = {kernel.v * tau:+.6f}")

print("\nChernoff bound vs exact two-sided tail (tau = 25):")
sup = pmf.support()
deltas = (10, 20, 30)
bounds = np.exp(np.minimum(wc.chernoff_log_tail(kernel, tau, deltas), 0.0))
for delta, bound in zip(deltas, bounds):
    exact = pmf.masses[np.abs(sup - kernel.v * tau) >= delta].sum()
    print(f"  delta={delta:>2}: exact {exact:.3e} <= bound {bound:.3e}")
