"""Jump kernels, the walk's exact law, and its tail bounds.

A walk jumps at unit rate with integer displacements drawn from a validated
kernel.  By the marking theorem each offset's jump count over time tau is
an independent Poisson count, which gives both the displacement sampler
and the exact displacement pmf.  For this nearest-neighbour kernel the pmf
is a Skellam law, an independent closed form to check it against.
Rigorous Chernoff bounds cap how far the walk strays; those bounds drive
the simulation window elsewhere in the package.
"""

import numpy as np
from scipy import stats

import walkcurrent as wc

kernel = wc.validate_kernel({1: 0.7, -1: 0.3})
print(f"kernel offsets {kernel.offsets.tolist()}, probs {kernel.probs.tolist()}")
print(f"drift v = {kernel.v:.3f} sites/time, second moment kappa2 = {kernel.kappa2:.3f}")

tau = 25.0
pmf = wc.walk_pmf(kernel, tau)
sup = np.arange(pmf.offset_min, pmf.offset_min + pmf.masses.size)
mean = np.dot(sup, pmf.masses)
var = np.dot((sup - mean) ** 2, pmf.masses)
skellam = stats.skellam.pmf(sup, 0.7 * tau, 0.3 * tau)
print(f"\nexact pmf over tau={tau}: support [{sup[0]}, {sup[-1]}], "
      f"truncation deficit {pmf.deficit:.2e}")
print(f"  max |pmf - Skellam(0.7 tau, 0.3 tau)| = {np.abs(pmf.masses - skellam).max():.1e}")
print(f"  pmf mean {mean:+.6f} vs v*tau = {kernel.v * tau:+.6f}")
print(f"  pmf var  {var:.6f} vs kappa2*tau = {kernel.kappa2 * tau:.6f}")

draws = wc.sample_displacement(kernel, tau, np.random.default_rng(1), size=50_000)
freq = np.bincount(draws - sup[0], minlength=sup.size)[:sup.size] / draws.size
print(f"\n5e4 sampled displacements: mean {draws.mean():+.3f}, var {draws.var():.3f}")
print(f"  total variation to the exact pmf = {0.5 * np.abs(freq - pmf.masses).sum():.4f}")

print("\nChernoff bound vs exact two-sided tail (tau = 25):")
deltas = (10, 20, 30)
bounds = np.exp(np.minimum(wc.chernoff_log_tail(kernel, tau, deltas), 0.0))
for delta, bound in zip(deltas, bounds):
    exact = pmf.masses[np.abs(sup - kernel.v * tau) >= delta].sum()
    print(f"  delta={delta:>2}: exact {exact:.3e} <= bound {bound:.3e}")
