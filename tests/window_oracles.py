"""The doubling-and-bisection search for the certified window width, and
the Chernoff bound's minimum over the whole theta grid.

The package reads the smallest width whose `window_bound` meets
`window_tol` off one array of every width's bound.  The search here is the
earlier route: it doubles the width from 16 to the first
passing width and then bisects between the last failing doubling width and
it, calling `window_bound` at every step, and raises
`WindowUnreachableError` at the first width of the doubling whose window
has more than `max_window_sites` sites.  The tests compare the two.

The package takes each distance's Chernoff minimum near the lower envelope
of the theta lines; `brute_force_chernoff_log_tail` takes it over every
line of the grid, as one (distances x theta) array.
"""

import numpy as np

import walkcurrent as wc
from walkcurrent.kernel import chernoff_lines
from walkcurrent.simulate import _window_sites


def brute_force_chernoff_log_tail(kernel, tau, deltas):
    deltas = np.atleast_1d(np.asarray(deltas, float))
    theta, base_hi, base_lo = chernoff_lines(kernel, tau)
    ext = theta[None, :] * deltas[:, None]
    return np.logaddexp(np.min(base_hi[None, :] - ext, axis=1),
                        np.min(base_lo[None, :] - ext, axis=1))


def bisection_truncation_radius(config):
    failing, width = 15, 16
    while True:
        if _window_sites(config, width) > config.max_window_sites:
            raise wc.WindowUnreachableError(
                f"window would need more than {config.max_window_sites} sites")
        if wc.window_bound(config, width) <= config.window_tol:
            break
        failing, width = width, 2 * width
    while width - failing > 1:
        mid = (failing + width) // 2
        if wc.window_bound(config, mid) <= config.window_tol:
            width = mid
        else:
            failing = mid
    return width
