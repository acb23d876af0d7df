"""Benchmark workloads: the CLI commands each one runs, built from a seed.

A workload is a list of (command, config) pairs, made of command sets that
each stress one part of walkcurrent:

- `ensemble`: `cov-check` at the acceptance shape of criteria 1, 2 and 4.
- `fbm-fixed`: `fbm-check` with one particle per site and five times.
- `analytic`: two rate tables, `fidi` at three times and `limit-tables`.
- `rare-events`: `rate-empirical` at three n.

The benchmark writes each config to a JSON file and hands the program only
those files; the workload seed reaches the program through the derived
`master_seed` (and the `limit-tables` seed), never as a benchmark flag.

`scale` shrinks the run-length knobs (replicas, samples, table sizes) for
the benchmark's own tests; the benchmark itself always runs at scale 1.
"""

from __future__ import annotations

import hashlib

DRIFT_KERNEL = [[1, 0.7], [-1, 0.3]]
POISSON_1 = {"type": "poisson", "rho": 1.0}

# Replica and sample counts set the run length.  ENSEMBLE_REPLICAS is the
# smallest count the normality diagnostics accept (1e4 retained samples).
ENSEMBLE_REPLICAS = 10_000
FBM_REPLICAS = 3_000
TAIL_SAMPLES = 40_000
LIMIT_PAIRS = 50
X_GRID = [-3.0 + 0.5 * i for i in range(13)]

# Two workloads of two command sets each.  `particles` runs the particle
# engine and no ldp; `rates` runs the ldp layer and simulates no replica.
WORKLOADS = {
    "particles": ("ensemble", "fbm-fixed"),
    "rates": ("analytic", "rare-events"),
}
NAMES = tuple(WORKLOADS)

# The work item that each workload's `items_per_s` counts.  On `rates` it
# is the tilted samples, not the rate-table points: the rate tables' own
# rate, interpreter-bound quadrature, spread too widely from run to run to
# be held to a bound (see bench/README.md, Noise).
PRIMARY_ITEM = {"particles": "replicas", "rates": "tail_samples"}


def derived_seed(seed: int, group: str, label: str) -> int:
    """A 32-bit seed for one config, fixed by (workload seed, set, label)."""
    digest = hashlib.sha256(f"{seed}:{group}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _scaled(count: int, scale: float, floor: int) -> int:
    return max(floor, int(round(count * scale)))


def command_set(group: str, seed: int, scale: float = 1.0) -> list[tuple[str, dict]]:
    """The (command, config) pairs of one command set, in the order they run."""
    if group == "ensemble":
        return [("cov-check", {
            "n": 2500, "T": 1.0, "S": 0.5,
            "t_grid": [0.5, 1.0], "r_grid": [-0.5, 0.0, 0.5],
            "kernel": DRIFT_KERNEL, "occupancy": POISSON_1,
            # normality diagnostics refuse fewer than 1e4 samples
            "replicas": _scaled(ENSEMBLE_REPLICAS, scale, 10_000),
            "retain_points": [[1.0, 0.0]],
            "master_seed": derived_seed(seed, group, "cov-check"),
        })]
    if group == "fbm-fixed":
        return [("fbm-check", {
            "n": 2500, "T": 4.0, "S": 0.1,
            "t_grid": [0.25, 0.5, 1.0, 2.0, 4.0], "r_grid": [0.0],
            "kernel": DRIFT_KERNEL,
            "occupancy": {"type": "deterministic", "count": 1},
            "replicas": _scaled(FBM_REPLICAS, scale, 200),
            "master_seed": derived_seed(seed, group, "fbm-check"),
        })]
    if group == "analytic":
        pairs = _scaled(LIMIT_PAIRS, scale, 2)
        x_grid = X_GRID if scale >= 1.0 else X_GRID[::6]
        return [
            ("rate-table", {
                "occupancy": {"type": "custom", "pmf": [[0, 0.5], [2, 0.5]]},
                "ldp": {"kappa2": 1.0, "t": 1.0, "x_grid": x_grid},
                "master_seed": derived_seed(seed, group, "rate-table-custom"),
            }),
            ("rate-table", {
                "occupancy": POISSON_1,
                "ldp": {"kappa2": 1.0, "t": 1.0, "x_grid": x_grid},
                "master_seed": derived_seed(seed, group, "rate-table-poisson"),
            }),
            ("fidi", {
                "fidi": {"times": [0.5, 1.0, 2.0], "rho": 1.0, "kappa2": 1.0,
                         "x_vectors": [[0.5, 0.5, 0.5], [1.0, 0.5, -0.5],
                                       [-1.0, -1.0, 1.0]]},
                "master_seed": derived_seed(seed, group, "fidi"),
            }),
            ("limit-tables", {
                "kernel": DRIFT_KERNEL, "occupancy": POISSON_1,
                "limit": {"seed": derived_seed(seed, group, "limit-pairs"),
                          "count": pairs, "identity_checks": pairs},
                "master_seed": derived_seed(seed, group, "limit-tables"),
            }),
        ]
    if group == "rare-events":
        return [("rate-empirical", {
            "n": 100, "T": 1.0, "S": 0.25, "t_grid": [1.0], "r_grid": [0.0],
            "kernel": DRIFT_KERNEL, "occupancy": POISSON_1, "replicas": 1,
            "ldp": {"t": 1.0, "r": 0.0, "x": 1.0,
                    "samples": _scaled(TAIL_SAMPLES, scale, 4_000),
                    "n_values": [100, 400, 1600]},
            "master_seed": derived_seed(seed, group, "rate-empirical"),
        })]
    raise ValueError(f"unknown command set {group!r}")


def build(name: str, seed: int, scale: float = 1.0) -> list[tuple[str, dict]]:
    """The (command, config) pairs of a workload, in the order they run."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return [pair for group in WORKLOADS[name] for pair in command_set(group, seed, scale)]


def work_items(command: str, config: dict) -> tuple[str | None, int]:
    """The kind and number of work items a command does."""
    if command in ("cov-check", "fbm-check"):
        return "replicas", int(config["replicas"])
    if command == "rate-table":
        return "rate_points", len(config["ldp"]["x_grid"])
    if command == "rate-empirical":
        return "tail_samples", int(config["ldp"]["samples"]) * len(config["ldp"]["n_values"])
    return None, 0
