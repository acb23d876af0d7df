"""What the CLI loads: no command imports any part of scipy, and the
ensembles at one worker load no process pool and no numpy.polynomial.

scipy.stats and scipy.optimize together take about 0.8 s to import, and
scipy.special about 0.3 s, more than the commands' own work at acceptance
scale, so an eager or lazy import of any of them fails here.  The process
pool (multiprocessing, about 10 ms and 2 MB) serves only more than one
worker, and numpy.polynomial only the Gauss-Legendre tables of the
quadratures, which the ensembles never read.  The commands run in a fresh
interpreter, because the test suite itself imports scipy.
"""

import json
import os
import subprocess
import sys

import walkcurrent

SRC = os.path.dirname(os.path.dirname(os.path.abspath(walkcurrent.__file__)))

DRIFT = [[1, 0.7], [-1, 0.3]]
CONFIGS = {
    "cov-check": {
        "n": 100, "T": 1.0, "S": 0.5, "t_grid": [0.5, 1.0], "r_grid": [-0.5, 0.0, 0.5],
        "kernel": DRIFT, "occupancy": {"type": "poisson", "rho": 1.0},
        "replicas": 10_000, "retain_points": [[1.0, 0.0]], "master_seed": 3,
    },
    "fbm-check": {
        "n": 100, "T": 4.0, "S": 0.1, "t_grid": [0.25, 0.5, 1.0, 2.0, 4.0],
        "r_grid": [0.0], "kernel": DRIFT,
        "occupancy": {"type": "deterministic", "count": 1},
        "replicas": 200, "master_seed": 3,
    },
    "rate-empirical": {
        "n": 100, "T": 1.0, "S": 0.25, "t_grid": [1.0], "r_grid": [0.0],
        "kernel": DRIFT, "occupancy": {"type": "poisson", "rho": 1.0}, "replicas": 1,
        "ldp": {"t": 1.0, "r": 0.0, "x": 1.0, "samples": 4000, "n_values": [100, 400]},
        "master_seed": 3,
    },
    "rate-table": {
        "occupancy": {"type": "custom", "pmf": [[0, 0.5], [2, 0.5]]},
        "ldp": {"kappa2": 1.0, "t": 1.0, "x_grid": [-3.0, 0.0, 0.5, 3.0]},
    },
}

SCRIPT = """
import sys
from walkcurrent import cli

def run(command):
    code = cli.main([command, "--config", f"{root}/{command}.json",
                     "--out", f"{root}/{command}", "--workers", "1"])
    assert code in (0, 1), (command, code)

root = sys.argv[1]
run("cov-check")
run("fbm-check")
loaded = {"after_ensembles": sorted(m for m in ("scipy.stats", "scipy.optimize")
                                    if m in sys.modules),
          "pool_or_polynomial": sorted(m for m in ("concurrent.futures.process",
                                                   "multiprocessing", "numpy.polynomial")
                                       if m in sys.modules)}
run("rate-empirical")
loaded["after_rate_empirical"] = sorted(m for m in ("scipy.stats", "scipy.optimize")
                                        if m in sys.modules)
run("rate-table")
loaded["after_rate_table"] = sorted(m for m in ("scipy.stats", "scipy.optimize")
                                    if m in sys.modules)
print(loaded)
"""


def test_commands_skip_scipy_stats_and_optimize(tmp_path):
    for command, config in CONFIGS.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == str(
        {"after_ensembles": [], "pool_or_polynomial": [], "after_rate_empirical": [],
         "after_rate_table": []})


MORE_RUNS = {
    "rate-empirical-deterministic": ("rate-empirical", dict(
        CONFIGS["rate-empirical"], occupancy={"type": "deterministic", "count": 1})),
    "rate-table-poisson": ("rate-table", dict(
        CONFIGS["rate-table"], occupancy={"type": "poisson", "rho": 1.0})),
    "fidi": ("fidi", {"fidi": {"times": [0.5, 1.0, 2.0], "rho": 1.0, "kappa2": 1.0,
                               "x_vectors": [[0.5, 0.5, 0.5], [1.0, 0.5, -0.5]]}}),
    "limit-tables": ("limit-tables", {"kernel": DRIFT,
                                      "occupancy": {"type": "poisson", "rho": 1.0},
                                      "limit": {"seed": 3, "count": 2,
                                                "identity_checks": 2}}),
}

NO_SCIPY_SCRIPT = """
import json, sys
import walkcurrent.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

root, runs = sys.argv[1], json.loads(sys.argv[2])
loaded = {"import": scipy_modules()}
for label, command in runs:
    code = cli.main([command, "--config", f"{root}/{label}.json", "--out", f"{root}/{label}"])
    assert code in (0, 1), (label, code)
    loaded[label] = scipy_modules()
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(tmp_path):
    runs = {command: (command, config) for command, config in CONFIGS.items()}
    runs.update(MORE_RUNS)
    for label, (_, config) in runs.items():
        (tmp_path / f"{label}.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    order = [[label, command] for label, (command, _) in runs.items()]
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path),
                           json.dumps(order)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert loaded == {label: [] for label in ["import"] + list(runs)}
