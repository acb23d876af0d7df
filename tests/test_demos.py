import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)

# Each demo with a line its output must contain.  Together they call every
# public layer: the walk pmf and its oracles, both replica engines and the
# exact current pmf, the limit covariances and both limit samplers, both
# rate routes, the tilted sampler and the multi-time spec.
DEMOS = {
    "01_walk_and_oracles": "Chernoff bound vs exact two-sided tail",
    "02_current_simulation": "exact distribution of Y_n(1, 0)",
    "03_gaussian_limit": "fbm_cov=",
    "04_rate_functions": "worst duality residual",
    "05_rare_events": "each joint rate dominates its marginals",
}


@pytest.mark.parametrize("demo", list(DEMOS))
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", f"{demo}.py")],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert DEMOS[demo] in result.stdout
