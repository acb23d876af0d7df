"""Pinned bytes of the quadrature kernels and of the reports built on them,
and the memory those reports take.

The digests were recorded before the kernels were split into blocks by
their cell budget (`normal.BLOCK_CELLS`).  Every kernel value is computed
elementwise along its points and nodes, and every sum runs over the same
terms in the same order whatever the blocks, so a change of the budget
moves none of them; a change to any kernel's arithmetic moves one.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from walkcurrent.cli import main
from walkcurrent.normal import bvn_cdf, bvn_cov
from walkcurrent.runner import fidi_experiment, limit_tables_experiment

DRIFT = [[1, 0.7], [-1, 0.3]]
POISSON_1 = {"type": "poisson", "rho": 1.0}
# the benchmark's fidi and limit-tables configs; the limit seeds are the
# benchmark's pair seeds at its workload seeds 1, 3 and 7
FIDI_3 = {"times": [0.5, 1.0, 2.0], "rho": 1.0, "kappa2": 1.0,
          "x_vectors": [[0.5, 0.5, 0.5], [1.0, 0.5, -0.5], [-1.0, -1.0, 1.0]]}
LIMIT_SEEDS = {1: 2447453035, 3: 4168950412, 7: 308736231}


def limit_section(seed):
    return {"seed": seed, "count": 50, "identity_checks": 50}


REPORTS = {
    "fidi-1": ("fidi", {"fidi": {"times": [1.0], "rho": 1.0, "kappa2": 1.0,
                                 "x_vectors": [[0.5], [1.0], [-1.0]]}}, "fidi.json",
               "2a11728c276b9c82e0ea758a6b782cd38a37aac3ef3dc34d993cd6943e5d2875"),
    "fidi-2": ("fidi", {"fidi": {"times": [0.5, 1.0], "rho": 1.0, "kappa2": 1.0,
                                 "x_vectors": [[0.5, 0.5], [1.0, 0.5], [-1.0, -1.0]]}},
               "fidi.json",
               "121171e442c44554b0a14b39bc2076cf0037d2f5c4b0e604caa9c87a850675b7"),
    "fidi-3": ("fidi", {"fidi": FIDI_3}, "fidi.json",
               "d1e969d94e5d1820b1b69571c48818e4de3cb6d3f7b97698db2291982cca617c"),
}
for _seed, _digest in ((1, "16a36f5c3e04522aa4c98fdd20abceda4734ea58fe419ad45427d263b80910ce"),
                       (3, "48395b7831d22e5be9e9a04e2ae9179d244d3c2f48c89d9c9d8e6ea4118cd132"),
                       (7, "d4c483fdeff3275d06137a5b6ca4ceae18f75ffe34daf86510ac3df89f34993d")):
    REPORTS[f"limit-tables-seed-{_seed}"] = (
        "limit-tables", {"kernel": DRIFT, "occupancy": POISSON_1,
                         "limit": limit_section(LIMIT_SEEDS[_seed])},
        "limit_tables.csv", _digest)


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_quadrature_reports_pinned(tmp_path, name):
    command, config, artifact, digest = REPORTS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    assert hashlib.sha256((tmp_path / "out" / artifact).read_bytes()).hexdigest() == digest


# |rho| in every bracket of Genz's rule (below 0.3, 0.75 and 0.925, then
# the strong-correlation form), the degenerate +-1, and h or k at 0
H = np.array([-9.0, -3.5, -1.0, -0.3, 0.0, 0.3, 1.0, 2.5, 9.0])
RHOS = (-1.0, -0.99, -0.93, -0.8, -0.5, -0.2, 0.0, 0.2, 0.5, 0.8, 0.93, 0.99, 1.0)
BVN_DIGEST = "70b35e5b3f2eacfbe3e9bba43b4c8885613bddb118196aba9b29f3bd266f3cc6"


def bvn_digest():
    sha = hashlib.sha256()
    h, k = np.meshgrid(H, H, indexing="ij")
    for rho in RHOS:
        for f in (bvn_cdf, bvn_cov):
            sha.update(np.ascontiguousarray(f(h, k, rho)).tobytes())
    # per-point rho over many points, which span several blocks
    rng = np.random.default_rng(11)
    size = 20_000
    h, k = rng.normal(0.0, 2.5, size), rng.normal(0.0, 2.5, size)
    rho = rng.choice(np.concatenate([rng.uniform(-1.0, 1.0, 64), RHOS]), size)
    for f in (bvn_cdf, bvn_cov):
        sha.update(np.ascontiguousarray(f(h, k, rho)).tobytes())
    return sha.hexdigest()


def test_bvn_grid_pinned():
    assert bvn_digest() == BVN_DIGEST


@pytest.mark.parametrize("cells", [64, 1000])
def test_block_budget_moves_no_value(monkeypatch, cells):
    # ndtr, bvn_cdf and the covariance integrands are elementwise along
    # their points and nodes, so a budget of any size gives the same bits
    from walkcurrent import normal
    want = limit_tables_experiment(limit_section(LIMIT_SEEDS[7]))
    monkeypatch.setattr(normal, "BLOCK_CELLS", cells)
    assert bvn_digest() == BVN_DIGEST
    assert limit_tables_experiment(limit_section(LIMIT_SEEDS[7])) == want


def traced_peak_mb(fn, *args):
    """tracemalloc's peak over fn(*args), in MB, after one untraced call
    has built the caches (node tables, the Gauss-Legendre rules)."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# The kernels used to hold about a dozen (points x nodes) arrays at once:
# 5.5 MB for fidi and 4.7 MB for limit-tables.  Blocked, they peak near
# 1.2 MB each; the bounds are about twice that.
def test_fidi_memory_bounded():
    assert traced_peak_mb(fidi_experiment, FIDI_3) <= 2.5


def test_limit_tables_memory_bounded():
    assert traced_peak_mb(limit_tables_experiment, limit_section(LIMIT_SEEDS[7])) <= 2.5
