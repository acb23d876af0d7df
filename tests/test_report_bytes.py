"""Pinned bytes of the quadrature kernels and of the reports built on them,
the memory those reports take, and every report the benchmark writes.

Every kernel value depends only on its own inputs: it is computed
elementwise along its points and nodes, each point sums its nodes in one
order fixed by the node count, and each point meets the quadrature gate on
its own.  So neither the cell budget of the kernel blocks
(`normal.BLOCK_CELLS`) nor the other points of a call moves a digest; a
change to any kernel's arithmetic moves one.

The benchmark's reports are built from `bench/workloads.py`, loaded by path
and only read, at three workload seeds: a change to any random stream or
to any arithmetic a benchmark command runs moves one of them.
"""

import hashlib
import importlib.util
import json
import os
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
               "73fac911e17ec3324ed5943ba55478cf6a66b1046141706d9c545b4318db098a"),
    "fidi-2": ("fidi", {"fidi": {"times": [0.5, 1.0], "rho": 1.0, "kappa2": 1.0,
                                 "x_vectors": [[0.5, 0.5], [1.0, 0.5], [-1.0, -1.0]]}},
               "fidi.json",
               "005ee0a6d5ce5ea2423bb3b0054b51761350cb4cf15653b63bb44e4a184f39ee"),
    "fidi-3": ("fidi", {"fidi": FIDI_3}, "fidi.json",
               "816bc24e0ccab10b317d15b5d395c59d480cdf86ddb1ead2f12697892ee4fb6c"),
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
BVN_DIGEST = "3e9b4a96cc9dc34a242ddb6e5aac3b3df7baa73f4f6e9e53ed94fb43c99e110a"


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


@pytest.mark.parametrize("cells", [1, 64, 1000])
def test_block_budget_moves_no_value(monkeypatch, cells):
    # every kernel value depends only on its own inputs, so a budget of any
    # size gives the same bits; one cell leaves each block the fewest
    # items it may hold
    from walkcurrent import normal

    def values():
        return (bvn_digest(), limit_tables_experiment(limit_section(LIMIT_SEEDS[7])),
                fidi_experiment(FIDI_3))

    want = values()
    monkeypatch.setattr(normal, "BLOCK_CELLS", cells)
    assert values() == want


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


def _load_workloads():
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(bench, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 of every report of each benchmark command but its manifest (which
# holds paths and timings), keyed "<position in the workload> <command>/<file>";
# the rate tables and fidi read no seed
SEED_FREE = {
    "0 rate-table/rate_table.csv":
        "fec66099fddffb2acaa22ac663cb9d203412f3f33cdac84931b227da06a1fab7",
    "1 rate-table/rate_table.csv":
        "dd0261b5cff13dc0ac143f71b6bc6cbdbb8eef8ce2d01626500723d77f34df11",
    "2 fidi/fidi.json": REPORTS["fidi-3"][3],
}
BENCH_DIGESTS = {
    (1, "particles"): {
        "0 cov-check/cov_check.csv":
            "ec03a7f8c34c4da94a86df4b86297df7f20b5167a0d6091e29d340fea5ec77fe",
        "0 cov-check/cov_check.json":
            "ace757c72d3163d7520e0eedd90f1f14bd9c5f850c020241adc126ad93ca24ae",
        "0 cov-check/mean_check.csv":
            "8736546e96c90f61579287214c1d3f00f8039986af8316e10c22a7ac57e48a49",
        "1 fbm-check/fbm_check.csv":
            "c56ed714b00f620aa3eacc18f36d362338ed53e2d7987f1fac1e5901541237e0",
        "1 fbm-check/fbm_check.json":
            "039cd32f18d6dc65b8e933f4fadc1bb7b045db2a02818138ca279bbe98c476cd",
    },
    (3, "particles"): {
        "0 cov-check/cov_check.csv":
            "57577aac00a346a2d4a30421f3ba63083fe8cf54b9ff456c458287f01e7dc5f1",
        "0 cov-check/cov_check.json":
            "af0cda13c715f14efe052e749630dc5cb9c45aa99ed5e92ad6070a663263ce46",
        "0 cov-check/mean_check.csv":
            "9a5bf50fcc1d3f7579067e5f6194e7b842161b3ef64117adf04fa5d9cd273ac8",
        "1 fbm-check/fbm_check.csv":
            "41d2ab85dd4032eb2859ea61959c93e57723ced660ce1a1fda6adf340f28c6fd",
        "1 fbm-check/fbm_check.json":
            "b4a9f7227c57f60db6cfa06fd006b422d5e015b5891e2cd69b9bf3d22beee3ac",
    },
    (7, "particles"): {
        "0 cov-check/cov_check.csv":
            "98546bdc9977f188d31215951887569ac45af6a8551754f519d1726827de4c17",
        "0 cov-check/cov_check.json":
            "c3bf6c0313fffe2d36363ecc268ea80aea605bb482feeff1babd5d7650e245b3",
        "0 cov-check/mean_check.csv":
            "ceebea6aa4830c0410e1ed3bd6da39b7ee9ae1a5e040dc9d6cb5cd12f1f12b7c",
        "1 fbm-check/fbm_check.csv":
            "3c7913ebdfcf5396fe6857ba559aeb617884dee2466abcf8720082872918ab20",
        "1 fbm-check/fbm_check.json":
            "c78318005475176189812aeb6d543656d5a78398cb83f52d76dbf1a61359b19d",
    },
}
for _seed, _limit, _tail in (
        (1, "16a36f5c3e04522aa4c98fdd20abceda4734ea58fe419ad45427d263b80910ce",
         "132e4af64f7fd54a061773c7d8c954d1e7ce94cad7dd9011803f7d7b2eb2264b"),
        (3, "48395b7831d22e5be9e9a04e2ae9179d244d3c2f48c89d9c9d8e6ea4118cd132",
         "002cd10a14ba291f056f5d7b0511354ae067c5d83f0610dcf610e8aa351d9e60"),
        (7, "d4c483fdeff3275d06137a5b6ca4ceae18f75ffe34daf86510ac3df89f34993d",
         "21ea90ad6b5a88d98a384c3b0dbf059b3f8cb4c1752da422af7a344f803e86e5")):
    BENCH_DIGESTS[(_seed, "rates")] = dict(
        SEED_FREE, **{"3 limit-tables/limit_tables.csv": _limit,
                      "4 rate-empirical/rate_empirical.json": _tail})


@pytest.mark.parametrize("seed, workload", sorted(BENCH_DIGESTS))
def test_benchmark_reports_pinned(tmp_path, seed, workload):
    got = {}
    for position, (command, config) in enumerate(_load_workloads().build(workload, seed)):
        path = tmp_path / f"{position}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / str(position)
        assert main([command, "--config", str(path), "--out", str(out)]) == 0
        for report in sorted(os.listdir(out)):
            if report != "manifest.json":
                got[f"{position} {command}/{report}"] = hashlib.sha256(
                    (out / report).read_bytes()).hexdigest()
    assert got == BENCH_DIGESTS[(seed, workload)]
