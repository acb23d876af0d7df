"""The benchmark's traced run wraps package functions by name: they must exist.

`bench/tracing.py` looks each (module, attribute) of SPANS and COUNTED up
in `walkcurrent` and patches it; a renamed or removed function would break
`bench/run.py --trace 1` with no package test failing.  This loads the file
by path and checks every name it uses.  It also checks that the benchmark's
window metric, which bisects `window_bound` below each certified width,
finds the certified width itself.
"""

import dataclasses
import importlib
import importlib.util
import json
import os

import pytest

import walkcurrent as wc
from walkcurrent.config import load_config

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def _lookup(module: str, attr: str):
    obj = importlib.import_module(f"walkcurrent.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_wrapped_names_exist(tracing):
    names = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTED]
    # Tracer.window_records imports these two
    names += [("simulate", "_window_sites"), ("simulate", "window_bound")]
    missing = []
    for module, attr in names:
        try:
            assert callable(_lookup(module, attr))
        except (ImportError, AttributeError, AssertionError):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_install_restores_every_name(tracing):
    for module in ("cli", "config", "runner"):
        importlib.import_module(f"walkcurrent.{module}")
    before = {(m, a): _lookup(m, a) for m, a, _ in tracing.SPANS + tracing.COUNTED}
    tracer = tracing.Tracer(run_id="test")
    tracer.install()
    try:
        wrapped = [key for key, fn in before.items() if _lookup(*key) is not fn]
    finally:
        tracer.uninstall()
    assert sorted(wrapped) == sorted(before)
    assert all(_lookup(*key) is fn for key, fn in before.items())


def _bench_window_configs(tmp_path):
    """The config of every window the benchmark certifies: the ensembles,
    and rate-empirical at each of its n."""
    workloads = _load("workloads")
    out = []
    for name in workloads.NAMES:
        for command, raw in workloads.build(name, 1):
            if command not in ("cov-check", "fbm-check", "rate-empirical"):
                continue
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(raw))
            config = load_config(str(path), command=command).experiment
            if command == "rate-empirical":
                out += [dataclasses.replace(config, n=n) for n in raw["ldp"]["n_values"]]
            else:
                out.append(config)
    return out


def test_window_metric_finds_the_certified_width(tracing, tmp_path):
    configs = _bench_window_configs(tmp_path)
    assert [cfg.n for cfg in configs] == [2500, 2500, 100, 400, 1600]
    for cfg in configs:
        width = wc.truncation_radius(cfg)
        assert tracing.smallest_certified_width(cfg, width, wc.window_bound) == width
        # the bisection reads widths 0 to 16 when a width is 16
        bounds = [wc.window_bound(cfg, w) for w in range(17)]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))
