"""The benchmark's traced run wraps package functions by name: they must exist.

`bench/tracing.py` looks each (module, attribute) of SPANS and COUNTED up
in `walkcurrent` and patches it; a renamed or removed function would break
`bench/run.py --trace 1` with no package test failing.  This loads the file
by path and checks every name it uses.
"""

import importlib
import importlib.util
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
