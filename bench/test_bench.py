"""Tests of the benchmark itself, at tiny scale.

    python3 -m pytest -q bench

Each workload runs once traced (one plain and one traced process), which
takes about a minute in all.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import run
import tracing
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)


@pytest.fixture(scope="module", params=workloads.NAMES)
def traced_result(request):
    return run.run_workload(request.param, seed=3, seconds=0, trace=True, scale=0.05)


def test_every_metric_is_reported_with_its_unit(traced_result):
    res = traced_result
    assert res["attempted"] >= 1
    assert res["correct"]
    end_to_end = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in res["end_to_end"].items()} == end_to_end
    assert {k: v["unit"] for k, v in res["per_layer"].items()} == per_layer
    assert res["metrics"] == res["per_layer"]
    for metric in res["end_to_end"].values():
        assert metric["value"] > 0.0
    assert set(res["named"]) >= {"wall_s", "setup_s", "peak_rss_mb", "failed_frac"}
    assert res["environment"]["workers"] == 1 and res["environment"]["seed"] == 3


def test_self_time_never_exceeds_span_total(traced_result):
    layer = {k: v["value"] for k, v in traced_result["per_layer"].items()}
    for name in tracing.SPAN_NAMES:
        assert 0.0 <= layer[f"{name}.self_s"] <= layer[f"{name}.s"] + 1e-12


def test_self_time_per_span(tmp_path):
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from walkcurrent import cli

    (config,) = workloads.command_set("fbm-fixed", seed=1, scale=0.05)
    path = tmp_path / "fbm.json"
    path.write_text(json.dumps(config[1]))
    tracer = tracing.Tracer(run_id="test")
    tracer.install()
    try:
        cli.main([config[0], "--config", str(path), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    tracer.dump(str(tmp_path / "spans.npz"), {"import_s": 0.0})
    spans = tracing.load_spans(str(tmp_path / "spans.npz"))
    assert spans["meta"]["run_id"] == "test"
    dur = spans["end"] - spans["start"]
    child = [0.0] * dur.size
    for i, parent in enumerate(spans["parent"]):
        if parent >= 0:
            child[parent] += dur[i]
    assert dur.size > 0
    for total, covered in zip(dur, child):
        assert 0.0 <= total - covered <= total
    # uninstall restores every original
    from walkcurrent import runner, simulate
    assert not hasattr(runner.truncation_radius, "__wrapped__")
    assert not hasattr(simulate.simulate_replica, "__wrapped__")


def test_failed_command_is_counted():
    (command, config) = workloads.build("particles", seed=1)[0]
    del config["n"]
    res = run.run_workload("particles", seed=1, seconds=0, trace=False,
                           commands=[(command, config)])
    assert (res["attempted"], res["failed"]) == (1, 1)
    assert res["named"]["failed_frac"]["value"] == 1.0
    assert not res["correct"]
    assert res["commands"][0]["exit_codes"] == [2]


def test_report_bytes_must_match_the_first_process():
    def proc(code, hashes):
        return {"commands": [{"exit_code": code, "hashes": hashes}]}

    reasons = run.check_commands([proc(0, {"a.csv": "1"}), proc(0, {"a.csv": "1"}),
                                  proc(0, {"a.csv": "2"}), proc(None, {}),
                                  proc(1, {"a.csv": "1"})])
    assert reasons[0] == [[]] and reasons[1] == [[]]
    assert reasons[2] == [["report bytes differ from the first process"]]
    assert reasons[3] == [["raised", "no report"]]
    assert reasons[4] == [["exit 1"]]


def test_exit_1_is_a_wrong_output_only_for_deterministic_commands():
    specs = [{"command": "cov-check"}, {"command": "rate-table"}]
    assert run.wrong_outputs(specs, [[["exit 1"], []]]) == 0
    assert run.wrong_outputs(specs, [[[], ["exit 1"]]]) == 1
    assert run.wrong_outputs(specs, [[["exit 2"], []]]) == 1
    assert run.wrong_outputs(specs, [[["exit 1", "no report"], []]]) == 1


def test_seed_sets_the_configs():
    for name in workloads.NAMES:
        assert workloads.build(name, 5) == workloads.build(name, 5)
        assert workloads.build(name, 5) != workloads.build(name, 6)


def test_bisection_finds_the_smallest_certified_width():
    class Config:
        window_tol = 1e-6

    def bound(config, width):  # passes from width 300 on
        return 1e-7 if width >= 300 else 1e-3

    assert tracing.smallest_certified_width(Config, 512, bound) == 300
    assert tracing.smallest_certified_width(Config, 16, lambda c, w: 0.0) == 0
