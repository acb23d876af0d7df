import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkcurrent as wc
from walkcurrent.cli import main
from walkcurrent.config import canonical_hash, load_config

BASE = {
    "n": 100,
    "T": 1.0,
    "S": 0.25,
    "t_grid": [0.5, 1.0],
    "r_grid": [0.0],
    "kernel": [[1, 0.7], [-1, 0.3]],
    "occupancy": {"type": "poisson", "rho": 1.0},
    "replicas": 2000,
    "master_seed": 424242,
}


def write_cfg(tmp_path, name="cfg.json", **extra):
    cfg = dict(BASE)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _refuse(name):
    """A strict parse_constant: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"{name} is not JSON")


# the fbm-check of the benchmark at n = 100: one particle per site, five times
FBM_FIXED = {"T": 4.0, "S": 0.1, "t_grid": [0.25, 0.5, 1.0, 2.0, 4.0], "r_grid": [0.0],
             "occupancy": {"type": "deterministic", "count": 1}, "replicas": 2000}


class TestLoadConfig:
    def test_defaults_filled(self, tmp_path):
        spec = load_config(write_cfg(tmp_path), command="simulate")
        assert spec.raw["window_tol"] == 1e-6
        assert spec.raw["quad_tol"] == 1e-10
        assert spec.experiment.n == 100
        assert spec.experiment.kernel.v == pytest.approx(0.4)

    def test_parse_error_with_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(wc.ConfigParseError, match="line"):
            load_config(str(path), command="simulate")

    def test_zero_mass_kernel_rejected(self, tmp_path):
        with pytest.raises(wc.ConfigValidationError):
            load_config(write_cfg(tmp_path, kernel=[[1, 0.0], [-1, 0.0]]),
                        command="simulate")

    def test_missing_keys_named(self, tmp_path):
        cfg = dict(BASE)
        del cfg["replicas"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(cfg))
        with pytest.raises(wc.ConfigValidationError, match="replicas"):
            load_config(str(path), command="simulate")

    def test_geometric_rejected_for_rate_commands(self, tmp_path):
        path = write_cfg(tmp_path, occupancy={"type": "geometric", "rho": 1.0},
                         ldp={"t": 1.0, "x_grid": [0.5]})
        with pytest.raises(wc.ConfigValidationError, match="log-MGF"):
            load_config(path, command="rate-table")
        # the same config is fine for plain simulation
        spec = load_config(path, command="simulate")
        assert spec.occupancy.kind == "geometric"

    def test_overrides_applied(self, tmp_path):
        spec = load_config(write_cfg(tmp_path),
                           overrides={"master_seed": 7, "replicas": 10},
                           command="simulate")
        assert spec.experiment.master_seed == 7
        assert spec.experiment.replicas == 10


class TestCanonicalHash:
    def test_key_order_invariant(self, tmp_path):
        a = load_config(write_cfg(tmp_path, name="a.json"), command="simulate")
        shuffled = dict(reversed(list(BASE.items())))
        path = tmp_path / "b.json"
        path.write_text(json.dumps(shuffled))
        b = load_config(str(path), command="simulate")
        assert a.config_hash == b.config_hash

    def test_semantic_change_changes_hash(self, tmp_path):
        a = load_config(write_cfg(tmp_path, name="a.json"), command="simulate")
        b = load_config(write_cfg(tmp_path, name="b.json", replicas=2001),
                        command="simulate")
        assert a.config_hash != b.config_hash

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_key_order_invariant_in_sections(self, data):
        full = dict(BASE, window_tol=1e-6,
                    bands={"cov_z": 4.0, "cov_rel": 0.1, "mean_ratio": 3.0},
                    ldp={"t": 1.0, "r": 0.0, "x": 1.0, "samples": 4000,
                         "n_values": [100, 400]},
                    limit={"seed": 7, "count": 12, "rho0": 1.0, "v0": 2.0})

        def reordered(d):
            keys = data.draw(st.permutations(list(d)))
            return {k: reordered(d[k]) if isinstance(d[k], dict) else d[k] for k in keys}

        assert canonical_hash(reordered(full)) == canonical_hash(full)

    def test_runtime_keys_excluded(self):
        d = dict(BASE, bands=dict(), window_tol=1e-6)
        assert canonical_hash(d) == canonical_hash(dict(d, workers=8, out="/tmp/x"))

    def test_integral_floats_hash_as_ints(self):
        # a number written as 1 or 1.0 loads the same experiment
        assert canonical_hash({"T": 1}) == canonical_hash({"T": 1.0})
        assert canonical_hash({"t_grid": [0.5, 1]}) == canonical_hash({"t_grid": [0.5, 1.0]})
        nested = {"ldp": {"t": 1.0, "n_values": [100.0, 400]}, "kernel": [[1.0, 0.7], [-1, 0.3]]}
        assert canonical_hash(nested) == canonical_hash(
            {"ldp": {"t": 1, "n_values": [100, 400]}, "kernel": [[1, 0.7], [-1, 0.3]]})
        assert canonical_hash({"T": 1.5}) != canonical_hash({"T": 1})

    def test_bools_hash_as_bools(self):
        assert canonical_hash({"flag": True}) != canonical_hash({"flag": 1})
        assert canonical_hash({"flag": False}) != canonical_hash({"flag": 0.0})

    def test_integral_float_configs_share_hash(self, tmp_path):
        a = load_config(write_cfg(tmp_path, name="a.json", T=1, t_grid=[0.5, 1]),
                        command="simulate")
        b = load_config(write_cfg(tmp_path, name="b.json", T=1.0, t_grid=[0.5, 1.0]),
                        command="simulate")
        assert a.config_hash == b.config_hash


class TestCliCommands:
    def test_simulate_and_dump(self, tmp_path):
        cfg = write_cfg(tmp_path, replicas=50)
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", cfg, "--out", out, "--dump"])
        assert code == 0
        assert os.path.exists(os.path.join(out, "simulate.csv"))
        with open(os.path.join(out, "replicas.csv")) as fh:
            rows = [line for line in fh if line[0] not in "#r"]  # skip schema+header
        assert len(rows) == 50 * 2  # replicas x grid points
        manifest = json.loads(Path(os.path.join(out, "manifest.json")).read_text())
        assert manifest["status"] == "ok"
        assert manifest["outputs"]

    def test_dump_builds_the_class_table_once(self, tmp_path, monkeypatch):
        # the summary and the per-replica dump draw from one table
        from walkcurrent import runner, simulate
        build, calls = simulate.class_table, []

        def counted(config):
            calls.append(config)
            return build(config)

        monkeypatch.setattr(runner, "class_table", counted)
        monkeypatch.setattr(simulate, "class_table", counted)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", write_cfg(tmp_path, replicas=50),
                     "--out", out, "--dump"]) == 0
        assert len(calls) == 1

    def test_cov_check_passes_small(self, tmp_path):
        cfg = write_cfg(tmp_path)
        out = str(tmp_path / "out")
        code = main(["cov-check", "--config", cfg, "--out", out])
        assert code == 0
        report = json.loads(Path(os.path.join(out, "cov_check.json")).read_text())
        assert report["passed"] is True

    @pytest.mark.parametrize("command, extra", [
        ("cov-check", {}),
        ("fbm-check", {"T": 2.0, "t_grid": [0.25, 0.5, 1.0, 2.0]}),
    ])
    def test_json_format_lists_each_file_once(self, tmp_path, command, extra):
        out = str(tmp_path / "out")
        code = main([command, "--config", write_cfg(tmp_path, **extra),
                     "--out", out, "--format", "json"])
        assert code == 0
        manifest = json.loads(Path(os.path.join(out, "manifest.json")).read_text())
        paths = [o["path"] for o in manifest["outputs"]]
        assert len(paths) == len(set(paths))
        assert all(os.path.exists(p) for p in paths)
        kind = command.replace("-", "_")
        assert os.path.join(out, f"{kind}.json") in paths

    def test_worker_count_invariance(self, tmp_path):
        # same seed, different worker counts: byte-identical payloads
        cfg = write_cfg(tmp_path)
        out1, out2 = str(tmp_path / "w1"), str(tmp_path / "w2")
        assert main(["cov-check", "--config", cfg, "--out", out1,
                     "--workers", "1"]) == 0
        assert main(["cov-check", "--config", cfg, "--out", out2,
                     "--workers", "3"]) == 0
        for name in ("cov_check.csv", "cov_check.json", "mean_check.csv"):
            a = Path(os.path.join(out1, name)).read_bytes()
            b = Path(os.path.join(out2, name)).read_bytes()
            assert a == b, f"{name} differs across worker counts"

    def test_pool_capped_at_batch_count(self, tmp_path, monkeypatch):
        # a stand-in pool that records its size and maps in this process:
        # 64 workers for 50 batches get a pool of 50, and the same reports.
        # The runner imports the pool from concurrent.futures when it starts one
        import concurrent.futures
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = write_cfg(tmp_path, replicas=200)
        reports = []
        for workers in (1, 64):
            out = str(tmp_path / f"w{workers}")
            assert main(["cov-check", "--config", cfg, "--out", out,
                         "--workers", str(workers)]) == 0
            reports.append([Path(os.path.join(out, name)).read_bytes()
                            for name in ("cov_check.csv", "cov_check.json", "mean_check.csv")])
        assert sizes == [50]
        assert reports[0] == reports[1]

    def test_deterministic_fbm_check_worker_count_invariance(self, tmp_path):
        # the per-mover draw of a fixed count, byte-identical across worker
        # counts like the Poisson draw above
        cfg = write_cfg(tmp_path, **FBM_FIXED)
        payloads = []
        for workers in (1, 3):
            out = str(tmp_path / f"w{workers}")
            assert main(["fbm-check", "--config", cfg, "--out", out,
                         "--workers", str(workers)]) == 0
            payloads.append([Path(os.path.join(out, name)).read_bytes()
                             for name in ("fbm_check.csv", "fbm_check.json")])
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("occupancy", [
        {"type": "poisson", "rho": 1.0}, {"type": "deterministic", "count": 1}],
        ids=["poisson", "deterministic"])
    def test_time_zero_row_compared_exactly(self, tmp_path, occupancy):
        # the t = 0 pairs never vary: their SE is 0 and they pass by equality
        # (they used to get a NaN SE and fail the run)
        cfg = write_cfg(tmp_path, t_grid=[0.0, 1.0], occupancy=occupancy, replicas=300)
        out = str(tmp_path / "out")
        assert main(["cov-check", "--config", cfg, "--out", out]) == 0
        text = Path(os.path.join(out, "cov_check.json")).read_text()
        assert "NaN" not in text
        report = json.loads(text)
        zero = [row for row in report["covariance"] if row["t_a"] == 0.0]
        assert len(zero) == 2
        for row in zero:
            assert row["empirical"] == row["analytic"] == row["std_error"] == 0.0
            assert row["z_score"] == 0.0 and row["ok"]
        assert math.isfinite(report["max_abs_z"])

    def test_rerun_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, replicas=300)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        main(["simulate", "--config", cfg, "--out", out1])
        main(["simulate", "--config", cfg, "--out", out2])
        a = Path(os.path.join(out1, "simulate.csv")).read_bytes()
        b = Path(os.path.join(out2, "simulate.csv")).read_bytes()
        assert a == b

    def test_rate_table_spot_value(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        ldp={"t": 1.0, "kappa2": 2.0 * math.pi,
                             "x_grid": [2.0 * math.sinh(1.0)]})
        out = str(tmp_path / "out")
        code = main(["rate-table", "--config", cfg, "--out", out,
                     "--format", "json"])
        assert code == 0
        report = json.loads(Path(os.path.join(out, "rate_table.json")).read_text())
        row = report["rows"][0]
        assert row["rate"] == pytest.approx(2.0 - 2.0 * math.exp(-1.0), abs=1e-6)
        assert row["residual"] < 1e-6
        assert row["rate_closed"] == pytest.approx(row["rate"], abs=1e-6)

    def test_rate_empirical_small(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        ldp={"t": 1.0, "r": 0.0, "x": 1.0, "samples": 20000,
                             "n_values": [100]})
        out = str(tmp_path / "out")
        code = main(["rate-empirical", "--config", cfg, "--out", out])
        assert code == 0
        report = json.loads(Path(os.path.join(out, "rate_empirical.json")).read_text())
        assert report["rows"][0]["oracle_ok"] is True

    def test_rate_empirical_fixed_count_under_any_law(self, tmp_path):
        # a fixed count is the one-point finite law, however it is written
        ldp = {"t": 1.0, "r": 0.0, "x": 1.0, "samples": 4000, "n_values": [100]}
        reports = []
        for name, occupancy in (("det", {"type": "deterministic", "count": 2}),
                                ("custom", {"type": "custom", "pmf": [[2, 1.0]]})):
            cfg = write_cfg(tmp_path, f"{name}.json", occupancy=occupancy, ldp=ldp)
            out = str(tmp_path / name)
            assert main(["rate-empirical", "--config", cfg, "--out", out]) == 0
            reports.append(Path(out, "rate_empirical.json").read_bytes())
        assert reports[0] == reports[1]

    def test_fidi_repeated_time_with_equal_values(self, tmp_path):
        cfg = write_cfg(tmp_path, fidi={"times": [1.0, 1.0], "rho": 1.0, "kappa2": 1.0,
                                        "x_vectors": [[0.5, 0.5]]})
        out = str(tmp_path / "out")
        assert main(["fidi", "--config", cfg, "--out", out]) == 0
        text = Path(out, "fidi.json").read_text()
        assert math.isfinite(json.loads(text, parse_constant=_refuse)["rows"][0]["rate"])

    def test_fidi_command(self, tmp_path):
        cfg = write_cfg(tmp_path,
                        fidi={"times": [1.0], "rho": 1.0,
                              "kappa2": 2.0 * math.pi,
                              "x_vectors": [[0.5], [1.0], [-1.0]]})
        out = str(tmp_path / "out")
        code = main(["fidi", "--config", cfg, "--out", out])
        assert code == 0
        report = json.loads(Path(os.path.join(out, "fidi.json")).read_text())
        assert report["intensities"]["ok"] is True
        assert all(r["ok"] for r in report["rows"])

    def test_limit_tables(self, tmp_path):
        cfg = write_cfg(tmp_path, limit={"count": 4, "seed": 3})
        out = str(tmp_path / "out")
        code = main(["limit-tables", "--config", cfg, "--out", out])
        assert code == 0
        assert os.path.exists(os.path.join(out, "limit_tables.csv"))

    # Each CSV artifact's header, as pinned before the columns came from the
    # report rows' keys, and the files each --format writes besides the
    # manifest (a CSV file named None holds JSON).
    RATE_COLUMNS = ("x", "alpha", "occupancy_cost", "crossing_cost", "rate", "rate_dual",
                    "residual")
    LDP = {"t": 1.0, "r": 0.0, "x": 1.0, "samples": 4000, "n_values": [100], "x_grid": [0.5]}

    @pytest.mark.parametrize("command, extra, csv_files, json_files", [
        ("simulate", {"replicas": 50},
         {"simulate.csv": ("t", "r", "count", "mean", "variance", "min", "max"),
          "replicas.csv": ("replica", "t", "r", "Y", "Y_scaled")},
         {"simulate.json"}),
        ("cov-check", {"replicas": 200},
         {"cov_check.csv": ("t_a", "r_a", "t_b", "r_b", "empirical", "analytic",
                            "std_error", "z_score", "band", "checked", "ok"),
          "mean_check.csv": ("t", "r", "mean", "std_error", "ratio", "ok"),
          "cov_check.json": None},
         {"cov_check.json", "mean_check.csv"}),
        ("fbm-check", FBM_FIXED,
         {"fbm_check.csv": ("t", "var_empirical", "var_analytic"), "fbm_check.json": None},
         {"fbm_check.json"}),
        ("rate-table", {"ldp": LDP},
         {"rate_table.csv": RATE_COLUMNS + ("rate_closed",)}, {"rate_table.json"}),
        ("rate-table", {"ldp": LDP,
                        "occupancy": {"type": "custom", "pmf": [[0, 0.5], [2, 0.5]]}},
         {"rate_table.csv": RATE_COLUMNS}, {"rate_table.json"}),
        ("rate-empirical", {"ldp": LDP}, {"rate_empirical.json": None},
         {"rate_empirical.json"}),
        ("fidi", {"fidi": {"times": [1.0], "rho": 1.0, "kappa2": 1.0, "x_vectors": [[0.5]]}},
         {"fidi.json": None}, {"fidi.json"}),
        ("limit-tables", {"limit": {"count": 2}},
         {"limit_tables.csv": ("s", "q", "t", "r", "initial_cov", "dynamic_cov", "cov")},
         {"limit_tables.json"}),
    ], ids=["simulate", "cov-check", "fbm-check", "rate-table-poisson", "rate-table-custom",
            "rate-empirical", "fidi", "limit-tables"])
    def test_csv_headers_and_file_sets(self, tmp_path, command, extra, csv_files, json_files):
        cfg = write_cfg(tmp_path, **extra)
        for fmt, files in (("csv", set(csv_files)), ("json", json_files)):
            out = str(tmp_path / fmt)
            dump = ["--dump"] if command == "simulate" and fmt == "csv" else []
            assert main([command, "--config", cfg, "--out", out, "--format", fmt] + dump) == 0
            assert set(os.listdir(out)) == files | {"manifest.json"}
        for name, header in csv_files.items():
            if header is not None:
                lines = (tmp_path / "csv" / name).read_text().splitlines()
                assert lines[0].startswith("# schema=walkcurrent.")
                assert lines[1] == ",".join(header)

    @pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
    def test_unusable_out_exits_2(self, tmp_path, capsys, monkeypatch, via_env):
        # an output path that is a regular file stops the run before any
        # compute, with a message naming --out and no traceback
        from walkcurrent import runner

        def never(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(runner, "rate_table_experiment", never)
        cfg = write_cfg(tmp_path, ldp={"t": 1.0, "x_grid": [0.5]})
        path = tmp_path / "taken"
        path.write_bytes(b"not a directory")
        argv = ["rate-table", "--config", cfg]
        if via_env:
            monkeypatch.setenv("WALKCURRENT_OUT", str(path))
        else:
            argv += ["--out", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err
        assert path.read_bytes() == b"not a directory"

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert main(["simulate", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 2

    def test_zero_replicas_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, replicas=0)
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_cfg(tmp_path, replicas=50)
        out = str(tmp_path / "out")
        main(["simulate", "--config", cfg, "--out", out, "--seed", "99"])
        manifest = json.loads(Path(os.path.join(out, "manifest.json")).read_text())
        assert manifest["overrides"] == {"master_seed": 99}
        assert manifest["seed"] == 99


class TestCliFailures:
    def test_off_grid_retain_points_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, retain_points=[[0.7, 0.0]])
        with pytest.raises(wc.ConfigValidationError, match="retain_points"):
            load_config(cfg, command="cov-check")
        assert main(["cov-check", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2

    def test_malformed_retain_points_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, retain_points=[[1.0]])
        with pytest.raises(wc.ConfigValidationError, match="retain_points"):
            load_config(cfg, command="cov-check")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_report_writer_refuses_non_json_numbers(self, tmp_path, value):
        from walkcurrent import runner
        with pytest.raises(ValueError):
            runner.write_json(str(tmp_path / "report.json"), {"rows": [{"rate": value}]})
        assert os.listdir(tmp_path) == []

    def test_unexpected_error_exit_code(self, tmp_path, monkeypatch):
        from walkcurrent import runner

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(runner, "simulate_experiment", boom)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", write_cfg(tmp_path), "--out", out]) == 3
        manifest = json.loads(Path(os.path.join(out, "manifest.json")).read_text())
        assert manifest["status"] == "failed"
        assert "RuntimeError: boom" in manifest["error"]


    @pytest.mark.parametrize("x", [10, 50])
    def test_rate_empirical_underflow_exits_3(self, tmp_path, capsys, x):
        # the benchmark's rare-events config far out in the tail: the
        # estimate underflows to 0 at some n, which stops the run with a
        # message naming x, n and log p_hat and no traceback
        cfg = write_cfg(tmp_path, t_grid=[1.0], replicas=1,
                        ldp={"t": 1.0, "r": 0.0, "x": x, "samples": 40_000,
                             "n_values": [100, 400, 1600]})
        out = str(tmp_path / "out")
        assert main(["rate-empirical", "--config", cfg, "--out", out]) == 3
        err = capsys.readouterr().err
        assert f"tail estimate underflows at x = {x:.1f}, n = " in err and "log p_hat" in err
        manifest = json.loads(Path(os.path.join(out, "manifest.json")).read_text())
        assert manifest["status"] == "failed" and "Traceback" not in manifest["error"]
        assert manifest["error"] in err

    def test_rate_empirical_x5_passes(self, tmp_path):
        # the same config at x = 5 stays within float range at every n
        cfg = write_cfg(tmp_path, t_grid=[1.0], replicas=1,
                        ldp={"t": 1.0, "r": 0.0, "x": 5, "samples": 40_000,
                             "n_values": [100, 400, 1600]})
        out = str(tmp_path / "out")
        assert main(["rate-empirical", "--config", cfg, "--out", out]) == 0
        rows = json.loads(Path(os.path.join(out, "rate_empirical.json")).read_text())["rows"]
        assert [row["n"] for row in rows] == [100, 400, 1600]
        assert all(row["p_hat"] > 0.0 for row in rows)

    @pytest.mark.parametrize("ldp, extra, key", [
        ({"samples": 0}, {}, "ldp.samples"),
        ({"samples": -4000}, {}, "ldp.samples"),
        ({"n_values": []}, {}, "ldp.n_values"),
        ({"n_values": [0]}, {}, "ldp.n_values"),
        ({"n_values": [400, 100]}, {}, "ldp.n_values"),
        ({"n_values": [100, 100]}, {}, "ldp.n_values"),
        # t = 0 on the grid: the positivity check, not the grid check
        ({"t": 0}, {"t_grid": [0.0, 1.0]}, "ldp.t"),
        ({}, {"occupancy": {"type": "custom", "pmf": [[0, 0.5], [2, 0.5]]}}, "occupancy"),
        ({"r": 5}, {}, "ldp.r"),
        ({"t": 0.75}, {}, "ldp.t"),
    ], ids=["samples-zero", "samples-negative", "n-values-empty", "n-values-zero",
            "n-values-descending", "n-values-repeated", "t-zero", "custom-occupancy",
            "r-off-grid", "t-off-grid"])
    def test_bad_rate_empirical_input_exits_2(self, tmp_path, capsys, ldp, extra, key):
        section = {"t": 1.0, "r": 0.0, "x": 1.0, "samples": 4000, "n_values": [100]}
        cfg = write_cfg(tmp_path, ldp=dict(section, **ldp), **extra)
        out = str(tmp_path / "out")
        assert main(["rate-empirical", "--config", cfg, "--out", out]) == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists(out)


    FIDI = {"times": [0.5, 1.0], "rho": 1.0, "kappa2": 1.0, "x_vectors": [[0.5, 0.5]]}

    @pytest.mark.parametrize("command, extra, key", [
        ("rate-table", {"ldp": {"t": 1.0, "x_grid": []}}, "ldp.x_grid"),
        ("limit-tables", {"limit": {"count": 0}}, "limit.count"),
        ("limit-tables", {"limit": {"pairs": []}}, "limit.pairs"),
        ("rate-table", {"ldp": {"t": 0.0, "kappa2": 1.0, "x_grid": [0.5]}}, "ldp.t"),
        ("rate-table", {"ldp": {"t": 1.0, "kappa2": -1.0, "x_grid": [0.5]}}, "ldp.kappa2"),
        ("limit-tables", {"limit": {"count": 4, "identity_checks": -1}},
         "limit.identity_checks"),
        # more checks than pairs checked only the pairs, and said nothing
        ("limit-tables", {"limit": {"count": 3, "identity_checks": 10}},
         "limit.identity_checks"),
        ("limit-tables", {"limit": {"identity_checks": 13}}, "limit.identity_checks"),
        ("limit-tables", {"limit": {"pairs": [[1, 0, 1, 0]], "identity_checks": 2}},
         "limit.identity_checks"),
        ("limit-tables", {"limit": {"rho0": -1}}, "limit.rho0"),
        ("limit-tables", {"limit": {"v0": math.inf}}, "limit.v0"),
        ("limit-tables", {"limit": {"kappa2": "x"}}, "limit.kappa2"),
        ("limit-tables", {"limit": {"seed": -3}}, "limit.seed"),
        ("limit-tables", {"limit": {"pairs": [[-1, 0, 1, 0]]}}, "limit.pairs"),
        ("limit-tables", {"limit": {"pairs": [[1, 0, -0.5, 0]]}}, "limit.pairs"),
        ("simulate", {"S": math.inf}, "S must"),
        ("simulate", {"t_grid": [0.5, math.nan]}, "t_grid"),
        ("simulate", {"r_grid": [math.nan]}, "r_grid"),
        ("simulate", {"master_seed": -1}, "master_seed"),
        ("simulate", {"occupancy": {"type": "poisson", "rho": math.inf}}, "occupancy"),
        ("simulate", {"occupancy": {"type": "geometric", "rho": math.inf}}, "occupancy"),
        ("simulate", {"occupancy": {"type": "custom", "pmf": [[2.5, 1.0]]}}, "occupancy.pmf"),
        ("simulate", {"kernel": [[math.inf, 1.0]]}, "kernel"),
        ("simulate", {"kernel": [[1.5, 0.7], [-1, 0.3]]}, "kernel"),
        ("fidi", {"fidi": dict(FIDI, times=[])}, "fidi.times"),
        ("fidi", {"fidi": dict(FIDI, times=[0.5, 1.0, 1.5, 2.0])}, "fidi.times"),
        ("fidi", {"fidi": dict(FIDI, times=[1.0, 0.5])}, "fidi.times"),
        ("fidi", {"fidi": dict(FIDI, times=[0.0, 1.0])}, "fidi.times"),
        ("fidi", {"fidi": dict(FIDI, rho=0.0)}, "fidi.rho"),
        ("fidi", {"fidi": dict(FIDI, kappa2=-1.0)}, "fidi.kappa2"),
        ("fidi", {"fidi": dict(FIDI, x_vectors=[[0.5]])}, "fidi.x_vectors"),
        ("fidi", {"fidi": dict(FIDI, x_vectors=0.5)}, "fidi.x_vectors"),
        # one current with two values wrote "rate": Infinity, which is not JSON
        ("fidi", {"fidi": dict(FIDI, times=[1.0, 1.0], x_vectors=[[0.5, 0.7]])},
         "fidi.x_vectors"),
        # a bad band ran the whole ensemble, then exited 3 with a TypeError
        ("cov-check", {"bands": {"cov_z": "x"}}, "bands.cov_z"),
        ("cov-check", {"bands": {"cov_rel": True}}, "bands.cov_rel"),
        ("cov-check", {"bands": {"mean_ratio": math.nan}}, "bands.mean_ratio"),
        ("cov-check", {"bands": {"skew_band": -0.1}}, "bands.skew_band"),
        ("cov-check", {"bands": {"kurt_band": math.inf}}, "bands.kurt_band"),
        ("cov-check", {"bands": {"ks_p_min": 1.5}}, "bands.ks_p_min"),
        ("fbm-check", dict(FBM_FIXED, bands={"slope_lo": 0.6, "slope_hi": 0.4}),
         "bands.slope_lo"),
        ("rate-table", {"ldp": {"t": 1.0, "x_grid": [0.5]}, "bands": {"duality_tol": -1e-6}},
         "bands.duality_tol"),
        # a bool or a string ran as the number it converts to, or failed
        # with a message that named no key
        ("simulate", {"S": "0.25"}, "S: expected a number"),
        ("simulate", {"T": True}, "T: expected a number"),
        ("simulate", {"window_tol": "x"}, "window_tol"),
        ("simulate", {"t_grid": "ab"}, "t_grid"),
        ("simulate", {"t_grid": [0.5, "1.0"]}, "t_grid"),
        ("simulate", {"r_grid": [False]}, "r_grid"),
        ("simulate", {"kernel": [[1, True], [-1, 0.3]]}, "kernel"),
        ("simulate", {"occupancy": {"type": "poisson", "rho": True}}, "occupancy.rho"),
        ("simulate", {"occupancy": {"type": "geometric", "rho": "1"}}, "occupancy.rho"),
        ("simulate", {"occupancy": {"type": "custom", "pmf": [[0, 0.5], [2, "0.5"]]}},
         "occupancy.pmf"),
        ("simulate", {"retain_points": [[1.0, "0"]]}, "retain_points"),
        # no positive time printed PASS on rows of 0.0 with band 0.0; a
        # retained point at t = 0 ran every replica, then wrote a NaN
        # kurtosis and exited 1
        ("cov-check", {"t_grid": [0.0]}, "t_grid"),
        ("cov-check", {"t_grid": [0.0, 0.5], "retain_points": [[0.0, 0.0]],
                       "replicas": 10_000}, "retain_points"),
    ], ids=["x-grid-empty", "limit-count-zero", "limit-pairs-empty", "rate-table-t-zero",
            "rate-table-kappa2-negative", "identity-checks-negative",
            "identity-checks-above-count", "identity-checks-above-default-count",
            "identity-checks-above-pairs", "limit-rho0-negative",
            "limit-v0-infinite", "limit-kappa2-string", "limit-seed-negative",
            "limit-pair-s-negative", "limit-pair-t-negative", "S-infinite",
            "t-grid-nan", "r-grid-nan", "seed-negative", "poisson-rho-infinite",
            "geometric-rho-infinite", "custom-value-fraction", "kernel-offset-infinite",
            "kernel-offset-fraction",
            "fidi-no-times", "fidi-four-times",
            "fidi-times-descending", "fidi-time-zero", "fidi-rho-zero",
            "fidi-kappa2-negative", "fidi-x-length", "fidi-x-not-list",
            "fidi-x-differs-at-repeated-time",
            "band-string", "band-bool", "band-nan", "band-negative", "band-infinite",
            "ks-p-min-above-1", "slope-band-reversed", "duality-tol-negative",
            "S-string", "T-bool", "window-tol-string", "t-grid-string", "t-grid-entry-string",
            "r-grid-entry-bool", "kernel-weight-bool", "poisson-rho-bool",
            "geometric-rho-string", "custom-prob-string", "retain-point-string",
            "cov-check-no-positive-time", "cov-check-retain-time-zero"])
    def test_vacuous_or_nonfinite_input_exits_2(self, tmp_path, capsys, command, extra, key):
        # each passed with nothing checked, or failed only after compute
        cfg = write_cfg(tmp_path, **extra)
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out]) == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("occupancy", [
        {"type": "deterministic", "count": 0}, {"type": "custom", "pmf": [[0, 1.0]]}],
        ids=["deterministic-0", "custom-0"])
    @pytest.mark.parametrize("command", ["cov-check", "fbm-check", "rate-table",
                                         "rate-empirical"])
    def test_empty_occupancy_exits_2(self, tmp_path, capsys, command, occupancy):
        # a mean-0 law used to exit 3 (rate commands) or 1 with NaN and
        # RuntimeWarnings (ensembles)
        extra = {"ldp": {"t": 1.0, "r": 0.0, "x": 1.0, "samples": 4000, "n_values": [100],
                         "x_grid": [0.5]}}
        if command == "fbm-check":
            extra.update(FBM_FIXED)
        cfg = write_cfg(tmp_path, **dict(extra, occupancy=occupancy))
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "occupancy" in err and "Warning" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["simulate", "cov-check", "limit-tables",
                                         "rate-table"])
    def test_repeated_kernel_offset_exits_2(self, tmp_path, capsys, command):
        # the kernel used to be read as a dict, so the last weight of offset
        # 1 replaced the first and every command ran {1: 0.3, -1: 0.3}
        extra = {"ldp": {"t": 1.0, "x_grid": [0.5]}}
        cfg = write_cfg(tmp_path, kernel=[[1, 0.7], [-1, 0.3], [1, 0.3]], **extra)
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out]) == 2
        assert "error: kernel: offset 1 appears more than once" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["cov-check", "fbm-check", "limit-tables",
                                         "rate-empirical", "rate-table"])
    def test_kernel_that_never_moves_exits_2(self, tmp_path, capsys, command):
        # kappa2 = 0 used to exit 3 at run time (cov-check, fbm-check,
        # limit-tables) or exit 2 naming ldp.kappa2, a key the config lacks
        extra = {"ldp": {"t": 1.0, "r": 0.0, "x": 1.0, "samples": 4000, "n_values": [100],
                         "x_grid": [0.5]}}
        if command == "fbm-check":
            extra.update(FBM_FIXED)
        cfg = write_cfg(tmp_path, kernel=[[0, 1.0]], **extra)
        out = str(tmp_path / "out")
        assert main([command, "--config", cfg, "--out", out]) == 2
        assert "error: kernel:" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_kernel_that_never_moves_simulates_zeros(self, tmp_path):
        cfg = write_cfg(tmp_path, kernel=[[0, 1.0]], replicas=100)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out, "--format", "json"]) == 0
        report = json.loads(Path(os.path.join(out, "simulate.json")).read_text())
        assert all(row["min"] == row["max"] == row["variance"] == 0.0
                   for row in report["rows"])

    def test_empty_occupancy_simulates_zeros(self, tmp_path):
        cfg = write_cfg(tmp_path, occupancy={"type": "deterministic", "count": 0},
                        replicas=100)
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", cfg, "--out", out, "--format", "json"]) == 0
        report = json.loads(Path(os.path.join(out, "simulate.json")).read_text())
        assert all(row["min"] == row["max"] == row["variance"] == 0.0
                   for row in report["rows"])

    @pytest.mark.parametrize("command, extra, argv, key", [
        ("fbm-check", {"T": 2.0, "t_grid": [0.25, 0.5, 1.0, 2.0], "r_grid": [-0.25, 0.25]},
         [], "r_grid"),
        ("fbm-check", {"t_grid": [0.0, 0.25, 0.5, 1.0]}, [], "t_grid"),
        ("cov-check", {"replicas": 99}, [], "replicas"),
        ("cov-check", {"replicas": 9999, "retain_points": [[1.0, 0.0]]}, [],
         "retain_points"),
        ("fbm-check", {"t_grid": [0.25, 0.5, 0.75, 1.0], "replicas": 1}, [], "replicas"),
        ("simulate", {"replicas": 1}, [], "replicas"),
        ("cov-check", {}, ["--workers", "0"], "--workers"),
    ], ids=["fbm-no-r0", "fbm-three-times", "cov-99-replicas", "normality-9999-replicas",
            "fbm-one-replica", "simulate-one-replica", "zero-workers"])
    def test_ensemble_too_small_exits_2(self, tmp_path, capsys, command, extra, argv, key):
        # each used to run the whole ensemble first (exit 3), or run with
        # one worker (exit 0)
        out = str(tmp_path / "out")
        cfg = write_cfg(tmp_path, **extra)
        assert main([command, "--config", cfg, "--out", out] + argv) == 2
        assert key in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_zero_variance_exits_3_with_manifest(self, tmp_path, capsys):
        # at n = 4 this seed's two replicas agree at t = 0.25: the fit used
        # to write "slope": NaN, warn three times and exit 1
        cfg = write_cfg(tmp_path, **dict(FBM_FIXED, n=4, S=0.5, replicas=2, master_seed=2))
        out = str(tmp_path / "out")
        assert main(["fbm-check", "--config", cfg, "--out", out]) == 3
        err = capsys.readouterr().err
        assert "at t = 0.25" in err and "Warning" not in err
        manifest = json.loads(Path(os.path.join(out, "manifest.json")).read_text())
        assert manifest["status"] == "failed" and "at t = 0.25" in manifest["error"]
        assert not os.path.exists(os.path.join(out, "fbm_check.json"))


class TestManifestTelemetry:
    def run_simulate(self, tmp_path, name, **extra):
        out = str(tmp_path / name)
        assert main(["simulate", "--config", write_cfg(tmp_path, name=f"{name}.json",
                                                       replicas=50, **extra),
                     "--out", out]) == 0
        return json.loads(Path(os.path.join(out, "manifest.json")).read_text())["telemetry"]

    def test_cell_engine_recorded(self, tmp_path):
        tel = self.run_simulate(tmp_path, "cells")
        assert tel["engine"] == "classes"
        assert tel["classes"] > 0
        assert tel["batches"] == 50
        assert tel["table_s"] >= 0.0 and tel["draw_s"] > 0.0
        window = tel["window"]
        assert window["width"] >= 16
        # S*sqrt(n) = 2.5, so the window runs from -3 - width to 2 + width
        assert window["sites"] == 2 * window["width"] + 6
        assert 0.0 < window["bound"] <= 1e-6

    def test_particle_engine_recorded(self, tmp_path):
        # five offsets and four times: more classes than window sites
        tel = self.run_simulate(tmp_path, "particles", n=4, S=1.0,
                                r_grid=[-1.0, -0.5, 0.0, 0.5, 1.0],
                                t_grid=[0.25, 0.5, 0.75, 1.0])
        assert tel["engine"] == "particles"
        assert tel["classes"] is None
        assert tel["batches"] == 50

    def test_counts_match_across_workers(self, tmp_path):
        cfg = write_cfg(tmp_path, occupancy={"type": "deterministic", "count": 1})
        tels = []
        for workers in (1, 3):
            out = str(tmp_path / f"w{workers}")
            assert main(["cov-check", "--config", cfg, "--out", out,
                         "--workers", str(workers)]) == 0
            tel = json.loads(Path(os.path.join(out, "manifest.json")).read_text())["telemetry"]
            assert tel.pop("window_s") > 0.0
            assert tel.pop("table_s") >= 0.0 and tel.pop("draw_s") > 0.0
            tels.append(tel)
            for name in ("cov_check.csv", "cov_check.json", "mean_check.csv"):
                text = Path(os.path.join(out, name)).read_text()
                for key in ("classes", "batches", "window_s", "table_s", "draw_s"):
                    assert key not in text
        assert tels[0] == tels[1]
        assert tels[0]["engine"] == "classes" and tels[0]["batches"] == 50

    def test_particle_and_mover_counts(self, tmp_path):
        # expected particles and movers per replica: equal across worker
        # counts, and in no report
        cfg = write_cfg(tmp_path, **FBM_FIXED)
        tels = []
        for workers in (1, 3):
            out = str(tmp_path / f"w{workers}")
            assert main(["fbm-check", "--config", cfg, "--out", out,
                         "--workers", str(workers)]) == 0
            tel = json.loads(Path(os.path.join(out, "manifest.json")).read_text())["telemetry"]
            tels.append((tel["particles_per_replica"], tel["movers_per_replica"]))
            for name in ("fbm_check.csv", "fbm_check.json"):
                text = Path(os.path.join(out, name)).read_text()
                assert "particles_per_replica" not in text and "movers_per_replica" not in text
        assert tels[0] == tels[1]
        particles, movers = tels[0]
        assert particles == tel["window"]["sites"]  # one particle per site
        spec = load_config(cfg, command="fbm-check")
        assert movers == pytest.approx(wc.class_table(spec.experiment).means.sum(), rel=1e-15)
        assert 0.0 < movers < particles

    def test_rate_empirical_windows(self, tmp_path):
        ldp_section = {"t": 1.0, "r": 0.0, "x": 1.0, "samples": 4000,
                       "n_values": [100, 400]}
        cfg = write_cfg(tmp_path, t_grid=[1.0], ldp=ldp_section)
        tels = []
        for workers in (1, 3):
            out = str(tmp_path / f"w{workers}")
            assert main(["rate-empirical", "--config", cfg, "--out", out,
                         "--workers", str(workers)]) == 0
            windows = json.loads(
                Path(os.path.join(out, "manifest.json")).read_text())["telemetry"]["windows"]
            assert all(w.pop("window_s") > 0.0 for w in windows)
            tels.append(windows)
            text = Path(os.path.join(out, "rate_empirical.json")).read_text()
            for key in ("windows", "width", "window_s"):
                assert key not in text
        assert tels[0] == tels[1]
        assert [w["n"] for w in tels[0]] == [100, 400]
        assert tels[0][0]["width"] == wc.truncation_radius(wc.ExperimentConfig(
            n=100, T=1.0, S=0.25, t_grid=(1.0,), r_grid=(0.0,),
            kernel=wc.validate_kernel({1: 0.7, -1: 0.3}),
            occupancy=wc.OccupancyModel.poisson(1.0), master_seed=1))

    def test_telemetry_not_in_reports(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["cov-check", "--config", write_cfg(tmp_path, replicas=200),
                     "--out", out]) == 0
        for name in ("cov_check.csv", "cov_check.json", "mean_check.csv"):
            text = Path(os.path.join(out, name)).read_text()
            assert "engine" not in text and "telemetry" not in text


class TestStrictConfig:
    @pytest.mark.parametrize("extra, key", [
        ({"replicaz": 5}, "replicaz"),
        ({"workers": 2}, "workers"),
        ({"ldp": {"t": 1.0, "x_grid": [0.5], "x_gird": [1.0]}}, "x_gird"),
        ({"fidi": {"times": [1.0], "rho": 1.0, "kappa2": 1.0, "x_vectors": [[0.5]],
                   "tims": [1.0]}}, "tims"),
        ({"limit": {"count": 4, "sead": 3}}, "sead"),
        ({"bands": {"cov_zz": 4.0}}, "cov_zz"),
        ({"occupancy": {"type": "poisson", "rho": 1.0, "count": 2}}, "count"),
    ])
    def test_unknown_key_rejected(self, tmp_path, extra, key):
        cfg = write_cfg(tmp_path, **extra)
        with pytest.raises(wc.ConfigValidationError, match=key):
            load_config(cfg, command="simulate")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("extra, key", [
        ({"n": 100.9}, "n"),
        ({"n": True}, "n"),
        ({"replicas": 20.5}, "replicas"),
        ({"master_seed": "7"}, "master_seed"),
        ({"ldp": {"t": 1.0, "x_grid": [0.5], "samples": 100.5}}, "samples"),
        ({"ldp": {"t": 1.0, "x_grid": [0.5], "n_values": [100, 400.5]}}, "n_values"),
        ({"limit": {"count": 2.5}}, "count"),
        ({"occupancy": {"type": "deterministic", "count": 1.5}}, "count"),
    ])
    def test_non_integer_rejected(self, tmp_path, extra, key):
        cfg = write_cfg(tmp_path, **extra)
        with pytest.raises(wc.ConfigValidationError, match=key):
            load_config(cfg, command="simulate")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, extra, key", [
        ("simulate", {"n": [100]}, "n"),
        ("simulate", {"replicas": [200]}, "replicas"),
        ("simulate", {"master_seed": [3]}, "master_seed"),
        ("rate-empirical", {"ldp": {"t": 1.0, "r": 0.0, "x": 1.0, "samples": [4000],
                                    "n_values": [100]}}, "ldp.samples"),
        ("limit-tables", {"limit": {"count": [3]}}, "limit.count"),
        ("limit-tables", {"limit": {"seed": [3]}}, "limit.seed"),
        ("simulate", {"occupancy": {"type": ["poisson"], "rho": 1.0}}, "occupancy.type"),
    ])
    def test_list_for_a_single_value_rejected(self, tmp_path, capsys, command, extra, key):
        # only ldp.n_values holds a list; a list elsewhere must not reach a
        # comparison or a dict lookup
        cfg = write_cfg(tmp_path, **extra)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert f"config error: {key}:" in capsys.readouterr().err

    def test_integral_float_accepted(self, tmp_path):
        spec = load_config(write_cfg(tmp_path, n=100.0, replicas=2000.0),
                           command="simulate")
        assert spec.experiment.n == 100
        assert spec.experiment.replicas == 2000

    def test_integer_numbers_accepted(self, tmp_path):
        # JSON integers are numbers wherever a number is expected
        cfg = write_cfg(tmp_path, T=1, S=1, t_grid=[1], r_grid=[0], kernel=[[1, 1], [-1, 1]],
                        occupancy={"type": "poisson", "rho": 1},
                        bands={"cov_z": 4, "ks_p_min": 0, "slope_lo": 0, "slope_hi": 1})
        spec = load_config(cfg, command="cov-check")
        assert spec.experiment.S == 1.0 and spec.experiment.t_grid == (1.0,)
        assert spec.occupancy.rho0 == 1.0

    @pytest.mark.parametrize("quad_tol", [0.0, -1e-10, "1e-10", float("inf")])
    def test_bad_quad_tol_rejected(self, tmp_path, quad_tol):
        with pytest.raises(wc.ConfigValidationError, match="quad_tol"):
            load_config(write_cfg(tmp_path, quad_tol=quad_tol), command="simulate")

    @pytest.mark.parametrize("workload", ["particles", "rates"])
    def test_benchmark_configs_load(self, tmp_path, workload):
        import importlib.util
        path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for i, (command, cfg) in enumerate(workloads.build(workload, seed=1)):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(cfg))
            assert load_config(str(path), command=command).config_hash


class TestRateCommands:
    def count_tilts(self, monkeypatch):
        from walkcurrent import ldp, runner
        calls = []
        original = ldp.tilt_for_mean

        def counted(model, x, *args, **kwargs):
            calls.append(x)
            return original(model, x, *args, **kwargs)

        monkeypatch.setattr(ldp, "tilt_for_mean", counted)
        monkeypatch.setattr(runner, "tilt_for_mean", counted)
        return calls

    def test_rate_table_one_tilt_per_x(self, monkeypatch):
        from walkcurrent import runner
        calls = self.count_tilts(monkeypatch)
        x_grid = [-1.0, 0.0, 0.5, 2.0]
        report, passed = runner.rate_table_experiment(
            wc.OccupancyModel.custom([(0, 0.5), (2, 0.5)]), 1.0, 1.0, x_grid)
        assert passed
        assert calls == x_grid

    def test_rate_empirical_one_tilt(self, tmp_path, monkeypatch):
        from walkcurrent import runner
        calls = self.count_tilts(monkeypatch)
        spec = load_config(write_cfg(tmp_path), command="simulate")
        report, _ = runner.rate_empirical_experiment(
            spec.experiment, {"t": 1.0, "r": 0.0, "x": 1.0, "samples": 4000,
                              "n_values": [100, 400]})
        assert calls == [1.0]
        assert len(report["rows"]) == 2

    def test_rate_empirical_keeps_config_fields(self):
        # the per-n configs differ from the config in n alone: a window cap
        # too small for n = 100 must stop rate-empirical as it stops
        # truncation_radius
        from walkcurrent import runner
        cfg = wc.ExperimentConfig(
            n=100, T=1.0, S=0.25, t_grid=(1.0,), r_grid=(0.0,),
            kernel=wc.validate_kernel({1: 0.7, -1: 0.3}),
            occupancy=wc.OccupancyModel.poisson(1.0),
            master_seed=1, max_window_sites=20)
        with pytest.raises(wc.WindowUnreachableError):
            wc.truncation_radius(cfg)
        with pytest.raises(wc.WindowUnreachableError):
            runner.rate_empirical_experiment(
                cfg, {"t": 1.0, "r": 0.0, "x": 1.0, "samples": 4000, "n_values": [100]})

    def test_quad_tol_reaches_model(self, tmp_path, monkeypatch):
        from walkcurrent import ldp, runner
        seen = []

        def recording(**kwargs):
            seen.append(kwargs.get("quad_tol"))
            return ldp.RateModel(**kwargs)

        monkeypatch.setattr(runner, "RateModel", recording)
        ldp_section = {"t": 1.0, "r": 0.0, "x": 1.0, "samples": 4000,
                       "n_values": [100], "x_grid": [0.5]}
        cfg = write_cfg(tmp_path, quad_tol=1e-8, ldp=ldp_section)
        for command in ("rate-table", "rate-empirical"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        assert seen == [1e-8, 1e-8]

