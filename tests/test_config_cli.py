import json
import math
import os
from pathlib import Path

import pytest

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

    def test_runtime_keys_excluded(self):
        d = dict(BASE, bands=dict(), window_tol=1e-6)
        assert canonical_hash(d) == canonical_hash(dict(d, workers=8, out="/tmp/x"))


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


class TestManifestTelemetry:
    def run_simulate(self, tmp_path, name, **extra):
        out = str(tmp_path / name)
        assert main(["simulate", "--config", write_cfg(tmp_path, name=f"{name}.json",
                                                       replicas=50, **extra),
                     "--out", out]) == 0
        return json.loads(Path(os.path.join(out, "manifest.json")).read_text())["telemetry"]

    def test_cell_engine_recorded(self, tmp_path):
        tel = self.run_simulate(tmp_path, "cells")
        assert tel["engine"] == "cells"
        assert tel["classes"] > 0
        window = tel["window"]
        assert window["width"] >= 16
        # S*sqrt(n) = 2.5, so the window runs from -3 - width to 2 + width
        assert window["sites"] == 2 * window["width"] + 6
        assert 0.0 < window["bound"] <= 1e-6

    def test_particle_engine_recorded(self, tmp_path):
        tel = self.run_simulate(tmp_path, "particles",
                                occupancy={"type": "deterministic", "count": 1})
        assert tel["engine"] == "particles"
        assert tel["classes"] is None

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

    def test_integral_float_accepted(self, tmp_path):
        spec = load_config(write_cfg(tmp_path, n=100.0, replicas=2000.0),
                           command="simulate")
        assert spec.experiment.n == 100
        assert spec.experiment.replicas == 2000

    @pytest.mark.parametrize("quad_tol", [0.0, -1e-10, "1e-10"])
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

