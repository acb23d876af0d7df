"""Command-line entry point tying configs, experiments, and artifacts together.

Exit codes: 0 all embedded pass/fail criteria passed, 1 a criterion failed,
2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys
import traceback

from .errors import ConfigError, WalkCurrentError
from .config import load_config
from . import runner

OUT_ENV = "WALKCURRENT_OUT"

COV_COLUMNS = ("t_a", "r_a", "t_b", "r_b", "empirical", "analytic",
               "std_error", "z_score", "band", "checked", "ok")
MEAN_COLUMNS = ("t", "r", "mean", "std_error", "ratio", "ok")
RATE_COLUMNS = ("x", "alpha", "occupancy_cost", "crossing_cost",
                "rate", "rate_dual", "residual")
LIMIT_COLUMNS = ("s", "q", "t", "r", "initial_cov", "dynamic_cov", "cov")
SIM_COLUMNS = ("t", "r", "count", "mean", "variance", "min", "max")
FBM_COLUMNS = ("t", "var_empirical", "var_analytic")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkcurrent",
        description="simulate and verify space-time current fluctuations of "
                    "independent lattice random walks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "run the replica ensemble and write summary moments"),
        ("cov-check", "compare ensemble covariance and mean against the limit"),
        ("fbm-check", "fit the variance-growth exponent across times"),
        ("rate-table", "tabulate the rate function with duality residuals"),
        ("rate-empirical", "tilted tail estimates across n with exact oracle"),
        ("fidi", "multi-time marginal rates from Poisson crossing counts"),
        ("limit-tables", "emit covariance goldens with identity spot-checks"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        p.add_argument("--replicas", type=int, default=None, help="override replicas")
        p.add_argument("--workers", type=int, default=1, help="parallel batch workers")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="primary report format")
        if name == "simulate":
            p.add_argument("--dump", action="store_true",
                           help="also write one row per (replica, t, r)")
    return parser


def _out_dir(args) -> str:
    out = args.out or os.environ.get(OUT_ENV) or "runs"
    os.makedirs(out, exist_ok=True)
    return out


def _write_report(out: str, args, kind: str, report: dict, columns, rows_key: str):
    """Primary artifact in the chosen format, plus row count for the manifest."""
    outputs = []
    if args.format == "csv":
        path = os.path.join(out, f"{kind}.csv")
        n = runner.write_csv(path, kind, columns, report[rows_key])
        outputs.append((path, "csv", n))
    else:
        path = os.path.join(out, f"{kind}.json")
        runner.write_json(path, report)
        outputs.append((path, "json", len(report[rows_key])))
    return outputs


def _run(args, spec, out: str, outputs: list, telemetry: dict) -> bool:
    """Run one command, appending its artifacts to `outputs`."""
    if args.command == "simulate":
        report, passed = runner.simulate_experiment(spec.experiment,
                                                    workers=args.workers,
                                                    telemetry=telemetry)
        outputs += _write_report(out, args, "simulate", report, SIM_COLUMNS, "rows")
        if args.dump:
            path = os.path.join(out, "replicas.csv")
            n = runner.write_csv(path, "replica_dump",
                                 ("replica", "t", "r", "Y", "Y_scaled"),
                                 runner.replica_dump_rows(spec.experiment))
            outputs.append((path, "csv", n))
    elif args.command == "cov-check":
        report, passed = runner.covariance_experiment(
            spec.experiment, workers=args.workers, bands=spec.bands,
            retain_points=spec.retain_points, telemetry=telemetry)
        outputs += _write_report(out, args, "cov_check", report,
                                 COV_COLUMNS, "covariance")
        path = os.path.join(out, "mean_check.csv")
        n = runner.write_csv(path, "mean_check", MEAN_COLUMNS, report["means"])
        outputs.append((path, "csv", n))
        path = os.path.join(out, "cov_check.json")
        runner.write_json(path, report)
        outputs.append((path, "json", len(report["covariance"])))
    elif args.command == "fbm-check":
        report, passed = runner.fbm_experiment(spec.experiment,
                                               workers=args.workers,
                                               bands=spec.bands,
                                               telemetry=telemetry)
        outputs += _write_report(out, args, "fbm_check", report, FBM_COLUMNS, "rows")
        runner.write_json(os.path.join(out, "fbm_check.json"), report)
        outputs.append((os.path.join(out, "fbm_check.json"), "json",
                        len(report["rows"])))
    elif args.command == "rate-table":
        columns = RATE_COLUMNS + (("rate_closed",)
                                  if spec.occupancy.kind == "poisson" else ())
        report, passed = runner.rate_table_experiment(
            spec.occupancy, spec.ldp["kappa2"], float(spec.ldp["t"]),
            spec.ldp["x_grid"], duality_tol=spec.bands["duality_tol"],
            quad_tol=float(spec.raw["quad_tol"]))
        outputs += _write_report(out, args, "rate_table", report, columns, "rows")
    elif args.command == "rate-empirical":
        report, passed = runner.rate_empirical_experiment(
            spec.experiment, spec.ldp, quad_tol=float(spec.raw["quad_tol"]))
        runner.write_json(os.path.join(out, "rate_empirical.json"), report)
        outputs.append((os.path.join(out, "rate_empirical.json"), "json",
                        len(report["rows"])))
    elif args.command == "fidi":
        report, passed = runner.fidi_experiment(spec.fidi)
        runner.write_json(os.path.join(out, "fidi.json"), report)
        outputs.append((os.path.join(out, "fidi.json"), "json",
                        len(report["rows"])))
    elif args.command == "limit-tables":
        report, passed = runner.limit_tables_experiment(
            spec.limit, occupancy=spec.occupancy, kernel=spec.kernel)
        outputs += _write_report(out, args, "limit_tables", report,
                                 LIMIT_COLUMNS, "rows")
    else:  # pragma: no cover
        raise AssertionError(args.command)
    return passed


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    overrides = {"master_seed": args.seed, "replicas": args.replicas}
    applied = {k: v for k, v in overrides.items() if v is not None}
    spec = None
    outputs = []
    telemetry = {}
    out = None
    try:
        spec = load_config(args.config, overrides=overrides, command=args.command)
        out = _out_dir(args)
        passed = _run(args, spec, out, outputs, telemetry)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # keep whatever artifacts were already written in the failed manifest
        if out is None:
            out = _out_dir(args)
        expected = isinstance(exc, WalkCurrentError)
        runner.write_manifest(out, args.command,
                              spec.config_hash if spec else None,
                              spec.raw["master_seed"] if spec else args.seed,
                              outputs, started, status="failed",
                              overrides=applied, telemetry=telemetry,
                              error=str(exc) if expected else traceback.format_exc())
        kind = "" if expected else f"{type(exc).__name__}: "
        print(f"runtime error: {kind}{exc} (details in the manifest)", file=sys.stderr)
        return 3

    status = "ok" if passed else "criterion_failed"
    runner.write_manifest(out, args.command, spec.config_hash,
                          spec.raw["master_seed"], outputs, started,
                          status=status, overrides=applied, telemetry=telemetry)
    print(f"{args.command}: {'PASS' if passed else 'FAIL'} "
          f"(artifacts in {out})")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
