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


# What each command writes: (report kind, CSV columns, rows key).  The
# report goes out in the --format, but a kind without CSV columns only as
# JSON, and a kind in ALWAYS_JSON as JSON in either format.  Each EXTRA_CSV
# table (same triple) is written as CSV whatever the format.
REPORTS = {
    "simulate": ("simulate", SIM_COLUMNS, "rows"),
    "cov-check": ("cov_check", COV_COLUMNS, "covariance"),
    "fbm-check": ("fbm_check", FBM_COLUMNS, "rows"),
    "rate-table": ("rate_table", RATE_COLUMNS, "rows"),
    "rate-empirical": ("rate_empirical", None, "rows"),
    "fidi": ("fidi", None, "rows"),
    "limit-tables": ("limit_tables", LIMIT_COLUMNS, "rows"),
}
ALWAYS_JSON = ("cov_check", "fbm_check")
EXTRA_CSV = {"cov-check": (("mean_check", MEAN_COLUMNS, "means"),)}


def _experiment(args, spec, telemetry: dict):
    """Run one command's experiment: (report, passed)."""
    cmd = args.command
    if cmd == "simulate":
        return runner.simulate_experiment(spec.experiment, workers=args.workers,
                                          telemetry=telemetry)
    if cmd == "cov-check":
        return runner.covariance_experiment(
            spec.experiment, workers=args.workers, bands=spec.bands,
            retain_points=spec.retain_points, telemetry=telemetry)
    if cmd == "fbm-check":
        return runner.fbm_experiment(spec.experiment, workers=args.workers,
                                     bands=spec.bands, telemetry=telemetry)
    if cmd == "rate-table":
        return runner.rate_table_experiment(
            spec.occupancy, spec.ldp["kappa2"], float(spec.ldp["t"]),
            spec.ldp["x_grid"], duality_tol=spec.bands["duality_tol"],
            quad_tol=float(spec.raw["quad_tol"]))
    if cmd == "rate-empirical":
        return runner.rate_empirical_experiment(
            spec.experiment, spec.ldp, quad_tol=float(spec.raw["quad_tol"]))
    if cmd == "fidi":
        return runner.fidi_experiment(spec.fidi)
    if cmd == "limit-tables":
        return runner.limit_tables_experiment(
            spec.limit, occupancy=spec.occupancy, kernel=spec.kernel)
    raise AssertionError(cmd)  # pragma: no cover


def _run(args, spec, out: str, outputs: list, telemetry: dict) -> bool:
    """Run one command, appending its artifacts to `outputs` as they are
    written."""
    report, passed = _experiment(args, spec, telemetry)
    kind, columns, rows_key = REPORTS[args.command]
    if kind == "rate_table" and spec.occupancy.kind == "poisson":
        columns += ("rate_closed",)
    tables = [(kind, columns, rows_key)] if columns and args.format == "csv" else []
    for name, cols, key in tables + list(EXTRA_CSV.get(args.command, ())):
        path = os.path.join(out, f"{name}.csv")
        outputs.append((path, "csv", runner.write_csv(path, name, cols, report[key])))
    if not tables or kind in ALWAYS_JSON:
        path = os.path.join(out, f"{kind}.json")
        runner.write_json(path, report)
        outputs.append((path, "json", len(report[rows_key])))
    if args.command == "simulate" and args.dump:
        path = os.path.join(out, "replicas.csv")
        n = runner.write_csv(path, "replica_dump",
                             ("replica", "t", "r", "Y", "Y_scaled"),
                             runner.replica_dump_rows(spec.experiment))
        outputs.append((path, "csv", n))
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
