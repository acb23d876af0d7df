"""Experiment drivers: parallel replica fan-out, reports, artifacts, manifest.

Replicas are split into a fixed number of contiguous batches (the jackknife
unit).  A batch is drawn from its own stream and folded into its own
accumulator, and the batches merge in index order, so the worker count
changes scheduling only, never any arithmetic order; reports are
byte-identical for a fixed seed no matter how many workers run.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import json
import math
import os
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import DEFAULTS, LIMIT_DEFAULTS
from .gaussian import (
    LimitCovariance,
    covariance_table,
    dynamic_cov,
    dynamic_cov_quadrature,
    initial_cov,
    initial_cov_quadrature,
    limit_cov_matrix,
)
from .ldp import (
    RateModel,
    build_multi_time_spec,
    multi_time_rate,
    poisson_rate,
    rate_decomposed,
    rate_legendre,
    tilt_for_mean,
    tilted_tail_estimate,
)
from .simulate import (
    ClassTable,
    ExperimentConfig,
    batch_currents,
    certified_window,
    class_table,
    exact_current_pmf,
    split_batches,
    truncation_radius,
    window_span,
)
from .stats import (
    EnsembleAccumulator,
    covariance_report,
    mean_report,
    merge_accumulators,
    normality_diagnostics,
    scaling_exponent,
)

RETAIN_CAP = 100_000
FIDI_CONSISTENCY_TOL = 1e-6  # k = 1 rate against its closed form
FIDI_SYMMETRY_TOL = 1e-9  # k = 1 intensities against rho sqrt(kappa2 t / 2 pi)
IDENTITY_TOL = 1e-8  # limit-tables: closed forms against integral forms


def limit_params(config: ExperimentConfig) -> LimitCovariance:
    """Limit-field parameters implied by a microscopic configuration."""
    return LimitCovariance(rho0=config.occupancy.rho0, v0=config.occupancy.v0,
                           kappa2=config.kernel.kappa2)


# --------------------------------------------------------------------------
# batched ensemble execution
# --------------------------------------------------------------------------

def ensemble_telemetry(config: ExperimentConfig, table: Optional[ClassTable],
                       batches: int) -> dict:
    """Engine, class count, batch count and certified window of one
    ensemble run, with the expected particles in the window and, on the
    class engine, the expected movers (particles in a class with a nonzero
    sign) per replica; the window's bound is the one its width was
    certified with."""
    width, bound = certified_window(config)
    lo, hi = window_span(config, width)
    return {
        "engine": "particles" if table is None else "classes",
        "classes": None if table is None else int(table.means.size),
        "batches": batches,
        "window": {"width": width, "sites": hi - lo + 1, "bound": bound},
        "particles_per_replica": config.occupancy.rho0 * (hi - lo + 1),
        "movers_per_replica": None if table is None else float(table.means.sum()),
    }


def _batch_job(args):
    config, table, index, batch, retain_idx, cap = args
    scaled = batch_currents(config, table, index, batch) * config.n ** -0.25
    acc = EnsembleAccumulator.empty(scaled.shape[1])
    acc.add_batch(scaled)
    # copies, so that the batch's rows are freed with the batch
    return acc, [scaled[:cap, idx].copy() for idx in retain_idx]


def run_ensemble_batches(config: ExperimentConfig, workers: int = 1,
                         retain_points: Sequence[Tuple[float, float]] = (),
                         telemetry: Optional[dict] = None):
    """Run all replicas, returning per-batch accumulators, retained samples
    and the class table.

    The class table is built once here and shipped with the batches; the
    particle engine runs when there is none.  `telemetry`, when given,
    receives the engine, class, batch and window counts of the run, and
    the seconds spent certifying the window (`window_s`), building the
    table (`table_s`) and drawing and accumulating the batches (`draw_s`).
    """
    start = time.perf_counter()
    truncation_radius(config)
    window_s = time.perf_counter() - start
    start = time.perf_counter()
    table = class_table(config)
    table_s = time.perf_counter() - start
    batches = split_batches(config.replicas)
    if telemetry is not None:
        telemetry.update(ensemble_telemetry(config, table, len(batches)),
                         window_s=window_s, table_s=table_s)
    points = config.grid_points()
    retain_idx = [points.index((float(t), float(r))) for t, r in retain_points]
    payloads = [(config, table, index, batch, retain_idx, RETAIN_CAP)
                for index, batch in enumerate(batches)]
    start = time.perf_counter()
    # a pool starts all its workers at once, so it gets no more than batches
    workers = min(workers, len(payloads))
    if workers > 1:
        # imported here, so that a run at one worker loads no process pool
        from concurrent.futures import ProcessPoolExecutor
        # one chunk per worker pickles the table once per worker
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_job, payloads,
                                    chunksize=-(-len(payloads) // workers)))
    else:
        results = [_batch_job(p) for p in payloads]
    if telemetry is not None:
        telemetry["draw_s"] = time.perf_counter() - start
    accumulators = [acc for acc, _ in results]
    retained = {}
    for slot, pt in enumerate(retain_points):
        arr = np.concatenate([kept[slot] for _, kept in results]) if results else np.array([])
        retained[(float(pt[0]), float(pt[1]))] = arr[:RETAIN_CAP]
    return accumulators, retained, table


# --------------------------------------------------------------------------
# experiments
# --------------------------------------------------------------------------

def covariance_experiment(config: ExperimentConfig, workers: int = 1,
                          bands: Optional[dict] = None,
                          check_points: Optional[Sequence[Tuple[float, float]]] = None,
                          retain_points: Sequence[Tuple[float, float]] = (),
                          telemetry: Optional[dict] = None):
    """Ensemble covariance and mean against the limit formulas.

    Pass criterion per pair: |empirical - analytic| within
    max(cov_z * jackknife SE, cov_rel * |analytic|); per point:
    |mean| <= mean_ratio * SE.  Optionally retains raw samples at chosen
    points and runs normality diagnostics on them.
    """
    bands = {**DEFAULTS["bands"], **(bands or {})}
    z_band = bands["cov_z"]
    rel_band = bands["cov_rel"]
    mean_band = bands["mean_ratio"]
    params = limit_params(config)
    points = config.grid_points()
    batches, retained, _ = run_ensemble_batches(config, workers=workers,
                                                retain_points=retain_points,
                                                telemetry=telemetry)
    cov_rep = covariance_report(batches, params, points)
    mean_rep = mean_report(batches, points)
    checked = set((float(t), float(r)) for t, r in (check_points or points))

    cov_ok = True
    for row in cov_rep["rows"]:
        band = max(z_band * row["std_error"], rel_band * abs(row["analytic"]))
        row.update(band=band,
                   checked=((row["t_a"], row["r_a"]) in checked
                            and (row["t_b"], row["r_b"]) in checked),
                   ok=abs(row["empirical"] - row["analytic"]) <= band)
        cov_ok = cov_ok and (row["ok"] or not row["checked"])
    mean_ok = True
    for row in mean_rep["rows"]:
        row["ok"] = row["ratio"] <= mean_band
        mean_ok = mean_ok and (row["ok"] or (row["t"], row["r"]) not in checked)

    normality = {}
    norm_ok = True
    if retained:
        lattice = config.n ** -0.25
        for pt, samples in retained.items():
            params_var = float(limit_cov_matrix(params, [pt])[0, 0])
            diag = normality_diagnostics(
                samples, params_var, lattice=lattice,
                rng=np.random.default_rng(config.master_seed + 1))
            diag["ok"] = (abs(diag["skewness"]) <= bands["skew_band"]
                          and abs(diag["excess_kurtosis"]) <= bands["kurt_band"]
                          and diag["ks_p"] > bands["ks_p_min"])
            norm_ok = norm_ok and diag["ok"]
            normality[f"{pt[0]:g},{pt[1]:g}"] = diag

    passed = cov_ok and mean_ok and norm_ok
    report = {
        "kind": "cov_check", "schema_version": 1,
        "replicas": config.replicas,
        "max_abs_z": cov_rep["max_abs_z"],
        "frac_within_3": cov_rep["frac_within_3"],
        "max_mean_ratio": mean_rep["max_ratio"],
        "covariance": cov_rep["rows"], "means": mean_rep["rows"], "normality": normality,
        "passed": passed,
    }
    return report, passed


def fbm_experiment(config: ExperimentConfig, workers: int = 1,
                   bands: Optional[dict] = None, telemetry: Optional[dict] = None):
    """Variance-growth exponent across times at r = 0 vs the analytic 1/2."""
    bands = {**DEFAULTS["bands"], **(bands or {})}
    lo = bands["slope_lo"]
    hi = bands["slope_hi"]
    if 0.0 not in config.r_grid:
        raise ValueError("fbm experiment needs r = 0 in the grid")
    params = limit_params(config)
    points = config.grid_points()
    batches, _, _ = run_ensemble_batches(config, workers=workers, telemetry=telemetry)
    total = merge_accumulators(batches)
    cov = total.cov()
    tvals = [t for t in config.t_grid if t > 0.0]
    emp_vars = []
    ana_vars = []
    for t in tvals:
        idx = points.index((t, 0.0))
        emp_vars.append(float(cov[idx, idx]))
        ana_vars.append(float(limit_cov_matrix(params, [(t, 0.0)])[0, 0]))
    slope, stderr = scaling_exponent(tvals, emp_vars)
    slope_analytic, _ = scaling_exponent(tvals, ana_vars)
    passed = lo <= slope <= hi
    report = {
        "kind": "fbm_check", "schema_version": 1,
        "replicas": config.replicas,
        "slope": slope, "slope_stderr": stderr,
        "slope_analytic": slope_analytic,
        "rows": [{"t": t, "var_empirical": ev, "var_analytic": av}
                 for t, ev, av in zip(tvals, emp_vars, ana_vars)],
        "passed": passed,
    }
    return report, passed


def rate_table_experiment(occupancy, kappa2: float, t: float, x_grid,
                          duality_tol: float = DEFAULTS["bands"]["duality_tol"],
                          quad_tol: float = DEFAULTS["quad_tol"]):
    """Rate-function table with the duality residual column.

    One tilt solve per x serves both rate routes.
    """
    model = RateModel(occupancy=occupancy, kappa2=kappa2, t=t, quad_tol=quad_tol)
    rows = []
    worst = 0.0
    for x in x_grid:
        x = float(x)
        alpha = tilt_for_mean(model, x)
        parts = rate_decomposed(model, x, alpha)
        dual = rate_legendre(model, x, alpha)
        resid = abs(parts.total - dual)
        worst = max(worst, resid)
        row = {"x": x, "alpha": alpha,
               "occupancy_cost": parts.occupancy_cost,
               "crossing_cost": parts.crossing_cost,
               "rate": parts.total, "rate_dual": dual, "residual": resid}
        if occupancy.kind == "poisson":
            row["rate_closed"] = poisson_rate(x, occupancy.rho0, kappa2, t)
        rows.append(row)
    passed = worst <= duality_tol
    report = {"kind": "rate_table", "schema_version": 1, "kappa2": kappa2,
              "t": t, "rows": rows, "max_residual": worst, "passed": passed}
    return report, passed


def rate_empirical_experiment(config: ExperimentConfig, ldp_section: dict,
                              quad_tol: float = DEFAULTS["quad_tol"],
                              telemetry: Optional[dict] = None):
    """Tilted tail estimates across n, each checked against the exact pmf.

    The limiting tilt depends on the model and x only, so one solve serves
    the analytic rate and every n; one certified window per n serves both
    the sampler and the oracle.  `telemetry`, when given, receives each
    n's window width and the seconds spent certifying it (`windows`).
    """
    t = float(ldp_section["t"])
    r = float(ldp_section["r"])
    x = float(ldp_section["x"])
    samples = int(ldp_section["samples"])
    n_values = [int(n) for n in ldp_section["n_values"]]
    model = RateModel(occupancy=config.occupancy, kappa2=config.kernel.kappa2, t=t,
                      quad_tol=quad_tol)
    alpha = tilt_for_mean(model, x)
    analytic = rate_legendre(model, x, alpha)

    rows = []
    windows = []
    if telemetry is not None:
        telemetry["windows"] = windows
    oracle_ok = True
    for n in n_values:
        cfg_n = dataclasses.replace(config, n=n)
        start = time.perf_counter()
        width = truncation_radius(cfg_n)
        windows.append({"n": n, "width": width, "window_s": time.perf_counter() - start})
        est = tilted_tail_estimate(cfg_n, t, r, x, samples, alpha=alpha)
        exact = exact_current_pmf(cfg_n, t, r).tail_geq(est.threshold)
        se = est.p_hat * est.relative_se
        row = {"n": n, "x": x, "p_hat": est.p_hat, "se": se,
               "relative_se": est.relative_se, "empirical_rate": est.empirical_rate,
               "analytic_rate": analytic, "ess": est.ess, "threshold": est.threshold,
               "p_exact": exact, "oracle_ok": abs(est.p_hat - exact) <= 3.0 * se}
        oracle_ok = oracle_ok and row["oracle_ok"]
        rows.append(row)

    gaps = [abs(row["empirical_rate"] - analytic) for row in rows]
    trend_ok = True
    if len(gaps) >= 3:
        trend_ok = all(b < a for a, b in zip(gaps, gaps[1:]))
    passed = oracle_ok and trend_ok
    report = {"kind": "rate_empirical", "schema_version": 1,
              "rows": rows, "analytic_rate": analytic,
              "oracle_ok": oracle_ok, "trend_ok": trend_ok, "passed": passed}
    return report, passed


def fidi_experiment(fidi_section: dict):
    """Multi-time marginal rates; at k = 1 checks the closed-form collapse."""
    times = [float(t) for t in fidi_section["times"]]
    rho = float(fidi_section["rho"])
    kappa2 = float(fidi_section["kappa2"])
    spec = build_multi_time_spec(times, rho, kappa2)
    rows = []
    passed = True
    for xv in fidi_section["x_vectors"]:
        xv = [float(v) for v in xv]
        rate = multi_time_rate(spec, xv)
        row = {"x": xv, "rate": rate}
        if len(times) == 1:
            closed = poisson_rate(xv[0], rho, kappa2, times[0])
            row["rate_closed"] = closed
            row["ok"] = bool(math.isfinite(rate) and abs(rate - closed) <= FIDI_CONSISTENCY_TOL)
            passed = passed and row["ok"]
        rows.append(row)
    intensities = {
        "patterns": [list(p) for p in spec.patterns],
        "alpha": [float(a) for a in spec.alpha_rates],
        "beta": [float(b) for b in spec.beta_rates],
    }
    if len(times) == 1:
        expected = rho * math.sqrt(kappa2 * times[0] / (2.0 * math.pi))
        sym_ok = bool(abs(spec.alpha_rates[0] - expected) <= FIDI_SYMMETRY_TOL
                      and abs(spec.beta_rates[0] - expected) <= FIDI_SYMMETRY_TOL)
        intensities["expected_k1"] = expected
        intensities["ok"] = sym_ok
        passed = passed and sym_ok
    report = {"kind": "fidi", "schema_version": 1, "times": times, "rho": rho,
              "kappa2": kappa2, "rows": rows, "intensities": intensities,
              "passed": passed}
    return report, passed


def limit_tables_experiment(limit_section: dict, occupancy=None, kernel=None):
    """Covariance golden tables, with the quadrature identity spot-checked."""
    section = limit_section or {}
    rho0 = section.get("rho0", occupancy.rho0 if occupancy else LIMIT_DEFAULTS["rho0"])
    v0 = section.get("v0", occupancy.v0 if occupancy else LIMIT_DEFAULTS["v0"])
    kappa2 = section.get("kappa2", kernel.kappa2 if kernel else LIMIT_DEFAULTS["kappa2"])
    params = LimitCovariance(rho0=float(rho0), v0=float(v0), kappa2=float(kappa2))
    if "pairs" in section:
        pairs = [((float(s), float(q)), (float(t), float(r)))
                 for s, q, t, r in section["pairs"]]
    else:
        rng = np.random.default_rng(int(section.get("seed", LIMIT_DEFAULTS["seed"])))
        count = int(section.get("count", LIMIT_DEFAULTS["count"]))
        pairs = []
        for _ in range(count):
            s, t = rng.uniform(0.05, 3.0, size=2)
            q, r = rng.uniform(-2.0, 2.0, size=2)
            pairs.append(((float(s), float(q)), (float(t), float(r))))
    rows = covariance_table(params, pairs)
    ncheck = int(section.get("identity_checks", LIMIT_DEFAULTS["identity_checks"]))
    s, q, t, r = np.asarray(pairs[:ncheck], float).reshape(-1, 4).T
    errors = [np.abs(closed(s, q, t, r, params.kappa2) - integral(s, q, t, r, params.kappa2))
              for closed, integral in ((dynamic_cov, dynamic_cov_quadrature),
                                       (initial_cov, initial_cov_quadrature))]
    worst = float(np.max(errors, initial=0.0))
    passed = worst <= IDENTITY_TOL
    report = {"kind": "limit_tables", "schema_version": 1,
              "rho0": params.rho0, "v0": params.v0, "kappa2": params.kappa2,
              "rows": rows, "identity_max_err": worst, "passed": passed}
    return report, passed


def simulate_experiment(config: ExperimentConfig, workers: int = 1,
                        telemetry: Optional[dict] = None, dump: bool = False):
    """Plain ensemble run: summary moments per grid point.  With `dump` the
    report's "replica_rows" streams the per-replica rows, drawn from the
    summary's class table."""
    batches, _, table = run_ensemble_batches(config, workers=workers, telemetry=telemetry)
    total = merge_accumulators(batches)
    cov = total.cov()
    rows = []
    for k, (t, r) in enumerate(config.grid_points()):
        rows.append({"t": t, "r": r, "count": total.count,
                     "mean": float(total.mean[k]),
                     "variance": float(cov[k, k]),
                     "min": float(total.low[k]), "max": float(total.high[k])})
    report = {"kind": "simulate", "schema_version": 1,
              "replicas": config.replicas, "rows": rows, "passed": True}
    if dump:
        report["replica_rows"] = replica_dump_rows(config, table)
    return report, True


def replica_dump_rows(config: ExperimentConfig, table: Optional[ClassTable]):
    """Per-replica CSV rows (replica, t, r, Y, Y_scaled); streams in order."""
    from .simulate import run_ensemble
    points = config.grid_points()
    for i, fieldval in enumerate(run_ensemble(config, table)):
        flat = fieldval.values.ravel()
        scaled = fieldval.scaled.ravel()
        for k, (t, r) in enumerate(points):
            yield {"replica": i, "t": t, "r": r,
                   "Y": int(flat[k]), "Y_scaled": float(scaled[k])}


# --------------------------------------------------------------------------
# artifacts
# --------------------------------------------------------------------------

SCHEMA_CSV = 1


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return value


def write_csv(path: str, kind: str, rows) -> int:
    """RFC-4180 CSV with a schema comment line, whose columns are the first
    row's keys in order; returns the row count."""
    count = 0
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(f"# schema=walkcurrent.{kind}.v{SCHEMA_CSV}\n")
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        for row in rows:
            if not count:
                colnames = list(row)
                writer.writerow(colnames)
            writer.writerow([_fmt(row[c]) for c in colnames])
            count += 1
    os.replace(tmp, path)
    return count


def write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)  # no NaN or inf
    with open(tmp, "w") as fh:
        fh.write(text + "\n")
    os.replace(tmp, path)


def write_manifest(out_dir: str, command: str, config_hash: str, seed: int,
                   outputs, started: str, status: str,
                   overrides: Optional[dict] = None,
                   telemetry: Optional[dict] = None,
                   error: Optional[str] = None) -> str:
    manifest = {
        "schema_version": 1,
        "command": command,
        "config_hash": config_hash,
        "artifact_version": __version__,
        "seed": seed,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "status": status,
        "outputs": [{"path": p, "kind": k, "row_count": n} for p, k, n in outputs],
        "overrides": overrides or {},
        "telemetry": telemetry or {},
    }
    if error is not None:
        manifest["error"] = error
    path = os.path.join(out_dir, "manifest.json")
    write_json(path, manifest)
    return path
