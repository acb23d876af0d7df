"""Experiment drivers: parallel replica fan-out, reports, artifacts, manifest.

Replicas are split into a fixed number of contiguous batches (the jackknife
unit).  A batch is always processed sequentially in replica order, so the
worker count changes scheduling only, never any arithmetic order; reports
are byte-identical for a fixed seed no matter how many workers run.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .config import DEFAULTS
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
    CellTable,
    ExperimentConfig,
    cell_table,
    exact_current_pmf,
    replica_field,
    truncation_radius,
    window_bound,
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

N_BATCHES = 50
RETAIN_CAP = 100_000


def limit_params(config: ExperimentConfig) -> LimitCovariance:
    """Limit-field parameters implied by a microscopic configuration."""
    return LimitCovariance(rho0=config.occupancy.rho0, v0=config.occupancy.v0,
                           kappa2=config.kernel.kappa2)


# --------------------------------------------------------------------------
# batched ensemble execution
# --------------------------------------------------------------------------

def split_batches(replicas: int, nbatches: int) -> list[range]:
    nbatches = min(nbatches, replicas)
    base, extra = divmod(replicas, nbatches)
    out = []
    start = 0
    for i in range(nbatches):
        size = base + (1 if i < extra else 0)
        out.append(range(start, start + size))
        start += size
    return out


def ensemble_telemetry(config: ExperimentConfig, window: int,
                       table: Optional[CellTable]) -> dict:
    """Engine, class count and certified window of one ensemble run."""
    lo, hi = window_span(config, window)
    return {
        "engine": "particles" if table is None else "cells",
        "classes": None if table is None else int(table.means.size),
        "window": {"width": int(window), "sites": hi - lo + 1,
                   "bound": window_bound(config, window)},
    }


def _batch_job(args):
    config, window, table, batch, retain_idx, cap = args
    npts = len(config.grid_points())
    acc = EnsembleAccumulator.empty(npts)
    kept = [[] for _ in retain_idx]
    for i in batch:
        fieldval = replica_field(config, i, window, table)
        flat = fieldval.scaled.ravel()
        acc.add(flat)
        for slot, idx in enumerate(retain_idx):
            if len(kept[slot]) < cap:
                kept[slot].append(flat[idx])
    return acc, [np.asarray(k) for k in kept]


def run_ensemble_batches(config: ExperimentConfig, workers: int = 1,
                         nbatches: int = N_BATCHES,
                         retain_points: Sequence[Tuple[float, float]] = (),
                         retain_cap: int = RETAIN_CAP,
                         telemetry: Optional[dict] = None):
    """Run all replicas, returning per-batch accumulators and retained samples.

    Poisson occupancy runs on the cell engine, whose table is built once
    here and shipped with every batch; other occupancy laws run on the
    particle engine.  `telemetry`, when given, receives the engine, class
    count and window of the run.
    """
    window = truncation_radius(config)
    table = cell_table(config, window)
    if telemetry is not None:
        telemetry.update(ensemble_telemetry(config, window, table))
    points = config.grid_points()
    retain_idx = [points.index((float(t), float(r))) for t, r in retain_points]
    payloads = [(config, window, table, batch, retain_idx, retain_cap)
                for batch in split_batches(config.replicas, nbatches)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_batch_job, payloads))
    else:
        results = [_batch_job(p) for p in payloads]
    batches = [acc for acc, _ in results]
    retained = {}
    for slot, pt in enumerate(retain_points):
        arr = np.concatenate([kept[slot] for _, kept in results]) if results else np.array([])
        retained[(float(pt[0]), float(pt[1]))] = arr[:retain_cap]
    return batches, retained


# --------------------------------------------------------------------------
# experiments
# --------------------------------------------------------------------------

def covariance_experiment(config: ExperimentConfig, workers: int = 1,
                          bands: Optional[dict] = None,
                          check_points: Optional[Sequence[Tuple[float, float]]] = None,
                          retain_points: Sequence[Tuple[float, float]] = (),
                          nbatches: int = N_BATCHES,
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
    batches, retained = run_ensemble_batches(config, workers=workers,
                                             nbatches=nbatches,
                                             retain_points=retain_points,
                                             telemetry=telemetry)
    cov_rep = covariance_report(batches, params, points)
    mean_rep = mean_report(batches, points)
    checked = set((float(t), float(r)) for t, r in (check_points or points))

    rows = []
    cov_ok = True
    for row in cov_rep.rows:
        in_check = row.point_a in checked and row.point_b in checked
        band = max(z_band * row.std_error, rel_band * abs(row.analytic))
        ok = abs(row.empirical - row.analytic) <= band
        if in_check and not ok:
            cov_ok = False
        rows.append({
            "t_a": row.point_a[0], "r_a": row.point_a[1],
            "t_b": row.point_b[0], "r_b": row.point_b[1],
            "empirical": row.empirical, "analytic": row.analytic,
            "std_error": row.std_error, "z_score": row.z_score,
            "band": band, "checked": in_check, "ok": ok,
        })
    mean_rows = []
    mean_ok = True
    for row in mean_rep.rows:
        ok = row.ratio <= mean_band
        if row.point in checked and not ok:
            mean_ok = False
        mean_rows.append({"t": row.point[0], "r": row.point[1],
                          "mean": row.mean, "std_error": row.std_error,
                          "ratio": row.ratio, "ok": ok})

    normality = {}
    norm_ok = True
    if retained:
        lattice = config.n ** -0.25
        for pt, samples in retained.items():
            params_var = float(limit_cov_matrix(params, [pt])[0, 0])
            diag = normality_diagnostics(
                samples, params_var, lattice=lattice,
                rng=np.random.default_rng(config.master_seed + 1))
            ok = (abs(diag.skewness) <= bands["skew_band"]
                  and abs(diag.excess_kurtosis) <= bands["kurt_band"]
                  and diag.ks_p > bands["ks_p_min"])
            norm_ok = norm_ok and ok
            normality[f"{pt[0]:g},{pt[1]:g}"] = {
                "skewness": diag.skewness, "excess_kurtosis": diag.excess_kurtosis,
                "ks_p": diag.ks_p, "ok": ok,
            }

    passed = cov_ok and mean_ok and norm_ok
    report = {
        "kind": "cov_check", "schema_version": 1,
        "replicas": config.replicas,
        "max_abs_z": cov_rep.max_abs_z,
        "frac_within_3": cov_rep.frac_within_3,
        "max_mean_ratio": mean_rep.max_ratio,
        "covariance": rows, "means": mean_rows, "normality": normality,
        "passed": passed,
    }
    return report, passed


def fbm_experiment(config: ExperimentConfig, workers: int = 1,
                   bands: Optional[dict] = None, nbatches: int = N_BATCHES,
                   telemetry: Optional[dict] = None):
    """Variance-growth exponent across times at r = 0 vs the analytic 1/2."""
    bands = {**DEFAULTS["bands"], **(bands or {})}
    lo = bands["slope_lo"]
    hi = bands["slope_hi"]
    if 0.0 not in config.r_grid:
        raise ValueError("fbm experiment needs r = 0 in the grid")
    params = limit_params(config)
    points = config.grid_points()
    batches, _ = run_ensemble_batches(config, workers=workers, nbatches=nbatches,
                                      telemetry=telemetry)
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
                              quad_tol: float = DEFAULTS["quad_tol"]):
    """Tilted tail estimates across n, with the exact-pmf oracle when cheap.

    The limiting tilt depends on the model and x only, so one solve serves
    the analytic rate and every n.
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
    oracle_ok = True
    for n in n_values:
        cfg_n = ExperimentConfig(
            n=n, T=config.T, S=config.S, t_grid=config.t_grid,
            r_grid=config.r_grid, kernel=config.kernel,
            occupancy=config.occupancy, master_seed=config.master_seed,
            replicas=config.replicas, window_tol=config.window_tol)
        est = tilted_tail_estimate(cfg_n, t, r, x, samples, alpha=alpha)
        row = {"n": n, "x": x, "p_hat": est.p_hat, "se": est.p_hat * est.relative_se,
               "relative_se": est.relative_se, "empirical_rate": est.empirical_rate,
               "analytic_rate": analytic, "ess": est.ess, "threshold": est.threshold}
        if n <= 400:
            exact = exact_current_pmf(cfg_n, t, r).tail_geq(est.threshold)
            row["p_exact"] = exact
            row["oracle_ok"] = abs(est.p_hat - exact) <= 3.0 * row["se"]
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


def fidi_experiment(fidi_section: dict, consistency_tol: float = 1e-6,
                    rate_symmetry_tol: float = 1e-9):
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
            row["ok"] = bool(math.isfinite(rate) and abs(rate - closed) <= consistency_tol)
            passed = passed and row["ok"]
        rows.append(row)
    intensities = {
        "patterns": [list(p) for p in spec.patterns],
        "alpha": [float(a) for a in spec.alpha_rates],
        "beta": [float(b) for b in spec.beta_rates],
    }
    if len(times) == 1:
        expected = rho * math.sqrt(kappa2 * times[0] / (2.0 * math.pi))
        sym_ok = bool(abs(spec.alpha_rates[0] - expected) <= rate_symmetry_tol
                      and abs(spec.beta_rates[0] - expected) <= rate_symmetry_tol)
        intensities["expected_k1"] = expected
        intensities["ok"] = sym_ok
        passed = passed and sym_ok
    report = {"kind": "fidi", "schema_version": 1, "times": times, "rho": rho,
              "kappa2": kappa2, "rows": rows, "intensities": intensities,
              "passed": passed}
    return report, passed


def limit_tables_experiment(limit_section: dict, occupancy=None, kernel=None,
                            identity_tol: float = 1e-8):
    """Covariance golden tables, with the quadrature identity spot-checked."""
    section = limit_section or {}
    rho0 = section.get("rho0", occupancy.rho0 if occupancy else 1.0)
    v0 = section.get("v0", occupancy.v0 if occupancy else 1.0)
    kappa2 = section.get("kappa2", kernel.kappa2 if kernel else 1.0)
    params = LimitCovariance(rho0=float(rho0), v0=float(v0), kappa2=float(kappa2))
    if "pairs" in section:
        pairs = [((float(s), float(q)), (float(t), float(r)))
                 for s, q, t, r in section["pairs"]]
    else:
        rng = np.random.default_rng(int(section.get("seed", 7)))
        count = int(section.get("count", 12))
        pairs = []
        for _ in range(count):
            s, t = rng.uniform(0.05, 3.0, size=2)
            q, r = rng.uniform(-2.0, 2.0, size=2)
            pairs.append(((float(s), float(q)), (float(t), float(r))))
    rows = covariance_table(params, pairs)
    worst = 0.0
    ncheck = int(section.get("identity_checks", min(6, len(pairs))))
    for (s, q), (t, r) in pairs[:ncheck]:
        worst = max(worst,
                    abs(dynamic_cov(s, q, t, r, params.kappa2)
                        - dynamic_cov_quadrature(s, q, t, r, params.kappa2)),
                    abs(initial_cov(s, q, t, r, params.kappa2)
                        - initial_cov_quadrature(s, q, t, r, params.kappa2)))
    passed = worst <= identity_tol
    report = {"kind": "limit_tables", "schema_version": 1,
              "rho0": params.rho0, "v0": params.v0, "kappa2": params.kappa2,
              "rows": rows, "identity_max_err": worst, "passed": passed}
    return report, passed


def simulate_experiment(config: ExperimentConfig, workers: int = 1,
                        nbatches: int = N_BATCHES, telemetry: Optional[dict] = None):
    """Plain ensemble run: summary moments per grid point."""
    batches, _ = run_ensemble_batches(config, workers=workers, nbatches=nbatches,
                                      telemetry=telemetry)
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
    return report, True


def replica_dump_rows(config: ExperimentConfig, window: Optional[int] = None):
    """Per-replica CSV rows (replica, t, r, Y, Y_scaled); streams in order."""
    from .simulate import run_ensemble
    points = config.grid_points()
    for i, fieldval in enumerate(run_ensemble(config, window=window)):
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


def write_csv(path: str, kind: str, colnames: Sequence[str], rows) -> int:
    """RFC-4180 CSV with a schema comment line; returns the row count."""
    count = 0
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(f"# schema=walkcurrent.{kind}.v{SCHEMA_CSV}\n")
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(colnames)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in colnames])
            count += 1
    os.replace(tmp, path)
    return count


def write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
