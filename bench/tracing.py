"""Outside-in tracing of walkcurrent: spans around the public functions of
each module, installed from the benchmark's own files.

A function is wrapped once and the wrapper replaces the original in every
walkcurrent module namespace that holds it, because `runner`, `ldp`, `cli`
and others import names directly (`runner.truncation_radius` is the same
object as `simulate.truncation_radius`).  Two methods are patched on their
class.  Spans stay in memory and are written when the run ends; a span is
a name, a start, an end and the index of its parent span, and every file
is tagged with the run id.  Self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

# (module, attribute, span name).  A dotted attribute names a method that
# is patched on its class.
SPANS = (
    ("simulate", "simulate_replica", "simulate.simulate_replica"),
    ("simulate", "replica_rng", "simulate.replica_rng"),
    ("simulate", "signed_crossing_count", "simulate.signed_crossing_count"),
    ("simulate", "truncation_radius", "simulate.truncation_radius"),
    ("simulate", "exact_current_pmf", "simulate.exact_current_pmf"),
    ("occupancy", "OccupancyModel.sample_counts", "occupancy.sample_counts"),
    ("kernel", "sample_displacement", "kernel.sample_displacement"),
    ("kernel", "walk_pmf", "kernel.walk_pmf"),
    ("stats", "EnsembleAccumulator.add", "stats.EnsembleAccumulator.add"),
    ("stats", "merge_accumulators", "stats.merge_accumulators"),
    ("stats", "covariance_report", "stats.covariance_report"),
    ("stats", "mean_report", "stats.mean_report"),
    ("stats", "normality_diagnostics", "stats.normality_diagnostics"),
    ("runner", "run_ensemble_batches", "runner.run_ensemble_batches"),
    ("runner", "rate_table_experiment", "runner.rate_table_experiment"),
    # write_manifest goes through write_json, so these two cover every write
    ("runner", "write_csv", "runner.write"),
    ("runner", "write_json", "runner.write"),
    ("config", "load_config", "config.load_config"),
    ("gaussian", "dynamic_cov_quadrature", "gaussian.dynamic_cov_quadrature"),
    ("gaussian", "initial_cov_quadrature", "gaussian.initial_cov_quadrature"),
    ("gaussian", "covariance_table", "gaussian.covariance_table"),
    ("gaussian", "limit_cov_matrix", "gaussian.limit_cov_matrix"),
    ("ldp", "tilt_for_mean", "ldp.tilt_for_mean"),
    ("ldp", "current_log_mgf_prime", "ldp.current_log_mgf_prime"),
    ("ldp", "current_log_mgf", "ldp.current_log_mgf"),
    ("ldp", "rate_decomposed", "ldp.rate_decomposed"),
    ("ldp", "rate_legendre", "ldp.rate_legendre"),
    ("ldp", "RateModel.__post_init__", "ldp.RateModel"),
    ("ldp", "build_multi_time_spec", "ldp.build_multi_time_spec"),
    ("ldp", "multi_time_rate", "ldp.multi_time_rate"),
    ("ldp", "tilted_tail_estimate", "ldp.tilted_tail_estimate"),
    ("normal", "mvn_cdf_3", "normal.mvn_cdf_3"),
)

# Called inside quadrature integrands up to ~1e5 times per command: counted
# without a span, which keeps the tracing overhead down.
COUNTED = (
    ("ldp", "crossing_log_mgf", "ldp.crossing_log_mgf"),
    ("normal", "bvn_cdf", "normal.bvn_cdf"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))


def _package_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "walkcurrent" or key.startswith("walkcurrent."))]


def smallest_certified_width(config, width: int, window_bound) -> int:
    """Bisect for the smallest width whose window_bound meets window_tol.

    `width` is the doubling search's answer, so width // 2 failed (or width
    is the search's first step and nothing below it was tried).
    """
    lo, hi = (width // 2, width) if width > 16 else (-1, width)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if window_bound(config, mid) <= config.window_tol:
            hi = mid
        else:
            lo = mid
    return hi


class Tracer:
    """Spans and counters for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list = []  # (name id, start, end, parent index)
        self.counts: dict[str, float] = {}
        self.windows: dict[tuple, tuple] = {}  # config key -> (config, width)
        self._stack = [-1]
        self._patched: list = []  # (owner, attribute, original)

    # ----------------------------------------------------------- wrappers
    def _span(self, name: str, fn, after=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -------------------------------------------------- counters at a span
    def _after_sample_counts(self, args, kwargs, result):
        self._add("occupancy.particles", int(result.sum()))

    def _after_displacement(self, args, kwargs, result):
        size = kwargs.get("size", args[3] if len(args) > 3 else None)
        self._add("kernel.displacement_draws", 1 if size is None else int(size))

    def _after_write(self, args, kwargs, result):
        self._add("runner.write.bytes", os.path.getsize(args[0]))

    def _after_truncation(self, args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        key = (config.n, config.T, config.S, config.t_grid, config.r_grid,
               config.window_tol, config.occupancy.rho0, config.kernel.kappa2)
        self.windows.setdefault(key, (config, int(result)))

    def _after_tilted(self, args, kwargs, result):
        self._add("ldp.tilted.ess", result.ess)
        self._add("ldp.tilted.samples", result.samples)

    def _after(self, name: str):
        return {
            "occupancy.sample_counts": self._after_sample_counts,
            "kernel.sample_displacement": self._after_displacement,
            "runner.write": self._after_write,
            "simulate.truncation_radius": self._after_truncation,
            "ldp.tilted_tail_estimate": self._after_tilted,
        }.get(name)

    # ------------------------------------------------------ install/remove
    def install(self) -> None:
        replace = {}  # id(original) -> (original, wrapper)
        for (module, attr, name), counted in ([(t, False) for t in SPANS]
                                              + [(t, True) for t in COUNTED]):
            owner = sys.modules[f"walkcurrent.{module}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = (self._counted(name, original) if counted
                       else self._span(name, original, self._after(name)))
            if isinstance(owner, type):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                replace[id(original)] = (original, wrapper)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --------------------------------------------------------------- output
    def window_records(self) -> list[tuple[int, int, int]]:
        """(width, sites, sites at the smallest certified width) per config."""
        from walkcurrent.simulate import _window_sites, window_bound
        out = []
        for config, width in self.windows.values():
            best = smallest_certified_width(config, width, window_bound)
            out.append((width, _window_sites(config, width), _window_sites(config, best)))
        return out

    def dump(self, path: str, extra: dict | None = None) -> None:
        arr = np.asarray(self.spans, dtype=float).reshape(-1, 4)
        meta = {"run_id": self.run_id, "names": self.names,
                "counts": self.counts, "windows": self.window_records()}
        meta.update(extra or {})
        np.savez(path, name_id=arr[:, 0].astype(np.int32), start=arr[:, 1],
                 end=arr[:, 2], parent=arr[:, 3].astype(np.int64),
                 meta=np.array(json.dumps(meta)))


# --------------------------------------------------------------------------
# per-layer metrics from a span file
# --------------------------------------------------------------------------

def load_spans(path: str) -> dict:
    with np.load(path) as data:
        out = {key: data[key] for key in ("name_id", "start", "end", "parent")}
        out["meta"] = json.loads(str(data["meta"]))
    return out


def span_totals(spans: dict) -> dict[str, tuple[float, float, int]]:
    """(total seconds, self seconds, calls) per span name."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    out = {}
    for nid, name in enumerate(spans["meta"]["names"]):
        mask = spans["name_id"] == nid
        out[name] = (float(dur[mask].sum()), float(self_time[mask].sum()),
                     int(mask.sum()))
    return out


def calls_under(spans: dict, name: str, ancestor: str) -> int:
    """Calls of `name` made, at any depth, inside a call of `ancestor`."""
    names = spans["meta"]["names"]
    if name not in names or ancestor not in names:
        return 0
    nid, aid = names.index(name), names.index(ancestor)
    under = np.zeros(spans["name_id"].size, bool)
    for i, (k, parent) in enumerate(zip(spans["name_id"], spans["parent"])):
        # a parent span always opens, so is stored, before its children
        under[i] = k == aid or (parent >= 0 and under[parent])
    return int(np.count_nonzero(under & (spans["name_id"] == nid)))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: dict, items: dict) -> dict[str, float]:
    """Every per-layer metric of one traced process, by name.

    `items` holds the workload's replica and rate-point counts.  A layer
    the workload does not run reads 0.
    """
    totals = span_totals(spans)
    meta = spans["meta"]
    counts = meta["counts"]
    out = {}
    for name in SPAN_NAMES:
        total, self_s, calls = totals.get(name, (0.0, 0.0, 0))
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = self_s
        out[f"{name}.calls"] = calls
    replica_s = out["simulate.simulate_replica.s"]
    particles = counts.get("occupancy.particles", 0)
    windows = meta["windows"]
    out.update({
        "import.s": meta["import_s"],
        "simulate.us_per_replica": 1e6 * _ratio(replica_s, items["replicas"]),
        "simulate.particles_per_s": _ratio(particles, replica_s),
        "simulate.window.width": sum(w for w, _, _ in windows),
        "simulate.window.sites": sum(s for _, s, _ in windows),
        "simulate.window.sites_ratio": _ratio(sum(s for _, s, _ in windows),
                                              sum(b for _, _, b in windows)),
        "occupancy.particles": particles,
        "kernel.displacement_draws": counts.get("kernel.displacement_draws", 0),
        "runner.write.bytes": counts.get("runner.write.bytes", 0),
        "ldp.tilt_solves": out["ldp.tilt_for_mean.calls"],
        "ldp.tilt_solves_per_point": _ratio(
            calls_under(spans, "ldp.tilt_for_mean", "runner.rate_table_experiment"),
            items["rate_points"]),
        "ldp.integrand_evals": counts.get("ldp.crossing_log_mgf", 0),
        "ldp.tilted.ess_frac": _ratio(counts.get("ldp.tilted.ess", 0.0),
                                      counts.get("ldp.tilted.samples", 0)),
        "normal.bvn_cdf.calls": counts.get("normal.bvn_cdf", 0),
    })
    return out


def metric_units() -> dict[str, tuple[str, str]]:
    """(unit, better) for every per-layer metric, `trace.overhead_frac` too."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.s"] = ("s", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
        units[f"{name}.calls"] = ("count", "lower")
    units.update({
        "import.s": ("s", "lower"),
        "simulate.us_per_replica": ("us", "lower"),
        "simulate.particles_per_s": ("1/s", "higher"),
        "simulate.window.width": ("sites", "lower"),
        "simulate.window.sites": ("sites", "lower"),
        "simulate.window.sites_ratio": ("ratio", "lower"),
        "occupancy.particles": ("count", "lower"),
        "kernel.displacement_draws": ("count", "lower"),
        "runner.write.bytes": ("bytes", "lower"),
        "ldp.tilt_solves": ("count", "lower"),
        "ldp.tilt_solves_per_point": ("ratio", "lower"),
        "ldp.integrand_evals": ("count", "lower"),
        "ldp.tilted.ess_frac": ("ratio", "higher"),
        "normal.bvn_cdf.calls": ("count", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
    })
    return units
