"""Experiment configuration: JSON schema, validation, canonical hashing.

One JSON file describes one experiment.  Keys are validated eagerly so that
a bad config fails with a message naming the offending key, before any
compute starts.  The canonical hash covers the resolved config (defaults
filled, CLI overrides applied) and deliberately excludes runtime-only knobs
such as worker count and output directory.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigParseError, ConfigValidationError
from .kernel import JumpKernel, validate_kernel
from .ldp import RateModel, check_multi_time_inputs, is_finite_number, tilts_exactly
from .occupancy import OccupancyModel
from .simulate import ExperimentConfig
from .stats import (MIN_COV_REPLICAS, MIN_NORMALITY_SAMPLES, MIN_REPORT_REPLICAS,
                    MIN_SCALING_TIMES)

SCHEMA_VERSION = 1

DEFAULTS = {
    "window_tol": ExperimentConfig.window_tol,
    "quad_tol": RateModel.quad_tol,
    "master_seed": 0,
    "bands": {
        "cov_z": 4.0,
        "cov_rel": 0.10,
        "mean_ratio": 3.0,
        "slope_lo": 0.45,
        "slope_hi": 0.55,
        "duality_tol": 1e-6,
        "skew_band": 0.1,
        "kurt_band": 0.2,
        "ks_p_min": 0.01,
    },
}

# limit-tables without these keys draws count pairs from seed, checks the first
# identity_checks of them, and takes rho0, v0, kappa2 if no occupancy or kernel
LIMIT_DEFAULTS = {"count": 12, "seed": 7, "identity_checks": 6,
                  "rho0": 1.0, "v0": 1.0, "kappa2": 1.0}

RUNTIME_KEYS = ("workers", "out", "format")

# Commands whose checks divide by the mean occupancy or solve within its
# range; simulate runs an empty system as well.
POSITIVE_MEAN_COMMANDS = ("cov-check", "fbm-check", "rate-table", "rate-empirical")
# Commands whose limit laws scale with the kernel's kappa2, which is 0 for a
# kernel that never moves; simulate runs such a kernel as well.
MOVING_KERNEL_COMMANDS = ("cov-check", "fbm-check", "limit-tables", "rate-empirical")

SIM_KEYS = ("n", "T", "S", "t_grid", "r_grid", "kernel", "occupancy", "replicas")

# Every key a config may hold, per level.  Anything else is a typo that
# would otherwise run silently and change the hash.
TOP_KEYS = SIM_KEYS + ("master_seed", "window_tol", "quad_tol", "bands",
                       "retain_points", "ldp", "fidi", "limit")
SECTION_KEYS = {
    "bands": tuple(DEFAULTS["bands"]),
    "ldp": ("kappa2", "t", "x_grid", "r", "x", "samples", "n_values"),
    "fidi": ("times", "rho", "kappa2", "x_vectors"),
    "limit": ("seed", "count", "identity_checks", "pairs", "rho0", "v0", "kappa2"),
}
OCCUPANCY_KEYS = {"poisson": ("rho",), "deterministic": ("count",),
                  "geometric": ("rho",), "custom": ("pmf",)}

# Bands that are tolerances or thresholds and so must not be negative;
# ks_p_min is a probability, and slope_lo <= slope_hi.
NONNEGATIVE_BANDS = ("cov_z", "cov_rel", "mean_ratio", "skew_band", "kurt_band",
                     "duality_tol")

# Keys whose values must be integers (n_values: a list of them).
INTEGER_KEYS = {None: ("n", "replicas", "master_seed"),
                "ldp": ("samples", "n_values"),
                "limit": ("seed", "count", "identity_checks")}


def _check_known(obj: dict, allowed, where: str) -> None:
    unknown = sorted(k for k in obj if k not in allowed)
    if unknown:
        raise ConfigValidationError(
            f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")


def _check_integer(value, key: str, many: bool = False) -> None:
    """Reject a value that is not integral ("n": 100.9 must not run as 100),
    or, if `many`, that is not a list of integral values."""
    if (many and not isinstance(value, list)) or any(
            isinstance(v, bool) or not isinstance(v, (int, float))
            or (isinstance(v, float) and not v.is_integer())
            for v in (value if many else [value])):
        raise ConfigValidationError(
            f"{key}: expected {'a list of integers' if many else 'an integer'}, "
            f"got {value!r}")


def _check_number(value, key: str, many: bool = False) -> None:
    """Reject a bool or a string where a number (a list of them if `many`)
    belongs: "S": "0.25" and "T": true must not run as 0.25 and 1.0.
    Finiteness and range are left to the checks of the key's reader."""
    if (many and not isinstance(value, list)) or any(
            isinstance(v, bool) or not isinstance(v, numbers.Real)
            for v in (value if many else [value])):
        raise ConfigValidationError(
            f"{key}: expected {'a list of numbers' if many else 'a number'}, got {value!r}")


def _check_bands(bands: dict) -> None:
    """A bad band must fail here, not after the ensemble it judges."""
    for key, value in bands.items():
        if not is_finite_number(value):
            raise ConfigValidationError(
                f"bands.{key}: expected a finite number, got {value!r}")
    for key in NONNEGATIVE_BANDS:
        if bands[key] < 0.0:
            raise ConfigValidationError(
                f"bands.{key}: expected a nonnegative number, got {bands[key]!r}")
    if not 0.0 <= bands["ks_p_min"] <= 1.0:
        raise ConfigValidationError(
            f"bands.ks_p_min: expected a probability in [0, 1], got {bands['ks_p_min']!r}")
    if bands["slope_lo"] > bands["slope_hi"]:
        raise ConfigValidationError(
            f"bands.slope_lo: expected at most bands.slope_hi = {bands['slope_hi']!r}, "
            f"got {bands['slope_lo']!r}")


def _validate_keys(resolved: dict) -> None:
    """Reject unknown keys at every level and non-integral integer keys."""
    _check_known(resolved, TOP_KEYS, "config")
    for section, allowed in SECTION_KEYS.items():
        if section in resolved:
            if not isinstance(resolved[section], dict):
                raise ConfigValidationError(f"{section}: expected an object")
            _check_known(resolved[section], allowed, section)
    for section, keys in INTEGER_KEYS.items():
        obj = resolved if section is None else resolved.get(section, {})
        for key in keys:
            if key in obj:
                _check_integer(obj[key], key if section is None else f"{section}.{key}",
                               many=key == "n_values")


def build_kernel(pairs) -> JumpKernel:
    from .errors import WalkCurrentError

    try:
        offsets = [off for off, _ in pairs]
        weights = [w for _, w in pairs]
    except (TypeError, ValueError) as exc:
        raise ConfigValidationError(f"kernel: expected [[offset, weight], ...]: {exc}")
    _check_integer(offsets, "kernel", many=True)  # an offset of 1.5 must not run as 1
    _check_number(weights, "kernel", many=True)
    offsets = [int(off) for off in offsets]
    repeated = [off for off in offsets if offsets.count(off) > 1]
    if repeated:
        # a mapping would keep only the last weight of a repeated offset
        raise ConfigValidationError(f"kernel: offset {repeated[0]} appears more than once")
    try:
        return validate_kernel(dict(zip(offsets, map(float, weights))))
    except WalkCurrentError as exc:
        raise ConfigValidationError(f"kernel: {exc}")


def build_occupancy(obj) -> OccupancyModel:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ConfigValidationError("occupancy: expected {'type': ..., ...}")
    kind = obj["type"]
    if not isinstance(kind, str):
        raise ConfigValidationError(f"occupancy.type: expected a string, got {kind!r}")
    if kind in OCCUPANCY_KEYS:
        _check_known(obj, ("type",) + OCCUPANCY_KEYS[kind], f"occupancy '{kind}'")
    if "count" in obj:
        _check_integer(obj["count"], "occupancy.count")
    try:
        if kind in ("poisson", "geometric"):
            _check_number(obj["rho"], "occupancy.rho")
        if kind == "poisson":
            return OccupancyModel.poisson(float(obj["rho"]))
        if kind == "deterministic":
            return OccupancyModel.deterministic(int(obj["count"]))
        if kind == "geometric":
            return OccupancyModel.geometric(float(obj["rho"]))
        if kind == "custom":
            pmf = obj["pmf"]
            _check_integer([v for v, _ in pmf], "occupancy.pmf", many=True)
            _check_number([p for _, p in pmf], "occupancy.pmf", many=True)
            return OccupancyModel.custom([(v, float(p)) for v, p in pmf])
    except KeyError as exc:
        raise ConfigValidationError(f"occupancy '{kind}' is missing field {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigValidationError(f"occupancy: {exc}")
    raise ConfigValidationError(f"occupancy type {kind!r} is not one of "
                                "poisson/deterministic/geometric/custom")


def _integral_as_int(value):
    """value with every integral float, however deep, written as an int."""
    if isinstance(value, dict):
        return {k: _integral_as_int(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_integral_as_int(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def canonical_hash(resolved: dict) -> str:
    """Stable hex digest of the config, independent of key order and of
    whether an integral number is written as an int or a float."""
    clean = {k: _integral_as_int(v) for k, v in resolved.items() if k not in RUNTIME_KEYS}
    blob = json.dumps(clean, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class RunSpec:
    """A fully resolved experiment description."""

    raw: dict
    config_hash: str
    bands: dict
    experiment: Optional[ExperimentConfig] = None
    occupancy: Optional[OccupancyModel] = None
    kernel: Optional[JumpKernel] = None
    ldp: Optional[dict] = None
    fidi: Optional[dict] = None
    limit: Optional[dict] = None
    retain_points: tuple = ()


def _require(raw: dict, keys, command: str):
    missing = [k for k in keys if k not in raw]
    if missing:
        raise ConfigValidationError(
            f"command '{command}' needs config keys: {', '.join(missing)}")


def load_config(path: str, overrides: Optional[dict] = None,
                command: str = "simulate") -> RunSpec:
    """Parse, default-fill, override, validate, and hash a config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigParseError(
            f"config {path} is not valid JSON (line {exc.lineno}, col {exc.colno}): "
            f"{exc.msg}")
    if not isinstance(raw, dict):
        raise ConfigValidationError("config root must be a JSON object")

    resolved = dict(raw)
    if overrides:
        for k, v in overrides.items():
            if v is not None:
                resolved[k] = v
    _validate_keys(resolved)
    for key, val in DEFAULTS.items():
        if key == "bands":
            bands = dict(DEFAULTS["bands"])
            bands.update(resolved.get("bands", {}))
            resolved["bands"] = bands
        else:
            resolved.setdefault(key, val)

    quad_tol = resolved["quad_tol"]
    if not (is_finite_number(quad_tol) and quad_tol > 0):
        # an infinite tolerance would pass every quadrature gate
        raise ConfigValidationError(
            f"quad_tol: expected a positive finite number, got {quad_tol!r}")
    if resolved["master_seed"] < 0:
        raise ConfigValidationError(
            f"master_seed: expected a nonnegative integer, got {resolved['master_seed']!r}")
    _check_bands(resolved["bands"])

    spec = RunSpec(raw=resolved, config_hash=canonical_hash(resolved),
                   bands=resolved["bands"])

    if "kernel" in resolved:
        spec.kernel = build_kernel(resolved["kernel"])
        if command in MOVING_KERNEL_COMMANDS and not spec.kernel.kappa2 > 0.0:
            raise ConfigValidationError(
                f"kernel: {command} needs a kernel that moves, got kappa2 = 0 "
                f"(every jump has offset 0)")
    if "occupancy" in resolved:
        spec.occupancy = build_occupancy(resolved["occupancy"])
        if command in POSITIVE_MEAN_COMMANDS and spec.occupancy.rho0 == 0.0:
            # an empty system has no fluctuations to compare: its limit
            # covariance and its rate function's mean range are {0}
            raise ConfigValidationError(
                f"occupancy: {command} needs a law with a positive mean, got mean 0")

    needs_sim = command in ("simulate", "cov-check", "fbm-check", "rate-empirical")
    if needs_sim:
        _require(resolved, SIM_KEYS, command)
        for key in ("T", "S", "window_tol", "t_grid", "r_grid"):
            _check_number(resolved[key], key, many=key.endswith("_grid"))
        try:
            spec.experiment = ExperimentConfig(
                n=int(resolved["n"]),
                T=float(resolved["T"]),
                S=float(resolved["S"]),
                t_grid=tuple(float(t) for t in resolved["t_grid"]),
                r_grid=tuple(float(r) for r in resolved["r_grid"]),
                kernel=spec.kernel,
                occupancy=spec.occupancy,
                master_seed=int(resolved["master_seed"]),
                replicas=int(resolved["replicas"]),
                window_tol=float(resolved["window_tol"]),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigValidationError(str(exc))

    if command in ("rate-table", "rate-empirical", "fidi"):
        if command != "fidi":
            if spec.occupancy is None:
                raise ConfigValidationError("rate commands need an occupancy model")
            if not spec.occupancy.mgf_domain_is_real:
                raise ConfigValidationError(
                    "rate commands need an occupancy law with an everywhere-finite "
                    "log-MGF; geometric occupancy has a finite radius and is rejected")
        section = resolved.get("ldp", {})
        if command == "rate-table":
            _require(section, ("t", "x_grid"), "rate-table (ldp section)")
            x_grid = section["x_grid"]
            if not (isinstance(x_grid, list) and x_grid and all(map(is_finite_number, x_grid))):
                raise ConfigValidationError(
                    f"ldp.x_grid: expected a nonempty list of finite numbers, got {x_grid!r}")
            if not (is_finite_number(section["t"]) and section["t"] > 0.0):
                raise ConfigValidationError(
                    f"ldp.t: expected a positive time, got {section['t']!r}")
        if command == "rate-empirical":
            _require(section, ("t", "r", "x", "samples", "n_values"),
                     "rate-empirical (ldp section)")
            _check_tail_section(section, spec)
        if command != "fidi":
            kappa2 = section.get("kappa2")
            if kappa2 is None:
                if spec.kernel is None:
                    raise ConfigValidationError(
                        "ldp section needs 'kappa2' or a top-level kernel")
                kappa2 = spec.kernel.kappa2
                if not kappa2 > 0.0:
                    raise ConfigValidationError(
                        f"kernel: {command} takes kappa2 from the kernel, which never "
                        f"moves (kappa2 = 0)")
            if not (is_finite_number(kappa2) and kappa2 > 0.0):
                raise ConfigValidationError(
                    f"ldp.kappa2: expected a positive number, got {kappa2!r}")
            spec.ldp = dict(section, kappa2=float(kappa2))

    if command == "fidi":
        section = resolved.get("fidi")
        if not section:
            raise ConfigValidationError("command 'fidi' needs a 'fidi' section")
        _require(section, ("times", "rho", "kappa2", "x_vectors"), "fidi")
        try:
            check_multi_time_inputs(section["times"], section["rho"], section["kappa2"],
                                    section["x_vectors"])
        except ValueError as exc:
            raise ConfigValidationError(f"fidi.{exc}")
        spec.fidi = section

    if command == "limit-tables":
        section = resolved.get("limit", {})
        if section.get("count", 1) < 1:
            raise ConfigValidationError(
                f"limit.count: expected a positive integer, got {section['count']!r}")
        for key in ("identity_checks", "seed"):
            if section.get(key, 0) < 0:
                raise ConfigValidationError(f"limit.{key}: expected a nonnegative "
                                            f"integer, got {section[key]!r}")
        for key, positive in (("rho0", False), ("v0", False), ("kappa2", True)):
            value = section.get(key, LIMIT_DEFAULTS[key])
            if not (is_finite_number(value) and (value > 0.0 or not positive and value == 0.0)):
                raise ConfigValidationError(
                    f"limit.{key}: expected a {'positive' if positive else 'nonnegative'} "
                    f"number, got {value!r}")
        pairs = section.get("pairs")
        if pairs is not None and not (isinstance(pairs, list) and pairs and all(
                isinstance(p, list) and len(p) == 4 and all(map(is_finite_number, p))
                and p[0] >= 0.0 and p[2] >= 0.0 for p in pairs)):
            raise ConfigValidationError(
                f"limit.pairs: expected a nonempty list of [s, q, t, r] with times "
                f"s, t >= 0, got {pairs!r}")
        count = len(pairs) if pairs is not None else section.get("count", LIMIT_DEFAULTS["count"])
        if section.get("identity_checks", 0) > count:
            raise ConfigValidationError(
                f"limit.identity_checks: expected at most the {count} pairs, "
                f"got {section['identity_checks']!r}")
        spec.limit = section

    spec.retain_points = _retain_points(resolved.get("retain_points", []),
                                        spec.experiment)
    if spec.experiment is not None:
        _check_ensemble(command, spec)
    return spec


def _check_ensemble(command: str, spec: RunSpec) -> None:
    """Ensemble inputs too small for the command's estimators, which would
    otherwise fail only after every replica had run."""
    exp = spec.experiment
    if command in ("simulate", "fbm-check") and exp.replicas < MIN_COV_REPLICAS:
        raise ConfigValidationError(
            f"replicas: {command} needs at least {MIN_COV_REPLICAS}, got {exp.replicas}")
    if command == "cov-check":
        if exp.replicas < MIN_REPORT_REPLICAS:
            raise ConfigValidationError(
                f"replicas: cov-check needs at least {MIN_REPORT_REPLICAS}, "
                f"got {exp.replicas}")
        # every current at t = 0 is 0, so a grid with no later time checks nothing
        if max(exp.t_grid) <= 0.0:
            raise ConfigValidationError("t_grid: cov-check needs a positive time")
        if any(t <= 0.0 for t, _ in spec.retain_points):
            raise ConfigValidationError(
                "retain_points: the normality diagnostics need a positive time")
        if spec.retain_points and exp.replicas < MIN_NORMALITY_SAMPLES:
            raise ConfigValidationError(
                f"retain_points: the normality diagnostics need at least "
                f"{MIN_NORMALITY_SAMPLES} replicas, got {exp.replicas}")
    if command == "fbm-check":
        if 0.0 not in exp.r_grid:
            raise ConfigValidationError("r_grid: fbm-check needs r = 0 in the grid")
        positive = sum(1 for t in exp.t_grid if t > 0.0)
        if positive < MIN_SCALING_TIMES:
            raise ConfigValidationError(
                f"t_grid: fbm-check needs at least {MIN_SCALING_TIMES} positive times, "
                f"got {positive}")


def _check_tail_section(section: dict, spec: RunSpec) -> None:
    """rate-empirical's inputs: an occupancy law the tilted sampler takes,
    positive counts, strictly ascending n_values, and a point (t, r) of the
    grid whose window the truncation radius certifies."""
    if not tilts_exactly(spec.occupancy):
        raise ConfigValidationError(
            f"occupancy: rate-empirical needs Poisson or fixed-count occupancy, "
            f"got {spec.occupancy.kind!r} with variance {spec.occupancy.v0:g}")
    for key in ("t", "r", "x"):
        value = section[key]
        if not is_finite_number(value):
            raise ConfigValidationError(f"ldp.{key}: expected a number, got {value!r}")
    if not section["t"] > 0.0:
        raise ConfigValidationError(f"ldp.t: expected a positive time, got {section['t']!r}")
    if not section["samples"] >= 1:
        raise ConfigValidationError(
            f"ldp.samples: expected a positive integer, got {section['samples']!r}")
    n_values = section["n_values"]
    if (not isinstance(n_values, list) or not n_values or min(n_values) < 1
            or any(b <= a for a, b in zip(n_values, n_values[1:]))):
        # the trend criterion reads the rate gaps in list order
        raise ConfigValidationError(
            f"ldp.n_values: expected a strictly ascending nonempty list of positive "
            f"integers, got {n_values!r}")
    point = (float(section["t"]), float(section["r"]))
    if point not in spec.experiment.grid_points():
        raise ConfigValidationError(
            f"ldp.t, ldp.r: {list(point)} is not a point of t_grid x r_grid")


def _retain_points(raw, experiment: Optional[ExperimentConfig]) -> tuple:
    """(t, r) pairs, each on the experiment's grid when there is one."""
    try:
        _check_number([v for point in raw for v in point], "retain_points", many=True)
        points = tuple((float(t), float(r)) for t, r in raw)
    except (TypeError, ValueError):
        raise ConfigValidationError("retain_points: expected [[t, r], ...]")
    if experiment is not None:
        grid = set(experiment.grid_points())
        for point in points:
            if point not in grid:
                raise ConfigValidationError(
                    f"retain_points: {list(point)} is not a point of t_grid x r_grid")
    return points
