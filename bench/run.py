"""walkcurrent benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload particles --seed 1 --seconds 60 --trace 0

Run from the repository root.  A run builds the workload's configs from
the seed, then starts fresh workload processes (bench/child.py) one after
another until --seconds have passed, at least one of them (two with
--trace 1).  Each process imports walkcurrent from src/ and runs the
workload's commands through `walkcurrent.cli.main` at --workers 1.  The
metrics are medians over those processes.

With --trace 0 the last line holds the end-to-end metrics.  With --trace 1
the processes alternate between untraced and traced, and the last line
holds the per-layer metrics of the traced ones, with the tracing overhead.
The line before it holds the whole result: the environment, every process,
each workload's own metric names and the commands' outcomes.

A command fails when it exits non-zero, raises, or writes report bytes
that differ from those of the run's first process (the same seed).  A
failed command makes the result incorrect, except exit 1 of a statistical
command, which is a chance verdict of a test at a fixed level.
`--workload all` runs every workload in turn and prints one table.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
# a run must end within 180 s: no process starts once the run is predicted
# to pass RUN_CAP_S, and every process is killed at RUN_DEADLINE_S
RUN_CAP_S = 150.0
RUN_DEADLINE_S = 170.0

# Commands whose embedded criteria are statistical tests at a fixed level:
# their exit 1 can be a chance rejection at some seeds, not a wrong output.
# The criteria of every other command are deterministic tolerance checks.
STATISTICAL = ("cov-check", "fbm-check", "rate-empirical")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not measure; no result is printed."""


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    commit = _read(os.path.join(git, ref))
    if commit:
        return commit
    for line in _read(os.path.join(git, "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    cpu = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        if level in ("2", "3"):
            caches[f"l{level}"] = _read(os.path.join(base, index, "size"))

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    # nproc counts the CPUs this process may run on, as nproc(1) does
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu": cpu, "l2": caches.get("l2", "unknown"), "l3": caches.get("l3", "unknown"),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": git_commit(), "workers": 1,
            "seed": seed}


# --------------------------------------------------------------------------
# one workload process
# --------------------------------------------------------------------------

def run_process(work: str, index: int, commands: list[dict], run_id: str,
                traced: bool, timeout: float) -> dict:
    """Start bench/child.py on a plan and wait for it; returns its result."""
    pdir = os.path.join(work, f"p{index}")
    os.makedirs(pdir)
    plan = {"root": ROOT, "run_id": f"{run_id}-p{index}",
            "commands": [dict(c, out=os.path.join(pdir, f"c{i}"))
                         for i, c in enumerate(commands)]}
    plan_path = os.path.join(pdir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    result_path = os.path.join(pdir, "result.json")
    argv = [sys.executable, os.path.join(BENCH, "child.py"), plan_path, result_path]
    if traced:
        argv.append(os.path.join(pdir, "spans.npz"))
    log_path = os.path.join(pdir, "log.txt")
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise HarnessError(f"workload process {index} ran past the "
                               f"{RUN_DEADLINE_S:.0f} s deadline")
        exited = time.monotonic()
    if code != 0 or not os.path.exists(result_path):
        raise HarnessError(f"workload process {index} exited with {code}:\n"
                           + _read(log_path)[-3000:])
    with open(result_path) as fh:
        result = json.load(fh)
    result.update(traced=traced, wall_s=exited - spawned,
                  setup_s=result["setup_mark"] - spawned,
                  work_s=result["work_end"] - spawned)
    if traced:
        result["spans_path"] = argv[-1]
    return result


def warm_up() -> None:
    """Import walkcurrent once so that every timed process finds the files
    in the page cache; the first process of a run is then not special."""
    code = subprocess.call(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
         "import walkcurrent.cli", os.path.join(ROOT, "src")],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        timeout=RUN_DEADLINE_S)
    if code != 0:
        raise HarnessError("cannot import walkcurrent from src/")


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

def check_commands(processes: list[dict]) -> list[list[str]]:
    """Failure reasons per process and command; an empty list is a pass."""
    first = processes[0]["commands"]
    out = []
    for proc in processes:
        reasons = []
        for ref, cmd in zip(first, proc["commands"]):
            why = []
            if cmd["exit_code"] is None:
                why.append("raised")
            elif cmd["exit_code"] != 0:
                why.append(f"exit {cmd['exit_code']}")
            if not cmd["hashes"]:
                why.append("no report")
            elif cmd["hashes"] != ref["hashes"]:
                why.append("report bytes differ from the first process")
            reasons.append(why)
        out.append(reasons)
    return out


def wrong_outputs(specs: list[dict], reasons: list[list[str]]) -> int:
    """Failed commands that make the result incorrect: every failure but
    exit 1 of a statistical command."""
    return sum(1 for proc in reasons for spec, why in zip(specs, proc)
               if why and not (why == ["exit 1"] and spec["command"] in STATISTICAL))


def median(values) -> float:
    return float(statistics.median(values))


def command_rate(kind: str, specs: list[dict], proc: dict) -> float:
    """Work items of one kind per second of the commands that do them."""
    done = [(s["items"], r["seconds"]) for s, r in zip(specs, proc["commands"])
            if s["kind"] == kind]
    return sum(i for i, _ in done) / sum(t for _, t in done)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, commands: list | None = None) -> dict:
    """Run one workload; `commands` replaces the built (command, config) list."""
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK)
    try:
        specs = []
        for i, (command, config) in enumerate(commands or workloads.build(name, seed, scale)):
            path = os.path.join(work, f"config{i}.json")
            with open(path, "w") as fh:
                json.dump(config, fh, indent=1)
            kind, items = workloads.work_items(command, config)
            specs.append({"command": command, "config": path,
                          "kind": kind, "items": items})
        warm_up()
        run_id = f"{name}-{seed}-{os.getpid()}"
        processes = []
        began = time.monotonic()
        while True:
            traced = trace and len(processes) % 2 == 1
            processes.append(run_process(work, len(processes), specs, run_id, traced,
                                         RUN_DEADLINE_S - (time.monotonic() - began)))
            elapsed = time.monotonic() - began
            typical = median(p["wall_s"] for p in processes)
            enough = len(processes) >= (2 if trace else 1)
            if enough and (elapsed + typical > seconds or elapsed + typical > RUN_CAP_S):
                break
        return summarize(name, seed, specs, processes, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(name: str, seed: int, specs: list[dict], processes: list[dict],
              trace: bool) -> dict:
    reasons = check_commands(processes)
    attempted = sum(len(r) for r in reasons)
    failed = sum(1 for proc in reasons for why in proc if why)
    broken = wrong_outputs(specs, reasons)
    plain = [p for p in processes if not p["traced"]]
    traced = [p for p in processes if p["traced"]]

    samples = {
        "wall_s": [p["wall_s"] for p in plain],
        "setup_s": [p["setup_s"] for p in plain],
        "items_per_s": [command_rate(workloads.PRIMARY_ITEM[name], specs, p)
                        for p in plain],
        "peak_rss_mb": [p["maxrss_kb"] / 1024.0 for p in plain],
    }
    end_to_end = {k: {"value": median(v), "unit": END_TO_END_UNITS[k]}
                  for k, v in samples.items()}
    named = {
        "wall_s": end_to_end["wall_s"],
        "setup_s": end_to_end["setup_s"],
        "peak_rss_mb": end_to_end["peak_rss_mb"],
        "failed_frac": {"value": failed / attempted, "unit": "ratio"},
    }
    for kind in dict.fromkeys(s["kind"] for s in specs if s["kind"]):
        named[f"{kind}_per_s"] = {
            "value": median(command_rate(kind, specs, p) for p in plain), "unit": "1/s"}
    result = {
        "workload": name, "environment": environment(seed),
        "processes": len(processes), "traced_processes": len(traced),
        "samples": samples, "named": named, "end_to_end": end_to_end,
        "commands": [{"command": s["command"],
                      "exit_codes": [p["commands"][i]["exit_code"] for p in processes],
                      "seconds": [p["commands"][i]["seconds"] for p in processes],
                      "failures": [r[i] for r in reasons if r[i]]}
                     for i, s in enumerate(specs)],
        "correct": broken == 0, "attempted": attempted, "failed": failed,
    }
    if failed:
        result["failure_logs"] = [cmd["log"] for p in processes for cmd in p["commands"]
                                  if cmd["exit_code"] != 0][:3]
    result["metrics"] = end_to_end
    if trace:
        import tracing
        spans = [tracing.load_spans(p["spans_path"]) for p in traced]
        layer = layers(specs, spans)
        layer["trace.overhead_frac"] = (median(p["work_s"] for p in traced)
                                        / median(p["work_s"] for p in plain) - 1.0)
        units = tracing.metric_units()
        result["per_layer"] = {k: {"value": v, "unit": units[k][0]} for k, v in layer.items()}
        totals = tracing.span_totals(spans[0])
        result["self_time_top"] = sorted(([span, self_s] for span, (_, self_s, _)
                                          in totals.items()), key=lambda x: -x[1])[:5]
        result["metrics"] = result["per_layer"]
    return result


def layers(specs: list[dict], spans: list[dict]) -> dict:
    """Median over the traced processes of every per-layer metric."""
    import tracing
    items = {kind: sum(s["items"] for s in specs if s["kind"] == kind)
             for kind in ("replicas", "rate_points")}
    per_proc = [tracing.layer_metrics(s, items) for s in spans]
    return {k: median(m[k] for m in per_proc) for k in per_proc[0]}


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def result_line(result: dict) -> str:
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def table(results: list[dict]) -> str:
    lines = []
    for res in results:
        lines.append(f"{res['workload']}: correct={res['correct']} "
                     f"failed={res['failed']}/{res['attempted']} "
                     f"processes={res['processes']}")
        for key, metric in res["named"].items():
            lines.append(f"  {key:<24} {metric['value']:>14.6g} {metric['unit']}")
    return "\n".join(lines)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "walkcurrent", "cli.py")):
        print(f"benchmark: no walkcurrent sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(table(results))
    for res in results:
        print(json.dumps(res))
    print(result_line(results[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
