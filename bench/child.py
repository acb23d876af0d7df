"""One workload process: import walkcurrent, run each command through its CLI.

Usage: python3 child.py PLAN RESULT [SPANS]

PLAN is a JSON file with the repository root and the list of commands
(name, config path, output directory).  The process marks the end of its
set-up (the import plus the first `load_config`) on the system-wide
monotonic clock, so that the parent can measure set-up from the moment it
started the process.  Each command runs through `walkcurrent.cli.main` at
`--workers 1`; its exit code, its time and the sha256 of every report it
wrote (all files but `manifest.json`, which holds timestamps) go to the
RESULT file.  With SPANS given, the process runs traced and writes its
spans there when the last command has finished.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def report_hashes(out_dir: str) -> dict:
    hashes = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes


def run_command(cli, command: dict) -> dict:
    argv = [command["command"], "--config", command["config"],
            "--out", command["out"], "--workers", "1"]
    start = time.perf_counter()
    log = io.StringIO()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
    except Exception:  # a traceback escaping the CLI is a failed command
        code = None
        log.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    hashes = report_hashes(command["out"]) if os.path.isdir(command["out"]) else {}
    return {"command": command["command"], "exit_code": code,
            "seconds": seconds, "hashes": hashes, "log": log.getvalue()[-2000:]}


def main(plan_path: str, result_path: str, spans_path: str | None = None) -> None:
    with open(plan_path) as fh:
        plan = json.load(fh)
    src = os.path.join(plan["root"], "src")
    sys.path.insert(0, src)

    start = time.perf_counter()
    from walkcurrent import cli, config
    from walkcurrent.errors import ConfigError
    import_s = time.perf_counter() - start
    package = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(package) != os.path.abspath(src):
        raise RuntimeError(f"walkcurrent was imported from {package}, not {src}")

    tracer = None
    if spans_path is not None:
        import tracing
        tracer = tracing.Tracer(run_id=plan["run_id"])
        tracer.install()

    first = plan["commands"][0]
    try:
        config.load_config(first["config"], command=first["command"])
    except ConfigError:  # the first command reports the same error itself
        pass
    setup_mark = time.monotonic()

    commands = [run_command(cli, c) for c in plan["commands"]]
    work_end = time.monotonic()

    result = {"import_s": import_s, "setup_mark": setup_mark,
              "work_end": work_end, "commands": commands,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path, {"import_s": import_s})
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:])
