"""One benchmark pass in a fresh interpreter, like a CLI invocation.

    python3 worker.py --commands FILE [--trace FILE] [--setup-only]

The worker imports ``addext.cli`` and prints ``ready``; the time until that
line is the set-up time the parent measures. It then runs every command of
the pass in this process through ``addext.cli.main`` (lazy caches such as
``get_extension`` and the JSON schemas fill inside the timed region), with
the current directory as the output directory. The last line it prints is a
JSON object with the pass's wall time, CPU time (user + sys, self and
children, all threads), peak RSS, the library versions and one record per
command.

With ``--trace`` the public functions of the package are wrapped before the
pass (see ``tracer.py``) and the spans and counters go to FILE at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _run_command(main, argv: list[str]) -> dict:
    """Run one CLI command in-process; a crash is recorded, never raised."""
    out, err = io.StringIO(), io.StringIO()
    crashed = False
    sys.argv = ["addext", *argv]  # the run manifest records sys.argv[1:]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, not a failed pass
            traceback.print_exc()
            code, crashed = 1, True
    seconds = time.perf_counter() - t0
    err_text = err.getvalue()
    return {"exit": code, "seconds": seconds,
            "traceback": crashed or "Traceback (most recent call last)" in err_text,
            "stdout_bytes": len(out.getvalue().encode()), "stderr": err_text[-4000:]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--commands")
    ap.add_argument("--trace")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import addext.cli
    print("ready", flush=True)
    if args.setup_only:
        return 0
    with open(args.commands) as fh:
        commands = json.load(fh)

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    records = []
    cpu0, t0 = _cpu_seconds(), time.perf_counter()
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.run_id = i
        records.append({"name": cmd["name"], **_run_command(addext.cli.main, cmd["argv"])})
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace)
    import importlib.metadata
    import numpy
    versions = {"numpy": numpy.__version__,
                "jsonschema": importlib.metadata.version("jsonschema")}
    print(json.dumps({"wall_s": wall, "cpu_s": cpu, "peak_rss_mib": peak_rss_mib,
                      "versions": versions, "commands": records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
