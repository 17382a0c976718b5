"""Benchmark of the ``addext`` CLI: four seeded workloads, each pass a fresh process.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; it reads the program from ``src/``. Inputs
are generated from the seed (``workloads.py``), every pass runs the
workload's CLI commands in a new interpreter (``worker.py``), and every output
is checked against ``references.json`` (``reference.py``).

``--trace 0`` repeats passes for about S seconds and reports the medians of
the end-to-end metrics. ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics (``tracer.py``). Human-readable lines come
first; the last line is the JSON result. The program's work directory is
``.bench_work/`` in the checkout, removed at the end; a traced run leaves its
spans in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7       # set-up time is the median of at least this many starts
PASS_TIMEOUT = 150      # seconds; a pass that takes longer is killed and fails

class Scratch:
    """A work directory under ``.bench_work/``: shared inputs, one dir per pass."""

    def __init__(self, name: str):
        self.path = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
        self.inputs = os.path.join(self.path, "inputs")
        self.passes = 0

    def __enter__(self) -> "Scratch":
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.inputs)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.path))
        except OSError:
            pass   # another run is still using it

    def new_pass(self) -> str:
        self.passes += 1
        path = os.path.join(self.path, f"pass{self.passes}")
        os.makedirs(path)
        return path


def _spawn(args: list[str], cwd: str, err_path: str) -> tuple[float, str]:
    """Start a worker; return (seconds until it printed ``ready``, its stdout)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ADDEXT_BUDGET", None)
    with open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER, *args], cwd=cwd, env=env,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        try:
            first = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=PASS_TIMEOUT)
        except subprocess.TimeoutExpired:
            rest = ""   # no result: every command of the pass counts as failed
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return (setup if first.strip() == "ready" else float("nan")), rest


def measure_setup(work: Scratch) -> float:
    setup, _ = _spawn(["--setup-only"], work.path, os.path.join(work.path, "setup.err"))
    return setup


def run_pass(commands: list[dict], work: Scratch, outdir: str,
             trace_path: str | None = None) -> tuple[float, dict | None]:
    """One pass in a fresh worker: (set-up seconds, the worker's result or None)."""
    cmd_file = os.path.join(work.path, "commands.json")
    with open(cmd_file, "w") as fh:
        json.dump(commands, fh)
    args = ["--commands", cmd_file] + (["--trace", trace_path] if trace_path else [])
    setup, out = _spawn(args, outdir, os.path.join(work.path, "worker.err"))
    lines = out.strip().splitlines()
    try:
        return setup, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        with open(os.path.join(work.path, "worker.err")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        return setup, None


def check_pass(commands: list[dict], result: dict | None, refs: dict,
               outdir: str) -> list[str]:
    """One line per failed command: wrong exit code, a traceback, or wrong output."""
    if result is None:
        return [f"{c['name']}: worker produced no result" for c in commands]
    failures = []
    for cmd, rec in zip(commands, result["commands"]):
        ref = refs[cmd["name"]]
        problems = []
        if rec["exit"] != ref["exit"]:
            problems.append(f"exit code {rec['exit']} != {ref['exit']}")
        if rec["traceback"]:
            problems.append("printed a traceback")
        problems += reference.compare(ref["files"], cmd["argv"], outdir)
        if problems:
            failures.append(f"{cmd['name']}: " + "; ".join(problems))
    return failures


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def _bytes_out(outdir: str, result: dict) -> int:
    files = sum(os.path.getsize(os.path.join(outdir, f)) for f in os.listdir(outdir))
    return files + sum(c["stdout_bytes"] for c in result["commands"])


def untraced_run(workload: str, commands: list[dict], refs: dict, work: Scratch,
                 seconds: float) -> tuple[dict, int, list[str], dict]:
    measure_setup(work)   # warm-up start: compiles the package's bytecode once
    setups, passes, failures = [], [], []
    start = time.perf_counter()
    while True:
        outdir = work.new_pass()
        t0 = time.perf_counter()
        setup, result = run_pass(commands, work, outdir)
        took = time.perf_counter() - t0
        setups.append(setup)
        failures += check_pass(commands, result, refs, outdir)
        if result is not None:
            passes.append(result)
        shutil.rmtree(outdir)
        if time.perf_counter() - start + took > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(measure_setup(work))
    if not passes:
        passes = [{"wall_s": float("nan"), "cpu_s": float("nan"),
                   "peak_rss_mib": float("nan"), "versions": {}}]
    metrics = {"setup_s": statistics.median(setups)}
    for key in ("wall_s", "cpu_s", "peak_rss_mib"):
        metrics[key] = statistics.median(p[key] for p in passes)
    print(f"# {workload}: {work.passes} passes, wall_s per pass "
          + " ".join(f"{p['wall_s']:.3f}" for p in passes)
          + "; setup_s " + " ".join(f"{s:.3f}" for s in setups))
    return metrics, work.passes * len(commands), failures, passes[0]["versions"]


def traced_run(workload: str, commands: list[dict], refs: dict, work: Scratch,
               seed: int) -> tuple[dict, int, list[str], dict]:
    import tracer
    measure_setup(work)
    outdir = work.new_pass()
    _, plain = run_pass(commands, work, outdir)
    failures = check_pass(commands, plain, refs, outdir)
    shutil.rmtree(outdir)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    trace_path = os.path.join(ROOT, ".bench_out", f"trace-{workload}-seed{seed}.json")
    outdir = work.new_pass()
    _, traced = run_pass(commands, work, outdir, trace_path)
    failures += check_pass(commands, traced, refs, outdir)
    metrics = {}
    if plain is not None and traced is not None:
        with open(trace_path) as fh:
            data = json.load(fh)
        metrics = tracer.summarize(data, traced["wall_s"], plain["wall_s"],
                                   _bytes_out(outdir, traced))
        total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
        print(f"# {workload}: self time share "
              + " ".join(f"{layer} {metrics[f'{layer}.self_s'] / total:.1%}"
                         for layer in tracer.LAYERS))
    return metrics, 2 * len(commands), failures, (plain or {}).get("versions", {})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="addext CLI benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "addext", "cli.py")):
        print(f"error: the program's source is missing ({SRC}/addext); run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    refs = reference.load()["workloads"][args.workload][
        str(args.seed % workloads.VARIANTS)]

    with Scratch(f"{args.workload}-{args.seed}") as work:
        commands = workloads.build(args.workload, args.seed, work.inputs)
        if args.trace:
            measured, attempted, failures, versions = traced_run(
                args.workload, commands, refs, work, args.seed)
            declared = spec["per_layer"]
        else:
            measured, attempted, failures, versions = untraced_run(
                args.workload, commands, refs, work, args.seconds)
            declared = spec["end_to_end"]

    info = {**machine(), **versions, "workload": args.workload, "seed": args.seed,
            "variant": args.seed % workloads.VARIANTS, "trace": args.trace,
            "sweep_threads": workloads.SWEEP_THREADS}
    print("# machine " + json.dumps(info))
    for line in failures:
        print(f"# FAILED {line}")
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    error_rate = len(failures) / attempted
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"error_rate {error_rate} ratio")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
