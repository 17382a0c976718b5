"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import os

import pytest

import reference
import run
import tracer
import workloads


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


@pytest.fixture
def outdir(tmp_path):
    d = tmp_path / "out"
    d.mkdir()
    return str(d)


CSV = "frequency,magnitude,seconds\n1,0.25,0.5\n2,0.125,0.7\n"
JSON = {"ok": True, "size": 12, "distance": 0.0625, "elapsed_seconds": 1.5,
        "started_utc": "2026-01-01T00:00:00+00:00", "rows": [{"seconds": 3.0, "x": 1.5}]}


def _outputs(outdir: str, csv_text: str = CSV, obj: dict = JSON) -> list[str]:
    _write(os.path.join(outdir, "t.csv"), csv_text)
    _write(os.path.join(outdir, "t.csv.manifest.json"), json.dumps(obj))
    return ["charsum", "--out", "t.csv"]


def test_reference_accepts_same_and_rounding_level_changes(outdir):
    argv = _outputs(outdir)
    ref = reference.fingerprints(argv, outdir)
    assert reference.compare(ref, argv, outdir) == []
    # timing fields and a last-digit float change are not differences
    _outputs(outdir, CSV.replace("0.5", "9.5").replace("0.25", "0.25000000000000006"),
             dict(JSON, elapsed_seconds=9.0, started_utc="x", rows=[{"seconds": 1, "x": 1.5}]))
    assert reference.compare(ref, argv, outdir) == []


@pytest.mark.parametrize("csv_text,obj", [
    (CSV.replace("0.125", "0.126"), JSON),                       # a wrong magnitude
    (CSV.replace("2,0.125", "3,0.125"), JSON),                   # a wrong frequency
    (CSV, dict(JSON, ok=False)),                                 # a wrong verdict
    (CSV, dict(JSON, size=13)),                                  # a wrong integer
    (CSV + "4,0.5,1\n", JSON),                                   # an extra row
])
def test_reference_flags_altered_output(outdir, csv_text, obj):
    argv = _outputs(outdir)
    ref = reference.fingerprints(argv, outdir)
    _outputs(outdir, csv_text, obj)
    assert reference.compare(ref, argv, outdir)


def test_reference_flags_missing_output(outdir):
    argv = _outputs(outdir)
    ref = reference.fingerprints(argv, outdir)
    os.remove(os.path.join(outdir, "t.csv.manifest.json"))
    assert reference.compare(ref, argv, outdir)


def test_check_pass_flags_exit_code_and_traceback(outdir):
    argv = _outputs(outdir)
    refs = {"c": {"exit": 0, "files": reference.fingerprints(argv, outdir)}}
    commands = [{"name": "c", "argv": argv}]

    def result(code, tb):
        return {"commands": [{"exit": code, "traceback": tb}]}

    assert run.check_pass(commands, result(0, False), refs, outdir) == []
    assert run.check_pass(commands, result(2, False), refs, outdir)
    assert run.check_pass(commands, result(0, True), refs, outdir)
    assert run.check_pass(commands, None, refs, outdir)


def test_inputs_depend_only_on_the_seed_variant(tmp_path):
    def files(seed, name):
        d = str(tmp_path / name)
        workloads.build("diagnose", seed, d)
        return {f: open(os.path.join(d, f)).read() for f in sorted(os.listdir(d))}

    same = files(5, "a")
    assert files(5 + workloads.VARIANTS, "b") == same
    assert files(6, "c") != same


def test_covered_time_counts_overlapping_children_once():
    assert tracer._covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert tracer._covered([(1, 3), (2, 12)], 0, 10) == 9


def _small_commands(indir: str) -> list[dict]:
    """A quick slice of the workloads, including a threaded sweep."""
    commands = [c for c in workloads.build("extract", 1, indir)
                if c["name"] in ("extract-zpn_z11", "extract-zp_gap_z4001")]
    rows = [r for r in workloads._sweep_rows(workloads.variant_rng("sweep", 1))
            if r.get("group", {}).get("kind") != "fq_vec"][:6]
    with open(os.path.join(indir, "grid.json"), "w") as fh:
        json.dump({"rows": rows}, fh)
    commands.append({"name": "sweep", "argv": [
        "verify", "--suite", "sweep", "--grid", "../inputs/grid.json",
        "--out", "sweep.csv", "--threads", "2"]})
    return commands


def test_traced_and_untraced_passes_give_identical_outputs():
    with run.Scratch("selftest") as work:
        commands = _small_commands(work.inputs)
        plain_dir = work.new_pass()
        _, plain = run.run_pass(commands, work, plain_dir)
        traced_dir = work.new_pass()
        trace_path = os.path.join(work.path, "trace.json")
        _, traced = run.run_pass(commands, work, traced_dir, trace_path)
        assert plain is not None and traced is not None
        assert all(c["exit"] == 0 and not c["traceback"] for c in plain["commands"])
        for cmd in commands:
            ref = reference.fingerprints(cmd["argv"], plain_dir)
            assert reference.compare(ref, cmd["argv"], traced_dir) == []
        with open(trace_path) as fh:
            data = json.load(fh)
        metrics = tracer.summarize(data, traced["wall_s"], plain["wall_s"], 1)
        assert metrics["suites.sweep.rows"] == 6
        assert metrics["suites.calls"] >= 1 and metrics["cli.calls"] >= len(commands)
        assert all(v >= 0 for k, v in metrics.items() if k != "trace.overhead_s")
