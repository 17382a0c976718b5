import csv
import json

import pytest

from addext.canonical import canonical_json
from addext.cli import main


def write(path, obj):
    path.write_text(canonical_json(obj))
    return str(path)


@pytest.fixture
def gap_spec(tmp_path):
    return write(tmp_path / "gap.json", {
        "group": {"kind": "zp", "p": 101},
        "spec": {"variant": "gap", "b0": 5, "steps": [1, 9], "r": 2, "s": 8}})


def test_build_source_and_round_trip(tmp_path, gap_spec):
    out1 = str(tmp_path / "m1.json")
    out2 = str(tmp_path / "m2.json")
    assert main(["build-source", "--spec", gap_spec, "--out", out1]) == 0
    obj = json.load(open(out1))
    assert obj["size"] == 64 and obj["notes"]["proper"]
    # re-ingesting the materialized source preserves the digest
    assert main(["build-source", "--spec", out1, "--out", out2]) == 0
    assert json.load(open(out2))["digest"] == obj["digest"]
    manifest = json.load(open(out1 + ".manifest.json"))
    assert manifest["version"] and manifest["inputs"]


def test_profile_to_file(tmp_path, gap_spec):
    out = str(tmp_path / "prof.json")
    assert main(["profile", "--source", gap_spec, "--alpha", "0.25",
                 "--out", out]) == 0
    prof = json.load(open(out))
    assert prof["size"] == 64 and 0 < prof["entropy_rate"] < 1


def test_extract_singleton_row_and_report(tmp_path):
    spec = write(tmp_path / "one.json", {
        "group": {"kind": "zp", "p": 11},
        "spec": {"variant": "explicit", "elements": [3]}})
    out = str(tmp_path / "ext.csv")
    assert main(["extract", "--source", spec, "--extractor", "zp", "--m", "1",
                 "--out", out]) == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["element", "output"] and len(rows) == 2
    report = json.load(open(out + ".report.json"))
    assert abs(report["distance"] - 0.5) < 1e-12  # 1 - 1/M


def test_extract_line_variant(tmp_path):
    spec = write(tmp_path / "line.json", {
        "group": {"kind": "fq_vec", "p": 2, "k": 2, "n": 2},
        "spec": {"variant": "line", "a": [0, 0], "d": [1, 1]}})
    out = str(tmp_path / "lex.csv")
    assert main(["extract", "--source", spec, "--extractor", "line",
                 "--out", out]) == 0
    assert len(list(csv.reader(open(out)))) == 5  # header + 4 points


def test_charsum_range_and_all(tmp_path, gap_spec):
    out = str(tmp_path / "cs.csv")
    assert main(["charsum", "--source", gap_spec, "--characters", "1:4",
                 "--out", out]) == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["frequency", "magnitude"] and len(rows) == 4
    assert main(["charsum", "--source", gap_spec, "--characters", "all",
                 "--out", out]) == 0
    assert len(list(csv.reader(open(out)))) == 101  # header + p-1 frequencies
    assert main(["charsum", "--source", gap_spec, "--characters", "bogus",
                 "--out", out]) == 2


def test_verify_suite_exit_zero(tmp_path):
    grid = write(tmp_path / "grid.json", {"kwargs": {"moduli": [15, 21, 35]}})
    out = str(tmp_path / "xor.csv")
    assert main(["verify", "--suite", "xor", "--grid", grid, "--out", out]) == 0
    rows = list(csv.reader(open(out)))
    assert len(rows) == 4
    summary = json.load(open(out + ".summary.json"))
    assert summary["ok"] and summary["suite"] == "xor"


def test_verify_cauchy_davenport_smoke(tmp_path):
    grid = write(tmp_path / "grid.json",
                 {"kwargs": {"primes": [101], "trials": 200}})
    out = str(tmp_path / "cd.csv")
    assert main(["verify", "--suite", "cauchy-davenport", "--grid", grid,
                 "--out", out]) == 0


def test_verify_sweep_and_failure_exit(tmp_path):
    grid = write(tmp_path / "grid.json", {"rows": [
        {"group": {"kind": "zp", "p": 11},
         "source": {"variant": "explicit", "elements": [1, 2, 3]},
         "extractor": {"build": "zp", "m": 1}},
        {"group": {"kind": "zp", "p": 4},
         "source": {"variant": "explicit", "elements": [0]},
         "extractor": {"build": "zp", "m": 1}},
    ]})
    out = str(tmp_path / "sw.csv")
    assert main(["verify", "--suite", "sweep", "--grid", grid, "--out", out]) == 1
    rows = list(csv.reader(open(out)))
    assert rows[0][:3] == ["config_digest", "source_digest", "size"]
    assert len(rows) == 2  # one good row survived
    summary = json.load(open(out + ".summary.json"))
    assert not summary["ok"] and summary["failures"][0]["grid_index"] == 1


def test_sweep_failures_in_grid_order_for_any_threads(tmp_path, capsys):
    bad = {"group": {"kind": "zp", "p": 4},
           "source": {"variant": "explicit", "elements": [0]},
           "extractor": {"build": "zp", "m": 1}}
    good = [{"group": {"kind": "zp", "p": 11},
             "source": {"variant": "random", "size": 6, "seed": s},
             "extractor": {"build": "zp", "m": 1}} for s in range(3)]
    grid = write(tmp_path / "grid.json", {"rows": [bad, good[0], bad, good[1], good[2]]})
    tables = []
    for threads in (1, 4):
        out = str(tmp_path / f"sw{threads}.csv")
        assert main(["verify", "--suite", "sweep", "--grid", grid, "--out", out,
                     "--threads", str(threads)]) == 1
        rows = list(csv.reader(open(out)))
        assert rows[0][-1] == "seconds"
        tables.append([row[:-1] for row in rows])
        summary = json.load(open(out + ".summary.json"))
        assert [f["grid_index"] for f in summary["failures"]] == [0, 2]
        fails = [line.split(": ", 1)[1] for line in capsys.readouterr().err.splitlines()
                 if line.startswith("FAIL sweep: ")]
        assert [json.loads(f)["grid_index"] for f in fails] == [0, 2]
        assert json.load(open(out + ".manifest.json"))["threads"] == threads
    assert len(tables[0]) == 4 and tables[0] == tables[1]


def test_input_errors_exit_two_without_partial_output(tmp_path):
    bad = write(tmp_path / "bad.json", {"group": {"kind": "zp"},
                                        "spec": {"variant": "gap"}})
    out = str(tmp_path / "never.json")
    assert main(["build-source", "--spec", bad, "--out", out]) == 2
    assert not (tmp_path / "never.json").exists()
    missing = str(tmp_path / "nope.json")
    assert main(["build-source", "--spec", missing, "--out", out]) == 2
    notjson = tmp_path / "garbage.json"
    notjson.write_text("{{{")
    assert main(["build-source", "--spec", str(notjson), "--out", out]) == 2
    assert main(["verify", "--suite", "sweep", "--out", str(tmp_path / "s.csv")]) == 2


def test_schema_rejects_bad_variant(tmp_path):
    bad = write(tmp_path / "bad2.json", {
        "group": {"kind": "zp", "p": 11},
        "spec": {"variant": "story", "elements": [1]}})
    assert main(["build-source", "--spec", bad,
                 "--out", str(tmp_path / "x.json")]) == 2


def test_budget_env_override(tmp_path, monkeypatch):
    spec = write(tmp_path / "bohr.json", {
        "group": {"kind": "zp", "p": 101},
        "spec": {"variant": "bohr", "freqs": [1], "rho": 0.2}})
    monkeypatch.setenv("ADDEXT_BUDGET", "50")
    assert main(["build-source", "--spec", spec,
                 "--out", str(tmp_path / "b.json")]) == 2
    monkeypatch.delenv("ADDEXT_BUDGET")
    assert main(["build-source", "--spec", spec,
                 "--out", str(tmp_path / "b.json")]) == 0
