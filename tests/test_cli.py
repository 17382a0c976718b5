import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from addext import analysis, extractors as ex, sources as src, suites
from addext.canonical import canonical_json
from addext.cli import main
from addext.errors import BudgetError

import oracles


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
    # a row's input error exits 2
    assert main(["verify", "--suite", "sweep", "--grid", grid, "--out", out]) == 2
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
                     "--threads", str(threads)]) == 2
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


def test_sweep_rows_failing_their_bound_are_named_on_stderr(tmp_path, capsys):
    # one point of F_101 on a line: distance 1/2 against the bound 4 sqrt(1/101)
    failing = {"group": {"kind": "fq_vec", "p": 101, "k": 1, "n": 1},
               "source": {"variant": "explicit", "elements": [[3]]},
               "extractor": {"build": "line"}}
    bad = {"group": {"kind": "zp", "p": 4},
           "source": {"variant": "explicit", "elements": [0]},
           "extractor": {"build": "zp", "m": 1}}
    for rows, code, index in (([failing], 1, 0), ([bad, failing], 2, 1)):
        grid = write(tmp_path / "grid.json", {"rows": rows})
        out = str(tmp_path / "sw.csv")
        assert main(["verify", "--suite", "sweep", "--grid", grid, "--out", out]) == code
        summary = json.load(open(out + ".summary.json"))
        assert len(summary["failures"]) == code - 1   # row errors only, as before
        row = summary["rows"][0]
        assert not row["ok"] and row["asserted"]
        fails = [json.loads(line.split(": ", 1)[1])
                 for line in capsys.readouterr().err.splitlines()
                 if line.startswith("FAIL sweep: ")]
        assert fails[code - 1:] == [{"grid_index": index, **{
            k: row[k] for k in ("config_digest", "source_digest", "distance", "bound")}}]
        assert row["distance"] == 0.5 > row["bound"]


_ROW = {"group": {"kind": "zp", "p": 11},
        "source": {"variant": "explicit", "elements": [1, 2]},
        "extractor": {"build": "zp", "m": 1}}


@pytest.mark.parametrize("row, missing", [
    ({k: v for k, v in _ROW.items() if k != "source"}, "source"),
    ({k: v for k, v in _ROW.items() if k != "group"}, "group"),
    ({k: v for k, v in _ROW.items() if k != "extractor"}, "extractor"),
    (dict(_ROW, extractor={"m": 1}), "build"),
    ({"family": {"kind": "all_aps", "s": 5}, "extractor": {"build": "zp"}}, "p"),
    ({"family": {"kind": "all_aps", "p": 11}, "extractor": {"build": "zp"}}, "s"),
    ({"family": {"kind": "all_lines", "n": 2}, "extractor": {"build": "line"}}, "q"),
])
def test_sweep_row_missing_a_key_exits_two(tmp_path, capsys, row, missing):
    grid = write(tmp_path / "grid.json", {"rows": [row, _ROW]})
    out = str(tmp_path / "sw.csv")
    assert main(["verify", "--suite", "sweep", "--grid", grid, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "InputError: the " in err and f"has no '{missing}'" in err
    assert "Traceback" not in err
    assert len(list(csv.reader(open(out)))) == 2   # the good row is written


@pytest.mark.parametrize("suite, kwargs", [("weil", {"bogus": 1}),
                                           ("l1", {"seed": 3}),
                                           ("bohr", {"pmax": 31, "trials": 2})])
def test_verify_unknown_suite_kwargs_exit_two(tmp_path, capsys, suite, kwargs):
    (key,) = kwargs.keys() - suites.SUITES[suite].checks.keys()   # the one it does not take
    grid = write(tmp_path / "grid.json", {"kwargs": kwargs})
    out = tmp_path / "v.csv"
    assert main(["verify", "--suite", suite, "--grid", grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the {suite} suite takes no {key!r} (it takes ")
    assert not out.exists()


def test_random_source_in_a_group_of_order_at_least_2_63(tmp_path):
    spec = write(tmp_path / "big.json", {"group": {"kind": "zp_vec", "p": 101, "n": 10},
                                         "spec": {"variant": "random", "size": 5, "seed": 1}})
    out = str(tmp_path / "big.src.json")
    assert main(["build-source", "--spec", spec, "--out", out]) == 0
    assert json.load(open(out))["size"] == 5


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
    monkeypatch.setenv("ADDEXT_BUDGET", "lots")
    assert main(["build-source", "--spec", spec,
                 "--out", str(tmp_path / "b.json")]) == 2
    monkeypatch.delenv("ADDEXT_BUDGET")
    assert main(["build-source", "--spec", spec,
                 "--out", str(tmp_path / "b.json")]) == 0


def test_profile_over_pair_budget_exits_two(tmp_path, capsys):
    # 8193^2 difference pairs exceed 2^26 and the group order exceeds the
    # element budget: neither the pairs nor the FFT route fits
    spec = write(tmp_path / "big.json", {
        "group": {"kind": "zn", "moduli": [1000003, 1000033]},
        "spec": {"variant": "explicit", "elements": list(range(8193))}})
    assert main(["profile", "--source", spec, "--alpha", "0.25"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_profile_in_large_zn_group(tmp_path, capsys):
    # order ~1e18 is beyond the element budget: no bitmask, no FFT
    spec = write(tmp_path / "small.json", {
        "group": {"kind": "zn", "moduli": [1000003, 1000033, 1000037]},
        "spec": {"variant": "explicit", "elements": [1, 2, 3]}})
    assert main(["profile", "--source", spec, "--alpha", "0.25"]) == 0
    prof = json.loads(capsys.readouterr().out)
    assert prof["sumset_size"] == 5 and prof["sym_size"] == 1


def test_profile_of_large_bohr_set(tmp_path, capsys):
    # 30013 elements: 9e8 difference pairs, profiled by FFT in linear memory
    spec = write(tmp_path / "bohr.json", {
        "group": {"kind": "zp", "p": 50021},
        "spec": {"variant": "bohr", "freqs": [1], "rho": 0.3}})
    assert main(["profile", "--source", spec, "--alpha", "0.25"]) == 0
    prof = json.loads(capsys.readouterr().out)
    assert prof["size"] == 30013
    # |X ∩ (X+g)| = 30013 - |g| for the interval |x| <= 15006
    assert prof["sym_size"] == 2 * 7503 + 1


def test_modulus_at_or_above_2_63_exits_two(tmp_path, capsys):
    spec = write(tmp_path / "huge.json", {
        "group": {"kind": "zp", "p": 18446744073709551557},
        "spec": {"variant": "explicit", "elements": [1, 2]}})
    for argv in (["charsum", "--source", spec, "--characters", "1:3",
                  "--out", str(tmp_path / "c.csv")],
                 ["profile", "--source", spec, "--alpha", "0.25"]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_charsum_range_longer_than_budget_exits_two(tmp_path, capsys):
    spec = write(tmp_path / "zn.json", {
        "group": {"kind": "zn", "moduli": [1000003, 1000033, 1000037]},
        "spec": {"variant": "explicit", "elements": [1, 2, 3]}})
    out = tmp_path / "c.csv"
    assert main(["charsum", "--source", spec, "--characters", f"0:{10**12}",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_threads_must_be_positive(tmp_path, gap_spec):
    for bad in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["build-source", "--spec", gap_spec, "--out", str(tmp_path / "x.json"),
                  "--threads", bad])
        assert exc.value.code == 2


GROUPS = {"zp": {"kind": "zp", "p": 11},
          "zp_vec": {"kind": "zp_vec", "p": 11, "n": 2},
          "fq_vec": {"kind": "fq_vec", "p": 3, "k": 2, "n": 2},
          "zn": {"kind": "zn", "moduli": [3, 5]}}
ELEMENTS = {"zp": list(range(11)), "zp_vec": [[0, 1], [4, 9], [10, 2], [3, 3]],
            "fq_vec": [[0, 1], [4, 8], [2, 5], [7, 7]], "zn": [1, 4, 14]}
FITS = {("zp", "zp"), ("zp", "pgc"), ("zp_vec", "zpn"), ("zp_vec", "ap"),
        ("zp_vec", "line"), ("fq_vec", "line")}


def _source(tmp_path, group, elements):
    return write(tmp_path / "src.json", {
        "group": group, "spec": {"variant": "explicit", "elements": elements}})


def test_extract_exit_code_for_every_group_and_family(tmp_path, capsys):
    for kind, group in GROUPS.items():
        spec = _source(tmp_path, group, ELEMENTS[kind])
        for family in ex.GROUP_KINDS:
            out = tmp_path / f"{kind}-{family}.csv"
            code = main(["extract", "--source", spec, "--extractor", family,
                         "--out", str(out)])
            err = capsys.readouterr().err
            if (kind, family) in FITS:
                assert code == 0, (kind, family, err)
            else:
                assert code == 2 and not out.exists(), (kind, family)
                assert err.startswith("error:") and "Traceback" not in err, err


def test_line_extractor_takes_only_one_bit(tmp_path, capsys):
    spec = _source(tmp_path, GROUPS["fq_vec"], ELEMENTS["fq_vec"])
    out = tmp_path / "line.csv"
    assert main(["extract", "--source", spec, "--extractor", "line", "--m", "3",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:") and not out.exists()
    assert main(["extract", "--source", spec, "--extractor", "line", "--m", "1",
                 "--out", str(out)]) == 0


def test_extract_evaluates_each_point_once(tmp_path, monkeypatch):
    """One extract_many call over the whole source. In it zp and zpn encode
    every point in one encode_many call; line, ap and pgc take their batch
    routes and make none."""
    real_many, real_encode = ex.extract_many, ex.encode_many
    for kind, family in sorted(FITS):
        batches, encoded = [], []

        def counted_encode(cfg, points, encoded=encoded):
            encoded.append(len(points))
            return real_encode(cfg, points)

        def counted_many(cfg, points, encodings=None, batches=batches):
            batches.append(len(points))
            return real_many(cfg, points, encodings)

        monkeypatch.setattr(ex, "encode_many", counted_encode)
        monkeypatch.setattr(ex, "extract_many", counted_many)
        spec = _source(tmp_path, GROUPS[kind], ELEMENTS[kind])
        assert main(["extract", "--source", spec, "--extractor", family,
                     "--out", str(tmp_path / "once.csv")]) == 0
        assert batches == [len(ELEMENTS[kind])], (kind, family, batches)
        want = [len(ELEMENTS[kind])] if family in ("zp", "zpn") else []
        assert encoded == want, (kind, family, encoded)


def test_sweep_and_extract_agree_on_config_and_outputs(tmp_path):
    cases = [(GROUPS[kind], family, ELEMENTS[kind]) for kind, family in sorted(FITS)]
    # an explicit, non-canonical modulus for F_9 (canonical: x^2 + 1)
    cases.append(({"kind": "fq_vec", "p": 3, "k": 2, "modulus": [2, 1, 1], "n": 2},
                  "line", ELEMENTS["fq_vec"]))
    for group, family, elements in cases:
        spec = _source(tmp_path, group, elements)
        out = str(tmp_path / "ext.csv")
        assert main(["extract", "--source", spec, "--extractor", family,
                     "--out", out]) == 0
        report = json.load(open(out + ".report.json"))
        source = {"variant": "explicit", "elements": elements}
        rows = [{"group": group, "source": source, "extractor": e}
                for e in ({"build": family, "m": 1}, report["config"])]
        sweep = suites.suite_sweep(rows)
        assert not sweep.failures and len(sweep.rows) == 2, (group, family, sweep.failures)
        for r in sweep.rows:
            assert r.config_digest == report["config_digest"], (group, family)
            assert list(r.extra["outputs"]) == report["outputs"]


@pytest.mark.parametrize("p, modulus, n", [(2, [3, 1, 1], 2), (2, [-1, 1, 1], 2),
                                           (2, [2**70 + 1, 1, 1], 2), (3, [3**40 + 4, 0, 1], 3)])
def test_line_extract_reads_an_unreduced_modulus_mod_p(tmp_path, capsys, p, modulus, n):
    elements = [[0] * (n - 1) + [1], [1] * n, [2] * n, [3] * n, [1] + [0] * (n - 1),
                [1, 2, 3][:n]]
    csvs = []
    for m in (modulus, [c % p for c in modulus]):
        spec = _source(tmp_path, {"kind": "fq_vec", "p": p, "k": 2, "modulus": m, "n": n},
                       elements)
        out = tmp_path / "line.csv"
        assert main(["extract", "--source", spec, "--extractor", "line",
                     "--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_line_over_a_huge_field_exits_two_on_the_budget(tmp_path, capsys):
    spec = write(tmp_path / "line.json", {
        "group": {"kind": "zp_vec", "p": (1 << 61) - 1, "n": 2},
        "spec": {"variant": "line", "a": [0, 0], "d": [1, 2]}})
    out = tmp_path / "line.src.json"
    assert main(["build-source", "--spec", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "span of volume" in err and "past the element budget" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("m", ["x", 1.5, "3", True])
def test_sweep_row_m_must_be_an_integer(tmp_path, capsys, m):
    grid = write(tmp_path / "grid.json", {"rows": [
        dict(_ROW, extractor={"build": "zp", "m": m}), _ROW]})
    out = str(tmp_path / "sw.csv")
    assert main(["verify", "--suite", "sweep", "--grid", grid, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "InputError: the extractor's m must be an integer" in err
    assert "Traceback" not in err
    assert len(list(csv.reader(open(out)))) == 2   # the good row is written


# JSON text, so that 1e400 reaches the sweep as the float inf that json.load makes
@pytest.mark.parametrize("group, source, name", [
    ('{"kind": "zp", "p": 101}', '{"variant": "ap", "b0": 0, "step": 1, "k": 1e400}',
     "the source spec's k"),
    ('{"kind": "zp", "p": 101}', '{"variant": "gap", "b0": 0, "steps": [1], "s": 10.7}',
     "the source spec's s"),
    ('{"kind": "zp", "p": 101}', '{"variant": "bohr", "freqs": [1], "rho": "0.3"}',
     "the source spec's rho"),
    ('{"kind": "zp", "p": 101}', '{"variant": "ap", "b0": 0, "step": 1, "k": "12"}',
     "the source spec's k"),
    ('{"kind": "zp_vec", "p": 11, "n": true}', '{"variant": "explicit", "elements": [[1]]}',
     "the group's n"),
])
def test_sweep_rows_read_json_numbers_as_the_schemas_do(tmp_path, capsys, group, source, name):
    grid = tmp_path / "grid.json"
    grid.write_text(f'{{"rows": [{{"group": {group}, "source": {source}, '
                    f'"extractor": {{"build": "zp"}}}}]}}')
    out = str(tmp_path / "sw.csv")
    assert main(["verify", "--suite", "sweep", "--grid", str(grid), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f'FAIL sweep: {{"error":"InputError: {name} must be ')
    assert "Traceback" not in err


def test_a_sweep_row_that_raises_any_exception_exits_two(tmp_path, capsys, monkeypatch):
    # a failed row is an input fault whatever it raised: no bound was checked
    sweep_point, calls = suites._sweep_point, []

    def point(row):  # the first row raises
        calls.append(row)
        if len(calls) == 1:
            raise ZeroDivisionError("division by zero")
        return sweep_point(row)
    monkeypatch.setattr(suites, "_sweep_point", point)
    grid = write(tmp_path / "grid.json", {"rows": [_ROW, _ROW]})
    out = str(tmp_path / "sw.csv")
    assert main(["verify", "--suite", "sweep", "--grid", grid, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err == 'FAIL sweep: {"error":"ZeroDivisionError: division by zero","grid_index":0}\n'
    assert len(list(csv.reader(open(out)))) == 2   # the other row is written


def test_the_manifest_records_the_argv_main_was_given(tmp_path, gap_spec, monkeypatch):
    out = str(tmp_path / "s.json")
    argv = ["build-source", "--spec", gap_spec, "--out", out]
    monkeypatch.setattr("sys.argv", ["pytest", "-q", "--lf"])
    assert main(argv) == 0
    assert json.load(open(out + ".manifest.json"))["command"] == " ".join(argv)
    monkeypatch.setattr("sys.argv", ["addext", *argv])
    assert main() == 0
    assert json.load(open(out + ".manifest.json"))["command"] == " ".join(argv)


def _declared_out_of_range():
    """One kwargs per suite parameter out of its declared range: the string
    "x" for each, and one below the lower bound for each integer parameter
    (inside a list for a list of integers)."""
    for suite, fn in suites.SUITES.items():
        for name, check in fn.checks.items():
            yield pytest.param(suite, {name: "x"}, id=f"{suite}-{name}-x")
            item = getattr(check, "item", check)
            if isinstance(item, suites._Int):
                low = item.lo - 1
                yield pytest.param(suite, {name: low if item is check else [low]},
                                   id=f"{suite}-{name}-{low}")


@pytest.mark.parametrize("suite, kwargs", [
    ("weil", {"dmin": 5, "dmax": 2}),
    ("partial-ap", {"dmin": 7, "dmax": 6}),
    ("weil", {"polys_per_p": 0}),
    ("partial-ap", {"a_per_poly": 0}),
    ("weil", {"dmin": 0}),
    ("partial-ap", {"dmin": 1}),
    ("weil", {"primes": [11], "dmax": 11}),
    ("weil", {"primes": [4]}),
    ("weil", {"primes": []}),
    ("partial-ap", {"primes": [101, "x"]}),
    ("weil", {"seed": -1}),
    ("l1", {"pmax": "x"}),
    ("l1", {"pmax": 1.5}),
    ("l1", {"pmax": 1}),
    ("cauchy-davenport", {"trials": 0}),
    ("cauchy-davenport", {"trials": -3}),
    ("cauchy-davenport", {"trials": True}),
    ("zp-trend", {"primes": []}),
    ("transport", {"primes": [101], "sources_per_p": 0}),
    ("transport", {"alpha": 5}),
    ("moments", {"qs": [1]}),
    ("moments", {"qs": 5}),
    ("moments", {"ts": [1.5]}),
    ("zp-trend", {"threshold": "x"}),
    ("lines", {"qs": 5}),
    ("gap-profile", {"sides": "x"}),
    ("gap-profile", {"dims": [0]}),
    ("bohr", {"pmax": "x"}),
    ("bohr", {"rhos": "x"}),
    ("bohr", {"literal_pmax": "x"}),
    ("xor", {"moduli": "x"}),
    ("norms", {"qs": "x"}),
    ("norms", {"kmax": "x"}),
    ("bohr", {"rhos": [2.0]}),
    ("bohr", {"pmax": -3}),
    ("xor", {"moduli": [0]}),
    ("xor", {"moduli": [1]}),
    ("norms", {"kmax": 0}),
    ("bohr", {"pmax": 20011}),
    ("bohr", {"literal_pmax": 20011}),
    ("norms", {"qs": [2], "kmax": 27}),
    ("norms", {"qs": [8209], "kmax": 1}),
    # zp-trend takes no m: its extractor is the 1-bit zp extractor
    ("zp-trend", {"m": -1}),
    ("zp-trend", {"m": "x"}),
    ("zp-trend", {"m": 1.5}),
    ("zp-trend", {"m": True}),
    ("zp-trend", {"m": None}),
    ("xor", {"moduli": [1000000000039]}),
    ("norms", {"qs": [2], "kmax": 22}),             # 22 * 2^22 digits past the budget
    ("lines", {"qs": [10**4299 + 1]}),              # past the budget before any field search
    *_declared_out_of_range(),
])
def test_suite_parameters_out_of_range_exit_two(tmp_path, capsys, suite, kwargs):
    grid = write(tmp_path / "grid.json", {"kwargs": kwargs})
    out = tmp_path / "v.csv"
    assert main(["verify", "--suite", suite, "--grid", grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "FAIL" not in err and "Traceback" not in err
    assert not out.exists()


def test_a_suite_parameter_without_a_declared_check_fails_at_import():
    def suite_bare(p: suites._Int(1) = 1, q=2):
        pass
    with pytest.raises(TypeError, match="'q' declares no check"):
        suites._suite(cost=lambda p, q: (0, 0))(suite_bare)


def test_a_suite_without_a_declared_cost_fails_at_import():
    def suite_bare(p: suites._Int(1) = 1):
        pass
    with pytest.raises(TypeError, match="positional"):
        suites._suite(suite_bare)
    with pytest.raises(TypeError, match="'cost'"):
        suites._suite()
    assert suites._suite(cost=lambda p: (p, p))(suite_bare).name == "bare"


@pytest.mark.parametrize("suite, kwargs", [
    # x^3 = x over F_2 and F_3: the block polynomial is constant on a line
    ("lines", {"qs": [2]}),
    ("lines", {"qs": [3]}),
    # refused before q = 256 is scanned
    ("lines", {"qs": [256, 4096]}),
    ("weil", {"primes": [1000003]}),
])
def test_refused_suite_inputs_exit_two_with_one_error_line(tmp_path, capsys, suite, kwargs):
    grid = write(tmp_path / "grid.json", {"kwargs": kwargs})
    out = tmp_path / "v.csv"
    t0 = time.perf_counter()
    assert main(["verify", "--suite", suite, "--grid", grid, "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("row, error", [
    ({"family": {"kind": "all_lines", "q": 3, "n": 2}, "extractor": {"build": "line"}},
     "InputError"),
    # p^2 / 2 steps of the AP scan, refused before its extractor is built
    ({"family": {"kind": "all_aps", "p": 67108859, "s": 2}, "extractor": {"build": "zp", "m": 1}},
     "BudgetError"),
])
def test_family_rows_are_refused_before_their_scan(tmp_path, capsys, row, error):
    grid = write(tmp_path / "grid.json", {"rows": [row]})
    out = str(tmp_path / "sw.csv")
    t0 = time.perf_counter()
    assert main(["verify", "--suite", "sweep", "--grid", grid, "--out", out]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith(f'FAIL sweep: {{"error":"{error}: ') and "Traceback" not in err
    assert json.load(open(out + ".summary.json"))["failures"][0]["error"].startswith(error)


def test_moments_refuses_its_degree_rule_before_any_moment_sum(tmp_path, capsys, monkeypatch):
    # (q - 1)^(2t) >= 2^62 at t = 2: refused before t = 1 is computed
    def never(*args):
        raise AssertionError("moment_sum was called")
    monkeypatch.setattr(analysis, "moment_sum", never)
    grid = write(tmp_path / "grid.json",
                 {"kwargs": {"qs": [1000003], "ts": [1, 2], "parseval_sets": 0}})
    out = tmp_path / "v.csv"
    assert main(["verify", "--suite", "moments", "--grid", grid, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: need (max q - 1)^(2 max t) < 2^62, not q = 1000003, t = 2\n"
    assert not out.exists()


def test_moments_degree_rule_at_its_boundary():
    assert list(suites._moment_cases([2**31], [1])) == [(2**31, 1)]  # (2^31 - 1)^2 < 2^62
    assert list(suites._moment_cases([2], [10**9])) == [(2, 10**9)]  # 1^(2t), for a huge t
    assert list(suites._moment_cases([3, 2], [30, 1])) == [(3, 30), (3, 1), (2, 30), (2, 1)]
    for qs, ts in (([2**31 + 1], [1]), ([3], [31]), ([101], [5]), ([3], [10**9])):
        with pytest.raises(BudgetError):
            suites._moment_cases(qs, ts)
    with pytest.raises(BudgetError, match="2\\^62"):
        suites.suite_moments.check(qs=[101], ts=[1, 5], parseval_sets=0)
    suites.suite_moments.check(qs=[101], ts=[1, 4], parseval_sets=0)   # 100^8 < 2^62


def test_weil_at_a_large_prime_exits_two_under_an_address_space_cap(tmp_path,
                                                                    run_cli_capped):
    # 500 polynomials at p = 1000003 would take a 3.7 GiB value matrix
    grid = write(tmp_path / "grid.json", {"kwargs": {"primes": [1000003]}})
    code, err = run_cli_capped(["verify", "--suite", "weil", "--grid", grid,
                                "--out", str(tmp_path / "w.csv")])
    assert code == 2, err
    assert err.startswith("error: ") and "element budget" in err
    assert "Traceback" not in err


def test_lines_past_the_pair_budget_exit_two_under_an_address_space_cap(tmp_path,
                                                                       run_cli_capped):
    # q^2 = 2^26 fits the element budget alone; the scan's 10 q x q tables do not
    grid = write(tmp_path / "grid.json", {"kwargs": {"qs": [8192]}})
    code, err = run_cli_capped(["verify", "--suite", "lines", "--grid", grid,
                                "--out", str(tmp_path / "l.csv")])
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1 and "element budget" in err


@pytest.mark.parametrize("suite, kwargs, codes", [
    # 4q entries past the element budget: refused before the histogram of Z_q*
    ("moments", {"qs": [30000001], "ts": [1], "parseval_sets": 0}, (0, 2)),
    # the rfft row of convolve_rows would be padded to 2^27 > the element budget
    ("cauchy-davenport", {"primes": [67108859], "trials": 1}, (2,)),
    # two |X| x |X| products of up to 7.4 GiB each
    ("transport", {"primes": [100003], "sources_per_p": 1}, (2,)),
])
def test_large_suite_inputs_exit_cleanly_under_an_address_space_cap(tmp_path, run_cli_capped,
                                                                    suite, kwargs, codes):
    grid = write(tmp_path / "grid.json", {"kwargs": kwargs})
    code, err = run_cli_capped(["verify", "--suite", suite, "--grid", grid,
                                "--out", str(tmp_path / "v.csv")])
    assert code in codes, err
    assert "Traceback" not in err and "Error" not in err.replace("error: ", "")


def test_bohr_frequency_zero_mod_p_exits_two(tmp_path, capsys):
    spec = write(tmp_path / "bohr.json", {
        "group": {"kind": "zp", "p": 101},
        "spec": {"variant": "bohr", "freqs": [101], "rho": 0.1}})
    out = tmp_path / "b.json"
    assert main(["build-source", "--spec", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: Bohr frequencies must be nonzero\n"
    assert not out.exists()


@pytest.mark.parametrize("p, k", [(2, 500), (2147483647, 64), (2, 63), (3, 40)])
def test_fq_vec_of_order_at_least_2_63_exits_two_before_the_field_is_built(tmp_path, capsys, p, k):
    spec = write(tmp_path / "s.json", {"group": {"kind": "fq_vec", "p": p, "k": k, "n": 1},
                                       "spec": {"variant": "random", "size": 1, "seed": 0}})
    out = tmp_path / "s.out.json"
    t0 = time.perf_counter()
    assert main(["build-source", "--spec", spec, "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "2^63" in err
    assert not out.exists()


@pytest.mark.parametrize("p, k", [(2, 62), (3, 39)])
def test_fq_vec_just_below_2_63_is_built(tmp_path, p, k):
    spec = write(tmp_path / "s.json", {"group": {"kind": "fq_vec", "p": p, "k": k, "n": 1},
                                       "spec": {"variant": "explicit", "elements": [[p**k - 1]]}})
    assert main(["build-source", "--spec", spec, "--out", str(tmp_path / "o.json")]) == 0


def test_main_writes_the_manifest_of_every_command_with_an_output(tmp_path, gap_spec, capsys):
    keys = ["command", "elapsed_seconds", "inputs", "outputs", "seed", "started_utc",
            "threads", "version"]
    failing = write(tmp_path / "grid.json", {"rows": [   # distance 1/2 above its bound: exit 1
        {"group": {"kind": "fq_vec", "p": 101, "k": 1, "n": 1},
         "source": {"variant": "explicit", "elements": [[3]]}, "extractor": {"build": "line"}}]})
    out = {name: str(tmp_path / name) for name in ("s.json", "p.json", "e.csv", "c.csv", "v.csv")}
    runs = [(["build-source", "--spec", gap_spec], "s.json", 0, [gap_spec], []),
            (["profile", "--source", gap_spec, "--alpha", "0.25"], "p.json", 0, [gap_spec], []),
            (["extract", "--source", gap_spec, "--extractor", "zp"], "e.csv", 0, [gap_spec],
             [".report.json"]),
            (["charsum", "--source", gap_spec], "c.csv", 0, [gap_spec], []),
            (["verify", "--suite", "sweep", "--grid", failing], "v.csv", 1, [failing], [])]
    for argv, name, code, inputs, extra in runs:
        assert main(argv + ["--out", out[name]]) == code
        manifest = json.load(open(out[name] + ".manifest.json"))
        assert sorted(manifest) == keys and manifest["elapsed_seconds"] >= 0
        assert list(manifest["inputs"]) == inputs
        assert manifest["outputs"] == [out[name]] + [out[name] + e for e in extra]
    capsys.readouterr()
    before = sorted(tmp_path.iterdir())
    assert main(["profile", "--source", gap_spec, "--alpha", "0.25"]) == 0
    assert sorted(tmp_path.iterdir()) == before
    assert json.loads(capsys.readouterr().out)["size"] == 64


@pytest.mark.parametrize("group, base", [
    ({"kind": "zp_vec", "p": 2147483647, "n": 1}, [0]),
    ({"kind": "fq_vec", "p": 7, "k": 16, "n": 2}, [0, 0]),
])
def test_affine_source_with_no_basis_is_its_base_point(tmp_path, run_cli_capped, group, base):
    # no generators, no table of the |F| scalar multiples (it once asked for 16 GiB)
    spec = write(tmp_path / "affine.json",
                 {"group": group, "spec": {"variant": "affine", "base": base, "basis": []}})
    out = tmp_path / "a.json"
    code, err = run_cli_capped(["build-source", "--spec", spec, "--out", str(out)])
    assert code == 0, err
    built = json.loads(out.read_text())
    assert built["size"] == 1 and built["elements"] == [base]


def test_pgc_past_its_declared_cost_exits_two_at_once(tmp_path, run_cli_capped):
    # B = 2^26 baby steps (the element budget) leave 2^35 giant steps, past
    # WORK_FACTOR x the budget; the per-point route used to run out of memory
    # after 20 s
    p = (1 << 61) - 1
    source = write(tmp_path / "s.json", {"group": {"kind": "zp", "p": p},
                                         "spec": {"variant": "explicit",
                                                  "elements": [1, 2, 3, 5, p - 1]}})
    t0 = time.perf_counter()
    code, err = run_cli_capped(["extract", "--source", source, "--extractor", "pgc",
                                "--out", str(tmp_path / "e.csv")])
    assert time.perf_counter() - t0 < 5
    assert code == 2 and err.startswith("error: pgc discrete logs") and err.count("\n") == 1
    assert not (tmp_path / "e.csv").exists()


def test_charsum_range_past_its_declared_cost_exits_two_before_any_work(tmp_path,
                                                                         run_cli_capped):
    # 2^26 frequencies x 2000 elements is past WORK_FACTOR x the element budget
    p = 2**31 - 1
    source = write(tmp_path / "s.json", {"group": {"kind": "zp", "p": p},
                                         "spec": {"variant": "random", "size": 2000,
                                                  "seed": 1}})
    out = tmp_path / "c.csv"
    t0 = time.perf_counter()
    code, err = run_cli_capped(["charsum", "--source", source, "--characters",
                                f"0:{1 << 26}", "--out", str(out)])
    assert time.perf_counter() - t0 < 5
    assert code == 2 and "character sums over 2000 elements" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, doc", [
    # the volume 100^3000 of a box
    (["build-source", "--spec"], {"group": {"kind": "zp", "p": 101},
                                  "spec": {"variant": "gap", "b0": 0, "steps": [1] * 3000,
                                           "r": 3000, "s": 100}}),
    # a Bohr set's group order 101^2200
    (["build-source", "--spec"], {"group": {"kind": "zp_vec", "p": 101, "n": 2200},
                                  "spec": {"variant": "bohr", "freqs": [[1] * 2200],
                                           "rho": 0.1}}),
    # the order of that group against the cap of --characters all
    (["charsum", "--characters", "all", "--source"],
     {"group": {"kind": "zp_vec", "p": 101, "n": 2200},
      "spec": {"variant": "explicit", "elements": [[0] * 2200]}}),
    # an integer that json.load refuses to parse
    (["build-source", "--spec"], None),
], ids=["gap-volume", "bohr-order", "charsum-all", "json-int"])
def test_integers_past_4300_digits_exit_two_without_a_traceback(tmp_path, capsys,
                                                                 command, doc):
    path = tmp_path / "in.json"
    if doc is None:
        path.write_text('{"group": {"kind": "zp", "p": 1' + "0" * 4999 + '}, '
                        '"spec": {"variant": "explicit", "elements": [1]}}')
    else:
        write(path, doc)
    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert main([*command, str(path), "--out", str(out)]) == 2
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("extractor, m", [
    ("zpn", 28), ("zpn", 64), ("zpn", 100_000_000_000), ("zp", 100_000_000_000)])
def test_the_output_histogram_is_charged_before_any_point(tmp_path, run_cli_capped,
                                                          extractor, m):
    # 2^m histogram entries against the element budget, 2^m never computed
    group = ({"kind": "zp_vec", "p": 101, "n": 3} if extractor == "zpn"
             else {"kind": "zp", "p": 101})
    element = [1, 2, 3] if extractor == "zpn" else 1
    source = write(tmp_path / "s.json", {"group": group, "spec": {
        "variant": "explicit", "elements": [element]}})
    out = tmp_path / "e.csv"
    t0 = time.perf_counter()
    code, err = run_cli_capped(["extract", "--source", source, "--extractor", extractor,
                                "--m", str(m), "--out", str(out)])
    assert time.perf_counter() - t0 < 5
    assert code == 2, err
    assert err.startswith(f"error: the {extractor} extractor's 2^{m} outputs")
    assert "past the element budget" in err and err.count("\n") == 1 and not out.exists()


def test_a_sweep_row_past_the_output_budget_is_a_row_error(tmp_path, capsys):
    grid = write(tmp_path / "grid.json", {"rows": [
        {"group": {"kind": "zp_vec", "p": 101, "n": 3},
         "source": {"variant": "explicit", "elements": [[1, 2, 3]]},
         "extractor": {"build": "zpn", "m": 64}}]})
    out = str(tmp_path / "sw.csv")
    assert main(["verify", "--suite", "sweep", "--grid", grid, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith('FAIL sweep: {"error":"BudgetError: the zpn extractor') and \
        "Traceback" not in err


def test_a_zpn_group_past_the_modulus_cap_exits_before_its_prime_search(tmp_path, capsys):
    # n primes = 1 (mod p) are each at least p + 1, and 4^200000 >= 2^63:
    # refused before the 200,000 primes = 1 (mod 3) are searched for
    group = {"kind": "zp_vec", "p": 3, "n": 200000}
    elements = [[0] * 200000]
    grid = write(tmp_path / "grid.json", {"rows": [{
        "group": group, "source": {"variant": "explicit", "elements": elements},
        "extractor": {"build": "zpn"}}]})
    for argv in (["extract", "--source", _source(tmp_path, group, elements),
                  "--extractor", "zpn", "--out", str(tmp_path / "e.csv")],
                 ["verify", "--suite", "sweep", "--grid", grid,
                  "--out", str(tmp_path / "sw.csv")]):
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1
        assert "200000 primes = 1 mod 3 multiply to at least" in capsys.readouterr().err
    assert not (tmp_path / "e.csv").exists()


def test_a_wide_output_histogram_has_its_exact_distance(tmp_path):
    # 2^20 outputs: the distance is one integer sum, equal to the Fraction sum
    source = write(tmp_path / "s.json", {"group": {"kind": "zp_vec", "p": 101, "n": 3},
                                         "spec": {"variant": "explicit", "elements": [
                                             [1, 2, 3], [4, 5, 6], [0, 0, 1], [7, 7, 7]]}})
    out = tmp_path / "e.csv"
    assert main(["extract", "--source", source, "--extractor", "zpn", "--m", "20",
                 "--out", str(out)]) == 0
    report = json.loads((tmp_path / "e.csv.report.json").read_text())
    dist = oracles.OutputDistribution(1 << 20, tuple(report["outputs"]), 4)
    assert report["distance"] == oracles.statistical_distance(dist, oracles.uniform(1 << 20))


# ---------------------------------------------------------------------------
# one reading of a JSON number: sources.json_int and json_number
# ---------------------------------------------------------------------------

def _untimed(x):
    """x without its timing keys."""
    if isinstance(x, dict):
        return {k: _untimed(v) for k, v in x.items() if k != "seconds"}
    return [_untimed(v) for v in x] if isinstance(x, list) else x


def _verify_outputs(tmp_path, suite, grid_text):
    """verify's exit code, CSV rows and summary for a grid given as JSON text,
    without their timing keys."""
    grid = tmp_path / "grid.json"
    grid.write_text(grid_text)
    out = tmp_path / "v.csv"
    code = main(["verify", "--suite", suite, "--grid", str(grid), "--out", str(out)])
    rows = list(csv.reader(open(out)))
    keep = [i for i, k in enumerate(rows[0]) if k != "seconds"]
    return (code, [[row[i] for i in keep] for row in rows],
            _untimed(json.loads((tmp_path / "v.csv.summary.json").read_text())))


_ZPN_ROW = {"group": {"kind": "zp_vec", "p": 11, "n": 3},  # q = 23 * 67 * 89: sampled sums
            "source": {"variant": "explicit", "elements": [[1, 2, 3], [4, 0, 9], [10, 10, 1]]},
            "extractor": {"build": "zpn", "m": 1}, "per_character": True}
_AP_FAMILY = {"family": {"kind": "all_aps", "p": 101, "s": 10},
              "extractor": {"build": "zp", "m": 1}}


@pytest.mark.parametrize("suite, grid, key, value", [
    ("l1", {"kwargs": {"pmax": 50}}, ("kwargs", "pmax"), 50.0),
    ("bohr", {"kwargs": {"pmax": 23, "literal_pmax": 11}}, ("kwargs", "literal_pmax"), 11.0),
    ("sweep", {"rows": [_AP_FAMILY]}, ("rows", 0, "family", "p"), 101.0),
    ("sweep", {"rows": [dict(_ROW, extractor={"build": "zp", "m": 2})]},
     ("rows", 0, "extractor", "m"), 2.0),
    ("sweep", {"rows": [dict(_ZPN_ROW, charsum_seed=7)]}, ("rows", 0, "charsum_seed"), 7.0),
])
def test_integral_floats_in_a_grid_run_as_the_ints_they_equal(tmp_path, suite, grid, key,
                                                              value):
    as_float = json.loads(json.dumps(grid))
    node = as_float
    for k in key[:-1]:
        node = node[k]
    node[key[-1]] = value
    want = _verify_outputs(tmp_path, suite, json.dumps(grid))
    assert want[0] == 0
    assert _verify_outputs(tmp_path, suite, json.dumps(as_float)) == want


def _floats(x):
    """x with every JSON integer written as a float."""
    if isinstance(x, list):
        return list(map(_floats, x))
    return float(x) if type(x) is int else x


_ZP_CONFIG = {"variant": "zp", "p": 11, "q": 23, "g": 2, "m": 1}
_AP_ROW = {"group": {"kind": "zp_vec", "p": 5, "n": 3},
           "source": {"variant": "explicit", "elements": [[1, 2, 3], [0, 4, 1]]},
           "extractor": ex.build_ap_extractor(5, 3, 1).to_json()}


@pytest.mark.parametrize("row, floats", [
    (dict(_ROW, extractor=_ZP_CONFIG), dict(_ZP_CONFIG, p=11.0)),
    (dict(_ROW, extractor=_ZP_CONFIG), {k: _floats(v) for k, v in _ZP_CONFIG.items()}),
    (_AP_ROW, {k: _floats(v) for k, v in _AP_ROW["extractor"].items()}),
])
def test_a_full_config_reads_its_numbers_as_json_integers(tmp_path, row, floats):
    want = _verify_outputs(tmp_path, "sweep", json.dumps({"rows": [row]}))
    assert want[0] == 0 and len(want[1]) == 2
    assert _verify_outputs(tmp_path, "sweep",
                           json.dumps({"rows": [dict(row, extractor=floats)]})) == want


@pytest.mark.parametrize("row, message", [
    (dict(_ROW, extractor=dict(_ZP_CONFIG, m=True)), "the extractor's m must be an integer"),
    (dict(_ROW, extractor=dict(_ZP_CONFIG, p=11.5)), "the zp config's p must be an integer"),
    (dict(_AP_ROW, extractor=dict(_AP_ROW["extractor"], custom_poly=0)),
     "not the canonical ap config"),
    (dict(_ROW, extractor=dict(_ZP_CONFIG, x=1)), "the zp config takes no 'x'"),
    (dict(_ROW, extractor={k: v for k, v in _ZP_CONFIG.items() if k != "g"}),
     "the zp config has no 'g'"),
])
def test_a_full_config_that_is_not_the_rebuild_exits_two(tmp_path, capsys, row, message):
    code, rows, _ = _verify_outputs(tmp_path, "sweep", json.dumps({"rows": [row, _ROW]}))
    err = capsys.readouterr().err
    assert code == 2 and len(rows) == 2
    assert err.startswith(f'FAIL sweep: {{"error":"InputError: {message}')


# JSON text, so that 1e400 reaches the program as the float inf that json.load makes
@pytest.mark.parametrize("value", ["1.5", "true", '"3"', "1e400"])
@pytest.mark.parametrize("suite, template, name", [
    ("l1", '{"kwargs": {"pmax": %s}}', "pmax must be an integer"),
    ("sweep", '{"rows": [{"family": {"kind": "all_aps", "p": %s, "s": 5}, '
              '"extractor": {"build": "zp", "m": 1}}]}', "the family's p must be an integer"),
    ("sweep", '{"rows": [{"group": {"kind": "zp", "p": 11}, "source": {"variant": "explicit", '
              '"elements": [1, 2]}, "extractor": {"build": "zp", "m": %s}}]}',
     "the extractor's m must be an integer"),
    ("sweep", '{"rows": [{"group": {"kind": "zp", "p": 11}, "source": {"variant": "explicit", '
              '"elements": [1, 2]}, "extractor": {"build": "zp"}, "charsum_seed": %s}]}',
     "the row's charsum_seed must be an integer"),
])
def test_numbers_that_are_not_integers_exit_two_and_name_their_key(tmp_path, capsys, value,
                                                                   suite, template, name):
    grid = tmp_path / "grid.json"
    grid.write_text(template % value)
    assert main(["verify", "--suite", suite, "--grid", str(grid),
                 "--out", str(tmp_path / "v.csv")]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


@pytest.mark.parametrize("alpha, code", [("0.25", 0), ("NaN", 2), ("1e400", 2)])
def test_a_sweep_row_alpha_must_be_a_finite_number(tmp_path, capsys, alpha, code):
    grid = tmp_path / "grid.json"
    grid.write_text(f'{{"rows": [{canonical_json(_ROW)[:-1]}, "alpha": {alpha}}}]}}')
    assert main(["verify", "--suite", "sweep", "--grid", str(grid),
                 "--out", str(tmp_path / "sw.csv")]) == code
    err = capsys.readouterr().err
    assert code == 0 or "InputError: the row's alpha must be a finite number" in err


def test_a_suite_number_past_the_float_range_exits_two(tmp_path, capsys):
    grid = write(tmp_path / "grid.json", {"kwargs": {"primes": [101], "threshold": 10**400}})
    assert main(["verify", "--suite", "zp-trend", "--grid", grid,
                 "--out", str(tmp_path / "v.csv")]) == 2
    assert capsys.readouterr().err.startswith(
        "error: the zp-trend suite's threshold must be a finite number")


# ---------------------------------------------------------------------------
# keys that must agree with what is built: a GAP's r, a source file's size and digest
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r, code", [(2, 0), (2.0, 0), (5, 2), (1, 2)])
def test_a_gap_r_must_be_its_number_of_steps(tmp_path, capsys, r, code):
    spec = write(tmp_path / "gap.json", {
        "group": {"kind": "zp", "p": 11},
        "spec": {"variant": "gap", "b0": 1, "steps": [1, 2], "s": 3, "r": r}})
    out = tmp_path / "gap.src.json"
    assert main(["build-source", "--spec", spec, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err == f"error: the source spec's r = {r} is not its 2 steps\n"
        assert not out.exists()
    else:
        assert json.loads(out.read_text())["spec"]["r"] == 2


@pytest.mark.parametrize("key, value", [("size", 3), ("size", 8), ("digest", "0" * 64)])
def test_a_source_file_size_and_digest_must_be_those_built(tmp_path, capsys, key, value):
    spec = write(tmp_path / "ap.json", {"group": {"kind": "zp", "p": 101},
                                        "spec": {"variant": "ap", "b0": 0, "step": 3, "k": 7}})
    built = tmp_path / "ap.src.json"
    assert main(["build-source", "--spec", spec, "--out", str(built)]) == 0
    doc = json.loads(built.read_text())
    assert doc["size"] == 7
    assert main(["profile", "--source", str(built), "--alpha", "0.25"]) == 0
    capsys.readouterr()
    bad = write(tmp_path / "bad.json", dict(doc, **{key: value}))
    assert main(["profile", "--source", bad, "--alpha", "0.25"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {key} {value} is not the ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# extractor.v1.json describes every config that is written
# ---------------------------------------------------------------------------

def test_written_configs_are_valid_under_the_extractor_schema(tmp_path):
    from importlib import resources
    from jsonschema import Draft7Validator
    schema = json.loads(resources.files("addext.schemas").joinpath("extractor.v1.json")
                        .read_text())
    validator = Draft7Validator(schema)
    written = []
    for kind, family in sorted(FITS):
        spec = _source(tmp_path, GROUPS[kind], ELEMENTS[kind])
        out = str(tmp_path / "ext.csv")
        assert main(["extract", "--source", spec, "--extractor", family, "--out", out]) == 0
        written.append(json.load(open(out + ".report.json"))["config"])
        written.append(ex.build_for_group(family, src.Group.from_json(GROUPS[kind])).to_json())
    assert {c["variant"] for c in written} == set(ex.GROUP_KINDS)
    for config in written:
        validator.validate(config)
        # the schema allows other keys: every written key must be one it types
        assert set(config) <= set(schema["properties"]), config


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

TIMING_KEYS = {"started_utc", "elapsed_seconds", "seconds"}


def _without_timing(obj):
    if isinstance(obj, dict):
        return {k: _without_timing(v) for k, v in obj.items() if k not in TIMING_KEYS}
    return [_without_timing(v) for v in obj] if isinstance(obj, list) else obj


def _outputs(directory):
    return {path.name: (_without_timing(json.loads(path.read_text())) if path.suffix == ".json"
                        else path.read_bytes())
            for path in sorted(directory.iterdir()) if path.name != "src.json"}


def test_the_parser_is_built_once_and_main_runs_as_in_fresh_processes(tmp_path, monkeypatch):
    from addext import cli
    assert cli.build_parser() is cli.build_parser()
    commands = [["extract", "--source", "src.json", "--extractor", "zpn", "--m", "2",
                 "--out", "ext.csv", "--threads", "1"],
                ["charsum", "--source", "src.json", "--characters", "all", "--out", "c.csv",
                 "--threads", "1"]]
    dirs = [tmp_path / "in-process", tmp_path / "fresh"]
    for d in dirs:
        d.mkdir()
        _source(d, GROUPS["zp_vec"], ELEMENTS["zp_vec"])
    monkeypatch.chdir(dirs[0])
    for argv in commands:
        assert main(argv) == 0
    pkg_root = str(Path(src.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [pkg_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for argv in commands:
        assert subprocess.run([sys.executable, "-m", "addext.cli", *argv], cwd=dirs[1],
                              env=env, timeout=60).returncode == 0
    assert _outputs(dirs[0]) == _outputs(dirs[1])
    assert len(_outputs(dirs[0])) == 5  # two CSVs, a report and two manifests


@pytest.mark.parametrize("n", [1, 3])
def test_all_lines_rows_take_only_n_2(tmp_path, capsys, monkeypatch, n):
    # the line scan runs over F_q^2: any other n is refused before F_q is built
    monkeypatch.setattr(ex, "prime_power_field", lambda q: pytest.fail("F_q was built"))
    grid = write(tmp_path / "grid.json", {"rows": [
        {"family": {"kind": "all_lines", "q": 9, "n": n}, "extractor": {"build": "line"}}]})
    assert main(["verify", "--suite", "sweep", "--grid", grid,
                 "--out", str(tmp_path / "sw.csv")]) == 2
    assert capsys.readouterr().err.startswith(
        f'FAIL sweep: {{"error":"InputError: the family\'s n must be 2 ')


_THREADS_CHILD = """\
import json, os
import addext.cli
print(json.dumps({"threads": len(os.listdir("/proc/self/task")),
                  "setting": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc")
@pytest.mark.parametrize("outside, threads, setting", [(None, 1, "1"), ("2", None, "2")])
def test_importing_the_cli_leaves_one_thread_unless_blas_threads_are_asked_for(
        outside, threads, setting):
    # the package sets OPENBLAS_NUM_THREADS=1 before numpy loads, so no idle
    # BLAS worker spins beside the one thread that does the work; a user's own
    # setting is kept
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if outside is not None:
        env["OPENBLAS_NUM_THREADS"] = outside
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(src.__file__).parent.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _THREADS_CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["setting"] == setting
    assert threads is None or out["threads"] == threads
