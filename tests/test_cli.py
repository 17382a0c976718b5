import csv
import json

import pytest

from addext import extractors as ex, suites
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
    """One extract_many call over the whole source. In it zp and zpn make one
    one-point call per point; line, ap and pgc take their batch routes and
    make none."""
    real_many = ex.extract_many
    for kind, family in sorted(FITS):
        batches, calls = [], []
        real = getattr(ex, f"{family}_extract")

        def counted(x, cfg, real=real, calls=calls):
            calls.append(x)
            return real(x, cfg)

        def counted_many(cfg, points, batches=batches):
            batches.append(len(points))
            return real_many(cfg, points)

        monkeypatch.setattr(ex, f"{family}_extract", counted)
        monkeypatch.setattr(ex, "extract_many", counted_many)
        spec = _source(tmp_path, GROUPS[kind], ELEMENTS[kind])
        assert main(["extract", "--source", spec, "--extractor", family,
                     "--out", str(tmp_path / "once.csv")]) == 0
        assert batches == [len(ELEMENTS[kind])], (kind, family, batches)
        one_point = len(ELEMENTS[kind]) if family in ("zp", "zpn") else 0
        assert len(calls) == one_point, (kind, family, len(calls))


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
