"""Sources as int64 element arrays, against the route of ints, tuples and sets.

Explicit source documents are drawn over zp, zn, zp_vec and fq_vec groups:
their element lists come unsorted, with duplicates, at times with integral
floats, and at times with one bad entry at a random depth (an entry of the
list, or a coordinate of a vector). Each document goes through build-source,
extract (all five families) and charsum, in-process. The exit code, the
message, and the bytes of the source file, the CSV and the report (its
``seconds`` aside) must be what the oracle route gives: elements read one
entry at a time, checked one at a time, deduplicated as a frozenset and
sorted (``oracles.explicit_elements``), digested as lists, encoded by
Python's ``pow``, evaluated by the one-point extractors and written by the
csv module one row at a time.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from addext import analysis as an, extractors as ex, sources as src
from addext.canonical import canonical_json, digest
from addext.cli import main
from addext.errors import AddextError

FAMILIES = ("zp", "zpn", "line", "ap", "pgc")
GROUPS = [{"kind": "zp", "p": 2}, {"kind": "zp", "p": 11}, {"kind": "zp", "p": 10007},
          {"kind": "zn", "moduli": [4, 9, 5]}, {"kind": "zn", "moduli": [3, 7]},
          {"kind": "zp_vec", "p": 2, "n": 3}, {"kind": "zp_vec", "p": 5, "n": 2},
          {"kind": "zp_vec", "p": 11, "n": 3}, {"kind": "zp_vec", "p": 101, "n": 1},
          {"kind": "fq_vec", "p": 2, "k": 2, "n": 2}, {"kind": "fq_vec", "p": 3, "k": 2, "n": 3},
          {"kind": "fq_vec", "p": 7, "k": 1, "n": 2}]
# a bad entry of the list, and a bad coordinate of a vector
BAD_ENTRIES = [-1, "7", 1.5, True, None, 2**63, 2**64, [], {}]
BAD_COORDINATES = [-1, "7", 2.5, False, None, 2**63, [0]]


def _order(group: dict) -> tuple[int, int | None]:
    """The order of an element (Z_p, Z_N) or of a coordinate, and n for vectors."""
    if group["kind"] == "zn":
        return int(np.prod(group["moduli"])), None
    return group["p"] ** group.get("k", 1), group.get("n")


@st.composite
def documents(draw) -> dict:
    group = draw(st.sampled_from(GROUPS))
    bound, n = _order(group)
    value = st.integers(0, bound - 1)
    element = value if n is None else st.lists(value, min_size=n, max_size=n)
    pool = draw(st.lists(element, min_size=1, max_size=8))
    entries = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=14))
    entries = [list(x) if isinstance(x, list) else x for x in entries]
    for i in draw(st.sets(st.integers(0, len(entries) - 1))):  # integral floats
        entries[i] = [float(a) for a in entries[i]] if n else float(entries[i])
    if draw(st.integers(0, 2)) == 0:
        i = draw(st.integers(0, len(entries) - 1))
        if n and draw(st.booleans()):
            entries[i][draw(st.integers(0, n - 1))] = draw(st.sampled_from(
                BAD_COORDINATES + [bound]))
        else:
            wrong_kind = 3 if n else [3] * draw(st.integers(1, 2))
            entries[i] = draw(st.sampled_from(BAD_ENTRIES + [bound, wrong_kind]
                                              + ([[0] * (n + 1), [0] * (n - 1)] if n else [])))
    return {"group": group, "spec": {"variant": "explicit", "elements": entries}}


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _outputs(cfg, elements: list) -> list[int]:
    """The extractor's output at each element, one at a time."""
    if isinstance(cfg, (ex.ZpExtractorConfig, ex.ZpnExtractorConfig)):
        return [y % cfg.M for y in oracles.encode_many_by_pow(cfg, elements)]
    one = {ex.LineExtractorConfig: oracles.line_extract, ex.ApExtractorConfig: oracles.ap_extract,
           ex.PgcExtractorConfig: oracles.pgc_extract}[type(cfg)]
    return [one(x, cfg) for x in elements]


def _extract_files(group, elements: list, cfg) -> tuple[str, dict]:
    """The extract command's CSV text and its report, seconds aside."""
    outputs = _outputs(cfg, elements)
    counts = tuple(outputs.count(v) for v in range(cfg.M))
    distance = oracles.statistical_distance(
        oracles.OutputDistribution(cfg.M, counts, len(outputs)), oracles.uniform(cfg.M))
    report = {"config_digest": digest(cfg.to_json()),
              "source_digest": oracles.source_digest(group, elements), "size": len(elements),
              "distance": distance, "max_charsum": None, "bound": None, "ok": True,
              "asserted": True, "outputs": list(counts), "config": cfg.to_json()}
    rows = [[oracles.element_text(x), y] for x, y in zip(elements, outputs)]
    return oracles.csv_text(["element", "output"], rows), report


def _charsum_csv(group, elements: list) -> str:
    """The charsum command's CSV over every nonzero frequency, one row at a time."""
    m, N = group.zmn
    index = range(1, group.order)
    mags = an.charsum_table(np.array(elements, dtype=np.int64), m, index)
    freqs = [tuple(i // m**j % m for j in range(N)) if group.kind == "zp_vec" else i
             for i in index]
    return oracles.csv_text(["frequency", "magnitude"],
                            [[oracles.element_text(x), f"{v:.17g}"] for x, v in zip(freqs, mags)])


@settings(max_examples=120, deadline=None)
@given(documents(), st.integers(1, 3))
@example({"group": {"kind": "zp", "p": 11}, "spec": {"variant": "explicit", "elements": []}}, 1)
@example({"group": {"kind": "zp_vec", "p": 5, "n": 2},
          "spec": {"variant": "explicit", "elements": [[1, 2], [3, 4, 0], [1, 2]]}}, 1)
@example({"group": {"kind": "zp_vec", "p": 5, "n": 2},
          "spec": {"variant": "explicit", "elements": [[1, 2], 3]}}, 1)
@example({"group": {"kind": "zp", "p": 11},
          "spec": {"variant": "explicit", "elements": [[1], [2]]}}, 1)
@example({"group": {"kind": "zp_vec", "p": 11, "n": 3},
          "spec": {"variant": "explicit", "elements": [[]]}}, 1)
def test_element_arrays_match_the_set_route(doc, m):
    group = src.Group.from_json(doc["group"])
    try:
        elements = oracles.explicit_elements(group, doc["spec"]["elements"])
        refusal = None
    except AddextError as exc:
        refusal = f"error: {exc}\n"
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "doc.json").write_text(canonical_json(doc))
        source = str(tmp / "doc.json")
        code, err = _run(["build-source", "--spec", source, "--out", str(tmp / "built.json")])
        if refusal:
            assert (code, err) == (2, refusal)
        else:
            listed = [oracles.element_json(x) for x in src._elements(
                doc["spec"]["elements"], "the source spec's elements")]
            want = {"group": group.to_json(), "spec": {"variant": "explicit", "elements": listed},
                    "size": len(elements), "digest": oracles.source_digest(group, elements),
                    "elements": [oracles.element_json(x) for x in elements], "notes": {}}
            assert code == 0
            assert (tmp / "built.json").read_text() == canonical_json(want) + "\n"
        for family in FAMILIES:
            out = tmp / f"{family}.csv"
            code, err = _run(["extract", "--source", source, "--extractor", family,
                              "--m", str(m), "--out", str(out)])
            if refusal:
                assert (code, err) == (2, refusal) and not out.exists()
                continue
            try:
                cfg = ex.build_for_group(family, group, m)
            except AddextError as exc:
                assert (code, err) == (2, f"error: {exc}\n") and not out.exists()
                continue
            text, report = _extract_files(group, elements, cfg)
            assert code == 0, err
            assert out.read_bytes() == text.encode()
            got = (tmp / f"{family}.csv.report.json").read_text()
            assert got == canonical_json(json.loads(got)) + "\n"
            got = json.loads(got)
            assert got.pop("seconds") >= 0 and got == report
        out = tmp / "charsum.csv"
        code, err = _run(["charsum", "--source", source, "--out", str(out)])
        if refusal or group.field:
            want_err = refusal or "error: additive characters over Z_p, Z_p^n or Z_N only\n"
            assert (code, err) == (2, want_err) and not out.exists()
        else:
            assert code == 0 and out.read_bytes() == _charsum_csv(group, elements).encode()
