"""The load stage: the packaged schemas are the published contract of the
input files, and the readers of ``sources`` and ``suites`` are the one check
that enforces it. jsonschema, imported here only, is the oracle: every
document it judges invalid must exit 2 through the readers alone."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from addext import cli, sources as src
from addext.canonical import canonical_json
from addext.cli import main


def _packaged():
    return sorted((f.name, json.loads(f.read_text()))
                  for f in resources.files("addext.schemas").iterdir()
                  if f.name.endswith(".json"))


def test_packaged_schemas_are_valid_draft7():
    names = [name for name, _ in _packaged()]
    assert names == ["extractor.v1.json", "grid.v1.json", "source.v1.json"]
    for name, schema in _packaged():
        Draft7Validator.check_schema(schema)


_SCHEMAS = {name: Draft7Validator(schema) for name, schema in _packaged()}


@pytest.mark.parametrize("elements", [["x"], [1.5, True], [[1, -1]], [None]])
def test_top_level_elements_are_schema_checked(tmp_path, capsys, elements):
    spec = tmp_path / "src.json"
    spec.write_text(canonical_json({"group": {"kind": "zp", "p": 11},
                                    "spec": {"variant": "explicit", "elements": [1]},
                                    "elements": elements}))
    out = tmp_path / "out.json"
    assert main(["build-source", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("doc", [
    {"group": {"kind": "zp", "p": 101}, "spec": {"variant": "gap", "b0": 5, "steps": [1, 9],
                                                  "r": 2, "s": 8}},
    {"group": {"kind": "zp", "p": 101}, "spec": {"variant": "bohr", "freqs": [1, 7],
                                                  "rho": 0.3}},
    {"group": {"kind": "zp_vec", "p": 7, "n": 2}, "spec": {"variant": "line", "a": [1, 2],
                                                          "d": [0, 3]}},
    {"group": {"kind": "fq_vec", "p": 2, "k": 3, "n": 2},
     "spec": {"variant": "affine", "base": [1, 2], "basis": [[1, 5]]}},
    {"group": {"kind": "zn", "moduli": [9, 35]}, "spec": {"variant": "random", "size": 20,
                                                         "seed": 4}},
    {"group": {"kind": "zp", "p": 11}, "spec": {"variant": "explicit", "elements": [3, 1, 3]}},
])
def test_every_built_source_loads_again(tmp_path, doc):
    spec, out1, out2 = tmp_path / "spec.json", tmp_path / "a.json", tmp_path / "b.json"
    spec.write_text(canonical_json(doc))
    assert main(["build-source", "--spec", str(spec), "--out", str(out1)]) == 0
    assert main(["build-source", "--spec", str(out1), "--out", str(out2)]) == 0
    assert json.loads(out1.read_text()) == json.loads(out2.read_text())


_GAP = {"variant": "gap", "b0": 1, "steps": [1], "s": 3}  # {1, 2, 3} in Z_11
_EXPLICIT = {"variant": "explicit", "elements": [3, 1]}
_RANDOM = {"variant": "random", "size": 3, "seed": 5}
_DRAWN = src.build_source(src.spec_from_json(_RANDOM), src.Group.zp(11)).elements.tolist()


@pytest.mark.parametrize("spec, elements, code", [
    (_GAP, [5, 7], 2), (_GAP, [1, 2], 2), (_GAP, [1, 2, 3, 4], 2), (_GAP, [3, 1, 2, 2], 0),
    (_EXPLICIT, [1, 3, 3], 0), (_EXPLICIT, [1], 2), (_EXPLICIT, [1, 3, 5], 2),
    (_RANDOM, _DRAWN[::-1], 0), (_RANDOM, _DRAWN[1:] + [min(set(range(11)) - set(_DRAWN))], 2)])
def test_a_spec_beside_an_elements_list_must_describe_them(tmp_path, capsys, spec, elements,
                                                           code):
    doc = tmp_path / "doc.json"
    doc.write_text(canonical_json({"group": {"kind": "zp", "p": 11}, "spec": spec,
                                   "elements": elements}))
    built = src.build_source(src.spec_from_json(spec), src.Group.zp(11))
    out = tmp_path / "out.json"
    for argv in (["build-source", "--spec", str(doc), "--out", str(out)],
                 ["profile", "--source", str(doc), "--alpha", "0.5"]):
        assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == 2 * f"error: {doc}: the elements are not the {len(built)} elements that " \
                          f"its {spec['variant']} spec builds\n"
        assert not out.exists()
    else:
        assert json.loads(out.read_text())["elements"] == built.elements.tolist()


# ---------------------------------------------------------------------------
# the contract: every document the schemas refuse, the readers refuse
# ---------------------------------------------------------------------------

BUDGET = 1 << 16
_NAN, _INF = float("nan"), float("inf")
# one field's wrong value: another type, negative, zero, out of range, not finite
_WRONG = [-1, 0, 1, 1.5, -2.0, 1 << 70, _NAN, _INF, -_INF, True, False, "x", "1", None, [],
          [-1], [1.0], {}, {"kind": "zp"}]

_SPECS = [  # (group, spec): every group kind and spec variant
    ({"kind": "zp", "p": 11}, {"variant": "gap", "b0": 1, "steps": [1, 3], "s": 2, "r": 2}),
    ({"kind": "zp", "p": 11}, {"variant": "ap", "b0": 0, "step": 3, "k": 4}),
    ({"kind": "zp", "p": 11}, {"variant": "hap", "step": 2, "k": 3}),
    ({"kind": "zp", "p": 11}, {"variant": "bohr", "freqs": [1, 3], "rho": 0.3}),
    ({"kind": "zp", "p": 11}, {"variant": "explicit", "elements": [1, 5]}),
    ({"kind": "zp", "p": 11}, {"variant": "random", "size": 4, "seed": 1}),
    ({"kind": "zp_vec", "p": 5, "n": 2}, {"variant": "gap", "b0": [0, 1], "steps": [[1, 2]],
                                          "s": 3}),
    ({"kind": "zp_vec", "p": 5, "n": 2}, {"variant": "bohr", "freqs": [[1, 2]], "rho": 0.2}),
    ({"kind": "zp_vec", "p": 5, "n": 2}, {"variant": "line", "a": [1, 2], "d": [0, 1]}),
    ({"kind": "zp_vec", "p": 5, "n": 2}, {"variant": "affine", "base": [0, 1],
                                          "basis": [[1, 1]]}),
    ({"kind": "fq_vec", "p": 2, "k": 2, "modulus": [1, 1, 1], "n": 2},
     {"variant": "line", "a": [1, 2], "d": [3, 1]}),
    ({"kind": "fq_vec", "p": 2, "k": 2, "n": 2}, {"variant": "explicit",
                                                  "elements": [[0, 1], [3, 2]]}),
    ({"kind": "zn", "moduli": [3, 5]}, {"variant": "ap", "b0": 2, "step": 4, "k": 5}),
    ({"kind": "zn", "moduli": [3, 5]}, {"variant": "random", "size": 6, "seed": 3}),
]


def _file(group, spec, built):
    """A source file: the spec alone, or (``built``) what build-source writes
    for it, with its elements, size, digest and notes."""
    if not built:
        return {"group": group, "spec": spec}
    X = src.build_source(src.spec_from_json(spec), src.Group.from_json(group))
    return X.to_json()


_ZP = {"group": {"kind": "zp", "p": 11}, "source": {"variant": "explicit", "elements": [1, 2]}}
_ROWS = [  # sweep rows of each kind: a source row by build or by full config, both families
    dict(_ZP, extractor={"build": "zp", "m": 1}, alpha=0.25, per_character=True,
         charsum_seed=7),
    dict(_ZP, extractor={"variant": "zp", "p": 11, "q": 23, "g": 2, "m": 1}),
    {"group": {"kind": "zp_vec", "p": 5, "n": 2}, "source": {"variant": "line", "a": [1, 2],
                                                             "d": [0, 1]},
     "extractor": {"build": "zpn"}, "per_character": False},
    {"group": {"kind": "zp_vec", "p": 5, "n": 2}, "source": {"variant": "line", "a": [1, 2],
                                                             "d": [0, 1]},
     "extractor": {"build": "line"}},
    {"family": {"kind": "all_aps", "p": 11, "s": 3}, "extractor": {"build": "zp", "m": 1}},
    {"family": {"kind": "all_lines", "q": 4, "n": 2}, "extractor": {"build": "line"}},
]
_KWARGS = [  # suite kwargs that run in milliseconds
    ("weil", {"primes": [11], "polys_per_p": 3, "dmax": 3, "seed": 1}),
    ("l1", {"pmax": 13}),
    ("xor", {"moduli": [15]}),
    ("bohr", {"pmax": 7, "rhos": [0.2], "literal_pmax": 5}),
    ("zp-trend", {"primes": [11, 13], "threshold": 0.5}),
    ("moments", {"qs": [11], "ts": [1], "parseval_sets": 2}),
]

_cases = st.one_of(
    st.builds(lambda gs, built: ("build-source", _file(*gs, built)),
              st.sampled_from(_SPECS), st.booleans()),
    st.builds(lambda rows: ("sweep", {"rows": rows}),
              st.lists(st.sampled_from(_ROWS), min_size=1, max_size=2)),
    st.sampled_from(_KWARGS).map(lambda sk: (sk[0], {"kwargs": sk[1]})))


def _paths(x, path=()):
    yield path
    if isinstance(x, (dict, list)):
        for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
            yield from _paths(v, path + (k,))


@st.composite
def _mutated(draw, hows=("wrong", "wrong", "wrong", "drop", "misspell", "add")):
    """A valid document with one field changed at any depth: a wrong value, or
    a key dropped, misspelt or added."""
    command, doc = draw(_cases)
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    how = draw(st.sampled_from(hows))
    if not path:  # the document itself
        return command, draw(st.sampled_from(_WRONG)) if how == "wrong" else doc
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    if how == "wrong" or not isinstance(parent, dict):
        parent[key] = copy.deepcopy(draw(st.sampled_from(_WRONG)))
    elif how == "drop":
        del parent[key]
    elif how == "misspell":
        parent[draw(st.sampled_from([key[:-1], key + "s", key.upper()]))] = parent.pop(key)
    else:
        parent[draw(st.sampled_from(["extra", "p", "kind", "variant", "r", "notes", "kwargs",
                                     "rows", "per_character"]))] = \
            copy.deepcopy(draw(st.sampled_from(_WRONG)))
    return command, doc


def _run(command, doc):
    """(exit code, stderr, whether the output was written, the summary or
    None) of the command on ``doc``, in-process under ADDEXT_BUDGET = BUDGET."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ,
                                                               ADDEXT_BUDGET=str(BUDGET)):
        path, out = Path(tmp) / "in.json", Path(tmp) / "out"
        path.write_text(json.dumps(doc))  # NaN and inf as json.load reads them back
        if command == "build-source":
            argv = ["build-source", "--spec", str(path), "--out", str(out)]
        else:
            argv = ["verify", "--suite", command, "--grid", str(path), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        summary = Path(f"{out}.summary.json")
        return (code, err.getvalue(), out.exists(),
                json.loads(summary.read_text()) if summary.exists() else None)


def _source(group=None, **spec):
    return {"group": group or {"kind": "zp", "p": 11}, "spec": {"variant": "gap", **spec}}


def _gap(**fields):
    return {"group": {"kind": "zp", "p": 11},
            "spec": {"variant": "gap", "b0": 1, "steps": [1], "s": 2, **fields}}


def _schema_of(command):
    return _SCHEMAS["source.v1.json" if command == "build-source" else "grid.v1.json"]


def _refused_as_the_schema_says(command, doc):
    """Run ``doc``: no traceback, and if its schema refuses it, exit 2 through
    the readers, worded as the file's fault or as its faulty rows'."""
    schema = _schema_of(command)
    code, err, wrote, summary = _run(command, doc)
    assert code in (0, 1, 2) and "Traceback" not in err
    if schema.is_valid(doc):
        return
    assert code == 2, (doc, err)
    if summary is None:
        # the file as a whole is refused: one error line, no output; a sweep's
        # grid so only for a fault outside its rows
        assert err.startswith("error: ") and err.count("\n") == 1 and not wrote, err
        if command == "sweep" and isinstance(doc, dict) and isinstance(doc.get("rows"), list):
            assert _run(command, {**doc, "rows": []})[0] == 2, doc
        return
    # a sweep that ran: the grid is valid but for its rows, each faulty row is
    # that row's error, and the other rows are written
    assert command == "sweep" and schema.is_valid({**doc, "rows": []}), doc
    row_schema = Draft7Validator(schema.schema["properties"]["rows"]["items"])
    failed = {f["grid_index"] for f in summary["failures"]}
    assert {i for i, row in enumerate(doc["rows"]) if not row_schema.is_valid(row)} <= failed
    assert wrote and len(summary["rows"]) == len(doc["rows"]) - len(failed)


@settings(max_examples=400, deadline=None)
@given(_mutated())
# each gap the readers had beside the checker: a notes, rows, per_character or
# kwargs of the wrong type, and an element entry below 0
@example(("build-source", {**_gap(), "notes": []}))
@example(("build-source", {**_file(*_SPECS[4], True), "notes": 5}))
@example(("build-source", {"group": {"kind": "zp", "p": 11},
                           "spec": {"variant": "bohr", "freqs": [-1], "rho": 0.3}}))
@example(("build-source", {"group": {"kind": "zp_vec", "p": 5, "n": 2},
                           "spec": {"variant": "bohr", "freqs": [[1, -2]], "rho": 0.3}}))
@example(("build-source", {**_file(*_SPECS[4], True),
                           "spec": {"variant": "explicit", "elements": [1, -1]}}))
@example(("sweep", {"rows": {}}))
@example(("sweep", {"rows": 5}))
@example(("sweep", {"rows": [dict(_ROWS[0], per_character=1), _ROWS[1]]}))
@example(("sweep", {"rows": [dict(_ROWS[0], per_character="x")]}))
@example(("sweep", {"rows": [dict(_ROWS[0], per_character=[])]}))
@example(("weil", {"kwargs": []}))
@example(("l1", {"kwargs": 5}))
@example(("xor", {"kwargs": "x"}))
# and a group's n or k, or a GAP's r, below the schemas' minimum of 1
@example(("build-source", {"group": {"kind": "zp_vec", "p": 5, "n": 0},
                           "spec": {"variant": "gap", "b0": [], "steps": [], "s": 1}}))
@example(("build-source", {"group": {"kind": "fq_vec", "p": 2, "k": -1, "modulus": [], "n": 1},
                           "spec": {"variant": "explicit", "elements": [[0]]}}))
@example(("build-source", _gap(steps=[], r=0)))
# a valid n whose order m^N would take hours to compute: refused by its cost
@example(("build-source", {"group": {"kind": "zp_vec", "p": 5, "n": 1 << 70},
                           "spec": {"variant": "bohr", "freqs": [[1, 2]], "rho": 0.2}}))
def test_schema_invalid_inputs_exit_two_through_the_readers(case):
    _refused_as_the_schema_says(*case)


_CHECKER_CASES = [  # the examples of the Draft-7 checker these readers replace
    ("build-source", _source({"kind": "zp", "p": 11.0})),  # integral float
    ("build-source", _source({"kind": "zp", "p": True})),  # a bool is no integer
    ("build-source", _source({"kind": "zp", "p": _NAN})),
    ("build-source", _source({"kind": "zp", "p": _INF})),
    ("build-source", _source({"kind": "zp", "p": 1 << 70})),
    ("build-source", _source({"kind": "zp", "p": 1.5})),
    ("build-source", _source(rho=_NAN)),  # NaN passes the bounds
    ("build-source", _source(rho=json.loads("1e400"))),
    ("build-source", _source(rho=-_INF)),
    ("build-source", _source(rho=0)),
    ("build-source", _source(rho=1)),
    ("build-source", _source(rho=True)),
    ("build-source", _source(r=1, s=0)),
    ("build-source", _source(steps=[1 << 64, 0, [1.0, 2]])),
    ("build-source", _source(steps=[[True]])),
    ("build-source", _source(steps=[-1])),
    ("build-source", _source(steps=["x"])),
    ("build-source", _source(steps={"a": -1})),
    ("build-source", {"group": {"kind": "zp", "p": 11}}),  # a required key missing
    ("build-source", {**_source(), "extra": [-1]}),
    ("build-source", {**_source(), "notes": [1]}),
    ("build-source", [_source()]),
    ("sweep", {"rows": [{"alpha": _NAN, "charsum_seed": 1.0}]}),
    ("sweep", {"rows": [{"alpha": True}]}),
    ("sweep", {"rows": [{"per_character": 1}]}),
    ("sweep", {"rows": [{"family": {"kind": "all_aps", "p": 11.5}}]}),
    ("sweep", {"rows": [{"family": {"p": 11}}]}),
    ("sweep", {"rows": {"family": 1}}),
]


def test_checker_agrees_with_draft7_on_the_packaged_schemas():
    # the readers are the one checker: on each document that once told the
    # Draft-7 checker's keywords apart, they refuse what Draft7Validator refuses
    for command, doc in _CHECKER_CASES:
        _refused_as_the_schema_says(command, doc)


def _named_key(error):
    """The key a jsonschema error is about: the property a ``required`` misses,
    else the innermost key of its path (None for the document itself)."""
    if error.validator == "required":
        return min(set(error.validator_value) - set(error.instance))
    return next((k for k in reversed(error.path) if isinstance(k, str)), None)


@settings(max_examples=60, deadline=None)
@given(_mutated(hows=("wrong", "drop")))  # a misspelt or added key may be a second fault
@example(("build-source", {"group": {"kind": "zp", "p": 11},
                           "spec": {"variant": "bohr", "freqs": [1, 3], "rho": 0}}))
@example(("build-source", _source({"kind": "zp", "p": "x"})))
@example(("build-source", {"spec": _EXPLICIT}))
@example(("build-source", {"group": {"kind": "fq_vec", "p": -1, "k": 2, "modulus": [1, 1, 1],
                                     "n": 2}, "spec": {"variant": "line", "a": [1], "d": [1]}}))
def test_rejected_documents_exit_two_with_jsonschemas_message(case):
    # the reader words the refusal, and names the key that jsonschema's one
    # error names
    command, doc = case
    errors = list(_schema_of(command).iter_errors(doc))
    if len(errors) != 1:
        return
    code, err, wrote, summary = _run(command, doc)
    if summary is not None:  # a sweep's faulty row is worded in its summary
        return
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and not wrote
    key = _named_key(errors[0])
    assert key is None or key in err, (doc, errors[0].message, err)


def test_the_valid_documents_run():
    # the mutations start from documents that run: a refusal is the mutation's
    for group, spec in _SPECS:
        for built in (False, True):
            assert _run("build-source", _file(group, spec, built))[0] == 0, spec
    assert _run("sweep", {"rows": _ROWS})[:3] == (0, "", True)
    for name, kwargs in _KWARGS:
        assert _run(name, {"kwargs": kwargs})[0] in (0, 1), name


_CHILD = """\
import json, sys
from addext.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "jsonschema": "jsonschema" in sys.modules}))
"""


def _in_one_interpreter(tmp_path, argvs):
    """Run each argv through ``addext.cli.main`` in one fresh interpreter:
    (exit codes, whether jsonschema was imported, stderr)."""
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [pkg_root] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["codes"], out["jsonschema"], proc.stderr


def test_valid_inputs_never_import_jsonschema(tmp_path):
    # nor does a rejected one: the readers word every refusal
    (tmp_path / "spec.json").write_text(canonical_json(_source(b0=5, steps=[1, 9], r=2,
                                                               s=8)))
    (tmp_path / "grid.json").write_text(canonical_json({"kwargs": {"primes": [11],
                                                                   "polys_per_p": 5}}))
    (tmp_path / "bad.json").write_text(canonical_json(_source({"kind": "zp", "p": "x"})))
    codes, imported, err = _in_one_interpreter(tmp_path, [
        ["build-source", "--spec", "spec.json", "--out", "src.json"],
        ["extract", "--source", "src.json", "--extractor", "zp", "--out", "x.csv"],
        ["verify", "--suite", "weil", "--grid", "grid.json", "--out", "v.csv"],
        ["build-source", "--spec", "bad.json", "--out", "bad.src.json"]])
    assert (codes, imported, err) == ([0, 0, 0, 2], False,
                                      "error: the group's p must be an integer, not 'x'\n")
    assert not (tmp_path / "bad.src.json").exists()


def test_a_rejected_input_imports_jsonschema_for_its_message(tmp_path):
    # named for when a refusal imported jsonschema to word it: now the reader
    # of each command words its own and nothing imports jsonschema
    (tmp_path / "src.json").write_text(canonical_json({**_file(*_SPECS[4], False),
                                                       "elements": [1, -1]}))
    (tmp_path / "grid.json").write_text(canonical_json({"kwargs": []}))
    (tmp_path / "rows.json").write_text(canonical_json({"rows": 5}))
    codes, imported, err = _in_one_interpreter(tmp_path, [
        ["extract", "--source", "src.json", "--extractor", "zp", "--out", "x.csv"],
        ["verify", "--suite", "weil", "--grid", "grid.json", "--out", "v.csv"],
        ["verify", "--suite", "sweep", "--grid", "rows.json", "--out", "s.csv"]])
    assert (codes, imported, err.splitlines()) == ([2, 2, 2], False, [
        "error: each of the source file src.json's elements must be an integer >= 0, not -1",
        "error: the grid's kwargs must be a JSON object, not []",
        "error: the grid's rows must be a list, not 5"])
    assert not any((tmp_path / f).exists() for f in ("x.csv", "v.csv", "s.csv"))


_LIMIT = sys.getrecursionlimit()


def _nested(depth: int) -> str:
    return "[" * depth + "0" + "]" * depth


@pytest.mark.parametrize("depth", [1, 10, _LIMIT // 2, _LIMIT - 60, _LIMIT - 20, _LIMIT,
                                   _LIMIT + 20, 2 * _LIMIT, 100 * _LIMIT])
@pytest.mark.parametrize("where", ["notes", "spec.elements", "grid kwargs"])
def test_nested_inputs_exit_zero_or_two(tmp_path, capsys, depth, where):
    path, out = tmp_path / "in.json", tmp_path / "out"
    if where == "grid kwargs":
        path.write_text('{"kwargs": {"x": %s}}' % _nested(depth))
        argv = ["verify", "--suite", "weil", "--grid", str(path), "--out", str(out)]
    else:
        notes, spec = "{}", "[1]"
        if where == "notes":  # with top-level elements, the notes reach the output
            notes = '{"x": %s}' % _nested(depth)
        else:
            spec = "[%s]" % _nested(depth)
        path.write_text('{"group": {"kind": "zp", "p": 11}, "elements": [1], "notes": %s, '
                        '"spec": {"variant": "explicit", "elements": %s}}' % (notes, spec))
        argv = ["build-source", "--spec", str(path), "--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err
    assert code == 0 or err.startswith("error: ") and not out.exists()
    if depth > 2 * _LIMIT:  # past anything json.load reads
        assert err == f"error: {path}: JSON nested too deeply\n"
