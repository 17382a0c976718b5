"""The load stage: packaged schemas and the small Draft-7 checker ``cli._valid``
with its element fast path, against plain ``jsonschema`` as the oracle."""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from addext import cli
from addext.canonical import canonical_json
from addext.cli import main

_PLAIN_ELEMENT = {"oneOf": [{"type": "integer", "minimum": 0},
                            {"type": "array", "items": {"type": "integer", "minimum": 0}}]}


def _packaged():
    return sorted((f.name, json.loads(f.read_text()))
                  for f in resources.files("addext.schemas").iterdir()
                  if f.name.endswith(".json"))


def test_packaged_schemas_are_valid_draft7():
    names = [name for name, _ in _packaged()]
    assert names == ["extractor.v1.json", "grid.v1.json", "source.v1.json"]
    for name, schema in _packaged():
        Draft7Validator.check_schema(schema)
        # the fast path of cli._items reads #/definitions/element as this schema
        assert schema.get("definitions", {}).get("element", _PLAIN_ELEMENT) == _PLAIN_ELEMENT, name


def _oracle(obj) -> str | None:
    try:
        jsonschema.validate(obj, cli._schema("source.v1.json"))
    except jsonschema.ValidationError as exc:
        return str(exc)
    return None


def _loaded(path: str) -> str | None:
    try:
        cli._load_validated(path, "source.v1.json")
    except jsonschema.ValidationError as exc:
        return str(exc)
    return None


_good = st.one_of(st.integers(0, 1 << 70),
                  st.lists(st.integers(0, 1 << 70), max_size=3))
_bad_scalar = st.one_of(st.integers(max_value=-1), st.booleans(),
                        st.sampled_from([1.0, 1.5, -2.0, 0.0]), st.text(max_size=3),
                        st.none(), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def _bad_vector(draw):
    coords = draw(st.lists(st.integers(0, 100), max_size=3))
    i = draw(st.integers(0, len(coords)))
    return coords[:i] + [draw(_bad_scalar)] + coords[i:]


_entry = st.one_of(_good, _good, _good, _bad_scalar, _bad_vector())


@st.composite
def _lists(draw):
    """Element lists: all plain, plain but for one bad entry, or a free mix."""
    good = draw(st.lists(_good, max_size=8))
    how = draw(st.sampled_from(["plain", "one bad", "one bad", "mixed"]))
    if how == "plain":
        return good
    if how == "one bad":
        i = draw(st.integers(0, len(good)))
        return good[:i] + [draw(st.one_of(_bad_scalar, _bad_vector()))] + good[i:]
    return draw(st.lists(_entry, max_size=12))


@st.composite
def _documents(draw):
    spec = {"variant": draw(st.sampled_from(["explicit", "gap", "bohr"] * 3 + ["story"]))}
    for key in draw(st.sets(st.sampled_from(["elements", "steps", "freqs", "basis", "b0"]))):
        spec[key] = draw(_entry if key == "b0" else _lists())
    # mostly a valid variant and group: an error elsewhere at a shallower path
    # would decide the message. moduli and modulus are integer lists under
    # other items schemas
    group = draw(st.sampled_from([{"kind": "zp", "p": 11}] * 6 + [
        {"kind": "zp", "p": "x"}, {"kind": "zn"}, {"kind": "fq_vec", "p": 2, "k": 2}]))
    if group["kind"] == "zn":
        group["moduli"] = draw(st.lists(st.one_of(st.integers(0, 40), _bad_scalar), max_size=4))
    if group["kind"] == "fq_vec":
        group["modulus"] = draw(st.lists(st.one_of(st.integers(-3, 3), _bad_scalar), max_size=4))
    obj = {"group": group, "spec": spec}
    if draw(st.booleans()):
        obj["elements"] = draw(st.one_of(_lists(), st.just("x")))
    if draw(st.integers(0, 9)) == 0:
        obj["size"] = "3"
    return obj


def _agree(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "doc.json")
        Path(path).write_text(json.dumps(obj))
        # the oracle sees what the loader parses: 1.0 stays a float, 2^70 an int
        want = _oracle(json.loads(Path(path).read_text()))
        assert _loaded(path) == want


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_load_agrees_with_jsonschema_validate(obj):
    _agree(obj)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(["elements", "steps", "freqs", "basis", "top", "moduli"]), _lists())
def test_load_agrees_on_one_element_list(key, entries):
    # a valid document but for the one list, whose entries alone decide; the
    # moduli are under another items schema, which the fast path must not take
    if key == "top":
        obj = {"group": {"kind": "zp", "p": 11}, "spec": {"variant": "explicit",
                                                          "elements": [1]},
               "elements": entries}
    elif key == "moduli":
        obj = {"group": {"kind": "zn", "moduli": entries}, "spec": {"variant": "gap"}}
    else:
        obj = {"group": {"kind": "zp", "p": 11}, "spec": {"variant": "gap", key: entries}}
    _agree(obj)


@settings(max_examples=40, deadline=None)
@given(_documents())
def test_rejected_documents_exit_two_with_jsonschemas_message(obj):
    want = _oracle(json.loads(json.dumps(obj)))
    if want is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "doc.json", Path(tmp) / "out.json"
        path.write_text(json.dumps(obj))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["build-source", "--spec", str(path), "--out", str(out)]) == 2
        assert err.getvalue() == f"error: {want}\n" and not out.exists()


def test_plain_element_lists_pass_without_a_descent_per_entry(tmp_path, monkeypatch):
    calls = []
    valid = cli._valid

    def counting(schema, x, root):
        calls.append(x)
        return valid(schema, x, root)

    monkeypatch.setattr(cli, "_valid", counting)
    ints = list(range(5000))
    vecs = [[i % 7, i % 11, i] for i in range(5000)]
    path = tmp_path / "plain.json"
    for spec, top in [(ints, ints), (vecs, vecs)]:
        path.write_text(canonical_json({"group": {"kind": "zp", "p": 10007},
                                        "spec": {"variant": "explicit", "elements": spec},
                                        "elements": top}))
        calls.clear()
        cli._load_validated(str(path), "source.v1.json")
        assert len(calls) < 20
    # one float entry sends its list through the per-entry descent, which accepts 1.0
    path.write_text(canonical_json({"group": {"kind": "zp", "p": 10007},
                                    "spec": {"variant": "explicit", "elements": ints + [1.0]}}))
    calls.clear()
    cli._load_validated(str(path), "source.v1.json")
    assert len(calls) > len(ints)


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


# ---------------------------------------------------------------------------
# the checker against Draft7Validator(schema).is_valid
# ---------------------------------------------------------------------------

def _draft7_agrees(schema, x):
    assert cli._valid(schema, x, schema) == Draft7Validator(schema).is_valid(x)


_NAN, _INF = float("nan"), float("inf")
_ODD = [1.0, 0.0, -1.0, 0.5, 2.5, True, False, _NAN, _INF, -_INF, json.loads("1e400"),
        1 << 64, (1 << 64) + 1, -(1 << 64), 1 << 70, "1", "", None, [], {}, [-1], [1.0],
        [True], [[0]], {"kind": "zp"}]
_odd = st.sampled_from(_ODD).map(copy.deepcopy)  # a drawn [] or {} may be edited later
_scalar = st.one_of(_odd, st.integers(-3, 12), st.floats(),
                    st.text(max_size=3))
_json = st.recursive(_scalar, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8)
_object = st.dictionaries(st.text(max_size=3), _json, max_size=2)

_whole = st.one_of(st.integers(2, 1 << 66), st.integers(2, 99).map(float))  # >= 2
_elem = st.one_of(st.integers(0, 1 << 66), st.lists(st.integers(0, 1 << 66), max_size=3))
_elems = st.lists(_elem, max_size=4)
# schema-valid sources, each field drawn or left out
_valid_sources = st.fixed_dictionaries({
    "group": st.fixed_dictionaries(
        {"kind": st.sampled_from(["zp", "zp_vec", "fq_vec", "zn"])},
        optional={"p": _whole, "n": _whole, "k": _whole, "moduli": st.lists(_whole, max_size=3),
                  "modulus": st.lists(st.integers(-3, 3), max_size=4)}),
    "spec": st.fixed_dictionaries(
        {"variant": st.sampled_from(["gap", "ap", "hap", "bohr", "affine", "line", "explicit",
                                     "random"])},
        optional={"b0": _elem, "steps": _elems, "r": _whole, "s": _whole, "step": _elem,
                  "k": _whole, "freqs": _elems, "base": _elem, "basis": _elems, "a": _elem,
                  "d": _elem, "elements": _elems, "size": _whole, "seed": st.integers(),
                  "rho": st.floats(0, 1, exclude_min=True, exclude_max=True)})},
    optional={"elements": _elems, "size": st.integers(), "digest": st.text(max_size=3),
              "notes": _object})


def _paths(x, path=()):
    yield path
    if isinstance(x, (dict, list)):
        for k, v in (x.items() if isinstance(x, dict) else enumerate(x)):
            yield from _paths(v, path + (k,))


@st.composite
def _mutated(draw, base):
    """A document from ``base`` with up to three edits anywhere in it: a value
    replaced by an odd one, a key dropped, a key added or an entry appended."""
    doc = copy.deepcopy(draw(base))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            continue
        parent = doc
        for k in path[:-1]:
            parent = parent[k]
        how = draw(st.sampled_from(["odd", "odd", "json", "drop", "add"]))
        if how == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        elif how == "add" and isinstance(parent, dict):
            parent[draw(st.sampled_from(["extra", "p", "kind", "variant", "rho", "elements"]))] = \
                draw(_json)
        elif how == "add":
            parent.append(draw(_json))
        else:
            parent[path[-1]] = draw(_odd if how == "odd" else _json)
    return doc


# schema-valid grids, each field drawn or left out
_grids = st.fixed_dictionaries({}, optional={"kwargs": _object, "rows": st.lists(
    st.fixed_dictionaries({}, optional={
        "group": _object, "source": _object, "extractor": _object,
        "family": st.fixed_dictionaries({"kind": st.sampled_from(["all_aps", "all_lines"])},
                                        optional={k: st.integers() for k in "psqn"}),
        "alpha": st.floats(), "per_character": st.booleans(), "charsum_seed": st.integers()}),
    max_size=2)})


_cases = st.one_of(
    st.tuples(st.just("source.v1.json"), _mutated(st.one_of(_documents(), _valid_sources))),
    st.tuples(st.just("grid.v1.json"), _mutated(_grids)))


def _source(group=None, **spec):
    return {"group": group or {"kind": "zp", "p": 11}, "spec": {"variant": "gap", **spec}}


@settings(max_examples=600, deadline=None)
@given(_cases)
@example(("source.v1.json", _source({"kind": "zp", "p": 11.0})))     # integral float
@example(("source.v1.json", _source({"kind": "zp", "p": True})))     # a bool is no integer
@example(("source.v1.json", _source({"kind": "zp", "p": _NAN})))
@example(("source.v1.json", _source({"kind": "zp", "p": _INF})))
@example(("source.v1.json", _source({"kind": "zp", "p": 1 << 70})))
@example(("source.v1.json", _source({"kind": "zp", "p": 1.5})))
@example(("source.v1.json", _source(rho=_NAN)))                      # NaN passes the bounds
@example(("source.v1.json", _source(rho=json.loads("1e400"))))
@example(("source.v1.json", _source(rho=-_INF)))
@example(("source.v1.json", _source(rho=0)))
@example(("source.v1.json", _source(rho=1)))
@example(("source.v1.json", _source(rho=True)))
@example(("source.v1.json", _source(r=1, s=0)))
@example(("source.v1.json", _source(steps=[1 << 64, 0, [1.0, 2]])))
@example(("source.v1.json", _source(steps=[[True]])))
@example(("source.v1.json", _source(steps=[-1])))                    # oneOf: neither branch
@example(("source.v1.json", _source(steps=["x"])))
@example(("source.v1.json", _source(steps={"a": -1})))               # items: lists only
@example(("source.v1.json", {"group": {"kind": "zp", "p": 11}}))     # a required key missing
@example(("source.v1.json", {**_source(), "extra": [-1]}))           # extra keys pass
@example(("source.v1.json", {**_source(), "notes": [1]}))
@example(("source.v1.json", [_source()]))                            # required: dicts only
@example(("grid.v1.json", {"rows": [{"alpha": _NAN, "charsum_seed": 1.0}]}))
@example(("grid.v1.json", {"rows": [{"alpha": True}]}))
@example(("grid.v1.json", {"rows": [{"per_character": 1}]}))
@example(("grid.v1.json", {"rows": [{"family": {"kind": "all_aps", "p": 11.5}}]}))
@example(("grid.v1.json", {"rows": [{"family": {"p": 11}}]}))
@example(("grid.v1.json", {"rows": {"family": 1}}))
def test_checker_agrees_with_draft7_on_the_packaged_schemas(case):
    name, doc = case
    _draft7_agrees(cli._schema(name), doc)


_ELEMENT = {"definitions": {"element": _PLAIN_ELEMENT}}
_KEYWORD_SCHEMAS = [
    {"type": "integer"}, {"type": "number"}, {"type": "string"}, {"type": "boolean"},
    {"type": "array"}, {"type": "object"}, {"enum": [1]}, {"enum": [0, "a"]},
    {"minimum": 2}, {"exclusiveMinimum": 0, "exclusiveMaximum": 1},
    {"required": ["a"]}, {"properties": {"a": {"type": "integer"}}},
    {"items": {"type": "integer", "minimum": 0}},
    {"oneOf": [{"type": "number"}, {"type": "integer"}]},        # 1 matches both
    {"oneOf": [{"minimum": 0}, {"type": "array"}]},
    {**_ELEMENT, "$ref": "#/definitions/element", "type": "string"},  # siblings ignored
    {**_ELEMENT, "items": {"$ref": "#/definitions/element"}},
]


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(_KEYWORD_SCHEMAS), _json)
@example({"enum": [1]}, 1.0)
@example({"enum": [1]}, True)
@example({"enum": [0, "a"]}, False)
@example({"type": "integer"}, 1.0)
@example({"type": "integer"}, True)
@example({"type": "integer"}, _NAN)
@example({"type": "integer"}, _INF)
@example({"type": "number"}, _NAN)
@example({"type": "number"}, False)
@example({"minimum": 2}, _NAN)
@example({"minimum": 2}, "1")
@example({"minimum": 2}, True)
@example({"exclusiveMinimum": 0, "exclusiveMaximum": 1}, _NAN)
@example({"exclusiveMinimum": 0, "exclusiveMaximum": 1}, _INF)
@example({"exclusiveMinimum": 0, "exclusiveMaximum": 1}, 0)
@example({"required": ["a"]}, [])
@example({"properties": {"a": {"type": "integer"}}}, "a")
@example({"items": {"type": "integer", "minimum": 0}}, {"a": -1})
@example({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1)
@example({"oneOf": [{"type": "number"}, {"type": "integer"}]}, "x")
def test_checker_agrees_with_draft7_on_each_keyword(schema, x):
    _draft7_agrees(schema, x)


# ---------------------------------------------------------------------------
# the checker's keywords, and what importing jsonschema is left for
# ---------------------------------------------------------------------------

_CHECKED = {"$ref", "type", "enum", "minimum", "exclusiveMinimum", "exclusiveMaximum",
            "required", "properties", "items", "oneOf"}
_ANNOTATIONS = {"$schema", "$id", "title", "description", "definitions"}


def _validated_schemas():
    """The packaged schemas a command validates against, read from cli.py."""
    text = Path(cli.__file__).read_text()
    return sorted(set(re.findall(r'_load_validated\([^()]*"([\w.]+\.json)"\)', text)))


def _subschemas(schema):
    yield schema
    for key in ("properties", "definitions"):
        for sub in schema.get(key, {}).values():
            yield from _subschemas(sub)
    for sub in [schema["items"]] if "items" in schema else schema.get("oneOf", []):
        yield from _subschemas(sub)


def test_validated_schemas_use_only_the_checkers_keywords():
    names = _validated_schemas()
    assert names == ["grid.v1.json", "source.v1.json"]
    for name in names:
        root = cli._schema(name)
        for schema in _subschemas(root):
            assert isinstance(schema, dict), (name, schema)
            assert schema.keys() <= _CHECKED | _ANNOTATIONS, (name, schema.keys() - _CHECKED)
            # the forms _valid reads: one type name, scalar enums, one items
            # schema, refs into #/definitions
            assert schema.get("type", "integer") in {"integer", "number", "string", "boolean",
                                                     "array", "object"}, name
            assert not any(isinstance(e, (list, dict)) for e in schema.get("enum", [])), name
            assert isinstance(schema.get("items", {}), dict), name
            if "$ref" in schema:
                ref = schema["$ref"]
                assert ref.startswith("#/definitions/"), ref
                assert ref.removeprefix("#/definitions/") in root["definitions"], ref


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
    (tmp_path / "spec.json").write_text(canonical_json(_source(b0=5, steps=[1, 9], r=2,
                                                               s=8)))
    (tmp_path / "grid.json").write_text(canonical_json({"kwargs": {"primes": [11],
                                                                   "polys_per_p": 5}}))
    codes, imported, err = _in_one_interpreter(tmp_path, [
        ["build-source", "--spec", "spec.json", "--out", "src.json"],
        ["extract", "--source", "src.json", "--extractor", "zp", "--out", "x.csv"],
        ["verify", "--suite", "weil", "--grid", "grid.json", "--out", "v.csv"]])
    assert (codes, imported, err) == ([0, 0, 0], False, "")


def test_a_rejected_input_imports_jsonschema_for_its_message(tmp_path):
    bad = _source({"kind": "zp", "p": "x"})
    (tmp_path / "spec.json").write_text(canonical_json(bad))
    codes, imported, err = _in_one_interpreter(tmp_path, [
        ["build-source", "--spec", "spec.json", "--out", "src.json"]])
    assert (codes, imported, err) == ([2], True, f"error: {_oracle(bad)}\n")
    assert not (tmp_path / "src.json").exists()


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
        path.write_text('{"group": {"kind": "zp", "p": 11}, "elements": [1, 2], "notes": %s, '
                        '"spec": {"variant": "explicit", "elements": %s}}' % (notes, spec))
        argv = ["build-source", "--spec", str(path), "--out", str(out)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err
    assert code == 0 or err.startswith("error: ") and not out.exists()
    if depth > 2 * _LIMIT:  # past anything json.load reads
        assert err == f"error: {path}: JSON nested too deeply\n"
