"""The load stage: packaged schemas, the compiled validator and its element
fast path, against plain ``jsonschema.validate`` as the oracle."""

import contextlib
import io
import json
import tempfile
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
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


def test_plain_element_lists_never_reach_the_draft7_items_rule(tmp_path, monkeypatch):
    calls = []

    def counting(validator, items, instance, schema):
        calls.append(items)
        yield from jsonschema.Draft7Validator.VALIDATORS["items"](
            validator, items, instance, schema)

    monkeypatch.setattr(cli, "_DRAFT7_ITEMS", counting)
    ints = list(range(5000))
    vecs = [[i % 7, i % 11, i] for i in range(5000)]
    for spec, top in [(ints, ints), (vecs, vecs)]:
        path = tmp_path / "plain.json"
        path.write_text(canonical_json({"group": {"kind": "zp", "p": 10007},
                                        "spec": {"variant": "explicit", "elements": spec},
                                        "elements": top}))
        cli._load_validated(str(path), "source.v1.json")
    assert cli._ELEMENT_REF not in calls
    # one float entry sends its list through the Draft-7 rule, which accepts 1.0
    path.write_text(canonical_json({"group": {"kind": "zp", "p": 10007},
                                    "spec": {"variant": "explicit", "elements": ints + [1.0]}}))
    cli._load_validated(str(path), "source.v1.json")
    assert calls.count(cli._ELEMENT_REF) == 1


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
