"""Every input object is read by one reader, sources.read_object: a key that
no reader knows, or a missing key, exits 2 and is named with its object; in a
sweep it is that row's error and the other rows are written."""

import csv
import json
import re

import pytest

from addext import extractors as ex, sources as src
from addext.canonical import canonical_json
from addext.cli import main
from addext.errors import InputError

ZP11 = {"kind": "zp", "p": 11}
ZP5_2 = {"kind": "zp_vec", "p": 5, "n": 2}

# (group, spec) of a valid source file, for each group kind and each spec variant
GROUPS = {
    "zp": (ZP11, {"variant": "explicit", "elements": [1, 2]}),
    "zp_vec": (ZP5_2, {"variant": "explicit", "elements": [[1, 2]]}),
    "fq_vec": ({"kind": "fq_vec", "p": 3, "k": 2, "n": 2, "modulus": [1, 0, 1]},
               {"variant": "explicit", "elements": [[1, 8]]}),
    "zn": ({"kind": "zn", "moduli": [4, 9]}, {"variant": "explicit", "elements": [5]}),
}
SPECS = {
    "gap": (ZP11, {"variant": "gap", "b0": 1, "steps": [1, 3], "s": 2, "r": 2}),
    "ap": (ZP11, {"variant": "ap", "b0": 1, "step": 2, "k": 3}),
    "hap": (ZP11, {"variant": "hap", "step": 2, "k": 3}),
    "bohr": (ZP11, {"variant": "bohr", "freqs": [1], "rho": 0.3}),
    "affine": (ZP5_2, {"variant": "affine", "base": [0, 1], "basis": [[1, 0]]}),
    "line": (ZP5_2, {"variant": "line", "a": [0, 1], "d": [1, 1]}),
    "explicit": (ZP11, {"variant": "explicit", "elements": [1, 2]}),
    "random": (ZP11, {"variant": "random", "size": 3, "seed": 1}),
}


def write(path, obj):
    path.write_text(canonical_json(obj))
    return str(path)


def misspelt(key: str) -> str:
    return key + key[-1]


def _source_cases():
    """(id, document, the object's path in it, its name in messages, a key
    to misspell or drop): the source file, each group kind, each spec."""
    yield "source-file", {"group": ZP11, "spec": SPECS["gap"][1], "size": 4}, (), None, "size"
    for kind, (group, spec) in GROUPS.items():
        key = next(k for k in group if k != "kind")
        yield f"group-{kind}", {"group": group, "spec": spec}, ("group",), "group", key
    for variant, (group, spec) in SPECS.items():
        key = next(k for k in spec if k != "variant")
        yield f"spec-{variant}", {"group": group, "spec": spec}, ("spec",), "source spec", key


SOURCE_CASES = [pytest.param(*case[1:], id=case[0]) for case in _source_cases()]


def _edit(doc, path, fn):
    doc = json.loads(json.dumps(doc))
    node = doc
    for k in path:
        node = node[k]
    fn(node)
    return doc


@pytest.mark.parametrize("doc, path, what, key", SOURCE_CASES)
def test_source_file_objects_name_a_misspelt_or_missing_key(tmp_path, capsys, doc, path,
                                                            what, key):
    spec = tmp_path / "in.json"
    out = tmp_path / "out.json"
    what = what or f"source file {spec}"
    assert main(["build-source", "--spec", write(spec, doc), "--out", str(out)]) == 0
    out.unlink()
    capsys.readouterr()
    bad = _edit(doc, path, lambda node: node.__setitem__(misspelt(key), node[key]))
    assert main(["build-source", "--spec", write(spec, bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: the {what} takes no {misspelt(key)!r} (it takes ")
    assert "Traceback" not in err and not out.exists()
    if not path:  # the schema requires the file's group and spec, and names them
        return
    missing = _edit(doc, path, lambda node: node.pop(key))
    assert main(["build-source", "--spec", write(spec, missing), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: the {what} has no {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("doc, key", [
    ({"group": ZP11, "spec": SPECS["ap"][1], "element": [1, 3, 5]}, "element"),
    ({"group": dict(ZP11, pp=3), "spec": SPECS["gap"][1]}, "pp"),
    ({"group": ZP11, "spec": dict(SPECS["gap"][1], sizee=9)}, "sizee"),
    ({"group": ZP11, "spec": dict(SPECS["ap"][1], r=1)}, "r"),  # only a GAP takes r
    ({"group": dict(ZP11, n=1), "spec": SPECS["ap"][1]}, "n"),
    ({"group": dict(ZP5_2, modulus=[1, 1]), "spec": SPECS["line"][1]}, "modulus"),
])
def test_a_key_that_no_reader_knows_exits_two(tmp_path, capsys, doc, key):
    out = tmp_path / "out.json"
    assert main(["build-source", "--spec", write(tmp_path / "in.json", doc),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the ") and f" takes no {key!r} (it takes " in err
    assert "Traceback" not in err and not out.exists()


# ---------------------------------------------------------------------------
# grids, suite kwargs, sweep rows, families and extractors
# ---------------------------------------------------------------------------

ROW = {"group": ZP11, "source": {"variant": "explicit", "elements": [1, 2]},
       "extractor": {"build": "zp", "m": 1}, "alpha": 0.25}
AP_FAMILY = {"family": {"kind": "all_aps", "p": 11, "s": 3},
             "extractor": {"build": "zp", "m": 1}}
LINE_FAMILY = {"family": {"kind": "all_lines", "q": 5, "n": 2}, "extractor": {"build": "line"}}


def _verify(tmp_path, suite, grid):
    out = tmp_path / "v.csv"
    code = main(["verify", "--suite", suite, "--grid", write(tmp_path / "grid.json", grid),
                 "--out", str(out)])
    return code, out


@pytest.mark.parametrize("suite, grid, message", [
    ("l1", {"kwarg": {"pmax": 11}}, "the grid takes no 'kwarg' (it takes 'kwargs')"),
    ("l1", {"kwargs": {"pmax": 11}, "rows": []}, "the grid takes no 'rows' (it takes 'kwargs')"),
    ("sweep", {"rowss": [ROW]}, "the grid has no 'rows'"),
    ("sweep", {"rows": [ROW], "rowss": []}, "the grid takes no 'rowss' (it takes 'rows')"),
    ("sweep", {"rows": [ROW], "kwargs": {}}, "the grid takes no 'kwargs' (it takes 'rows')"),
    ("l1", {"kwargs": {"pmaxx": 11}}, "the l1 suite takes no 'pmaxx' (it takes 'pmax')"),
    ("xor", {"kwargs": {"moduli": [15], "modulii": [21]}},
     "the xor suite takes no 'modulii' (it takes 'moduli')"),
])
def test_grids_and_suite_kwargs_name_a_misspelt_key(tmp_path, capsys, suite, grid, message):
    code, out = _verify(tmp_path, suite, grid)
    assert code == 2 and capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_the_valid_grids_run(tmp_path):
    assert _verify(tmp_path, "l1", {"kwargs": {"pmax": 11}})[0] == 0
    assert _verify(tmp_path, "l1", {})[0] == 0
    assert _verify(tmp_path, "sweep", {"rows": [ROW, AP_FAMILY, LINE_FAMILY]})[0] == 0


def _row_cases():
    """(id, a row with one misspelt or missing key, the error's text)."""
    def edit(row, path, key, drop=False):
        def fn(node):
            value = node.pop(key) if drop else node[key]
            if not drop:
                node[misspelt(key)] = value
        return _edit(row, path, fn)
    for name, row, path, what, key in [
            ("source-row", ROW, (), "row", "alpha"),
            ("family-row", AP_FAMILY, (), "row", "extractor"),
            ("group", ROW, ("group",), "group", "p"),
            ("spec", ROW, ("source",), "source spec", "elements"),
            ("all_aps", AP_FAMILY, ("family",), "family", "s"),
            ("all_lines", LINE_FAMILY, ("family",), "family", "q"),
            ("extractor", ROW, ("extractor",), "extractor", "build"),
            ("family-extractor", LINE_FAMILY, ("extractor",), "extractor", "build")]:
        yield pytest.param(edit(row, path, key), f"the {what} takes no {misspelt(key)!r}",
                           id=f"{name}-misspelt")
        if key != "alpha":
            yield pytest.param(edit(row, path, key, drop=True), f"the {what} has no {key!r}",
                               id=f"{name}-missing")
    yield pytest.param(dict(ROW, per_charactr=True), "the row takes no 'per_charactr'",
                       id="per_charactr")
    yield pytest.param(dict(ROW, alphaa=0.2), "the row takes no 'alphaa'", id="alphaa")
    yield pytest.param(dict(AP_FAMILY, group=ZP11), "the row takes no 'group' (it takes "
                       "'family', 'extractor')", id="family-row-with-a-group")
    yield pytest.param(dict(ROW, extractor={"build": "zp", "mm": 1}),
                       "the extractor takes no 'mm' (it takes 'build', 'm')", id="m")


@pytest.mark.parametrize("row, message", _row_cases())
def test_sweep_rows_name_a_misspelt_or_missing_key(tmp_path, capsys, row, message):
    code, out = _verify(tmp_path, "sweep", {"rows": [row, ROW]})
    assert code == 2
    err = capsys.readouterr().err
    fails = [json.loads(line.removeprefix("FAIL sweep: ")) for line in err.splitlines()]
    assert [f["grid_index"] for f in fails] == [0]
    assert fails[0]["error"].startswith(f"InputError: {message}")
    assert "Traceback" not in err
    assert len(list(csv.reader(open(out)))) == 2   # the good row is written


# ---------------------------------------------------------------------------
# the reader itself
# ---------------------------------------------------------------------------

def test_read_object_reads_each_key_by_its_reader():
    keys = {"a": src.json_int, "b": None, "c": src.json_number}
    assert src.read_object({"a": 2.0, "b": [1]}, "thing", keys, ("c",)) == {"a": 2, "b": [1]}
    with pytest.raises(InputError, match="^the thing's a must be an integer, not 1.5$"):
        src.read_object({"a": 1.5, "b": 0}, "thing", keys, ("c",))
    with pytest.raises(InputError, match="^the thing has no 'c'$"):
        src.read_object({"a": 1, "b": 0}, "thing", keys)
    with pytest.raises(InputError, match=r"^the thing takes no 'x', 'y' \(it takes 'a', 'b', "):
        src.read_object({"a": 1, "b": 0, "y": 1, "x": 2}, "thing", keys, ("c",))


@pytest.mark.parametrize("obj", [[1, 2], None, "zp", 11])
def test_a_value_that_should_be_an_object_is_an_input_error(obj):
    # the schemas type every object of a file; the API reads them by the same reader
    with pytest.raises(InputError, match="^the group must be a JSON object, not "):
        src.Group.from_json(obj, "the group")
    with pytest.raises(InputError, match="^the source spec must be a JSON object, not "):
        src.spec_from_json(obj, "the source spec")


@pytest.mark.parametrize("kind", ["zq", 3, None])
def test_a_tag_names_one_of_its_kinds(kind):
    with pytest.raises(InputError, match="^the group's kind must be one of zp, zp_vec, "
                                         f"fq_vec, zn, not {kind!r}$"):
        src.Group.from_json({"kind": kind, "p": 11}, "the group")
    with pytest.raises(InputError, match="^the group's kind must be one of "):
        src.Group.from_json({"p": 11}, "the group")


# ---------------------------------------------------------------------------
# an AP or HAP of length below 1 is refused
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, -3])
@pytest.mark.parametrize("spec", [lambda k: src.ApSpec(1, 1, k), lambda k: src.HapSpec(1, k)],
                         ids=["ap", "hap"])
def test_an_ap_of_length_below_one_is_refused(spec, k):
    with pytest.raises(InputError, match=f"^AP length k must be >= 1, not {k}$"):
        src.build_source(spec(k), src.Group.zp(11))


def test_a_sweep_row_with_an_empty_ap_is_an_input_error(tmp_path, capsys):
    row = dict(ROW, source={"variant": "ap", "b0": 1, "step": 1, "k": 0})
    code, out = _verify(tmp_path, "sweep", {"rows": [row, ROW]})
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith('FAIL sweep: {"error":"InputError: AP length k must be >= 1, not 0"')
    assert "Traceback" not in err and "ZeroDivisionError" not in err
    assert len(list(csv.reader(open(out)))) == 2


# ---------------------------------------------------------------------------
# a full config reads each key by the typed reader of the rebuilt value
# ---------------------------------------------------------------------------

ZP_CONFIG = ex.build_zp_extractor(11, 1).to_json()
ZPN_CONFIG = ex.build_zpn_extractor(5, 2, 1).to_json()
LINE_CONFIG = ex.build_line_extractor(9, 4).to_json()


@pytest.mark.parametrize("config, group, message", [
    (dict(ZP_CONFIG, p=True), src.Group.zp(11), "the zp config's p must be an integer, not True"),
    (dict(ZP_CONFIG, g="2"), src.Group.zp(11), "the zp config's g must be an integer, not '2'"),
    (dict(ZPN_CONFIG, qs=11), src.Group.zp_vec(5, 2), "the zpn config's qs must be a list, not 11"),
    (dict(ZPN_CONFIG, gs=[3, None]), src.Group.zp_vec(5, 2),
     "each of the zpn config's gs must be an integer, not None"),
    (dict(LINE_CONFIG, blocks=[0, 1]), src.Group.fq_vec(ex.prime_power_field(9), 4),
     "each of the line config's blocks must be a list, not 0"),
])
def test_a_config_value_of_the_wrong_type_is_named(config, group, message):
    # "p": true used to be refused only as "not the canonical zp config"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        ex.config_for_group(config, group)


def test_a_config_row_with_a_boolean_p_names_it(tmp_path, capsys):
    row = dict(ROW, extractor=dict(ZP_CONFIG, p=True))
    code, out = _verify(tmp_path, "sweep", {"rows": [row, ROW]})
    err = capsys.readouterr().err
    assert code == 2 and len(list(csv.reader(open(out)))) == 2
    assert err.startswith('FAIL sweep: {"error":"InputError: the zp config\'s p must be an '
                          'integer, not True"')


def test_a_group_or_spec_that_is_not_an_object_is_named_by_its_key(tmp_path, capsys):
    # Group.from_json and spec_from_json are readers (v, what) like the typed
    # ones: the row and the source file name them directly
    for key, value in (("group", [11]), ("source", "ap")):
        code, _ = _verify(tmp_path, "sweep", {"rows": [dict(ROW, **{key: value}), ROW]})
        err = capsys.readouterr().err
        assert code == 2 and f"InputError: the row's {key} must be a JSON object, not " in err
    spec = write(tmp_path / "in.json", {"group": ZP11, "spec": 3})
    assert main(["build-source", "--spec", spec, "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == f"error: the source file {spec}'s spec must be a JSON " \
                                      "object, not 3\n"
