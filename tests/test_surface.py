"""The package ships only what it runs: every top-level function and class in
``src/addext`` is either used somewhere in the package outside its own body
or exported in ``addext.__all__``. A name kept alive only by tests belongs in
the tests, as an oracle of the shipped route it checks.
"""

import ast
import inspect
from collections import Counter
from pathlib import Path

import addext
import oracles
from addext import gf, numtheory as nt
from addext.sources import Group, Source

PACKAGE = Path(addext.__file__).parent


def _uses(node: ast.AST) -> Counter:
    """How often each name is read under node, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_top_level_name_is_used_in_the_package_or_exported():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    uses = sum((_uses(tree) for tree in trees.values()), Counter())
    unused = [f"{fname}:{node.lineno} {node.name}"
              for fname, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in addext.__all__
              and uses[node.name] == _uses(node)[node.name]]
    assert not unused, "used only outside src/addext: " + ", ".join(unused)


def test_no_field_or_group_arithmetic_one_element_at_a_time():
    # field and group arithmetic runs on digit arrays (gf.mul_many, pow_many,
    # the _norm_maps matrices, sources._span); the one-element routes are the
    # test oracles in tests/oracles.py
    pointwise = {"add", "neg", "sub", "mul", "scale", "pow", "inv", "embed", "lift",
                 "encode", "decode"}
    for cls in (gf.FieldSpec, gf.ExtensionField, Group):
        assert not pointwise & set(dir(cls)), cls.__name__


def test_digit_weights_are_built_only_by_the_codec():
    # every index <-> digits conversion goes through numtheory.to_digits and
    # from_digits, whose weight vector m^0..m^(N-1) is built in one place;
    # base 2 too, so no weights by shifts either
    weights = "** np.arange("
    total = sum(path.read_text().count(weights) for path in PACKAGE.glob("*.py"))
    assert total == inspect.getsource(nt._weights).count(weights) == 1
    for shift in ("<< np.arange(", ">> np.arange("):
        assert not any(shift in path.read_text() for path in PACKAGE.glob("*.py")), shift


def test_fields_are_built_without_polynomial_arithmetic():
    # gf builds fields by F_p matrices only; the scalar polynomial route is
    # the test oracle in tests/oracles.py
    for name in ("poly_mod", "poly_gcd", "_norm", "_to_bits", "_from_bits"):
        assert not hasattr(gf, name), name


def test_discrete_logs_have_one_route():
    # numtheory.discrete_logs is the one route; the dict baby-step/giant-step
    # and the O(p) index table are its oracles in tests/oracles.py
    for name in ("index_table", "discrete_log"):
        assert not hasattr(nt, name), name


def test_points_reach_outputs_by_one_route():
    # extractors.extract_many is the one evaluator and encode_many the one
    # zp/zpn encoding; the one-point routes, Residue, crt_combine and the
    # tuple histogram are oracles in tests/oracles.py
    from addext import analysis, cli, extractors, sources, suites
    names = ("zp_extract", "zpn_extract", "line_extract", "ap_extract", "pgc_extract",
             "zp_encode", "zpn_encode", "crt_combine", "Residue", "OutputDistribution",
             "_encoded_values")
    for module in (addext, analysis, cli, extractors, gf, nt, sources, suites):
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _reads(node: ast.AST, name: str) -> int:
    """How often node reads name: loads of it as a name or an attribute, and imports."""
    return sum(isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
               and (n.id if isinstance(n, ast.Name) else n.attr) == name
               or isinstance(n, ast.alias) and n.name == name for n in ast.walk(node))


def test_work_factor_is_read_only_by_check_cost():
    trees = _trees()
    check_cost = next(node for node in trees["sources"].body
                      if isinstance(node, ast.FunctionDef) and node.name == "check_cost")
    reads = sum(_reads(tree, "WORK_FACTOR") for tree in trees.values())
    assert reads == _reads(check_cost, "WORK_FACTOR") > 0


# The BudgetErrors that are not the element budget's: the exactness guards
# (2^62, the FFT's rounding), which refuse a run for its exactness, not for
# its size.
NOT_THE_ELEMENT_BUDGET = {"sources._rounded", "analysis.moment_sum", "suites._moment_cases"}


def test_every_budget_refusal_goes_through_check_cost():
    raisers = {f"{module}.{fn.name}" for module, tree in _trees().items()
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for n in ast.walk(fn) if isinstance(n, ast.Raise)
               and isinstance(n.exc, ast.Call) and _reads(n.exc.func, "BudgetError")}
    assert raisers == {"sources.check_cost"} | NOT_THE_ELEMENT_BUDGET
    assert not _reads(_trees()["gf"], "BudgetError")


# The module-level limits that are not sizes refused beside check_cost: the
# default budget itself, the 2^63 exactness cap, and the sweep's rule for
# scanning or sampling the frequencies of a zp or zpn row.
LIMITS = {"sources.DEFAULT_ELEMENT_BUDGET", "numtheory.MODULUS_CAP", "suites.CHARSUM_SCAN_CAP"}


def test_one_gate_refuses_a_run_for_its_size():
    trees = _trees()
    limits = {f"{module}.{target.id}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.Assign, ast.AnnAssign))
              for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
              for target in (target.elts if isinstance(target, ast.Tuple) else [target])
              if isinstance(target, ast.Name) and target.id.endswith(("_BUDGET", "_CAP"))}
    assert limits == LIMITS
    assert not _reads(trees["cli"], "CHARSUM_SCAN_CAP")


# suite_sweep takes a thread count that it does not use: the benchmark's tracer
# reads it from the call to tell threaded sweeps from serial ones
UNREAD_PARAMETERS = {"suites.suite_sweep": {"threads"}}


def test_every_parameter_in_src_is_read():
    unread = {}
    for module, tree in _trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if x is not None]
            missing = {p for p in params if not any(
                isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == p
                for n in ast.walk(fn))}
            if missing:
                unread[f"{module}.{fn.name}"] = missing
    assert unread == UNREAD_PARAMETERS


def _idle_defaults(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """The parameters with a default, by function, that no call in trees
    passes, or that every call passes. A call by the function's name passes
    a parameter by its keyword, by its position (a method's self not
    counted), or by any * or ** argument."""
    defs = {}
    for module, tree in trees.items():
        for owner in ast.walk(tree):
            bodies = isinstance(owner, (ast.Module, ast.ClassDef, ast.FunctionDef))
            for fn in owner.body if bodies else ():
                if isinstance(fn, ast.FunctionDef):
                    a = fn.args
                    pos = [x.arg for x in (*a.posonlyargs, *a.args)][isinstance(owner, ast.ClassDef):]
                    kw = [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                    defaulted = pos[len(pos) - len(a.defaults):] + kw
                    if defaulted:
                        defs[f"{module}.{fn.name}"] = (fn.name, pos, defaulted)
    idle = {}
    for key, (name, pos, defaulted) in defs.items():
        passed = []
        for call in (n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)
                     and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))):
            star = any(isinstance(x, ast.Starred) for x in call.args) or any(
                k.arg is None for k in call.keywords)
            passed.append(set(defaulted) if star else
                          set(pos[:len(call.args)]) | {k.arg for k in call.keywords})
        bad = {p for p in defaulted
               if not any(p in s for s in passed) or all(p in s for s in passed)}
        if bad:
            idle[key] = bad
    return idle


# The defaults that no call in src passes besides cli.main's argv and the
# suites' parameters, which the command line and a grid's JSON kwargs set:
# the prime search's bound, which is to become check_cost's metered refusal
# (ROADMAP item 13).
UNPASSED_DEFAULTS = {"numtheory.smallest_prime_congruent_one": {"budget"}}


def test_every_default_is_passed_in_src():
    # a default that no call passes is a constant, and one that every call
    # passes is no default: either is surface that no caller in src uses
    idle = {fn: params for fn, params in _idle_defaults(_trees()).items()
            if fn != "cli.main" and not fn.startswith("suites.suite_")}
    assert idle == UNPASSED_DEFAULTS
    # the check sees the defaults it is meant to find
    assert _idle_defaults({"m": ast.parse(
        "def f(a, b=1, *, c=2, d=3):\n    f(a)\n    f(a, 2, d=4).h()\n"
        "def g(x=0):\n    g(1)\n    g(*y)\n"
        "class C:\n    def h(self, e=0, k=1):\n        self.h(1)\n        C().h()")}) == {
        "m.f": {"c"}, "m.g": {"x"}, "m.h": {"k"}}


def _calls(tree: ast.AST, name: str) -> int:
    """How many calls under tree call name, as a name or an attribute."""
    return sum(isinstance(n, ast.Call) and _reads(n.func, name) > 0 for n in ast.walk(tree))


def test_sources_reach_reports_by_one_route():
    # analysis.evaluate is the one route from a source and a config to a
    # report: the extract command and every sweep row take it
    trees = _trees()
    evaluate = next(node for node in trees["analysis"].body
                    if isinstance(node, ast.FunctionDef) and node.name == "evaluate")
    for name in ("extract_many", "extractor_distribution", "distance_to_uniform"):
        assert sum(_calls(tree, name) for tree in trees.values()) == _calls(evaluate, name) == 1


def _number_type_tests(node: ast.AST) -> list[int]:
    """The lines under node that test whether a value is an int, a float or a
    bool: isinstance(x, ...) naming one, or a comparison of type(x)."""
    numbers = {"int", "float", "bool", "integer", "floating", "number"}
    return [n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Call) and _reads(n.func, "isinstance") and len(n.args) == 2
            and any(_reads(n.args[1], t) for t in numbers)
            or isinstance(n, ast.Compare) and any(
                isinstance(c, ast.Call) and _reads(c.func, "type")
                for c in (n.left, *n.comparators))]


def test_only_the_json_readers_decide_what_a_json_number_is():
    # sources.json_int and json_number read every number of a grid or source
    # file; the suites' parameter checks and the extractor's m go through them
    trees = _trees()
    build_for_group = next(node for node in trees["extractors"].body
                           if isinstance(node, ast.FunctionDef) and node.name == "build_for_group")
    assert _number_type_tests(trees["suites"]) == []
    assert _number_type_tests(build_for_group) == []
    # the check sees the tests it is meant to find
    assert _number_type_tests(ast.parse("type(v) in (int, float)\nisinstance(m, bool)")) == [1, 2]


def _key_set_tests(node: ast.AST) -> list[int]:
    """The lines under node that compare an object's keys with a set of keys or
    catch a KeyError: set(x) - ..., x.keys() - ..., a set literal subtracted,
    .difference/.issubset/.issuperset, and an except clause naming KeyError."""
    def keyset(n):
        return (isinstance(n, ast.Set) or isinstance(n, ast.Call)
                and (_reads(n.func, "set") or _reads(n.func, "keys")))
    return [n.lineno for n in ast.walk(node)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Sub)
            and (keyset(n.left) or keyset(n.right))
            or isinstance(n, ast.Call) and any(
                _reads(n.func, m) for m in ("difference", "issubset", "issuperset"))
            or isinstance(n, ast.ExceptHandler) and n.type is not None
            and _reads(n.type, "KeyError")]


def test_input_objects_have_one_reader():
    # sources.read_object is the one reader of an input object's keys: every
    # other reader (groups, specs, source files, grids, rows, families,
    # extractors, suite kwargs) goes through it
    from addext import suites
    found = {f"{module}.{fn.name}" for module, tree in _trees().items()
             for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             and _key_set_tests(fn)}
    assert found == {"sources.read_object"}
    assert not hasattr(suites, "_key") and not hasattr(suites, "_REQUIRED")
    # the check sees the tests it is meant to find
    assert _key_set_tests(ast.parse(
        "set(e) - {'a'}\ntry:\n    x\nexcept (KeyError, TypeError):\n    pass\n"
        "e.keys() - k.keys()\n{1} - set(e)\nset(e).issubset(k)")) == [1, 4, 6, 7, 8]


def test_the_readers_are_the_one_input_check():
    # sources.read_object and its typed readers refuse what the packaged
    # schemas refuse; the schemas are published, and no module runs them
    from addext import cli
    imports = [f"{module}:{n.lineno}" for module, tree in _trees().items() for n in ast.walk(tree)
               if isinstance(n, ast.Import) and any(a.name.split(".")[0] == "jsonschema"
                                                    for a in n.names)
               or isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "jsonschema"]
    assert imports == []
    for name in ("_schema", "_valid", "_is_type", "_plain_element"):
        assert not hasattr(cli, name), name


def test_the_typed_readers_are_one_family():
    # sources._Int, _Number and _List read every bounded integer, number and
    # list of a source file, a group and a suite's kwargs: the suites' checks
    # are these classes, and no module makes a reader of its own
    from addext import sources, suites
    family = (sources._Int, sources._Number, sources._List)
    for cls in family:
        assert getattr(suites, cls.__name__) is cls
    for name in ("_at_least", "_list_of"):
        assert not hasattr(sources, name), name
    assert not hasattr(suites, "_Check")

    def typed(read) -> bool:
        if isinstance(read, sources._List):
            return typed(read.item)
        return (isinstance(read, family) or read in (sources._elem_from_json, sources._element_array)
                or read.__name__.startswith("json_") and getattr(sources, read.__name__) is read)
    declared = [read for keys in (*sources._GROUP_KEYS.values(), *sources._SPEC_KEYS.values())
                for read in keys.values()]
    declared += [check for fn in suites.SUITES.values() for check in fn.checks.values()]
    assert [read for read in declared if not typed(read)] == []
    # the reader classes are the package's only callable classes, and no
    # function builds a reader read(v, what) inside it
    trees = _trees()
    callable_classes = {f"{module}.{cls.name}" for module, tree in trees.items()
                        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                        and any(getattr(n, "name", None) == "__call__" for n in cls.body)}
    assert callable_classes == {f"sources.{cls.__name__}" for cls in family}
    closures = [f"{module}.{inner.name}" for module, tree in trees.items()
                for outer in ast.walk(tree) if isinstance(outer, ast.FunctionDef)
                for inner in ast.walk(outer) if inner is not outer
                and isinstance(inner, ast.FunctionDef) and len(inner.args.args) == 2
                and inner.args.args[1].arg == "what"]
    assert closures == []


def _object_dtypes(tree: ast.AST, module: str) -> dict[str, list[int]]:
    """The lines, by innermost enclosing function, that name numpy's object
    dtype (Python ints in an array): the name object outside annotations,
    np.object_, or "O" or "object" as a dtype= value or an astype argument."""
    annotations = {id(n) for node in ast.walk(tree)
                   for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
                   if ann is not None for n in ast.walk(ann)}
    found: dict[str, list[int]] = {}

    def dtype_string(n):
        return isinstance(n, ast.Constant) and n.value in ("O", "object")

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{module}.{node.name}"
        if id(node) not in annotations and (
                isinstance(node, ast.Name) and node.id == "object"
                or isinstance(node, ast.Attribute) and node.attr == "object_"
                or isinstance(node, ast.keyword) and node.arg == "dtype"
                and dtype_string(node.value)
                or isinstance(node, ast.Call) and _reads(node.func, "astype")
                and any(dtype_string(a) for a in node.args)):
            found.setdefault(owner, []).append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)
    visit(tree, module)
    return found


def test_python_ints_only_in_the_digit_codec():
    # every residue and F_p digit is int64, and every product mod m is
    # numtheory's (mul_mod, matmul_mod, exact below 2^63); arrays of Python
    # ints hold only indices and encodings of 2^63 or more, in the codec
    codec = {"numtheory._weights", "numtheory.to_digits", "numtheory.from_digits"}
    found = {}
    for module, tree in _trees().items():
        found.update(_object_dtypes(tree, module))
    assert set(found) <= codec, found
    # the check sees the uses it is meant to find, and not annotations
    assert _object_dtypes(ast.parse(
        "def f(x: object) -> object:\n    return np.array(x, dtype=object)\n"
        "b0: object\nx.astype('O')\nnp.object_\ny = int if z else object"), "m") == {
        "m.f": [2], "m": [4, 5, 6]}


def _set_builders(tree: ast.AST, module: str) -> dict[str, list[int]]:
    """The lines, by innermost enclosing function, that build a set or a
    frozenset: a call of set or frozenset, a set display or a set comprehension."""
    found: dict[str, list[int]] = {}

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            owner = f"{module}.{node.name}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset")
                or isinstance(node, (ast.Set, ast.SetComp))):
            found.setdefault(owner, []).append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)
    visit(tree, module)
    return found


# The sets that src builds, none of elements: the CSV columns and the failed
# grid indices of a verify run, a config's block sizes, and the types of the
# entries of a JSON list of elements.
NOT_SETS_OF_ELEMENTS = {"cli.cmd_verify", "extractors.extension_steps", "sources._element_array"}


def test_no_module_builds_a_set_of_elements():
    # a source is one sorted int64 array (sources.Source) from the reader to
    # the CSV; the frozenset of ints and tuples, its reader, the pow encodings
    # and the per-row CSV writer are oracles in tests/oracles.py
    found = {}
    for module, tree in _trees().items():
        found.update(_set_builders(tree, module))
    assert set(found) == NOT_SETS_OF_ELEMENTS, found
    assert not hasattr(Source, "sorted_elements")
    # the check sees the sets it is meant to find
    assert _set_builders(ast.parse("def f(x):\n    return set(x) | frozenset(x)\n"
                                   "{1}\n{a for a in b}"), "m") == {"m.f": [2, 2], "m": [3, 4]}


def _product_gathers(tree: ast.AST) -> list[int]:
    """The lines of the subscripts x[(a * b) % m]: an index that holds a
    remainder of an expression with a product."""
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.Subscript)
                   and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod) and any(
                       isinstance(m, ast.BinOp) and isinstance(m.op, ast.Mult)
                       for m in ast.walk(n.left)) for n in ast.walk(node.slice))})


def test_products_mod_a_prime_are_gathered_by_one_primitive():
    # every table[a b mod p] in src is numtheory.MulGather, one take at sums
    # of discrete logs, with no product and no remainder; the direct route is
    # the oracle in tests/oracles.py
    found = {module: _product_gathers(tree) for module, tree in _trees().items()}
    assert {module: lines for module, lines in found.items() if lines} == {}
    assert len(_product_gathers(ast.parse(inspect.getsource(oracles.mul_gather_direct)))) == 1
    # the check sees the gathers it is meant to find
    assert _product_gathers(ast.parse(
        "t[a * b % p]\nt[1, (a[:, None] * b) % m]\nt[(a * b + c) % m]\nt[a % p]\n"
        "t[a * b]\nf(a * b % p)\nt[(a + b) % p]")) == [1, 2, 3]
