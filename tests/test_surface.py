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
from addext import gf, numtheory as nt
from addext.sources import Group

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
# (2^62, 2^63, the FFT's rounding) and gf.EXTENSION_BASE_CAP.
NOT_THE_ELEMENT_BUDGET = {"sources._bohr_set", "sources._rounded", "analysis.poly_eval_all",
                          "analysis.moment_sum", "suites._moment_cases", "gf.get_extension"}


def test_every_budget_refusal_goes_through_check_cost():
    raisers = {f"{module}.{fn.name}" for module, tree in _trees().items()
               for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for n in ast.walk(fn) if isinstance(n, ast.Raise)
               and isinstance(n.exc, ast.Call) and _reads(n.exc.func, "BudgetError")}
    assert raisers == {"sources.check_cost"} | NOT_THE_ELEMENT_BUDGET
