"""Suite and family-row inputs drawn from the declared parameter checks: every
one must end in exit 0, 1 or 2 within a few seconds under a small element
budget, with no traceback, and exit 1 only with the FAIL line of a bound.

The kwargs of each suite come from its ``fn.checks``: values in range, at and
past the bounds, far past the budget, and of the wrong JSON type. The
``all_lines`` and ``all_aps`` rows of a sweep are drawn the same way.
"""

import contextlib
import io
import math
import os
import re
import tempfile
import time
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from addext import suites
from addext.canonical import canonical_json
from addext.cli import main

BUDGET = 1 << 16
WRONG = st.sampled_from(["x", 1.5, True, None, {}])
# an exception recorded as a sweep row's error, never a failed bound
EXCEPTION = re.compile(r'"error":"[A-Za-z]*(Error|Exception)\b')


def _valid(check) -> st.SearchStrategy:
    """A value in the declared range: at its lower bound or a little above."""
    if isinstance(check, suites._List):
        return st.lists(_valid(check.item), min_size=1, max_size=3)
    if isinstance(check, suites._Number):
        return st.floats(max(check.lo, -2), min(check.hi, 2), exclude_min=True,
                         exclude_max=True)
    if check.prime:
        return st.sampled_from([2, 3, 5, 11, 13, 101, 499])
    return st.integers(check.lo, check.lo + 40)


def _invalid(check) -> st.SearchStrategy:
    """A value past the declared range, far past the budget, or of another type."""
    if isinstance(check, suites._List):
        return st.one_of(st.just([]), _invalid(check.item).map(lambda v: [v]),
                         _valid(check.item), WRONG)
    if isinstance(check, suites._Number):
        return st.one_of(st.sampled_from([v for v in (check.lo, check.hi, 1e300)
                                          if math.isfinite(v)]), WRONG)
    huge = [1, 4, 65537, 67108859, 2**61 - 1] if check.prime else [check.lo - 1]
    return st.one_of(st.sampled_from(huge + [BUDGET + 1, 2**26 + 1, 10**30]), WRONG)


@st.composite
def _suite_case(draw, name: str):
    """Most parameters in range, the rest at their defaults, and at times one
    out of range."""
    checks = suites.SUITES[name].checks
    kwargs = {k: draw(_valid(c)) for k, c in checks.items() if draw(st.integers(0, 3))}
    if draw(st.booleans()):
        k = draw(st.sampled_from(sorted(checks)))
        kwargs[k] = draw(_invalid(checks[k]))
    return name, kwargs


_ROW_INT = st.one_of(st.integers(-1, 70), st.sampled_from([2**26 + 1, 10**30]))
_FAMILY = st.one_of(
    st.fixed_dictionaries({"kind": st.just("all_lines"), "n": st.integers(0, 3), "q": st.one_of(
        st.sampled_from([4, 5, 7, 8, 9, 16, 25]), _ROW_INT)}),
    st.fixed_dictionaries({"kind": st.just("all_aps"), "s": st.one_of(
        st.integers(1, 12), _ROW_INT), "p": st.one_of(
        _valid(suites._PRIME), _invalid(suites._PRIME), _ROW_INT)}))
_ROW = _FAMILY.map(lambda fam: {"family": fam, "extractor": (
    {"build": "line"} if fam["kind"] == "all_lines" else {"build": "zp", "m": 1})})
CASES = st.one_of(*(_suite_case(name) for name in sorted(suites.SUITES)),
                  st.lists(_ROW, min_size=1, max_size=3).map(lambda rows: ("sweep", rows)))


def _lines_row(q):
    return {"family": {"kind": "all_lines", "q": q, "n": 2}, "extractor": {"build": "line"}}


@settings(max_examples=400, deadline=None)
@given(CASES)
@example(("lines", {"qs": [2]}))
@example(("lines", {"qs": [3]}))
@example(("lines", {"qs": [256, 4096]}))
@example(("transport", {"primes": [100003], "sources_per_p": 1}))
@example(("weil", {"primes": [1000003]}))
@example(("sweep", [_lines_row(3)]))
@example(("sweep", [{"family": {"kind": "all_aps", "p": 67108859, "s": 2},
                     "extractor": {"build": "zp", "m": 1}}]))
def test_drawn_suite_inputs_end_in_an_exit_code_within_seconds(case):
    suite, payload = case
    grid = {"rows": payload} if suite == "sweep" else {"kwargs": payload}
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"ADDEXT_BUDGET": str(BUDGET)}), \
            contextlib.redirect_stderr(err):
        path = Path(tmp) / "grid.json"
        path.write_text(canonical_json(grid))
        t0 = time.perf_counter()
        code = main(["verify", "--suite", suite, "--grid", str(path),
                     "--out", str(Path(tmp) / "v.csv")])
        seconds = time.perf_counter() - t0
    err = err.getvalue()
    assert code in (0, 1, 2) and "Traceback" not in err, err
    if code == 1:
        fails = [line for line in err.splitlines() if line.startswith("FAIL ")]
        assert fails and not any(EXCEPTION.search(line) for line in fails), err
    assert seconds < 5, (case, seconds)
