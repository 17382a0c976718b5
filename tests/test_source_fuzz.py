"""Source documents drawn per group kind and variant: every command on every
drawn source must end in exit 0 or 2 within a few seconds under a small
element budget, with no traceback.

Each document goes through build-source, profile, charsum (``all`` and a
range) and extract (all five families, one ``--m`` from 1 to 8), each
in-process in a temporary directory under ``ADDEXT_BUDGET`` = 2^16. The
draws reach every group kind and spec variant with the edge values of p, n
and k, unreduced and reducible moduli, steps, bases and directions that are
zero, out of range or of the wrong length, empty steps, bases and
frequencies, and random sizes up to past the budget; about half of them
build a source, and the others must be refused as input or budget errors.
"""

import contextlib
import io
import math
import os
import tempfile
import time
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from addext.canonical import canonical_json
from addext.cli import main

BUDGET = 1 << 16
P61 = 2**61 - 1
PRIMES = [2, 3, 4, 101, 65537, 2**31 - 1, P61]  # 4 is not prime: an input error
FAMILIES = ("zp", "zpn", "line", "ap", "pgc")


@st.composite
def groups(draw) -> dict:
    kind = draw(st.sampled_from(["zp", "zp_vec", "fq_vec", "zn"]))
    if kind == "zn":  # 4 and 9 share factors with 2 and 3: an input error
        return {"kind": "zn", "moduli": draw(st.lists(st.sampled_from(
            [2, 3, 4, 5, 9, 101, 65537, 2**31 - 1]), min_size=1, max_size=3, unique=True))}
    p = draw(st.sampled_from(PRIMES))
    group = {"kind": kind, "p": p}
    if kind != "zp":
        group["n"] = draw(st.integers(1, 4))
    if kind == "fq_vec":
        group["k"] = k = draw(st.integers(1, 3))
        if draw(st.booleans()):  # monic, often unreduced or reducible
            group["modulus"] = draw(st.lists(st.sampled_from([0, 1, p - 1, p, p + 1, -1]),
                                             min_size=k, max_size=k)) + [1]
    return group


def elements(group: dict, wild: bool) -> st.SearchStrategy:
    """Elements of the group, often at its edges; if ``wild``, at times past
    them or of the wrong length."""
    if group["kind"] in ("zp", "zn"):
        order = group["p"] if group["kind"] == "zp" else math.prod(group["moduli"])
        return st.one_of(st.integers(0, order - 1),
                         st.sampled_from([0, 1, order - 1] + [order] * wild))
    base, n = group["p"] ** group.get("k", 1), group["n"]
    coordinate = st.one_of(st.integers(0, base - 1),
                           st.sampled_from([0, 1, base - 1] + [base] * wild))
    vectors = st.lists(coordinate, min_size=n, max_size=n)
    return st.one_of(vectors, st.lists(coordinate, min_size=n - 1, max_size=n + 1)) \
        if wild else vectors


@st.composite
def documents(draw) -> dict:
    group = draw(groups())
    el = elements(group, wild=draw(st.integers(0, 3)) == 0)
    spec = draw(st.one_of(
        st.fixed_dictionaries({"variant": st.just("gap"), "b0": el,
                               "steps": st.lists(el, max_size=3), "s": st.integers(1, 6)}),
        st.fixed_dictionaries({"variant": st.just("ap"), "b0": el, "step": el,
                               "k": st.integers(1, 60)}),
        st.fixed_dictionaries({"variant": st.just("hap"), "step": el, "k": st.integers(1, 60)}),
        st.fixed_dictionaries({"variant": st.just("bohr"), "freqs": st.lists(el, max_size=3),
                               "rho": st.floats(0.01, 0.99)}),
        st.fixed_dictionaries({"variant": st.just("affine"), "base": el,
                               "basis": st.lists(el, max_size=2)}),
        st.fixed_dictionaries({"variant": st.just("line"), "a": el, "d": el}),
        st.fixed_dictionaries({"variant": st.just("explicit"),
                               "elements": st.lists(el, min_size=1, max_size=20)}),
        st.fixed_dictionaries({"variant": st.just("random"), "seed": st.integers(0, 2**32),
                               "size": st.one_of(st.integers(1, 400), st.sampled_from(
                                   [4096, BUDGET, BUDGET + 1]))})))
    return {"group": group, "spec": spec}


def _commands(m: int) -> list[list[str]]:
    return ([["build-source", "--spec", "doc.json", "--out", "built.json"],
             ["profile", "--source", "doc.json", "--alpha", "0.25"],
             ["charsum", "--source", "doc.json", "--characters", "all", "--out", "all.csv"],
             ["charsum", "--source", "doc.json", "--characters", "0:50", "--out", "range.csv"]]
            + [["extract", "--source", "doc.json", "--extractor", family, "--m", str(m),
                "--out", f"{family}.csv"] for family in FAMILIES])


@settings(max_examples=250, deadline=None)
@given(documents(), st.integers(1, 8))
# the mended finds of the first source probe: an affine source with an empty
# basis, an unreduced F_2 modulus, and pgc at p = 2^61 - 1
@example({"group": {"kind": "zp_vec", "p": 2**31 - 1, "n": 2},
          "spec": {"variant": "affine", "base": [0, 0], "basis": []}}, 1)
@example({"group": {"kind": "fq_vec", "p": 2, "k": 2, "modulus": [3, 1, 1], "n": 2},
          "spec": {"variant": "explicit", "elements": [[1, 2], [3, 3], [0, 1]]}}, 1)
@example({"group": {"kind": "zp", "p": P61},
          "spec": {"variant": "explicit", "elements": [1, 2, 3]}}, 3)
# the pairs route past the budget, and extension fields of degree up to 99 over F_4
@example({"group": {"kind": "zp_vec", "p": 65537, "n": 2},
          "spec": {"variant": "random", "size": 4096, "seed": 1}}, 1)
@example({"group": {"kind": "fq_vec", "p": 2, "k": 2, "n": 2500},
          "spec": {"variant": "explicit", "elements": [[1] * 2500]}}, 1)
# line and ap past the old 2^16 extension cap, and past int64 digit products
@example({"group": {"kind": "zp_vec", "p": P61, "n": 4},
          "spec": {"variant": "random", "size": 300, "seed": 2}}, 2)
def test_drawn_sources_end_in_an_exit_code_within_seconds(doc, m):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"ADDEXT_BUDGET": str(BUDGET)}):
        (Path(tmp) / "doc.json").write_text(canonical_json(doc))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in _commands(m):
                err, out = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
                    code = main(argv)
                seconds = time.perf_counter() - t0
                assert code in (0, 2) and "Traceback" not in err.getvalue(), \
                    (argv, err.getvalue())
                assert seconds < 5, (argv, seconds)
        finally:
            os.chdir(cwd)
