import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from addext import gf
from addext.canonical import canonical_json
from addext.cli import _element_rows
from addext.errors import BudgetError, InputError
from addext.numtheory import CrtSystem, from_digits, to_digits
from addext.sources import (AffineSpec, ApSpec, BohrSpec,
                            ExplicitSpec, GapSpec, Group, HapSpec, LineSpec,
                            RandomSpec, Source, additive_profile, bohr_vmax, build_source,
                            difference_histogram, doubling, json_int, json_number,
                            spec_from_json, spec_to_json, sub_gap, sym_set)


def naive_sumset(els, group):
    els = oracles.element_list(els)
    return {oracles.group_add(group, x, y) for x in els for y in els}


def naive_rep(els, group, g):
    els = oracles.element_list(els)
    return sum(1 for x in els for y in els if oracles.group_sub(group, x, y) == g)


def _set(elements) -> set:
    """An element array as a set of ints or tuples."""
    return set(oracles.element_list(elements))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_gap_example():
    X = build_source(GapSpec(0, (1,), 5), Group.zp(11))
    assert X.elements.tolist() == [0, 1, 2, 3, 4]
    assert X.notes["proper"]


def test_bohr_example():
    X = build_source(BohrSpec((1,), 0.25), Group.zp(13))
    assert X.elements.tolist() == [0, 1, 2, 3, 10, 11, 12]


def test_line_example():
    F3 = gf.FieldSpec.make(3, 1)
    X = build_source(LineSpec((0, 0), (1, 1)), Group.fq_vec(F3, 2))
    assert X.elements.tolist() == [[0, 0], [1, 1], [2, 2]]


def test_line_in_nonprime_field():
    F4 = gf.FieldSpec.make(2, 2)
    X = build_source(LineSpec((1, 2), (0, 1)), Group.fq_vec(F4, 2))
    assert len(X) == 4
    assert all(x[0] == 1 for x in X.elements)


def test_ap_and_hap():
    X = build_source(ApSpec(3, 2, 4), Group.zp(11))
    assert X.elements.tolist() == [3, 5, 7, 9]
    H = build_source(HapSpec(5, 3), Group.zp(11))
    assert H.elements.tolist() == [0, 5, 10]
    with pytest.raises(InputError):
        build_source(ApSpec(0, 0, 3), Group.zp(11))


def test_affine_source():
    g = Group.zp_vec(5, 3)
    X = build_source(AffineSpec((1, 0, 0), ((0, 1, 0), (0, 0, 1))), g)
    assert len(X) == 25
    assert X.notes["dimension"] == 2
    assert all(x[0] == 1 for x in X.elements)


def test_explicit_and_random():
    g = Group.zp_vec(11, 3)
    r1 = build_source(RandomSpec(10, 42), g)
    r2 = build_source(RandomSpec(10, 42), g)
    r3 = build_source(RandomSpec(10, 43), g)
    assert np.array_equal(r1.elements, r2.elements) and len(r1) == 10
    assert not np.array_equal(r1.elements, r3.elements)
    e = build_source(ExplicitSpec(((1, 2, 3),)), g)
    assert len(e) == 1
    with pytest.raises(InputError):
        build_source(ExplicitSpec(((1, 2),)), g)  # wrong arity


def test_random_source_digests_golden():
    """Groups below 2^63 keep rng.sample: these digests were recorded before
    groups of larger order got their own route."""
    cases = [(Group.zp(101), RandomSpec(10, 1),
              "06b4359cf33b8dc6000eb64289f43b9123e48fd457a2e88565b074dd8cbb8c30"),
             (Group.zp_vec(11, 3), RandomSpec(20, 5),
              "d90dd944a557c8c6ad963861cef3e30a0e740eec574c9c9a1b7da94407c9a847"),
             (Group.fq_vec(gf.FieldSpec.make(2, 3), 4), RandomSpec(7, 2),
              "5fb7845a86518cbb8792aee56c2a1afaec0f8a3f4615328a539c45853c357955")]
    for group, spec, want in cases:
        assert build_source(spec, group).digest == want


def test_random_source_in_a_group_of_order_at_least_2_63():
    g = Group.zp_vec(101, 10)                 # order 101^10 > 2^63
    X = build_source(RandomSpec(5, 1), g)
    assert len(X) == 5 and np.array_equal(X.elements, build_source(RandomSpec(5, 1), g).elements)
    assert not np.array_equal(X.elements, build_source(RandomSpec(5, 2), g).elements)
    for x in oracles.element_list(X.elements):
        g.validate_element(x)


def _element_of_index(group, i):
    """The element of index i read one coordinate at a time: base-q digit j
    of i is coordinate j of a vector over a field of order q."""
    if group.kind in ("zp", "zn"):
        return i
    q = group.base_order
    return tuple(i // q**j % q for j in range(group.n))


@pytest.mark.parametrize("group", [
    Group.zp(101), Group.zn(CrtSystem.make([4, 9, 25])), Group.zp_vec(5, 3),
    Group.zp_vec((1 << 61) - 1, 3),              # indices above 2^63
    Group.fq_vec(gf.FieldSpec.make(3, 2), 2), Group.fq_vec(gf.FieldSpec.make(2, 5), 3),
    Group.fq_vec(gf.FieldSpec.make(2, 31), 3)], ids=lambda g: f"{g.kind}-{g.order}")
def test_group_digits_round_trip_for_every_kind(group):
    rng = random.Random(group.order)
    m, N = group.zmn
    index = [0, group.order - 1] + [rng.randrange(group.order) for _ in range(40)]
    X = group.from_digits(to_digits(index, m, N))
    assert oracles.element_list(X) == [_element_of_index(group, i) for i in index]
    digits = group.digits(X)
    assert digits.dtype == np.int64 and np.array_equal(group.from_digits(digits), X)
    assert from_digits(digits.reshape(len(X), N), m).tolist() == index


def test_random_source_above_sys_maxsize_matches_the_index_map():
    for group in (Group.zp_vec((1 << 61) - 1, 3), Group.fq_vec(gf.FieldSpec.make(2, 31), 3)):
        assert group.order > sys.maxsize
        rng, index = random.Random(9), set()
        while len(index) < 40:
            index.add(rng.randrange(group.order))
        X = build_source(RandomSpec(40, 9), group)
        assert _set(X.elements) == {_element_of_index(group, i) for i in index}


def test_budget_errors(monkeypatch):
    with monkeypatch.context() as mp:
        mp.setenv("ADDEXT_BUDGET", "50")
        with pytest.raises(BudgetError):
            build_source(BohrSpec((1,), 0.1), Group.zp(101))
        mp.setenv("ADDEXT_BUDGET", str(10**4))
        with pytest.raises(BudgetError):
            build_source(GapSpec(0, (1, 2, 3), 100), Group.zp(10007))
    big = build_source(ExplicitSpec(tuple(range(8193))),
                       Group.zn(CrtSystem.make([1000003, 1000033])))
    with pytest.raises(BudgetError):
        sym_set(big, 0.25)  # 8193^2 pairs exceed 2^26 and the order the budget


def test_bohr_membership_boundary_is_exact():
    # rho = 0.2 as a float is slightly above 1/5, so v/p = 1/5 stays inside
    X = build_source(BohrSpec((1,), 0.2), Group.zp(5))
    assert X.elements.tolist() == [0, 1, 4]
    # and exactly at a clean fraction: 3/13 < 0.25 but 4/13 > 0.25
    Y = build_source(BohrSpec((1,), 0.25), Group.zp(13))
    assert max(min(v, 13 - v) for v in Y.elements) == 3


def test_bohr_vmax_matches_the_fraction_form():
    # the one integer predicate against || v/m || < rho in exact rationals
    rng = random.Random(11)
    rhos = [0.1, 0.2, 0.25, 0.3, 1 / 3, 0.5, 0.999, 1.0, 1.5, 0.0, 1e-9]
    for m in list(range(1, 80)) + [rng.randrange(80, 10**12) for _ in range(40)]:
        cases = rhos + [k / m for k in range(0, m + 1, max(1, m // 7))]
        vs = range(m) if m < 80 else [0, 1, m // 2, m - 1] + [rng.randrange(m) for _ in range(30)]
        for rho in cases:
            vmax = bohr_vmax(m, rho)
            for v in vs:
                dist = min(v, m - v)
                assert (dist <= vmax) == (Fraction(dist, m) < Fraction(rho)), (m, rho, v)


def test_bohr_vector_group_dot_product():
    g = Group.zp_vec(7, 2)
    X = build_source(BohrSpec(((1, 0), (0, 1)), 0.3), g)
    want = {(a, b) for a in range(7) for b in range(7)
            if min(a, 7 - a) < 0.3 * 7 and min(b, 7 - b) < 0.3 * 7}
    assert _set(X.elements) == want


def _in_bohr(group, freqs, vmax, x) -> bool:
    """The per-element Bohr predicate: the oracle of the chunked int64 route."""
    m = group.p if group.kind in ("zp", "zp_vec") else group.crt.combined_modulus
    for xi in freqs:
        v = (sum(a * b for a, b in zip(xi, x)) if group.kind == "zp_vec" else xi * x) % m
        if min(v, m - v) > vmax:
            return False
    return True


_BOHR_GROUPS = [Group.zp(101), Group.zp(1009), Group.zn(CrtSystem.make([9, 35])),
                Group.zp_vec(7, 2), Group.zp_vec(5, 3), Group.zp_vec(31, 2)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_BOHR_GROUPS), st.data(),
       st.sampled_from([0.05, 0.1, 0.2, 0.25, 1 / 3, 0.45, 0.9]),
       st.sampled_from([1 << 16, 7, 64, 1]))
def test_bohr_set_matches_the_per_element_predicate(group, data, rho, chunk):
    coord = st.integers(-(1 << 70), 1 << 70)
    freq = (coord if group.kind in ("zp", "zn")
            else st.tuples(*[coord] * group.n))
    freqs = tuple(f for f in data.draw(st.lists(freq, max_size=3))
                  if f != group.zero and f != 0)
    m = group.order if group.kind != "zp_vec" else group.p
    if any(all(a % m == 0 for a in (f if isinstance(f, tuple) else (f,))) for f in freqs):
        # a frequency that is zero mod m is refused, as a literal zero is
        with pytest.raises(InputError, match="Bohr frequencies must be nonzero"):
            build_source(BohrSpec(freqs, rho), group)
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("addext.sources.BOHR_CHUNK", chunk)
        X = build_source(BohrSpec(freqs, rho), group)
    vmax = bohr_vmax(m, rho)
    everything = (range(group.order) if group.kind in ("zp", "zn") else
                  [tuple((i // group.p**j) % group.p for j in range(group.n))
                   for i in range(group.order)])
    assert _set(X.elements) == {x for x in everything if _in_bohr(group, freqs, vmax, x)}


def test_bohr_rejects_frequencies_of_the_wrong_shape_and_huge_moduli(monkeypatch):
    for freqs, group in [(((1, 2),), Group.zp(11)), ((3,), Group.zp_vec(5, 2)),
                         (((1, 2, 3),), Group.zp_vec(5, 2)), (((1,),), Group.zp_vec(5, 2))]:
        with pytest.raises(InputError, match="Bohr frequency"):
            build_source(BohrSpec(freqs, 0.2), group)
    # the smallest prime whose square reaches 2^63: its order is past the default
    # budget, refused before any array is built
    with pytest.raises(BudgetError, match="entries: past the element budget"):
        build_source(BohrSpec((1,), 0.2), Group.zp(3037000507))
    # the matmul_mod work, |freqs| N order, is declared too: 1025 frequencies over Z_101
    # are past 1024 x a budget of 101 entries
    monkeypatch.setenv("ADDEXT_BUDGET", "101")
    assert len(build_source(BohrSpec((1,) * 1024, 0.2), Group.zp(101))) == 41
    with pytest.raises(BudgetError, match="103525 steps: past 1024 x"):
        build_source(BohrSpec((1,) * 1025, 0.2), Group.zp(101))


@pytest.mark.parametrize("group, freqs", [
    (Group.zp(101), (0,)), (Group.zp(101), (3, 101)), (Group.zp(101), (-202,)),
    (Group.zp_vec(5, 2), ((1, 2), (5, 10))),
    (Group.zn(CrtSystem.make([9, 35])), (315,)),
])
def test_bohr_rejects_a_frequency_zero_mod_m(group, freqs):
    with pytest.raises(InputError, match="Bohr frequencies must be nonzero"):
        build_source(BohrSpec(freqs, 0.1), group)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_proper_gap_examples():
    # build_source notes whether the s^r coefficient sums are pairwise distinct
    assert build_source(GapSpec(0, (2, 3), 2), Group.zp(7)).notes["proper"]
    assert not build_source(GapSpec(0, (1, 2), 3), Group.zp(5)).notes["proper"]
    assert build_source(GapSpec(4, (3,), 5), Group.zp(11)).notes["proper"]  # r=1 AP, s <= p


def test_rep_count_examples():
    X = build_source(GapSpec(0, (1,), 5), Group.zp(11))
    assert oracles.rep_count(X, 0) == len(X)
    assert oracles.rep_count(X, 1) == 4
    assert oracles.rep_count(X, 5) == 0
    for g in range(11):
        assert oracles.rep_count(X, g) == naive_rep(X.elements, X.group, g)


def test_sym_set_examples():
    X = build_source(GapSpec(0, (1,), 5), Group.zp(11))
    assert _set(sym_set(X, 0.2)) == {0, 1, 10}
    assert _set(sym_set(X, 1.0)) == {(a - b) % 11 for a in range(5) for b in range(5)}
    # subgroup: Sym_1 = X (alpha -> 0 keeps only full-count shifts)
    zn = Group.zn(CrtSystem.make([3, 5]))
    sub = build_source(ExplicitSpec((0, 5, 10)), zn)
    assert _set(sym_set(sub, 1e-9)) == {0, 5, 10}


def test_sym_set_symmetry_and_zero():
    rng = random.Random(7)
    for p in (11, 31):
        grp = Group.zp(p)
        for _ in range(10):
            X = build_source(ExplicitSpec(tuple(rng.sample(range(p),
                                                           rng.randint(2, p)))), grp)
            S = _set(sym_set(X, 0.4))
            assert 0 in S
            assert S == {(-g) % p for g in S}


@settings(max_examples=25)
@given(st.sets(st.integers(0, 28), min_size=2), st.floats(0.05, 0.5),
       st.floats(0.05, 0.5))
def test_sym_nesting_property(els, a1, a2):
    X = build_source(ExplicitSpec(tuple(els)), Group.zp(29))
    lo, hi = min(a1, a2), max(a1, a2)
    assert _set(sym_set(X, lo)) <= _set(sym_set(X, hi))


def test_sym_set_vector_group_matches_naive():
    g = Group.zp_vec(5, 2)
    X = build_source(ExplicitSpec(((0, 0), (1, 1), (2, 2), (0, 1))), g)
    S = _set(sym_set(X, 0.8))
    thresh = 0.2 * len(X)
    for el in [(0, 0), (1, 1), (1, 0), (4, 4)]:
        assert (el in S) == (naive_rep(X.elements, g, el) >= thresh)


def test_doubling_examples():
    X = build_source(GapSpec(0, (1,), 5), Group.zp(11))
    assert doubling(X) == 9
    full = build_source(ExplicitSpec(tuple(range(11))), Group.zp(11))
    assert doubling(full) == 11
    zn = Group.zn(CrtSystem.make([3, 5]))
    coset = build_source(ExplicitSpec((1, 6, 11)), zn)  # coset of {0,5,10}
    assert doubling(coset) == 3


def test_doubling_in_a_large_group_takes_the_pairs_route():
    rng = random.Random(4)
    grp = Group.zp(1000003)
    X = build_source(ExplicitSpec(tuple(rng.sample(range(1000003), 200))), grp)
    assert doubling(X) == len(naive_sumset(X.elements, grp))


def test_doubling_matches_naive():
    rng = random.Random(3)
    for p in (13, 101):
        grp = Group.zp(p)
        for _ in range(20):
            els = tuple(rng.sample(range(p), rng.randint(1, p)))
            X = build_source(ExplicitSpec(els), grp)
            assert doubling(X) == len(naive_sumset(X.elements, grp))
    gv = Group.zp_vec(5, 2)
    for _ in range(10):
        els = tuple((rng.randrange(5), rng.randrange(5)) for _ in range(8))
        X = build_source(ExplicitSpec(tuple(set(els))), gv)
        assert doubling(X) == len(naive_sumset(X.elements, gv))


def test_additive_profile_examples():
    X = build_source(GapSpec(0, (1,), 5), Group.zp(11))
    prof = additive_profile(X, 0.2)
    assert abs(prof.beta - math.log(3) / math.log(5)) < 1e-12
    assert abs(prof.tau - (math.log(9) / math.log(5) - 1)) < 1e-12
    assert abs(prof.entropy_rate - math.log(5) / math.log(11)) < 1e-12
    zn = Group.zn(CrtSystem.make([3, 5]))
    sub = build_source(ExplicitSpec((0, 5, 10)), zn)
    prof2 = additive_profile(sub, 0.5)
    assert prof2.beta == 1.0 and abs(prof2.tau) < 1e-12


def test_gap_doubling_bound_for_proper_gaps():
    # |X+X| <= 2^r |X| for proper GAPs
    rng = random.Random(11)
    grp = Group.zp(499)
    built = 0
    while built < 10:
        spec = GapSpec(rng.randrange(499), (rng.randrange(1, 499),
                                            rng.randrange(1, 499)), 8)
        X = build_source(spec, grp)
        if not X.notes["proper"]:
            continue
        built += 1
        assert doubling(X) <= 4 * len(X)


def test_sub_gap_is_homogeneous_witness_set():
    grp = Group.zp(101)
    spec = GapSpec(7, (1, 9), 8)  # 1*d1 + 9*d2 = 0 forces d1 = d2 = 0: proper
    X = build_source(spec, grp)
    assert X.notes["proper"]
    S = sub_gap(spec, grp, 2)
    assert S.tolist() == [0, 1, 9, 10]
    for x in S:
        assert oracles.rep_count(X, x) >= len(X) * (1 - 2 / 8**0.9)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_spec_json_round_trips():
    specs = [
        GapSpec((1, 2), ((1, 0), (0, 1)), 3),
        ApSpec(3, 2, 4),
        HapSpec(5, 3),
        BohrSpec((1, 5), 0.25),
        AffineSpec((0, 0), ((1, 1),)),
        LineSpec((0, 0), (1, 1)),
        ExplicitSpec((1, 2, 3)),
        RandomSpec(10, 42),
    ]
    for s in specs:
        assert spec_from_json(spec_to_json(s)) == s


def test_group_json_round_trips():
    groups = [Group.zp(11), Group.zp_vec(5, 3),
              Group.fq_vec(gf.FieldSpec.make(2, 2), 4),
              Group.zn(CrtSystem.make([3, 5, 7]))]
    for g in groups:
        g2 = Group.from_json(g.to_json())
        assert g2.kind == g.kind and g2.order == g.order


def test_group_rejects_composite_p():
    for obj in ({"kind": "zp", "p": 4}, {"kind": "zp_vec", "p": 4, "n": 1},
                {"kind": "fq_vec", "p": 4, "k": 1, "n": 2}):
        with pytest.raises(InputError):
            Group.from_json(obj)
    assert Group.from_json({"kind": "zn", "moduli": [4, 9]}).order == 36


def test_source_digest_is_content_addressed():
    g = Group.zp(11)
    a = build_source(ExplicitSpec((1, 2, 3)), g)
    b = build_source(GapSpec(1, (1,), 3), g)  # same elements, different spec
    assert a.digest == b.digest
    c = build_source(ExplicitSpec((1, 2, 4)), g)
    assert a.digest != c.digest


def test_source_sorts_and_digests_once_and_compares_by_content():
    g = Group.zp_vec(5, 2)
    a = build_source(ExplicitSpec(((3, 1), (0, 4), (2, 2))), g)
    fresh = build_source(ExplicitSpec(((3, 1), (0, 4), (2, 2))), g)
    assert a.elements.tolist() == [[0, 4], [2, 2], [3, 1]] and not a.elements.flags.writeable
    assert a.digest is a.digest and a.to_json()["digest"] == a.digest
    # the cached digest is no field: equality and hashing see the content only
    assert a == fresh and hash(a) == hash(fresh)
    assert fresh.digest == a.digest


_elements = st.one_of(st.integers(0, 2**63 - 1),
                      st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=10).map(tuple))


@settings(max_examples=200)
@given(st.lists(_elements, min_size=1, max_size=5), st.integers(0, 2**63 - 1))
@example([0], 0)
@example([(0,)], 1)
@example([2**63 - 1, 5], 2)
def test_elem_text_is_the_canonical_json_of_the_element(xs, value):
    # the extract command's bulk CSV rows of an element array are the csv
    # module's rows of each element's canonical JSON, one row at a time
    length = len(xs[0]) if isinstance(xs[0], tuple) else None
    xs = [x for x in xs if (len(x) if isinstance(x, tuple) else None) == length]
    group = Group.zp(11) if length is None else Group.zp_vec(11, length)
    for x in xs:
        assert oracles.element_text(x) == canonical_json(oracles.element_json(x))
    want = oracles.csv_text(["element", "output"],
                            [[oracles.element_text(x), value] for x in xs])
    got = _element_rows(group, np.array(xs, dtype=np.int64), np.full(len(xs), value), "%d")
    assert "element,output\r\n" + got == want


@pytest.mark.parametrize("group, spec", [
    (Group.zp(101), GapSpec(7, (1, 9), 8)),
    (Group.zp(11), GapSpec(0, (1, 2), 5)),
    (Group.zn(CrtSystem.make([4, 9, 5])), ApSpec(17, 35, 40)),
])
def test_difference_histogram_matches_rep_count(group, spec):
    X = build_source(spec, group)
    values, counts = difference_histogram(X)
    els = oracles.element_list(X.elements)
    assert sorted({oracles.group_sub(group, x, y) for x in els for y in els}) == values.tolist()
    assert counts.tolist() == [oracles.rep_count(X, g) for g in values.tolist()]


_JSON_VALUES = [0, -3, 12, 10.0, -2.0, 1e300, 10**400, 10.7, 0.3, math.inf, -math.inf,
                math.nan, True, False, "12", "0.3", None, [1], {"k": 1}]


@pytest.mark.parametrize("value", _JSON_VALUES, ids=lambda v: repr(v)[:12])
def test_json_numbers_are_read_as_draft7_types_them(value):
    # the oracle: jsonschema's own Draft-7 type checker; a number must also be a
    # finite float
    from jsonschema import Draft7Validator
    is_type = Draft7Validator.TYPE_CHECKER.is_type
    if is_type(value, "integer"):
        assert json_int(value, "x") == value and type(json_int(value, "x")) is int
    else:
        with pytest.raises(InputError, match="^x must be an integer, not "):
            json_int(value, "x")
    if is_type(value, "number") and abs(value) <= sys.float_info.max:
        assert json_number(value, "x") == value and type(json_number(value, "x")) is float
    else:
        with pytest.raises(InputError, match="^x must be a finite number, not "):
            json_number(value, "x")


def test_an_integral_float_in_a_spec_still_reads_as_an_int():
    spec = spec_from_json({"variant": "gap", "b0": 0.0, "steps": [1.0], "s": 10.0})
    assert spec == GapSpec(0, (1,), 10) and type(spec.s) is int
    group = Group.from_json({"kind": "fq_vec", "p": 2.0, "k": 2, "modulus": [1.0, 1, 1],
                             "n": 1.0})
    assert group == Group.from_json({"kind": "fq_vec", "p": 2, "k": 2, "modulus": [1, 1, 1],
                                     "n": 1})
