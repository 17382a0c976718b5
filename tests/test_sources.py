import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addext import gf
from addext.errors import BudgetError, InputError
from addext.numtheory import CrtSystem
from addext.sources import (AffineSpec, ApSpec, BohrSpec,
                            ExplicitSpec, GapSpec, Group, HapSpec, LineSpec,
                            ListDecodabilityParams, RandomSpec, Source,
                            additive_profile, bohr_regularity_probe, build_source,
                            doubling, gap_decomposition, is_proper_gap,
                            list_decodability_check, rep_count, spec_from_json,
                            spec_to_json, sub_gap, sym_set)


def naive_sumset(els, group):
    return {group.add(x, y) for x in els for y in els}


def naive_rep(els, group, g):
    return sum(1 for x in els for y in els if group.sub(x, y) == g)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_gap_example():
    X = build_source(GapSpec(0, (1,), 5), Group.zp(11))
    assert X.sorted_elements == [0, 1, 2, 3, 4]
    assert X.notes["proper"]


def test_bohr_example():
    X = build_source(BohrSpec((1,), 0.25), Group.zp(13))
    assert X.sorted_elements == [0, 1, 2, 3, 10, 11, 12]


def test_line_example():
    F3 = gf.FieldSpec.make(3, 1)
    X = build_source(LineSpec((0, 0), (1, 1)), Group.fq_vec(F3, 2))
    assert X.elements == {(0, 0), (1, 1), (2, 2)}


def test_line_in_nonprime_field():
    F4 = gf.FieldSpec.make(2, 2)
    X = build_source(LineSpec((1, 2), (0, 1)), Group.fq_vec(F4, 2))
    assert len(X) == 4
    assert all(x[0] == 1 for x in X.elements)


def test_ap_and_hap():
    X = build_source(ApSpec(3, 2, 4), Group.zp(11))
    assert X.sorted_elements == [3, 5, 7, 9]
    H = build_source(HapSpec(5, 3), Group.zp(11))
    assert H.sorted_elements == [0, 5, 10]
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
    assert r1.elements == r2.elements and len(r1) == 10
    assert r1.elements != r3.elements
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
    assert len(X) == 5 and X.elements == build_source(RandomSpec(5, 1), g).elements
    assert X.elements != build_source(RandomSpec(5, 2), g).elements
    for x in X.elements:
        g.validate_element(x)


def test_budget_errors():
    with pytest.raises(BudgetError):
        build_source(BohrSpec((1,), 0.1), Group.zp(101), budget=50)
    with pytest.raises(BudgetError):
        build_source(GapSpec(0, (1, 2, 3), 100), Group.zp(10007), budget=10**4)
    big = build_source(ExplicitSpec(tuple(range(8193))),
                       Group.zn(CrtSystem.make([1000003, 1000033])))
    with pytest.raises(BudgetError):
        sym_set(big, 0.25)  # 8193^2 pairs exceed 2^26 and the order the budget


def test_bohr_membership_boundary_is_exact():
    # rho = 0.2 as a float is slightly above 1/5, so v/p = 1/5 stays inside
    X = build_source(BohrSpec((1,), 0.2), Group.zp(5))
    assert X.sorted_elements == [0, 1, 4]
    # and exactly at a clean fraction: 3/13 < 0.25 but 4/13 > 0.25
    Y = build_source(BohrSpec((1,), 0.25), Group.zp(13))
    assert max(min(v, 13 - v) for v in Y.elements) == 3


def test_bohr_vector_group_dot_product():
    g = Group.zp_vec(7, 2)
    X = build_source(BohrSpec(((1, 0), (0, 1)), 0.3), g)
    want = {(a, b) for a in range(7) for b in range(7)
            if min(a, 7 - a) < 0.3 * 7 and min(b, 7 - b) < 0.3 * 7}
    assert X.elements == want


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_proper_gap_examples():
    assert is_proper_gap(GapSpec(0, (2, 3), 2), Group.zp(7))
    assert not is_proper_gap(GapSpec(0, (1, 2), 3), Group.zp(5))
    assert is_proper_gap(GapSpec(4, (3,), 5), Group.zp(11))  # r=1 AP, s <= p


def test_rep_count_examples():
    X = build_source(GapSpec(0, (1,), 5), Group.zp(11))
    assert rep_count(X, 0) == len(X)
    assert rep_count(X, 1) == 4
    assert rep_count(X, 5) == 0
    for g in range(11):
        assert rep_count(X, g) == naive_rep(X.elements, X.group, g)


def test_sym_set_examples():
    X = build_source(GapSpec(0, (1,), 5), Group.zp(11))
    assert sym_set(X, 0.2) == {0, 1, 10}
    assert sym_set(X, 1.0) == {(a - b) % 11 for a in range(5) for b in range(5)}
    # subgroup: Sym_1 = X (alpha -> 0 keeps only full-count shifts)
    zn = Group.zn(CrtSystem.make([3, 5]))
    sub = build_source(ExplicitSpec((0, 5, 10)), zn)
    assert sym_set(sub, 1e-9) == {0, 5, 10}


def test_sym_set_symmetry_and_zero():
    rng = random.Random(7)
    for p in (11, 31):
        grp = Group.zp(p)
        for _ in range(10):
            X = build_source(ExplicitSpec(tuple(rng.sample(range(p),
                                                           rng.randint(2, p)))), grp)
            S = sym_set(X, 0.4)
            assert 0 in S
            assert S == {(-g) % p for g in S}


@settings(max_examples=25)
@given(st.sets(st.integers(0, 28), min_size=2), st.floats(0.05, 0.5),
       st.floats(0.05, 0.5))
def test_sym_nesting_property(els, a1, a2):
    X = build_source(ExplicitSpec(tuple(els)), Group.zp(29))
    lo, hi = min(a1, a2), max(a1, a2)
    assert sym_set(X, lo) <= sym_set(X, hi)


def test_sym_set_vector_group_matches_naive():
    g = Group.zp_vec(5, 2)
    X = build_source(ExplicitSpec(((0, 0), (1, 1), (2, 2), (0, 1))), g)
    S = sym_set(X, 0.8)
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
    assert S == {0, 1, 9, 10}
    for x in S:
        assert rep_count(X, x) >= len(X) * (1 - 2 / 8**0.9)


def test_list_decodability_full_cube():
    g = Group.zp_vec(5, 2)
    cube = build_source(ExplicitSpec(tuple((a, b) for a in range(5)
                                           for b in range(5))), g)
    ok, worst = list_decodability_check(cube, ListDecodabilityParams(r=1, B=5))
    assert ok and worst["count"] == 5
    ok2, worst2 = list_decodability_check(cube, ListDecodabilityParams(r=1, B=4))
    assert not ok2


def test_list_decodability_affine_rank():
    # affine source whose generator matrix has full rank on every column pair:
    # fibers have size p^(k - rank) = 1
    g = Group.zp_vec(5, 3)
    X = build_source(AffineSpec((0, 0, 0), ((1, 0, 1), (0, 1, 2))), g)
    ok, worst = list_decodability_check(X, ListDecodabilityParams(r=2, B=1))
    assert ok and worst["count"] == 1
    # fixing one coordinate leaves a rank-1 section: fibers of size 5
    ok1, worst1 = list_decodability_check(X, ListDecodabilityParams(r=1, B=5))
    assert ok1 and worst1["count"] == 5


def test_list_decodability_monte_carlo_remark():
    # random sources of size 2^10 in Z_11^4 are (2, |X|/11)-list decodable
    # with empirical frequency >= 0.95 over 100 seeds
    g = Group.zp_vec(11, 4)
    hits = 0
    for seed in range(100):
        X = build_source(RandomSpec(1024, seed), g)
        ok, _ = list_decodability_check(X, ListDecodabilityParams(r=2, B=1024 // 11))
        hits += ok
    assert hits >= 95


def test_bohr_regularity_probe():
    rows = bohr_regularity_probe(BohrSpec((1,), 0.2), Group.zp(101), [0.0, 0.005])
    assert rows[0]["ratio"] == 1.0 and rows[0]["holds"]
    assert rows[1]["base_size"] == 41
    assert rows[1]["applicable"]


def test_gap_decomposition_diagnostic():
    g = Group.zp_vec(5, 2)
    dec = gap_decomposition(GapSpec((0, 0), ((1, 0), (2, 0), (0, 1)), 3), g)
    assert dec["k"] == 2
    assert len(dec["offsets"]) == 3  # one dependent step, s offsets
    # union of independent GAPs over the offsets covers the original set
    X = build_source(GapSpec((0, 0), ((1, 0), (2, 0), (0, 1)), 3), g)
    cover = set()
    for off in dec["offsets"]:
        cover |= build_source(GapSpec(tuple(off), tuple(dec["independent_steps"]), 3),
                              g).elements
    assert cover == X.elements


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
