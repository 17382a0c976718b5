"""Box enumeration of spans: GAP, AP, HAP, affine and line sources and sub-GAPs
all come from one budgeted enumerator.

The golden digests below were recorded before the six per-variant loops were
merged into ``sources._span``, so they pin element sets, notes and source
digests byte for byte.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from addext import gf
from addext.canonical import digest
from addext.errors import BudgetError, InputError
from addext.numtheory import CrtSystem, to_digits
from addext.sources import (AffineSpec, ApSpec, GapSpec, Group, HapSpec, LineSpec,
                            _span, build_source, sub_gap)

F4, F8, F9, F25 = (gf.FieldSpec.make(p, k) for p, k in ((2, 2), (2, 3), (3, 2), (5, 2)))
Z180 = Group.zn(CrtSystem.make([4, 9, 5]))


def _els(xs):
    return sorted(xs.tolist())


def _source(spec, group):
    return lambda: build_source(spec, group).to_json()


def _sub_gap(spec, group, side):
    return lambda: _els(sub_gap(spec, group, side))


CASES = {
    "gap-zp": _source(GapSpec(3, (5, 17), 6), Group.zp(101)),
    "gap-zp-improper": _source(GapSpec(0, (1, 2), 5), Group.zp(11)),
    "gap-zp-rank0": _source(GapSpec(4, (), 3), Group.zp(11)),
    "gap-zn": _source(GapSpec(7, (12, 35), 5), Z180),
    "gap-zp_vec": _source(GapSpec((1, 2, 3), ((1, 0, 2), (0, 3, 1), (1, 3, 3)), 4),
                          Group.zp_vec(7, 3)),
    "gap-fq_vec-f9": _source(GapSpec((1, 5), ((2, 7), (4, 0)), 4), Group.fq_vec(F9, 2)),
    "gap-fq_vec-f8": _source(GapSpec((3, 6), ((5, 1), (7, 2)), 3), Group.fq_vec(F8, 2)),
    "gap-fq_vec-f25": _source(GapSpec((0, 11), ((13, 2), (6, 24)), 6), Group.fq_vec(F25, 2)),
    "ap-zp": _source(ApSpec(5, 7, 30), Group.zp(101)),
    "ap-zp-wraps": _source(ApSpec(0, 1, 15), Group.zp(11)),
    "ap-zp_vec": _source(ApSpec((1, 2), (3, 4), 9), Group.zp_vec(5, 2)),
    "ap-fq_vec": _source(ApSpec((1, 8), (4, 7), 5), Group.fq_vec(F9, 2)),
    "ap-zn": _source(ApSpec(17, 35, 40), Z180),
    "hap-zn": _source(HapSpec(35, 40), Z180),
    "hap-zp": _source(HapSpec(9, 20), Group.zp(101)),
    "hap-fq_vec": _source(HapSpec((5, 3), 7), Group.fq_vec(F8, 2)),
    "affine-zp_vec": _source(AffineSpec((1, 2, 3), ((1, 0, 1), (0, 1, 2))),
                             Group.zp_vec(5, 3)),
    "affine-zp_vec-dependent": _source(AffineSpec((4, 0, 1), ((1, 0, 1), (2, 0, 2))),
                                       Group.zp_vec(5, 3)),
    "affine-zp_vec-rank0": _source(AffineSpec((4, 0, 1), ()), Group.zp_vec(5, 3)),
    "affine-fq_vec-f9": _source(AffineSpec((1, 2, 3), ((1, 5, 0), (0, 7, 2))),
                                Group.fq_vec(F9, 3)),
    "affine-fq_vec-f4": _source(AffineSpec((3, 1), ((2, 3),)), Group.fq_vec(F4, 2)),
    "line-zp_vec": _source(LineSpec((3, 4), (1, 5)), Group.zp_vec(11, 2)),
    "line-zp_vec-3": _source(LineSpec((0, 0, 6), (0, 2, 1)), Group.zp_vec(7, 3)),
    "line-fq_vec-f9": _source(LineSpec((1, 0, 8), (2, 5, 7)), Group.fq_vec(F9, 3)),
    "line-fq_vec-f8": _source(LineSpec((6, 1), (3, 0)), Group.fq_vec(F8, 2)),
    "sub_gap-zp": _sub_gap(GapSpec(7, (1, 9), 8), Group.zp(101), 2),
    "sub_gap-zp-3": _sub_gap(GapSpec(0, (5, 17, 40), 8), Group.zp(101), 3),
    "sub_gap-zn": _sub_gap(GapSpec(1, (12, 35), 5), Z180, 3),
    "sub_gap-zp_vec": _sub_gap(GapSpec((0, 0), ((1, 2), (3, 1)), 6), Group.zp_vec(7, 2), 3),
    "sub_gap-fq_vec": _sub_gap(GapSpec((0, 0), ((2, 7), (4, 1)), 4), Group.fq_vec(F9, 2), 4),
}

GOLDEN = {
    "affine-fq_vec-f4":
        "8f92c46bef9583d16037ca887d595778aeb6dbbcc4cb545ae91fa6cb9f3dd854",
    "affine-fq_vec-f9":
        "08bed9555b9b325fd6da18dec2043a4592e92c9c3c6aea46d37fbdbfdeafbbad",
    "affine-zp_vec":
        "e90bfbb869f69353c850c2dc6df05381a904eebacfde180d612454681df4a1a6",
    "affine-zp_vec-dependent":
        "71516f05630ca0fc9919cf0bf3f0bbf0dd6dc95a4af84ce0b667ffa03545b67e",
    "affine-zp_vec-rank0":
        "1476b79c797a558ba1872f98cff127600ac3444165661353cc909abca8aa5345",
    "ap-fq_vec":
        "d765a7408db5c95aca22fda164ffcdcd66d48e6d82a2d7cbed3c2fe8eb5d48ef",
    "ap-zn":
        "89286e128de8e267e1114c486857d12bd5d79849e36e11cceb838eddeed8a435",
    "ap-zp":
        "1a83103ca66e8b0a59a1c4002b1afe02bb29b53664316b85dd652c770a70268f",
    "ap-zp-wraps":
        "a09f2a039fac94fe12137e53ba52021813a4f35fbadecc96225d77d8243f6b84",
    "ap-zp_vec":
        "b85be396da3a9006ef5ba2e4e9d3ed089e8ee21b96555066ddbce1db9a2f5a2a",
    "gap-fq_vec-f25":
        "9ed8888bf21b71b67cd4e0203b415e4b5c391591d6f71bca7c098a0cbea5e45e",
    "gap-fq_vec-f8":
        "49b0958b8e6ec1ea7a6a837f54ffb81bc65e3d9eb1d9af3246ea3c68ec3a54ac",
    "gap-fq_vec-f9":
        "70743a818f3816a1ae010829cd0c85b6771ea5bf4cae66164dfaca2f798433cb",
    "gap-zn":
        "abd9ce42e692452e92c49542d93b756609dceb3e9c886e48ed8891f82628713b",
    "gap-zp":
        "3eb185a4ba84536142249571e3ab961b421529a1112ef2a3f96df4b25da29dce",
    "gap-zp-improper":
        "a19d6bc1dfa9d9c885869c6ecf04cb27d3f340d3773724e85249dc64632e9dbb",
    "gap-zp-rank0":
        "ede6ba242b8ad5edabbae762b5a28b9e9fef22aa708b4843d40da92700753e83",
    "gap-zp_vec":
        "2d4d9652b22ec258c9408a0ade3f9dcfecc14e8a31ad7ad324be3a04c357796b",
    "hap-fq_vec":
        "4e99ad765bcda9476439588fe4f6b1d474177cd26d9c2a41c7563f3492cf693f",
    "hap-zn":
        "5583a4e231a2d30c7d02cf948557867c633b6fabbd61b6f06b15651ddc4206f5",
    "hap-zp":
        "72a0aceba1110f6c2a4019e4583a605f4ab85dfbfcfdf788c74c3b7afb9b7e39",
    "line-fq_vec-f8":
        "4655b08cb681f0ef3368d0b28d59b6a5b5fc08fa460c0dca033b69f8f7d3b174",
    "line-fq_vec-f9":
        "bbc75f696043e967cf4381811268c1737fe4e36ee99fe76da7557e6aa48d09ec",
    "line-zp_vec":
        "f2ef5b7e18b709ee68628bd25be58431becbc5cb9e4603d79efe563bb0a65583",
    "line-zp_vec-3":
        "4e47b862d5aed79f0e16c582f85809b260cc8a81b072949461676987a9443448",
    "sub_gap-fq_vec":
        "0b847d4db641a662c25fda9601b1eda36493f776a626a3e4b9870d0484f55945",
    "sub_gap-zn":
        "6976ab76f71c15859fb12619167550c0c4c075e0eff9bd362c8c5e2580e43f41",
    "sub_gap-zp":
        "b2eb1120ab34ec973663d9f1f1d76516d8adfbec8dc8158817dd6b88fbfafdfc",
    "sub_gap-zp-3":
        "12b19cc30c3fe72f15604ab046908b6109301f8596e4f992cf43f12d35d6bdef",
    "sub_gap-zp_vec":
        "a28a256a8f7d9530397404e17de5752b9668558078c521b9823a20d1c1de0d2a",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_span_digests_golden(name):
    assert digest(CASES[name]()) == GOLDEN[name]


def naive_span(group, base, gens, count, scalars=False):
    """Every coefficient vector of the box, one at a time: c-fold sums of
    each generator, or base-field scalar multiples written out per coordinate."""
    def times(c, g):
        if not scalars:
            x = group.zero
            for _ in range(c):
                x = oracles.group_add(group, x, g)
            return x
        if group.kind == "zp_vec":
            return tuple(c * a % group.p for a in g)
        return tuple(oracles.fq_mul(group.field, c, a) for a in g)

    out = set()
    for coeffs in itertools.product(range(count), repeat=len(gens)):
        x = base
        for c, g in zip(coeffs, gens):
            x = oracles.group_add(group, x, times(c, g))
        out.add(x)
    return out


GROUPS = [Group.zp(13), Z180, Group.zp_vec(5, 2), Group.zp_vec(3, 3),
          Group.fq_vec(F4, 2), Group.fq_vec(F9, 2)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_span_matches_the_coefficient_box(data):
    group = data.draw(st.sampled_from(GROUPS))
    scalars = group.kind in ("zp_vec", "fq_vec") and data.draw(st.booleans())
    element = st.integers(0, group.order - 1).map(
        lambda i: oracles.element_list(group.from_digits(to_digits([i], *group.zmn)))[0])
    base = data.draw(element)
    gens = data.draw(st.lists(element, max_size=3))
    count = group.base_order if scalars else data.draw(st.integers(0, 7))
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setenv("ADDEXT_BUDGET", str(count ** len(gens)))
        got = oracles.element_list(_span(group, base, gens, count, scalars))
        assert got == sorted(naive_span(group, base, gens, count, scalars))
        monkeypatch.setenv("ADDEXT_BUDGET", str(count ** len(gens) - 1))
        with pytest.raises(BudgetError):
            _span(group, base, gens, count, scalars)


def test_line_sources_are_budgeted(monkeypatch):
    monkeypatch.setenv("ADDEXT_BUDGET", "10")
    with pytest.raises(BudgetError):
        build_source(LineSpec((0, 0), (1, 2)), Group.zp_vec(101, 2))
    monkeypatch.setenv("ADDEXT_BUDGET", "101")
    assert len(build_source(LineSpec((0, 0), (1, 2)), Group.zp_vec(101, 2))) == 101


def test_line_budget_is_checked_before_any_multiple_is_built():
    with pytest.raises(BudgetError):
        build_source(LineSpec((0, 0), (1, 2)), Group.zp_vec((1 << 61) - 1, 2))


def test_every_box_checks_its_volume_first(monkeypatch):
    zp = Group.zp(101)
    monkeypatch.setenv("ADDEXT_BUDGET", "10")
    with pytest.raises(BudgetError):
        build_source(ApSpec(0, 1, 11), zp)
    monkeypatch.setenv("ADDEXT_BUDGET", "15")
    with pytest.raises(BudgetError):
        build_source(GapSpec(0, (1, 2), 4), zp)
    monkeypatch.setenv("ADDEXT_BUDGET", "10")
    with pytest.raises(BudgetError):
        build_source(AffineSpec((0, 0), ((1, 0),)), Group.zp_vec(11, 2))
    # elements are validated before the volume is checked
    monkeypatch.setenv("ADDEXT_BUDGET", "15")
    with pytest.raises(InputError):
        build_source(GapSpec(101, (1, 2), 4), zp)


def test_sub_gap_and_decomposition_respect_the_budget(monkeypatch):
    monkeypatch.setenv("ADDEXT_BUDGET", "8")
    spec = GapSpec((0, 0), ((1, 0), (2, 0), (3, 0), (4, 0)), 3)
    assert len(sub_gap(spec, Group.zp_vec(5, 2), 1)) == 1
    with pytest.raises(BudgetError):
        sub_gap(spec, Group.zp_vec(5, 2), 2)


@pytest.mark.parametrize("call", [
    lambda: sub_gap(GapSpec(0, (9,), 3), Group.zp(5), 2),
    lambda: sub_gap(GapSpec((0, 0), ((1, 2, 3),), 2), Group.zp_vec(5, 2), 2),
], ids=["sub-gap-zp", "sub-gap-zp-vec"])
def test_sub_gap_and_decomposition_reject_non_elements(call):
    # step 9 in Z_5 and a 3-coordinate step in Z_5^2 are not group elements;
    # zip would have truncated the last one to (1, 2)
    with pytest.raises(InputError, match="is not an element"):
        call()
