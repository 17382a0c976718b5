"""Differential tests of the batch routes of ``extract_many``, ``encode_many``,
``gf`` and ``numtheory.discrete_logs``.

``line`` and ``ap`` evaluate their block norms on all points at once through
``gf.norms_many`` (the product of the conjugates of each lifted point, each
conjugate one step through the Frobenius matrix of h -> h^q, over (N, K)
arrays of F_p digits, or uint64 bitmasks in characteristic 2), whose second
route ``gf.conjugate_norms_many`` takes each conjugate by a power ladder
instead; ``line`` takes its output bits from
``gf.trace_many`` or ``gf.quadratic_character_many``, and ``pgc`` takes the
discrete logs of all points at once by ``numtheory.discrete_logs``. Their
oracles are the one-point routes of ``tests/oracles.py`` (``line_extract``,
``ap_extract``, ``norm_poly_eval``, ``norm_by_conjugates``, ``trace_to_f2``,
``fq_quadratic_character``, all by the one-element arithmetic ``fq_mul``,
``fq_pow``, ..., and ``pgc_extract`` by the dict baby-step/giant-step
``discrete_log``). ``zp`` and ``zpn`` encode all points in one
``encode_many`` call, against plain ``pow`` and ``crt_combine`` over
``Residue``.
"""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from addext import extractors as ex, gf, numtheory as nt
from addext.cli import main
from addext.errors import BudgetError, InputError

P61 = 2**61 - 1

# n is chosen so that the last block is padded
LINE_CASES = [(4, 7), (9, 5), (25, 4), (32, 3), (49, 6)]


def block_points(draw, cfg, q, count):
    """Points whose blocks are each all zero, subfield-only (only the first
    coordinate set) or arbitrary; coordinates past n are padding."""
    points = []
    for _ in range(count):
        x = [0] * cfg.padded_n
        for block in cfg.blocks:
            kind = draw(st.sampled_from(["zero", "first", "any"]))
            width = {"zero": 0, "first": 1, "any": block.size}[kind]
            for i in range(block.start, block.start + width):
                x[i] = draw(st.integers(0, q - 1))
        points.append(tuple(x[:cfg.n]))
    return points


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_line_batch_matches_one_point(data):
    q, n = data.draw(st.sampled_from(LINE_CASES))
    cfg = ex.build_line_extractor(q, n)
    points = block_points(data.draw, cfg, q, data.draw(st.integers(1, 8)))
    assert ex.extract_many(cfg, points).tolist() == [oracles.line_extract(x, cfg) for x in points]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_ap_batch_matches_one_point(data):
    p, n, m = data.draw(st.sampled_from([(5, 3, 1), (11, 7, 2), (101, 10, 2)]))
    cfg = ex.build_ap_extractor(p, n, m)
    points = block_points(data.draw, cfg, p, data.draw(st.integers(1, 8)))
    assert ex.extract_many(cfg, points).tolist() == [oracles.ap_extract(x, cfg) for x in points]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 11, 101, 10007]), st.integers(0, 3),
       st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40))
def test_pgc_batch_matches_one_point(p, m, points):
    if (1 << m) >= p - 1:
        m = 0
    cfg = ex.build_pgc_extractor(p, m)
    assert ex.extract_many(cfg, points).tolist() == [oracles.pgc_extract(x, cfg) for x in points]


# zpn configs (p, n, m); at (101, 4), (7, 9) and (65537, 3) q > 2^32, so the
# products g_i^{x_i} w_i of the CRT weights pass 2^63 as Python ints
ZPN_CASES = [(2, 2, 1), (3, 2, 1), (11, 3, 2), (101, 4, 3), (7, 9, 5), (65537, 3, 8)]


@pytest.mark.parametrize("p, n, m", ZPN_CASES)
def test_zpn_encodings_match_the_crt_oracle(p, n, m):
    cfg = ex.build_zpn_extractor(p, n, m)
    rng = random.Random(p * n)
    points = [tuple(rng.randrange(-p, 2 * p) for _ in range(n)) for _ in range(200)]
    points += [(0,) * n, (p - 1,) * n]
    want = [oracles.crt_combine([oracles.Residue(pow(g, xi % p, qi), qi)
                                 for g, qi, xi in zip(cfg.gs, cfg.qs, x)],
                                nt.CrtSystem.make(cfg.qs)).value for x in points]
    assert ex.encode_many(cfg, points).tolist() == want
    assert ex.extract_many(cfg, points).tolist() == [y % cfg.M for y in want]


@pytest.mark.parametrize("p, m", [(2, 1), (5, 2), (101, 3), (10007, 5), (1000003, 8)])
def test_zp_encodings_match_pow(p, m):
    cfg = ex.build_zp_extractor(p, m)
    rng = random.Random(p)
    points = [rng.randrange(-p, 2 * p) for _ in range(500)] + [0, p - 1]
    want = [pow(cfg.g, x % p, cfg.q) for x in points]
    assert ex.encode_many(cfg, points).tolist() == want
    assert ex.extract_many(cfg, points).tolist() == [y % cfg.M for y in want]


def test_a_zpn_point_of_the_wrong_length_is_an_input_error():
    cfg = ex.build_zpn_extractor(11, 3, 1)
    for bad in [(), (1, 2), (1, 2, 3, 4)]:
        for route in (ex.encode_many, ex.extract_many):
            with pytest.raises(InputError, match="length 3"):
                route(cfg, [(1, 2, 3), bad])


# baby-step counts B = p - 1 (one table of every index), about sqrt(p) and 1
# (p - 1 giant steps); B = p - 1 is left out where its table would hold more
# than 2^24 entries, and B = 1 where p - 1 giant steps would take seconds. At
# p ~ 2^32, where products take 32-bit limbs, B = 4 sqrt(p) keeps the 2^14
# giant steps under a second.
DLOG_CASES = [(p, b) for p in (3, 11, 10007, 1000003)
              for b in sorted({p - 1, math.isqrt(p), 1})
              if b > 1 or p < 1 << 16] + [(4294967291, 1 << 18)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DLOG_CASES), st.data())
def test_discrete_logs_match_the_one_point_oracle(case, data):
    p, baby = case
    point = st.integers(0, p - 1) | st.sampled_from([0, 1, p - 1])
    ys = data.draw(st.lists(point, min_size=1, max_size=8))
    ys += data.draw(st.lists(st.sampled_from(ys), max_size=3))   # repeated points
    g = nt.smallest_primitive_root(p)
    want = [-1 if y == 0 else
            oracles.discrete_log(oracles.Residue(g, p), oracles.Residue(y, p), p - 1)
            for y in ys]
    assert nt.discrete_logs(g, ys, p, baby).tolist() == want


@pytest.mark.parametrize("p, N, budget, baby", [
    (10007, 20, 1000, 1000),            # B = 4549 held to the budget: 11 giant steps
    (4294967291, 5, 1 << 18, 1 << 18),  # limb products: B = 544,383 held to 2^18
])
def test_pgc_table_is_held_to_the_element_budget(monkeypatch, p, N, budget, baby):
    monkeypatch.setenv("ADDEXT_BUDGET", str(budget))
    babies, real = [], nt.discrete_logs
    monkeypatch.setattr(nt, "discrete_logs",
                        lambda g, ys, q, b: babies.append(b) or real(g, ys, q, b))
    cfg = ex.build_pgc_extractor(p, 3)
    rng = random.Random(p)
    points = [0, 1, p - 1] + [rng.randrange(p) for _ in range(N - 3)]
    assert ex.extract_many(cfg, points).tolist() == [oracles.pgc_extract(x, cfg) for x in points]
    assert babies == [baby]


def test_pgc_past_its_declared_cost_is_refused_before_the_table(monkeypatch):
    # at ADDEXT_BUDGET = 100, B = 100 and 101 giant steps of 20 points cost
    # 100 + 101 (20 + PY_STEP) = 208,968 steps, past 1024 x 100
    cfg = ex.build_pgc_extractor(10007, 3)
    monkeypatch.setenv("ADDEXT_BUDGET", "100")
    monkeypatch.setattr(nt, "discrete_logs", lambda *a: pytest.fail("table built"))
    with pytest.raises(BudgetError, match="100 baby and 101 giant steps, 208968 steps"):
        ex.extract_many(cfg, range(1, 21))


def test_pgc_build_is_refused_before_its_primitive_root_search(monkeypatch):
    # one point at this safe prime near 2^54 costs 5.6e11 steps, past
    # WORK_FACTOR x 2^26: refused before p - 1 is factored by trial division
    monkeypatch.setattr(nt, "factorize", lambda n: pytest.fail("p - 1 factored"))
    with pytest.raises(BudgetError, match="pgc discrete logs of 1 points at "
                                          "p = 18014398509483863 .* 560493234208 steps"):
        ex.build_pgc_extractor(18014398509483863, 3)


def test_discrete_logs_at_one_table_are_the_index_table():
    p = 10007
    ind = oracles.index_table(p)
    assert nt.discrete_logs(nt.smallest_primitive_root(p), range(p), p, p - 1).tolist() == ind


def test_norms_many_across_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(gf, "NORM_CHUNK", 7)
    rng = random.Random(5)
    for q, b in ((4, 5), (9, 3), (49, 5), (101, 4)):
        ext = gf.get_extension(ex.prime_power_field(q), b)
        rows = [[rng.randrange(q) for _ in range(b)] for _ in range(30)]
        rows += [[0] * b, [rng.randrange(1, q)] + [0] * (b - 1)]
        assert gf.norms_many(ext, rows).tolist() == [oracles.norm_poly_eval(ext, r) for r in rows]
        short = [r[:2] for r in rows]             # fewer than b coordinates
        assert gf.norms_many(ext, short).tolist() == [oracles.norm_poly_eval(ext, r) for r in short]
    cfg = ex.build_line_extractor(49, 6)
    points = [tuple(rng.randrange(49) for _ in range(6)) for _ in range(22)]
    assert ex.extract_many(cfg, points).tolist() == [oracles.line_extract(x, cfg) for x in points]


# (q, b) on each digit route of the norms: F_2 bitmasks (K = k b <= 32), F_2
# digits (K > 32), odd p on int64 products, and the 32-bit limbs of
# numtheory.mul_mod, where K (p - 1)^2 >= 2^63
NORM_ROUTES = {
    "bitmasks": [(2, 7), (4, 5), (8, 4), (32, 5)],
    "f2 digits": [(2, 33), (4, 17)],
    "int64": [(3, 7), (27, 3), (49, 5), (101, 7)],
    "limbs": [(3037000493, 2), (3037000493, 3), (P61, 3), (P61, 4)],
}


def _route(ext):
    E = ext.ext
    if gf._uses_bitmasks(E):
        return "bitmasks"
    if E.p == 2:
        return "f2 digits"
    return "int64" if nt.int64_sums(E.p, E.k) else "limbs"


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(NORM_ROUTES)), st.data())
def test_norms_by_the_frobenius_matrix_match_the_ladder_and_the_conjugates(route, data):
    q, b = data.draw(st.sampled_from(NORM_ROUTES[route]))
    ext = gf.get_extension(ex.prime_power_field(q), b)
    assert _route(ext) == route
    width = data.draw(st.integers(1, b))            # fewer than b coordinates: the rest are 0
    coordinate = st.integers(0, q - 1) | st.sampled_from([0, 1, q - 1])
    rows = data.draw(st.lists(st.lists(coordinate, min_size=width, max_size=width),
                              min_size=1, max_size=12))
    with pytest.MonkeyPatch.context() as mp:        # chunks of 1 row up to one chunk
        mp.setattr(gf, "NORM_CHUNK", data.draw(st.sampled_from([1, 2, 5, gf.NORM_CHUNK])))
        # the limbs' products of digits, 1 or 7 at a time or all at once
        mp.setattr(gf, "PRODUCT_CHUNK", data.draw(st.sampled_from([1, 7, gf.PRODUCT_CHUNK])))
        norms = gf.norms_many(ext, rows).tolist()
        assert gf.conjugate_norms_many(ext, rows).tolist() == norms
    assert norms == [oracles.norm_poly_eval(ext, r) for r in rows]


def test_norms_many_matches_conjugate_product():
    rng = random.Random(6)
    for q, b in ((2, 7), (8, 3), (27, 3), (16, 5)):
        ext = gf.get_extension(ex.prime_power_field(q), b)
        rows = [[rng.randrange(q) for _ in range(b)] for _ in range(20)]
        assert gf.norms_many(ext, rows).tolist() == [oracles.norm_by_conjugates(ext, r) for r in rows]
    with pytest.raises(InputError):
        gf.norms_many(ext, [[1] * (b + 1)])


def test_batch_norms_match_the_pointwise_oracles_on_the_norms_suite_grid():
    # every point of the norms suite's default grid: q in {2, 3, 4, 5}, k <= 4
    for q in (2, 3, 4, 5):
        base = ex.prime_power_field(q)
        for k in range(1, 5):
            ext = gf.get_extension(base, k)
            coords = np.arange(q**k)[:, None] // q ** np.arange(k) % q
            points = coords.tolist()
            assert gf.norms_many(ext, coords).tolist() == \
                [oracles.norm_poly_eval(ext, c) for c in points]
            assert gf.conjugate_norms_many(ext, coords).tolist() == \
                [oracles.norm_by_conjugates(ext, c) for c in points]


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (2, 5), (2, 8), (3, 1), (3, 2),
                                  (5, 3), (7, 2), (101, 1)])
def test_batch_trace_and_quadratic_character_match_the_oracles(p, k):
    spec = gf.FieldSpec.make(p, k)
    d = nt.to_digits(np.arange(spec.order), spec.p, spec.k)
    if p == 2:
        assert gf.trace_many(spec, d).tolist() == \
            [oracles.trace_to_f2(spec, u) for u in range(spec.order)]
        with pytest.raises(InputError):
            gf.quadratic_character_many(spec, d)
    else:
        assert gf.quadratic_character_many(spec, d).tolist() == \
            [oracles.fq_quadratic_character(spec, u) for u in range(spec.order)]
        with pytest.raises(InputError):
            gf.trace_many(spec, d)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 16, 49])
def test_mul_table_matches_field_arithmetic(q, monkeypatch):
    monkeypatch.setattr(gf, "NORM_CHUNK", 7)        # several rows per step, or one
    spec = ex.prime_power_field(q)
    assert gf.mul_table(spec).tolist() == \
        [[oracles.fq_mul(spec, a, b) for b in range(q)] for a in range(q)]


@pytest.mark.parametrize("k", [1, 2, 5, 8, 16, 32])
def test_bitmask_and_digit_multiply_agree(k):
    spec = gf.FieldSpec.make(2, k)
    assert gf._uses_bitmasks(spec)
    rng = np.random.default_rng(k)
    a = rng.integers(0, 2, (300, k))
    b = rng.integers(0, 2, (300, k))
    bits = gf._mul_bits(spec, *(nt.from_digits(x, 2).astype(np.uint64) for x in (a, b)))
    by_bits = nt.to_digits(bits.astype(np.int64), 2, k)
    assert (by_bits == gf._mul_digits(spec, a, b)).all()
    codes = [(int(nt.from_digits(x, spec.p)), int(nt.from_digits(y, spec.p)))
             for x, y in zip(a[:40], b[:40])]
    assert nt.from_digits(by_bits[:40], spec.p).tolist() == \
        [oracles.fq_mul(spec, x, y) for x, y in codes]


def test_mul_and_pow_many_match_field_arithmetic():
    wide = gf.FieldSpec.make(2, 33)                 # 2k - 1 > 64: the digit route
    assert not gf._uses_bitmasks(wide)
    for spec in (wide, gf.FieldSpec.make(2, 6), gf.FieldSpec.make(3, 4),
                 gf.FieldSpec.make(101, 1), gf.FieldSpec(3, 2, (2, 1, 1))):
        rng = random.Random(spec.k)
        xs = [rng.randrange(spec.order) for _ in range(60)] + [0, 1]
        ys = [rng.randrange(spec.order) for _ in range(62)]
        dx, dy = nt.to_digits(xs, spec.p, spec.k), nt.to_digits(ys, spec.p, spec.k)
        assert nt.from_digits(gf.mul_many(spec, dx, dy), spec.p).tolist() == \
            [oracles.fq_mul(spec, x, y) for x, y in zip(xs, ys)]
        for e in (1, 2, 3, 7, 48, spec.order - 2):
            assert nt.from_digits(gf.pow_many(spec, dx, e), spec.p).tolist() == \
                [oracles.fq_pow(spec, x, e) for x in xs]
    with pytest.raises(InputError):
        gf.pow_many(spec, dx, 0)


def test_one_point_route_where_the_batch_does_not_apply():
    cfg = ex.build_line_extractor(9, 3)
    with pytest.raises(InputError):                 # a point of the wrong length
        ex.extract_many(cfg, [(1, 2, 3), (1, 2)])
    odd = [(1, 2, 12), (-1, 0, 4), (2**70, 0, 0), ("1", 0, 0), (1.0, 2, 3)]
    for x in odd:                                   # not n integers in [0, q)
        with pytest.raises(InputError):
            ex.extract_many(cfg, [(1, 2, 3), x])
    # a bool is the integer it equals, as in the one-point route
    assert ex.extract_many(cfg, [(True, 2, 3)]).tolist() == \
        [oracles.line_extract((True, 2, 3), cfg)]
    big = ex.build_ap_extractor(65537, 3, 1)        # extensions of F_p, p > 2^16
    points = [(5, 0, 0), (0, 0, 0), (1, 2, 3)]
    assert ex.extract_many(big, points).tolist() == [oracles.ap_extract(x, big) for x in points]
    assert ex.extract_many(cfg, []).tolist() == []


@pytest.mark.parametrize("p, products", [(3037000493, "int64"), (3037000507, "limbs"),
                                         (P61, "limbs")])
def test_line_and_ap_where_int64_digit_products_overflow(tmp_path, p, products):
    # (p - 1)^2 < 2^63 for the first prime only, the largest such: above it
    # numtheory.mul_mod takes products by 32-bit limbs, and the digits stay
    # int64. Over Z_p^2 the line polynomial is x0 + x1^3 (blocks of sizes 1
    # and 3), its bit the Legendre symbol; the ap polynomial over Z_p^1 is x0^2.
    cfg = ex.build_line_extractor(p, 2)
    assert nt.int64_sums(p, 1) == (products == "int64")
    rng = random.Random(p)
    points = [(0, 0), (0, 1), (5, p - 1), (p - 1, p - 1)]
    points += [(rng.randrange(p), rng.randrange(p)) for _ in range(30)]
    X = ex._coordinates(cfg, points)
    assert X.dtype == ex._block_poly_many(cfg, X).dtype == np.int64
    want = [int(pow((x0 + pow(x1, 3, p)) % p, (p - 1) // 2, p) == p - 1)
            for x0, x1 in points]
    assert ex.extract_many(cfg, points).tolist() == want
    ap = ex.build_ap_extractor(p, 1, 3)
    assert ex.extract_many(ap, [x[:1] for x in points]).tolist() == \
        [x0 * x0 % p % 8 for x0, _ in points]
    source = tmp_path / "src.json"
    source.write_text(json.dumps({"group": {"kind": "zp_vec", "p": p, "n": 2},
                                  "spec": {"variant": "explicit", "elements": points}}))
    out = tmp_path / "line.csv"
    assert main(["extract", "--source", str(source), "--extractor", "line",
                 "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    by_point = dict(zip(points, want))
    assert sorted(rows) == sorted(f'"{json.dumps(list(x), separators=(",", ":"))}",{by_point[x]}'
                                  for x in points)

