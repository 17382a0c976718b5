"""Differential tests of the batch routes of ``extract_many``.

``line`` and ``ap`` evaluate their block norms on all points at once through
``gf.norms_many`` (a power ladder over (N, K) arrays of F_p digits, or uint64
bitmasks in characteristic 2), and ``pgc`` reads ``index_table``. The
one-point ``line_extract``, ``ap_extract``, ``pgc_extract`` and
``gf.norm_poly_eval`` are their oracles.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addext import extractors as ex, gf, numtheory as nt
from addext.errors import BudgetError, InputError

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
    assert ex.extract_many(cfg, points) == [ex.line_extract(x, cfg) for x in points]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_ap_batch_matches_one_point(data):
    p, n, m = data.draw(st.sampled_from([(5, 3, 1), (11, 7, 2), (101, 10, 2)]))
    cfg = ex.build_ap_extractor(p, n, m)
    points = block_points(data.draw, cfg, p, data.draw(st.integers(1, 8)))
    assert ex.extract_many(cfg, points) == [ex.ap_extract(x, cfg) for x in points]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 11, 101, 10007]), st.integers(0, 3),
       st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40))
def test_pgc_batch_matches_one_point(p, m, points):
    if (1 << m) >= p - 1:
        m = 0
    cfg = ex.build_pgc_extractor(p, m)
    assert ex.extract_many(cfg, points) == [ex.pgc_extract(x, cfg) for x in points]


def test_pgc_index_table_and_discrete_log_agree(monkeypatch):
    rng = random.Random(3)
    cfg = ex.build_pgc_extractor(10007, 3)
    points = [0, 1, 10006, 10007] + [rng.randrange(10007) for _ in range(2000)]
    routes = []
    for name in ("index_table", "discrete_log"):
        real = getattr(nt, name)
        monkeypatch.setattr(nt, name, lambda *a, real=real, name=name:
                            routes.append(name) or real(*a))
    by_table = ex.extract_many(cfg, points)       # p - 1 <= N (isqrt(p) + 1)
    assert routes == ["index_table"]
    routes.clear()
    monkeypatch.setenv("ADDEXT_BUDGET", "100")    # p over the element budget
    by_log = ex.extract_many(cfg, points)
    assert set(routes) == {"discrete_log"}
    routes.clear()
    monkeypatch.delenv("ADDEXT_BUDGET")
    few = ex.extract_many(cfg, points[:50])       # too few points for the table
    assert set(routes) == {"discrete_log"}
    assert by_table == by_log and few == by_table[:50]


def test_norms_many_across_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(gf, "NORM_CHUNK", 7)
    rng = random.Random(5)
    for q, b in ((4, 5), (9, 3), (49, 5), (101, 4)):
        ext = gf.get_extension(ex.prime_power_field(q), b)
        rows = [[rng.randrange(q) for _ in range(b)] for _ in range(30)]
        rows += [[0] * b, [rng.randrange(1, q)] + [0] * (b - 1)]
        assert gf.norms_many(ext, rows).tolist() == [gf.norm_poly_eval(ext, r) for r in rows]
        short = [r[:2] for r in rows]             # fewer than b coordinates
        assert gf.norms_many(ext, short).tolist() == [gf.norm_poly_eval(ext, r) for r in short]
    cfg = ex.build_line_extractor(49, 6)
    points = [tuple(rng.randrange(49) for _ in range(6)) for _ in range(22)]
    assert ex.extract_many(cfg, points) == [ex.line_extract(x, cfg) for x in points]


def test_norms_many_matches_conjugate_product():
    rng = random.Random(6)
    for q, b in ((2, 7), (8, 3), (27, 3), (16, 5)):
        ext = gf.get_extension(ex.prime_power_field(q), b)
        rows = [[rng.randrange(q) for _ in range(b)] for _ in range(20)]
        assert gf.norms_many(ext, rows).tolist() == [gf.norm_by_conjugates(ext, r) for r in rows]
    with pytest.raises(InputError):
        gf.norms_many(ext, [[1] * (b + 1)])


@pytest.mark.parametrize("k", [1, 2, 5, 8, 16, 32])
def test_bitmask_and_digit_multiply_agree(k):
    spec = gf.FieldSpec.make(2, k)
    assert gf._uses_bitmasks(spec)
    rng = np.random.default_rng(k)
    a = rng.integers(0, 2, (300, k))
    b = rng.integers(0, 2, (300, k))
    by_bits = gf._from_bits(spec, gf._mul_bits(spec, gf._to_bits(a), gf._to_bits(b)))
    assert (by_bits == gf._mul_digits(spec, a, b)).all()
    codes = [(int(gf.from_digits(spec, x)), int(gf.from_digits(spec, y)))
             for x, y in zip(a[:40], b[:40])]
    assert gf.from_digits(spec, by_bits[:40]).tolist() == [spec.mul(x, y) for x, y in codes]


def test_mul_and_pow_many_match_field_arithmetic():
    wide = gf.FieldSpec.make(2, 33)                 # 2k - 1 > 64: the digit route
    assert not gf._uses_bitmasks(wide)
    for spec in (wide, gf.FieldSpec.make(2, 6), gf.FieldSpec.make(3, 4),
                 gf.FieldSpec.make(101, 1), gf.FieldSpec(3, 2, (2, 1, 1))):
        rng = random.Random(spec.k)
        xs = [rng.randrange(spec.order) for _ in range(60)] + [0, 1]
        ys = [rng.randrange(spec.order) for _ in range(62)]
        dx, dy = gf.to_digits(spec, xs), gf.to_digits(spec, ys)
        assert gf.from_digits(spec, gf.mul_many(spec, dx, dy)).tolist() == \
            [spec.mul(x, y) for x, y in zip(xs, ys)]
        for e in (1, 2, 3, 7, 48, spec.order - 2):
            assert gf.from_digits(spec, gf.pow_many(spec, dx, e)).tolist() == \
                [spec.pow(x, e) for x in xs]
    with pytest.raises(InputError):
        gf.pow_many(spec, dx, 0)


def test_one_point_route_where_the_batch_does_not_apply():
    cfg = ex.build_line_extractor(9, 3)
    with pytest.raises(InputError):                 # a point of the wrong length
        ex.extract_many(cfg, [(1, 2, 3), (1, 2)])
    odd = [(1, 2, 12), (-1, 0, 4), (True, 2, 3), (2**70, 0, 0)]  # not in [0, q) as ints
    assert ex.extract_many(cfg, odd) == [ex.line_extract(x, cfg) for x in odd]
    with pytest.raises(TypeError):                  # as the one-point route raises
        ex.extract_many(cfg, [("1", 0, 0)])
    big = ex.build_ap_extractor(65537, 3, 1)        # p over the extension cap
    assert ex.extract_many(big, [(5, 0, 0), (0, 0, 0)]) == \
        [ex.ap_extract(x, big) for x in [(5, 0, 0), (0, 0, 0)]]
    with pytest.raises(BudgetError):
        ex.extract_many(big, [(1, 2, 3)])
    assert ex.extract_many(cfg, []) == []
