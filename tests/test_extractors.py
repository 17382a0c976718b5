import math
import random

import pytest

from addext import gf
from addext.canonical import digest
from addext.errors import CapacityError, InputError
from addext.extractors import (ApExtractorConfig, Block, LineExtractorConfig,
                               PgcExtractorConfig, ZpExtractorConfig,
                               ZpnExtractorConfig, build_ap_extractor, build_line_extractor,
                               build_pgc_extractor, build_zp_extractor,
                               build_zpn_extractor, config_for_group,
                               encode_many, extract_many, prime_power_field)
from addext.sources import Group

import oracles


# ---------------------------------------------------------------------------
# Z_p
# ---------------------------------------------------------------------------

def test_build_zp_examples():
    c5 = build_zp_extractor(5, 1)
    assert (c5.q, c5.g, c5.M) == (11, 3, 2)
    c2 = build_zp_extractor(2, 1)
    assert (c2.q, c2.g) == (3, 2)
    c7 = build_zp_extractor(7, 2)
    assert (c7.q, c7.g, c7.M) == (29, 7, 4)
    with pytest.raises(InputError):
        build_zp_extractor(5, 4)  # 2^4 >= 11


def test_zp_extract_examples():
    cfg = build_zp_extractor(5, 1)
    assert extract_many(cfg, [0])[0] == 1
    assert extract_many(cfg, [2])[0] == 1
    assert extract_many(cfg, [4])[0] == 0


def test_zp_encoding_injective_exhaustive():
    for p in (101, 997):
        cfg = build_zp_extractor(p, 1)
        values = set(encode_many(cfg, range(p)))
        assert len(values) == p
        assert all(0 < v < cfg.q for v in values)


def test_zp_structure_transport_small():
    rng = random.Random(5)
    p = 101
    cfg = build_zp_extractor(p, 1)
    for _ in range(20):
        X = set(rng.sample(range(p), rng.randint(2, p)))
        Y = set(encode_many(cfg, sorted(X)).tolist())
        sums = {(a + b) % p for a in X for b in X}
        prods = {a * b % cfg.q for a in Y for b in Y}
        assert len(sums) == len(prods)


# ---------------------------------------------------------------------------
# Z_p^n
# ---------------------------------------------------------------------------

def test_build_zpn_examples():
    c3 = build_zpn_extractor(3, 2, 1)
    assert c3.qs == (7, 13) and c3.gs == (2, 3) and c3.q == 91
    c2 = build_zpn_extractor(2, 2, 1)
    assert c2.qs == (3, 5) and c2.gs == (2, 4)


def test_zpn_extract_examples():
    cfg = build_zpn_extractor(3, 2, 1)
    assert encode_many(cfg, [(1, 2)])[0] == 9 and extract_many(cfg, [(1, 2)])[0] == 1
    assert encode_many(cfg, [(0, 0)])[0] == 1 and extract_many(cfg, [(0, 0)])[0] == 1
    assert encode_many(cfg, [(2, 1)])[0] == 81 and extract_many(cfg, [(2, 1)])[0] == 1


def test_zpn_degenerates_to_zp_at_n1():
    czp = build_zp_extractor(3, 1)
    czpn = build_zpn_extractor(3, 1, 1)
    assert czpn.qs == (czp.q,) and czpn.gs == (czp.g,)
    for x in range(3):
        assert extract_many(czpn, [(x,)])[0] == extract_many(czp, [x])[0]


def test_zpn_encoding_injective_and_unit():
    cfg = build_zpn_extractor(3, 2, 1)
    seen = set()
    for x0 in range(3):
        for x1 in range(3):
            v = encode_many(cfg, [(x0, x1)])[0]
            seen.add(v)
            assert math.gcd(v, cfg.q) == 1  # image lies in the unit group
    assert len(seen) == 9


def test_zpn_capacity_cap():
    with pytest.raises(CapacityError):
        build_zpn_extractor(2, 40, 1)  # product of 40 primes blows past 2^63


# ---------------------------------------------------------------------------
# line extractor
# ---------------------------------------------------------------------------

def test_build_line_examples():
    l4 = build_line_extractor(4, 3)
    assert [b.size for b in l4.blocks] == [1, 3]
    assert l4.padded_n == 4 and l4.variant == "additive_trace"
    l9 = build_line_extractor(9, 4)
    assert [b.size for b in l9.blocks] == [1, 3]
    assert l9.padded_n == 4 and l9.variant == "quadratic_char"
    l25 = build_line_extractor(25, 12)
    assert [b.size for b in l25.blocks] == [1, 3, 5, 7]
    assert l25.padded_n == 16
    with pytest.raises(InputError):
        build_line_extractor(12, 3)  # not a prime power


def test_prime_power_field():
    assert prime_power_field(9).p == 3 and prime_power_field(9).k == 2
    assert prime_power_field(64).k == 6
    assert prime_power_field(7).k == 1


def test_prime_power_field_matches_trial_division():
    for q in range(1, 4097):
        try:
            want = oracles.prime_power_field(q)
        except InputError:
            with pytest.raises(InputError):
                prime_power_field(q)
        else:
            assert prime_power_field(q) == want
    p61 = 2**61 - 1
    for q in (1, 12, 3 * p61, 2**89 - 1):           # 2^89 - 1 is a prime above 2^63
        with pytest.raises(InputError):
            prime_power_field(q)
    assert (prime_power_field(p61).p, prime_power_field(p61**2).k) == (p61, 2)


def test_block_tiling_invariants_across_n():
    for q in (4, 9):
        for n in range(1, 41):
            cfg = build_line_extractor(q, n)
            sizes = [b.size for b in cfg.blocks]
            assert sizes == sorted(set(sizes))          # strictly ascending
            assert all(s % 2 == 1 for s in sizes)       # odd sizes
            assert cfg.padded_n == sum(sizes) >= n
            assert cfg.padded_n < 2 * n + sizes[-1]
            assert sizes[-1] <= 4 * math.sqrt(n)


def test_line_poly_toy_tiling():
    F3 = gf.FieldSpec.make(3, 1)
    toy = LineExtractorConfig(F3, 2, 2, (Block(0, 1), Block(1, 1)), "quadratic_char")
    for x0 in range(3):
        for x1 in range(3):
            assert oracles.line_poly_eval((x0, x1), toy) == (x0 + x1) % 3


def test_line_poly_zero_at_origin():
    for q, n in [(4, 3), (9, 4), (5, 2)]:
        cfg = build_line_extractor(q, n)
        assert oracles.line_poly_eval((0,) * n, cfg) == 0


def test_line_extract_output_examples():
    F4 = gf.FieldSpec.make(2, 2)
    cfg4 = LineExtractorConfig(F4, 1, 1, (Block(0, 1),), "additive_trace")
    omega = oracles.encode(F4, (0, 1))
    assert extract_many(cfg4, [(omega,)])[0] == 1
    assert extract_many(cfg4, [(0,)])[0] == 0
    F7 = gf.FieldSpec.make(7, 1)
    cfg7 = LineExtractorConfig(F7, 1, 1, (Block(0, 1),), "quadratic_char")
    assert extract_many(cfg7, [(3,)])[0] == 1
    assert extract_many(cfg7, [(0,)])[0] == 0
    assert extract_many(cfg7, [(4,)])[0] == 0  # 4 = 2^2 is a square


def interpolate(field: gf.FieldSpec, ys):
    """Coefficients of the unique poly of degree < q through (t, ys[t])."""
    q = field.order
    coeffs = [0] * q
    for i in range(q):
        if ys[i] == 0:
            continue
        # Lagrange basis L_i as coefficient vector
        num = [1]
        denom = 1
        for j in range(q):
            if j == i:
                continue
            neg_j = oracles.fq_neg(field, j)
            num = list(oracles.poly_mul(tuple(num), (neg_j, 1), field.p)) \
                if field.k == 1 else _fq_poly_mul(field, num, [neg_j, 1])
            denom = oracles.fq_mul(field, denom, oracles.fq_sub(field, i, j))
        scale = oracles.fq_mul(field, ys[i], oracles.fq_inv(field, denom))
        for d, c in enumerate(num):
            coeffs[d] = oracles.fq_add(field, coeffs[d], oracles.fq_mul(field, scale, c))
    return coeffs


def _fq_poly_mul(field, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = oracles.fq_add(field, out[i + j], oracles.fq_mul(field, ai, bj))
    return out


def poly_degree_fe(coeffs):
    d = -1
    for i, c in enumerate(coeffs):
        if c:
            d = i
    return d


@pytest.mark.parametrize("q,n", [(4, 3), (9, 4), (5, 2), (8, 5)])
def test_line_restriction_degree_and_leading_coefficient(q, n):
    """Along a + t d the polynomial has degree = largest block size where the
    direction is nonzero, with leading coefficient the norm of that slice."""
    cfg = build_line_extractor(q, n)
    f = cfg.field
    rng = random.Random(q * 100 + n)
    for _ in range(40):
        a = tuple(rng.randrange(q) for _ in range(n))
        d = tuple(rng.randrange(q) for _ in range(n))
        if not any(d):
            continue
        ys = []
        for t in range(q):
            x = tuple(oracles.fq_add(f, ai, oracles.fq_mul(f, t, di)) for ai, di in zip(a, d))
            ys.append(oracles.line_poly_eval(x, cfg))
        coeffs = interpolate(f, ys)
        deg = poly_degree_fe(coeffs)
        active = [blk for blk in cfg.blocks
                  if any(d[i] for i in range(blk.start, min(blk.start + blk.size, n)))]
        want_block = max(active, key=lambda blk: blk.size)
        assert deg == want_block.size, (a, d, deg)
        slice_d = [d[i] if i < n else 0
                   for i in range(want_block.start, want_block.start + want_block.size)]
        ext = gf.get_extension(f, want_block.size)
        assert coeffs[deg] == oracles.norm_poly_eval(ext, slice_d)
        assert deg >= 1  # non-constant on every line


def test_line_restriction_nonconstant_exhaustive_f4():
    cfg = build_line_extractor(4, 2)
    f = cfg.field
    for a0 in range(4):
        for a1 in range(4):
            for d0 in range(4):
                for d1 in range(4):
                    if (d0, d1) == (0, 0):
                        continue
                    vals = {oracles.line_poly_eval(
                        (oracles.fq_add(f, a0, oracles.fq_mul(f, t, d0)),
                         oracles.fq_add(f, a1, oracles.fq_mul(f, t, d1))), cfg)
                        for t in range(4)}
                    assert len(vals) > 1


# ---------------------------------------------------------------------------
# AP extractor
# ---------------------------------------------------------------------------

def test_build_ap_blocks():
    cfg = build_ap_extractor(13, 3, 1)
    assert [b.size for b in cfg.blocks] == [2, 3] and cfg.padded_n == 5
    cfg2 = build_ap_extractor(7, 7, 1)
    assert [b.size for b in cfg2.blocks] == [2, 3, 4]  # size 7 would be skipped
    assert all(b.size % 7 != 0 for b in cfg2.blocks)
    with pytest.raises(InputError):
        build_ap_extractor(2, 3, 1)
    with pytest.raises(InputError):
        build_ap_extractor(13, 3, 4)  # 2^4 >= 13
    with pytest.raises(InputError):
        build_ap_extractor(3, 7, 1)  # degrees must stay below p
    with pytest.raises(InputError):
        build_ap_extractor(5, 2, 3)  # 2^3 >= p


def test_ap_explicit_blocks_against_direct_norm():
    cfg = ApExtractorConfig(gf.FieldSpec.make(13, 1), 3, 3, (Block(0, 3),), 1)
    F13 = gf.FieldSpec.make(13, 1)
    ext = gf.get_extension(F13, 3)
    rng = random.Random(13)
    for _ in range(50):
        x = tuple(rng.randrange(13) for _ in range(3))
        want = oracles.norm_by_conjugates(ext, list(x))
        assert oracles.ap_poly_eval(x, cfg) == want
        assert extract_many(cfg, [x])[0] == want % 2
    assert extract_many(cfg, [(0, 0, 0)])[0] == 0


def test_ap_m0_degenerate():
    cfg = ApExtractorConfig(gf.FieldSpec.make(13, 1), 3, 3, (Block(0, 3),), 0)
    assert all(extract_many(cfg, [(a, b, c)])[0] == 0
               for a in range(3) for b in range(3) for c in range(3))


def test_ap_restriction_degree_at_least_two():
    cfg = build_ap_extractor(11, 4, 1)
    f = cfg.field
    rng = random.Random(4)
    for _ in range(30):
        a = tuple(rng.randrange(11) for _ in range(4))
        d = tuple(rng.randrange(11) for _ in range(4))
        if not any(d):
            continue
        ys = [oracles.ap_poly_eval(tuple((ai + t * di) % 11 for ai, di in zip(a, d)), cfg)
              for t in range(11)]
        coeffs = interpolate(f, ys)
        assert poly_degree_fe(coeffs) >= 2


# ---------------------------------------------------------------------------
# index-map extractor
# ---------------------------------------------------------------------------

def test_pgc_examples():
    cfg = build_pgc_extractor(11, 1)
    assert cfg.g == 2
    assert extract_many(cfg, [1])[0] == 0
    assert extract_many(cfg, [8])[0] == 1  # index 3
    assert extract_many(cfg, [2])[0] == 1  # index 1
    assert extract_many(cfg, [0])[0] == 0


def test_pgc_index_consistency():
    cfg = build_pgc_extractor(101, 2)
    for x in range(1, 101):
        out = extract_many(cfg, [x])[0]
        # recompute index by brute force
        ind = next(e for e in range(100) if pow(cfg.g, e, 101) == x)
        assert out == ind % 4


def test_pgc_m_cap():
    with pytest.raises(InputError):
        build_pgc_extractor(11, 4)  # 2^4 >= 10


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------

def test_configs_deterministic_and_serializable():
    configs = [build_zp_extractor(5, 1), build_zpn_extractor(3, 2, 1),
               build_line_extractor(9, 4), build_ap_extractor(13, 3, 1),
               build_pgc_extractor(11, 1)]
    rebuilt = [build_zp_extractor(5, 1), build_zpn_extractor(3, 2, 1),
               build_line_extractor(9, 4), build_ap_extractor(13, 3, 1),
               build_pgc_extractor(11, 1)]
    assert configs == rebuilt
    configs += [build_zp_extractor(2, 0), build_zpn_extractor(11, 3, 2),
                build_line_extractor(8, 5), build_line_extractor(7, 1),
                build_line_extractor(gf.FieldSpec(3, 2, (2, 1, 1)), 4),
                build_ap_extractor(101, 10, 2), build_pgc_extractor(10007, 3)]
    for c in configs:
        assert config_for_group(c.to_json(), group_of(c)) == c


def group_of(cfg):
    """The group a config runs on: Z_p for zp and pgc, F_q^n for line, Z_p^n
    for zpn and ap."""
    if isinstance(cfg, (ZpExtractorConfig, PgcExtractorConfig)):
        return Group.zp(cfg.p)
    if isinstance(cfg, LineExtractorConfig):
        return Group.fq_vec(cfg.field, cfg.n)
    if isinstance(cfg, ZpnExtractorConfig):
        return Group.zp_vec(cfg.p, cfg.n)
    return Group.zp_vec(cfg.field.p, cfg.n)


def test_config_from_json_validates():
    # each config is checked against the canonical build on the group it names
    line = build_line_extractor(9, 4).to_json()
    f9 = {"kind": "fq_vec", "p": 3, "k": 2, "n": 4, "modulus": line["modulus"]}
    holes = [
        ({"variant": "zp", "p": 5, "q": 13, "g": 3, "m": 1}, {"kind": "zp", "p": 5}),
        ({"variant": "nope"}, {"kind": "zp", "p": 5}),
        ({"variant": "zp", "p": 5}, {"kind": "zp", "p": 5}),
        ({"variant": "pgc", "p": 11, "g": 3, "m": 1},  # 3 is not a primitive root
         {"kind": "zp", "p": 11}),
        (dict(line, output="bogus"), f9),
        (dict(line, blocks=[[0, 2], [2, 2]]), f9),  # even blocks
        ({"variant": "ap", "p": 5, "n": 6, "padded_n": 6, "blocks": [[0, 6]],
          "m": 1, "custom_poly": False},                # degree 6 >= p
         {"kind": "zp_vec", "p": 5, "n": 6}),
        (dict(build_ap_extractor(5, 3, 1).to_json(), custom_poly=True),
         {"kind": "zp_vec", "p": 5, "n": 3}),
        (dict(build_zp_extractor(5, 1).to_json(), m=True), {"kind": "zp", "p": 5}),
        ({"variant": "zp", "p": 4, "q": 5, "g": 2, "m": 1},  # composite p
         {"kind": "zp", "p": 4}),
    ]
    for obj, group in holes:
        with pytest.raises(InputError):
            config_for_group(obj, Group.from_json(group))
    # the numbers of a config are read as JSON integers: 1.0 is the 1 it equals
    assert config_for_group(dict(build_zp_extractor(5, 1).to_json(), m=1.0),
                            Group.zp(5)) == build_zp_extractor(5, 1)
    assert config_for_group(line, Group.from_json(f9)) == build_line_extractor(9, 4)


def test_config_digests_golden():
    # extract reports and sweep CSVs carry these digests, so they must not move
    golden = [
        (build_zp_extractor(4001, 1),
         "90e7c5eb61fe086bff45f555aecbfc49bcaef4f809a05953235b684a8ba9977a"),
        (build_zpn_extractor(11, 3, 1),
         "f0c03770f9bcf694c5e4b4af4305135b51107dedd1c874ad393531b32553d15e"),
        (build_line_extractor(49, 6),
         "2417411efed193fd516c46271a2bc3b0e6c0f9867798a5f9e1b83d2107eb9e64"),
        (build_line_extractor(32, 6),
         "5e7f6c159e73b6f8d3dc2785fb81df6c624a6a4d086de4c1f9e3451498c9357c"),
        (build_ap_extractor(101, 10, 2),
         "843c8928e94368936491412bdd24b2c14ec5307766a252c3aa0a8ce90fd05fc3"),
        (build_pgc_extractor(10007, 3),
         "59131708204f139c1e212f73e8fef00d906215d163952c22479b3ec7bf9dd6de"),
    ]
    for cfg, want in golden:
        assert digest(cfg.to_json()) == want
    ap = build_ap_extractor(13, 3, 1).to_json()
    assert ap["custom_poly"] is False
    with pytest.raises(InputError):
        config_for_group(dict(ap, custom_poly=True), Group.zp_vec(13, 3))
