import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addext import gf, numtheory as nt
from addext.extractors import prime_power_field
from addext.errors import InputError

import oracles


def naive_irreducible(poly, p):
    """Divisibility scan against every lower-degree monic polynomial."""
    k = len(poly) - 1
    if k < 1:
        return False
    for d in range(1, k):
        for tail in range(p**d):
            cand = []
            t = tail
            for _ in range(d):
                cand.append(t % p)
                t //= p
            cand.append(1)
            if not oracles.poly_mod(poly, tuple(cand), p):
                return False
    return True


def test_find_irreducible_examples():
    assert gf.find_irreducible(3, 2) == (1, 0, 1)
    assert gf.find_irreducible(2, 1) == (0, 1)
    assert gf.find_irreducible(2, 2) == (1, 1, 1)


def test_find_irreducible_against_naive_scan():
    for p in (2, 3, 5):
        for k in (2, 3, 4):
            f = gf.find_irreducible(p, k)
            assert naive_irreducible(f, p)
            # minimality in the counter order
            val = sum(c * p**i for i, c in enumerate(f[:-1]))
            for tail in range(val):
                cand = []
                t = tail
                for _ in range(k):
                    cand.append(t % p)
                    t //= p
                assert not naive_irreducible(tuple(cand) + (1,), p)


@pytest.mark.parametrize("p, k", [(p, k) for p in (2, 3, 5, 7, 11, 101) for k in range(1, 7)]
                         + [(2**61 - 1, 2)])
def test_find_irreducible_matches_the_scan(p, k):
    assert gf.find_irreducible(p, k) == oracles.find_irreducible_by_scan(p, k)


IRREDUCIBILITY_GRID = [(2, 8), (3, 5), (5, 4), (7, 3), (11, 3)]  # (p, largest degree)


def _monics(p, k):
    return [tuple(tail // p**i % p for i in range(k)) + (1,) for tail in range(p**k)]


def test_is_irreducible_matches_the_certificate_on_every_monic():
    for p, kmax in IRREDUCIBILITY_GRID:
        for k in range(1, kmax + 1):
            for f in _monics(p, k):
                assert gf.is_irreducible(f, p) == oracles.is_irreducible_by_frobenius(f, p), f


def _divides_x_to_the_p_to_the_k_minus_x(f, p):
    k, x = len(f) - 1, (0, 1)
    h = x
    for _ in range(k):
        h = oracles._poly_powmod(h, p, f, p)
    return h == oracles.poly_mod(x, f, p)


def test_rank_test_rejects_every_squarefree_reducible(monkeypatch):
    # With the root sieve off, every reducible f that divides x^(p^k) - x
    # (squarefree, all factor degrees dividing k) reaches the rank test,
    # x(x + 1)(x^2 + x + 1) = x^4 + x over F_2 among them; so do the
    # irreducibles, each certified afresh.
    monkeypatch.setattr(gf, "_root_free", lambda tails, p: np.ones(len(tails), dtype=bool))
    monkeypatch.setattr(gf, "_CERTIFIED", {})
    reached = 0
    for p, kmax in IRREDUCIBILITY_GRID:
        for k in range(2, kmax + 1):
            for f in _monics(p, k):
                irreducible = oracles.is_irreducible_by_frobenius(f, p)
                assert gf.is_irreducible(f, p) == irreducible, f
                reached += not irreducible and _divides_x_to_the_p_to_the_k_minus_x(f, p)
    assert _divides_x_to_the_p_to_the_k_minus_x((0, 1, 0, 0, 1), 2)
    assert not gf.is_irreducible((0, 1, 0, 0, 1), 2)
    assert reached == 475, reached


def test_reducible_modulus_is_an_input_error():
    with pytest.raises(InputError, match="reducible"):
        gf.FieldSpec(3, 2, (1, 1, 1))          # (x + 2)^2 over F_3
    with pytest.raises(InputError, match="reducible"):
        gf.FieldSpec(2, 4, (1, 0, 1, 0, 1))    # (x^2 + x + 1)^2: no root in F_2
    with pytest.raises(InputError, match="reducible"):
        gf.FieldSpec(5, 2, (-1, 0, 1))         # x^2 - 1, unreduced coefficients
    assert gf.FieldSpec(3, 2, (4, 0, 1)).modulus == (4, 0, 1)  # x^2 + 1, unreduced


# moduli given with coefficients outside [0, p): x^2 + x + 1 over F_2, x^2 + 1 over F_3
UNREDUCED_MODULI = [(2, (3, 1, 1)), (2, (-1, 1, 1)), (2, (2**70 + 1, 1, 1)),
                    (3, (3**40 + 4, 0, 1))]


@pytest.mark.parametrize("p, modulus", UNREDUCED_MODULI)
def test_arithmetic_reads_an_unreduced_modulus_mod_p(p, modulus):
    spec = gf.FieldSpec(p, 2, modulus)
    reduced = gf.FieldSpec(p, 2, tuple(c % p for c in modulus))
    assert spec.modulus == modulus and spec.tail == reduced.modulus[:-1]
    q = spec.order
    assert gf.mul_table(spec).tolist() == \
        [[oracles.fq_mul(reduced, a, b) for b in range(q)] for a in range(q)]
    assert gf._reduction_matrix(spec).tolist() == gf._reduction_matrix(reduced).tolist()
    for b in (2, 3):
        ext, ref = gf.get_extension(spec, b), gf.get_extension(reduced, b)
        assert (ext.ext, ext.beta) == (ref.ext, ref.beta)
        for m, r in zip(gf._norm_maps(ext), gf._norm_maps(ref)):
            assert m.tolist() == r.tolist()


@pytest.mark.parametrize("p, modulus", UNREDUCED_MODULI)
def test_one_element_oracle_reads_an_unreduced_modulus_mod_p(p, modulus):
    # oracles.fq_mul builds its F_2 reduction mask from FieldSpec.tail, as
    # gf._gf2_mod_mask does (from the raw (3, 1, 1) it never returned)
    spec = gf.FieldSpec(p, 2, modulus)
    reduced = gf.FieldSpec(p, 2, tuple(c % p for c in modulus))
    q = spec.order
    assert [[oracles.fq_mul(spec, a, b) for b in range(q)] for a in range(q)] == \
        [[oracles.fq_mul(reduced, a, b) for b in range(q)] for a in range(q)]


def test_irreducible_certificate_no_roots():
    for p in (2, 3, 5, 7):
        for k in (2, 3):
            f = gf.find_irreducible(p, k)
            for x in range(p):
                acc = 0
                for c in reversed(f):
                    acc = (acc * x + c) % p
                assert acc != 0


def _tables(F):
    """The sum and product tables of F on int encodings: sums digitwise,
    products by gf.mul_table."""
    d = nt.to_digits(np.arange(F.order), F.p, F.k)
    return nt.from_digits((d[:, None] + d[None]) % F.p, F.p), gf.mul_table(F)


def test_field_arith_examples():
    F9 = gf.FieldSpec.make(3, 2)
    theta = oracles.encode(F9, [0, 1])
    mul = gf.mul_table(F9)
    assert oracles.decode(F9, mul[theta, theta]) == (2, 0)
    cube = gf.pow_many(F9, nt.to_digits([theta], F9.p, F9.k), 3)
    assert oracles.decode(F9, int(nt.from_digits(cube, F9.p)[0])) == (0, 2)  # Frobenius
    assert mul[1, 1] == 1                           # 1 is its own inverse
    assert (mul[0] == 0).all()                      # 0 has none
    assert oracles.fq_inv(F9, 1) == 1
    with pytest.raises(ZeroDivisionError):
        oracles.fq_inv(F9, 0)


def test_field_axioms_exhaustive_small():
    for (p, k) in [(2, 3), (3, 2), (5, 1)]:
        F = gf.FieldSpec.make(p, k)
        q = F.order
        add, mul = _tables(F)
        d = nt.to_digits(np.arange(q), F.p, F.k)
        neg = nt.from_digits(-d % p, F.p)
        els = np.arange(q)
        assert (add[els, neg] == 0).all() and (add[:, 0] == els).all()
        assert (mul[:, 1] == els).all()
        assert (add == add.T).all() and (mul == mul.T).all()
        # associativity and distributivity at every triple
        assert (add[add] == add[:, add]).all() and (mul[mul] == mul[:, mul]).all()
        assert (mul[:, add] == add[mul[:, :, None], mul[:, None, :]]).all()
        # every nonzero a has exactly one inverse, and a^(q-1) = 1
        assert ((mul[1:, 1:] == 1).sum(axis=1) == 1).all()
        assert (nt.from_digits(gf.pow_many(F, d[1:], q - 1), F.p) == 1).all()


def test_frobenius_is_additive_homomorphism():
    F8 = gf.FieldSpec.make(2, 3)
    add, mul = _tables(F8)
    square = mul.diagonal()
    assert (square[add] == add[square[:, None], square[None, :]]).all()


def test_trace_examples():
    F4 = gf.FieldSpec.make(2, 2)
    assert oracles.trace_to_f2(F4, oracles.encode(F4, [0, 1])) == 1
    assert oracles.trace_to_f2(F4, 0) == 0
    F2 = gf.FieldSpec.make(2, 1)
    assert oracles.trace_to_f2(F2, 1) == 1


def test_trace_linear_and_surjective():
    for k in (1, 2, 3, 4, 6):
        F = gf.FieldSpec.make(2, k)
        traces = [oracles.trace_to_f2(F, v) for v in range(F.order)]
        assert set(traces) == {0, 1}
        assert traces.count(0) == traces.count(1)  # kernel is a hyperplane
        for a in range(F.order):
            for b in range(0, F.order, max(1, F.order // 5)):
                s = oracles.trace_to_f2(F, oracles.fq_add(F, a, b))
                assert s == traces[a] ^ traces[b]


def test_trace_rejects_odd_characteristic():
    with pytest.raises(InputError):
        oracles.trace_to_f2(gf.FieldSpec.make(3, 2), 1)


def test_fq_quadratic_character():
    F9 = gf.FieldSpec.make(3, 2)
    chi = [oracles.fq_quadratic_character(F9, v) for v in range(F9.order)]
    assert chi[0] == 0
    assert chi.count(1) == 4 and chi.count(-1) == 4
    squares = {oracles.fq_mul(F9, v, v) for v in range(1, F9.order)}
    for v in range(1, 9):
        assert (chi[v] == 1) == (v in squares)


def test_norm_examples():
    F3 = gf.FieldSpec.make(3, 1)
    ext = gf.get_extension(F3, 2)
    assert oracles.norm_poly_eval(ext, [0, 0]) == 0
    assert oracles.norm_poly_eval(ext, [1, 1]) == 2
    assert oracles.norm_poly_eval(ext, [1, 0]) == 1


def test_norm_zero_locus_and_homogeneity_exhaustive():
    from addext.extractors import prime_power_field
    for q in (2, 3, 4, 5):
        base = prime_power_field(q)
        for k in range(1, 5):
            ext = gf.get_extension(base, k)
            for idx in range(q**k):
                coords = []
                v = idx
                for _ in range(k):
                    coords.append(v % q)
                    v //= q
                n = oracles.norm_poly_eval(ext, coords)
                assert (n == 0) == (not any(coords))
                for lam in range(1, q):
                    scaled = [oracles.fq_mul(base, lam, c) for c in coords]
                    assert oracles.norm_poly_eval(ext, scaled) == \
                        oracles.fq_mul(base, oracles.fq_pow(base, lam, k), n)


def test_norm_conjugate_product_oracle():
    from addext.extractors import prime_power_field
    for q, k in [(2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (9, 2)]:
        base = prime_power_field(q)
        ext = gf.get_extension(base, k)
        for idx in range(min(q**k, 200)):
            coords = []
            v = idx
            for _ in range(k):
                coords.append(v % q)
                v //= q
            assert oracles.norm_poly_eval(ext, coords) == \
                oracles.norm_by_conjugates(ext, coords), (q, k, coords)


@settings(max_examples=60)
@given(st.integers(0, 80), st.integers(0, 80))
def test_field_norm_multiplicative(a, b):
    F81 = gf.FieldSpec.make(3, 4)
    e = (81 - 1) // (3 - 1)
    na, nb = oracles.fq_pow(F81, a % 81, e), oracles.fq_pow(F81, b % 81, e)
    nab = oracles.fq_pow(F81, oracles.fq_mul(F81, a % 81, b % 81), e)
    assert nab == oracles.fq_mul(F81, na, nb)


def test_embedding_is_ring_homomorphism():
    F4 = gf.FieldSpec.make(2, 2)
    ext = gf.get_extension(F4, 3)  # F_64 over F_4
    E = ext.ext
    embed = [oracles.embed(ext, a) for a in range(4)]
    for a in range(4):
        for b in range(4):
            assert embed[oracles.fq_add(F4, a, b)] == oracles.fq_add(E, embed[a], embed[b])
            assert embed[oracles.fq_mul(F4, a, b)] == oracles.fq_mul(E, embed[a], embed[b])
    # embedded elements are fixed by Frobenius^k' (they lie in the subfield)
    for u in embed:
        assert oracles.fq_pow(E, u, 4) == u


def test_norm_subfield_fast_path_matches_general_route():
    F4 = gf.FieldSpec.make(2, 2)
    ext = gf.get_extension(F4, 3)
    for c in range(4):
        fast = oracles.norm_poly_eval(ext, [c, 0, 0])
        direct = oracles.norm_by_conjugates(ext, [c, 0, 0])
        assert fast == direct == oracles.fq_pow(F4, c, 3)


def test_poly_gcd_basics():
    # (x+1)^2 and (x+1)(x+2) over F_5
    a = oracles.poly_mul((1, 1), (1, 1), 5)
    b = oracles.poly_mul((1, 1), (2, 1), 5)
    assert oracles.poly_gcd(a, b, 5) == (1, 1)
    assert oracles.poly_gcd(a, (1,), 5) == (1,)


PRIME_POWERS_TO_64 = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                                       47, 53, 59, 61)
                      for k in range(1, 7) if p**k <= 64]


@pytest.mark.parametrize("p, k", PRIME_POWERS_TO_64 + [(2, 32)])
def test_reduction_matrix_matches_poly_mod(p, k):
    spec = gf.FieldSpec.make(p, k)
    rows = [oracles.poly_mod((0,) * (k + j) + (1,), spec.modulus, p) for j in range(k - 1)]
    assert gf._reduction_matrix(spec).tolist() == [list(r) + [0] * (k - len(r)) for r in rows]


@pytest.mark.parametrize("p, k", PRIME_POWERS_TO_64)
def test_coerce_to_base_inverts_the_embedding(p, k):
    base = gf.FieldSpec.make(p, k)
    for b in range(1, 5):
        ext = gf.get_extension(base, b)
        assert [oracles.coerce_to_base(ext, oracles.embed(ext, c)) for c in range(base.order)] \
            == list(range(base.order))
        if b > 1:
            theta = oracles.encode(ext.ext, (0, 1))   # generates E, so lies outside F_q
            with pytest.raises(AssertionError, match="escaped the base field"):
                oracles.coerce_to_base(ext, theta)


def _subfield_elements_by_field_ops(ext, base_degree):
    """Oracle: the subfield F_{p^base_degree} of ext element by element, from
    the trace images of the monomials by oracles.fq_pow and Gaussian elimination."""
    p, n = ext.p, ext.k
    b = n // base_degree
    q = p**base_degree
    images = []
    for i in range(n):
        v = oracles.encode(ext, tuple(0 for _ in range(i)) + (1,)) if i else 1
        acc = 0
        cur = v
        for _ in range(b):
            acc = oracles.fq_add(ext, acc, cur)
            cur = oracles.fq_pow(ext, cur, q)
        images.append(list(oracles.decode(ext, acc)))
    basis, *_ = gf._row_reduce(images, p)
    assert len(basis) == base_degree
    out = []
    for sel in range(q):
        acc = [0] * n
        s = sel
        for bas in basis:
            c = s % p
            s //= p
            if c:
                acc = [(x + c * y) % p for x, y in zip(acc, bas)]
        out.append(oracles.encode(ext, acc))
    return out


def _beta_by_field_ops(ext, base):
    """Oracle: the least root of base.modulus among the subfield's elements,
    each evaluated by oracles.fq_mul/fq_add Horner."""
    roots = []
    for u in _subfield_elements_by_field_ops(ext, base.k):
        acc = 0
        for coef in reversed(base.modulus):
            acc = oracles.fq_add(ext, oracles.fq_mul(ext, acc, u), coef)
        if acc == 0:
            roots.append(u)
    assert len(roots) == base.k
    return min(roots)


PRIME_POWERS_TO_256 = [(p, k) for p in (2, 3, 5, 7, 11, 13) for k in range(2, 9)
                       if p**k <= 256]


@pytest.mark.parametrize("p, k", PRIME_POWERS_TO_256)
def test_extension_matches_the_field_op_route(p, k):
    # cold caches, so that the batch route really runs here
    gf.get_extension.cache_clear()
    gf._norm_maps.cache_clear()
    base = gf.FieldSpec.make(p, k)
    q = base.order
    for b in range(2, 6):
        ext = gf.get_extension(base, b)
        E = gf.FieldSpec.make(p, k * b)
        assert ext.ext.modulus == E.modulus
        assert ext.beta == _beta_by_field_ops(E, base)
        assert ext.norm_exponent == (q**b - 1) // (q - 1)
    assert gf.get_extension.cache_info().misses == 4


def test_extension_above_the_oracle_grid():
    base = prime_power_field(4096)
    ext = gf.get_extension(base, 3)
    rng = random.Random(8)
    points = [[rng.randrange(base.order) for _ in range(3)] for _ in range(50)]
    assert gf.norms_many(ext, points).tolist() \
        == [oracles.norm_by_conjugates(ext, c) for c in points]
    for c in [0, 1, base.order - 1] + rng.sample(range(base.order), 40):
        assert oracles.coerce_to_base(ext, oracles.embed(ext, c)) == c


@pytest.mark.parametrize("p, k, b", [(p, k, b) for p, k in PRIME_POWERS_TO_256
                                     for b in range(2, 6)])
def test_trace_images_match_the_ladder(p, k, b):
    base, E = gf.FieldSpec.make(p, k), gf.FieldSpec.make(p, k * b)
    assert gf._trace_images(E, base).tolist() == oracles.trace_images_by_ladder(E, base).tolist()


# modulus of F_{q^b}, beta and norm exponent, recorded before the extension
# build moved to Frobenius matrices and the batched irreducibility search
EXTENSION_GOLDENS = {
    (49, 3): ((2, 0, 0, 0, 0, 0, 1), 686, 2451),
    (49, 5): ((3, 2, 0, 0, 0, 0, 0, 0, 0, 0, 1), 12780957, 5884901),
    (32, 3): ((1, 1) + (0,) * 13 + (1,), 316, 1057),
    (32, 5): ((1, 0, 0, 1) + (0,) * 21 + (1,), 2844714, 1082401),
    (101, 2): ((2, 0, 1), 0, 102),
    (101, 3): ((1, 1, 0, 1), 0, 10303),
    (101, 4): ((2, 0, 0, 0, 1), 0, 1040604),
    (2401, 3): ((2, 1, 1) + (0,) * 9 + (1,), 460056963, 5767203),
    (4096, 3): ((1, 0, 1, 0, 1, 1) + (0,) * 30 + (1,), 430862814, 16781313),
    (10007, 3): ((1, 1, 0, 1), 0, 100150057),
}


@pytest.mark.parametrize("q, b", sorted(EXTENSION_GOLDENS))
def test_extension_goldens(q, b):
    ext = gf.get_extension(prime_power_field(q), b)
    assert (ext.ext.modulus, ext.beta, ext.norm_exponent) == EXTENSION_GOLDENS[q, b]


def _maps_by_field_ops(ext):
    """Oracle: the lift and embed matrices of gf._norm_maps, row by row from
    the E digits of oracles.lift and oracles.embed at the base units p^j."""
    E, unit = ext.ext, [ext.base.p**j for j in range(ext.base.k)]
    lift = [list(oracles.decode(E, oracles.lift(ext, [0] * i + [u])))
            for i in range(ext.degree) for u in unit]
    embed = [list(oracles.decode(E, oracles.embed(ext, u))) for u in unit]
    return lift, embed


@pytest.mark.parametrize("p, k, b", [(p, k, b) for p, k in PRIME_POWERS_TO_256
                                     for b in range(2, 6)] + [(2, 12, 3)])
def test_norm_maps_match_the_embed_and_lift_oracles(p, k, b):
    ext = gf.get_extension(gf.FieldSpec.make(p, k), b)
    lift, embed, *_ = gf._norm_maps(ext)
    assert (lift.tolist(), embed.tolist()) == _maps_by_field_ops(ext)
