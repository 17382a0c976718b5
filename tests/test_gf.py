import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addext import gf
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
            if not gf.poly_mod(poly, tuple(cand), p):
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


def test_irreducible_certificate_no_roots():
    for p in (2, 3, 5, 7):
        for k in (2, 3):
            f = gf.find_irreducible(p, k)
            for x in range(p):
                acc = 0
                for c in reversed(f):
                    acc = (acc * x + c) % p
                assert acc != 0


def test_field_arith_examples():
    F9 = gf.FieldSpec.make(3, 2)
    theta = F9.encode([0, 1])
    assert F9.decode(F9.mul(theta, theta)) == (2, 0)
    assert F9.decode(F9.pow(theta, 3)) == (0, 2)  # Frobenius
    assert F9.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        F9.inv(0)


def test_field_axioms_exhaustive_small():
    for (p, k) in [(2, 3), (3, 2), (5, 1)]:
        F = gf.FieldSpec.make(p, k)
        q = F.order
        els = list(F.elements())
        for a in els:
            assert F.add(a, F.neg(a)) == 0
            assert F.mul(a, 1) == a
            if a:
                assert F.mul(a, F.inv(a)) == 1
                assert F.pow(a, q - 1) == 1
        for a, b in itertools.product(els[: min(q, 9)], repeat=2):
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)


def test_frobenius_is_additive_homomorphism():
    F8 = gf.FieldSpec.make(2, 3)
    for a in F8.elements():
        for b in F8.elements():
            assert F8.pow(F8.add(a, b), 2) == F8.add(F8.pow(a, 2), F8.pow(b, 2))


def test_trace_examples():
    F4 = gf.FieldSpec.make(2, 2)
    assert oracles.trace_to_f2(F4, F4.encode([0, 1])) == 1
    assert oracles.trace_to_f2(F4, 0) == 0
    F2 = gf.FieldSpec.make(2, 1)
    assert oracles.trace_to_f2(F2, 1) == 1


def test_trace_linear_and_surjective():
    for k in (1, 2, 3, 4, 6):
        F = gf.FieldSpec.make(2, k)
        traces = [oracles.trace_to_f2(F, v) for v in F.elements()]
        assert set(traces) == {0, 1}
        assert traces.count(0) == traces.count(1)  # kernel is a hyperplane
        for a in range(F.order):
            for b in range(0, F.order, max(1, F.order // 5)):
                s = oracles.trace_to_f2(F, F.add(a, b))
                assert s == traces[a] ^ traces[b]


def test_trace_rejects_odd_characteristic():
    with pytest.raises(InputError):
        oracles.trace_to_f2(gf.FieldSpec.make(3, 2), 1)


def test_fq_quadratic_character():
    F9 = gf.FieldSpec.make(3, 2)
    chi = [oracles.fq_quadratic_character(F9, v) for v in F9.elements()]
    assert chi[0] == 0
    assert chi.count(1) == 4 and chi.count(-1) == 4
    squares = {F9.mul(v, v) for v in F9.elements() if v}
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
                    scaled = [base.mul(lam, c) for c in coords]
                    assert oracles.norm_poly_eval(ext, scaled) == \
                        base.mul(base.pow(lam, k), n)


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
    na, nb = F81.pow(a % 81, e), F81.pow(b % 81, e)
    nab = F81.pow(F81.mul(a % 81, b % 81), e)
    assert nab == F81.mul(na, nb)


def test_embedding_is_ring_homomorphism():
    F4 = gf.FieldSpec.make(2, 2)
    ext = gf.get_extension(F4, 3)  # F_64 over F_4
    E = ext.ext
    for a in range(4):
        for b in range(4):
            assert ext.embed(F4.add(a, b)) == E.add(ext.embed(a), ext.embed(b))
            assert ext.embed(F4.mul(a, b)) == E.mul(ext.embed(a), ext.embed(b))
    # embedded elements are fixed by Frobenius^k' (they lie in the subfield)
    for a in range(4):
        u = ext.embed(a)
        assert E.pow(u, 4) == u


def test_norm_subfield_fast_path_matches_general_route():
    F4 = gf.FieldSpec.make(2, 2)
    ext = gf.get_extension(F4, 3)
    for c in range(4):
        fast = oracles.norm_poly_eval(ext, [c, 0, 0])
        direct = oracles.norm_by_conjugates(ext, [c, 0, 0])
        assert fast == direct == F4.pow(c, 3)


def test_poly_gcd_basics():
    # (x+1)^2 and (x+1)(x+2) over F_5
    a = gf.poly_mul((1, 1), (1, 1), 5)
    b = gf.poly_mul((1, 1), (2, 1), 5)
    assert gf.poly_gcd(a, b, 5) == (1, 1)
    assert gf.poly_gcd(a, (1,), 5) == (1,)


PRIME_POWERS_TO_64 = [(p, k) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                                       47, 53, 59, 61)
                      for k in range(1, 7) if p**k <= 64]


@pytest.mark.parametrize("p, k", PRIME_POWERS_TO_64)
def test_coerce_to_base_inverts_the_embedding(p, k):
    base = gf.FieldSpec.make(p, k)
    for b in range(1, 5):
        ext = gf.get_extension(base, b)
        assert [oracles.coerce_to_base(ext, ext.embed(c)) for c in range(base.order)] \
            == list(range(base.order))
        if b > 1:
            theta = ext.ext.encode((0, 1))   # generates E, so lies outside F_q
            with pytest.raises(AssertionError, match="escaped the base field"):
                oracles.coerce_to_base(ext, theta)


def _subfield_elements_by_field_ops(ext, base_degree):
    """Oracle: the subfield F_{p^base_degree} of ext element by element, from
    the trace images of the monomials by FieldSpec.pow and Gaussian elimination."""
    p, n = ext.p, ext.k
    b = n // base_degree
    q = p**base_degree
    images = []
    for i in range(n):
        v = ext.encode(tuple(0 for _ in range(i)) + (1,)) if i else 1
        acc = 0
        cur = v
        for _ in range(b):
            acc = ext.add(acc, cur)
            cur = ext.pow(cur, q)
        images.append(list(ext.decode(acc)))
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
        out.append(ext.encode(acc))
    return out


def _beta_by_field_ops(ext, base):
    """Oracle: the least root of base.modulus among the subfield's elements,
    each evaluated by FieldSpec.mul/add Horner."""
    roots = []
    for u in _subfield_elements_by_field_ops(ext, base.k):
        acc = 0
        for coef in reversed(base.modulus):
            acc = ext.add(ext.mul(acc, u), coef)
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
        assert oracles.coerce_to_base(ext, ext.embed(c)) == c
