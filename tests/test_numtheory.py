import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addext import gf, numtheory as nt
from addext.errors import CapacityError, InputError

import oracles
from oracles import NotInSubgroupError


def trial_division_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_matches_trial_division():
    for n in range(2000):
        assert nt.is_prime(n) == trial_division_is_prime(n), n
    for n in (10**12 + 39, 10**12 + 61):  # known primes
        assert nt.is_prime(n)
    assert nt.is_prime(2**61 - 1)         # Mersenne prime
    assert not nt.is_prime(2**61 + 1)     # divisible by 3
    assert not nt.is_prime(10**12 + 37)   # divisible by 53


def test_smallest_prime_congruent_one_examples():
    assert nt.smallest_prime_congruent_one(2) == 3
    assert nt.smallest_prime_congruent_one(5) == 11
    assert nt.smallest_prime_congruent_one(7) == 29


def test_smallest_prime_congruent_one_properties():
    for p in nt.primes_upto(200):
        q = nt.smallest_prime_congruent_one(p)
        assert q % p == 1 and q > p and nt.is_prime(q)
        # minimality
        for cand in range(1 + p, q, p):
            assert not nt.is_prime(cand)


def test_search_budget():
    with pytest.raises(nt.SearchBudgetError):
        nt.smallest_prime_congruent_one(101, budget=200)


def test_linnik_primes_examples():
    assert nt.linnik_primes(3, 2) == [7, 13]
    assert nt.linnik_primes(2, 3) == [3, 5, 7]
    assert nt.linnik_primes(5, 2) == [11, 31]


def test_linnik_primes_ascending_distinct():
    qs = nt.linnik_primes(11, 8)
    assert qs == sorted(set(qs))
    assert all(q % 11 == 1 and nt.is_prime(q) for q in qs)


def test_order_p_element_examples():
    assert nt.order_p_element(3, 2).value == 2
    assert nt.order_p_element(11, 5).value == 3
    assert nt.order_p_element(29, 7).value == 7


def test_order_p_element_is_smallest_with_exact_order():
    for (q, p) in [(11, 5), (29, 7), (31, 5), (13, 3), (607, 101)]:
        g = nt.order_p_element(q, p).value
        assert pow(g, p, q) == 1 and g != 1
        for h in range(2, g):
            assert pow(h, p, q) != 1


def test_crt_examples():
    s = nt.CrtSystem.make([3, 5])
    assert nt.crt_combine([nt.Residue(2, 3), nt.Residue(3, 5)], s).value == 8
    assert nt.crt_combine([nt.Residue(0, 3), nt.Residue(0, 5)], s).value == 0
    s2 = nt.CrtSystem.make([7, 13])
    assert nt.crt_combine([nt.Residue(2, 7), nt.Residue(9, 13)], s2).value == 9


def test_crt_bijection_exhaustive():
    # fully exhaustive decompose-recombine round trip
    s = nt.CrtSystem.make([3, 5, 7, 11, 13])
    q = s.combined_modulus
    assert q == 15015
    for y in range(q):
        parts = [nt.Residue(y % qi, qi) for qi in s.moduli]
        assert nt.crt_combine(parts, s).value == y
    # spot checks on a larger system
    s6 = nt.CrtSystem.make([3, 5, 7, 11, 13, 17])
    for y in range(0, s6.combined_modulus, 101):
        parts = [nt.Residue(y % qi, qi) for qi in s6.moduli]
        assert nt.crt_combine(parts, s6).value == y


@given(st.integers(0, 2), st.integers(0, 4), st.integers(0, 6))
def test_crt_roundtrip_property(a, b, c):
    s = nt.CrtSystem.make([3, 5, 7])
    rs = [nt.Residue(a, 3), nt.Residue(b, 5), nt.Residue(c, 7)]
    y = nt.crt_combine(rs, s)
    assert [nt.Residue(y.value % qi, qi) for qi in s.moduli] == rs


def test_crt_errors():
    with pytest.raises(InputError):
        nt.CrtSystem.make([4, 6])
    with pytest.raises(CapacityError):
        nt.CrtSystem.make([2**31 - 1, 2**31 - 19, 2**13 - 1])
    s = nt.CrtSystem.make([3, 5])
    with pytest.raises(InputError):
        nt.crt_combine([nt.Residue(1, 3), nt.Residue(1, 7)], s)


def test_discrete_log_examples():
    g = nt.Residue(3, 11)
    assert oracles.discrete_log(g, nt.Residue(9, 11), 5) == 2
    assert oracles.discrete_log(g, nt.Residue(1, 11), 5) == 0
    with pytest.raises(NotInSubgroupError):
        oracles.discrete_log(g, nt.Residue(2, 11), 5)


def test_discrete_log_roundtrip_exhaustive():
    # subgroup of order 10007 (prime) inside Z_q*
    p = 10007
    q = nt.smallest_prime_congruent_one(p)
    g = nt.order_p_element(q, p)
    for e in range(0, p, 97):
        y = nt.Residue(pow(g.value, e, q), q)
        assert oracles.discrete_log(g, y, p) == e
    # small order: fully exhaustive
    g5 = nt.Residue(3, 11)
    for e in range(5):
        assert oracles.discrete_log(g5, nt.Residue(pow(3, e, 11), 11), 5) == e


# the last modulus with int64 products, the first with Python-int products,
# and moduli far on either side
DOT_MODULI = [2, 7, 1000003, 3037000500, 3037000501, (1 << 61) - 1, (1 << 63) - 25]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(DOT_MODULI), st.integers(1, 4), st.integers(0, 5), st.integers(0, 5),
       st.data())
def test_dot_mod_matches_python_integers(m, N, c, n, data):
    digit = st.integers(0, m - 1) | st.sampled_from([0, m - 1])
    A = data.draw(st.lists(st.lists(digit, min_size=N, max_size=N), min_size=c, max_size=c))
    X = data.draw(st.lists(st.lists(digit, min_size=N, max_size=N), min_size=n, max_size=n))
    want = [[sum(a * x for a, x in zip(ra, rx)) % m for rx in X] for ra in A]
    got = nt.dot_mod(np.array(A, dtype=np.int64).reshape(c, N),
                     np.array(X, dtype=np.int64).reshape(n, N), m)
    assert got.dtype == np.int64 and got.shape == (c, n) and got.tolist() == want
    # residues are one-digit rows: their products
    ys = [r[0] for r in A]
    assert nt.dot_mod(ys, [x[0] for x in X], m).tolist() == [
        [y * r[0] % m for r in X] for y in ys]


@pytest.mark.parametrize("g, q", [(1, 2), (2, 11), (5, 10007), (2, 4294967291),
                                  (37, (1 << 61) - 1)])
def test_powers_is_the_subgroup_walk(g, q):
    for count in (0, 1, 2, 3, 5, 64, 1000, 1025):
        want, x = [], 1
        for _ in range(count):
            want.append(x)
            x = x * g % q
        got = nt.powers(g, count, q)
        assert got.dtype == np.int64 and got.tolist() == want, count


def test_quadratic_character_examples():
    # the Legendre symbol is the quadratic character of the prime field F_7
    F7 = gf.FieldSpec.make(7, 1)
    assert oracles.fq_quadratic_character(F7, 4) == 1
    assert oracles.fq_quadratic_character(F7, 3) == -1
    assert oracles.fq_quadratic_character(F7, 0) == 0


def test_quadratic_character_multiplicative_exhaustive():
    for q in [3, 5, 7, 11, 101, 499]:
        Fq = gf.FieldSpec.make(q, 1)
        chi = [oracles.fq_quadratic_character(Fq, a) for a in range(q)]
        assert sum(chi) == 0  # as many residues as non-residues
        for a in range(1, q):
            for b in range(1, q):
                assert chi[a * b % q] == chi[a] * chi[b]


def test_quadratic_character_rejects_even_modulus():
    with pytest.raises(InputError):
        oracles.fq_quadratic_character(gf.FieldSpec.make(2, 1), 1)


def test_primitive_root_and_index_table():
    assert nt.smallest_primitive_root(11) == 2
    for p in [3, 5, 7, 11, 101]:
        g = nt.smallest_primitive_root(p)
        tab = oracles.index_table(p)
        assert tab[0] == -1 and tab[1] == 0 and tab[g] == 1
        assert sorted(tab[1:]) == list(range(p - 1))
        for x in range(1, p):
            assert pow(g, tab[x], p) == x


@settings(max_examples=30)
@given(st.integers(2, 10**6))
def test_factorize_reassembles(n):
    prod = 1
    for p, e in nt.factorize(n).items():
        assert nt.is_prime(p)
        prod *= p**e
    assert prod == n


# ---------------------------------------------------------------------------
# the base-m digit codec
# ---------------------------------------------------------------------------

def _digits_by_divmod(code, m, N):
    out = []
    for _ in range(N):
        code, d = divmod(code, m)
        out.append(d)
    return out


@st.composite
def _codec_cases(draw):
    """(m, N, codes, form): m in [2, 2^63), N <= 6, and m^N on either side of
    2^63 (m near its N-th root is one of the draws); the codes as an int64
    array where they fit, an object array, or a list."""
    N = draw(st.integers(1, 6))
    root = nt.integer_root((1 << 63) - 1, N)
    m = draw(st.one_of(st.integers(2, 16),
                       st.integers(max(2, root - 2), min(root + 2, (1 << 63) - 1)),
                       st.integers(2, (1 << 63) - 1)))
    top = m**N - 1
    codes = draw(st.lists(st.one_of(st.integers(0, top), st.sampled_from([0, top])),
                          min_size=1, max_size=8))
    forms = ["object", "list"] + (["int64"] if max(codes) < 1 << 63 else [])
    return m, N, codes, draw(st.sampled_from(forms))


@settings(max_examples=300, deadline=None)
@given(_codec_cases())
def test_digit_codec_round_trips_and_agrees_with_divmod(case):
    m, N, codes, form = case
    fits = max(codes) < 1 << 63
    array = codes if form == "list" else np.array(codes, dtype=object if form == "object" else np.int64)
    digits = nt.to_digits(array, m, N)
    assert digits.shape == (len(codes), N)
    assert digits.dtype == (object if form == "object" or not fits else np.int64)
    assert digits.tolist() == [_digits_by_divmod(c, m, N) for c in codes]
    back = nt.from_digits(digits, m)
    assert back.dtype == (np.int64 if m**N <= 1 << 63 else object)
    assert back.tolist() == codes
    assert nt.to_digits(codes[0], m, N).tolist() == _digits_by_divmod(codes[0], m, N)
