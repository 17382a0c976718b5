import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    assert nt.order_p_element(3, 2) == 2
    assert nt.order_p_element(11, 5) == 3
    assert nt.order_p_element(29, 7) == 7


def test_order_p_element_is_smallest_with_exact_order():
    for (q, p) in [(11, 5), (29, 7), (31, 5), (13, 3), (607, 101)]:
        g = nt.order_p_element(q, p)
        assert pow(g, p, q) == 1 and g != 1
        for h in range(2, g):
            assert pow(h, p, q) != 1


def test_crt_examples():
    s = nt.CrtSystem.make([3, 5])
    assert oracles.crt_combine([oracles.Residue(2, 3), oracles.Residue(3, 5)], s).value == 8
    assert oracles.crt_combine([oracles.Residue(0, 3), oracles.Residue(0, 5)], s).value == 0
    s2 = nt.CrtSystem.make([7, 13])
    assert oracles.crt_combine([oracles.Residue(2, 7), oracles.Residue(9, 13)], s2).value == 9


def test_crt_bijection_exhaustive():
    # fully exhaustive decompose-recombine round trip
    s = nt.CrtSystem.make([3, 5, 7, 11, 13])
    q = s.combined_modulus
    assert q == 15015
    for y in range(q):
        parts = [oracles.Residue(y % qi, qi) for qi in s.moduli]
        assert oracles.crt_combine(parts, s).value == y
    # spot checks on a larger system
    s6 = nt.CrtSystem.make([3, 5, 7, 11, 13, 17])
    for y in range(0, s6.combined_modulus, 101):
        parts = [oracles.Residue(y % qi, qi) for qi in s6.moduli]
        assert oracles.crt_combine(parts, s6).value == y


@given(st.integers(0, 2), st.integers(0, 4), st.integers(0, 6))
def test_crt_roundtrip_property(a, b, c):
    s = nt.CrtSystem.make([3, 5, 7])
    rs = [oracles.Residue(a, 3), oracles.Residue(b, 5), oracles.Residue(c, 7)]
    y = oracles.crt_combine(rs, s)
    assert [oracles.Residue(y.value % qi, qi) for qi in s.moduli] == rs


def test_crt_errors():
    with pytest.raises(InputError):
        nt.CrtSystem.make([4, 6])
    with pytest.raises(CapacityError):
        nt.CrtSystem.make([2**31 - 1, 2**31 - 19, 2**13 - 1])
    s = nt.CrtSystem.make([3, 5])
    with pytest.raises(InputError):
        oracles.crt_combine([oracles.Residue(1, 3), oracles.Residue(1, 7)], s)


def test_discrete_log_examples():
    g = oracles.Residue(3, 11)
    assert oracles.discrete_log(g, oracles.Residue(9, 11), 5) == 2
    assert oracles.discrete_log(g, oracles.Residue(1, 11), 5) == 0
    with pytest.raises(NotInSubgroupError):
        oracles.discrete_log(g, oracles.Residue(2, 11), 5)


def test_discrete_log_roundtrip_exhaustive():
    # subgroup of order 10007 (prime) inside Z_q*
    p = 10007
    q = nt.smallest_prime_congruent_one(p)
    g = oracles.Residue(nt.order_p_element(q, p), q)
    for e in range(0, p, 97):
        y = oracles.Residue(pow(g.value, e, q), q)
        assert oracles.discrete_log(g, y, p) == e
    # small order: fully exhaustive
    g5 = oracles.Residue(3, 11)
    for e in range(5):
        assert oracles.discrete_log(g5, oracles.Residue(pow(3, e, 11), 11), 5) == e


# the kernel's int64 moduli, and the limbs' on either side of (m - 1)^2 = 2^63
# (3037000493 and 3037000507, the primes nearest it), past 2^52, 2^61, 2^62
# and up to 2^63 - 25, the largest prime below MODULUS_CAP
INT64_MODULI = [2, 7, 1000003, 2**31 - 1]
LIMB_MODULI = [3037000493, 3037000507, 2**52 - 59, 2**61 - 1, 2**62 + 135, 2**63 - 25]


def _residues(m, shape):
    """int64 arrays of residues mod m, 0, 1 and m - 1 among the draws."""
    return hnp.arrays(np.int64, shape,
                      elements=st.integers(0, m - 1) | st.sampled_from([0, 1, m - 1]))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(INT64_MODULI + LIMB_MODULI),
       hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_side=5), st.data())
def test_mul_mod_matches_python_integers(m, shapes, data):
    a, b = (data.draw(_residues(m, shape)) for shape in shapes.input_shapes)
    got = nt.mul_mod(a, b, m)
    assert got.dtype == np.int64 and got.shape == shapes.result_shape
    want = oracles.matmul_mod_by_python_ints(a[..., None, None], b[..., None, None], m)
    assert got.tolist() == np.asarray(want[..., 0, 0]).tolist()
    want = (a.astype(object) + b.astype(object)) % m
    assert nt.add_mod(a, b, m).tolist() == np.asarray(want).tolist()


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(INT64_MODULI + LIMB_MODULI), st.integers(1, 3), st.integers(1, 4),
       st.integers(1, 80), st.integers(1, 4), st.sampled_from(["both", "left", "right"]),
       st.sampled_from([1, 7, nt.PRODUCT_CHUNK]), st.data())
def test_matmul_mod_matches_python_integers(m, B, n, K, K2, batched, chunk, data):
    # (B, n, K) @ (B, K, K'), or one side unbatched and broadcast, with the
    # products of the limbs taken 1, 7 or PRODUCT_CHUNK at a time
    A = data.draw(_residues(m, (B, n, K) if batched != "right" else (n, K)))
    X = data.draw(_residues(m, (B, K, K2) if batched != "left" else (K, K2)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nt, "PRODUCT_CHUNK", chunk)
        got = nt.matmul_mod(A, X, m)
    assert got.dtype == np.int64 and got.shape == (B, n, K2)
    assert got.tolist() == oracles.matmul_mod_by_python_ints(A, X, m).tolist()


def test_the_kernel_takes_int64_products_exactly_where_they_fit():
    # (m - 1)^2 < 2^63 up to 3037000493; K products up to m - 1 < 2^63 / K
    assert nt.int64_sums(3037000493, 1) and not nt.int64_sums(3037000507, 1)
    assert [nt.product_steps(3037000493, K) for K in (1, 2)] == [1, nt.LIMB_STEPS]
    m = 3037000507
    a = np.array([m - 1, m - 2, 1 << 32, 0])
    assert nt.mul_mod(a, a, m).tolist() == [int(x) ** 2 % m for x in a]
    assert nt.mul_mod(m - 1, m - 1, m) == 1   # 0-d operands


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
    array = codes if form == "list" else np.array(codes, dtype=object if form == "object" else np.int64)
    digits = nt.to_digits(array, m, N)
    assert digits.shape == (len(codes), N)
    assert digits.dtype == np.int64                 # each digit is below m < 2^63
    assert digits.tolist() == [_digits_by_divmod(c, m, N) for c in codes]
    back = nt.from_digits(digits, m)
    assert back.dtype == (np.int64 if m**N <= 1 << 63 else object)
    assert back.tolist() == codes
    assert nt.to_digits(codes[0], m, N).tolist() == _digits_by_divmod(codes[0], m, N)
