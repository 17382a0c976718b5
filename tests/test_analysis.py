import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from addext import analysis as an
from addext import numtheory as nt
from addext import suites
from addext.errors import BudgetError, InputError
from addext.extractors import (build_zp_extractor, build_zpn_extractor, extract_many,
                               zp_encode, zpn_encode)
from addext.sources import ExplicitSpec, GapSpec, Group, build_source
from oracles import (partial_ap_sum_prefix_max, statistical_distance,
                     statistical_distance_exact, uniform)


# ---------------------------------------------------------------------------
# distributions and distances
# ---------------------------------------------------------------------------

def test_statistical_distance_basics():
    u = uniform(4)
    assert statistical_distance(u, u) == 0.0
    point = an.OutputDistribution(4, (4, 0, 0, 0), 4)
    assert statistical_distance(point, u) == 0.75  # 1 - 1/M
    with pytest.raises(InputError):
        statistical_distance(u, uniform(3))


def test_distribution_counts_validated():
    with pytest.raises(InputError):
        an.OutputDistribution(2, (1, 1), 3)


def test_zp_extractor_distribution_example():
    cfg = build_zp_extractor(5, 1)
    X = build_source(ExplicitSpec(tuple(range(5))), Group.zp(5))
    dist = an.extractor_distribution(extract_many(cfg, X.sorted_elements), 2)
    assert dist.counts == (1, 4)
    assert abs(an.distance_to_uniform(dist) - 0.3) < 1e-15


def test_exact_distance_is_rational():
    d = an.OutputDistribution(2, (8, 7), 15)
    u = uniform(2)
    assert statistical_distance_exact(d, u) == Fraction(1, 30)


def test_distance_to_uniform_is_the_fraction_sum_to_the_bit():
    rng = random.Random(4)
    for M in (1, 2, 3, 16, 1000):
        for N in (1, 7, 5000):
            counts = [0] * M
            for _ in range(N):
                counts[rng.randrange(M) if rng.random() < 0.7 else 0] += 1
            d = an.OutputDistribution(M, tuple(counts), N)
            assert an.distance_to_uniform(d) == statistical_distance(d, uniform(M))


# ---------------------------------------------------------------------------
# character sums
# ---------------------------------------------------------------------------

def test_additive_charsum_interval():
    X = build_source(GapSpec(0, (1,), 5), Group.zp(11))
    # |sin(5 pi/11) / sin(pi/11)| / 5, by direct complex summation
    assert abs(an.additive_charsum(X, 1) - 0.7026674183332269) < 1e-12
    assert an.additive_charsum(X, 0) == 1.0


def test_additive_charsum_complete_and_singleton():
    full = build_source(ExplicitSpec(tuple(range(11))), Group.zp(11))
    assert an.additive_charsum(full, 3) < 1e-12
    single = build_source(ExplicitSpec((4,)), Group.zp(11))
    for a in range(11):
        assert abs(an.additive_charsum(single, a) - 1.0) < 1e-12


def test_additive_charsum_vector_group():
    g = Group.zp_vec(5, 2)
    full = build_source(ExplicitSpec(tuple((a, b) for a in range(5)
                                           for b in range(5))), g)
    assert an.additive_charsum(full, (1, 2)) < 1e-12
    assert an.additive_charsum(full, (0, 0)) == 1.0


def test_encoded_charsum_trivial_cases():
    cfg = build_zp_extractor(5, 1)
    X = build_source(ExplicitSpec(tuple(range(5))), Group.zp(5))
    values = [zp_encode(x, cfg) for x in X.sorted_elements]
    assert an.charsum_table(values, cfg.q, [0])[0] == 1.0
    # the image is the order-5 subgroup of Z_11*; its charsums are Gauss-like
    v = an.charsum_table(values, cfg.q, [1])[0]
    direct = abs(sum(np.exp(2j * np.pi * y / 11) for y in values)) / 5
    assert abs(v - direct) < 1e-12
    with pytest.raises(InputError):
        an.charsum_table([], cfg.q, [1])


def test_charsum_table_exact_above_int64_products():
    # zpn encodings at (p, n) = (101, 4) live in Z_q with (q - 1)^2 >= 2^63,
    # where xi * y no longer fits in int64
    cfg = build_zpn_extractor(101, 4, 1)
    q = cfg.q
    assert (q - 1) ** 2 >= 1 << 63
    rng = random.Random(41)
    values = [zpn_encode(tuple(rng.randrange(101) for _ in range(4)), cfg)
              for _ in range(200)]
    freqs = [1] + rng.sample(range(1, q), 15)
    got = an.charsum_table(values, q, freqs)
    for xi, value in zip(freqs, got):
        want = abs(sum(cmath.exp(2j * cmath.pi * (xi * y % q) / q)
                       for y in values)) / len(values)
        assert abs(value - want) < 1e-9


def test_parseval_identity_random_functions():
    rng = np.random.default_rng(2)
    for p in (13, 101, 499):
        f = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        fhat = np.fft.fft(f) / p
        lhs = (np.abs(fhat) ** 2).sum()
        rhs = (np.abs(f) ** 2).mean()
        assert abs(lhs - rhs) < 1e-9 * max(1.0, rhs)


def test_displacement_transport_exhaustive_p101():
    """Shifting the frequency by an encoded symmetry-set element moves every
    encoded character sum by at most 2 alpha |Y|."""
    p = 101
    cfg = build_zp_extractor(p, 1)
    q = cfg.q
    rng = random.Random(17)
    for _ in range(5):
        X = sorted(rng.sample(range(p), rng.randint(5, p)))
        Y = [zp_encode(x, cfg) for x in X]
        ind = np.zeros(q)
        ind[Y] = 1
        mags = np.abs(np.fft.fft(ind))  # |Y^(a)| for all a
        size = len(X)
        reps = np.bincount([(a - b) % p for a in X for b in X], minlength=p)
        for a_prime in range(p):
            if reps[a_prime] == 0:
                continue
            alpha = 1 - reps[a_prime] / size
            shift = zp_encode(a_prime, cfg)
            shifted = mags[np.arange(q) * shift % q]
            assert (np.abs(shifted - mags) <= 2 * alpha * size + 1e-9).all()


# ---------------------------------------------------------------------------
# polynomial sums
# ---------------------------------------------------------------------------

def test_poly_eval_all_vector_and_matrix():
    coeffs = [3, 1, 4, 1, 5]
    want = [sum(c * t**i for i, c in enumerate(coeffs)) % 31 for t in range(31)]
    assert an.poly_eval_all(coeffs, 31).tolist() == want
    rng = np.random.default_rng(5)
    for p in (11, 101):
        mat = rng.integers(0, p, size=(30, 7))
        got = an.poly_eval_all(mat, p)
        assert got.shape == (30, p)
        for row, c in zip(got, mat):
            assert (row == an.poly_eval_all(c.tolist(), p)).all()


def poly_eval_horner(coeffs, p):
    """The vectorized Horner route that poly_eval_all's power table replaced."""
    c = (np.asarray(coeffs) % p).astype(np.int64)
    t = np.arange(p, dtype=np.int64)
    acc = np.zeros(c.shape[:-1] + (p,), dtype=np.int64)
    for j in range(c.shape[-1] - 1, -1, -1):
        acc = (acc * t + c[..., j, None]) % p
    return acc


@pytest.mark.parametrize("p", [2, 3, 11, 101, 199, 499, 65537, 1000003])
def test_poly_eval_all_matches_horner(p):
    rng = np.random.default_rng(p)
    for d in (0, 1, 2, 5, 10):
        # coefficients beyond p and negative ones are reduced first
        mat = rng.integers(-3 * p, 3 * p, size=(4, d + 1))
        assert np.array_equal(an.poly_eval_all(mat, p), poly_eval_horner(mat, p))
        assert np.array_equal(an.poly_eval_all(mat[0].tolist(), p),
                              poly_eval_horner(mat[0].tolist(), p))


def test_poly_eval_all_checks_budget_and_overflow_before_allocating(monkeypatch):
    p = 1 << 40
    with pytest.raises(BudgetError, match="budget"):
        an.poly_eval_all([1, 2, 3], p)
    # with the budget out of the way, three products of up to (p-1)^2 overflow
    monkeypatch.setenv("ADDEXT_BUDGET", str(1 << 62))
    with pytest.raises(BudgetError, match="2\\^63"):
        an.poly_eval_all([1, 2, 3], p)
    monkeypatch.setenv("ADDEXT_BUDGET", str(100))
    with pytest.raises(BudgetError, match="budget"):
        an.poly_eval_all(np.ones((20, 3), dtype=np.int64), 11)


def complete_sum(p, coeffs):
    """|sum_t e_p(f(t))| from poly_eval_all, as the weil suite sums it."""
    return abs(np.exp(2j * np.pi * an.poly_eval_all(coeffs, p) / p).sum())


def test_weil_additive_gauss_sum():
    assert abs(complete_sum(7, [0, 0, 1]) - math.sqrt(7)) < 1e-9


def test_weil_additive_linear_vanishes():
    assert complete_sum(13, [5, 3]) < 1e-9


def test_weil_additive_random_deg5():
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [rng.randrange(101) for _ in range(5)] + [rng.randrange(1, 101)]
        assert complete_sum(101, coeffs) <= 5 * math.sqrt(101) + an.TOL
    r = suites.suite_weil(primes=[101], polys_per_p=20, dmin=5, dmax=5)
    assert r.ok and r.rows[0]["max_ratio"] <= 1


def test_partial_ap_sum_examples():
    prefix = np.abs(np.cumsum(np.exp(2j * np.pi * an.poly_eval_all([0, 0, 1], 13) / 13)))
    assert prefix[4] <= 4 * math.log2(13) * math.sqrt(13) * 2
    assert abs(prefix[12] - math.sqrt(13)) < 1e-9  # complete Gauss sum
    assert abs(prefix[0] - 1.0) < 1e-12
    with pytest.raises(InputError):
        suites.suite_partial_ap(primes=(13,), dmin=1, dmax=1)  # degree must exceed 1


def test_partial_prefix_max_matches_loop():
    coeffs = [3, 1, 4, 1]
    p = 31
    got = partial_ap_sum_prefix_max(p, coeffs, 2)
    want = max(abs(sum(np.exp(2j * np.pi * (2 * ((3 + t + 4 * t * t + t**3) % p))
                              / p) for t in range(s))) for s in range(1, p + 1))
    assert abs(got - want) < 1e-9


# ---------------------------------------------------------------------------
# L1, residuals, moments
# ---------------------------------------------------------------------------

def test_fourier_l1_trivial_cases():
    assert an.fourier_l1_interval(13, 13) == 1.0
    assert abs(an.fourier_l1_interval(13, 1) - 1.0) < 1e-12


def test_fourier_l1_against_dft_oracle():
    def l1_direct(p, s):
        x = np.zeros(p)
        x[:s] = 1
        return np.abs(np.fft.fft(x) / p).sum()
    for (p, s) in [(2, 1), (3, 2), (13, 5), (13, 7), (101, 30), (499, 123)]:
        assert abs(an.fourier_l1_interval(p, s) - l1_direct(p, s)) < 1e-9
    # every s at once; at p = 1031 the (s, j) terms span more than one block
    assert 1031 * 1030 > an.L1_BLOCK_ENTRIES
    for p in (2, 3, 13, 101, 1031):
        got = an.fourier_l1_interval(p, np.arange(1, p + 1))
        assert got.shape == (p,)
        want = [l1_direct(p, s) for s in range(1, p + 1)]
        assert np.abs(got - want).max() < 1e-9
    with pytest.raises(InputError):
        an.fourier_l1_interval(13, np.array([1, 14]))


def fourier_l1_per_entry(p, s_values):
    """The route that took one np.sin per (s, j) entry, before the sine table."""
    blk = np.asarray(s_values, dtype=np.int64)
    j = np.arange(1, p, dtype=np.int64)
    den = p * np.sin(np.pi * j / p)
    num = np.sin(np.pi * ((blk[:, None] * j) % p) / p)
    return np.where(blk == p, 1.0, blk / p + (num / den).sum(axis=1))


def test_fourier_l1_sine_table_equals_per_entry_sines():
    for p in nt.primes_upto(199):
        s = np.arange(1, p + 1)
        assert np.array_equal(an.fourier_l1_interval(p, s), fourier_l1_per_entry(p, s))


def test_fourier_l1_bound_example():
    assert an.fourier_l1_interval(13, 5) <= 4 * math.log2(13)


def test_xor_residual_example_and_oracle():
    dist, bound, ok = an.xor_residual_check(15, 2)
    assert dist == Fraction(1, 30) and bound == Fraction(4, 15) and ok

    def direct(N, M):
        counts = [0] * M
        for x in range(N):
            counts[x % M] += 1
        return sum(abs(Fraction(c, N) - Fraction(1, M)) for c in counts) / 2

    for (N, M) in [(15, 2), (15, 4), (21, 5), (35, 8), (105, 16), (33, 32),
                   (16, 15)]:
        d, b, ok = an.xor_residual_check(N, M)
        assert d == direct(N, M) and ok, (N, M)
    assert an.xor_residual_check(15, 1)[0] == 0
    with pytest.raises(InputError):
        an.xor_residual_check(15, 5)  # not coprime
    with pytest.raises(InputError):
        an.xor_residual_check(15, 15)


def test_moment_sum_full_group_identity():
    for q in (11, 101):
        for t in (1, 2, 3):
            assert an.moment_sum(range(1, q), q, t) == \
                ((q - 1) ** (2 * t) + (q - 1)) // q


def test_moment_sum_parseval_and_singleton():
    rng = random.Random(1)
    for _ in range(30):
        size = rng.randint(1, 101)
        Y = rng.sample(range(101), size)
        assert an.moment_sum(Y, 101, 1) == size
    assert an.moment_sum([3], 11, 2) == 1


def test_moment_sum_refuses_a_modulus_past_the_element_budget(monkeypatch):
    # a histogram of 2^62 entries could not be allocated: the refusal comes first
    for q in (2**62, (1 << 26) + 1):
        with pytest.raises(BudgetError, match="element budget"):
            an.moment_sum([1, 5], q, 1)
    monkeypatch.setenv("ADDEXT_BUDGET", "101")
    assert an.moment_sum([1, 5, 106], 101, 1) == 2
    with pytest.raises(BudgetError, match="element budget"):
        an.moment_sum([1, 5], 102, 1)


def test_moment_sum_float_oracle():
    def moment_float(Y, q, t):
        a = np.arange(q)
        F = np.exp(2j * np.pi * np.outer(a, sorted(Y)) / q).sum(axis=1)
        return (np.abs(F) ** (2 * t)).sum() / q
    rng = random.Random(2)
    for t in (1, 2):
        Y = rng.sample(range(101), 40)
        exact = an.moment_sum(Y, 101, t)
        assert abs(moment_float(Y, 101, t) - exact) < 1e-6 * max(exact, 1)


def test_character_id_dispatch():
    # the frequency is an int over Z_p and a coordinate tuple over Z_p^n
    X = build_source(GapSpec(0, (1,), 5), Group.zp(11))
    want = math.sin(5 * math.pi / 11) / (5 * math.sin(math.pi / 11))
    assert abs(an.additive_charsum(X, 1) - want) < 1e-12
    assert an.additive_charsum(X, 1) == an.additive_charsum(X, 12)
    V = build_source(GapSpec((0, 0), ((0, 1),), 5), Group.zp_vec(11, 2))
    assert abs(an.additive_charsum(V, (3, 1)) - want) < 1e-12
    assert abs(an.additive_charsum(V, (1, 0)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_eval_report_csv_row_formatting():
    rep = an.EvalReport("c" * 8, "s" * 8, 10, 0.125, 0.5, 1.0, True, 0.001)
    row = rep.csv_row()
    assert row[2] == "10" and row[3] == "0.125" and row[6] == "1"
    assert an.fmt17(1 / 3) == f"{1/3:.17g}"
    assert an.fmt17(None) == ""
