"""Differential tests of the spectral primitives over Z_m:
``sources.cyclic_convolve`` (exact pair counts of the sums a + b, an entry
repeated r times counting r times), ``sources.convolve_rows`` (exact cyclic
convolutions of integer rows) and ``analysis.charsum_table`` (additive
character sums).

The routes these primitives replaced are kept here as oracles: the pair
``Counter`` of ``cyclic_convolve``, the |X| x |X| difference matrix of
``sym_set``, the ``np.convolve`` fold of ``moment_sum``, the pair matrices of
``suite_transport`` and, in ``tests/oracles.py``, the
one-frequency-at-a-time character sum, which is the oracle of both routes of
``charsum_table`` (its direct route's chunks of ``numtheory.dot_mod`` and its
one ``fftn`` over Z_p^n). The weighted ``np.unique`` route that
``cyclic_convolve`` had before it took unit weights only is the oracle of
``convolve_rows`` (``tests/oracles.py``).
"""

import csv
import functools
import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addext import analysis as an
from addext.canonical import canonical_json
from addext.cli import main
from addext.errors import BudgetError
from addext.gf import FieldSpec
from addext.numtheory import CrtSystem, to_digits
from addext import sources
from addext.sources import (ExplicitSpec, GapSpec, Group, build_source, convolve_rows,
                            cyclic_convolve, difference_histogram, doubling, sym_set)
from oracles import (charsum_per_frequency, differences_by_pairs, doubling_by_pairs,
                     sym_set_by_pairs, weighted_sums_by_unique)


# ---------------------------------------------------------------------------
# oracles: the replaced routes
# ---------------------------------------------------------------------------

def naive_convolve(va, vb, m):
    return sorted(Counter((int(a) + int(b)) % m for a in va for b in vb).items())


def diff_counts_matrix(elements, m):
    arr = np.asarray(sorted(elements), dtype=np.int64)
    return np.bincount(((arr[:, None] - arr[None, :]) % m).ravel(), minlength=m)


def moment_sum_convolve_fold(Y, q, t):
    ys = sorted(set(int(y) % q for y in Y))
    r = np.zeros(q, dtype=np.int64)
    r[ys] = 1
    conv = r
    for _ in range(t - 1):
        full = np.convolve(conv, r)
        conv = full[:q].copy()
        conv[:q - 1] += full[q:]
    return int((conv * conv).sum())


def as_pairs(result):
    values, counts = result
    return [(int(v), int(c)) for v, c in zip(values, counts)]


# ---------------------------------------------------------------------------
# cyclic_convolve
# ---------------------------------------------------------------------------

def repeated(rng, values, most):
    """Each of ``values`` repeated 1..most times, in a shuffled order."""
    out = [v for v in values for _ in range(rng.randint(1, most))]
    rng.shuffle(out)
    return out


def test_cyclic_convolve_repeated_entries_both_routes(monkeypatch):
    rng = random.Random(5)
    m = 211
    for na, nb, most in ((3, 7, 1), (3, 7, 4), (14, 15, 1), (6, 5, 3), (40, 90, 5),
                         (211, 211, 3)):
        va = repeated(rng, rng.sample(range(m), na), most)
        vb = repeated(rng, rng.sample(range(m), nb), most)
        want = naive_convolve(va, vb, m)
        assert as_pairs(cyclic_convolve(va, vb, m)) == want
        # with no element budget only the pairs route is left
        monkeypatch.setenv("ADDEXT_BUDGET", "0")
        if len(va) * len(vb) <= m:
            assert as_pairs(cyclic_convolve(va, vb, m)) == want
        else:
            with pytest.raises(BudgetError):
                cyclic_convolve(va, vb, m)
        monkeypatch.delenv("ADDEXT_BUDGET")


# at most 18 x 12 pairs: the FFT route in Z_7^2, the pairs route in Z_11^3 (and the
# forced FFT), the pairs route on digit rows in Z_(2^31-1)^3, of order >= 2^63
@pytest.mark.parametrize("m, N", [(7, 2), (11, 3), (2**31 - 1, 3)])
def test_cyclic_convolve_repeated_digit_rows(monkeypatch, m, N):
    rng = random.Random(m)
    rows = [tuple(rng.randrange(m) for _ in range(N)) for _ in range(6)]
    va, vb = repeated(rng, rows, 3), repeated(rng, rows[:4], 3)
    want = Counter(tuple((x + y) % m for x, y in zip(a, b)) for a in va for b in vb)
    for pair_budget in [sources.DEFAULT_PAIR_BUDGET] + ([0] if m**N <= 1 << 16 else []):
        monkeypatch.setattr(sources, "DEFAULT_PAIR_BUDGET", pair_budget)
        keys, counts = cyclic_convolve(np.array(va), np.array(vb), m)
        assert dict(zip(map(tuple, keys.tolist()), counts.tolist())) == want


def test_cyclic_convolve_duplicates_and_trivial_moduli():
    assert as_pairs(cyclic_convolve([2, 0, 2, 0, 0, 2, 0, 2, 0], [1, 1], 3)) == [(0, 8), (1, 10)]
    assert as_pairs(cyclic_convolve([0] * 4, [0] * 4, 1)) == [(0, 16)]
    assert as_pairs(cyclic_convolve([], [1, 2], 5)) == []


def test_cyclic_convolve_pairs_route_just_below_2_63():
    m = (1 << 63) - 25
    va = [0, 1, 1, m - 1, m - 2, m - 1, (1 << 62) + 7]
    vb = [m - 1, m - 3, 1 << 62, 5, m - 1]
    assert as_pairs(cyclic_convolve(va, vb, m)) == naive_convolve(va, vb, m)


def test_cyclic_convolve_refuses_what_fits_neither_route():
    m = (1 << 40) + 15
    big = np.arange(8193, dtype=np.int64)
    with pytest.raises(BudgetError):
        cyclic_convolve(big, big, m)


def test_cyclic_convolve_refuses_an_inexact_fft(monkeypatch):
    real = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: real(*a, **k) + 0.3)
    x = np.arange(20, dtype=np.int64)
    with pytest.raises(BudgetError):
        cyclic_convolve(x, x, 101)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 300).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.tuples(st.integers(0, m - 1), st.integers(1, 5)), max_size=25),
    st.lists(st.tuples(st.integers(0, m - 1), st.integers(1, 5)), max_size=25))))
def test_cyclic_convolve_property(case):
    # each (value, r) is the value repeated r times
    m, a, b = case
    va, vb = ([x for x, r in pairs for _ in range(r)] for pairs in (a, b))
    got = as_pairs(cyclic_convolve(va, vb, m))
    assert got == naive_convolve(va, vb, m)
    assert [v for v, _ in got] == sorted({v for v, _ in got})


def dense_by_pairs(row_a, row_b, m):
    """One row of convolve_rows through the weighted np.unique route."""
    va, vb = np.flatnonzero(row_a), np.flatnonzero(row_b)
    values, counts = weighted_sums_by_unique(va, row_a[va], vb, row_b[vb], m)
    out = np.zeros(m, dtype=np.int64)
    out[values] = counts
    return out


@pytest.mark.parametrize("chunk", [sources.CONVOLVE_CHUNK, 1, 700])
def test_convolve_rows_matches_the_pairs_route(monkeypatch, chunk):
    # small chunks force one row per step, or a few rows per step
    monkeypatch.setattr(sources, "CONVOLVE_CHUNK", chunk)
    rng = np.random.default_rng(8)
    for m in (1, 2, 3, 17, 101, 256, 499):
        rows = 9
        A = np.zeros((rows, m), dtype=np.int64)
        B = np.zeros((rows, m), dtype=np.int64)
        for r in range(rows):
            # sparse rows, at most m weighted pairs, as the pairs route took them
            k = int(rng.integers(0, max(1, math.isqrt(m)) + 1))
            A[r, rng.choice(m, k, replace=False)] = rng.integers(1, 50, size=k)
            B[r, rng.choice(m, k, replace=False)] = rng.integers(1, 50, size=k)
        got = convolve_rows(A, B, m)
        assert got.dtype == np.int64 and got.shape == (rows, m)
        for r in range(rows):
            assert (got[r] == dense_by_pairs(A[r], B[r], m)).all(), (m, r)


def test_convolve_rows_autocorrelation_is_the_overlap_count():
    # the identity suite_bohr relies on: row r of convolve_rows(B, B[:, -x], p)
    # at y is |B cap (B + y)|, the count np.roll gave per shift
    rng = np.random.default_rng(3)
    p = 61
    B = rng.random((12, p)) < 0.3
    x = np.arange(p)
    got = convolve_rows(B, B[:, -x % p], p)
    for r in range(len(B)):
        want = [int((B[r] & np.roll(B[r], y)).sum()) for y in range(p)]
        assert got[r].tolist() == want


def test_convolve_rows_refuses_an_inexact_fft(monkeypatch):
    real = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: real(*a, **k) + 0.3)
    with pytest.raises(BudgetError):
        convolve_rows(np.ones((2, 11)), np.ones((2, 11)), 11)


# ---------------------------------------------------------------------------
# callers against the routes they replaced
# ---------------------------------------------------------------------------

def sym_set_from_matrix(elements, m, alpha):
    counts = diff_counts_matrix(elements, m)
    thresh = (1 - alpha) * len(elements)
    return {g for g in range(m) if counts[g] > 0 and counts[g] >= thresh}


def test_sym_set_matches_difference_matrix():
    rng = random.Random(6)
    groups = [(Group.zp(1009), 1009),
              (Group.zn(CrtSystem.make([5, 7, 11, 13])), 5005)]
    for grp, m in groups:
        for size in (2, 20, 31, 300):   # pairs route up to |X|^2 <= m, then FFT
            els = rng.sample(range(m), size)
            X = build_source(ExplicitSpec(tuple(els)), grp)
            for alpha in (0.05, 0.25, 0.5, 1.0):
                assert sym_set(X, alpha) == sym_set_from_matrix(els, m, alpha)


def test_moment_sum_matches_convolve_fold():
    rng = random.Random(7)
    for q, size in ((1009, 10), (1009, 60), (101, 101), (10007, 8)):
        Y = rng.sample(range(q), size)
        for t in (1, 2, 3):
            if size ** (2 * t) < 2**62:
                assert an.moment_sum(Y, q, t) == moment_sum_convolve_fold(Y, q, t)


def test_transport_additive_counts_match_pair_matrices():
    rng = random.Random(9)
    p = 499
    for size in (2, 20, 300, p):
        X = np.array(sorted(rng.sample(range(p), size)), dtype=np.int64)
        sums = cyclic_convolve(X, X, p)[0]
        assert sums.size == np.unique((X[:, None] + X[None, :]) % p).size
        diffs, counts = cyclic_convolve(X, (p - X) % p, p)
        rep = np.zeros(p, dtype=np.int64)
        rep[diffs] = counts
        assert (rep == diff_counts_matrix(X.tolist(), p)).all()


# ---------------------------------------------------------------------------
# vector groups on the Z_m^N core, against the pairwise routes
# ---------------------------------------------------------------------------

FFT_ORDER_CAP = 1 << 16  # largest order on which the FFT route is forced


def element_index(grp, x) -> int:
    return sum(c * grp.base_order**j for j, c in enumerate(x))


def check_against_pairwise_routes(X, alphas) -> None:
    """difference_histogram, sym_set and doubling against the pairwise
    routes, on the default route, the forced FFT route (when the order is
    at most FFT_ORDER_CAP) and the pairs route (BudgetError when |X|^2
    exceeds the order, since then only the FFT route applies)."""
    grp = X.group
    diffs = differences_by_pairs(X)
    syms = [sym_set_by_pairs(X, alpha) for alpha in alphas]
    dbl = doubling_by_pairs(X)
    routes = ["default", "pairs"] + (["fft"] if grp.order <= FFT_ORDER_CAP else [])
    for route in routes:
        with pytest.MonkeyPatch.context() as mp:
            if route == "fft":
                mp.setattr(sources, "DEFAULT_PAIR_BUDGET", 0)
            if route == "pairs":
                mp.setenv("ADDEXT_BUDGET", "0")
                if len(X) ** 2 > grp.order:
                    with pytest.raises(BudgetError):
                        doubling(X)
                    continue
            values, counts = difference_histogram(X)
            elements = grp.from_digits(values)
            assert dict(zip(elements, counts.tolist())) == diffs, route
            indices = [element_index(grp, g) for g in elements]
            assert indices == sorted(set(indices)), route
            assert [sym_set(X, alpha) for alpha in alphas] == syms, route
            assert doubling(X) == dbl, route


@functools.cache
def vector_group(kind: str, p: int, k: int, n: int) -> Group:
    return Group.zp_vec(p, n) if kind == "zp_vec" else Group.fq_vec(FieldSpec.make(p, k), n)


@st.composite
def vector_sources(draw):
    """A source in Z_p^n or F_q^n, q = p^k: p in {2, 3, 5, 7} (p = 2 adds
    by XOR), k <= 3, n <= 3; half of the draws are small GAPs, whose
    differences repeat."""
    kind = draw(st.sampled_from(["zp_vec", "fq_vec"]))
    grp = vector_group(kind, draw(st.sampled_from([2, 3, 5, 7])), draw(st.integers(1, 3)),
                       draw(st.integers(1, 3)))
    index = st.integers(0, grp.order - 1).map(
        lambda i: grp.from_digits(to_digits([i], *grp.zmn))[0])
    if draw(st.booleans()):
        spec = GapSpec(draw(index), tuple(draw(st.lists(index, min_size=1, max_size=2))),
                       draw(st.integers(1, 6)))
    else:
        spec = ExplicitSpec(tuple(draw(st.sets(index, min_size=1, max_size=60))))
    return build_source(spec, grp)


@settings(max_examples=80, deadline=None)
@given(vector_sources())
def test_vector_diagnostics_match_the_pairwise_routes(X):
    check_against_pairwise_routes(X, (0.1, 0.25, 0.5, 1.0))


def test_vector_group_of_order_above_2_63_matches_the_pairwise_routes():
    # Z_(2^31-1)^3: indices do not fit int64, so the pairs route tells sums
    # apart by their digit rows
    p = 2**31 - 1
    grp = Group.zp_vec(p, 3)
    assert grp.order >= 1 << 63
    rng = random.Random(15)
    vec = lambda: tuple(rng.randrange(p) for _ in range(3))  # noqa: E731
    gap = build_source(GapSpec(vec(), (vec(), vec()), 17), grp).elements
    X = build_source(ExplicitSpec(tuple(gap | {vec() for _ in range(11)})), grp)
    assert len(X) == 300
    check_against_pairwise_routes(X, (0.25, 0.5))


# ---------------------------------------------------------------------------
# charsum_table
# ---------------------------------------------------------------------------

def direct_route_only(mp, order):
    """The FFT route past the element budget (order - 1), the direct route's
    cost within WORK_FACTOR times it."""
    mp.setenv("ADDEXT_BUDGET", str(order - 1))
    mp.setattr(sources, "WORK_FACTOR", 1 << 40)


def test_charsum_table_fft_matches_direct():
    rng = random.Random(10)
    for m, size in ((2, 1), (97, 40), (1000, 300), (4001, 2401), (65521, 500)):
        values = [rng.randrange(m) for _ in range(size)]  # a multiset
        freqs = list(range(m)) if m <= 4001 else sorted(rng.sample(range(m), 400))
        fft = an.charsum_table(values, m, freqs)          # m <= |freqs| |values|
        with pytest.MonkeyPatch.context() as mp:
            direct_route_only(mp, m)
            direct = an.charsum_table(values, m, freqs)
        assert np.abs(fft - direct).max() < 1e-12
        assert np.abs(direct - charsum_per_frequency(values, m, freqs)).max() < 1e-12


def test_additive_charsum_matches_per_frequency_sum():
    rng = random.Random(11)
    grp = Group.zn(CrtSystem.make([5, 7, 11]))
    els = rng.sample(range(385), 50)
    X = build_source(ExplicitSpec(tuple(els)), grp)
    for a in (0, 1, 77, 384, -3):
        assert abs(an.additive_charsum(X, a)
                   - charsum_per_frequency(els, 385, [a % 385])[0]) < 1e-12
    vecs = [(rng.randrange(7), rng.randrange(7)) for _ in range(60)]
    V = build_source(ExplicitSpec(tuple(vecs)), Group.zp_vec(7, 2))
    for a in ((0, 0), (1, 0), (3, 5)):
        dots = [(a[0] * x + a[1] * y) % 7 for x, y in V.elements]
        assert abs(an.additive_charsum(V, a) - charsum_per_frequency(dots, 7, [1])[0]) < 1e-12


def test_cli_charsum_matches_per_frequency_sum(tmp_path):
    rng = random.Random(12)
    els = sorted(rng.sample(range(4001), 300))
    src_path = tmp_path / "src.json"
    src_path.write_text(canonical_json({"group": {"kind": "zp", "p": 4001},
                                        "spec": {"variant": "explicit", "elements": els}}))
    for chars, freqs in (("all", range(1, 4001)), ("0:7", range(7))):
        out = tmp_path / "c.csv"
        assert main(["charsum", "--source", str(src_path), "--characters", chars,
                     "--out", str(out)]) == 0
        rows = list(csv.reader(open(out)))[1:]
        assert [int(r[0]) for r in rows] == list(freqs)
        want = charsum_per_frequency(els, 4001, freqs)
        assert np.abs(np.array([float(r[1]) for r in rows]) - want).max() < 1e-12


# ---------------------------------------------------------------------------
# charsum_table over Z_p^n
# ---------------------------------------------------------------------------

def test_charsum_table_fftn_matches_per_frequency():
    rng = random.Random(13)
    for p, n, size in ((2, 1, 1), (3, 3, 10), (7, 2, 30), (11, 3, 200), (101, 2, 500)):
        grp = Group.zp_vec(p, n)
        X = build_source(ExplicitSpec(tuple(
            tuple(rng.randrange(p) for _ in range(n)) for _ in range(size))), grp)
        idx = list(range(grp.order)) if grp.order <= 2000 else rng.sample(range(grp.order), 2000)
        freqs = grp.from_digits(to_digits(idx, *grp.zmn))
        digits = grp.digits(X.elements)
        fft = an.charsum_table(digits, p, idx)            # p^n <= |idx| |X|
        with pytest.MonkeyPatch.context() as mp:
            direct_route_only(mp, grp.order)
            direct = an.charsum_table(digits, p, idx)
            one_by_one = [an.additive_charsum(X, f) for f in freqs]
        assert direct.tolist() == one_by_one
        assert np.abs(fft - direct).max() < 1e-12
        dots = [[sum(a * x for a, x in zip(f, v)) % p for v in X.elements] for f in freqs[:50]]
        want = [charsum_per_frequency(d, p, [1])[0] for d in dots]
        assert np.abs(fft[:50] - want).max() < 1e-12


def test_charsum_table_over_vectors_exact_above_int64_products():
    # (p - 1)^2 >= 2^63, so <a, y> mod p is summed in Python integers
    p = (1 << 61) - 1
    rng = random.Random(16)
    rows = [(rng.randrange(p), rng.randrange(p)) for _ in range(40)]
    indices = [rng.randrange(p * p) for _ in range(5)]
    got = an.charsum_table(rows, p, indices)
    for i, value in zip(indices, got):
        a0, a1 = i % p, i // p
        want = abs(sum(np.exp(2j * np.pi * ((a0 * y0 + a1 * y1) % p) / p)
                       for y0, y1 in rows)) / len(rows)
        assert abs(value - want) < 1e-9


@pytest.mark.parametrize("chunk", [1, 160, 320, 484, 1 << 16])
def test_charsum_table_direct_route_matches_the_oracle_across_chunk_edges(monkeypatch, chunk):
    # 40 elements: chunks of max(1, chunk // 4 // 40) frequencies, so 1, 1, 2,
    # 3 (the last chunk of one) and all of them; the sums equal the
    # one-frequency oracle to the bit
    monkeypatch.setattr(an, "BOHR_CHUNK", chunk)
    rng = random.Random(17)
    p = 2**31 - 1                                 # above the element budget
    values = [rng.randrange(p) for _ in range(40)]
    freqs = [rng.randrange(p) for _ in range(7)] + [0, 1, p - 1]
    assert an.charsum_table(values, p, freqs).tolist() == \
        charsum_per_frequency(values, p, freqs).tolist()
    # (p - 1)^2 >= 2^63: <a, y> mod p over Z_p^2 in Python integers
    p = (1 << 61) - 1
    rows = [(rng.randrange(p), rng.randrange(p)) for _ in range(40)]
    indices = [rng.randrange(p * p) for _ in range(5)] + [0, p * p - 1]
    dots = [[(i % p * y0 + i // p * y1) % p for y0, y1 in rows] for i in indices]
    assert an.charsum_table(rows, p, indices).tolist() == \
        [charsum_per_frequency(d, p, [1])[0] for d in dots]


def test_charsum_table_refuses_a_direct_route_past_its_cost(monkeypatch):
    # |frequencies| |values| N steps against WORK_FACTOR x the element budget
    monkeypatch.setenv("ADDEXT_BUDGET", "100")
    values, freqs = list(range(1, 41)), range(2560)  # 102,400 steps: 1000 x 100 is the bound
    monkeypatch.setattr(sources, "WORK_FACTOR", 1000)
    with pytest.raises(BudgetError, match="past 1000 x the element budget 100"):
        an.charsum_table(values, 1009, freqs)
    assert len(an.charsum_table(values, 1009, freqs[:2500])) == 2500
    # where (m - 1)^2 >= 2^63 each entry is a product of Python ints, PY_INT steps
    big = (1 << 61) - 1
    assert sources.PY_INT == 128
    with pytest.raises(BudgetError, match="past 1000 x the element budget 100"):
        an.charsum_table(values, big, range(20))  # 20 x 40 x 128 = 102,400 steps
    assert len(an.charsum_table(values, big, range(19))) == 19


def test_cli_charsum_over_vectors_matches_per_frequency_sum(tmp_path):
    rng = random.Random(14)
    grp = Group.zp_vec(13, 2)
    els = [[rng.randrange(13), rng.randrange(13)] for _ in range(60)]
    src_path = tmp_path / "src.json"
    src_path.write_text(canonical_json({"group": {"kind": "zp_vec", "p": 13, "n": 2},
                                        "spec": {"variant": "explicit", "elements": els}}))
    X = build_source(ExplicitSpec(tuple(map(tuple, els))), grp)
    for chars, idx in (("all", range(1, 169)), ("5:9", range(5, 9))):
        out = tmp_path / "c.csv"
        assert main(["charsum", "--source", str(src_path), "--characters", chars,
                     "--out", str(out)]) == 0
        rows = list(csv.reader(open(out)))[1:]
        freqs = grp.from_digits(to_digits(idx, *grp.zmn))
        assert [tuple(json.loads(r[0])) for r in rows] == freqs
        want = [an.additive_charsum(X, f) for f in freqs]
        assert np.abs(np.array([float(r[1]) for r in rows]) - want).max() < 1e-12
    fq_path = tmp_path / "fq.json"                # additive characters over F_q^n: none
    fq_path.write_text(canonical_json({"group": {"kind": "fq_vec", "p": 2, "k": 2, "n": 2},
                                       "spec": {"variant": "explicit", "elements": [[1, 2]]}}))
    assert main(["charsum", "--source", str(fq_path), "--out", str(tmp_path / "f.csv")]) == 2


def test_cli_charsum_writes_rows_in_chunks_after_one_table(tmp_path, monkeypatch):
    rng = random.Random(15)
    els = [[rng.randrange(13), rng.randrange(13)] for _ in range(40)]
    src_path = tmp_path / "src.json"
    src_path.write_text(canonical_json({"group": {"kind": "zp_vec", "p": 13, "n": 2},
                                        "spec": {"variant": "explicit", "elements": els}}))
    real, calls = an.charsum_table, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(an, "charsum_table", counted)
    csvs = []
    for chunk in (an.CHARSUM_CHUNK, 5):                # 168 frequencies: 34 chunks, the last of 3
        monkeypatch.setattr(an, "CHARSUM_CHUNK", chunk)
        out = tmp_path / f"c{chunk}.csv"
        assert main(["charsum", "--source", str(src_path), "--out", str(out)]) == 0
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1] and len(calls) == 2
    assert len(csvs[0].splitlines()) == 169


def test_cli_charsum_names_frequencies_on_both_sides_of_2_63(tmp_path):
    p = (1 << 61) - 1                             # Z_p^2 has order about 2^122
    src_path = tmp_path / "src.json"
    src_path.write_text(canonical_json({"group": {"kind": "zp_vec", "p": p, "n": 2},
                                        "spec": {"variant": "explicit",
                                                 "elements": [[1, 2], [3, 4]]}}))
    lo, out = (1 << 63) - 2, tmp_path / "c.csv"
    assert main(["charsum", "--source", str(src_path), "--characters", f"{lo}:{lo + 4}",
                 "--out", str(out)]) == 0
    rows = list(csv.reader(open(out)))[1:]
    assert [tuple(json.loads(r[0])) for r in rows] == [(i % p, i // p) for i in range(lo, lo + 4)]
