"""Differential tests of the two spectral primitives over Z_m:
``sources.cyclic_convolve`` (exact pairwise sum histograms) and
``analysis.charsum_table`` (additive character sums).

The routes these primitives replaced are kept here as oracles: the |X| x |X|
difference matrix of ``sym_set``, the ``np.convolve`` fold of ``moment_sum``,
the |S| x |T| sum matrix of ``paley_double_sum``, the pair matrices of
``suite_transport`` and the one-frequency-at-a-time character sum, which
``additive_charsum`` still runs and which is also the oracle of
``analysis.vector_charsum_table`` (one ``fftn`` over Z_p^n).
"""

import csv
import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addext import analysis as an, numtheory as nt
from addext.canonical import canonical_json
from addext.cli import main
from addext.errors import BudgetError
from addext.numtheory import CrtSystem
from addext.sources import ExplicitSpec, Group, build_source, cyclic_convolve, sym_set


# ---------------------------------------------------------------------------
# oracles: the replaced routes
# ---------------------------------------------------------------------------

def naive_convolve(va, ca, vb, cb, m):
    acc = Counter()
    for a, wa in zip(va, ca):
        for b, wb in zip(vb, cb):
            acc[(int(a) + int(b)) % m] += int(wa) * int(wb)
    return sorted(acc.items())


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


def paley_pair_matrix(p, S, T, index=None):
    if index is None:
        index = (p - 1) // 2
    ind = np.asarray(nt.index_table(p), dtype=np.int64)
    s = np.asarray(sorted(set(S)), dtype=np.int64)
    tt = np.asarray(sorted(set(T)), dtype=np.int64)
    counts = np.bincount(((s[:, None] + tt[None, :]) % p).ravel(), minlength=p)
    u = np.arange(p)
    chi = np.where(u == 0, 0, np.exp(2j * np.pi * (index * ind % (p - 1)) / (p - 1)))
    return abs((counts * chi).sum()) / (len(s) * len(tt))


def charsum_per_frequency(values, m, freqs):
    v = np.asarray(values, dtype=np.int64)
    return np.array([abs(np.exp(2j * np.pi * (int(xi) % m * v % m) / m).sum())
                     for xi in freqs]) / len(values)


def as_pairs(result):
    values, counts = result
    return [(int(v), int(c)) for v, c in zip(values, counts)]


# ---------------------------------------------------------------------------
# cyclic_convolve
# ---------------------------------------------------------------------------

def test_cyclic_convolve_weighted_both_routes(monkeypatch):
    rng = random.Random(5)
    m = 211
    for na, nb in ((3, 7), (14, 15), (40, 90), (211, 211)):
        va = rng.sample(range(m), na)
        vb = rng.sample(range(m), nb)
        ca = [rng.randint(1, 10**4) for _ in va]
        cb = [rng.randint(1, 10**4) for _ in vb]
        want = naive_convolve(va, ca, vb, cb, m)
        assert as_pairs(cyclic_convolve(va, ca, vb, cb, m)) == want
        # with no element budget only the pairs route is left
        monkeypatch.setenv("ADDEXT_BUDGET", "0")
        if na * nb <= m:
            assert as_pairs(cyclic_convolve(va, ca, vb, cb, m)) == want
        else:
            with pytest.raises(BudgetError):
                cyclic_convolve(va, ca, vb, cb, m)
        monkeypatch.delenv("ADDEXT_BUDGET")


def test_cyclic_convolve_duplicates_and_trivial_moduli():
    assert as_pairs(cyclic_convolve([2, 2, 0], [1, 3, 5], [1], [2], 3)) == [(0, 8), (1, 10)]
    assert as_pairs(cyclic_convolve([0] * 4, [1] * 4, [0] * 4, [1] * 4, 1)) == [(0, 16)]
    assert as_pairs(cyclic_convolve([], [], [1, 2], [1, 1], 5)) == []


def test_cyclic_convolve_pairs_route_just_below_2_63():
    m = (1 << 63) - 25
    va = [0, 1, m - 1, m - 2, (1 << 62) + 7]
    vb = [m - 1, m - 3, 1 << 62, 5]
    ca = [1, 2, 3, 4, 5]
    cb = [7, 1, 1, 2]
    assert as_pairs(cyclic_convolve(va, ca, vb, cb, m)) == naive_convolve(va, ca, vb, cb, m)


def test_cyclic_convolve_refuses_what_fits_neither_route():
    m = (1 << 40) + 15
    big = np.arange(8193, dtype=np.int64)
    with pytest.raises(BudgetError):
        cyclic_convolve(big, np.ones(8193, dtype=np.int64), big,
                        np.ones(8193, dtype=np.int64), m)


def test_cyclic_convolve_refuses_an_inexact_fft(monkeypatch):
    real = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: real(*a, **k) + 0.3)
    x = np.arange(20, dtype=np.int64)
    with pytest.raises(BudgetError):
        cyclic_convolve(x, np.ones(20, dtype=np.int64), x, np.ones(20, dtype=np.int64), 101)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 300).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.tuples(st.integers(0, m - 1), st.integers(1, 50)), max_size=25),
    st.lists(st.tuples(st.integers(0, m - 1), st.integers(1, 50)), max_size=25))))
def test_cyclic_convolve_property(case):
    m, a, b = case
    va, ca = [x for x, _ in a], [w for _, w in a]
    vb, cb = [x for x, _ in b], [w for _, w in b]
    got = as_pairs(cyclic_convolve(va, ca, vb, cb, m))
    assert got == naive_convolve(va, ca, vb, cb, m)
    assert [v for v, _ in got] == sorted({v for v, _ in got})


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


def test_paley_double_sum_matches_pair_matrix():
    rng = random.Random(8)
    for p, ns, nt_ in ((101, 5, 9), (499, 40, 60), (1009, 1009, 3)):
        S = rng.sample(range(p), ns)
        T = rng.sample(range(p), nt_)
        for index in (None, 1, 3):
            got = an.paley_double_sum(p, S, T, index)
            assert abs(got - paley_pair_matrix(p, S, T, index)) < 1e-12


def test_transport_additive_counts_match_pair_matrices():
    rng = random.Random(9)
    p = 499
    for size in (2, 20, 300, p):
        X = np.array(sorted(rng.sample(range(p), size)), dtype=np.int64)
        ones = np.ones(size, dtype=np.int64)
        sums = cyclic_convolve(X, ones, X, ones, p)[0]
        assert sums.size == np.unique((X[:, None] + X[None, :]) % p).size
        diffs, counts = cyclic_convolve(X, ones, (p - X) % p, ones, p)
        rep = np.zeros(p, dtype=np.int64)
        rep[diffs] = counts
        assert (rep == diff_counts_matrix(X.tolist(), p)).all()


# ---------------------------------------------------------------------------
# charsum_table
# ---------------------------------------------------------------------------

def test_charsum_table_fft_matches_direct(monkeypatch):
    rng = random.Random(10)
    for m, size in ((2, 1), (97, 40), (1000, 300), (4001, 2401), (65521, 500)):
        values = [rng.randrange(m) for _ in range(size)]  # a multiset
        freqs = list(range(m)) if m <= 4001 else sorted(rng.sample(range(m), 400))
        fft = an.charsum_table(values, m, freqs)          # m <= |freqs| |values|
        monkeypatch.setenv("ADDEXT_BUDGET", "0")          # direct route only
        direct = an.charsum_table(values, m, freqs)
        monkeypatch.delenv("ADDEXT_BUDGET")
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
# vector_charsum_table over Z_p^n
# ---------------------------------------------------------------------------

def test_vector_charsum_table_fftn_matches_per_frequency(monkeypatch):
    rng = random.Random(13)
    real = an.additive_charsum
    for p, n, size in ((2, 1, 1), (3, 3, 10), (7, 2, 30), (11, 3, 200), (101, 2, 500)):
        grp = Group.zp_vec(p, n)
        X = build_source(ExplicitSpec(tuple(
            tuple(rng.randrange(p) for _ in range(n)) for _ in range(size))), grp)
        idx = list(range(grp.order)) if grp.order <= 2000 else rng.sample(range(grp.order), 2000)
        freqs = [grp.element_from_index(i) for i in idx]
        calls = []
        monkeypatch.setattr(an, "additive_charsum",
                            lambda X, a: calls.append(a) or real(X, a))
        fft = an.vector_charsum_table(X, idx)             # p^n <= |idx| |X|
        assert not calls
        monkeypatch.setenv("ADDEXT_BUDGET", "0")          # per-frequency route only
        direct = an.vector_charsum_table(X, idx)
        monkeypatch.delenv("ADDEXT_BUDGET")
        assert calls == freqs
        assert np.abs(fft - direct).max() < 1e-12
        dots = [[sum(a * x for a, x in zip(f, v)) % p for v in X.elements] for f in freqs[:50]]
        want = [charsum_per_frequency(d, p, [1])[0] for d in dots]
        assert np.abs(fft[:50] - want).max() < 1e-12


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
        freqs = [grp.element_from_index(i) for i in idx]
        assert [tuple(json.loads(r[0])) for r in rows] == freqs
        want = [an.additive_charsum(X, f) for f in freqs]
        assert np.abs(np.array([float(r[1]) for r in rows]) - want).max() < 1e-12
    fq_path = tmp_path / "fq.json"                # additive characters over F_q^n: none
    fq_path.write_text(canonical_json({"group": {"kind": "fq_vec", "p": 2, "k": 2, "n": 2},
                                       "spec": {"variant": "explicit", "elements": [[1, 2]]}}))
    assert main(["charsum", "--source", str(fq_path), "--out", str(tmp_path / "f.csv")]) == 2
