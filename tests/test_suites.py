import math
import random
from fractions import Fraction

import numpy as np
import pytest

from addext import analysis, extractors as ex, gf, numtheory as nt, sources as src
from addext import suites
from addext.canonical import digest
from addext.errors import BudgetError, InputError
import oracles
from oracles import partial_ap_sum_prefix_max


def test_suite_registry_names():
    assert set(suites.SUITES) == {
        "weil", "partial-ap", "l1", "xor", "lines", "gap-profile", "bohr",
        "cauchy-davenport", "transport", "zp-trend", "moments", "norms"}


def test_weil_suite_small():
    r = suites.suite_weil(primes=[11, 13], polys_per_p=60)
    assert r.ok and len(r.rows) == 2
    assert all(row["max_ratio"] <= 1 for row in r.rows)


def test_partial_ap_suite_small():
    r = suites.suite_partial_ap(primes=(101,), polys_per_p=20, a_per_poly=5)
    assert r.ok


def test_l1_suite_small():
    r = suites.suite_l1(pmax=61)
    assert r.ok
    for row in r.rows:
        assert row["max_l1"] <= row["bound"]


def test_xor_suite_small():
    r = suites.suite_xor(moduli=(15, 21))
    assert r.ok
    assert r.rows[0]["cases"] == 8  # phi-like count of coprime M < 15


def test_lines_suite_small():
    r = suites.suite_lines(qs=(4, 9, 16))
    assert r.ok
    for row in r.rows:
        assert row["max_charsum"] <= row["charsum_bound"]
        assert row["lines"] == row["q"] * (row["q"] + 1)


def test_line_scan_matches_pointwise_distances():
    # independent recomputation of per-line output distances for one q
    q = 9
    cfg = ex.build_line_extractor(q, 2)
    f = cfg.field
    worst = 0.0
    for d in [(1, 0), (1, 1), (0, 1), (1, 5)]:
        for b in range(q):
            a = (0, b) if d[0] else (b, 0)
            bits = [oracles.line_extract(
                (oracles.fq_add(f, a[0], oracles.fq_mul(f, t, d[0])),
                 oracles.fq_add(f, a[1], oracles.fq_mul(f, t, d[1]))), cfg)
                for t in range(q)]
            worst = max(worst, abs(sum(bits) / q - 0.5))
    scan = suites.scan_all_lines(cfg)
    assert worst <= scan["max_distance"] + 1e-12


def _all_lines_row(q):
    return {"family": {"kind": "all_lines", "q": q, "n": 2}, "extractor": {"build": "line"}}


def test_lines_refuses_tables_over_the_element_budget():
    with pytest.raises(BudgetError, match="element budget"):   # 10 * 8209^2 > 2^26 entries
        suites.suite_lines(qs=[8209])
    error = suites.suite_sweep([_all_lines_row(8209)]).failures[0]["error"]
    assert error.startswith("BudgetError") and "element budget" in error


def test_lines_budgets_all_its_tables_before_the_first(monkeypatch):
    # q^2 <= 2^26 for each refused q, but not LINE_SCAN_TABLES q^2; with the
    # work bound lifted, the tables alone decide, on both routes to the scan
    monkeypatch.setattr(src, "WORK_FACTOR", 1 << 40)

    def first_table(*args):
        raise RuntimeError("first table")
    monkeypatch.setattr(nt, "to_digits", first_table)
    for qs in ([2591], [4096], [8192], [256, 4096]):
        with pytest.raises(BudgetError, match="element budget"):
            suites.suite_lines(qs=qs)
    errors = [f["error"] for f in suites.suite_sweep(
        [_all_lines_row(q) for q in (2591, 4096, 8192)]).failures]
    assert len(errors) == 3
    assert all(e.startswith("BudgetError") and "element budget" in e for e in errors)
    with pytest.raises(RuntimeError, match="first table"):
        suites.suite_lines(qs=[2579])
    assert suites.suite_sweep([_all_lines_row(2579)]).failures[0]["error"] == \
        "RuntimeError: first table"


@pytest.mark.parametrize("q", [4, 9, 16, 27])
def test_scan_all_lines_catches_one_wrong_product(monkeypatch, q):
    # the spot lines' first coordinates are 1 * t
    t = max(1, q // 7)
    real = gf.mul_table

    def one_wrong(spec):
        table = real(spec)
        table[1, t] = (table[1, t] + 1) % q
        return table
    cfg = ex.build_line_extractor(q, 2)
    assert suites.scan_all_lines(cfg)["lines"] == q * (q + 1)
    monkeypatch.setattr(gf, "mul_table", one_wrong)
    with pytest.raises(AssertionError, match="disagree with the block polynomial"):
        suites.scan_all_lines(cfg)


def test_gap_profile_suite_small():
    r = suites.suite_gap_profile(primes=(101,), dims=(1, 2), sides=(8,),
                                 gaps_per_case=5)
    assert r.ok and not r.failures


def test_bohr_suite_small():
    r = suites.suite_bohr(pmax=61, literal_pmax=13)
    assert r.ok
    assert sum(row["cases"] for row in r.rows) > 0


def test_cauchy_davenport_suite_small():
    r = suites.suite_cauchy_davenport(primes=(101,), trials=500)
    assert r.ok


def test_transport_suite_small():
    r = suites.suite_transport(primes=(101,), sources_per_p=20)
    assert r.ok


def test_zp_trend_monotonicity_small():
    r = suites.suite_zp_trend(primes=(101, 499))
    assert r.ok
    meds = r.notes["medians"]
    assert meds[0] >= meds[1]


def test_ap_distance_histogram_matches_direct_enumeration():
    p, s = 101, 26
    cfg = ex.build_zp_extractor(p, 1)
    hist = suites.ap_distance_histogram(p, s, cfg)
    assert int(hist.sum()) == p * (p - 1)
    # direct check for a few (b, d)
    direct = np.zeros(s + 1, dtype=int)
    for d in (1, 2, 57):
        for b in range(p):
            ones = sum(ex.zp_extract((b + j * d) % p, cfg) for j in range(s))
            direct[ones] += 1
    # the directly-counted triples are a sub-multiset of the histogram
    assert (direct <= hist).all()
    # and for d=1 the window identity is exact: recompute full d=1 slice
    par = np.array([ex.zp_extract(x, cfg) for x in range(p)])
    d1 = np.zeros(s + 1, dtype=int)
    for b in range(p):
        d1[par[np.arange(b, b + s) % p].sum()] += 1
    hist_d1 = np.zeros(s + 1, dtype=int)
    perm = par  # d = 1 permutation is the identity
    ext = np.concatenate([perm, perm[:s]])
    cs = np.concatenate([[0], np.cumsum(ext)])
    wins = cs[s:s + p] - cs[:p]
    hist_d1 += np.bincount(wins, minlength=s + 1)
    assert (hist_d1 == d1).all()


def test_moments_suite():
    r = suites.suite_moments(parseval_sets=10)
    assert r.ok


def test_norms_suite_small():
    r = suites.suite_norms(qs=(2, 3), kmax=3)
    assert r.ok


def test_sweep_single_sources_and_families():
    grid = [
        {"group": {"kind": "zp", "p": 11},
         "source": {"variant": "explicit", "elements": [3]},
         "extractor": {"build": "zp", "m": 1}},
        {"group": {"kind": "zp", "p": 5},
         "source": {"variant": "explicit", "elements": [0, 1, 2, 3, 4]},
         "extractor": {"build": "zp", "m": 1}, "alpha": 0.5,
         "per_character": True},
        {"family": {"kind": "all_aps", "p": 101, "s": 30},
         "extractor": {"build": "zp", "m": 1}},
        {"family": {"kind": "all_lines", "q": 16, "n": 2},
         "extractor": {"build": "line"}},
    ]
    r = suites.suite_sweep(grid)
    assert r.ok and len(r.rows) == 4
    assert abs(r.rows[0].distance - 0.5) < 1e-12   # singleton: 1 - 1/M
    assert abs(r.rows[1].distance - 0.3) < 1e-12
    assert r.rows[1].per_character is not None
    assert not r.rows[1].asserted                   # advisory bound
    assert r.rows[2].size == 101 * 100
    assert "median_distance" in r.rows[2].extra
    assert r.rows[3].asserted and r.rows[3].ok


def test_sweep_records_point_errors_and_continues():
    grid = [
        {"group": {"kind": "zp", "p": 4},
         "source": {"variant": "explicit", "elements": [0]},
         "extractor": {"build": "zp", "m": 1}},
        {"group": {"kind": "zp", "p": 11},
         "source": {"variant": "explicit", "elements": [1, 2]},
         "extractor": {"build": "zp", "m": 1}},
    ]
    r = suites.suite_sweep(grid)
    assert not r.ok
    assert len(r.failures) == 1 and r.failures[0]["grid_index"] == 0
    assert len(r.rows) == 1


def test_sweep_extractor_must_fit_the_group():
    row = {"group": {"kind": "zp", "p": 11},
           "source": {"variant": "explicit", "elements": [1, 2]}}
    grid = [dict(row, extractor={"build": "zp", "m": 1, "p": 13}),
            dict(row, extractor=ex.build_zp_extractor(13, 1).to_json()),
            dict(row, extractor={"build": "zpn"}),
            dict(row, extractor=ex.build_zp_extractor(11, 1).to_json())]
    r = suites.suite_sweep(grid)
    assert [f["grid_index"] for f in r.failures] == [0, 1, 2]
    assert all(f["error"].startswith("InputError") for f in r.failures)
    assert len(r.rows) == 1


def test_sweep_family_rows_check_their_extractor():
    lines = {"kind": "all_lines", "q": 9, "n": 2}
    aps = {"kind": "all_aps", "p": 101, "s": 12}
    line_row = {"group": {"kind": "fq_vec", "p": 3, "k": 2, "n": 2},
                "source": {"variant": "line", "a": [0, 1], "d": [1, 2]}}
    grid = [{"family": lines, "extractor": {"build": "pgc", "m": 3}},
            {"family": lines, "extractor": {"build": "line", "m": 3}},
            {"family": lines},
            {"family": aps, "extractor": {"build": "zp", "m": 2}},
            {"family": aps, "extractor": {"build": "pgc", "m": 1}},
            dict(line_row, extractor={"build": "line", "m": 3}),
            {"family": lines, "extractor": {"build": "line"}},
            {"family": aps, "extractor": {"build": "zp", "m": 1}},
            {"family": lines, "extractor": ex.build_line_extractor(9, 2).to_json()},
            dict(line_row, extractor={"build": "line"}),
            {"family": dict(aps, s=0), "extractor": {"build": "zp", "m": 1}},
            {"family": {"kind": "all_aps", "p": 11, "s": 30}, "extractor": {"build": "zp"}},
            {"family": aps, "extractor": {"build": []}},
            # refused by the element budget before the field is looked for
            {"family": dict(lines, q=10**4299 + 1), "extractor": {"build": "line"}}]
    r = suites.suite_sweep(grid)
    assert [f["grid_index"] for f in r.failures] == [0, 1, 2, 3, 4, 5, 10, 11, 12, 13]
    assert all(f["error"].startswith("InputError") for f in r.failures[:-1])
    assert r.failures[-1]["error"].startswith("BudgetError: suite 'lines'")
    assert len(r.rows) == 4
    assert r.rows[0].config_digest == r.rows[2].config_digest


def test_sweep_empty_and_threaded_determinism():
    assert suites.suite_sweep([]).ok
    grid = [{"group": {"kind": "zp", "p": 11},
             "source": {"variant": "random", "size": 6, "seed": s},
             "extractor": {"build": "zp", "m": 1}} for s in range(6)]
    seq = suites.suite_sweep(grid)
    par = suites.suite_sweep(grid, threads=4)
    assert [r.csv_row()[:6] for r in seq.rows] == [r.csv_row()[:6] for r in par.rows]


def test_sweep_charsum_budget_sampling():
    # q beyond the scan cap: the per-character table is seeded sampling
    grid = [{"group": {"kind": "zp", "p": 10007},
             "source": {"variant": "random", "size": 64, "seed": 3},
             "extractor": {"build": "zp", "m": 1}}]
    r = suites.suite_sweep(grid)
    assert r.ok
    assert r.rows[0].extra["charsum_sampled"]


# ---------------------------------------------------------------------------
# the batched suites against the loops they replaced
# ---------------------------------------------------------------------------

def test_poly_batch_matches_one_lead_draw_per_row():
    def per_row(rng, count, p, dmin, dmax):
        degs = rng.integers(dmin, dmax + 1, size=count)
        coeffs = rng.integers(0, p, size=(count, dmax + 1))
        for i, d in enumerate(degs):
            coeffs[i, d] = rng.integers(1, p)
            coeffs[i, d + 1:] = 0
        return coeffs, degs

    for p in (2, 11, 101, 199, 65537, 2**31 - 1, 2**61 - 1):
        for seed in (0, 101, 7):
            want = per_row(np.random.default_rng(seed), 50, p, 1, 6)
            got = suites._random_poly_batch(np.random.default_rng(seed), 50, p, 1, 6)
            assert (got[0] == want[0]).all() and (got[1] == want[1]).all()


def test_weil_table_equals_exp_of_each_value():
    p = 199
    vals = np.random.default_rng(1).integers(0, p, size=(30, p))
    table = np.exp(2j * np.pi * np.arange(p) / p)
    assert np.array_equal(table[vals], np.exp(2j * np.pi * vals / p))


def test_partial_ap_prefix_maxima_equal_the_per_entry_route(monkeypatch):
    p, polys, a_per_poly, seed = 101, 12, 7, 5
    rng = np.random.default_rng(seed)
    coeffs, _ = suites._random_poly_batch(rng, polys, p, 2, 6)
    want = [max(partial_ap_sum_prefix_max(p, c, a)
                for a in 1 + rng.choice(p - 1, size=a_per_poly, replace=False))
            for c in coeffs]
    # with a tolerance of -inf every polynomial is reported with its maximum
    monkeypatch.setattr(suites, "TOL", -math.inf)
    for block in (analysis.L1_BLOCK_ENTRIES, 3 * p):
        monkeypatch.setattr(analysis, "L1_BLOCK_ENTRIES", block)
        r = suites.suite_partial_ap(primes=(p,), polys_per_p=polys,
                                    a_per_poly=a_per_poly, seed=seed)
        assert [f["max_prefix"] for f in r.failures] == want
        assert [f["coeffs"] for f in r.failures] == coeffs.tolist()


@pytest.mark.parametrize("name, kwargs", [
    ("weil", {"primes": [11, 211, 1009], "polys_per_p": 30, "seed": 3}),
    ("partial-ap", {"primes": [101, 211], "polys_per_p": 9, "a_per_poly": 12, "seed": 3}),
])
def test_poly_suites_do_not_depend_on_the_block_size(monkeypatch, name, kwargs):
    def digest_without_seconds():
        out = suites.SUITES[name](**kwargs).to_json()
        out.pop("seconds")
        return digest(out)

    want = digest_without_seconds()
    # at p = 211 blocks of 2 polynomials and of 2 frequencies a per
    # polynomial; at p = 1009 one polynomial per block
    monkeypatch.setattr(analysis, "L1_BLOCK_ENTRIES", 2 * 211)
    assert digest_without_seconds() == want


def bohr_cases_by_roll(p, rho, d):
    """The per-ratio loop that suites._bohr_cases replaced."""
    x = np.arange(p)
    kappa = Fraction(1, 200 * d)
    conds = [np.minimum(x, p - x) <= src.bohr_vmax(p, r)
             for r in (rho, 2 * rho, kappa * rho, (1 - kappa) * rho)]
    out = []
    for c in ([None] if d == 1 else range(2, p)):
        if c is None:
            B, B2, Y, Bm = conds
        else:
            perm = (c * x) % p
            B, B2, Y, Bm = (m & m[perm] for m in conds)
        nB, nB2, nBm = int(B.sum()), int(B2.sum()), int(Bm.sum())
        out.append((nB, Fraction(nB) >= rho**d * p, nB2 <= 4**d * nB,
                    all(int((B & np.roll(B, int(y))).sum()) >= nBm
                        for y in np.nonzero(Y)[0])))
    return out


@pytest.mark.parametrize("p, rho", [(2, 0.1), (3, 0.3), (61, 0.2), (101, 0.45),
                                    (211, Fraction(3, 10)), (503, 0.95)])
def test_bohr_cases_match_the_per_ratio_roll_loop(p, rho):
    # at p = 503, rho = 0.95 the witness sets hold y = +-1 as well as 0
    rho = Fraction(rho)
    x = np.arange(p)
    for d in (1, 2):
        dil = None if d == 1 else (np.arange(2, p)[:, None] * x) % p
        cases = suites._bohr_cases(p, rho, d, dil)
        got = [(int(n), bool(lo), bool(db), bool(sy)) for n, lo, db, sy in
               zip(cases["size"], cases["lower"], cases["double"], cases["sym"])]
        assert got == bohr_cases_by_roll(p, rho, d)


def cauchy_davenport_sets(p, trials, seed):
    """The documented draw of suite_cauchy_davenport, one trial at a time:
    every size from default_rng([seed, p]), then p keys per trial; the set is
    the x whose key is at most the size-th smallest key."""
    rng = np.random.default_rng([seed, p])
    sizes = rng.integers(1, p + 1, size=trials)
    sets = []
    for size in sizes:
        keys = rng.random(p)
        sets.append(np.flatnonzero(keys <= np.sort(keys)[size - 1]).tolist())
    return sets


def zero_sumsets(monkeypatch):
    # with every sumset reported empty, each trial fails and is reported
    monkeypatch.setattr(src, "convolve_rows", lambda A, B, m: np.zeros_like(A))


def test_cauchy_davenport_matches_per_trial_doubling(monkeypatch):
    p, trials, seed = 101, 300, 3
    grp = src.Group.zp(p)
    drawn = cauchy_davenport_sets(p, trials, seed)
    sizes = [src.doubling(src.Source(grp, src.ExplicitSpec(tuple(A)), frozenset(A)))
             for A in drawn]
    rows = np.zeros((trials, p), dtype=np.int8)
    for i, A in enumerate(drawn):
        rows[i, A] = 1
    assert np.count_nonzero(src.convolve_rows(rows, rows, p), axis=1).tolist() == sizes
    assert suites.suite_cauchy_davenport(primes=(p,), trials=trials, seed=seed).ok
    # the suite drew the same sets in the same order
    zero_sumsets(monkeypatch)
    r = suites.suite_cauchy_davenport(primes=(p,), trials=trials, seed=seed)
    assert r.failures == [{"p": p, "A": A} for A in drawn]


def test_cauchy_davenport_sets_do_not_depend_on_the_chunk(monkeypatch):
    zero_sumsets(monkeypatch)
    for p in (2, 13, 101):
        want = suites.suite_cauchy_davenport(primes=(p,), trials=40, seed=9).failures
        with monkeypatch.context() as mp:
            mp.setattr(src, "CONVOLVE_CHUNK", 3 * p)
            got = suites.suite_cauchy_davenport(primes=(p,), trials=40, seed=9).failures
        assert len(want) == 40 and got == want


def test_cauchy_davenport_draws_sizes_one_and_p(monkeypatch):
    zero_sumsets(monkeypatch)
    for p in (2, 3, 5):
        r = suites.suite_cauchy_davenport(primes=(p,), trials=60, seed=4)
        sizes = {len(f["A"]) for f in r.failures}
        assert {1, p} <= sizes <= set(range(1, p + 1))


def test_cauchy_davenport_rejects_a_composite_modulus():
    with pytest.raises(InputError):
        suites.suite_cauchy_davenport(primes=(100,), trials=3)


def transport_by_unique(primes, sources_per_p, alpha, seed):
    """suite_transport's loop with the np.unique product set and the
    per-element symmetry test it replaced."""
    rows, failures = [], []
    for p in primes:
        cfg = ex.build_zp_extractor(p, 1)
        q = cfg.q
        gx = np.array([pow(cfg.g, i, q) for i in range(p)], dtype=np.int64)
        rng = random.Random(seed * 1_000_003 + p)
        for _ in range(sources_per_p):
            size = rng.randint(2, p)
            X = np.array(sorted(rng.sample(range(p), size)), dtype=np.int64)
            Y = gx[X]
            sum_size = src.cyclic_convolve(X, X, p)[0].size
            prod_size = np.unique((Y[:, None] * Y[None, :]) % q).size
            diffs, counts = src.cyclic_convolve(X, (p - X) % p, p)
            rep_add = np.zeros(p, dtype=np.int64)
            rep_add[diffs] = counts
            Yinv = gx[(p - X) % p]
            rep_mult = np.bincount(((Y[:, None] * Yinv[None, :]) % q).ravel(), minlength=q)
            transport_ok = bool((rep_add == rep_mult[gx]).all())
            thresh = (1 - alpha) * size
            sym_ok = all(rep_mult[gx[a]] >= thresh for a in np.nonzero(rep_add >= thresh)[0])
            if not (sum_size == prod_size and transport_ok and sym_ok):
                failures.append({"p": p, "X": X.tolist()})
        rows.append({"p": p, "q": q, "sources": sources_per_p})
    return rows, failures


@pytest.mark.parametrize("alpha", [0.25, 0.9])
def test_transport_matches_the_unique_product_set(alpha):
    r = suites.suite_transport(primes=(3, 101), sources_per_p=15, alpha=alpha, seed=4)
    assert (r.rows, r.failures) == transport_by_unique((3, 101), 15, alpha, 4)


@pytest.mark.parametrize("p, s", [(2, 1), (3, 2), (5, 4), (11, 6), (101, 26), (211, 43)])
def test_ap_histogram_matches_every_step(p, s):
    cfg = ex.build_zp_extractor(p, 1)
    par = np.array([pow(cfg.g, i, cfg.q) & 1 for i in range(p)], dtype=np.int64)
    idx = np.arange(p)
    want = np.zeros(s + 1, dtype=np.int64)
    for d in range(1, p):   # every step, as before the d <-> -d symmetry
        ext = np.concatenate([par[(d * idx) % p]] * 2)
        want += np.bincount([ext[b:b + s].sum() for b in range(p)], minlength=s + 1)
    assert suites.ap_distance_histogram(p, s, cfg).tolist() == want.tolist()


def norms_by_lambda(qs, kmax):
    """suite_norms' loop: pointwise norm_poly_eval per point and per lambda,
    with the conjugate product at every point."""
    rows, failures = [], []
    for q in qs:
        base = ex.prime_power_field(q)
        for k in range(1, kmax + 1):
            extn = gf.get_extension(base, k)
            for idx in range(q**k):
                coords = [idx // q**j % q for j in range(k)]
                n1 = oracles.norm_poly_eval(extn, coords)
                if (n1 == 0) != (not any(coords)):
                    failures.append({"q": q, "k": k, "coords": coords, "error": "zero locus"})
                if n1 != oracles.norm_by_conjugates(extn, coords):
                    failures.append({"q": q, "k": k, "coords": coords,
                                     "error": "conjugate oracle"})
                for lam in range(1, q):
                    lhs = oracles.norm_poly_eval(extn, [oracles.fq_mul(base, lam, c)
                                                        for c in coords])
                    if lhs != oracles.fq_mul(base, oracles.fq_pow(base, lam, k), n1):
                        failures.append({"q": q, "k": k, "coords": coords, "lam": lam,
                                         "error": "homogeneity"})
            rows.append({"q": q, "k": k, "points": q**k})
    return rows, failures


def test_norms_match_the_per_lambda_loop(monkeypatch):
    r = suites.suite_norms(qs=(2, 3, 4, 5), kmax=3)
    assert r.ok and (r.rows, r.failures) == norms_by_lambda((2, 3, 4, 5), 3)
    # a faulty oracle is reported as by the loop, in the same order
    real_conj, real_batch = oracles.norm_by_conjugates, gf.conjugate_norms_many
    monkeypatch.setattr(oracles, "norm_by_conjugates",
                        lambda e, c: real_conj(e, c) + (sum(c) % 3 == 1))
    monkeypatch.setattr(gf, "conjugate_norms_many",
                        lambda e, c: real_batch(e, c) + (np.sum(c, axis=1) % 3 == 1))
    r = suites.suite_norms(qs=(3, 4), kmax=2)
    assert r.failures and r.failures == norms_by_lambda((3, 4), 2)[1]
    # a faulty norm route is caught by the oracle
    monkeypatch.setattr(gf, "conjugate_norms_many", real_batch)
    real_norms = gf.norms_many
    monkeypatch.setattr(gf, "norms_many", lambda e, c: (real_norms(e, c) + 1) % 3)
    r = suites.suite_norms(qs=(3,), kmax=2)
    assert {"q": 3, "k": 2, "coords": [1, 1], "error": "conjugate oracle"} in r.failures


@pytest.mark.parametrize("d", [1, 2])
def test_bohr_window_overlaps_match_convolve_rows(d):
    # at p = 1009, rho = 0.3 the rank-1 witness window holds y = 0 and +-1
    p, rho = 1009, Fraction(3, 10)
    x = np.arange(p)
    dist = np.minimum(x, p - x)
    kappa = Fraction(1, 200 * d)
    dil = None if d == 1 else (np.arange(2, p)[:, None] * x) % p

    def mask(r):
        cond = dist <= src.bohr_vmax(p, r)
        return cond[None, :] if dil is None else cond & cond[dil]

    B, Y, Bm = mask(rho), mask(kappa * rho), mask((1 - kappa) * rho)
    ys = np.flatnonzero(dist <= src.bohr_vmax(p, kappa * rho))
    assert len(ys) == (3 if d == 1 else 1)
    fft = src.convolve_rows(B, B[:, -x % p], p)
    assert np.array_equal(suites._shift_overlaps(B, ys), fft[:, ys])
    # the sym column against the all-y autocorrelation it replaced
    sym = ((fft >= Bm.sum(axis=1)[:, None]) | ~Y).all(axis=1)
    assert np.array_equal(suites._bohr_cases(p, rho, d, dil)["sym"], sym)


def test_shift_overlaps_match_convolve_rows_on_random_rows():
    p = 37
    B = np.random.default_rng(3).integers(0, 2, size=(20, p)).astype(bool)
    x = np.arange(p)
    assert np.array_equal(suites._shift_overlaps(B, x),
                          src.convolve_rows(B, B[:, -x % p], p))
