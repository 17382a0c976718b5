import numpy as np

from addext import extractors as ex
from addext import suites


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
            bits = [ex.line_extract(
                (f.add(a[0], f.mul(t, d[0])), f.add(a[1], f.mul(t, d[1]))), cfg)
                for t in range(q)]
            worst = max(worst, abs(sum(bits) / q - 0.5))
    scan = suites.scan_all_lines(cfg)
    assert worst <= scan["max_distance"] + 1e-12


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
            dict(line_row, extractor={"build": "line"})]
    r = suites.suite_sweep(grid)
    assert [f["grid_index"] for f in r.failures] == [0, 1, 2, 3, 4, 5]
    assert all(f["error"].startswith("InputError") for f in r.failures)
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
