"""One size gate: ``sources.check_cost`` refuses a run for its size, and
nothing beside it does.

The pairs route of ``cyclic_convolve`` declares its |A||B| sums as held
entries; ``build_for_group`` declares the work of the extension fields of a
``line`` or ``ap`` config before any point is read, and ``extract_many`` that
work with the norms of its points (``extractors.extension_steps``);
``--characters all`` is the range 1:order under the same check as lo:hi. The
old limits beside the gate (a pair budget of 2^26, an extension cap of 2^16
on the base field, and 2^16 frequencies for ``--characters all``) are gone,
so ``line`` and ``ap`` run past p = 2^16 with their outputs checked against
the one-point oracles.
"""

import csv
import json
import random
import time

import pytest

import oracles
from addext import extractors as ex, gf, sources
from addext.cli import main
from addext.errors import BudgetError
from addext.sources import Group

SMALL_BUDGET = str(1 << 16)
P61 = 2**61 - 1


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def refuse(*_args, **_kwargs):
    raise AssertionError("reached past the size gate")


def test_profile_past_the_budget_exits_two_before_any_pair_sum(tmp_path, capsys, monkeypatch):
    # 300^2 = 90,000 pair sums past a budget of 65,536 entries, in a group of
    # order 65537^2: the pairs route used to run unbounded up to 2^26 sums
    spec = write(tmp_path / "random.json", {"group": {"kind": "zp_vec", "p": 65537, "n": 2},
                                            "spec": {"variant": "random", "size": 300, "seed": 3}})
    monkeypatch.setenv("ADDEXT_BUDGET", "65536")
    monkeypatch.setattr(sources, "_digit_sums", refuse)
    assert main(["profile", "--source", spec, "--alpha", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the pairs route for 300 x 300 pair sums, 90000 entries")


def test_line_extension_fields_past_the_budget_exit_two_within_a_second(tmp_path, capsys,
                                                                        monkeypatch):
    # one point of F_4^2500: 49 extension fields of degrees up to 99 over F_4,
    # which used to be built with no declared cost (about 30 s)
    spec = write(tmp_path / "ones.json", {
        "group": {"kind": "fq_vec", "p": 2, "k": 2, "n": 2500},
        "spec": {"variant": "explicit", "elements": [[1] * 2500]}})
    monkeypatch.setenv("ADDEXT_BUDGET", SMALL_BUDGET)
    monkeypatch.setattr(gf, "get_extension", refuse)
    t0 = time.perf_counter()
    assert main(["extract", "--source", spec, "--extractor", "line",
                 "--out", str(tmp_path / "line.csv")]) == 2
    assert time.perf_counter() - t0 < 1
    assert "the line extractor's extension fields" in capsys.readouterr().err


def _points(p, n, count, seed):
    rng = random.Random(seed)
    points = {(0,) * n, (1,) + (0,) * (n - 1), (p - 1,) * n}
    while len(points) < count:
        points.add(tuple(rng.randrange(p) for _ in range(n)))
    return sorted(points)


@pytest.mark.parametrize("family, m", [("ap", 3), ("line", 1)])
def test_ap_and_line_past_2_16_match_the_oracles(tmp_path, family, m):
    # blocks of sizes 2, 3 (ap) and 1, 3 (line) over F_65537^4: the extension
    # fields of degree 3 used to be refused past a base field of 2^16 elements
    points = _points(65537, 4, 40, 4)
    spec = write(tmp_path / "src.json", {"group": {"kind": "zp_vec", "p": 65537, "n": 4},
                                         "spec": {"variant": "explicit", "elements": points}})
    out = tmp_path / f"{family}.csv"
    assert main(["extract", "--source", spec, "--extractor", family, "--m", str(m),
                 "--out", str(out)]) == 0
    cfg = ex.build_for_group(family, Group.zp_vec(65537, 4), m)
    one_point = oracles.ap_extract if family == "ap" else oracles.line_extract
    rows = list(csv.reader(out.open()))[1:]
    assert rows == [[json.dumps(list(x), separators=(",", ":")), str(one_point(x, cfg))]
                    for x in points]


@pytest.mark.parametrize("p", [3037000493, P61])
def test_norms_past_int64_digit_products_match_the_oracles(p):
    # K (p - 1)^2 >= 2^63 for K >= 2 at both primes: the lift, the norm ladder
    # and the way back to F_p take products by 32-bit limbs, and 3037000493 - 1 has
    # no factor 3, so no binomial x^3 + c is irreducible and the search skips them
    points = _points(p, 4, 12, p % 1000)
    for cfg in (ex.build_line_extractor(p, 4), ex.build_ap_extractor(p, 3, 3)):
        one_point = oracles.ap_extract if isinstance(cfg, ex.ApExtractorConfig) \
            else oracles.line_extract
        xs = [x[:cfg.n] for x in points]
        assert ex.extract_many(cfg, xs).tolist() == [one_point(x, cfg) for x in xs]


def test_block_norms_past_the_budget_are_refused_before_any_norm(monkeypatch):
    cfg = ex.build_for_group("line", Group.zp_vec(P61, 4))
    monkeypatch.setenv("ADDEXT_BUDGET", SMALL_BUDGET)
    assert len(ex.extract_many(cfg, _points(P61, 4, 40, 5))) == 40  # within the budget
    monkeypatch.setattr(gf, "norms_many", refuse)
    with pytest.raises(BudgetError, match="block norms of 5000 points"):
        ex.extract_many(cfg, _points(P61, 4, 5000, 6))


@pytest.mark.parametrize("n", [2, 4])
def test_line_output_bits_past_the_budget_exit_two(tmp_path, run_cli_capped, monkeypatch, n):
    # the quadratic character at p = 2^61 - 1 is a ladder of about 120
    # products by 32-bit limbs a point; declared with the norms alone, 2,000 points
    # ran under this budget, over Z_p^2 (no norm form) at any count
    points = _points(P61, n, 2000, 7)
    spec = write(tmp_path / "src.json", {"group": {"kind": "zp_vec", "p": P61, "n": n},
                                         "spec": {"variant": "explicit", "elements": points}})
    out = tmp_path / "line.csv"
    monkeypatch.setenv("ADDEXT_BUDGET", SMALL_BUDGET)
    code, err = run_cli_capped(["extract", "--source", spec, "--extractor", "line",
                                "--out", str(out)], timeout=60)
    assert code == 2 and not out.exists()
    assert "block norms of 2000 points and their outputs" in err and "Traceback" not in err
    monkeypatch.setattr(gf, "quadratic_character_many", refuse)
    cfg = ex.build_for_group("line", Group.zp_vec(P61, n))
    with pytest.raises(BudgetError):
        ex.extract_many(cfg, points)


def test_extension_work_counts_only_blocks_with_a_norm_form():
    # over Z_p^2 the line blocks are {x0} and {x1} padded to size 3, and the
    # ap block {x0} padded to size 2: no extension field is ever built
    for family, n in (("line", 2), ("ap", 1)):
        assert ex.extension_steps(ex.build_for_group(family, Group.zp_vec(P61, n)), 10**6) == 0
    assert ex.extension_steps(ex.build_for_group("line", Group.zp_vec(P61, 3)), 1) > 0


@pytest.mark.parametrize("p, k", [(3, 4), (3, 8), (7, 4), (7, 8), (11, 8), (13, 8), (5, 9),
                                  (13, 9), (31, 5), (31, 10), (101, 4), (2, 9)])
def test_skipping_the_binomials_keeps_the_least_irreducible(p, k):
    # x^k - a is irreducible only if every prime factor of k divides p - 1 and
    # p = 1 (mod 4) where 4 | k; here every binomial is reducible, or some is
    irreducible_binomial = any(oracles.is_irreducible_by_frobenius((c,) + (0,) * (k - 1) + (1,), p)
                               for c in range(p))
    rule = all((p - 1) % r == 0 for r in (2, 3, 5, 7) if k % r == 0) and (k % 4 or p % 4 == 1)
    assert irreducible_binomial == bool(rule)
    assert gf.find_irreducible(p, k) == oracles.find_irreducible_by_scan(p, k)


def test_a_search_past_every_binomial_at_a_large_prime_ends():
    # 2^31 - 1 = 3 (mod 4): no binomial of degree 4 is irreducible, and the
    # scan through all 2^31 of them never ended
    p = 2**31 - 1
    f = gf.find_irreducible(p, 4)
    assert any(f[1:4]) and oracles.is_irreducible_by_frobenius(f, p)


def test_charsum_all_is_the_range_1_to_order(tmp_path):
    # Z_65537 is past the old 2^16 cap of --characters all
    rng = random.Random(7)
    spec = write(tmp_path / "src.json", {"group": {"kind": "zp", "p": 65537},
                                         "spec": {"variant": "explicit",
                                                  "elements": rng.sample(range(65537), 50)}})
    outs = [tmp_path / "all.csv", tmp_path / "range.csv"]
    for chars, out in zip(("all", "1:65537"), outs):
        assert main(["charsum", "--source", spec, "--characters", chars, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert len(outs[0].read_text().splitlines()) == 65537


def test_a_random_source_declares_its_digit_work(tmp_path, run_cli_capped):
    # 3 indices of Z_5^(2^20), of 2.4 M bits each, which to_digits divides
    # 2^20 times: declared with only its 3 held entries, the draw ran past 20 s
    spec = write(tmp_path / "random.json", {"group": {"kind": "zp_vec", "p": 5, "n": 1 << 20},
                                            "spec": {"variant": "random", "size": 3, "seed": 1}})
    out = tmp_path / "out.json"
    t0 = time.perf_counter()
    code, err = run_cli_capped(["build-source", "--spec", spec, "--out", str(out)], timeout=60)
    assert (code, time.perf_counter() - t0 < 5) == (2, True)
    assert err.startswith("error: a random source, ") and "Traceback" not in err
    assert not out.exists()
