"""Verification suites: each runs one family of desk-checkable inequalities at
its documented scale and reports per-case rows plus an overall verdict.

Suites whose bounds carry explicit constants assert them (``asserted`` rows
feed the CLI exit code); probes of asymptotic statements with non-effective
constants only report.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import analysis, extractors as ex, gf, numtheory as nt, sources as src
from .analysis import TOL, EvalReport
from .canonical import digest
from .errors import AddextError, BudgetError, InputError


@dataclass
class SuiteResult:
    name: str
    ok: bool
    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    seconds: float = 0.0
    input_errors: int = 0  # sweep rows that raised an input or budget error

    def to_json(self) -> dict:
        return {"suite": self.name, "ok": self.ok, "seconds": self.seconds,
                "notes": self.notes, "failures": self.failures, "rows": self.rows}


def _timer():
    t0 = time.perf_counter()
    return lambda: time.perf_counter() - t0


# ---------------------------------------------------------------------------
# complete and partial exponential sums
# ---------------------------------------------------------------------------

def _random_poly_batch(rng: np.random.Generator, count: int, p: int,
                       dmin: int, dmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient matrix (count, dmax+1), low degree first, leading coef != 0."""
    degs = rng.integers(dmin, dmax + 1, size=count)
    coeffs = rng.integers(0, p, size=(count, dmax + 1))
    for i, d in enumerate(degs):
        coeffs[i, d] = rng.integers(1, p)
        coeffs[i, d + 1:] = 0
    return coeffs, degs


def suite_weil(primes=None, polys_per_p: int = 500, dmin: int = 2, dmax: int = 10,
               seed: int = 101) -> SuiteResult:
    """|sum_t e_p(f(t))| <= deg(f) sqrt(p) for seeded random polynomials."""
    elapsed = _timer()
    if primes is None:
        primes = [p for p in nt.primes_upto(199) if p >= 11]
    rng = np.random.default_rng(seed)
    res = SuiteResult("weil", True)
    for p in primes:
        coeffs, degs = _random_poly_batch(rng, polys_per_p, p, dmin, dmax)
        vals = analysis.poly_eval_all(coeffs, p)
        sums = np.abs(np.exp(2j * np.pi * vals / p).sum(axis=1))
        bounds = degs * math.sqrt(p)
        bad = np.nonzero(sums > bounds + TOL)[0]
        res.rows.append({"p": p, "polys": polys_per_p,
                         "max_ratio": float((sums / bounds).max())})
        for i in bad:
            res.failures.append({"p": p, "coeffs": coeffs[i].tolist(),
                                 "sum": float(sums[i]), "bound": float(bounds[i])})
    res.ok = not res.failures
    res.seconds = elapsed()
    return res


def suite_partial_ap(primes=(101, 199, 499), polys_per_p: int = 100, dmin: int = 2,
                     dmax: int = 6, a_per_poly: int = 20, seed: int = 102) -> SuiteResult:
    """Prefix sums of e_p(a f(t)) over every 1 <= s <= p against
    4 log2(p) sqrt(p) deg(f)."""
    elapsed = _timer()
    rng = np.random.default_rng(seed)
    res = SuiteResult("partial-ap", True)
    for p in primes:
        coeffs, degs = _random_poly_batch(rng, polys_per_p, p, dmin, dmax)
        vals = analysis.poly_eval_all(coeffs, p)
        worst = 0.0
        for i in range(polys_per_p):
            a_vals = 1 + rng.choice(p - 1, size=min(a_per_poly, p - 1), replace=False)
            prod = (a_vals[:, None] * vals[i][None, :]) % p
            pref = np.abs(np.cumsum(np.exp(2j * np.pi * prod / p), axis=1)).max()
            bound = 4 * math.log2(p) * math.sqrt(p) * degs[i]
            worst = max(worst, float(pref / bound))
            if pref > bound + TOL:
                res.failures.append({"p": p, "coeffs": coeffs[i].tolist(),
                                     "max_prefix": float(pref), "bound": bound})
        res.rows.append({"p": p, "max_ratio": worst})
    res.ok = not res.failures
    res.seconds = elapsed()
    return res


def suite_l1(pmax: int = 499) -> SuiteResult:
    """L1 Fourier norm of every interval {0..s-1} in Z_p against 4 log2 p."""
    elapsed = _timer()
    res = SuiteResult("l1", True)
    for p in nt.primes_upto(pmax):
        vals = analysis.fourier_l1_interval(p, np.arange(1, p + 1))
        bound = 4 * math.log2(p)
        for i in np.nonzero(vals > bound + TOL)[0]:
            res.failures.append({"p": p, "s": int(i) + 1, "l1": float(vals[i]),
                                 "bound": bound})
        res.rows.append({"p": p, "max_l1": float(vals.max()), "bound": bound})
    res.ok = not res.failures
    res.seconds = elapsed()
    return res


def suite_xor(moduli=(15, 21, 33, 35, 105, 231, 1155)) -> SuiteResult:
    """|sigma(U_N) - U_M| <= 2M/N for every M < N coprime to N, exactly."""
    elapsed = _timer()
    res = SuiteResult("xor", True)
    for N in moduli:
        worst = Fraction(0)
        count = 0
        for M in range(1, N):
            if math.gcd(M, N) != 1:
                continue
            count += 1
            dist, bound, ok = analysis.xor_residual_check(N, M)
            worst = max(worst, dist / bound)
            if not ok:
                res.failures.append({"N": N, "M": M, "distance": str(dist),
                                     "bound": str(bound)})
        res.rows.append({"N": N, "cases": count, "max_ratio": float(worst)})
    res.ok = not res.failures
    res.seconds = elapsed()
    return res


# ---------------------------------------------------------------------------
# line extractor scans
# ---------------------------------------------------------------------------

def scan_all_lines(cfg: ex.LineExtractorConfig) -> dict:
    """Exhaustive scan over all affine lines of F_q^2: per-line character sums
    and 1-bit output distances of the block-norm extractor.

    Returns max normalized character sum, max distance, and line counts.
    """
    if cfg.n != 2:
        raise InputError("exhaustive line scan implemented for n = 2")
    f = cfg.field
    q = f.order
    if q * q > src.DEFAULT_PAIR_BUDGET:
        raise BudgetError(f"q^2 = {q * q} pairs exceed the pair budget for line tables")
    # dense tables by gf's batch digit arithmetic: sums and products of all
    # q^2 pairs, and u^b for the size-b second block (only its first
    # coordinate is set when n = 2)
    d = gf.to_digits(f, np.arange(q))
    add = gf.from_digits(f, (d[:, None, :] + d[None, :, :]) % f.p)
    mul = gf.from_digits(f, gf.mul_many(f, np.repeat(d, q, axis=0),
                                        np.tile(d, (q, 1)))).reshape(q, q)
    powb = gf.from_digits(f, gf.pow_many(f, d, cfg.blocks[1].size))
    t = np.arange(q, dtype=np.int64)
    even = cfg.variant == "additive_trace"
    if even:
        tr = np.array([gf.trace_to_f2(f, u) for u in range(q)], dtype=np.int64)
        # psi_beta(u) = (-1)^Tr(beta u) for every nontrivial beta
        psi = (-1.0) ** tr[mul[1:, :]]
    else:
        chi = np.array([gf.fq_quadratic_character(f, u) for u in range(q)], dtype=np.int64)
    max_charsum = 0.0
    max_distance = 0.0
    lines = 0
    spot: list = []
    directions = [(1, c) for c in range(q)] + [(0, 1)]
    for d0, d1 in directions:
        if d0:
            x0 = np.broadcast_to(mul[d0, t][None, :], (q, q))
            x1 = add[t[:, None], mul[d1, t][None, :]]   # bases (0, b)
        else:
            x0 = np.broadcast_to(t[:, None], (q, q))    # bases (b, 0)
            x1 = np.broadcast_to(mul[d1, t][None, :], (q, q))
        fvals = add[x0, powb[x1]]
        counts = np.zeros((q, q), dtype=np.int64)
        np.add.at(counts, (np.arange(q)[:, None], fvals), 1)
        # the block polynomial is non-constant on every line
        assert int(counts.max()) < q
        if even:
            sums = np.abs(counts @ psi.T)               # (lines, q-1)
            line_max = sums.max(axis=1)
            ones = counts @ tr
            dist = np.abs(ones / q - 0.5)
            # exact identity: 1-bit distance = |sum psi_1(f)| / (2q)
            canonical = np.abs(counts @ ((-1.0) ** tr))
            assert np.allclose(dist, canonical / (2 * q), atol=1e-12)
        else:
            line_max = np.abs(counts @ chi.astype(float))
            neg = counts @ (chi == -1)
            dist = np.abs(neg / q - 0.5)
        max_charsum = max(max_charsum, float(line_max.max()) / q)
        max_distance = max(max_distance, float(dist.max()))
        lines += q
        if len(spot) < 3:
            spot.append(((d0, d1), int(t[len(spot)]), fvals[len(spot)].copy()))
    # cross-route: spot-check bulk values against pointwise evaluation
    for (d0, d1), b, row in spot:
        a = (0, b) if d0 else (b, 0)
        for tv in range(0, q, max(1, q // 7)):
            point = (f.add(a[0], f.mul(d0, tv)), f.add(a[1], f.mul(d1, tv)))
            assert ex.line_poly_eval(point, cfg) == row[tv]
    n = cfg.n
    return {"q": q, "lines": lines, "max_charsum": max_charsum,
            "max_distance": max_distance,
            "charsum_bound": 4 * math.sqrt(n / q), "distance_bound": 4 * math.sqrt(n / q)}


def suite_lines(qs=(9, 16, 25, 49, 64)) -> SuiteResult:
    """Exhaustive line-extractor bounds over F_q^2: normalized line sums and
    1-bit distances against 4 sqrt(n/q), n = 2."""
    elapsed = _timer()
    res = SuiteResult("lines", True)
    for q in qs:
        cfg = ex.build_line_extractor(q, 2)
        row = scan_all_lines(cfg)
        res.rows.append(row)
        if row["max_charsum"] > row["charsum_bound"] + TOL:
            res.failures.append({"q": q, "kind": "charsum", **row})
        if row["max_distance"] > row["distance_bound"] + TOL:
            res.failures.append({"q": q, "kind": "distance", **row})
    res.ok = not res.failures
    res.seconds = elapsed()
    return res


# ---------------------------------------------------------------------------
# GAP and Bohr structure
# ---------------------------------------------------------------------------

def suite_gap_profile(primes=(101, 499, 1009), dims=(1, 2), sides=(8, 16, 32),
                      gaps_per_case: int = 25, seed: int = 106) -> SuiteResult:
    """Proper GAPs: |X+X| <= 2^r |X|; the homogeneous sub-GAP of side
    ceil(s^0.1) has >= |X|^0.1 elements, each with rep >= |X| (1 - r/s^0.9)."""
    elapsed = _timer()
    rng = random.Random(seed)
    res = SuiteResult("gap-profile", True)
    for p in primes:
        grp = src.Group.zp(p)
        for r in dims:
            for s in sides:
                if s**r >= p:
                    continue
                built = 0
                attempts = 0
                while built < gaps_per_case and attempts < 200 * gaps_per_case:
                    attempts += 1
                    spec = src.GapSpec(rng.randrange(p),
                                       tuple(rng.randrange(1, p) for _ in range(r)), s)
                    X = src.build_source(spec, grp)
                    if not X.notes["proper"]:
                        continue
                    built += 1
                    size = len(X)
                    dbl = src.doubling(X)
                    side = math.ceil(s**0.1)
                    sub = src.sub_gap(spec, grp, side)
                    rep_min = min(src.rep_count(X, x) for x in sub)
                    rep_bound = size * (1 - r / s**0.9)
                    checks = {
                        "doubling": dbl <= 2**r * size,
                        "sub_gap_size": len(sub) >= size**0.1 - TOL,
                        "rep": rep_min + TOL >= rep_bound,
                    }
                    if not all(checks.values()):
                        res.failures.append({"p": p, "r": r, "s": s,
                                             "spec": src.spec_to_json(spec),
                                             "checks": checks})
                res.rows.append({"p": p, "r": r, "s": s, "gaps": built,
                                 "attempts": attempts})
                if built < gaps_per_case:
                    res.failures.append({"p": p, "r": r, "s": s,
                                         "error": "could not seed enough proper GAPs"})
    res.ok = not res.failures
    res.seconds = elapsed()
    return res


def _bohr_vmax(p: int, rho: Fraction) -> int:
    """Largest v with v/p < rho (v = distance-to-0 of the residue); -1 if none."""
    return min((rho.numerator * p - 1) // rho.denominator, p - 1)


def suite_bohr(pmax: int = 499, rhos=(0.1, 0.2, 0.3),
               literal_pmax: int = 61) -> SuiteResult:
    """Bohr-set bounds in Z_p, exhaustive over rank <= 2 frequency sets up to
    the exact dilation equivalence Bohr({c1,c2}, rho) = c1^{-1} Bohr({1, c2/c1}, rho)
    (verified literally for p <= literal_pmax): size lower bound rho^|S| p,
    doubling of the radius, and the symmetry witnesses at kappa = 1/(200|S|)."""
    elapsed = _timer()
    res = SuiteResult("bohr", True)

    def cond(p: int, rho: Fraction) -> np.ndarray:
        x = np.arange(p)
        v = np.minimum(x, p - x)
        return v <= _bohr_vmax(p, rho)

    for p in nt.primes_upto(pmax):
        x = np.arange(p)
        for rho_f in rhos:
            rho = Fraction(rho_f)
            worst = {"p": p, "rho": rho_f, "cases": 0}
            for d, ratios in ((1, [None]), (2, range(2, p))):
                kappa = Fraction(1, 200 * d)
                conds = {name: cond(p, r) for name, r in
                         (("base", rho), ("double", 2 * rho),
                          ("kap", kappa * rho), ("one_minus", (1 - kappa) * rho))}
                for c in ratios:
                    if c is None:
                        B, B2, Y, Bm = (conds["base"], conds["double"],
                                        conds["kap"], conds["one_minus"])
                    else:
                        perm = (c * x) % p
                        B = conds["base"] & conds["base"][perm]
                        B2 = conds["double"] & conds["double"][perm]
                        Y = conds["kap"] & conds["kap"][perm]
                        Bm = conds["one_minus"] & conds["one_minus"][perm]
                    nB, nB2, nBm = int(B.sum()), int(B2.sum()), int(Bm.sum())
                    ok_lower = Fraction(nB) >= rho**d * p
                    ok_double = nB2 <= 4**d * nB
                    ok_sym = all(int((B & np.roll(B, int(y))).sum()) >= nBm
                                 for y in np.nonzero(Y)[0])
                    worst["cases"] += 1
                    if not (ok_lower and ok_double and ok_sym):
                        res.failures.append({"p": p, "rho": rho_f, "S_rank": d,
                                             "ratio": c, "size": nB,
                                             "lower": ok_lower, "double": ok_double,
                                             "sym": ok_sym})
            res.rows.append(worst)
    # literal enumeration of all frequency sets for small p, against the
    # dilation-reduced computation
    for p in nt.primes_upto(literal_pmax):
        if p < 3:
            continue
        rho = Fraction(rhos[0])
        x = np.arange(p)
        base = cond(p, rho)
        for xi1 in range(1, p):
            s1 = int(base[(xi1 * x) % p].sum())
            if s1 != int(base.sum()):
                res.failures.append({"p": p, "kind": "dilation-rank1", "xi": xi1})
            for xi2 in range(xi1 + 1, p):
                literal = base[(xi1 * x) % p] & base[(xi2 * x) % p]
                c = xi2 * pow(xi1, -1, p) % p
                reduced = base & base[(c * x) % p]
                if int(literal.sum()) != int(reduced.sum()):
                    res.failures.append({"p": p, "kind": "dilation-rank2",
                                         "pair": (xi1, xi2)})
    res.notes["dilation_literal_pmax"] = literal_pmax
    res.ok = not res.failures
    res.seconds = elapsed()
    return res


def suite_cauchy_davenport(primes=(101, 499), trials: int = 10_000,
                           seed: int = 108) -> SuiteResult:
    """|A+A| >= min(2|A|-1, p) for seeded random subsets of Z_p."""
    elapsed = _timer()
    res = SuiteResult("cauchy-davenport", True)
    for p in primes:
        grp = src.Group.zp(p)
        rng = random.Random(seed * 1_000_003 + p)
        for _ in range(trials):
            size = rng.randint(1, p)
            A = rng.sample(range(p), size)
            # elements of range(p) by construction: no build_source validation
            X = src.Source(grp, src.ExplicitSpec(tuple(A)), frozenset(A))
            if src.doubling(X) < min(2 * size - 1, p):
                res.failures.append({"p": p, "A": sorted(A)})
        res.rows.append({"p": p, "trials": trials})
    res.ok = not res.failures
    res.seconds = elapsed()
    return res


# ---------------------------------------------------------------------------
# encoding transport, extractor trend, moments, norms
# ---------------------------------------------------------------------------

def suite_transport(primes=(101, 499), sources_per_p: int = 200, alpha: float = 0.25,
                    seed: int = 109) -> SuiteResult:
    """The subgroup encoding x -> g^x: injectivity, |Y Y| = |X+X|, and exact
    transport of representation counts (hence of every symmetry set)."""
    elapsed = _timer()
    res = SuiteResult("transport", True)
    for p in primes:
        cfg = ex.build_zp_extractor(p, 1)
        q = cfg.q
        gx = np.ones(p, dtype=np.int64)
        for i in range(1, p):
            gx[i] = gx[i - 1] * cfg.g % q
        if len(set(gx.tolist())) != p:
            res.failures.append({"p": p, "error": "encoding not injective"})
            continue
        rng = random.Random(seed * 1_000_003 + p)
        for _ in range(sources_per_p):
            size = rng.randint(2, p)
            X = np.array(sorted(rng.sample(range(p), size)), dtype=np.int64)
            Y = gx[X]
            ones = np.ones(size, dtype=np.int64)
            sum_size = src.cyclic_convolve(X, ones, X, ones, p)[0].size
            prod_size = np.unique((Y[:, None] * Y[None, :]) % q).size
            diffs, counts = src.cyclic_convolve(X, ones, (p - X) % p, ones, p)
            rep_add = np.zeros(p, dtype=np.int64)
            rep_add[diffs] = counts
            Yinv = gx[(p - X) % p]
            rep_mult = np.bincount(((Y[:, None] * Yinv[None, :]) % q).ravel(),
                                   minlength=q)
            transport_ok = bool((rep_add == rep_mult[gx]).all())
            thresh = (1 - alpha) * size
            sym_ok = all(rep_mult[gx[a]] >= thresh
                         for a in np.nonzero(rep_add >= thresh)[0])
            if not (sum_size == prod_size and transport_ok and sym_ok):
                res.failures.append({"p": p, "X": X.tolist(),
                                     "sumset": int(sum_size), "prodset": int(prod_size),
                                     "transport": transport_ok, "sym": sym_ok})
        res.rows.append({"p": p, "q": q, "sources": sources_per_p})
    res.ok = not res.failures
    res.seconds = elapsed()
    return res


def ap_distance_histogram(p: int, s: int, cfg: ex.ZpExtractorConfig) -> np.ndarray:
    """Histogram over ones-counts of the 1-bit extractor across all s-term APs
    (every base b, every step d != 0), via the dilation-to-interval identity:
    the AP (b, d) maps to a length-s window of the d-dilated value sequence."""
    par = np.empty(p, dtype=np.int64)
    cur = 1
    for i in range(p):
        par[i] = cur & 1
        cur = cur * cfg.g % cfg.q
    idx = np.arange(p, dtype=np.int64)
    hist = np.zeros(s + 1, dtype=np.int64)
    for d in range(1, p):
        perm = par[(d * idx) % p]
        ext = np.concatenate([perm, perm[:s]])
        cs = np.concatenate([[0], np.cumsum(ext)])
        wins = cs[s:s + p] - cs[:p]
        hist += np.bincount(wins, minlength=s + 1)
    return hist


def _median_distance_from_hist(hist: np.ndarray, s: int) -> float:
    dists = np.abs(np.arange(s + 1) / s - 0.5)
    order = np.argsort(dists, kind="stable")
    total = hist.sum()
    rank = (total + 1) // 2
    acc = 0
    for c in order:
        acc += hist[c]
        if acc >= rank:
            return float(dists[c])
    return float(dists[order[-1]])


def suite_zp_trend(primes=(101, 499, 1009, 4999), m: int = 1,
                   threshold: float = 0.25) -> SuiteResult:
    """Exhaustive 1-bit distances across all s-APs, s = ceil(p^0.7): the median
    must be non-increasing in p (hard); the final median is compared with the
    threshold (soft; a miss downgrades to a warning with the curve attached)."""
    elapsed = _timer()
    res = SuiteResult("zp-trend", True)
    medians = []
    for p in primes:
        s = math.ceil(p**0.7)
        cfg = ex.build_zp_extractor(p, m)
        hist = ap_distance_histogram(p, s, cfg)
        med = _median_distance_from_hist(hist, s)
        medians.append(med)
        res.rows.append({"p": p, "s": s, "aps": int(hist.sum()), "median_distance": med})
    for a, b in zip(medians, medians[1:]):
        if b > a + TOL:
            res.failures.append({"error": "median not non-increasing",
                                 "medians": medians})
            break
    res.notes["medians"] = medians
    res.notes["threshold"] = threshold
    res.notes["threshold_met"] = medians[-1] < threshold
    if not res.notes["threshold_met"]:
        res.notes["warning"] = ("final median above threshold; curve attached. "
                                "This probe has non-effective constants and the "
                                "threshold miss is not a failure.")
    res.ok = not res.failures
    res.seconds = elapsed()
    return res


def suite_moments(qs=(11, 101), ts=(1, 2, 3), parseval_sets: int = 100,
                  seed: int = 111) -> SuiteResult:
    """Exact moment-sum identities: full multiplicative group value
    ((q-1)^2t + (q-1))/q, and the Parseval case 2t = 2 equals |Y|."""
    elapsed = _timer()
    res = SuiteResult("moments", True)
    for q in qs:
        for t in ts:
            got = analysis.moment_sum(range(1, q), q, t)
            want = ((q - 1)**(2 * t) + (q - 1)) // q
            res.rows.append({"q": q, "t": t, "moment": got, "expected": want})
            if got != want:
                res.failures.append(res.rows[-1])
    rng = random.Random(seed)
    for _ in range(parseval_sets):
        q = 101
        size = rng.randint(1, q)
        Y = rng.sample(range(q), size)
        if analysis.moment_sum(Y, q, 1) != size:
            res.failures.append({"q": q, "Y": sorted(Y), "error": "Parseval"})
    res.rows.append({"parseval_sets": parseval_sets, "q": 101})
    res.ok = not res.failures
    res.seconds = elapsed()
    return res


def suite_norms(qs=(2, 3, 4, 5), kmax: int = 4) -> SuiteResult:
    """Norm forms: exhaustive zero locus and homogeneity for every base field
    order q and degree k <= kmax, with the conjugate-product route as oracle."""
    elapsed = _timer()
    res = SuiteResult("norms", True)
    for q in qs:
        base = ex.prime_power_field(q)
        for k in range(1, kmax + 1):
            extn = gf.get_extension(base, k)
            oracle_stride = 1 if q**k <= 700 else 7
            checked = 0
            for idx in range(q**k):
                coords = []
                v = idx
                for _ in range(k):
                    coords.append(v % q)
                    v //= q
                n1 = gf.norm_poly_eval(extn, coords)
                if (n1 == 0) != (not any(coords)):
                    res.failures.append({"q": q, "k": k, "coords": coords,
                                         "error": "zero locus"})
                if idx % oracle_stride == 0:
                    if n1 != gf.norm_by_conjugates(extn, coords):
                        res.failures.append({"q": q, "k": k, "coords": coords,
                                             "error": "conjugate oracle"})
                for lam in range(1, q):
                    lhs = gf.norm_poly_eval(extn, [base.mul(lam, c) for c in coords])
                    rhs = base.mul(base.pow(lam, k), n1)
                    if lhs != rhs:
                        res.failures.append({"q": q, "k": k, "coords": coords,
                                             "lam": lam, "error": "homogeneity"})
                checked += 1
            res.rows.append({"q": q, "k": k, "points": checked})
    res.ok = not res.failures
    res.seconds = elapsed()
    return res


# ---------------------------------------------------------------------------
# generic sweep
# ---------------------------------------------------------------------------

CHARSUM_SCAN_CAP = 1 << 16


def _row_config(row: dict, group: src.Group):
    """A row's extractor: ``{"build": family, "m": m}``, or a full config that
    must be the one that family builds for the row's group."""
    e = row.get("extractor")
    if e is None:
        raise InputError("the row names no extractor")
    if "variant" in e:
        return ex.config_for_group(e, group)
    unknown = set(e) - {"build", "m"}
    if unknown:
        raise InputError(f"unknown extractor keys {sorted(unknown)}")
    return ex.build_for_group(e["build"], group, int(e.get("m", 1)))


def _encoded_values(cfg, X: src.Source) -> tuple[list[int], int] | None:
    """Encoded multiset and encoding modulus, for configs with an encode stage."""
    if isinstance(cfg, ex.ZpExtractorConfig):
        return [ex.zp_encode(x, cfg) for x in X.sorted_elements], cfg.q
    if isinstance(cfg, ex.ZpnExtractorConfig):
        return [ex.zpn_encode(x, cfg) for x in X.sorted_elements], cfg.q
    return None


def _sweep_point(row: dict) -> EvalReport:
    t0 = time.perf_counter()
    fam = row.get("family")
    if fam is not None:
        rep = _sweep_family(row, fam)
        rep.seconds = time.perf_counter() - t0
        return rep
    group = src.Group.from_json(row["group"])
    spec = src.spec_from_json(row["source"])
    X = src.build_source(spec, group)
    cfg = _row_config(row, group)
    dist = analysis.extractor_distribution(ex.extract_many(cfg, X.sorted_elements),
                                           ex.output_size(cfg))
    distance = analysis.distance_to_uniform(dist)
    enc = _encoded_values(cfg, X)
    max_charsum = None
    per_char = None
    sampled = False
    if enc is not None:
        values, modulus = enc
        if modulus <= CHARSUM_SCAN_CAP:
            freqs = range(1, modulus)
        else:
            rng = random.Random(row.get("charsum_seed", 113))
            freqs = sorted(rng.sample(range(1, modulus), 256))
            sampled = True
        table = analysis.charsum_table(values, modulus, list(freqs))
        max_charsum = float(table.max())
        if row.get("per_character"):
            per_char = [{"xi": int(xi), "value": float(v)}
                        for xi, v in zip(freqs, table)]
    bound, asserted = _sweep_bound(row, cfg, group, spec)
    ok = True if bound is None else distance <= bound + TOL
    rep = EvalReport(
        config_digest=digest(cfg.to_json()), source_digest=X.digest,
        size=len(X), distance=distance, max_charsum=max_charsum, bound=bound,
        ok=ok, asserted=asserted and bound is not None,
        extra={"charsum_sampled": sampled, "outputs": dist.counts},
        per_character=per_char)
    rep.seconds = time.perf_counter() - t0
    return rep


def _sweep_bound(row: dict, cfg, group, spec) -> tuple[float | None, bool]:
    """Variant bound for the report. Bounds with non-effective constants are
    advisory (reported, never asserted)."""
    if isinstance(cfg, ex.LineExtractorConfig):
        return 4 * math.sqrt(cfg.n / cfg.field.order), True
    if isinstance(cfg, ex.ApExtractorConfig) and isinstance(spec, (src.ApSpec, src.HapSpec)):
        p = cfg.p
        return (16 * math.log2(p)**2 * math.sqrt(cfg.n * p)
                * 2**(cfg.m / 2) / spec.k), True
    alpha = row.get("alpha")
    if alpha is not None and isinstance(cfg, (ex.ZpExtractorConfig, ex.ZpnExtractorConfig)):
        if isinstance(cfg, ex.ZpExtractorConfig):
            logsize = math.log2(cfg.p)
        else:
            logsize = cfg.n * math.log2(cfg.p)
        return 3 * float(alpha) * 2**(cfg.m / 2) * logsize, False
    return None, False


def _sweep_family(row: dict, fam: dict) -> EvalReport:
    """An exhaustive family scan. The row's extractor must be the one the scan
    runs: the 1-bit ``zp`` extractor for ``all_aps``, ``line`` for ``all_lines``."""
    kind = fam["kind"]
    if kind == "all_aps":
        p, s = int(fam["p"]), int(fam["s"])
        cfg = _row_config(row, src.Group.zp(p))
        if not isinstance(cfg, ex.ZpExtractorConfig) or cfg.m != 1:
            raise InputError("the all_aps family scan runs the 1-bit zp extractor")
        hist = ap_distance_histogram(p, s, cfg)
        dists = np.abs(np.arange(s + 1) / s - 0.5)
        worst = float(dists[np.nonzero(hist)[0]].max())
        return EvalReport(
            config_digest=digest(cfg.to_json()), source_digest=digest(fam),
            size=int(hist.sum()), distance=worst, max_charsum=None, bound=None,
            ok=True, asserted=False,
            extra={"median_distance": _median_distance_from_hist(hist, s),
                   "family": fam})
    if kind == "all_lines":
        group = src.Group.fq_vec(ex.prime_power_field(int(fam["q"])), int(fam.get("n", 2)))
        cfg = _row_config(row, group)
        row_scan = scan_all_lines(cfg)
        bound = row_scan["charsum_bound"]
        worst = max(row_scan["max_charsum"], row_scan["max_distance"])
        return EvalReport(
            config_digest=digest(cfg.to_json()), source_digest=digest(fam),
            size=row_scan["lines"], distance=row_scan["max_distance"],
            max_charsum=row_scan["max_charsum"], bound=bound,
            ok=worst <= bound + TOL, asserted=True, extra={"family": fam})
    raise InputError(f"unknown family kind {kind!r}")


def suite_sweep(grid_rows: list[dict], threads: int | None = None) -> SuiteResult:
    """Run every grid point in grid order on the calling thread; per-point
    errors are recorded in grid order and the sweep continues; ``input_errors``
    counts those that are an input or budget error.

    ``threads`` is accepted and ignored: the CLI records it in the run
    manifest. Rows run Python code under the interpreter lock, so threads
    would not evaluate them in parallel.
    """
    elapsed = _timer()
    res = SuiteResult("sweep", True)
    for i, row in enumerate(grid_rows):
        try:
            res.rows.append(_sweep_point(row))
        except Exception as exc:  # per-point errors recorded, sweep continues
            res.failures.append({"grid_index": i, "error": f"{type(exc).__name__}: {exc}"})
            res.input_errors += isinstance(exc, AddextError)
    res.ok = not res.failures and all(r.ok for r in res.rows if r.asserted)
    res.seconds = elapsed()
    return res


SUITES = {
    "weil": suite_weil,
    "partial-ap": suite_partial_ap,
    "l1": suite_l1,
    "xor": suite_xor,
    "lines": suite_lines,
    "gap-profile": suite_gap_profile,
    "bohr": suite_bohr,
    "cauchy-davenport": suite_cauchy_davenport,
    "transport": suite_transport,
    "zp-trend": suite_zp_trend,
    "moments": suite_moments,
    "norms": suite_norms,
}
