"""Verification suites: each runs one family of desk-checkable inequalities at
its documented scale and reports per-case rows plus an overall verdict.

Suites whose bounds carry explicit constants assert them (``asserted`` rows
feed the CLI exit code); probes of asymptotic statements with non-effective
constants only report.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import analysis, extractors as ex, gf, numtheory as nt, sources as src
from .analysis import TOL, EvalReport
from .canonical import digest
from .errors import BudgetError, InputError
from .sources import PY_STEP


@dataclass
class SuiteResult:
    name: str
    ok: bool
    rows: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {"suite": self.name, "ok": self.ok, "seconds": self.seconds,
                "notes": self.notes, "failures": self.failures, "rows": self.rows}


class _Check:
    """A suite parameter's declared range: check(value, name) returns the value
    as read (sources.json_int, json_number), or raises InputError outside it."""


@dataclass(frozen=True)
class _Int(_Check):
    """An integer >= lo; a zp prime if ``prime``."""
    lo: int
    prime: bool = False

    def __call__(self, value, name: str) -> int:
        n = src._at_least(self.lo)(value, name)
        if self.prime:
            src.Group.zp(n)
        return n


@dataclass(frozen=True)
class _Number(_Check):
    """A real number strictly between lo and hi, returned as given."""
    lo: float = -math.inf
    hi: float = math.inf

    def __call__(self, value, name: str):
        if not self.lo < src.json_number(value, name) < self.hi:
            raise InputError(f"{name} must be a number in ({self.lo}, {self.hi}), not {value!r}")
        return value


@dataclass(frozen=True)
class _List(_Check):
    """A non-empty list (or tuple) whose every entry passes ``item``."""
    item: _Check

    def __call__(self, value, name: str) -> list:
        if not isinstance(value, (list, tuple)) or not value:
            raise InputError(f"{name} must be a non-empty list, not {value!r}")
        return [self.item(v, f"each of {name}") for v in value]


_PRIME = _Int(2, prime=True)
_PRIMES = _List(_PRIME)


def _suite(*, cost):
    """A suite run. Each parameter is annotated with its _Check; ``cost`` maps
    the arguments to (held, work), the most array entries held at once and the
    total work. ``check`` reads the keyword arguments over the defaults by
    sources.read_object, each parameter by its check (an unknown one is an
    InputError), then the cost by sources.check_cost, the one place a budget
    refusal happens. A run checks first, runs on the values read, is timed into
    ``seconds``, and is not ok with a failure."""
    def declare(fn):
        name = fn.__name__.removeprefix("suite_").replace("_", "-")
        params = inspect.signature(fn).parameters
        annotations = inspect.get_annotations(fn, eval_str=True)
        checks = {param: annotations.get(param) for param in params}
        for param, check in checks.items():
            if not isinstance(check, _Check):
                raise TypeError(f"suite {name!r}: parameter {param!r} declares no check")
        defaults = {param: p.default for param, p in params.items() if p.default is not p.empty}

        def check(**kwargs) -> dict:
            values = src.read_object({**defaults, **kwargs}, f"{name} suite", checks)
            src.check_cost(f"suite {name!r}", *cost(**values))
            return values

        @functools.wraps(fn)
        def run(**kwargs) -> SuiteResult:
            t0 = time.perf_counter()
            res = fn(**check(**kwargs))
            res.ok = not res.failures
            res.seconds = time.perf_counter() - t0
            return res
        run.name, run.checks, run.check = name, checks, check
        return run
    return declare


def _prime_sum(n: int, k: int) -> int:
    """About the sum of p^k over the primes p <= n: n^(k+1) / ((k+1) ln n)."""
    return n ** (k + 1) * 3 // (2 * (k + 1) * n.bit_length())


# ---------------------------------------------------------------------------
# complete and partial exponential sums
# ---------------------------------------------------------------------------

def _random_poly_batch(rng: np.random.Generator, count: int, p: int,
                       dmin: int, dmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient matrix (count, dmax+1), low degree first, leading coef != 0."""
    degs = rng.integers(dmin, dmax + 1, size=count)
    coeffs = rng.integers(0, p, size=(count, dmax + 1))
    # one draw of all leading coefficients: the same stream as one draw per row
    coeffs[np.arange(count), degs] = rng.integers(1, p, size=count)
    coeffs[np.arange(dmax + 1)[None, :] > degs[:, None]] = 0
    return coeffs, degs


def _poly_values(coeffs: np.ndarray, p: int):
    """(first row, values) per block of the coefficient matrix, each block's
    values holding at most L1_BLOCK_ENTRIES entries (or one row)."""
    rows = max(1, analysis.L1_BLOCK_ENTRIES // p)
    for lo in range(0, len(coeffs), rows):
        yield lo, analysis.poly_eval_all(coeffs[lo:lo + rows], p)


def _unit_roots(p: int) -> np.ndarray:
    """e_p(r) for every residue r: the same bits as exp() of each entry."""
    return np.exp(2j * np.pi * np.arange(p) / p)


def _degrees(primes, dmin: int, dmax: int):
    """The primes of weil or partial-ap, which need dmin <= dmax < every prime."""
    if not dmin <= dmax < min(primes):
        raise InputError(f"need dmin <= dmax < every prime, not dmin = {dmin}, dmax = {dmax}")
    return primes


@_suite(cost=lambda primes, polys_per_p, dmin, dmax, seed: (polys_per_p * max(primes), sum(
    polys_per_p * p * (2 * dmax + 24) for p in _degrees(primes, dmin, dmax))))
def suite_weil(primes: _PRIMES = tuple(p for p in nt.primes_upto(199) if p >= 11),
               polys_per_p: _Int(1) = 500, dmin: _Int(1) = 2, dmax: _Int(1) = 10,
               seed: _Int(0) = 101) -> SuiteResult:
    """|sum_t e_p(f(t))| <= deg(f) sqrt(p) for seeded random polynomials,
    1 <= dmin <= deg f <= dmax < p."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("weil", True)
    for p in primes:
        coeffs, degs = _random_poly_batch(rng, polys_per_p, p, dmin, dmax)
        e_p = _unit_roots(p)
        sums = np.concatenate([np.abs(e_p[vals].sum(axis=1))
                               for _, vals in _poly_values(coeffs, p)])
        bounds = degs * math.sqrt(p)
        bad = np.nonzero(sums > bounds + TOL)[0]
        res.rows.append({"p": p, "polys": polys_per_p,
                         "max_ratio": float((sums / bounds).max())})
        for i in bad:
            res.failures.append({"p": p, "coeffs": coeffs[i].tolist(),
                                 "sum": float(sums[i]), "bound": float(bounds[i])})
    return res


@_suite(cost=lambda primes, polys_per_p, dmin, dmax, a_per_poly, seed: (
    max(polys_per_p, a_per_poly) * max(primes), sum(polys_per_p * (40 * PY_STEP + p * (
        2 * dmax + 24 + 64 * min(a_per_poly, p - 1))) for p in _degrees(primes, dmin, dmax))))
def suite_partial_ap(primes: _PRIMES = (101, 199, 499), polys_per_p: _Int(1) = 100,
                     dmin: _Int(2) = 2, dmax: _Int(2) = 6, a_per_poly: _Int(1) = 20,
                     seed: _Int(0) = 102) -> SuiteResult:
    """Prefix sums of e_p(a f(t)) over every 1 <= s <= p against
    4 log2(p) sqrt(p) deg(f), 2 <= dmin <= deg f <= dmax < p."""
    rng = np.random.default_rng(seed)
    res = SuiteResult("partial-ap", True)
    for p in primes:
        coeffs, degs = _random_poly_batch(rng, polys_per_p, p, dmin, dmax)
        e_p = _unit_roots(p)
        step = max(1, analysis.L1_BLOCK_ENTRIES // p)
        worst = 0.0
        for lo, vals in _poly_values(coeffs, p):
            for i, v in enumerate(vals, lo):
                a_vals = 1 + rng.choice(p - 1, size=min(a_per_poly, p - 1), replace=False)
                pref = max(np.abs(np.cumsum(e_p[a[:, None] * v % p], axis=1)).max()
                           for a in np.split(a_vals, range(step, len(a_vals), step)))
                bound = 4 * math.log2(p) * math.sqrt(p) * degs[i]
                worst = max(worst, float(pref / bound))
                if pref > bound + TOL:
                    res.failures.append({"p": p, "coeffs": coeffs[i].tolist(),
                                         "max_prefix": float(pref), "bound": bound})
        res.rows.append({"p": p, "max_ratio": worst})
    return res


@_suite(cost=lambda pmax: (pmax + min(pmax * pmax, analysis.L1_BLOCK_ENTRIES),
                          40 * _prime_sum(pmax, 2)))
def suite_l1(pmax: _Int(2) = 499) -> SuiteResult:
    """L1 Fourier norm of every interval {0..s-1} in Z_p against 4 log2 p,
    for every prime 2 <= p <= pmax."""
    res = SuiteResult("l1", True)
    for p in nt.primes_upto(pmax):
        vals = analysis.fourier_l1_interval(p, np.arange(1, p + 1))
        bound = 4 * math.log2(p)
        for i in np.nonzero(vals > bound + TOL)[0]:
            res.failures.append({"p": p, "s": int(i) + 1, "l1": float(vals[i]),
                                 "bound": bound})
        res.rows.append({"p": p, "max_l1": float(vals.max()), "bound": bound})
    return res


@_suite(cost=lambda moduli: (0, 16 * PY_STEP * sum(moduli)))
def suite_xor(moduli: _List(_Int(2)) = (15, 21, 33, 35, 105, 231, 1155)) -> SuiteResult:
    """|sigma(U_N) - U_M| <= 2M/N for every M < N coprime to N, exactly."""
    res = SuiteResult("xor", True)
    for N in moduli:
        worst = Fraction(0)
        coprime = [M for M in range(1, N) if math.gcd(M, N) == 1]
        for M in coprime:
            dist, bound, ok = analysis.xor_residual_check(N, M)
            worst = max(worst, dist / bound)
            if not ok:
                res.failures.append({"N": N, "M": M, "distance": str(dist),
                                     "bound": str(bound)})
        res.rows.append({"N": N, "cases": len(coprime), "max_ratio": float(worst)})
    return res


# ---------------------------------------------------------------------------
# line extractor scans
# ---------------------------------------------------------------------------

LINE_SCAN_TABLES = 10  # q x q arrays scan_all_lines holds at once (peak 9.3 under tracemalloc)


def scan_all_lines(cfg: ex.LineExtractorConfig) -> dict:
    """Exhaustive scan over all affine lines of F_q^2: per-line character sums
    and 1-bit output distances of the block-norm extractor.

    Returns max normalized character sum, max distance, and line counts.
    It holds LINE_SCAN_TABLES q x q arrays at once (the sum, product and
    character tables, and per direction the second coordinates, values,
    counts and character sums with temporaries): the cost of lines.
    """
    if cfg.n != 2:
        raise InputError("exhaustive line scan implemented for n = 2")
    f = cfg.field
    q = f.order
    # dense tables by gf's batch digit arithmetic: sums (one digit at a time)
    # and products of all q^2 pairs, and u^b for the size-b second block (only
    # its first coordinate is set when n = 2)
    d = nt.to_digits(np.arange(q), f.p, f.k)
    add = np.zeros((q, q), dtype=np.int64)
    for j in range(f.k):
        add += (d[:, None, j] + d[None, :, j]) % f.p * f.p**j
    mul = gf.mul_table(f)
    powb = nt.from_digits(gf.pow_many(f, d, cfg.blocks[1].size), f.p)
    t = np.arange(q, dtype=np.int64)
    even = cfg.variant == "additive_trace"
    if even:
        tr = gf.trace_many(f, d)
        # psi_beta(u) = (-1)^Tr(beta u) for every nontrivial beta
        psi = (-1.0) ** tr[mul[1:, :]]
    else:
        chi = gf.quadratic_character_many(f, d)
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
        counts = np.bincount((t[:, None] * q + fvals).ravel(), minlength=q * q).reshape(q, q)
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
        if len(spot) < 3:   # its line through (0, b) or (b, 0), b = len(spot)
            b = len(spot)
            spot.append(((d0, d1), (0, b) if d0 else (b, 0), fvals[b].copy()))
    # cross-route: check the table values of three lines against the
    # extractor's block polynomial (extractors._block_poly_many) at their
    # points a + t d, built by gf.mul_many and digitwise sums
    dirs, bases, rows = (np.array(x) for x in zip(*spot))
    shape = (q, len(spot), 2, f.k)
    steps = gf.mul_many(f, np.broadcast_to(d[:, None, None], shape).reshape(-1, f.k),
                        np.broadcast_to(d[dirs], shape).reshape(-1, f.k))
    points = nt.from_digits((d[bases] + steps.reshape(shape)) % f.p, f.p).reshape(-1, 2)
    values = nt.from_digits(ex._block_poly_many(cfg, points), f.p).reshape(q, len(spot))
    assert (values.T == rows).all(), "line tables disagree with the block polynomial"
    n = cfg.n
    return {"q": q, "lines": lines, "max_charsum": max_charsum,
            "max_distance": max_distance,
            "charsum_bound": 4 * math.sqrt(n / q), "distance_bound": 4 * math.sqrt(n / q)}


@_suite(cost=lambda qs: (LINE_SCAN_TABLES * max(qs) ** 2, sum(
    (q + 1) * q * q * (128 if q % 2 else 128 + q // 8) for q in qs)))
def suite_lines(qs: _List(_Int(4)) = (9, 16, 25, 49, 64)) -> SuiteResult:
    """Exhaustive line-extractor bounds over F_q^2, q >= 4 (below, x^3 = x):
    normalized line sums and 1-bit distances against 4 sqrt(n/q), n = 2."""
    res = SuiteResult("lines", True)
    for q in qs:
        cfg = ex.build_line_extractor(q, 2)
        row = scan_all_lines(cfg)
        res.rows.append(row)
        if row["max_charsum"] > row["charsum_bound"] + TOL:
            res.failures.append({"q": q, "kind": "charsum", **row})
        if row["max_distance"] > row["distance_bound"] + TOL:
            res.failures.append({"q": q, "kind": "distance", **row})
    return res


# ---------------------------------------------------------------------------
# GAP and Bohr structure
# ---------------------------------------------------------------------------

def _gap_cases(primes, dims, sides) -> list[tuple[int, int, int]]:
    """The (p, r, s) of gap-profile: s^r < p, tried without s^r once 2^r > p."""
    return [(p, r, s) for p in primes for r in dims for s in sides
            if (s == 1 or r < p.bit_length()) and s**r < p]


@_suite(cost=lambda primes, dims, sides, gaps_per_case, seed: (
    max((8 * min(p, s**(2 * r)) for p, r, s in _gap_cases(primes, dims, sides)), default=0),
    gaps_per_case * 256 * PY_STEP * sum(32 + s**r + r for p, r, s in _gap_cases(
        primes, dims, sides))))
def suite_gap_profile(primes: _PRIMES = (101, 499, 1009), dims: _List(_Int(1)) = (1, 2),
                      sides: _List(_Int(1)) = (8, 16, 32), gaps_per_case: _Int(1) = 25,
                      seed: _Int(0) = 106) -> SuiteResult:
    """Proper GAPs: |X+X| <= 2^r |X|; the homogeneous sub-GAP of side
    ceil(s^0.1) has >= |X|^0.1 elements, each with rep >= |X| (1 - r/s^0.9)."""
    rng = random.Random(seed)
    res = SuiteResult("gap-profile", True)
    for p, r, s in _gap_cases(primes, dims, sides):
        grp = src.Group.zp(p)
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
            # each sub-GAP element's count among the differences, 0 if none
            values, counts = src.difference_histogram(X)
            at = np.minimum(np.searchsorted(values, sub), len(values) - 1)
            rep_min = int(np.where(values[at] == sub, counts[at], 0).min())
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
    return res


def _shift_overlaps(B: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """|B cap (B + y)| = sum_x B(x) B(x - y) of each 0/1 row of B, one column
    per y in ys (never empty)."""
    return np.stack([np.count_nonzero(B & np.roll(B, y, axis=1), axis=1) for y in ys], axis=1)


def _bohr_cases(p: int, rho: Fraction, d: int, dilations: np.ndarray | None) -> dict:
    """Columns of the Bohr checks at rank d, one entry per case: the rank-1
    set when ``dilations`` is None, else the rank-2 sets {1, c}, one per row
    c x mod p of ``dilations``. Keys: size, lower, double, sym."""
    x = np.arange(p)
    dist = np.minimum(x, p - x)
    kappa = Fraction(1, 200 * d)

    def masks(r: Fraction) -> np.ndarray:
        cond = dist <= src.bohr_vmax(p, r)
        return cond[None, :] if dilations is None else cond & cond[dilations]

    B, B2, Y, Bm = (masks(r) for r in (rho, 2 * rho, kappa * rho, (1 - kappa) * rho))
    nB, nB2, nBm = B.sum(axis=1), B2.sum(axis=1), Bm.sum(axis=1)
    # Y lies in the window min(y, p - y) <= bohr_vmax(p, kappa rho), which is
    # {0} for every p <= 661 at the default radii
    ys = np.flatnonzero(dist <= src.bohr_vmax(p, kappa * rho))
    return {"size": nB, "lower": nB >= math.ceil(rho**d * p),
            "double": nB2 <= 4**d * nB,
            "sym": ((_shift_overlaps(B, ys) >= nBm[:, None]) | ~Y[:, ys]).all(axis=1)}


@_suite(cost=lambda pmax, rhos, literal_pmax: (8 * max(pmax, literal_pmax) ** 2, len(rhos) * (
    40 * _prime_sum(pmax, 2) + _prime_sum(pmax, 3) // 64)
    + 3 * _prime_sum(literal_pmax, 3) + 16 * PY_STEP * _prime_sum(literal_pmax, 1)))
def suite_bohr(pmax: _Int(2) = 499, rhos: _List(_Number(0, 1)) = (0.1, 0.2, 0.3),
               literal_pmax: _Int(3) = 61) -> SuiteResult:
    """Bohr-set bounds in Z_p, exhaustive over rank <= 2 frequency sets up to
    the exact dilation equivalence Bohr({c1,c2}, rho) = c1^{-1} Bohr({1, c2/c1}, rho)
    (verified literally for p <= literal_pmax): size lower bound rho^|S| p,
    doubling of the radius, and the symmetry witnesses at kappa = 1/(200|S|).

    Each (p, rho, rank) is one batch: a row of masks per ratio, sizes as row
    sums, and the overlaps |B cap (B + y)| = sum_x B(x) B(x - y) of each row,
    counted exactly for the y of the window that holds the witnesses Y."""
    res = SuiteResult("bohr", True)
    for p in nt.primes_upto(pmax):
        ratios = np.arange(2, p)
        dilations = (ratios[:, None] * np.arange(p)) % p
        for rho_f in rhos:
            rho = Fraction(rho_f)
            worst = {"p": p, "rho": rho_f, "cases": 0}
            for d in (1, 2):
                cases = _bohr_cases(p, rho, d, None if d == 1 else dilations)
                worst["cases"] += len(cases["size"])
                ok = cases["lower"] & cases["double"] & cases["sym"]
                for i in np.flatnonzero(~ok):
                    res.failures.append({"p": p, "rho": rho_f, "S_rank": d,
                                         "ratio": None if d == 1 else int(ratios[i]),
                                         "size": int(cases["size"][i]),
                                         **{k: bool(cases[k][i])
                                            for k in ("lower", "double", "sym")}})
            res.rows.append(worst)
    # literal enumeration of all frequency sets for small p, against the
    # dilation-reduced computation
    for p in nt.primes_upto(literal_pmax)[1:]:   # p >= 3
        x = np.arange(p)
        base = np.minimum(x, p - x) <= src.bohr_vmax(p, Fraction(rhos[0]))
        # row a is the rank-1 Bohr set of frequency a; sizes[a, b] = |Bohr({a, b})|
        dilated = base[(x[:, None] * x) % p].astype(np.int64)
        sizes = dilated @ dilated.T
        for xi1 in range(1, p):
            if sizes[xi1, xi1] != sizes[1, 1]:
                res.failures.append({"p": p, "kind": "dilation-rank1", "xi": xi1})
            xi2 = np.arange(xi1 + 1, p)
            reduced = sizes[1, xi2 * pow(xi1, -1, p) % p]
            for j in np.flatnonzero(sizes[xi1, xi2] != reduced):
                res.failures.append({"p": p, "kind": "dilation-rank2",
                                     "pair": (xi1, int(xi2[j]))})
    res.notes["dilation_literal_pmax"] = literal_pmax
    return res


@_suite(cost=lambda primes, trials, seed: (
    trials + 8 * max(min(trials * p, max(src.CONVOLVE_CHUNK, p)) for p in primes),
    trials * sum(32 * (p + 16) * p.bit_length() for p in primes)))
def suite_cauchy_davenport(primes: _PRIMES = (101, 499), trials: _Int(1) = 10_000,
                           seed: _Int(0) = 108) -> SuiteResult:
    """|A+A| >= min(2|A|-1, p) for seeded random subsets of Z_p.

    Per p, from np.random.default_rng([seed, p]): first every trial's size,
    uniform on 1..p, then one rng.random((rows, p)) of keys per chunk of
    trials. A trial's set is the x whose key is at most the size-th smallest
    key of its row, so the sets do not depend on the chunk size. Every |A + A|
    of a chunk comes from one row-batched convolution."""
    res = SuiteResult("cauchy-davenport", True)
    for p in primes:
        rng = np.random.default_rng([seed, p])
        sizes = rng.integers(1, p + 1, size=trials)
        step = max(1, src.CONVOLVE_CHUNK // p)
        for start in range(0, trials, step):
            size = sizes[start:start + step]
            keys = rng.random((len(size), p))
            kth = np.sort(keys, axis=1)[np.arange(len(size)), size - 1]
            sets = (keys <= kth[:, None]).astype(np.int8)
            count = sets.sum(axis=1, dtype=np.int64)
            sumset = np.count_nonzero(src.convolve_rows(sets, sets, p), axis=1)
            for i in np.flatnonzero(sumset < np.minimum(2 * count - 1, p)):
                res.failures.append({"p": p, "A": np.flatnonzero(sets[i]).tolist()})
        res.rows.append({"p": p, "trials": trials})
    return res


# ---------------------------------------------------------------------------
# encoding transport, extractor trend, moments, norms
# ---------------------------------------------------------------------------

@_suite(cost=lambda primes, sources_per_p, alpha, seed: (
    2 * max(primes) ** 2, sources_per_p * sum(512 * PY_STEP + 24 * p * p for p in primes)))
def suite_transport(primes: _PRIMES = (101, 499), sources_per_p: _Int(1) = 200,
                    alpha: _Number(0, 1) = 0.25, seed: _Int(0) = 109) -> SuiteResult:
    """The subgroup encoding x -> g^x: injectivity, |Y Y| = |X+X|, and exact
    transport of representation counts (hence of every symmetry set)."""
    res = SuiteResult("transport", True)
    for p in primes:
        cfg = ex.build_zp_extractor(p, 1)
        q = cfg.q
        gx = nt.powers(cfg.g, p, q)
        if len(src._sorted_unique(gx)) != p:
            res.failures.append({"p": p, "error": "encoding not injective"})
            continue
        rng = random.Random(seed * 1_000_003 + p)
        for _ in range(sources_per_p):
            size = rng.randint(2, p)
            X = np.array(sorted(rng.sample(range(p), size)), dtype=np.int64)
            Y = gx[X]
            sum_size = src.cyclic_convolve(X, X, p)[0].size
            prod_size = np.count_nonzero(np.bincount(((Y[:, None] * Y[None, :]) % q).ravel(),
                                                     minlength=q))
            diffs, counts = src.cyclic_convolve(X, (p - X) % p, p)
            rep_add = np.zeros(p, dtype=np.int64)
            rep_add[diffs] = counts
            Yinv = gx[(p - X) % p]
            rep_mult = np.bincount(((Y[:, None] * Yinv[None, :]) % q).ravel(),
                                   minlength=q)
            transport_ok = bool((rep_add == rep_mult[gx]).all())
            thresh = (1 - alpha) * size
            sym_ok = bool(((rep_mult[gx] >= thresh) | (rep_add < thresh)).all())
            if not (sum_size == prod_size and transport_ok and sym_ok):
                res.failures.append({"p": p, "X": X.tolist(),
                                     "sumset": int(sum_size), "prodset": int(prod_size),
                                     "transport": transport_ok, "sym": sym_ok})
        res.rows.append({"p": p, "q": q, "sources": sources_per_p})
    return res


def ap_distance_histogram(p: int, s: int, cfg: ex.ZpExtractorConfig) -> np.ndarray:
    """Histogram over ones-counts of the 1-bit extractor across all s-term APs
    (every base b, every step d != 0), via the dilation-to-interval identity:
    the AP (b, d) maps to a length-s window of the d-dilated value sequence.

    The AP (b, -d) is the AP (b - (s-1)d, d) traversed backwards, so steps d
    and p - d give the same multiset of window sums: only d <= p/2 is scanned,
    each histogram counted twice unless 2d = p."""
    par = nt.powers(cfg.g, p, cfg.q) & 1
    idx = np.arange(p, dtype=np.int64)
    hist = np.zeros(s + 1, dtype=np.int64)
    for d in range(1, p // 2 + 1):
        perm = par[(d * idx) % p]
        ext = np.concatenate([perm, perm[:s]])
        cs = np.concatenate([[0], np.cumsum(ext)])
        wins = cs[s:s + p] - cs[:p]
        hist += np.bincount(wins, minlength=s + 1) * (1 if 2 * d == p else 2)
    return hist


def _median_distance_from_hist(hist: np.ndarray, s: int) -> float:
    dists = np.abs(np.arange(s + 1) / s - 0.5)
    order = np.argsort(dists, kind="stable")
    # the first distance, nearest first, at which half the APs are counted
    return float(dists[order[np.searchsorted(np.cumsum(hist[order]), (hist.sum() + 1) // 2)]])


@_suite(cost=lambda primes, threshold: (
    8 * max(primes), sum(p // 2 * (48 * p + 16 * PY_STEP) for p in primes)))
def suite_zp_trend(primes: _PRIMES = (101, 499, 1009, 4999),
                   threshold: _Number() = 0.25) -> SuiteResult:
    """Exhaustive 1-bit distances across all s-APs, s = ceil(p^0.7): the median
    must be non-increasing in p (hard); the final median is compared with the
    threshold (soft; a miss downgrades to a warning with the curve attached)."""
    res = SuiteResult("zp-trend", True)
    medians = []
    for p in primes:
        s = math.ceil(p**0.7)
        cfg = ex.build_for_group("zp", src.Group.zp(p))
        hist = ap_distance_histogram(p, s, cfg)
        med = _median_distance_from_hist(hist, s)
        medians.append(med)
        res.rows.append({"p": p, "s": s, "aps": int(hist.sum()), "median_distance": med})
    if any(b > a + TOL for a, b in zip(medians, medians[1:])):
        res.failures.append({"error": "median not non-increasing", "medians": medians})
    res.notes["medians"] = medians
    res.notes["threshold"] = threshold
    res.notes["threshold_met"] = medians[-1] < threshold
    if not res.notes["threshold_met"]:
        res.notes["warning"] = ("final median above threshold; curve attached. "
                                "This probe has non-effective constants and the "
                                "threshold miss is not a failure.")
    return res


def _moment_cases(qs, ts):
    """The (q, t) pairs of moments, which need (max q - 1)^(2 max t) < 2^62."""
    if 2 * max(ts) * math.log2(max(qs) - 1) >= 62:  # exact at powers of 2, and t may be huge
        raise BudgetError(f"need (max q - 1)^(2 max t) < 2^62, not q = {max(qs)}, t = {max(ts)}")
    return itertools.product(qs, ts)


@_suite(cost=lambda qs, ts, parseval_sets, seed: (4 * max(qs), 64 * PY_STEP * parseval_sets + sum(
    16 * t * q * q.bit_length() + 64 * (t - 1) * PY_STEP for q, t in _moment_cases(qs, ts))))
def suite_moments(qs: _List(_Int(2)) = (11, 101), ts: _List(_Int(1)) = (1, 2, 3),
                  parseval_sets: _Int(0) = 100, seed: _Int(0) = 111) -> SuiteResult:
    """Exact moment-sum identities: full multiplicative group value
    ((q-1)^2t + (q-1))/q for each q >= 2, and the Parseval case 2t = 2
    equals |Y|."""
    res = SuiteResult("moments", True)
    for q, t in itertools.product(qs, ts):
        got = analysis.moment_sum(np.arange(1, q), q, t)
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
    return res


@_suite(cost=lambda qs, kmax: (  # q^65 is past any budget
    max((min(kmax, 64) + 4) * q ** min(kmax, 64) + q * q for q in qs),
    sum(80 * q ** (min(kmax, 64) + 1) * (min(kmax, 64) * q.bit_length()) ** 3 for q in qs)))
def suite_norms(qs: _List(_Int(2)) = (2, 3, 4, 5), kmax: _Int(1) = 4) -> SuiteResult:
    """Norm forms: exhaustive zero locus and homogeneity for every base field
    order q and degree k <= kmax, with the conjugate-product route as oracle.

    Every norm comes from gf.norms_many, and at every point it must equal
    gf.conjugate_norms_many; homogeneity is checked for every point and every
    lambda at once."""
    res = SuiteResult("norms", True)
    for q in qs:
        base = ex.prime_power_field(q)
        mul = gf.mul_table(base)
        lam_k = np.ones(q, dtype=np.int64)
        for k in range(1, kmax + 1):
            lam_k = mul[lam_k, np.arange(q)]   # lambda^k for every lambda
            extn = gf.get_extension(base, k)
            coords = nt.to_digits(np.arange(q**k), q, k)
            norms = gf.norms_many(extn, coords)
            found = []   # (point, order, failure): reported point by point
            checks = itertools.chain(
                [("zero locus", (norms == 0) != ~coords.any(axis=1), {}),
                 ("conjugate oracle", gf.conjugate_norms_many(extn, coords) != norms, {})],
                (("homogeneity", gf.norms_many(extn, mul[lam][coords]) != mul[lam_k[lam]][norms],
                  {"lam": lam}) for lam in range(1, q)))
            for order, (error, bad, extra) in enumerate(checks):
                found += [(idx, order, {"q": q, "k": k, "coords": coords[idx].tolist(), **extra,
                                        "error": error}) for idx in np.flatnonzero(bad)]
            res.failures += [f for *_, f in sorted(found, key=lambda t: t[:2])]
            res.rows.append({"q": q, "k": k, "points": q**k})
    return res


# ---------------------------------------------------------------------------
# generic sweep
# ---------------------------------------------------------------------------

CHARSUM_SCAN_CAP = 1 << 16

# the keys of a sweep row that is not a family scan
_SOURCE_ROW = {"group": lambda v, _: src.Group.from_json(v),
               "source": lambda v, _: src.spec_from_json(v), "extractor": None,
               "alpha": src.json_number, "per_character": src.json_bool,
               "charsum_seed": src.json_int}


def _row_config(e, group: src.Group):
    """A row's extractor: ``{"build": family, "m": m}``, or a full config that
    must be the one that family builds for the row's group."""
    if isinstance(e, dict) and "variant" in e:
        return ex.config_for_group(e, group)
    e = src.read_object(e, "extractor", {"build": None, "m": src.json_int}, ("m",))
    return ex.build_for_group(e["build"], group, e.get("m", 1))


def _sweep_point(row) -> EvalReport:
    if isinstance(row, dict) and "family" in row:
        return _sweep_family(**src.read_object(row, "row", {"family": None, "extractor": None}))
    row = src.read_object(row, "row", _SOURCE_ROW, ("alpha", "per_character", "charsum_seed"))
    X = src.build_source(row["source"], row["group"])
    cfg = _row_config(row["extractor"], X.group)
    encoded = isinstance(cfg, (ex.ZpExtractorConfig, ex.ZpnExtractorConfig))
    values = ex.encode_many(cfg, X.elements) if encoded else None  # taken once
    report = analysis.evaluate(X, cfg, values)[1]  # the outputs are not held through the sums
    report.extra["charsum_sampled"] = False
    if encoded:
        modulus = cfg.q
        if modulus <= CHARSUM_SCAN_CAP:
            freqs = range(1, modulus)
        else:
            rng = random.Random(row.get("charsum_seed", 113))
            freqs = sorted(rng.sample(range(1, modulus), 256))
            report.extra["charsum_sampled"] = True
        table = analysis.charsum_table(values, modulus, freqs)
        report.max_charsum = float(table.max())
        if row.get("per_character", False):
            report.per_character = [{"xi": int(xi), "value": float(v)}
                                    for xi, v in zip(freqs, table)]
    report.bound, asserted = _sweep_bound(row.get("alpha"), cfg, X.spec)
    report.ok = report.bound is None or report.distance <= report.bound + TOL
    report.asserted = asserted and report.bound is not None
    return report


def _sweep_bound(alpha: float | None, cfg, spec) -> tuple[float | None, bool]:
    """Variant bound for the report, ``alpha`` the row's if it gives one. Bounds
    with non-effective constants are advisory (reported, never asserted)."""
    if isinstance(cfg, ex.LineExtractorConfig):
        return 4 * math.sqrt(cfg.n / cfg.field.order), True
    if isinstance(cfg, ex.ApExtractorConfig) and isinstance(spec, (src.ApSpec, src.HapSpec)):
        p = cfg.p
        return (16 * math.log2(p)**2 * math.sqrt(cfg.n * p)
                * 2**(cfg.m / 2) / spec.k), True
    if alpha is not None and isinstance(cfg, (ex.ZpExtractorConfig, ex.ZpnExtractorConfig)):
        if isinstance(cfg, ex.ZpExtractorConfig):
            logsize = math.log2(cfg.p)
        else:
            logsize = cfg.n * math.log2(cfg.p)
        return 3 * alpha * 2**(cfg.m / 2) * logsize, False
    return None, False


def _line_scan_n(value, name: str) -> int:
    """The all_lines family's n, read as a JSON integer: 2, since
    scan_all_lines runs over F_q^2 alone."""
    if src.json_int(value, name) != 2:
        raise InputError(f"{name} must be 2 (the line scan runs over F_q^2), not {value!r}")
    return 2


# the keys of each family kind besides "kind"; all_lines' n is optional
_FAMILY_KEYS = {"all_aps": {"p": _PRIME, "s": _Int(1)},
                "all_lines": {"q": _Int(4), "n": _line_scan_n}}


def _sweep_family(family, extractor) -> EvalReport:
    """An exhaustive family scan, first checked at the cost of zp-trend or lines.
    Its extractor must be the 1-bit ``zp`` for ``all_aps``, ``line`` for ``all_lines``."""
    fam = src.read_object(family, "family", _FAMILY_KEYS, ("n",), tag="kind")
    if fam["kind"] == "all_aps":
        p, s = fam["p"], fam["s"]
        if s > p:
            raise InputError(f"the family's s = {s} exceeds its p = {p}")
        suite_zp_trend.check(primes=[p])
        cfg = _row_config(extractor, src.Group.zp(p))
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
    suite_lines.check(qs=[fam["q"]])
    group = src.Group.fq_vec(ex.prime_power_field(fam["q"]), 2)
    cfg = _row_config(extractor, group)
    row_scan = scan_all_lines(cfg)
    bound = row_scan["charsum_bound"]
    worst = max(row_scan["max_charsum"], row_scan["max_distance"])
    return EvalReport(
        config_digest=digest(cfg.to_json()), source_digest=digest(fam),
        size=row_scan["lines"], distance=row_scan["max_distance"],
        max_charsum=row_scan["max_charsum"], bound=bound,
        ok=worst <= bound + TOL, asserted=True, extra={"family": fam})


def suite_sweep(grid_rows: list[dict], threads: int | None = None) -> SuiteResult:
    """Run every grid point in grid order on the calling thread; per-point
    errors are recorded in grid order and the sweep continues.

    ``threads`` is accepted and ignored: the CLI records it in the run
    manifest. Rows run Python code under the interpreter lock, so threads
    would not evaluate them in parallel.
    """
    t0 = time.perf_counter()
    res = SuiteResult("sweep", True)
    for i, row in enumerate(grid_rows):
        try:
            t_row = time.perf_counter()
            res.rows.append(_sweep_point(row))
            res.rows[-1].seconds = time.perf_counter() - t_row
        except Exception as exc:  # per-point errors recorded, sweep continues
            res.failures.append({"grid_index": i, "error": f"{type(exc).__name__}: {exc}"})
    res.ok = not res.failures and all(r.ok for r in res.rows if r.asserted)
    res.seconds = time.perf_counter() - t0
    return res


SUITES = {fn.name: fn for fn in (suite_weil, suite_partial_ap, suite_l1, suite_xor, suite_lines,
                                 suite_gap_profile, suite_bohr, suite_cauchy_davenport,
                                 suite_transport, suite_zp_trend, suite_moments, suite_norms)}
