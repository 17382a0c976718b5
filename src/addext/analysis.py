"""Brute-force verification core: exact statistical distances, additive and
multiplicative character sums, Fourier L1 norms of intervals, residuals of the
mod-M reduction map, moment sums, and double character sums.

Complex accumulations use numpy double precision; every quantity compared at a
tolerance is normalized, and element counts stay far below the scale where
rounding could reach the 1e-6 acceptance tolerance. Distances and residuals
that the checks require exactly are computed in integer/rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import numtheory as nt
from .errors import BudgetError, InputError
from .gf import poly_mul
from .sources import Source, cyclic_convolve, element_budget

TOL = 1e-6


# ---------------------------------------------------------------------------
# output distributions and statistical distance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OutputDistribution:
    """Histogram over a finite output alphabet, kept as exact counts."""

    support: int
    counts: tuple[int, ...]
    total: int

    def __post_init__(self):
        if len(self.counts) != self.support or sum(self.counts) != self.total:
            raise InputError("inconsistent distribution counts")

    @classmethod
    def uniform(cls, m: int) -> "OutputDistribution":
        return cls(m, (1,) * m, m)

    @property
    def probs(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.total


def statistical_distance_exact(d1: OutputDistribution,
                               d2: OutputDistribution) -> Fraction:
    if d1.support != d2.support:
        raise InputError("support mismatch")
    acc = Fraction(0)
    for a, b in zip(d1.counts, d2.counts):
        acc += abs(Fraction(a, d1.total) - Fraction(b, d2.total))
    return acc / 2


def statistical_distance(d1: OutputDistribution, d2: OutputDistribution) -> float:
    """(1/2) sum |d1_i - d2_i|, from exact counts."""
    return float(statistical_distance_exact(d1, d2))


def extractor_distribution(outputs: Sequence[int], support: int) -> OutputDistribution:
    """Exact histogram of an extractor's outputs over a source (uniform weights)."""
    counts = [0] * support
    for y in outputs:
        counts[y] += 1
    return OutputDistribution(support, tuple(counts), len(outputs))


def distance_to_uniform(d: OutputDistribution) -> float:
    return statistical_distance(d, OutputDistribution.uniform(d.support))


# ---------------------------------------------------------------------------
# characters and character sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterId:
    """kind: "additive" (frequency a), "multiplicative" (index j), "quadratic"."""

    kind: str
    a: object = None

    @property
    def nontrivial(self) -> bool:
        if self.kind == "additive":
            return self.a != 0 and (not isinstance(self.a, tuple) or any(self.a))
        if self.kind == "multiplicative":
            return self.a != 0
        return True


def _frequency(a) -> object:
    return a.a if isinstance(a, CharacterId) else a


def additive_charsum(X: Source, a) -> float:
    """|sum_x e(<a, x> / modulus)| / |X| over the source, a the frequency
    (an int, a coordinate tuple, or an additive CharacterId)."""
    a = _frequency(a)
    grp = X.group
    if grp.kind in ("zp", "zn"):
        return float(charsum_table(list(X.elements), grp.order, [int(a)])[0])
    if grp.kind == "zp_vec":
        dots = [sum(ai * xi for ai, xi in zip(a, x)) % grp.p for x in X.elements]
        return float(charsum_table(dots, grp.p, [1])[0])
    raise InputError("additive characters over Z_p, Z_p^n or Z_N only")


def charsum_table(values: Sequence[int], modulus: int,
                  frequencies: Sequence[int]) -> np.ndarray:
    """|sum_y e(xi y / modulus)| / |values| for each requested frequency xi,
    over a multiset of residues mod modulus.

    When modulus <= min(|frequencies| |values|, element_budget()) one FFT of
    the multiset's histogram gives every frequency at once. Otherwise each
    frequency is summed directly, with exact products xi y mod modulus:
    int64 vectors while (modulus - 1)^2 < 2^63, Python integers above that.
    """
    if len(values) == 0:
        raise InputError("empty multiset")
    v = [int(y) % modulus for y in values]
    if modulus <= min(len(frequencies) * len(v), element_budget()):
        spectrum = np.abs(np.fft.fft(np.bincount(v, minlength=modulus)))
        return spectrum[[int(xi) % modulus for xi in frequencies]] / len(v)
    vec = np.array(v, dtype=np.int64) if (modulus - 1) ** 2 < 1 << 63 else None
    out = np.empty(len(frequencies))
    for i, xi in enumerate(frequencies):
        xi = int(xi) % modulus
        if vec is not None:
            r = (xi * vec) % modulus
        else:
            r = np.array([xi * y % modulus for y in v], dtype=np.int64)
        out[i] = abs(np.exp(2j * np.pi * r / modulus).sum())
    return out / len(v)


def vector_charsum_table(X: Source, indices: Sequence[int]) -> np.ndarray:
    """additive_charsum(X, a) at each frequency a = element_from_index(i) of
    the index list, X a source in Z_p^n.

    When p^n <= min(|indices| |X|, element_budget()) one fftn of the source's
    histogram on shape (p,)*n gives every frequency at once; otherwise each
    frequency goes through additive_charsum.
    """
    grp = X.group
    if grp.kind != "zp_vec":
        raise InputError("additive characters over Z_p, Z_p^n or Z_N only")
    if grp.order > min(len(indices) * len(X), element_budget()):
        return np.array([additive_charsum(X, grp.element_from_index(i)) for i in indices])
    # element_from_index reads coordinate j as base-p digit j: Fortran order
    shape = (grp.p,) * grp.n
    flat = np.ravel_multi_index(np.array(list(X.elements)).T, shape, order="F")
    hist = np.bincount(flat, minlength=grp.order).reshape(shape, order="F")
    spectrum = np.abs(np.fft.fftn(hist)).ravel(order="F") / len(X)
    return spectrum[np.asarray(indices, dtype=np.int64)]


# ---------------------------------------------------------------------------
# polynomial sums over F_p
# ---------------------------------------------------------------------------

def poly_eval_all(coeffs, p: int) -> np.ndarray:
    """f(t) for all t in F_p (vectorized Horner); coefficients low degree first.

    A coefficient vector gives the p values of one polynomial; a (rows, d+1)
    coefficient matrix gives a (rows, p) matrix, one polynomial per row.
    """
    c = (np.asarray(coeffs) % p).astype(np.int64)
    t = np.arange(p, dtype=np.int64)
    acc = np.zeros(c.shape[:-1] + (p,), dtype=np.int64)
    for j in range(c.shape[-1] - 1, -1, -1):
        acc = (acc * t + c[..., j, None]) % p
    return acc


def poly_degree(coeffs: Sequence[int], p: int) -> int:
    d = -1
    for i, c in enumerate(coeffs):
        if c % p:
            d = i
    return d


@dataclass(frozen=True)
class BoundCheck:
    value: float
    bound: float
    ok: bool
    precondition_ok: bool = True
    note: str = ""


def weil_additive_check(p: int, coeffs: Sequence[int], a: int = 1) -> BoundCheck:
    """Complete exponential sum |sum_t e_p(a f(t))| against deg(f) sqrt(p).

    Precondition gcd(deg f, p) = 1; on violation the sum is still computed and
    the check is flagged.
    """
    d = poly_degree(coeffs, p)
    if d < 1 or a % p == 0:
        raise InputError("need deg f >= 1 and a nontrivial character")
    pre_ok = math.gcd(d, p) == 1
    vals = poly_eval_all(coeffs, p)
    s = abs(np.exp(2j * np.pi * ((a * vals) % p) / p).sum())
    bound = d * math.sqrt(p)
    return BoundCheck(float(s), bound, s <= bound + TOL, pre_ok,
                      "" if pre_ok else f"gcd(deg={d}, p) != 1")


def poly_root_attempt(coeffs: Sequence[int], m: int, p: int) -> list[int] | None:
    """If the polynomial is c * g(t)^m, return monic g; else None.

    Top-down undetermined coefficients; needs gcd(m, p) = 1 (true for any
    character order m | p-1).
    """
    d = poly_degree(coeffs, p)
    if d < 0 or d % m:
        return None
    lead_inv = pow(coeffs[d] % p, -1, p)
    f = [(c * lead_inv) % p for c in coeffs[:d + 1]]
    k = d // m
    g = [0] * (k + 1)
    g[k] = 1
    for j in range(k - 1, -1, -1):
        # match the coefficient of t^(k(m-1)+j): m * g_j + (terms from known g's)
        target = f[k * (m - 1) + j]
        partial = [0] * (k + 1)
        partial[j + 1:] = g[j + 1:]
        partial[k] = 1
        acc = [1]
        for _ in range(m):
            acc = list(poly_mul(acc, partial, p)) or [0]
        known = acc[k * (m - 1) + j] if len(acc) > k * (m - 1) + j else 0
        g[j] = (target - known) * pow(m, -1, p) % p
    acc = [1]
    for _ in range(m):
        acc = list(poly_mul(acc, g, p)) or [0]
    acc += [0] * (d + 1 - len(acc))
    return g if all((a - b) % p == 0 for a, b in zip(acc, f)) else None


def weil_multiplicative_check(p: int, coeffs: Sequence[int],
                              index: int | None = None) -> BoundCheck:
    """Complete character sum |sum_t chi(f(t))| against deg(f) sqrt(p), chi the
    multiplicative character of index j (quadratic when index is None).

    Precondition: f is not c g(t)^ord(chi) (checked exactly by an ord(chi)-th
    root attempt); chi(0) = 0 convention.
    """
    d = poly_degree(coeffs, p)
    if d < 1:
        raise InputError("need deg f >= 1")
    if index is None:
        index = (p - 1) // 2  # the quadratic character
    index %= p - 1
    if index == 0:
        raise InputError("character must be nontrivial")
    order = (p - 1) // math.gcd(index, p - 1)
    pre_ok = poly_root_attempt(coeffs, order, p) is None
    ind = np.asarray(nt.index_table(p), dtype=np.int64)
    vals = poly_eval_all(coeffs, p)
    chi = np.where(vals == 0, 0,
                   np.exp(2j * np.pi * (index * ind[vals] % (p - 1)) / (p - 1)))
    s = abs(chi.sum())
    bound = d * math.sqrt(p)
    return BoundCheck(float(s), bound, s <= bound + TOL, pre_ok,
                      "" if pre_ok else f"f is a constant times an order-{order} power")


def weil_check(p: int, coeffs: Sequence[int], character: CharacterId) -> BoundCheck:
    """Complete sum of the given character over f(t), t in F_p, against
    deg(f) sqrt(p); dispatches on the character kind."""
    if character.kind == "additive":
        return weil_additive_check(p, coeffs, int(character.a))
    if character.kind == "quadratic":
        return weil_multiplicative_check(p, coeffs, None)
    if character.kind == "multiplicative":
        return weil_multiplicative_check(p, coeffs, int(character.a))
    raise InputError(f"unknown character kind {character.kind!r}")


def partial_ap_sum_check(p: int, coeffs: Sequence[int], s: int, a: int = 1) -> BoundCheck:
    """Prefix sum |sum_{t<s} e_p(a f(t))| against 4 log2(p) sqrt(p) deg(f)."""
    d = poly_degree(coeffs, p)
    if not 1 < d < p:
        raise InputError("need 1 < deg f < p")
    if not 0 < s <= p:
        raise InputError("need 0 < s <= p")
    vals = poly_eval_all(coeffs, p)[:s]
    total = abs(np.exp(2j * np.pi * ((a * vals) % p) / p).sum())
    bound = 4 * math.log2(p) * math.sqrt(p) * d
    return BoundCheck(float(total), bound, total <= bound + TOL)


def partial_ap_sum_prefix_max(p: int, coeffs: Sequence[int], a: int) -> float:
    """max over all prefixes 1 <= s <= p of |sum_{t<s} e_p(a f(t))|."""
    vals = poly_eval_all(coeffs, p)
    phases = np.exp(2j * np.pi * ((a * vals) % p) / p)
    return float(np.abs(np.cumsum(phases)).max())


L1_BLOCK_ENTRIES = 1 << 20


def fourier_l1_interval(p: int, s):
    """L1 Fourier norm of the indicator of {0..s-1} in Z_p: sum_j |A^(j)|.

    j = 0 term is s/p; for j != 0 the geometric sum gives
    |A^(j)| = sin(pi (j s mod p) / p) / (p sin(pi j / p)), an exact identity.
    An int s gives a float; an array of s gives an array of norms, computed
    in blocks of at most L1_BLOCK_ENTRIES (s, j) terms, or one s at a time
    once p - 1 exceeds that.
    """
    s_arr = np.asarray(s, dtype=np.int64)
    if ((s_arr < 1) | (s_arr > p)).any():
        raise InputError("need 0 < s <= p")
    flat = s_arr.reshape(-1)
    out = np.empty(flat.size)
    j = np.arange(1, p, dtype=np.int64)
    den = p * np.sin(np.pi * j / p)
    rows = max(1, L1_BLOCK_ENTRIES // max(1, p - 1))
    for lo in range(0, flat.size, rows):
        blk = flat[lo:lo + rows]
        num = np.sin(np.pi * ((blk[:, None] * j) % p) / p)
        out[lo:lo + rows] = np.where(blk == p, 1.0, blk / p + (num / den).sum(axis=1))
    return float(out[0]) if s_arr.ndim == 0 else out.reshape(s_arr.shape)


def xor_residual_check(N: int, M: int) -> tuple[Fraction, Fraction, bool]:
    """Exact statistical distance of (x mod M), x uniform on Z_N, from uniform
    on Z_M, against the 2M/N residual bound. Requires gcd(M, N) = 1."""
    if not 0 < M < N:
        raise InputError("need 0 < M < N")
    if math.gcd(M, N) != 1:
        raise InputError("M and N must be coprime")
    base, t = divmod(N, M)
    # residues below t occur base+1 times, the rest base times
    l1_num = t * abs((base + 1) * M - N) + (M - t) * abs(base * M - N)
    dist = Fraction(l1_num, 2 * N * M)
    bound = Fraction(2 * M, N)
    return dist, bound, dist <= bound


@dataclass(frozen=True)
class MomentSumQuery:
    """Moment parameter t and (optional) probe-bound parameters Q, C_Q."""

    t: int
    Q: float | None = None
    c_q: float | None = None


def moment_sum(Y: Sequence[int], q: int, t: int | MomentSumQuery) -> int:
    """(1/q) sum_a |Y^(a)|^(2t), computed exactly as the number of 2t-tuples
    (x_1..x_t, y_1..y_t) in Y^(2t) with equal half-sums mod q."""
    if isinstance(t, MomentSumQuery):
        t = t.t
    if t < 1:
        raise InputError("t must be >= 1")
    ys = sorted(set(int(y) % q for y in Y))
    if len(ys) ** (2 * t) >= 2**62:
        raise BudgetError("|Y|^(2t) exceeds the exact integer budget")
    base = np.asarray(ys, dtype=np.int64)
    ones = np.ones(len(ys), dtype=np.int64)
    values, counts = base, ones
    for _ in range(t - 1):
        values, counts = cyclic_convolve(values, counts, base, ones, q)
    return int((counts * counts).sum())


def moment_reference_bound(size: int, q: int, t: int, Q: float, c_q: float) -> float:
    """|Y|^(2t) (C_Q |Y|^(-Q) + q^(-1+1/Q)): reported beside moment sums as a
    probe only (the constant C_Q is non-effective and caller-supplied)."""
    return size ** (2 * t) * (c_q * size ** (-Q) + q ** (-1 + 1 / Q))


def moment_probe(Y: Sequence[int], q: int, query: MomentSumQuery) -> dict:
    """Exact moment value, reported beside the caller-parameterized reference
    bound; never asserted (probe only)."""
    value = moment_sum(Y, q, query.t)
    size = len(set(int(y) % q for y in Y))
    ref = None
    if query.Q is not None and query.c_q is not None:
        ref = moment_reference_bound(size, q, query.t, query.Q, query.c_q)
    return {"moment": value, "size": size, "t": query.t,
            "reference_bound": ref, "probe_only": True}


def paley_double_sum(p: int, S: Sequence[int], T: Sequence[int],
                     index: int | None = None) -> float:
    """|sum_{s in S, t in T} chi(s + t)| / (|S| |T|), chi the multiplicative
    character of the given index (quadratic when None); chi(0) = 0."""
    if not S or not T:
        raise InputError("S and T must be nonempty")
    if index is None:
        index = (p - 1) // 2
    ind = np.asarray(nt.index_table(p), dtype=np.int64)
    s = np.asarray(sorted(set(S)), dtype=np.int64) % p
    tt = np.asarray(sorted(set(T)), dtype=np.int64) % p
    sums, counts = cyclic_convolve(s, np.ones(len(s), dtype=np.int64),
                                   tt, np.ones(len(tt), dtype=np.int64), p)
    chi = np.where(sums == 0, 0,
                   np.exp(2j * np.pi * (index * ind[sums] % (p - 1)) / (p - 1)))
    return abs((counts * chi).sum()) / (len(s) * len(tt))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

CSV_COLUMNS = ["config_digest", "source_digest", "size", "distance",
               "max_charsum", "bound", "ok", "seconds"]


def fmt17(x) -> str:
    if x is None:
        return ""
    return f"{float(x):.17g}"


@dataclass
class EvalReport:
    config_digest: str
    source_digest: str
    size: int
    distance: float
    max_charsum: float | None = None
    bound: float | None = None
    ok: bool = True
    seconds: float = 0.0
    asserted: bool = True
    extra: dict = field(default_factory=dict)
    per_character: list | None = None

    def csv_row(self) -> list[str]:
        return [self.config_digest, self.source_digest, str(self.size),
                fmt17(self.distance), fmt17(self.max_charsum), fmt17(self.bound),
                "1" if self.ok else "0", fmt17(self.seconds)]

    def to_json(self) -> dict:
        out = {"config_digest": self.config_digest, "source_digest": self.source_digest,
               "size": self.size, "distance": self.distance,
               "max_charsum": self.max_charsum, "bound": self.bound, "ok": self.ok,
               "seconds": self.seconds, "asserted": self.asserted}
        out.update(self.extra)
        if self.per_character is not None:
            out["per_character"] = self.per_character
        return out
