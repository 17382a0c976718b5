"""Brute-force verification core: exact statistical distances, additive
character sums, polynomial values over F_p, Fourier L1 norms of intervals,
residuals of the mod-M reduction map, and moment sums.

Complex accumulations use numpy double precision; every quantity compared at a
tolerance is normalized, and element counts stay far below the scale where
rounding could reach the 1e-6 acceptance tolerance. Distances and residuals
that the checks require exactly are computed in integer/rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import extractors
from .canonical import digest
from .errors import BudgetError, InputError
from .numtheory import MulGather, from_digits, matmul_mod, mul_mod, product_steps, to_digits
from .sources import BOHR_CHUNK, Source, check_cost, convolve_rows, element_budget

TOL = 1e-6


# ---------------------------------------------------------------------------
# output distributions and statistical distance
# ---------------------------------------------------------------------------

def extractor_distribution(outputs: Sequence[int], support: int) -> np.ndarray:
    """Exact histogram of an extractor's outputs over a source (uniform
    weights): the int64 count of each output value in [0, support)."""
    counts = np.bincount(np.asarray(outputs, dtype=np.int64), minlength=support)
    if len(counts) != support:
        raise InputError(f"an output outside [0, {support})")
    return counts


def distance_to_uniform(counts: np.ndarray) -> float:
    """(1/2) sum |c/N - 1/M| over the counts c of N outputs in M = len(counts)
    values, as one integer sum rounded once: sum |c M - N| = 2 (M S - N k)
    over the k counts c > floor(N / M), whose sum is S (the terms c M - N sum
    to 0 and are positive exactly there)."""
    M, N = len(counts), int(counts.sum())
    above = counts[counts > N // M]
    return float(Fraction(M * int(above.sum()) - N * len(above), N * M))


def evaluate(X: Source, cfg) -> tuple[np.ndarray, EvalReport]:
    """The outputs of cfg at X's elements (extractors.extract_many), and the
    report of their exact distance from uniform on cfg.M outputs, with their
    histogram as extra["outputs"]."""
    outputs = extractors.extract_many(cfg, X.elements)
    counts = extractor_distribution(outputs, cfg.M)
    return outputs, EvalReport(config_digest=digest(cfg.to_json()), source_digest=X.digest,
                               size=len(X), distance=distance_to_uniform(counts),
                               extra={"outputs": counts.tolist()})


# ---------------------------------------------------------------------------
# characters and character sums
# ---------------------------------------------------------------------------

def character_digits(X: Source) -> np.ndarray:
    """X's digits (Group.digits), for the characters x -> e(<a, x> / m) of
    Z_m^N. F_q^n labels its additive characters through the trace form, not
    by digits, so an F_q^n source is an input error."""
    if X.group.field:
        raise InputError("additive characters over Z_p, Z_p^n or Z_N only")
    return X.group.digits(X.elements)


def additive_charsum(X: Source, a) -> float:
    """|sum_x e(<a, x> / m)| / |X| over the source, the frequency a an
    element of the group (an int over Z_p and Z_N, a coordinate tuple over
    Z_p^n)."""
    digits = character_digits(X)
    m = X.group.zmn[0]
    index = from_digits(X.group.digits([a]).reshape(1, -1) % m, m)
    return float(charsum_table(digits, m, index)[0])


CHARSUM_CHUNK = 1 << 12  # frequencies per CSV write of the charsum command


def charsum_table(values, modulus: int, frequencies: Sequence[int]) -> np.ndarray:
    """|sum_y e(<a, y> / modulus)| / |values| for each requested frequency
    a, over a multiset of elements y of Z_m^N, m = modulus: (count,)
    residues when N = 1, or (count, N) digit rows (Group.digits). Each
    frequency is given by its index, the base-m number of its digits: a
    range, an int64 array, or a sequence of ints.

    When m^N <= min(|frequencies| |values|, element_budget()) one fftn of
    the multiset's histogram on shape (m,)*N gives every frequency at once,
    read at the indices as one int64 array (every index is below m^N there).
    Otherwise the sums are taken directly over the exact residues <a, y> mod
    m (numtheory.matmul_mod), in chunks of frequencies of at most BOHR_CHUNK
    / 4 residues (at least one frequency), after their work |frequencies|
    |values| N product_steps(m, N) is checked by check_cost, the one place a
    budget refusal happens.
    """
    if len(values) == 0:
        raise InputError("empty multiset")
    rows = np.asarray(values, dtype=np.int64).reshape(len(values), -1) % modulus
    N = rows.shape[1]
    order = modulus**N
    if order <= min(len(frequencies) * len(rows), element_budget()):
        shape = (modulus,) * N  # axis j is digit j
        hist = np.bincount(from_digits(rows, modulus), minlength=order).reshape(shape, order="F")
        spectrum = np.abs(np.fft.fftn(hist)).ravel(order="F")
        index = (np.arange(frequencies.start, frequencies.stop, frequencies.step)
                 if isinstance(frequencies, range) else np.asarray(frequencies, dtype=np.int64))
        return spectrum[index % order] / len(rows)
    check_cost(f"{len(frequencies)} character sums over {len(rows)} elements of Z_{modulus}^{N}",
               work=len(frequencies) * len(rows) * N * product_steps(modulus, N))
    out = np.empty(len(frequencies))
    step = max(1, BOHR_CHUNK // 4 // len(rows))  # 256 KiB of complex128 per chunk
    for lo in range(0, len(frequencies), step):
        chunk = to_digits([int(xi) % order for xi in frequencies[lo:lo + step]], modulus, N)
        sums = np.exp(2j * np.pi * matmul_mod(chunk, rows.T, modulus) / modulus).sum(axis=1)
        out[lo:lo + step] = np.hypot(sums.real, sums.imag)  # abs() of each sum, to the bit
    return out / len(rows)


# ---------------------------------------------------------------------------
# polynomial sums over F_p
# ---------------------------------------------------------------------------

def poly_eval_all(coeffs, p: int) -> np.ndarray:
    """f(t) for all t in F_p; coefficients low degree first.

    A coefficient vector gives the p values of one polynomial; a (rows, d+1)
    coefficient matrix gives a (rows, p) matrix, one polynomial per row. One
    numtheory.matmul_mod with the (d+1) x p table of t^j mod p (mul_mod),
    after the table and the result are checked against the element budget
    (check_cost).
    """
    c = np.asarray(coeffs)
    terms = c.shape[-1]
    rows = math.prod(c.shape[:-1])
    check_cost(f"evaluating {rows} polynomials of {terms} terms at p = {p} points",
               held=p * max(rows, terms))
    powers = np.ones((terms, p), dtype=np.int64)
    t = np.arange(p, dtype=np.int64)
    for j in range(1, terms):
        powers[j] = mul_mod(powers[j - 1], t, p)
    values = matmul_mod((c % p).astype(np.int64).reshape(rows, terms), powers, p)
    return values.reshape(*c.shape[:-1], p)


L1_BLOCK_ENTRIES = 1 << 20


def fourier_l1_interval(p: int, s):
    """L1 Fourier norm of the indicator of {0..s-1} in Z_p: sum_j |A^(j)|.

    j = 0 term is s/p; for j != 0 the geometric sum gives
    |A^(j)| = sin(pi (j s mod p) / p) / (p sin(pi j / p)), an exact identity.
    An int s gives a float; an array of s gives an array of norms, computed
    in blocks of at most L1_BLOCK_ENTRIES (s, j) terms, or one s at a time
    once p - 1 exceeds that, the numerators of a block one take of
    numtheory.MulGather from the p sines.
    """
    s_arr = np.asarray(s, dtype=np.int64)
    if ((s_arr < 1) | (s_arr > p)).any():
        raise InputError("need 0 < s <= p")
    flat = s_arr.reshape(-1)
    out = np.empty(flat.size)
    # sin(pi r / p) for every residue r: the same bits as sin() of each entry
    sines = np.sin(np.pi * np.arange(p, dtype=np.int64) / p)
    at_products = MulGather(sines, p)
    j = np.arange(1, p, dtype=np.int64)
    den = p * sines[1:]
    rows = max(1, L1_BLOCK_ENTRIES // max(1, p - 1))
    for lo in range(0, flat.size, rows):
        blk = flat[lo:lo + rows]
        terms = at_products.at(blk % p, j)  # sin(pi (j s mod p) / p)
        terms /= den
        out[lo:lo + rows] = np.where(blk == p, 1.0, blk / p + terms.sum(axis=1))
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


def moment_sum(Y: Sequence[int], q: int, t: int) -> int:
    """(1/q) sum_a |Y^(a)|^(2t), computed exactly as the number of 2t-tuples
    (x_1..x_t, y_1..y_t) in Y^(2t) with equal half-sums mod q, from t - 1
    convolutions of the 0/1 histogram of Y mod q (q held, by check_cost)."""
    if t < 1:
        raise InputError("t must be >= 1")
    check_cost(f"a moment sum mod {q}", held=q)
    base = np.zeros(q, dtype=np.int64)
    base[np.asarray(Y, dtype=np.int64) % q] = 1
    if int(base.sum()) ** (2 * t) >= 2**62:
        raise BudgetError("|Y|^(2t) exceeds the exact integer budget")
    counts = base
    for _ in range(t - 1):
        counts = convolve_rows(counts[None], base[None], q)[0]
    return int((counts * counts).sum())


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

CSV_COLUMNS = ["config_digest", "source_digest", "size", "distance",
               "max_charsum", "bound", "ok", "seconds"]


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
    extra: dict = field(default_factory=dict)  # its other keys, as a sweep row's per_character

    def to_json(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"},
                **self.extra}
