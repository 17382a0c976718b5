"""Finite-field arithmetic for F_{p^k}: irreducible polynomial search,
extension towers, and batch products, powers, traces, quadratic characters
and norm forms.

A field is F_p[x]/(f) for its modulus f, monic irreducible of degree k, read
mod p (FieldSpec.tail). Field elements are encoded as integers in [0, p^k):
value = sum c_i p^i over the polynomial basis 1, theta, ..., theta^(k-1),
theta the residue of x mod f.

All field arithmetic is on arrays: N elements are an (N, k) int64 array of
those F_p digits c_i, so that p^k never has to fit in a machine word, and
every product of digits mod p is numtheory's: mul_mod, and matmul_mod for
every matrix, exact for any p < 2^63. FieldSpec itself only names a field;
encodings and digits convert by numtheory's to_digits / from_digits (base p,
k digits), and products, powers and the embedding of F_q in F_{q^b} are
mul_many, pow_many and the matrices of _norm_maps.

Building a field is F_p linear algebra on arrays too (companion matrices
and their powers, no polynomial arithmetic). find_irreducible tests blocks
of candidate moduli at once, each by its own Frobenius matrix h -> h^p mod f
(Berlekamp's rank test); get_extension finds the subfield F_q of F_{q^b}
from the Frobenius matrix of the extension, and its embedding and lift are
matrix powers of x -> x beta and x -> x theta. The matrix of h -> h^q on
F_{q^b} (_frobenius) is built once per extension, as a power of the
Frobenius matrix that certified its modulus: it gives the trace images
of that subfield search and every conjugate of norms_many, whose norm
u u^q ... u^(q^(b-1)) is b - 1 steps through that matrix and b - 1
products, on digits or, in characteristic 2, on bitmasks (_native).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError
from .numtheory import (PRODUCT_CHUNK, add_mod, factorize, from_digits, int64_sums, is_prime,
                        matmul_mod, mul_mod, to_digits)

NORM_CHUNK = 2048  # rows per step of the chunked routes; their arrays hold O(NORM_CHUNK * k) ints


# ---------------------------------------------------------------------------
# F_p linear algebra: companion matrices, their powers, row reduction
# ---------------------------------------------------------------------------

def _companion(tails: np.ndarray, p: int) -> np.ndarray:
    """The matrix of h -> h x mod f = x^k + sum_j tail[j] x^j for each tail on
    the last axis of ``tails``: row i is x^(i+1) mod f."""
    k = tails.shape[-1]
    out = np.zeros(tails.shape + (k,), dtype=np.int64)
    out[..., np.arange(k - 1), np.arange(1, k)] = 1
    out[..., -1, :] = -tails % p
    return out


def _orbit(v: np.ndarray, m: np.ndarray, c: int, p: int) -> np.ndarray:
    """v, v m, ..., v m^(c-1) mod p on a new first axis, (c, ..., n), for row
    vectors v (..., n) and matrices m (..., n, n) that broadcast to v."""
    out = np.empty((c,) + v.shape, dtype=np.int64)
    for j in range(c):
        out[j] = v if j == 0 else matmul_mod(out[j - 1][..., None, :], m, p)[..., 0, :]
    return out


def _row_reduce(rows: Sequence[Sequence[int]],
                p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon basis of the row space of ``rows`` over F_p and the
    pivot column of each basis row (1 there, 0 in every other basis row)."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        row = [x % p for x in row]
        for bas, piv in zip(basis, pivots):
            f = row[piv]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, bas)]
        nz = next((i for i, x in enumerate(row) if x), None)
        if nz is None:
            continue
        inv = pow(row[nz], -1, p)
        row = [x * inv % p for x in row]
        for i, bas in enumerate(basis):
            f = bas[nz]
            if f:
                basis[i] = [(x - f * y) % p for x, y in zip(bas, row)]
        basis.append(row)
        pivots.append(nz)
    return basis, pivots


# ---------------------------------------------------------------------------
# irreducibility, on blocks of candidates: row i of a (B, k) digit array is
# the tail of the monic f_i = x^k + sum_j tails[i, j] x^j
# ---------------------------------------------------------------------------

_CERTIFIED: dict = {}  # (modulus, p) that _first_irreducible proved irreducible -> its frob


def _root_free(tails: np.ndarray, p: int) -> np.ndarray:
    """The rows whose f has no root in F_p (gcd(f, x^p - x) = 1), by f at
    every a in F_p, k values of a per matmul by the columns a^j; only where
    p <= k^2, since there this costs less than the Frobenius steps of
    _first_irreducible that it spares. All True where p > k^2."""
    k = tails.shape[1]
    free = np.ones(len(tails), dtype=bool)
    if p > k * k:
        return free
    for s in range(0, p, k):
        a = np.arange(s, min(s + k, p), dtype=np.int64)
        powers = np.ones((k + 1, len(a)), dtype=np.int64)  # row j: a^j mod p
        for j in range(1, k + 1):
            powers[j] = powers[j - 1] * a % p
        free &= ((tails @ powers[:k] + powers[k]) % p != 0).all(axis=1)
    return free


def _first_irreducible(tails: np.ndarray, p: int) -> int | None:
    """Index of the first row whose f is irreducible (k >= 2), or None.

    Rows with a root go first (_root_free). The others, all at once, as
    (rows, k, k) matrices mod their own f: times_x (h -> h x), its p-th
    power by a ladder of matmuls (h -> h x^p), the Frobenius matrix frob of
    h -> h^p (row i is x^(i p)), and x^(p^k) = x by k steps through frob, so
    that f | x^(p^k) - x is squarefree and (Berlekamp) has dim ker(frob - I)
    irreducible factors. The survivors, in order, are certified by
    rank(frob - I) = k - 1; the first that passes is recorded in _CERTIFIED,
    with its frob, the matrix of h -> h^p in F_p[x]/(f) (_frobenius).
    """
    k = tails.shape[1]
    keep = np.flatnonzero(_root_free(tails, p))
    times_x = _companion(tails[keep], p)
    x = times_x[:, 0]  # row 0 of times_x: x itself
    times_xp = _ladder(lambda a, b: matmul_mod(a, b, p), times_x, p)
    eye = np.eye(k, dtype=np.int64)
    frob = _orbit(np.broadcast_to(eye[0], x.shape), times_xp, k, p).swapaxes(0, 1)
    h = _orbit(x, frob, k + 1, p)[-1]  # x^(p^k)
    for i in np.flatnonzero((h == x).all(axis=1)).tolist():
        if len(_row_reduce((frob[i] - eye).tolist(), p)[0]) == k - 1:
            phi = frob[i].copy()
            phi.flags.writeable = False  # shared by every caller of _frobenius
            _CERTIFIED[tuple(tails[keep[i]].tolist()) + (1,), p] = phi
            return int(keep[i])
    return None


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Whether poly is a monic irreducible over F_p, p prime: _first_irreducible
    on one row, unless the polynomial is already certified."""
    f = tuple(np.trim_zeros([x % p for x in poly], "b"))
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        return False
    if k == 1 or (f, p) in _CERTIFIED:
        return True
    return is_prime(p) and _first_irreducible(np.array([f[:-1]], dtype=np.int64), p) == 0


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidates are ordered by their non-leading coefficient vector read as a
    base-p integer (constant term least significant). They are tested in
    blocks by _first_irreducible: k rows first (about one in k is
    irreducible), then twice as many each time, up to NORM_CHUNK // k rows,
    whose k x k matrices hold at most NORM_CHUNK k ints. The first p
    candidates, the binomials x^k + c, are skipped where none is irreducible:
    x^k - a is irreducible only if every prime factor of k divides p - 1, and
    p = 1 (mod 4) if 4 | k (Lidl and Niederreiter, Theorem 3.75).
    """
    if k < 1:
        raise InputError("degree must be >= 1")
    if k == 1:
        return (0, 1)
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    binomials = all((p - 1) % r == 0 for r in factorize(k)) and (k % 4 or p % 4 == 1)
    start, size, end = 0 if binomials else p, k, p**k
    while start < end:
        size = min(size, max(1, NORM_CHUNK // k))
        tails = to_digits(np.arange(start, min(start + size, end)), p, k)
        i = _first_irreducible(tails, p)
        if i is not None:
            return tuple(tails[i].tolist()) + (1,)
        start += len(tails)
        size *= 2
    raise InputError(f"no irreducible of degree {k} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """F_{p^k} presented as F_p[x]/(modulus), modulus monic irreducible of degree k."""

    p: int
    k: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise InputError("modulus must be monic of degree k")
        if not is_irreducible(self.modulus, self.p):
            raise InputError(f"modulus {self.modulus} is reducible over F_{self.p}")

    @classmethod
    def make(cls, p: int, k: int) -> "FieldSpec":
        return cls(p, k, find_irreducible(p, k))

    @property
    def tail(self) -> tuple[int, ...]:
        """The modulus below x^k reduced mod p, as the arithmetic reads it."""
        return tuple(c % self.p for c in self.modulus[:-1])

    @property
    def order(self) -> int:
        return self.p**self.k


# ---------------------------------------------------------------------------
# extension towers and norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionField:
    """E = F_{q^b} over K = F_q (q = p^k), realized flat as F_{p^(k*b)}.

    The K-basis of E is 1, theta, ..., theta^(b-1) with theta the polynomial
    generator of E; K embeds via a canonical root beta of K's modulus in E.
    """

    base: FieldSpec
    degree: int
    ext: FieldSpec
    beta: int
    norm_exponent: int


@functools.lru_cache(maxsize=None)
def get_extension(base: FieldSpec, degree: int) -> ExtensionField:
    """Canonical degree-b extension of the given base field, with embedding."""
    if degree < 1:
        raise InputError("extension degree must be >= 1")
    q = base.order
    e = (q**degree - 1) // (q - 1) if q > 1 else 1
    ext = FieldSpec.make(base.p, base.k * degree) if degree > 1 else base
    if degree == 1:
        beta = base.p if base.k > 1 else 0  # theta, the digits (0, 1)
    elif base.k == 1:
        beta = 0  # root of x; base elements embed as constants
    else:
        beta = _subfield_root(ext, base)
    out = ExtensionField(base, degree, ext, beta, e)
    _norm_maps(out)  # checks that the embedding is injective
    return out


# ---------------------------------------------------------------------------
# batch arithmetic on digit arrays
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _reduction_matrix(spec: FieldSpec) -> np.ndarray:
    """Row j holds the digits of x^(k+j) mod the modulus, j < k - 1: x^k, the
    last row of the companion matrix, times that matrix j times."""
    p, k = spec.p, spec.k
    times_x = _companion(np.array(spec.tail, dtype=np.int64), p)
    out = _orbit(times_x[-1], times_x, k - 1, p)
    out.flags.writeable = False  # cached: shared by every caller
    return out


def _mul_digits(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of (N, k) digit arrays: the 2k-1 product coefficients
    mod p, then the top k-1 folded down by the modulus (_reduction_matrix).
    Each output digit sums at most k products of digits: in int64, with one
    % for the fold and the low coefficients, while k (p-1)^2 < 2^63
    (int64_sums), else by mul_mod, PRODUCT_CHUNK products at a time, and
    add_mod."""
    p, k = spec.p, spec.k
    c = np.zeros((len(a), 2 * k - 1), dtype=np.int64)
    if int64_sums(p, k):
        for i in range(k):
            c[:, i:i + k] += a[:, i, None] * b
        c %= p
        return (c[:, :k] + c[:, k:] @ _reduction_matrix(spec)) % p
    step = max(1, PRODUCT_CHUNK // b.size)
    for s in range(0, k, step):
        products = mul_mod(a[:, s:s + step, None], b[:, None, :], p)  # row i - s: a_i b
        for i, row in enumerate(products.swapaxes(0, 1), s):
            c[:, i:i + k] = add_mod(c[:, i:i + k], row, p)
    return add_mod(c[:, :k], matmul_mod(c[:, k:], _reduction_matrix(spec), p), p)


def _uses_bitmasks(spec: FieldSpec) -> bool:
    """Whether an F_{2^k} product fits a uint64 bitmask before reduction."""
    return spec.p == 2 and 2 * spec.k - 1 <= 64


@functools.lru_cache(maxsize=None)
def _gf2_mod_mask(spec: FieldSpec) -> int:
    return int(from_digits(spec.tail + (1,), 2))


def _mul_bits(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F_{2^k} products of uint64 bitmasks (bit i the digit of theta^i):
    carry-less product, then the bits from 2k-2 down to k cleared by shifted
    copies of the modulus."""
    k = spec.k
    acc = np.zeros_like(a)
    for i in range(k):
        acc ^= (a << np.uint64(i)) * ((b >> np.uint64(i)) & np.uint64(1))
    mod_mask = np.uint64(_gf2_mod_mask(spec))
    for d in range(2 * k - 2, k - 1, -1):
        acc ^= (mod_mask << np.uint64(d - k)) * ((acc >> np.uint64(d)) & np.uint64(1))
    return acc


def _ladder(mul: Callable, a: np.ndarray, e: int) -> np.ndarray:
    """a^e for e >= 1 by right-to-left square-and-multiply, each multiply but
    the last in one call with the squaring beside it, on their rows stacked:
    half the calls, for operands small enough that a call costs more than
    its arithmetic (numtheory's limb products of K x K matrices)."""
    result = None
    while e > 1:
        if e & 1 and result is not None:
            both = mul(np.concatenate([result, a]), np.concatenate([a, a]))
            result, a = both[:len(a)], both[len(a):]
        else:
            if e & 1:
                result = a
            a = mul(a, a)
        e >>= 1
    return a.copy() if result is None else mul(result, a)


def _native(spec: FieldSpec) -> tuple[Callable, Callable, Callable]:
    """The field's working form for runs of products, as (mul, to, back): its
    product, and the maps to it from (N, k) digit arrays and back. uint64
    bitmasks (_mul_bits) where _uses_bitmasks, whose codes below 2^k <= 2^32
    pass through int64; else the digits themselves (_mul_digits)."""
    if _uses_bitmasks(spec):
        return (functools.partial(_mul_bits, spec),
                lambda a: from_digits(a, 2).astype(np.uint64),
                lambda x: to_digits(x.astype(np.int64), 2, spec.k))
    return functools.partial(_mul_digits, spec), lambda a: a, lambda x: x


def _linear_map(spec: FieldSpec, m: np.ndarray) -> Callable:
    """x -> x m on the working form of _native, for the (k, k) matrix m of an
    F_p-linear map (row i the digits of the image of theta^i): the XOR of the
    rows' bitmasks that the bits of x select, or x @ m mod p on digits."""
    if not _uses_bitmasks(spec):
        return lambda x: matmul_mod(x, m, spec.p)
    masks = from_digits(m, 2).astype(np.uint64)

    def apply(x):
        out = np.zeros_like(x)
        for i, mask in enumerate(masks):
            out ^= mask * ((x >> np.uint64(i)) & np.uint64(1))
        return out
    return apply


def mul_many(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The field product of each row pair of two (N, k) digit arrays."""
    mul, to, back = _native(spec)
    return back(mul(to(a), to(b)))


def pow_many(spec: FieldSpec, a: np.ndarray, e: int) -> np.ndarray:
    """x^e, e >= 1, for each row x of an (N, k) digit array."""
    if e < 1:
        raise InputError("pow_many takes exponents >= 1")
    mul, to, back = _native(spec)
    return back(_ladder(mul, to(a), e))


def mul_table(spec: FieldSpec) -> np.ndarray:
    """The q x q table of field products on int encodings, by mul_many on
    NORM_CHUNK // q rows (at least one) at a time. It holds q^2 ints: the
    caller checks q^2 against its budget."""
    q = spec.order
    d = to_digits(np.arange(q), spec.p, spec.k)
    out = np.empty((q, q), dtype=np.int64)
    step = max(1, NORM_CHUNK // q)
    for s in range(0, q, step):
        rows = d[s:s + step]
        prods = mul_many(spec, np.repeat(rows, q, axis=0), np.tile(d, (len(rows), 1)))
        out[s:s + step] = from_digits(prods, spec.p).reshape(len(rows), q)
    return out


def trace_many(spec: FieldSpec, a: np.ndarray) -> np.ndarray:
    """Absolute trace a + a^2 + ... + a^(2^(k-1)) of F_{2^k} at each row of an
    (N, k) digit array, by k - 1 squarings: 0 or 1 per row."""
    if spec.p != 2:
        raise InputError("the trace to F_2 requires characteristic 2")
    acc = cur = a
    for _ in range(spec.k - 1):
        cur = mul_many(spec, cur, cur)
        acc = acc ^ cur
    if acc[:, 1:].any():
        raise AssertionError("trace left the prime field")
    return acc[:, 0]


def quadratic_character_many(spec: FieldSpec, a: np.ndarray) -> np.ndarray:
    """Quadratic character of F_q, q odd, at each row of an (N, k) digit
    array: 0 on 0, else a^((q-1)/2) read as 1 or -1 (int64)."""
    if spec.p == 2:
        raise InputError("quadratic character requires odd characteristic")
    e = pow_many(spec, a, (spec.order - 1) // 2)
    in_base = (e[:, 1:] == 0).all(axis=1)
    chi = np.zeros(len(e), dtype=np.int64)
    chi[in_base & (e[:, 0] == 1)] = 1
    chi[in_base & (e[:, 0] == spec.p - 1)] = -1
    if ((chi == 0) & (a != 0).any(axis=1)).any():
        raise AssertionError("square root of unity outside {1, -1}")
    return chi


@functools.lru_cache(maxsize=None)
def _frobenius(ext: FieldSpec, k: int) -> np.ndarray:
    """The (K, K) matrix of h -> h^q, q = p^k, on the digits of ext = F_(p^K):
    h -> h^p is F_p-linear, with the matrix phi whose row i is theta^(i p),
    the one that certified ext's modulus (_CERTIFIED; the identity at K = 1),
    and h -> h^q is phi^k (_orbit)."""
    p = ext.p
    eye = np.eye(ext.k, dtype=np.int64)
    is_irreducible(ext.modulus, p)  # certified afresh if _CERTIFIED lost it
    out = _orbit(eye, _CERTIFIED.get((ext.tail + (1,), p), eye), k + 1, p)[-1]
    out.flags.writeable = False  # cached: shared by every caller
    return out


def _trace_images(ext: FieldSpec, base: FieldSpec) -> np.ndarray:
    """T(theta^i) = sum_{j<b} theta^(i q^j) for the K monomials theta^i of ext,
    as a (K, K) digit array: the sum of the first b powers of the Frobenius
    matrix of h -> h^q (_frobenius, _orbit)."""
    frob_q = _frobenius(ext, base.k)
    eye = np.eye(ext.k, dtype=np.int64)
    return _orbit(eye, frob_q, ext.k // base.k, ext.p).sum(axis=0) % ext.p


def _subfield_root(ext: FieldSpec, base: FieldSpec) -> int:
    """The least encoding of a root of base.modulus in the subfield F_q of ext.

    The trace images of the K monomials span F_q over F_p; the selector
    digits times their row-reduced basis are its q elements, at which Horner
    evaluates the modulus, NORM_CHUNK at a time.
    """
    p, k, q = base.p, base.k, base.order
    rows, _ = _row_reduce(_trace_images(ext, base).tolist(), p)
    if len(rows) != k:
        raise AssertionError("trace image has wrong dimension")
    basis = np.array(rows, dtype=np.int64)
    roots = []
    for s in range(0, q, NORM_CHUNK):
        u = matmul_mod(to_digits(np.arange(s, min(s + NORM_CHUNK, q)), p, k), basis, p)
        acc = np.zeros_like(u)
        acc[:, 0] = 1  # the modulus is monic
        for coef in reversed(base.tail):
            acc = mul_many(ext, acc, u)
            acc[:, 0] = (acc[:, 0] + coef) % p
        roots += from_digits(u[~acc.any(axis=1)], p).tolist()
    if len(roots) != k:
        raise AssertionError("modulus does not split in the subfield")
    return min(roots)


@functools.lru_cache(maxsize=None)
def _norm_maps(ext: ExtensionField) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The F_p-linear maps of norms_many, as matrices over F_p digits:

    * embed (k, K): base digits c_0..c_(k-1) to the E digits of the image
      sum c_j beta^j; row j is beta^j, 1 times the matrix of x -> x beta j times;
    * lift (b k, K): base digits of c_1..c_b to the E digits of
      sum embed(c_i) theta^(i-1); rows i k to i k + k - 1 are embed times
      theta^i, embed times the companion matrix of E (x -> x theta) i times;
    * pivots (k,), back (k, k): E digits of an embedded element, read on the
      pivot columns of embed, times back give its base digits.
    """
    base, E = ext.base, ext.ext
    p, k, K = base.p, base.k, E.k
    eye = np.eye(K, dtype=np.int64)
    beta = to_digits(ext.beta, p, K)
    embed = _orbit(eye[0], mul_many(E, eye, np.broadcast_to(beta, eye.shape)), k, p)
    times_theta = _companion(np.array(E.tail, dtype=np.int64), p)  # theta is x in E
    lift = _orbit(embed, times_theta, ext.degree, p).reshape(-1, K)
    # row reducing [embed | I] gives [R | T] with T embed = R, R = I on the pivots
    rows, pivots = _row_reduce([e + [int(i == j) for j in range(k)]
                                for i, e in enumerate(embed.tolist())], p)
    if len(rows) != k or max(pivots) >= K:
        raise AssertionError("the embedding is not injective")
    maps = (lift, embed, np.array(pivots), np.array([r[K:] for r in rows], dtype=np.int64))
    for m in maps:
        m.flags.writeable = False  # cached: shared by every caller
    return maps


def _to_base(ext: ExtensionField, u: np.ndarray) -> np.ndarray:
    """Base digits of the embedded elements whose E digits are the rows of u:
    u read on the pivot columns of the embedding times its inverse there,
    checked by re-embedding."""
    p = ext.base.p
    _, embed, pivots, back = _norm_maps(ext)
    v = matmul_mod(u[:, pivots], back, p)
    if not (matmul_mod(v, embed, p) == u).all():
        raise AssertionError("norm value escaped the base field")
    return v


def _norms_by(ext: ExtensionField, coords, conjugate: Callable) -> np.ndarray:
    """The norm u conjugate(u) ... conjugate^(b-1)(u) in F_q, as int64
    base-field encodings, for the lift u of each row of an (N, <= b) array of
    base-field coordinates into E, conjugate(v) being v^q on E's working form
    (_native).

    Per chunk of NORM_CHUNK rows: the lift as one matmul mod p, b - 1
    conjugates and products on all rows at once, and the way back to F_q
    through the linear inverse of the embedding, checked by re-embedding.
    """
    c = np.asarray(coords, dtype=np.int64)
    if c.ndim != 2 or c.shape[1] > ext.degree:
        raise InputError("expected an (N, b) array of at most b coordinates")
    p = ext.base.p
    lift = _norm_maps(ext)[0][:c.shape[1] * ext.base.k]
    mul, to, back = _native(ext.ext)
    out = np.empty(len(c), dtype=np.int64)
    for s in range(0, len(c), NORM_CHUNK):
        chunk = to_digits(c[s:s + NORM_CHUNK], p, ext.base.k)
        u = acc = to(matmul_mod(chunk.reshape(len(chunk), -1), lift, p))
        for _ in range(ext.degree - 1):
            u = conjugate(u)
            acc = mul(acc, u)
        out[s:s + NORM_CHUNK] = from_digits(_to_base(ext, back(acc)), p)
    return out


def norms_many(ext: ExtensionField, coords) -> np.ndarray:
    """Norm form of F_{q^b}/F_q at each row c_1..c_b of an (N, <= b) array of
    base-field coordinates (missing ones are 0): the product u u^q ...
    u^(q^(b-1)) of the conjugates of u = sum c_i alpha_i, each conjugate the
    last one times the Frobenius matrix of h -> h^q (_frobenius,
    _linear_map), so b - 1 matrix steps and b - 1 products on all rows at once.

    Zero iff all coordinates are zero; homogeneous of degree b.
    """
    return _norms_by(ext, coords, _linear_map(ext.ext, _frobenius(ext.ext, ext.base.k)))


def conjugate_norms_many(ext: ExtensionField, coords) -> np.ndarray:
    """norms_many by another route, each conjugate u^q by a power ladder
    instead of the Frobenius matrix: the oracle of the norms suite."""
    mul = _native(ext.ext)[0]
    return _norms_by(ext, coords, lambda u: _ladder(mul, u, ext.base.order))
