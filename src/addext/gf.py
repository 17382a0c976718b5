"""Finite-field arithmetic for F_{p^k}: irreducible polynomial search,
extension towers, and batch products, powers, traces, quadratic characters
and norm forms.

Polynomials over F_p are coefficient tuples, lowest degree first, with no
trailing zeros (the zero polynomial is ()). Field elements are encoded as
integers in [0, p^k): value = sum c_i p^i over the polynomial basis
1, theta, ..., theta^(k-1), theta the residue of x mod the field's modulus.

All field arithmetic is on arrays: N elements are an (N, k) array of those
F_p digits c_i, so that p^k never has to fit in a machine word: int64 where
its sums stay exact, Python ints (dtype object) above that (digit_dtype).
FieldSpec itself only names a field; encodings and digits convert by
numtheory's to_digits / from_digits (base p, k digits), and products, powers
and the embedding of F_q in F_{q^b} are mul_many, pow_many and the matrices
of _norm_maps.

Building a field is linear algebra over F_p too. find_irreducible tests
blocks of candidate moduli at once, each through its own Frobenius matrix
h -> h^p mod f (Rabin's test); get_extension finds the subfield F_q of
F_{q^b} from the Frobenius matrix of the extension, and its embedding and
lift are matrix powers of x -> x beta and x -> x theta.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, InputError
from .numtheory import from_digits, is_prime, to_digits

EXTENSION_BASE_CAP = 1 << 16  # largest base field get_extension accepts
NORM_CHUNK = 2048  # rows per step of the chunked routes; their arrays hold O(NORM_CHUNK * k) ints


# ---------------------------------------------------------------------------
# polynomial helpers over F_p
# ---------------------------------------------------------------------------

def _norm(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def poly_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    """a mod m for monic m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        lead = a[-1] % p
        if lead:
            off = len(a) - 1 - dm
            for i in range(dm):
                a[off + i] = (a[off + i] - lead * m[i]) % p
        a.pop()
    return _norm(tuple(x % p for x in a))


def poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """Monic gcd over F_p."""
    a, b = _norm(tuple(x % p for x in a)), _norm(tuple(x % p for x in b))
    while b:
        inv = pow(b[-1], -1, p)
        monic_b = tuple(x * inv % p for x in b)
        a, b = b, poly_mod(a, monic_b, p)
    if not a:
        return ()
    inv = pow(a[-1], -1, p)
    return tuple(x * inv % p for x in a)


# ---------------------------------------------------------------------------
# irreducibility, on blocks of candidates: row i of a (B, k) digit array is
# the tail of the monic f_i = x^k + sum_j tails[i, j] x^j
# ---------------------------------------------------------------------------

_CERTIFIED: set = set()  # (modulus, p) that _first_irreducible proved irreducible


def _sum_dtype(p: int, k: int) -> type:
    """int64 where a sum of k products of F_p digits (at most k (p-1)^2) fits
    it, as in a product of k x k matrices mod p, else object: Python ints."""
    return np.int64 if k * (p - 1) ** 2 < 1 << 63 else object


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
    h -> h^p (row i is x^(i p)), and Rabin's test x^(p^k) = x by k steps
    through frob. The survivors, in order, get the scalar part of the
    certificate, gcd(x^(p^(k/t)) - x, f) = 1 for every prime t | k; the first
    row that passes is recorded in _CERTIFIED.
    """
    k = tails.shape[1]
    keep = np.flatnonzero(_root_free(tails, p))
    times_x = np.zeros((len(keep), k, k), dtype=tails.dtype)
    times_x[:, np.arange(k - 1), np.arange(1, k)] = 1
    times_x[:, -1] = -tails[keep] % p
    times_xp = _ladder(lambda a, b: a @ b % p, times_x, p)
    frob = np.zeros_like(times_x)
    frob[:, 0, 0] = 1
    for i in range(1, k):
        frob[:, i] = (frob[:, i - 1, None] @ times_xp)[:, 0] % p
    divisors = {k // t for t in range(2, k + 1)
                if k % t == 0 and all(t % s for s in range(2, t))}
    h, saved = times_x[:, 0], {}  # x
    for j in range(1, k + 1):
        h = (h[:, None] @ frob)[:, 0] % p
        if j in divisors:
            saved[j] = h.copy()
            saved[j][:, 1] -= 1  # x^(p^j) - x
    for i in np.flatnonzero((h == times_x[:, 0]).all(axis=1)).tolist():
        f = tuple(tails[keep[i]].tolist()) + (1,)
        if all(poly_gcd(g[i].tolist(), f, p) == (1,) for g in saved.values()):
            _CERTIFIED.add((f, p))
            return int(keep[i])
    return None


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Whether poly is a monic irreducible over F_p, p prime: _first_irreducible
    on one row, unless the polynomial is already certified."""
    f = _norm(tuple(x % p for x in poly))
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        return False
    if k == 1 or (f, p) in _CERTIFIED:
        return True
    return is_prime(p) and _first_irreducible(np.array([f[:-1]], dtype=_sum_dtype(p, k)), p) == 0


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidates are ordered by their non-leading coefficient vector read as a
    base-p integer (constant term least significant). They are tested in
    blocks by _first_irreducible: k rows first (about one in k is
    irreducible), then twice as many each time, up to NORM_CHUNK // k rows,
    whose k x k matrices hold at most NORM_CHUNK k ints.
    """
    if k < 1:
        raise InputError("degree must be >= 1")
    if k == 1:
        return (0, 1)
    if not is_prime(p):
        raise InputError(f"p = {p} is not prime")
    start, size, end, dtype = 0, k, p**k, _sum_dtype(p, k)
    while start < end:
        size = min(size, max(1, NORM_CHUNK // k))
        tails = to_digits(np.arange(start, min(start + size, end)), p, k).astype(dtype)
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


@functools.lru_cache(maxsize=None)
def get_extension(base: FieldSpec, degree: int) -> ExtensionField:
    """Canonical degree-b extension of the given base field, with embedding."""
    if degree < 1:
        raise InputError("extension degree must be >= 1")
    q = base.order
    if q > EXTENSION_BASE_CAP:
        raise BudgetError(f"base field of order {q} exceeds the extension cap "
                          f"{EXTENSION_BASE_CAP}")
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

def digit_dtype(spec: FieldSpec) -> type:
    """int64 where it holds every encoding and every sum of _mul_digits
    (_sum_dtype), else object: Python ints, exact at any size."""
    return _sum_dtype(spec.p, spec.k) if spec.order - 1 < 1 << 63 else object


@functools.lru_cache(maxsize=None)
def _reduction_matrix(spec: FieldSpec) -> np.ndarray:
    """Row j holds the digits of x^(k+j) mod the modulus, j < k - 1."""
    k = spec.k
    out = np.zeros((k - 1, k), dtype=np.int64)
    for j in range(k - 1):
        r = poly_mod((0,) * (k + j) + (1,), spec.modulus, spec.p)
        out[j, :len(r)] = r
    out.flags.writeable = False  # cached: shared by every caller
    return out


def _mul_digits(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise products of (N, k) digit arrays: the 2k-1 product coefficients
    mod p, then the top k-1 folded down by the modulus. No sum exceeds
    k (p-1)^2, so int64 digits stay exact where digit_dtype gives int64."""
    p, k = spec.p, spec.k
    c = np.zeros((a.shape[0], 2 * k - 1), dtype=a.dtype)
    for i in range(k):
        c[:, i:i + k] += a[:, i, None] * b
    c %= p
    return (c[:, :k] + c[:, k:] @ _reduction_matrix(spec)) % p


def _uses_bitmasks(spec: FieldSpec) -> bool:
    """Whether an F_{2^k} product fits a uint64 bitmask before reduction."""
    return spec.p == 2 and 2 * spec.k - 1 <= 64


@functools.lru_cache(maxsize=None)
def _gf2_mod_mask(spec: FieldSpec) -> int:
    return sum(c << i for i, c in enumerate(spec.modulus))


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


def _to_bits(digits: np.ndarray) -> np.ndarray:
    return (digits << np.arange(digits.shape[-1], dtype=np.int64)).sum(axis=-1).astype(np.uint64)


def _from_bits(spec: FieldSpec, bits: np.ndarray) -> np.ndarray:
    return ((bits[:, None] >> np.arange(spec.k, dtype=np.uint64)) & np.uint64(1)).astype(np.int64)


def _ladder(mul: Callable, a: np.ndarray, e: int) -> np.ndarray:
    """a^e for e >= 1 by right-to-left square-and-multiply."""
    result = None
    while True:
        if e & 1:
            result = a.copy() if result is None else mul(result, a)
        e >>= 1
        if not e:
            return result
        a = mul(a, a)


def mul_many(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The field product of each row pair of two (N, k) digit arrays, in the
    dtype that digit_dtype gives for the field (int64 digits are exact only
    where it gives int64)."""
    if _uses_bitmasks(spec):
        return _from_bits(spec, _mul_bits(spec, _to_bits(a), _to_bits(b)))
    return _mul_digits(spec, a, b)


def pow_many(spec: FieldSpec, a: np.ndarray, e: int) -> np.ndarray:
    """x^e, e >= 1, for each row x of an (N, k) digit array (in the dtype of
    digit_dtype, as for mul_many)."""
    if e < 1:
        raise InputError("pow_many takes exponents >= 1")
    if _uses_bitmasks(spec):
        return _from_bits(spec, _ladder(functools.partial(_mul_bits, spec), _to_bits(a), e))
    return _ladder(functools.partial(_mul_digits, spec), a, e)


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


def _trace_images(ext: FieldSpec, base: FieldSpec) -> np.ndarray:
    """T(theta^i) = sum_{j<b} theta^(i q^j) for the K monomials theta^i of ext,
    as a (K, K) int64 digit array. h -> h^p is F_p-linear, with the matrix phi
    whose row i is theta^(i p) (one pow_many on the identity); h -> h^q is
    phi^k, and the images are the sum of its first b powers, all matmuls mod p."""
    p = ext.p
    eye = np.eye(ext.k, dtype=np.int64)
    phi = pow_many(ext, eye, p)
    frob_q = eye
    for _ in range(base.k):
        frob_q = frob_q @ phi % p
    cur = images = eye
    for _ in range(ext.k // base.k - 1):
        cur = cur @ frob_q % p
        images = (images + cur) % p
    return images


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
        u = to_digits(np.arange(s, min(s + NORM_CHUNK, q)), p, k) @ basis % p
        acc = np.zeros_like(u)
        acc[:, 0] = 1  # the modulus is monic
        for coef in reversed(base.modulus[:-1]):
            acc = mul_many(ext, acc, u)
            acc[:, 0] = (acc[:, 0] + coef) % p
        roots += from_digits(u[~acc.any(axis=1)], p).tolist()
    if len(roots) != k:
        raise AssertionError("modulus does not split in the subfield")
    return min(roots)


@functools.lru_cache(maxsize=None)
def _norm_maps(ext: ExtensionField) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The F_p-linear maps of norms_many, as int64 matrices over F_p digits:

    * embed (k, K): base digits c_0..c_(k-1) to the E digits of the image
      sum c_j beta^j; row j is beta^j, row j - 1 times the matrix of x -> x beta;
    * lift (b k, K): base digits of c_1..c_b to the E digits of
      sum embed(c_i) theta^(i-1); rows i k to i k + k - 1 are embed times
      theta^i, the block before them times the matrix of x -> x theta;
    * pivots (k,), back (k, k): E digits of an embedded element, read on the
      pivot columns of embed, times back give its base digits.
    """
    base, E = ext.base, ext.ext
    p, k, K = base.p, base.k, E.k
    eye = np.eye(K, dtype=np.int64)
    beta = to_digits(ext.beta, p, K).astype(np.int64)  # Python ints where p^K > 2^63
    times_beta = mul_many(E, eye, np.broadcast_to(beta, eye.shape))
    embed = [eye[0]]
    for _ in range(k - 1):
        embed.append(embed[-1] @ times_beta % p)
    embed = np.array(embed)
    lift = [embed]
    if ext.degree > 1:  # theta is the monomial x of E
        times_theta = mul_many(E, eye, np.broadcast_to(eye[1], eye.shape))
        for _ in range(ext.degree - 1):
            lift.append(lift[-1] @ times_theta % p)
    lift = np.concatenate(lift)
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
    v = u[:, pivots] @ back % p
    if not (v @ embed % p == u).all():
        raise AssertionError("norm value escaped the base field")
    return v


def _norms_by(ext: ExtensionField, coords, power: Callable) -> np.ndarray:
    """power(u) in F_q, as int64 base-field encodings, for the lift u of each
    row of an (N, <= b) array of base-field coordinates into E.

    Per chunk of NORM_CHUNK rows: the lift as one matmul mod p, power on all
    rows at once, and the way back to F_q through the linear inverse of the
    embedding, checked by re-embedding.
    """
    c = np.asarray(coords, dtype=np.int64)
    if c.ndim != 2 or c.shape[1] > ext.degree:
        raise InputError("expected an (N, b) array of at most b coordinates")
    p = ext.base.p
    lift = _norm_maps(ext)[0][:c.shape[1] * ext.base.k]
    out = np.empty(len(c), dtype=np.int64)
    for s in range(0, len(c), NORM_CHUNK):
        chunk = to_digits(c[s:s + NORM_CHUNK], p, ext.base.k)
        u = power(chunk.reshape(len(chunk), -1) @ lift % p)
        out[s:s + NORM_CHUNK] = from_digits(_to_base(ext, u), p)
    return out


def norms_many(ext: ExtensionField, coords) -> np.ndarray:
    """Norm form of F_{q^b}/F_q at each row c_1..c_b of an (N, <= b) array of
    base-field coordinates (missing ones are 0): u^((q^b-1)/(q-1)) for
    u = sum c_i alpha_i, by one power ladder on all rows at once.

    Zero iff all coordinates are zero; homogeneous of degree b.
    """
    return _norms_by(ext, coords,
                     lambda u: pow_many(ext.ext, u, ext.norm_exponent))


def conjugate_norms_many(ext: ExtensionField, coords) -> np.ndarray:
    """norms_many by another route, the product u u^q ... u^(q^(b-1)) of the
    b conjugates of u: the oracle of the norms suite."""
    def product(u):
        acc = u
        for _ in range(ext.degree - 1):
            u = pow_many(ext.ext, u, ext.base.order)
            acc = mul_many(ext.ext, acc, u)
        return acc
    return _norms_by(ext, coords, product)
