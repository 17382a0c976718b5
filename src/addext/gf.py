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
FieldSpec itself only names a field and encodes its elements; products,
powers and the embedding of F_q in F_{q^b} are mul_many, pow_many and the
matrices of _norm_maps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, InputError

EXTENSION_BASE_CAP = 1 << 16  # largest base field get_extension accepts


# ---------------------------------------------------------------------------
# polynomial helpers over F_p
# ---------------------------------------------------------------------------

def _norm(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _norm(tuple(out))


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


def _poly_powmod(a: Sequence[int], e: int, m: Sequence[int], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = poly_mod(a, m, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), m, p)
        base = poly_mod(poly_mul(base, base, p), m, p)
        e >>= 1
    return result


def is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Irreducibility certificate: x^(p^k) = x mod f, and gcd(x^(p^(k/t)) - x, f) = 1
    for every prime t | k."""
    f = _norm(tuple(x % p for x in poly))
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        return False
    if k == 1:
        return True
    x = (0, 1)
    frob = {0: x}  # x^(p^j) mod f
    h = x
    for j in range(1, k + 1):
        h = _poly_powmod(h, p, f, p)
        frob[j] = h
    if frob[k] != poly_mod(x, f, p):
        return False
    k_prime_divs = {t for t in range(2, k + 1) if k % t == 0 and all(t % s for s in range(2, t))}
    for t in k_prime_divs:
        # g = x^(p^(k/t)) - x mod f must be coprime to f
        g_coeffs = list(frob[k // t]) + [0, 0]
        g_coeffs[1] = (g_coeffs[1] - 1) % p
        g = _norm(tuple(g_coeffs))
        if poly_gcd(g, f, p) != (1,):
            return False
    return True


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p.

    Candidates are ordered by their non-leading coefficient vector read as a
    base-p integer (constant term least significant).
    """
    if k < 1:
        raise InputError("degree must be >= 1")
    if k == 1:
        return (0, 1)
    for tail in range(p**k):
        coeffs = []
        t = tail
        for _ in range(k):
            coeffs.append(t % p)
            t //= p
        cand = tuple(coeffs) + (1,)
        if is_irreducible(cand, p):
            return cand
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

    def encode(self, coeffs: Sequence[int]) -> int:
        v = 0
        for c in reversed(tuple(coeffs)):
            v = v * self.p + c % self.p
        return v

    def decode(self, v: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)


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
        beta = base.encode((0, 1)) if base.k > 1 else 0
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

NORM_CHUNK = 2048  # rows per step of the chunked routes; their arrays hold O(NORM_CHUNK * k) ints


def digit_dtype(spec: FieldSpec) -> type:
    """int64 where it holds every encoding and every sum of _mul_digits (at
    most k (p-1)^2), else object: Python ints, exact at any size."""
    return np.int64 if max(spec.order - 1, spec.k * (spec.p - 1) ** 2) < 1 << 63 else object


def to_digits(spec: FieldSpec, codes) -> np.ndarray:
    """F_p digits of int encodings: shape (..., k), lowest degree first; int64,
    or Python ints where the codes are an object array."""
    codes = np.asarray(codes)
    if codes.dtype != object:
        codes = codes.astype(np.int64, copy=False)
    return codes[..., None] // spec.p ** np.arange(spec.k, dtype=codes.dtype) % spec.p


def from_digits(spec: FieldSpec, digits: np.ndarray) -> np.ndarray:
    """Int encodings of digit arrays (inverse of to_digits), in their dtype:
    int64 digits only where digit_dtype gives int64 (p^k <= 2^63)."""
    return digits @ spec.p ** np.arange(spec.k, dtype=digits.dtype)


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
    d = to_digits(spec, np.arange(q))
    out = np.empty((q, q), dtype=np.int64)
    step = max(1, NORM_CHUNK // q)
    for s in range(0, q, step):
        rows = d[s:s + step]
        prods = mul_many(spec, np.repeat(rows, q, axis=0), np.tile(d, (len(rows), 1)))
        out[s:s + step] = from_digits(spec, prods).reshape(len(rows), q)
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


def _subfield_root(ext: FieldSpec, base: FieldSpec) -> int:
    """The least encoding of a root of base.modulus in the subfield F_q of ext.

    The trace images T(theta^i) = sum_{j<b} theta^(i q^j) of the K monomials
    span F_q over F_p; the selector digits times their row-reduced basis are
    its q elements, at which Horner evaluates the modulus, NORM_CHUNK at a time.
    """
    p, k, q = base.p, base.k, base.order
    cur = images = np.eye(ext.k, dtype=np.int64)
    for _ in range(ext.k // k - 1):
        cur = pow_many(ext, cur, q)
        images = (images + cur) % p
    rows, _ = _row_reduce(images.tolist(), p)
    if len(rows) != k:
        raise AssertionError("trace image has wrong dimension")
    basis = np.array(rows, dtype=np.int64)
    roots = []
    for s in range(0, q, NORM_CHUNK):
        u = to_digits(base, np.arange(s, min(s + NORM_CHUNK, q))) @ basis % p
        acc = np.zeros_like(u)
        acc[:, 0] = 1  # the modulus is monic
        for coef in reversed(base.modulus[:-1]):
            acc = mul_many(ext, acc, u)
            acc[:, 0] = (acc[:, 0] + coef) % p
        roots += [ext.encode(r) for r in u[~acc.any(axis=1)].tolist()]
    if len(roots) != k:
        raise AssertionError("modulus does not split in the subfield")
    return min(roots)


@functools.lru_cache(maxsize=None)
def _norm_maps(ext: ExtensionField) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The F_p-linear maps of norms_many, as int64 matrices over F_p digits:

    * embed (k, K): base digits c_0..c_(k-1) to the E digits of the image
      sum c_j beta^j; row j is beta^j, by k - 1 products from 1;
    * lift (b k, K): base digits of c_1..c_b to the E digits of
      sum embed(c_i) theta^(i-1); rows i k to i k + k - 1 are embed times theta^i;
    * pivots (k,), back (k, k): E digits of an embedded element, read on the
      pivot columns of embed, times back give its base digits.
    """
    base, E = ext.base, ext.ext
    p, k, K = base.p, base.k, E.k
    eye = np.eye(K, dtype=np.int64)
    beta = np.array([E.decode(ext.beta)], dtype=np.int64)
    embed = eye[:1]
    for _ in range(k - 1):
        embed = np.concatenate([embed, mul_many(E, embed[-1:], beta)])
    # theta^i is the monomial x^i of E, as i < b <= K
    lift = np.concatenate([mul_many(E, embed, np.broadcast_to(eye[i], embed.shape))
                           for i in range(ext.degree)])
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
        chunk = to_digits(ext.base, c[s:s + NORM_CHUNK])
        u = power(chunk.reshape(len(chunk), -1) @ lift % p)
        out[s:s + NORM_CHUNK] = from_digits(ext.base, _to_base(ext, u))
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
