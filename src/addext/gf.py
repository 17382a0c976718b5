"""Finite-field arithmetic for F_{p^k}: irreducible polynomial search, element
arithmetic, Frobenius, traces, and norm-form evaluation for extension towers.

Polynomials over F_p are coefficient tuples, lowest degree first, with no
trailing zeros (the zero polynomial is ()). Field elements are encoded as
integers in [0, p^k): value = sum c_i p^i over the polynomial basis
1, theta, ..., theta^(k-1), theta the residue of x mod the field's modulus.

The batch routines at the end hold N elements as an (N, k) int64 array of
those F_p digits c_i, so that p^k never has to fit in a machine word.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

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

@functools.lru_cache(maxsize=None)
def _gf2_mod_mask(spec: "FieldSpec") -> int:
    return sum(c << i for i, c in enumerate(spec.modulus))


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

    # -- encoding ----------------------------------------------------------
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

    def elements(self) -> Iterator[int]:
        return iter(range(self.order))

    # -- arithmetic on int encodings ---------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.encode([x + y for x, y in zip(self.decode(a), self.decode(b))])

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        return self.encode([-x for x in self.decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.p == 2:
            return self._mul2(a, b)
        prod = poly_mul(self.decode(a), self.decode(b), self.p)
        return self.encode(poly_mod(prod, self.modulus, self.p))

    def _mul2(self, a: int, b: int) -> int:
        # carryless multiply then reduce; encodings are GF(2) bitmasks
        acc = 0
        while b:
            if b & 1:
                acc ^= a
            a <<= 1
            b >>= 1
        mod_mask = _gf2_mod_mask(self)
        top = acc.bit_length() - 1
        while top >= self.k:
            acc ^= mod_mask << (top - self.k)
            top = acc.bit_length() - 1
        return acc

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(a, self.order - 2)

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)


def trace_to_f2(spec: FieldSpec, a: int) -> int:
    """Absolute trace of F_{2^k} at the element encoded by a:
    Tr(a) = a + a^2 + ... + a^(2^(k-1)) in {0, 1}."""
    if spec.p != 2:
        raise InputError("trace_to_f2 requires characteristic 2")
    acc = 0
    cur = a
    for _ in range(spec.k):
        acc ^= cur
        cur = spec.mul(cur, cur)
    if acc not in (0, 1):
        raise AssertionError("trace left the prime field")
    return acc


def fq_quadratic_character(spec: FieldSpec, a: int) -> int:
    """Quadratic character of F_q for odd q: 0 on 0, else a^((q-1)/2) as +-1."""
    if spec.p == 2:
        raise InputError("quadratic character requires odd characteristic")
    if a == 0:
        return 0
    e = spec.pow(a, (spec.order - 1) // 2)
    if e == 1:
        return 1
    if e == spec.p - 1:  # the constant -1
        return -1
    raise AssertionError("square root of unity outside {1, -1}")


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
    _base_image: dict[int, int] = field(repr=False, compare=False)

    def embed(self, c: int) -> int:
        """Image in E of the base-field element c (Horner at beta)."""
        acc = 0
        for coef in reversed(self.base.decode(c)):
            acc = self.ext.mul(acc, self.beta)
            acc = self.ext.add(acc, coef)
        return acc

    def coerce_to_base(self, u: int) -> int:
        c = self._base_image.get(u)
        assert c is not None, "norm value escaped the base field"
        return c

    def lift(self, coords: Sequence[int]) -> int:
        """sum embed(c_i) * theta^(i-1) in E, for c_i in the base field."""
        theta = self.ext.encode((0, 1)) if self.ext.k > 1 else 1
        acc = 0
        power = 1
        for c in coords:
            if c:
                acc = self.ext.add(acc, self.ext.mul(self.embed(c), power))
            power = self.ext.mul(power, theta)
        return acc


def _row_reduce(rows: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row-echelon basis of the row space of ``rows`` over F_p, and the
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


def _subfield_elements(ext: FieldSpec, base_degree: int) -> list[int]:
    """All elements of the subfield F_{p^base_degree} inside ext, via the trace
    map onto the subfield and Gaussian elimination over F_p."""
    p, n = ext.p, ext.k
    b = n // base_degree
    q = p**base_degree
    # trace of each basis monomial: T(v) = sum_{j<b} v^(q^j)
    images = []
    for i in range(n):
        v = ext.encode(tuple(0 for _ in range(i)) + (1,)) if i else 1
        acc = 0
        cur = v
        for _ in range(b):
            acc = ext.add(acc, cur)
            cur = ext.pow(cur, q)
        images.append(list(ext.decode(acc)))
    basis, _ = _row_reduce(images, p)
    if len(basis) != base_degree:
        raise AssertionError("trace image has wrong dimension")
    out = []
    for sel in range(q):
        acc = [0] * n
        s = sel
        for bas in basis:
            c = s % p
            s //= p
            if c:
                acc = [(x + c * y) % p for x, y in zip(acc, bas)]
        out.append(ext.encode(acc))
    return out


@functools.lru_cache(maxsize=None)
def get_extension(base: FieldSpec, degree: int) -> ExtensionField:
    """Canonical degree-b extension of the given base field, with embedding."""
    if degree < 1:
        raise InputError("extension degree must be >= 1")
    q = base.order
    if q > EXTENSION_BASE_CAP:
        raise BudgetError(f"base field of order {q} too large for coercion tables")
    e = (q**degree - 1) // (q - 1) if q > 1 else 1
    if degree == 1:
        image = {c: c for c in range(q)}
        beta = base.encode((0, 1)) if base.k > 1 else 0
        return ExtensionField(base, 1, base, beta, e, image)
    ext = FieldSpec.make(base.p, base.k * degree)
    if base.k == 1:
        beta = 0  # root of x; base elements embed as constants
    else:
        candidates = _subfield_elements(ext, base.k)
        roots = []
        for u in candidates:
            # evaluate base.modulus at u in E (coefficients are constants)
            acc = 0
            for coef in reversed(base.modulus):
                acc = ext.mul(acc, u)
                acc = ext.add(acc, coef)
            if acc == 0:
                roots.append(u)
        if len(roots) != base.k:
            raise AssertionError("modulus does not split in the subfield")
        beta = min(roots)
    out = ExtensionField(base, degree, ext, beta, e, {})
    image = {out.embed(c): c for c in range(q)}
    assert len(image) == q, "embedding is not injective"
    object.__setattr__(out, "_base_image", image)
    return out


def norm_poly_eval(ext: ExtensionField, coords: Sequence[int]) -> int:
    """Norm form of F_{q^b}/F_q at base-field coordinates c_1..c_b: the value
    (sum c_i alpha_i)^((q^b-1)/(q-1)) coerced back to F_q.

    Zero iff all coordinates are zero; homogeneous of degree b.
    """
    coords = list(coords)
    if len(coords) > ext.degree:
        raise InputError("too many coordinates for the extension degree")
    coords += [0] * (ext.degree - len(coords))
    if not any(coords):
        return 0
    if not any(coords[1:]):
        # element of the embedded base field: all conjugates coincide
        return ext.base.pow(coords[0], ext.degree)
    u = ext.ext.pow(ext.lift(coords), ext.norm_exponent)
    return ext.coerce_to_base(u)


def norm_by_conjugates(ext: ExtensionField, coords: Sequence[int]) -> int:
    """Independent route: product over j of sum_i c_i alpha_i^(q^j)."""
    coords = list(coords) + [0] * (ext.degree - len(coords))
    q = ext.base.order
    s = ext.lift(coords)
    acc = 1
    cur = s
    for _ in range(ext.degree):
        acc = ext.ext.mul(acc, cur)
        cur = ext.ext.pow(cur, q)
    if acc == 0:
        return 0
    return ext.coerce_to_base(acc)


# ---------------------------------------------------------------------------
# batch arithmetic on digit arrays
# ---------------------------------------------------------------------------

NORM_CHUNK = 2048  # rows per step of norms_many; its arrays hold O(NORM_CHUNK * k) ints


def to_digits(spec: FieldSpec, codes) -> np.ndarray:
    """F_p digits of int encodings: shape (..., k), lowest degree first."""
    powers = spec.p ** np.arange(spec.k, dtype=np.int64)
    return np.asarray(codes, dtype=np.int64)[..., None] // powers % spec.p


def from_digits(spec: FieldSpec, digits: np.ndarray) -> np.ndarray:
    """Int encodings of digit arrays (inverse of to_digits; needs p^k < 2^63)."""
    return digits @ spec.p ** np.arange(spec.k, dtype=np.int64)


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
    mod p, then the top k-1 folded down by the modulus. Every int64 sum stays
    below k p^2, which is far from 2^63 for p <= EXTENSION_BASE_CAP."""
    p, k = spec.p, spec.k
    c = np.zeros((a.shape[0], 2 * k - 1), dtype=np.int64)
    for i in range(k):
        c[:, i:i + k] += a[:, i, None] * b
    c %= p
    return (c[:, :k] + c[:, k:] @ _reduction_matrix(spec)) % p


def _uses_bitmasks(spec: FieldSpec) -> bool:
    """Whether an F_{2^k} product fits a uint64 bitmask before reduction."""
    return spec.p == 2 and 2 * spec.k - 1 <= 64


def _mul_bits(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """FieldSpec._mul2 on uint64 arrays: carry-less product, then the bits
    from 2k-2 down to k cleared by shifted copies of the modulus."""
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
    """a^e for e >= 1 by the right-to-left square-and-multiply of FieldSpec.pow."""
    result = None
    while True:
        if e & 1:
            result = a.copy() if result is None else mul(result, a)
        e >>= 1
        if not e:
            return result
        a = mul(a, a)


def mul_many(spec: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """FieldSpec.mul on each row pair of two (N, k) digit arrays (p at most
    EXTENSION_BASE_CAP, so that int64 sums of products stay exact)."""
    if _uses_bitmasks(spec):
        return _from_bits(spec, _mul_bits(spec, _to_bits(a), _to_bits(b)))
    return _mul_digits(spec, a, b)


def pow_many(spec: FieldSpec, a: np.ndarray, e: int) -> np.ndarray:
    """FieldSpec.pow(x, e), e >= 1, on each row x of an (N, k) digit array
    (p at most EXTENSION_BASE_CAP, as for mul_many)."""
    if e < 1:
        raise InputError("pow_many takes exponents >= 1")
    if _uses_bitmasks(spec):
        return _from_bits(spec, _ladder(functools.partial(_mul_bits, spec), _to_bits(a), e))
    return _ladder(functools.partial(_mul_digits, spec), a, e)


@functools.lru_cache(maxsize=None)
def _norm_maps(ext: ExtensionField) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The F_p-linear maps of norms_many, as int64 matrices over F_p digits:

    * lift (b k, K): base digits of c_1..c_b to the E digits of ext.lift;
    * embed (k, K): base digits to the E digits of ext.embed;
    * pivots (k,), back (k, k): E digits of an embedded element, read on the
      pivot columns of embed, times back give its base digits.
    """
    base, E = ext.base, ext.ext
    p, k, K = base.p, base.k, E.k
    unit = [p**j for j in range(k)]
    lift = [E.decode(ext.lift([0] * i + [u])) for i in range(ext.degree) for u in unit]
    embed = [list(E.decode(ext.embed(u))) for u in unit]
    # row reducing [embed | I] gives [R | T] with T embed = R, R = I on the pivots
    rows, pivots = _row_reduce([e + [int(i == j) for j in range(k)]
                                for i, e in enumerate(embed)], p)
    assert len(rows) == k and max(pivots) < K, "the embedding is not injective"
    maps = (np.array(lift, dtype=np.int64), np.array(embed, dtype=np.int64),
            np.array(pivots), np.array([r[K:] for r in rows], dtype=np.int64))
    for m in maps:
        m.flags.writeable = False  # cached: shared by every caller
    return maps


def norms_many(ext: ExtensionField, coords) -> np.ndarray:
    """norm_poly_eval at each row of an (N, <= b) array of base-field
    coordinates, as int64 base-field encodings.

    Per chunk of NORM_CHUNK rows: the lift into E as one matmul mod p, the
    power ladder of ext.norm_exponent on all rows at once, and the way back to
    F_q through the linear inverse of the embedding, checked by re-embedding.
    """
    c = np.asarray(coords, dtype=np.int64)
    if c.ndim != 2 or c.shape[1] > ext.degree:
        raise InputError("expected an (N, b) array of at most b coordinates")
    p = ext.base.p
    lift, embed, pivots, back = _norm_maps(ext)
    lift = lift[:c.shape[1] * ext.base.k]
    out = np.empty(len(c), dtype=np.int64)
    for s in range(0, len(c), NORM_CHUNK):
        chunk = to_digits(ext.base, c[s:s + NORM_CHUNK])
        u = pow_many(ext.ext, chunk.reshape(len(chunk), -1) @ lift % p, ext.norm_exponent)
        v = u[:, pivots] @ back % p
        assert (v @ embed % p == u).all(), "norm value escaped the base field"
        out[s:s + NORM_CHUNK] = from_digits(ext.base, v)
    return out
