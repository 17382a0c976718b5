"""Slow, direct routes of shipped computations, kept as differential oracles
for the tests. Nothing in ``src/addext`` imports this module."""

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from addext import analysis, gf, numtheory as nt, sources as src
from addext.canonical import digest
from addext.errors import AddextError, InputError


class NotInSubgroupError(AddextError):
    """Discrete logarithm requested for an element outside the subgroup."""


@dataclass(frozen=True)
class OutputDistribution:
    """Histogram over a finite output alphabet, kept as exact counts (the
    oracle of analysis.extractor_distribution's bincount array)."""

    support: int
    counts: tuple[int, ...]
    total: int

    def __post_init__(self):
        if len(self.counts) != self.support or sum(self.counts) != self.total:
            raise InputError("inconsistent distribution counts")


def uniform(m: int) -> OutputDistribution:
    return OutputDistribution(m, (1,) * m, m)


def statistical_distance_exact(d1: OutputDistribution,
                               d2: OutputDistribution) -> Fraction:
    """(1/2) sum |d1_i - d2_i| as a sum of Fractions, one per output (the
    oracle of analysis.distance_to_uniform's one integer sum)."""
    if d1.support != d2.support:
        raise InputError("support mismatch")
    acc = Fraction(0)
    for a, b in zip(d1.counts, d2.counts):
        acc += abs(Fraction(a, d1.total) - Fraction(b, d2.total))
    return acc / 2


def statistical_distance(d1: OutputDistribution,
                         d2: OutputDistribution) -> float:
    return float(statistical_distance_exact(d1, d2))


def partial_ap_sum_prefix_max(p: int, coeffs, a: int) -> float:
    """max over all prefixes 1 <= s <= p of |sum_{t<s} e_p(a f(t))|, one
    polynomial and one frequency at a time (the partial-ap suite batches both)."""
    vals = analysis.poly_eval_all(coeffs, p)
    phases = np.exp(2j * np.pi * ((a * vals) % p) / p)
    return float(np.abs(np.cumsum(phases)).max())


# ---------------------------------------------------------------------------
# polynomials over F_p, as coefficient tuples lowest degree first with no
# trailing zeros (the zero polynomial is ()): the scalar route beside the
# F_p matrices of gf
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


def poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _norm(tuple(out))


def _poly_powmod(a: Sequence[int], e: int, m: Sequence[int], p: int) -> tuple[int, ...]:
    result: tuple[int, ...] = (1,)
    base = poly_mod(a, m, p)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base, p), m, p)
        base = poly_mod(poly_mul(base, base, p), m, p)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# one candidate at a time: the irreducibility certificate and search, and the
# trace images of the subfield F_q, that gf batches on digit arrays
# ---------------------------------------------------------------------------

def is_irreducible_by_frobenius(poly: Sequence[int], p: int) -> bool:
    """Irreducibility certificate, one polynomial at a time: x^(p^k) = x mod f,
    and gcd(x^(p^(k/t)) - x, f) = 1 for every prime t | k (Rabin's test, the
    route that gf's rank test on the Frobenius matrix replaced)."""
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


def find_irreducible_by_scan(p: int, k: int) -> tuple[int, ...]:
    """The lexicographically least monic irreducible of degree k over F_p, by
    is_irreducible_by_frobenius on one candidate tail after another (the
    constant term least significant)."""
    for tail in range(p**k):
        coeffs = []
        t = tail
        for _ in range(k):
            coeffs.append(t % p)
            t //= p
        cand = tuple(coeffs) + (1,)
        if is_irreducible_by_frobenius(cand, p):
            return cand
    raise InputError(f"no irreducible of degree {k} over F_{p}")


def trace_images_by_ladder(ext: gf.FieldSpec, base: gf.FieldSpec) -> np.ndarray:
    """T(theta^i) = sum_{j<b} theta^(i q^j) for the K monomials theta^i of
    ext, as a (K, K) digit array: b - 1 steps of pow_many(ext, ., q) on the
    identity."""
    p, q = base.p, base.order
    cur = images = np.eye(ext.k, dtype=np.int64)
    for _ in range(ext.k // base.k - 1):
        cur = gf.pow_many(ext, cur, q)
        images = (images + cur) % p
    return images


# ---------------------------------------------------------------------------
# one element at a time: the field and group arithmetic that the digit-array
# routes of gf and sources replaced (elements as int encodings, vectors as
# tuples of them)
# ---------------------------------------------------------------------------

def encode(spec: gf.FieldSpec, coeffs: Sequence[int]) -> int:
    """The int encoding of F_p coefficients, lowest degree first, reduced mod p."""
    return int(nt.from_digits(np.array(coeffs, dtype=object) % spec.p, spec.p))


def decode(spec: gf.FieldSpec, v: int) -> tuple[int, ...]:
    """The k F_p digits of an int encoding."""
    return tuple(nt.to_digits(v, spec.p, spec.k).tolist())


def fq_add(spec: gf.FieldSpec, a: int, b: int) -> int:
    if spec.p == 2:
        return a ^ b
    return encode(spec, [x + y for x, y in zip(decode(spec, a), decode(spec, b))])


def fq_neg(spec: gf.FieldSpec, a: int) -> int:
    if spec.p == 2:
        return a
    return encode(spec, [-x for x in decode(spec, a)])


def fq_sub(spec: gf.FieldSpec, a: int, b: int) -> int:
    return fq_add(spec, a, fq_neg(spec, b))


def fq_mul(spec: gf.FieldSpec, a: int, b: int) -> int:
    if spec.p == 2:
        return _fq_mul2(spec, a, b)
    prod = poly_mul(decode(spec, a), decode(spec, b), spec.p)
    return encode(spec, poly_mod(prod, spec.modulus, spec.p))


def _fq_mul2(spec: gf.FieldSpec, a: int, b: int) -> int:
    # carryless multiply then reduce; encodings are GF(2) bitmasks
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    mod_mask = sum(c << i for i, c in enumerate(spec.tail)) | 1 << spec.k
    top = acc.bit_length() - 1
    while top >= spec.k:
        acc ^= mod_mask << (top - spec.k)
        top = acc.bit_length() - 1
    return acc


def fq_pow(spec: gf.FieldSpec, a: int, e: int) -> int:
    if e < 0:
        return fq_pow(spec, fq_inv(spec, a), -e)
    result = 1
    base = a
    while e:
        if e & 1:
            result = fq_mul(spec, result, base)
        base = fq_mul(spec, base, base)
        e >>= 1
    return result


def fq_inv(spec: gf.FieldSpec, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of zero field element")
    return fq_pow(spec, a, spec.order - 2)


def embed(ext: gf.ExtensionField, c: int) -> int:
    """Image in E of the base-field element c (Horner at beta)."""
    acc = 0
    for coef in reversed(decode(ext.base, c)):
        acc = fq_mul(ext.ext, acc, ext.beta)
        acc = fq_add(ext.ext, acc, coef)
    return acc


def lift(ext: gf.ExtensionField, coords: Sequence[int]) -> int:
    """sum embed(c_i) * theta^(i-1) in E, for c_i in the base field."""
    E = ext.ext
    theta = encode(E, (0, 1)) if E.k > 1 else 1
    acc = 0
    power = 1
    for c in coords:
        if c:
            acc = fq_add(E, acc, fq_mul(E, embed(ext, c), power))
        power = fq_mul(E, power, theta)
    return acc


def group_add(group, x, y):
    if group.kind == "zp":
        return (x + y) % group.p
    if group.kind == "zn":
        return (x + y) % group.crt.combined_modulus
    if group.kind == "zp_vec":
        return tuple((a + b) % group.p for a, b in zip(x, y))
    return tuple(fq_add(group.field, a, b) for a, b in zip(x, y))


def group_neg(group, x):
    if group.kind == "zp":
        return -x % group.p
    if group.kind == "zn":
        return -x % group.crt.combined_modulus
    if group.kind == "zp_vec":
        return tuple(-a % group.p for a in x)
    return tuple(fq_neg(group.field, a) for a in x)


def group_sub(group, x, y):
    return group_add(group, x, group_neg(group, y))


def group_scale(group, t: int, x):
    """The base-field scalar t times x in a vector group: t in [0, p) over
    Z_p^n, an encoded element of F_q over F_q^n."""
    if group.kind == "zp_vec":
        return tuple(t * a % group.p for a in x)
    return tuple(fq_mul(group.field, t, a) for a in x)


def rep_count(X, g) -> int:
    """|X cap (X + g)|: the number of ways to represent g as a difference."""
    els = element_list(X.elements)
    members = set(els)
    return sum(1 for y in els if group_sub(X.group, y, g) in members)


# ---------------------------------------------------------------------------
# pairwise sums and differences: the oracles of sources.cyclic_convolve
# ---------------------------------------------------------------------------

def weighted_sums_by_unique(va, ca, vb, cb, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (a_i + b_k) mod m, increasing, and the total weight
    sum of ca_i cb_k over the pairs giving each: the weighted np.unique route
    that sources.cyclic_convolve had before it took unit weights only
    (residues below m < 2^62, weights whose products fit int64)."""
    va, ca, vb, cb = (np.asarray(x, dtype=np.int64) for x in (va, ca, vb, cb))
    keys, inverse = np.unique((va[:, None] + vb[None, :]) % m, return_inverse=True)
    counts = np.zeros(len(keys), dtype=np.int64)
    np.add.at(counts, inverse.ravel(), (ca[:, None] * cb[None, :]).ravel())
    return keys, counts


def differences_by_pairs(X) -> Counter:
    """rep_count(X, g) for every g in X - X, from all |X|^2 differences by
    group_sub (the vector-group route that sources.difference_histogram
    replaced)."""
    els = element_list(X.elements)
    return Counter(group_sub(X.group, x, y) for x in els for y in els)


def sym_set_by_pairs(X, alpha: float) -> set:
    """Sym_{1-alpha}(X) from the pairwise difference counts."""
    thresh = (1 - Fraction(alpha)) * len(X)
    return {g for g, c in differences_by_pairs(X).items() if c >= thresh}


def doubling_by_pairs(X) -> int:
    """|X + X| as the set of all |X|^2 sums by group_add."""
    els = element_list(X.elements)
    return len({group_add(X.group, x, y) for x in els for y in els})


# ---------------------------------------------------------------------------
# one field element at a time by the arithmetic above: the oracles of the
# digit-array routes gf.trace_many, gf.quadratic_character_many,
# gf.norms_many and extractors.extract_many
# ---------------------------------------------------------------------------

def prime_power_field(q: int) -> gf.FieldSpec:
    """F_q with p the least prime factor of q found by trial division."""
    if q < 2:
        raise InputError("q must be a prime power >= 2")
    p = min(f for f in nt.factorize(q))
    k = 0
    t = q
    while t % p == 0:
        t //= p
        k += 1
    if t != 1:
        raise InputError(f"{q} is not a prime power")
    return gf.FieldSpec.make(p, k)


def trace_to_f2(spec: gf.FieldSpec, a: int) -> int:
    """Absolute trace of F_{2^k} at the element encoded by a:
    Tr(a) = a + a^2 + ... + a^(2^(k-1)) in {0, 1}."""
    if spec.p != 2:
        raise InputError("trace_to_f2 requires characteristic 2")
    acc = 0
    cur = a
    for _ in range(spec.k):
        acc ^= cur
        cur = fq_mul(spec, cur, cur)
    if acc not in (0, 1):
        raise AssertionError("trace left the prime field")
    return acc


def fq_quadratic_character(spec: gf.FieldSpec, a: int) -> int:
    """Quadratic character of F_q for odd q: 0 on 0, else a^((q-1)/2) as +-1."""
    if spec.p == 2:
        raise InputError("quadratic character requires odd characteristic")
    if a == 0:
        return 0
    e = fq_pow(spec, a, (spec.order - 1) // 2)
    if e == 1:
        return 1
    if e == spec.p - 1:  # the constant -1
        return -1
    raise AssertionError("square root of unity outside {1, -1}")


def coerce_to_base(ext: gf.ExtensionField, u: int) -> int:
    """The base-field element c with embed(ext, c) = u (see gf._to_base)."""
    digits = np.array([decode(ext.ext, u)], dtype=np.int64)
    return encode(ext.base, gf._to_base(ext, digits)[0].tolist())


def norm_poly_eval(ext: gf.ExtensionField, coords: Sequence[int]) -> int:
    """Norm form of F_{q^b}/F_q at base-field coordinates c_1..c_b: the value
    (sum c_i alpha_i)^((q^b-1)/(q-1)) coerced back to F_q."""
    coords = list(coords)
    if len(coords) > ext.degree:
        raise InputError("too many coordinates for the extension degree")
    coords += [0] * (ext.degree - len(coords))
    if not any(coords):
        return 0
    if not any(coords[1:]):
        # element of the embedded base field: all conjugates coincide
        return fq_pow(ext.base, coords[0], ext.degree)
    u = fq_pow(ext.ext, lift(ext, coords), ext.norm_exponent)
    return coerce_to_base(ext, u)


def norm_by_conjugates(ext: gf.ExtensionField, coords: Sequence[int]) -> int:
    """Independent route: product over j of sum_i c_i alpha_i^(q^j)."""
    coords = list(coords) + [0] * (ext.degree - len(coords))
    q = ext.base.order
    s = lift(ext, coords)
    acc = 1
    cur = s
    for _ in range(ext.degree):
        acc = fq_mul(ext.ext, acc, cur)
        cur = fq_pow(ext.ext, cur, q)
    if acc == 0:
        return 0
    return coerce_to_base(ext, acc)


def block_norm(field: gf.FieldSpec, block, x: Sequence[int], n: int) -> int:
    """Norm form of the block's coordinate slice (coordinates >= n are padding)."""
    coords = [x[i] if i < n else 0 for i in range(block.start, block.start + block.size)]
    if not any(coords):
        return 0
    if not any(coords[1:]):
        # subfield element: every conjugate coincides, norm collapses to a power
        return fq_pow(field, coords[0], block.size)
    ext = gf.get_extension(field, block.size)
    return norm_poly_eval(ext, coords)


def line_poly_eval(x: Sequence[int], cfg) -> int:
    """f(x) = sum over blocks of the block norm form, an F_q value."""
    if len(x) != cfg.n:
        raise InputError(f"expected a point of F_q^{cfg.n}")
    acc = 0
    for block in cfg.blocks:
        acc = fq_add(cfg.field, acc, block_norm(cfg.field, block, x, cfg.n))
    return acc


def line_bit(cfg, v: int) -> int:
    """The output bit of the block polynomial value v in F_q."""
    if cfg.variant == "additive_trace":
        return trace_to_f2(cfg.field, v)
    return 1 if fq_quadratic_character(cfg.field, v) == -1 else 0


def line_extract(x: Sequence[int], cfg) -> int:
    """The line extractor's bit at one point."""
    return line_bit(cfg, line_poly_eval(x, cfg))


def ap_poly_eval(x: Sequence[int], cfg) -> int:
    """f(x) = sum over blocks of the block norm form, in F_p."""
    if len(x) != cfg.n:
        raise InputError(f"expected a point of F_p^{cfg.n}")
    acc = 0
    for block in cfg.blocks:
        acc = (acc + block_norm(cfg.field, block, x, cfg.n)) % cfg.p
    return acc


def ap_extract(x: Sequence[int], cfg) -> int:
    """The ap extractor's output at one point."""
    return ap_poly_eval(x, cfg) % cfg.M


# ---------------------------------------------------------------------------
# residues and Chinese remaindering one point at a time: the oracle of the
# zpn branch of extractors.encode_many (its zp branch is plain pow)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Residue:
    """An integer reduced mod a fixed modulus >= 2."""

    value: int
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise InputError(f"modulus must be >= 2, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise InputError(f"value {self.value} not reduced mod {self.modulus}")


def crt_combine(residues: Sequence[Residue], system: nt.CrtSystem) -> Residue:
    """Unique y mod q with y = y_i (mod q_i), via sum y_i (q/q_i) [(q/q_i)^-1]_{q_i}."""
    if tuple(r.modulus for r in residues) != system.moduli:
        raise InputError("residue moduli do not match the CRT system")
    q = system.combined_modulus
    y = 0
    for r, qi in zip(residues, system.moduli):
        m = q // qi
        y += r.value * m * pow(m, -1, qi)
    return Residue(y % q, q)


# ---------------------------------------------------------------------------
# discrete logarithms one point at a time: the oracles of
# numtheory.discrete_logs and of the pgc branch of extractors.extract_many
# ---------------------------------------------------------------------------

def discrete_log(g: Residue, y: Residue, order: int) -> int:
    """Exponent e in {0..order-1} with g^e = y, by baby-step/giant-step over
    a dict of isqrt(order - 1) + 1 baby steps. NotInSubgroupError when y is
    not a power of g."""
    if g.modulus != y.modulus:
        raise InputError("modulus mismatch")
    q = g.modulus
    m = math.isqrt(order - 1) + 1
    baby: dict[int, int] = {}
    x = 1
    for j in range(m):
        baby.setdefault(x, j)
        x = x * g.value % q
    giant = pow(g.value, -m, q)
    cur = y.value
    for i in range(m + 1):
        j = baby.get(cur)
        if j is not None and i * m + j < order:
            return i * m + j
        cur = cur * giant % q
    raise NotInSubgroupError(f"{y.value} is not a power of {g.value} mod {q}")


def index_table(p: int, g: int | None = None) -> list[int]:
    """ind[x] = discrete log of x base g for x in Z_p* (one O(p) walk);
    ind[0] = -1 as a sentinel."""
    if g is None:
        g = nt.smallest_primitive_root(p)
    tab = [-1] * p
    x = 1
    for e in range(p - 1):
        tab[x] = e
        x = x * g % p
    return tab


def pgc_extract(x: int, cfg) -> int:
    """The pgc extractor at one point: 0 on 0, else discrete_log(x) mod 2^m."""
    x %= cfg.p
    if x == 0:
        return 0
    return discrete_log(Residue(cfg.g, cfg.p), Residue(x, cfg.p), cfg.p - 1) % cfg.M


# ---------------------------------------------------------------------------
# character sums one frequency at a time: the oracle of analysis.charsum_table
# ---------------------------------------------------------------------------

def charsum_per_frequency(values, m, freqs):
    """|sum_v e(a v / m)| / |values| for each frequency a, residues v mod m
    (m^2 < 2^63), one frequency at a time."""
    v = np.asarray(values, dtype=np.int64)
    return np.array([abs(np.exp(2j * np.pi * (int(xi) % m * v % m) / m).sum())
                     for xi in freqs]) / len(values)


# ---------------------------------------------------------------------------
# products mod m in Python ints: the oracle of numtheory.mul_mod / matmul_mod
# ---------------------------------------------------------------------------

def matmul_mod_by_python_ints(A, B, m: int) -> np.ndarray:
    """A @ B mod m with the broadcasting of @, exact at any size: the entries
    as Python ints (dtype object), as numtheory.dot_mod took them where
    (m - 1)^2 >= 2^63. Elementwise products are the matmul of (..., 1) by
    (1, ...) columns."""
    return (np.asarray(A, dtype=object) @ np.asarray(B, dtype=object)) % m


# ---------------------------------------------------------------------------
# sources as sets of ints and tuples: the oracles of the element arrays of
# sources (the elements reader, Group.as_elements, Source.digest), of
# extractors.encode_many and of the CSV rows of extract and charsum
# ---------------------------------------------------------------------------

def element_list(elements: np.ndarray) -> list:
    """An element array (a source's elements, a span, a symmetry set) in
    order, as ints (Z_p, Z_N) or tuples of ints (vectors)."""
    rows = elements.tolist()
    return rows if elements.ndim == 1 else list(map(tuple, rows))


def explicit_elements(group, v, what: str = "the source spec's elements") -> list:
    """An explicit spec's JSON list read entry by entry into ints and tuples
    (sources._elements), each checked by Group.validate_element, then
    deduplicated as a frozenset and sorted: the route before sources held
    one int64 array."""
    xs = src._elements(v, what)
    group.validate_element(*xs)
    if not xs:
        raise InputError("explicit source must be nonempty")
    return sorted(frozenset(xs))


def element_json(x):
    return list(x) if isinstance(x, tuple) else x


def source_digest(group, elements: list) -> str:
    """Source.digest of sorted ints or tuples."""
    return digest({"group": group.to_json(), "elements": [element_json(x) for x in elements]})


def encode_many_by_pow(cfg, points) -> list[int]:
    """extractors.encode_many one point at a time by Python's pow: g^(x mod
    p) mod q for zp, and sum_i g_i^(x_i mod p) w_i mod q for zpn."""
    p, q = cfg.p, cfg.q
    if not hasattr(cfg, "gs"):
        return [pow(cfg.g, x % p, q) for x in points]
    terms = [(g, qi, q // qi * pow(q // qi, -1, qi)) for g, qi in zip(cfg.gs, cfg.qs)]
    return [sum(pow(g, xi % p, qi) * w for (g, qi, w), xi in zip(terms, x)) % q for x in points]


def element_text(x) -> str:
    """The CSV cell of an element, one at a time: its canonical JSON."""
    return "[" + ",".join(map(str, x)) + "]" if isinstance(x, tuple) else str(x)


def csv_text(header: list, rows) -> str:
    """The text the csv module writes for a header and rows, one row at a time."""
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()
