"""Slow, direct routes of shipped computations, kept as differential oracles
for the tests. Nothing in ``src/addext`` imports this module."""

from collections import Counter
from fractions import Fraction
from typing import Sequence

import numpy as np

from addext import analysis, gf, numtheory as nt
from addext.errors import InputError


def partial_ap_sum_prefix_max(p: int, coeffs, a: int) -> float:
    """max over all prefixes 1 <= s <= p of |sum_{t<s} e_p(a f(t))|, one
    polynomial and one frequency at a time (the partial-ap suite batches both)."""
    vals = analysis.poly_eval_all(coeffs, p)
    phases = np.exp(2j * np.pi * ((a * vals) % p) / p)
    return float(np.abs(np.cumsum(phases)).max())


def differences_by_pairs(X) -> Counter:
    """rep_count(X, g) for every g in X - X, from all |X|^2 differences by
    Group.sub (the vector-group route that sources.difference_histogram
    replaced)."""
    return Counter(X.group.sub(x, y) for x in X.elements for y in X.elements)


def sym_set_by_pairs(X, alpha: float) -> set:
    """Sym_{1-alpha}(X) from the pairwise difference counts."""
    thresh = (1 - Fraction(alpha)) * len(X)
    return {g for g, c in differences_by_pairs(X).items() if c >= thresh}


def doubling_by_pairs(X) -> int:
    """|X + X| as the set of all |X|^2 sums by Group.add."""
    return len({X.group.add(x, y) for x in X.elements for y in X.elements})


# ---------------------------------------------------------------------------
# one field element at a time by FieldSpec arithmetic: the oracles of the
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
        cur = spec.mul(cur, cur)
    if acc not in (0, 1):
        raise AssertionError("trace left the prime field")
    return acc


def fq_quadratic_character(spec: gf.FieldSpec, a: int) -> int:
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


def coerce_to_base(ext: gf.ExtensionField, u: int) -> int:
    """The base-field element c with ext.embed(c) = u (see gf._to_base)."""
    digits = np.array([ext.ext.decode(u)], dtype=np.int64)
    return ext.base.encode(gf._to_base(ext, digits)[0].tolist())


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
        return ext.base.pow(coords[0], ext.degree)
    u = ext.ext.pow(ext.lift(coords), ext.norm_exponent)
    return coerce_to_base(ext, u)


def norm_by_conjugates(ext: gf.ExtensionField, coords: Sequence[int]) -> int:
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
    return coerce_to_base(ext, acc)


def block_norm(field: gf.FieldSpec, block, x: Sequence[int], n: int) -> int:
    """Norm form of the block's coordinate slice (coordinates >= n are padding)."""
    coords = [x[i] if i < n else 0 for i in range(block.start, block.start + block.size)]
    if not any(coords):
        return 0
    if not any(coords[1:]):
        # subfield element: every conjugate coincides, norm collapses to a power
        return field.pow(coords[0], block.size)
    ext = gf.get_extension(field, block.size)
    return norm_poly_eval(ext, coords)


def line_poly_eval(x: Sequence[int], cfg) -> int:
    """f(x) = sum over blocks of the block norm form, an F_q value."""
    if len(x) != cfg.n:
        raise InputError(f"expected a point of F_q^{cfg.n}")
    acc = 0
    for block in cfg.blocks:
        acc = cfg.field.add(acc, block_norm(cfg.field, block, x, cfg.n))
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
