"""Deterministic extractor constructions.

Five families, each compiled to an immutable config holding every derived
constant, so that identical inputs rebuild bit-identical configs:

* ``zp``   -- Z_p -> {0,1}^m via x -> g^x in the order-p subgroup of Z_q*,
  q the smallest prime = 1 (mod p), reduced mod 2^m.
* ``zpn``  -- Z_p^n -> Z_M via per-coordinate subgroup encodings glued by the
  Chinese remainder map into Z_q, q = prod q_i, reduced mod M = 2^m.
* ``line`` -- F_q^n -> {0,1}: sum of norm forms on ascending odd-size
  coordinate blocks, output through the absolute trace (even q) or the
  quadratic character (odd q).
* ``ap``   -- F_p^n -> {0,1}^m: same block scheme with sizes >= 2 (so the
  restriction to any line has degree > 1), output reduced mod 2^m.
* ``pgc``  -- Z_p -> {0,1}^m via the index map relative to the smallest
  primitive root (turns multiplicative characters into additive ones).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import gf, numtheory as nt
from .canonical import canonical_json
from .errors import CapacityError, InputError
from .numtheory import MODULUS_CAP, CrtSystem
from .sources import PY_STEP, Group, _List, check_cost, element_budget, json_int, read_object


class _Config:
    """What the five configs share: M = 2^m outputs, and a JSON object of
    the family's ``variant`` and every field, tuples as lists (``line`` and
    ``ap`` write their own)."""

    @property
    def M(self) -> int:
        return 1 << self.m

    def to_json(self) -> dict:
        values = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        return {"variant": self.variant, **values}


# ---------------------------------------------------------------------------
# Z_p
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZpExtractorConfig(_Config):
    variant = "zp"
    p: int
    q: int
    g: int
    m: int


def build_zp_extractor(p: int, m: int) -> ZpExtractorConfig:
    q = nt.smallest_prime_congruent_one(p)
    if (1 << m) >= q:
        raise InputError(f"2^{m} >= q = {q}: too many output bits")
    return ZpExtractorConfig(p, q, nt.order_p_element(q, p), m)


# ---------------------------------------------------------------------------
# Z_p^n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZpnExtractorConfig(_Config):
    variant = "zpn"
    p: int
    n: int
    qs: tuple[int, ...]
    gs: tuple[int, ...]
    q: int
    m: int


def build_zpn_extractor(p: int, n: int, m: int) -> ZpnExtractorConfig:
    """The config at (p, n), refused before the prime search where n primes
    = 1 (mod p), each at least p + 1, cannot multiply to below 2^63."""
    if (p + 1) ** min(n, 64) >= MODULUS_CAP:
        raise CapacityError(f"{n} primes = 1 mod {p} multiply to at least "
                            f"{p + 1}^{n} >= 2^63")
    qs = tuple(nt.linnik_primes(p, n))
    crt = CrtSystem.make(qs)  # enforces the 2^63 cap
    gs = tuple(nt.order_p_element(qi, p) for qi in qs)
    return ZpnExtractorConfig(p, n, qs, gs, crt.combined_modulus, m)


def encode_many(cfg: ZpExtractorConfig | ZpnExtractorConfig, points) -> np.ndarray:
    """The injective encoding into Z_q of each point of an int64 array, as
    int64: x -> g^x in the order-p subgroup of Z_q* for zp; for zpn,
    CRT(g_1^{x_1}, ..., g_n^{x_n}), inside Z_q*, as sum_i g_i^{x_i} w_i mod q
    with the weights w_i = (q/q_i) ((q/q_i)^-1 mod q_i); every power by
    numtheory.pow_mod, every product and sum by mul_mod and add_mod. A zpn
    point not of length n is an InputError."""
    p, q = cfg.p, cfg.q
    if isinstance(cfg, ZpExtractorConfig):
        return nt.pow_mod(cfg.g, _points(points, (), "integers below 2^63") % p, q)
    x = _points(points, (cfg.n,), f"length {cfg.n}, integers below 2^63") % p
    out = np.zeros(len(x), dtype=np.int64)
    for i, (g, qi) in enumerate(zip(cfg.gs, cfg.qs)):
        w = q // qi * pow(q // qi, -1, qi)
        out = nt.add_mod(out, nt.mul_mod(nt.pow_mod(g, x[:, i], qi), w, q), q)
    return out


# ---------------------------------------------------------------------------
# block polynomials over F_q^n (lines, APs, GAPs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    start: int
    size: int


def ascending_blocks(n: int, allowed_sizes) -> tuple[tuple[Block, ...], int]:
    """Tile at least n coordinates with blocks of strictly ascending sizes drawn
    from the given iterator; the tail of the last block is zero padding."""
    blocks = []
    total = 0
    for size in allowed_sizes:
        blocks.append(Block(total, size))
        total += size
        if total >= n:
            break
    return tuple(blocks), total


@dataclass(frozen=True)
class LineExtractorConfig(_Config):
    field: gf.FieldSpec       # F_q, the coordinate field
    n: int
    padded_n: int
    blocks: tuple[Block, ...]
    variant: str              # "additive_trace" (even q) | "quadratic_char" (odd q)
    m = 1                     # a 1-bit extractor

    def to_json(self) -> dict:
        return {"variant": "line", "p": self.field.p, "k": self.field.k,
                "modulus": list(self.field.modulus), "q": self.field.order,
                "n": self.n, "padded_n": self.padded_n,
                "blocks": [[b.start, b.size] for b in self.blocks],
                "output": self.variant}


def prime_power_field(q: int) -> gf.FieldSpec:
    """F_q for q = p^k, p a prime below MODULUS_CAP: p is the exact k-th root
    of q for the largest such k, which is prime exactly when q is a prime power."""
    if q < 2:
        raise InputError("q must be a prime power >= 2")
    for k in range(q.bit_length(), 0, -1):  # k = 1 always ends the loop
        p = nt.integer_root(q, k)
        if p**k == q:
            break
    if p >= MODULUS_CAP or not nt.is_prime(p):
        raise InputError(f"{q} is not a power of a prime below 2^63")
    return gf.FieldSpec.make(p, k)


def build_line_extractor(q: int | gf.FieldSpec, n: int) -> LineExtractorConfig:
    field = q if isinstance(q, gf.FieldSpec) else prime_power_field(q)
    if n < 1:
        raise InputError("n must be >= 1")
    blocks, padded_n = ascending_blocks(n, itertools.count(1, 2))
    variant = "additive_trace" if field.p == 2 else "quadratic_char"
    assert blocks[-1].size <= 4 * math.isqrt(n) + 4
    return LineExtractorConfig(field, n, padded_n, blocks, variant)


@dataclass(frozen=True)
class ApExtractorConfig(_Config):
    """Block-polynomial extractor for APs and GAPs in F_p^n.

    Block sizes lie in (1, p), so the restriction to any line with nonzero
    direction has degree in (1, p).
    """

    field: gf.FieldSpec       # F_p, prime
    n: int
    padded_n: int
    blocks: tuple[Block, ...]
    m: int

    @property
    def p(self) -> int:
        return self.field.p

    def to_json(self) -> dict:
        return {"variant": "ap", "p": self.field.p, "n": self.n,
                "padded_n": self.padded_n,
                "blocks": [[b.start, b.size] for b in self.blocks], "m": self.m,
                # constant key, kept so that config digests stay stable
                "custom_poly": False}


def build_ap_extractor(p: int, n: int, m: int) -> ApExtractorConfig:
    """The config at (p, n, m): n coordinates tiled by blocks of the ascending
    sizes 2, 3, ..., p - 1."""
    if p == 2 or not nt.is_prime(p):
        raise InputError("the AP extractor requires an odd prime p")
    if (1 << m) >= p:
        raise InputError(f"2^{m} >= p = {p}: too many output bits")
    blocks, padded_n = ascending_blocks(n, range(2, p))
    if padded_n < n:
        raise InputError("blocks do not cover the n coordinates")
    return ApExtractorConfig(gf.FieldSpec.make(p, 1), n, padded_n, blocks, m)


# ---------------------------------------------------------------------------
# index-map extractor (conditional construction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PgcExtractorConfig(_Config):
    variant = "pgc"
    p: int
    g: int
    m: int


def build_pgc_extractor(p: int, m: int) -> PgcExtractorConfig:
    """The config at p, once one point's discrete log is within its cost
    (_pgc_baby_steps), so that no primitive root is searched for (a
    factorization of p - 1 by trial division) at a p that extract_many would
    refuse."""
    if p == 2 or not nt.is_prime(p):
        raise InputError("p must be an odd prime")
    if (1 << m) >= p - 1:
        raise InputError(f"2^{m} >= p - 1: too many output bits")
    _pgc_baby_steps(p, 1)
    return PgcExtractorConfig(p, nt.smallest_primitive_root(p), m)


def _pgc_baby_steps(p: int, N: int) -> int:
    """The B baby steps of N discrete logs mod p, after their cost is checked
    (check_cost): B baby and G = ceil((p - 1) / B) giant steps cost
    u (B + G N) + G PY_STEP, u = numtheory.product_steps(p, 1), the work of
    one product; B = sqrt((p - 1) (N + PY_STEP / u)) minimises it, held to
    the element budget."""
    u = nt.product_steps(p, 1)
    B = max(1, min(p - 1, element_budget(), math.isqrt((p - 1) * (N + PY_STEP // u) - 1) + 1))
    G = -(-(p - 1) // B)
    check_cost(f"pgc discrete logs of {N} points at p = {p} take {B} baby and {G} giant steps",
               work=u * (B + G * N) + G * PY_STEP)
    return B


# ---------------------------------------------------------------------------
# one config per family and group: building, loading, evaluating
# ---------------------------------------------------------------------------

ExtractorConfig = (ZpExtractorConfig | ZpnExtractorConfig | LineExtractorConfig
                   | ApExtractorConfig | PgcExtractorConfig)

# The group kinds each family runs on.
GROUP_KINDS = {"zp": ("zp",), "pgc": ("zp",), "zpn": ("zp_vec",),
               "ap": ("zp_vec",), "line": ("zp_vec", "fq_vec")}


def build_for_group(family: str, group: Group, m: int = 1) -> ExtractorConfig:
    """The canonical ``family`` config for ``group`` with m output bits (the
    ``line`` extractor is 1-bit and takes only m = 1), m read as a JSON
    integer. InputError if the family does not run on the group's kind."""
    m = json_int(m, "the extractor's m")
    kinds = GROUP_KINDS.get(family) if isinstance(family, str) else None
    if kinds is None:
        raise InputError(f"unknown extractor {family!r}")
    if group.kind not in kinds:
        raise InputError(f"the {family} extractor runs on {' or '.join(kinds)} "
                         f"groups, not on {group.kind}")
    if m < 0:
        raise InputError("m must be >= 0")
    if family == "line" and m != 1:
        raise InputError(f"the line extractor is 1-bit; m = {m} is not 1")
    # the histogram of 2^m outputs, charged before any point is extracted
    # (every budget below 2^64 refuses m >= 64 alike)
    check_cost(f"the {family} extractor's 2^{m} outputs", held=1 << min(m, 64))
    if family == "zp":
        return build_zp_extractor(group.p, m)
    if family == "pgc":
        return build_pgc_extractor(group.p, m)
    if family == "zpn":
        return build_zpn_extractor(group.p, group.n, m)
    if family == "ap":
        cfg = build_ap_extractor(group.p, group.n, m)
    else:
        cfg = build_line_extractor(group.field if group.kind == "fq_vec" else group.p, group.n)
    check_cost(f"the {family} extractor's extension fields", work=extension_steps(cfg, 0))
    return cfg


def extension_steps(cfg: LineExtractorConfig | ApExtractorConfig, points: int) -> int:
    """The work, in check_cost's steps, of building gf.get_extension(F_q, b)
    for the size b of every block of the config that holds two coordinates
    below n (a norm form; _block_poly_many takes any other block's first
    coordinate to the power b) and of those norms at ``points`` points;
    calibrated on in-process timings on a shared 2-vCPU Xeon.

    With q = p^k and K = k b, one product of two elements of F_(p^K) costs
    _product_steps(p, K), and a K x K matrix product mat K^3 steps, mat = 3
    numtheory.product_steps(p, K).
    Building: gf.find_irreducible tests about 2K candidates of degree K (one
    in K is irreducible; a third of them pass the root sieve where gf._sieves_roots),
    each by bitlen(p) + popcount(p) batched K x K matrix products of
    mat K^3 + 256 steps, and certifies about two by a Python row reduction of
    K^2 PY_STEP + 64 K^3; the Frobenius matrix of h -> h^q (gf._frobenius)
    costs bitlen(p) + popcount(p) products of K rows and k matrix products;
    for k > 1 the root beta of F_q's modulus costs the trace images,
    (2 b + 64) K^3, and k Horner products at each of the q subfield
    elements. A point's norm is its lift into F_(p^K), one row times the
    (b k) x K lift matrix, b - 1 conjugates, each one product and one row
    times the Frobenius matrix, and the way back to F_q (gf._to_base), one
    row times the k x k inverse and one times the k x K re-embedding; each
    entry of a row times a matrix costs mat steps."""
    f = cfg.field
    p, k, q = f.p, f.k, f.order
    ladder, steps = p.bit_length() + p.bit_count(), 0
    for b in {block.size for block in cfg.blocks if 1 < block.size and block.start + 1 < cfg.n}:
        K = k * b
        mat = 3 * nt.product_steps(p, K)
        product = _product_steps(p, K)
        candidates = 2 * K // (3 if gf._sieves_roots(p, K) else 1)
        steps += (candidates * ladder * (mat * K**3 + 256)
                  + 2 * K * K * (PY_STEP + 64 * K)
                  + ladder * K * product + k * mat * K**3
                  + points * ((b - 1) * (product + mat * K * K) + mat * (K + k) * K + mat * k * k))
        if k > 1:
            steps += (2 * b + 64) * K**3 + q * k * product
    return steps


def _product_steps(p: int, K: int) -> int:
    """The work of one product of two elements of F_(p^K) at one point, in
    check_cost's steps: 48 K on F_2 bitmasks (gf._uses_bitmasks), else 10 u
    K^2 + 256 on digits, u = numtheory.product_steps(p, K) (gf._mul_digits)."""
    if gf._uses_bitmasks(p, K):
        return 48 * K
    return 10 * nt.product_steps(p, K) * K * K + 256


def base_field_steps(cfg: LineExtractorConfig | ApExtractorConfig) -> int:
    """The work, in check_cost's steps, that a config does in F_q itself at
    one point, by ladders of at most bitlen(e) + popcount(e) products for
    x^e: c_1^b for the first coordinate of every block of size b
    (_block_poly_many), and the output bit of ``line``, its k - 1 squarings
    for the trace (even q) or a^((q - 1)/2) for the quadratic character (odd
    q). Without the norms (extension_steps), this is all a point costs where
    no block holds two coordinates, as for ``line`` over Z_p^2."""
    f = cfg.field
    products = sum(b.size.bit_length() + b.size.bit_count() for b in cfg.blocks)
    if isinstance(cfg, LineExtractorConfig):
        e = (f.order - 1) // 2
        products += f.k - 1 if f.p == 2 else e.bit_length() + e.bit_count()
    return products * _product_steps(f.p, f.k)


def config_for_group(obj: dict, group: Group) -> ExtractorConfig:
    """The serialized config ``obj``, rebuilt for ``group``.

    Every construction is canonical, so ``obj`` is valid exactly when its keys
    and values are the rebuild's, each read by the typed reader of the
    rebuilt value's shape (_reader); else InputError.
    """
    cfg = build_for_group(obj["variant"], group, obj.get("m", 1))
    want = cfg.to_json()
    got = read_object(obj, f"{want['variant']} config",
                      {key: _reader(value) for key, value in want.items()})
    if canonical_json(got) != canonical_json(want):
        raise InputError(f"not the canonical {want['variant']} config for its group")
    return cfg


def _reader(value):
    """The typed reader of a config value shaped like ``value``: json_int for
    an integer, a _List of its first entry's reader for a list (each a list
    of integers or of integer pairs), and None, the value as given, for a
    string or a bool, which only the rebuild's can equal."""
    if type(value) is int:
        return json_int
    return _List(_reader(value[0]), 0) if isinstance(value, list) else None


def _points(points, shape: tuple, what: str) -> np.ndarray:
    """points, an int64 array or a sequence of integers (or of n of them),
    as a (count, *shape) int64 array; InputError, ``what`` each point must
    be, unless each is an int or a numpy integer of that shape below 2^63."""
    try:
        X = np.asarray(points)
    except ValueError:  # points of different lengths
        X = None
    if X is not None and X.shape == (0,):
        return np.zeros((0, *shape), dtype=np.int64)
    if (X is None or X.shape[1:] != shape or X.dtype.kind not in "biu"
            or X.dtype == np.uint64 and X.max(initial=0) >= MODULUS_CAP):
        raise InputError(f"expected points of {what} each")
    return X.astype(np.int64, copy=False)


def _coordinates(cfg: LineExtractorConfig | ApExtractorConfig, points) -> np.ndarray:
    """The points as an (N, n) int64 array (_points); InputError unless each
    point is n integers in [0, q), q < 2^63 (Group's bound on F_q)."""
    f = cfg.field
    what = f"F_q^{cfg.n}, q = {f.order}: {cfg.n} integers in [0, q)"
    X = _points(points, (cfg.n,), what)
    if len(X) and not 0 <= X.min() <= X.max() < f.order:
        raise InputError(f"expected points of {what} each")
    return X


def _block_poly_many(cfg: LineExtractorConfig | ApExtractorConfig,
                     X: np.ndarray) -> np.ndarray:
    """f(x) = sum over blocks of the block's norm form at every row x of
    _coordinates, as (N, k) F_p digits (coordinates >= n are padding).

    A block whose coordinates past the first are all zero is a subfield
    element, whose norm is c_1^b; every other block goes to gf.norms_many.
    Along any line a + t d with d != 0, f restricts to a polynomial in t of
    degree equal to the largest block size on which d is nonzero, with
    leading coefficient the norm of that block slice of d. The work of the
    extension fields and norms (extension_steps) and of the points in F_q,
    output bits included (base_field_steps), is checked first.
    """
    check_cost(f"the extension fields and block norms of {len(X)} points and their outputs",
               work=extension_steps(cfg, len(X)) + len(X) * base_field_steps(cfg))
    f = cfg.field
    coords = np.zeros((len(X), cfg.padded_n), dtype=X.dtype)
    coords[:, :cfg.n] = X
    acc = np.zeros((len(X), f.k), dtype=X.dtype)
    for block in cfg.blocks:
        c = coords[:, block.start:block.start + block.size]
        norm = gf.pow_many(f, nt.to_digits(c[:, 0], f.p, f.k), block.size)
        general = (c[:, 1:] != 0).any(axis=1)
        if general.any():
            ext = gf.get_extension(f, block.size)
            norm[general] = nt.to_digits(gf.norms_many(ext, c[general]), f.p, f.k)
        acc = nt.add_mod(acc, norm, f.p)
    return acc


def extract_many(cfg: ExtractorConfig, points) -> np.ndarray:
    """The extractor's output at each point of an int64 array (_points), in
    order, as int64.

    ``line`` and ``ap`` evaluate each block on all points at once
    (``_block_poly_many``) and ``line`` takes its output bits by
    ``gf.trace_many`` or ``gf.quadratic_character_many``; a point that is not
    n integers in [0, q) is an InputError. ``pgc`` takes every point's
    discrete log at once by ``numtheory.discrete_logs``, B baby steps and G
    giant steps, B held to the element budget; its cost is checked first by
    check_cost, the one place a budget refusal happens (_pgc_baby_steps).
    ``zp`` and ``zpn`` reduce encode_many's encodings mod 2^m.
    """
    if isinstance(cfg, (ZpExtractorConfig, ZpnExtractorConfig)):
        return encode_many(cfg, points) % cfg.M
    if isinstance(cfg, LineExtractorConfig):
        values = _block_poly_many(cfg, _coordinates(cfg, points))
        if cfg.variant == "additive_trace":
            return gf.trace_many(cfg.field, values)
        return (gf.quadratic_character_many(cfg.field, values) == -1).astype(np.int64)
    if isinstance(cfg, ApExtractorConfig):
        return _block_poly_many(cfg, _coordinates(cfg, points))[:, 0] % cfg.M
    if isinstance(cfg, PgcExtractorConfig):
        x = _points(points, (), "integers below 2^63") % cfg.p
        logs = nt.discrete_logs(cfg.g, x, cfg.p, _pgc_baby_steps(cfg.p, len(x)))
        return np.maximum(logs, 0) % cfg.M  # pgc maps 0 to 0
    raise InputError(f"unknown config {cfg!r}")
