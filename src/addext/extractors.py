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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import gf, numtheory as nt
from .canonical import canonical_json
from .errors import BudgetError, InputError
from .numtheory import MODULUS_CAP, CrtSystem, Residue
from .sources import PY_STEP, WORK_FACTOR, Group, element_budget, product_steps

# ---------------------------------------------------------------------------
# Z_p
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZpExtractorConfig:
    p: int
    q: int
    g: int
    m: int

    @property
    def M(self) -> int:
        return 1 << self.m

    def to_json(self) -> dict:
        return {"variant": "zp", "p": self.p, "q": self.q, "g": self.g, "m": self.m}


def build_zp_extractor(p: int, m: int) -> ZpExtractorConfig:
    q = nt.smallest_prime_congruent_one(p)
    if (1 << m) >= q:
        raise InputError(f"2^{m} >= q = {q}: too many output bits")
    g = nt.order_p_element(q, p).value
    return ZpExtractorConfig(p, q, g, m)


def zp_encode(x: int, cfg: ZpExtractorConfig) -> int:
    """The injective encoding x -> g^x of Z_p into the order-p subgroup of Z_q*."""
    return pow(cfg.g, x % cfg.p, cfg.q)


def zp_extract(x: int, cfg: ZpExtractorConfig) -> int:
    return zp_encode(x, cfg) % cfg.M


# ---------------------------------------------------------------------------
# Z_p^n
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZpnExtractorConfig:
    p: int
    n: int
    qs: tuple[int, ...]
    gs: tuple[int, ...]
    q: int
    m: int

    @property
    def M(self) -> int:
        return 1 << self.m

    @property
    def crt(self) -> CrtSystem:
        return CrtSystem(self.qs, self.q)

    def to_json(self) -> dict:
        return {"variant": "zpn", "p": self.p, "n": self.n, "qs": list(self.qs),
                "gs": list(self.gs), "q": self.q, "m": self.m}


def build_zpn_extractor(p: int, n: int, m: int) -> ZpnExtractorConfig:
    qs = tuple(nt.linnik_primes(p, n))
    crt = CrtSystem.make(qs)  # enforces the 2^63 cap
    gs = tuple(nt.order_p_element(qi, p).value for qi in qs)
    if math.gcd(1 << m, crt.combined_modulus) != 1:
        raise InputError("output modulus must be coprime to q")
    return ZpnExtractorConfig(p, n, qs, gs, crt.combined_modulus, m)


def zpn_encode(x: Sequence[int], cfg: ZpnExtractorConfig) -> int:
    """CRT(g_1^{x_1}, ..., g_n^{x_n}) in Z_q; injective, image inside Z_q*."""
    if len(x) != cfg.n:
        raise InputError(f"expected a vector of length {cfg.n}")
    residues = [Residue(pow(g, xi % cfg.p, qi), qi)
                for g, qi, xi in zip(cfg.gs, cfg.qs, x)]
    return nt.crt_combine(residues, cfg.crt).value


def zpn_extract(x: Sequence[int], cfg: ZpnExtractorConfig) -> int:
    return zpn_encode(x, cfg) % cfg.M


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
class LineExtractorConfig:
    field: gf.FieldSpec       # F_q, the coordinate field
    n: int
    padded_n: int
    blocks: tuple[Block, ...]
    variant: str              # "additive_trace" (even q) | "quadratic_char" (odd q)

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


def line_extract(x: Sequence[int], cfg: LineExtractorConfig) -> int:
    """The output bit at one point of F_q^n (extract_many on one point)."""
    return extract_many(cfg, [x])[0]


@dataclass(frozen=True)
class ApExtractorConfig:
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
    def M(self) -> int:
        return 1 << self.m

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
    blocks, _ = ascending_blocks(n, range(2, p))
    return ap_config_with_blocks(p, n, m, [b.size for b in blocks])


def ap_config_with_blocks(p: int, n: int, m: int,
                          sizes: Sequence[int]) -> ApExtractorConfig:
    """Explicit-blocks constructor (sizes must be ascending, each in (1, p))."""
    if p == 2 or not nt.is_prime(p):
        raise InputError("the AP extractor requires an odd prime p")
    if (1 << m) >= p:
        raise InputError(f"2^{m} >= p = {p}: too many output bits")
    if any(not 1 < s < p for s in sizes):
        raise InputError(f"block sizes must lie in (1, p = {p})")
    if list(sizes) != sorted(set(sizes)):
        raise InputError("block sizes must be strictly ascending")
    blocks = []
    total = 0
    for s in sizes:
        blocks.append(Block(total, s))
        total += s
    if total < n:
        raise InputError("blocks do not cover the n coordinates")
    return ApExtractorConfig(gf.FieldSpec.make(p, 1), n, total, tuple(blocks), m)


def ap_extract(x: Sequence[int], cfg: ApExtractorConfig) -> int:
    """The output at one point of F_p^n (extract_many on one point)."""
    return extract_many(cfg, [x])[0]


# ---------------------------------------------------------------------------
# index-map extractor (conditional construction)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PgcExtractorConfig:
    p: int
    g: int
    m: int

    @property
    def M(self) -> int:
        return 1 << self.m

    def to_json(self) -> dict:
        return {"variant": "pgc", "p": self.p, "g": self.g, "m": self.m}


def build_pgc_extractor(p: int, m: int) -> PgcExtractorConfig:
    if p == 2 or not nt.is_prime(p):
        raise InputError("p must be an odd prime")
    if (1 << m) >= p - 1:
        raise InputError(f"2^{m} >= p - 1: too many output bits")
    return PgcExtractorConfig(p, nt.smallest_primitive_root(p), m)


def pgc_extract(x: int, cfg: PgcExtractorConfig) -> int:
    """0 on 0, else the index (discrete log base g) of x reduced mod 2^m
    (extract_many on one point)."""
    return extract_many(cfg, [x])[0]


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
    ``line`` extractor is 1-bit and takes only m = 1). InputError if the
    family does not run on the group's kind."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise InputError(f"the extractor's m must be an integer, not {m!r}")
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
    if family == "zp":
        return build_zp_extractor(group.p, m)
    if family == "pgc":
        return build_pgc_extractor(group.p, m)
    if family == "zpn":
        return build_zpn_extractor(group.p, group.n, m)
    if family == "ap":
        return build_ap_extractor(group.p, group.n, m)
    return build_line_extractor(group.field if group.kind == "fq_vec" else group.p,
                                group.n)


def config_for_group(obj: dict, group: Group) -> ExtractorConfig:
    """The serialized config ``obj``, rebuilt for ``group``.

    Every construction is canonical, so ``obj`` is valid exactly when the
    rebuild serializes to the same JSON; anything else is an InputError.
    """
    try:
        cfg = build_for_group(obj["variant"], group, int(obj.get("m", 1)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed extractor config: {exc}") from exc
    if canonical_json(cfg.to_json()) != canonical_json(obj):
        raise InputError(f"not the canonical {obj['variant']} config for its group")
    return cfg


def _coordinates(cfg: LineExtractorConfig | ApExtractorConfig,
                 points: list) -> np.ndarray:
    """The points as an (N, n) array in the field's gf.digit_dtype; InputError
    unless each point is n integers in [0, q)."""
    f = cfg.field
    dtype = gf.digit_dtype(f)
    if not points:
        return np.zeros((0, cfg.n), dtype=dtype)
    try:
        X = np.array(points, dtype=object if dtype is object else None)
    except ValueError:  # points of different lengths
        X = None
    if (X is None or X.shape != (len(points), cfg.n)
            or not (X.dtype.kind in "iu" or X.dtype == object and all(
                isinstance(c, (int, np.integer)) for c in X.flat))
            or not 0 <= X.min() <= X.max() < f.order):
        raise InputError(f"expected points of F_q^{cfg.n}, q = {f.order}: "
                         f"{cfg.n} integers in [0, q) each")
    return X.astype(dtype, copy=False)


def _block_poly_many(cfg: LineExtractorConfig | ApExtractorConfig,
                     X: np.ndarray) -> np.ndarray:
    """f(x) = sum over blocks of the block's norm form at every row x of
    _coordinates, as (N, k) F_p digits (coordinates >= n are padding).

    A block whose coordinates past the first are all zero is a subfield
    element, whose norm is c_1^b; every other block goes to gf.norms_many.
    Along any line a + t d with d != 0, f restricts to a polynomial in t of
    degree equal to the largest block size on which d is nonzero, with
    leading coefficient the norm of that block slice of d.
    """
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
        acc = (acc + norm) % f.p
    return acc


def extract_many(cfg: ExtractorConfig, points: Iterable) -> list[int]:
    """The extractor's output at each point, in order.

    ``line`` and ``ap`` evaluate each block on all points at once
    (``_block_poly_many``) and ``line`` takes its output bits by
    ``gf.trace_many`` or ``gf.quadratic_character_many``; a point that is not
    n integers in [0, q) is an InputError. ``pgc`` takes every point's
    discrete log at once by ``numtheory.discrete_logs``, B baby steps and G
    giant steps, B held to the element budget; it declares its cost first,
    and u (B + G N) + G PY_STEP (u = product_steps(p)) past WORK_FACTOR
    times the budget is a BudgetError. The ``zp`` and ``zpn`` cases call the
    one-point ``*_extract`` function of their family, looked up by name, so
    that a patched module attribute (as in ``benchmarks/tracer.py``) sees
    each such call.
    """
    points = list(points)
    if isinstance(cfg, ZpExtractorConfig):
        return [zp_extract(x, cfg) for x in points]
    if isinstance(cfg, ZpnExtractorConfig):
        return [zpn_extract(x, cfg) for x in points]
    if isinstance(cfg, LineExtractorConfig):
        values = _block_poly_many(cfg, _coordinates(cfg, points))
        if cfg.variant == "additive_trace":
            return gf.trace_many(cfg.field, values).tolist()
        return (gf.quadratic_character_many(cfg.field, values) == -1).astype(int).tolist()
    if isinstance(cfg, ApExtractorConfig):
        return (_block_poly_many(cfg, _coordinates(cfg, points))[:, 0] % cfg.M).tolist()
    if isinstance(cfg, PgcExtractorConfig):
        p, N = cfg.p, len(points)
        # B baby steps and G = ceil((p - 1) / B) giant steps of N points cost
        # u (B + G N) + G PY_STEP, u the work of one product; B = sqrt((p - 1)
        # (N + PY_STEP / u)) minimises it, held to the element budget
        u, budget = product_steps(p), element_budget()
        B = max(1, min(p - 1, budget, math.isqrt((p - 1) * (N + PY_STEP // u) - 1) + 1))
        G = -(-(p - 1) // B)
        work = u * (B + G * N) + G * PY_STEP
        if work > WORK_FACTOR * budget:
            raise BudgetError(f"pgc discrete logs of {N} points at p = {p} take {B} baby "
                              f"and {G} giant steps, {work} steps: past {WORK_FACTOR} x the "
                              f"element budget {budget}")
        logs = nt.discrete_logs(cfg.g, [x % p for x in points], p, B)
        return (np.maximum(logs, 0) % cfg.M).tolist()  # pgc maps 0 to 0
    raise InputError(f"unknown config {cfg!r}")


def output_size(cfg: ExtractorConfig) -> int:
    """Number of possible outputs M (2 for the 1-bit line extractor)."""
    return 2 if isinstance(cfg, LineExtractorConfig) else cfg.M
