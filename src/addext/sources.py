"""Source families over Z_p, Z_p^n, F_q^n and Z_N: construction by exact
enumeration, and structural diagnostics (symmetry sets, doubling, additive
profiles, properness, list decodability, Bohr regularity).

A source is the uniform distribution on a finite, deduplicated element set.
Elements are ints for Z_p and Z_N, tuples of ints for vector groups (each
coordinate an encoded field element for F_q^n).
"""

from __future__ import annotations

import itertools
import math
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import gf
from .canonical import digest
from .errors import BudgetError, InputError
from .numtheory import MODULUS_CAP, CrtSystem, is_prime

DEFAULT_ELEMENT_BUDGET = 1 << 26
DEFAULT_PAIR_BUDGET = 1 << 26


def element_budget() -> int:
    raw = os.environ.get("ADDEXT_BUDGET", DEFAULT_ELEMENT_BUDGET)
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"ADDEXT_BUDGET must be an integer, not {raw!r}") from None


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Group:
    """Ambient abelian group: Z_p, Z_p^n, F_q^n or Z_N (CRT product)."""

    kind: str  # "zp" | "zp_vec" | "fq_vec" | "zn"
    p: int | None = None
    n: int | None = None
    field: gf.FieldSpec | None = None
    crt: CrtSystem | None = None

    def __post_init__(self):
        if self.kind != "zn" and self.p >= MODULUS_CAP:
            raise InputError(f"p = {self.p} is not below 2^63")
        if self.kind != "zn" and not is_prime(self.p):
            raise InputError(f"p = {self.p} is not prime; composite moduli "
                             f"belong to a zn group")

    @classmethod
    def zp(cls, p: int) -> "Group":
        return cls("zp", p=p)

    @classmethod
    def zp_vec(cls, p: int, n: int) -> "Group":
        return cls("zp_vec", p=p, n=n)

    @classmethod
    def fq_vec(cls, fieldspec: gf.FieldSpec, n: int) -> "Group":
        return cls("fq_vec", p=fieldspec.p, n=n, field=fieldspec)

    @classmethod
    def zn(cls, crt: CrtSystem) -> "Group":
        return cls("zn", crt=crt)

    @property
    def order(self) -> int:
        if self.kind == "zp":
            return self.p
        if self.kind == "zp_vec":
            return self.p**self.n
        if self.kind == "fq_vec":
            return self.field.order**self.n
        return self.crt.combined_modulus

    @property
    def zero(self):
        if self.kind in ("zp", "zn"):
            return 0
        return (0,) * self.n

    def add(self, x, y):
        if self.kind == "zp":
            return (x + y) % self.p
        if self.kind == "zn":
            return (x + y) % self.crt.combined_modulus
        if self.kind == "zp_vec":
            return tuple((a + b) % self.p for a, b in zip(x, y))
        return tuple(self.field.add(a, b) for a, b in zip(x, y))

    def neg(self, x):
        if self.kind == "zp":
            return -x % self.p
        if self.kind == "zn":
            return -x % self.crt.combined_modulus
        if self.kind == "zp_vec":
            return tuple(-a % self.p for a in x)
        return tuple(self.field.neg(a) for a in x)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def int_scale(self, j: int, x):
        """j-fold group addition of x (j an integer, not a group element)."""
        if self.kind == "zp":
            return j * x % self.p
        if self.kind == "zn":
            return j * x % self.crt.combined_modulus
        if self.kind == "zp_vec":
            return tuple(j * a % self.p for a in x)
        c = j % self.field.p
        return tuple(self.field.mul(c, a) for a in x)

    def element_from_index(self, i: int):
        if self.kind in ("zp", "zn"):
            return i
        base = self.p if self.kind == "zp_vec" else self.field.order
        out = []
        for _ in range(self.n):
            out.append(i % base)
            i //= base
        return tuple(out)

    def elements(self, budget: int | None = None) -> Iterator:
        cap = element_budget() if budget is None else budget
        if self.order > cap:
            raise BudgetError(f"group of order {self.order} exceeds enumeration cap {cap}")
        return (self.element_from_index(i) for i in range(self.order))

    def validate_element(self, x) -> None:
        if self.kind in ("zp", "zn"):
            if not isinstance(x, int) or not 0 <= x < self.order:
                raise InputError(f"{x!r} is not an element of {self.kind} group")
            return
        base = self.p if self.kind == "zp_vec" else self.field.order
        if not (isinstance(x, tuple) and len(x) == self.n
                and all(isinstance(a, int) and 0 <= a < base for a in x)):
            raise InputError(f"{x!r} is not an element of {self.kind} group")

    def to_json(self) -> dict:
        if self.kind == "zp":
            return {"kind": "zp", "p": self.p}
        if self.kind == "zp_vec":
            return {"kind": "zp_vec", "p": self.p, "n": self.n}
        if self.kind == "fq_vec":
            return {"kind": "fq_vec", "p": self.field.p, "k": self.field.k,
                    "modulus": list(self.field.modulus), "n": self.n}
        return {"kind": "zn", "moduli": list(self.crt.moduli)}

    @classmethod
    def from_json(cls, obj: dict) -> "Group":
        kind = obj.get("kind")
        try:
            if kind == "zp":
                return cls.zp(int(obj["p"]))
            if kind == "zp_vec":
                return cls.zp_vec(int(obj["p"]), int(obj["n"]))
            if kind == "fq_vec":
                p, k = int(obj["p"]), int(obj["k"])
                spec = (gf.FieldSpec(p, k, tuple(obj["modulus"])) if "modulus" in obj
                        else gf.FieldSpec.make(p, k))
                return cls.fq_vec(spec, int(obj["n"]))
            if kind == "zn":
                return cls.zn(CrtSystem.make(obj["moduli"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed group description: {exc}") from exc
        raise InputError(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# source specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapSpec:
    variant = "gap"
    b0: object
    steps: tuple
    s: int

    @property
    def r(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ApSpec:
    variant = "ap"
    b0: object
    step: object
    k: int


@dataclass(frozen=True)
class HapSpec:
    variant = "hap"
    step: object
    k: int


@dataclass(frozen=True)
class BohrSpec:
    variant = "bohr"
    freqs: tuple
    rho: float


@dataclass(frozen=True)
class AffineSpec:
    variant = "affine"
    base: object
    basis: tuple


@dataclass(frozen=True)
class LineSpec:
    variant = "line"
    a: object
    d: object


@dataclass(frozen=True)
class ExplicitSpec:
    variant = "explicit"
    elements: tuple


@dataclass(frozen=True)
class RandomSpec:
    variant = "random"
    size: int
    seed: int


SourceSpec = (GapSpec | ApSpec | HapSpec | BohrSpec | AffineSpec | LineSpec
              | ExplicitSpec | RandomSpec)


def _elem_json(x):
    return list(x) if isinstance(x, tuple) else x


def _elem_from_json(v):
    return tuple(int(a) for a in v) if isinstance(v, list) else int(v)


def spec_to_json(spec: SourceSpec) -> dict:
    if isinstance(spec, GapSpec):
        return {"variant": "gap", "b0": _elem_json(spec.b0),
                "steps": [_elem_json(b) for b in spec.steps], "r": spec.r, "s": spec.s}
    if isinstance(spec, ApSpec):
        return {"variant": "ap", "b0": _elem_json(spec.b0), "step": _elem_json(spec.step),
                "k": spec.k}
    if isinstance(spec, HapSpec):
        return {"variant": "hap", "step": _elem_json(spec.step), "k": spec.k}
    if isinstance(spec, BohrSpec):
        return {"variant": "bohr", "freqs": [_elem_json(f) for f in spec.freqs],
                "rho": spec.rho}
    if isinstance(spec, AffineSpec):
        return {"variant": "affine", "base": _elem_json(spec.base),
                "basis": [_elem_json(b) for b in spec.basis]}
    if isinstance(spec, LineSpec):
        return {"variant": "line", "a": _elem_json(spec.a), "d": _elem_json(spec.d)}
    if isinstance(spec, ExplicitSpec):
        return {"variant": "explicit", "elements": [_elem_json(x) for x in spec.elements]}
    if isinstance(spec, RandomSpec):
        return {"variant": "random", "size": spec.size, "seed": spec.seed}
    raise InputError(f"unknown spec {spec!r}")


def spec_from_json(obj: dict) -> SourceSpec:
    v = obj.get("variant")
    try:
        if v == "gap":
            return GapSpec(_elem_from_json(obj["b0"]),
                           tuple(_elem_from_json(b) for b in obj["steps"]), int(obj["s"]))
        if v == "ap":
            return ApSpec(_elem_from_json(obj["b0"]), _elem_from_json(obj["step"]),
                          int(obj["k"]))
        if v == "hap":
            return HapSpec(_elem_from_json(obj["step"]), int(obj["k"]))
        if v == "bohr":
            return BohrSpec(tuple(_elem_from_json(f) for f in obj["freqs"]),
                            float(obj["rho"]))
        if v == "affine":
            return AffineSpec(_elem_from_json(obj["base"]),
                              tuple(_elem_from_json(b) for b in obj["basis"]))
        if v == "line":
            return LineSpec(_elem_from_json(obj["a"]), _elem_from_json(obj["d"]))
        if v == "explicit":
            return ExplicitSpec(tuple(_elem_from_json(x) for x in obj["elements"]))
        if v == "random":
            return RandomSpec(int(obj["size"]), int(obj["seed"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed source spec: {exc}") from exc
    raise InputError(f"unknown source variant {v!r}")


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Source:
    """A deduplicated element set carrying the uniform distribution."""

    group: Group
    spec: SourceSpec
    elements: frozenset
    notes: dict = field(default_factory=dict, compare=False)

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def sorted_elements(self) -> list:
        return sorted(self.elements)

    @property
    def digest(self) -> str:
        return digest({"group": self.group.to_json(),
                       "elements": [_elem_json(x) for x in self.sorted_elements]})

    def to_json(self) -> dict:
        return {"group": self.group.to_json(), "spec": spec_to_json(self.spec),
                "size": len(self), "digest": self.digest,
                "elements": [_elem_json(x) for x in self.sorted_elements],
                "notes": dict(self.notes)}


def _bohr_norm_ok(v: int, modulus: int, rho: Fraction) -> bool:
    return Fraction(min(v, modulus - v), modulus) < rho


def bohr_membership(group: Group, freqs: Sequence, rho: float, x) -> bool:
    """max over xi in freqs of || xi.x / modulus || < rho (distance to nearest integer)."""
    rho_f = Fraction(rho)
    if group.kind == "zp":
        return all(_bohr_norm_ok(xi * x % group.p, group.p, rho_f) for xi in freqs)
    if group.kind == "zp_vec":
        return all(
            _bohr_norm_ok(sum(a * b for a, b in zip(xi, x)) % group.p, group.p, rho_f)
            for xi in freqs)
    if group.kind == "zn":
        N = group.crt.combined_modulus
        return all(_bohr_norm_ok(xi * x % N, N, rho_f) for xi in freqs)
    raise InputError("Bohr sets are supported over Z_p, Z_p^n and Z_N")


def build_source(spec: SourceSpec, group: Group, budget: int | None = None) -> Source:
    """Materialize a source by exact enumeration of its element set."""
    cap = element_budget() if budget is None else budget
    notes: dict = {}

    if isinstance(spec, GapSpec):
        if not 1 <= spec.s:
            raise InputError("GAP side s must be >= 1")
        if spec.s**spec.r > cap:
            raise BudgetError(f"GAP of volume {spec.s ** spec.r} exceeds cap {cap}")
        group.validate_element(spec.b0)
        for b in spec.steps:
            group.validate_element(b)
        els = set()
        for coeffs in itertools.product(range(spec.s), repeat=spec.r):
            x = spec.b0
            for a, b in zip(coeffs, spec.steps):
                x = group.add(x, group.int_scale(a, b))
            els.add(x)
        notes["proper"] = len(els) == spec.s**spec.r

    elif isinstance(spec, (ApSpec, HapSpec)):
        b0 = spec.b0 if isinstance(spec, ApSpec) else group.zero
        step, k = spec.step, spec.k
        group.validate_element(b0)
        group.validate_element(step)
        if step == group.zero:
            raise InputError("AP step must be nonzero")
        if k > cap:
            raise BudgetError(f"AP length {k} exceeds cap {cap}")
        els = set()
        x = b0
        for _ in range(k):
            els.add(x)
            x = group.add(x, step)
        notes["proper"] = len(els) == k

    elif isinstance(spec, BohrSpec):
        if not 0 < spec.rho < 1:
            raise InputError("Bohr radius must lie in (0, 1)")
        if any(f == group.zero for f in spec.freqs):
            raise InputError("Bohr frequencies must be nonzero")
        els = {x for x in group.elements(cap)
               if bohr_membership(group, spec.freqs, spec.rho, x)}
        # 0 is always a member, so a Bohr set is never empty
        notes["rank"] = len(spec.freqs)

    elif isinstance(spec, AffineSpec):
        group.validate_element(spec.base)
        for b in spec.basis:
            group.validate_element(b)
        if group.kind not in ("zp_vec", "fq_vec"):
            raise InputError("affine sources require a vector group")
        base_order = group.p if group.kind == "zp_vec" else group.field.order
        if base_order**len(spec.basis) > cap:
            raise BudgetError("affine span exceeds enumeration cap")
        els = set()
        for coeffs in itertools.product(range(base_order), repeat=len(spec.basis)):
            x = spec.base
            for t, v in zip(coeffs, spec.basis):
                if group.kind == "zp_vec":
                    x = group.add(x, tuple(t * a % group.p for a in v))
                else:
                    x = group.add(x, tuple(group.field.mul(t, a) for a in v))
            els.add(x)
        notes["dimension"] = round(math.log(len(els), base_order))

    elif isinstance(spec, LineSpec):
        if group.kind not in ("zp_vec", "fq_vec"):
            raise InputError("line sources require a vector group")
        group.validate_element(spec.a)
        group.validate_element(spec.d)
        if spec.d == group.zero:
            raise InputError("line direction must be nonzero")
        base_order = group.p if group.kind == "zp_vec" else group.field.order
        els = set()
        for t in range(base_order):
            if group.kind == "zp_vec":
                off = tuple(t * a % group.p for a in spec.d)
            else:
                off = tuple(group.field.mul(t, a) for a in spec.d)
            els.add(group.add(spec.a, off))

    elif isinstance(spec, ExplicitSpec):
        for x in spec.elements:
            group.validate_element(x)
        if not spec.elements:
            raise InputError("explicit source must be nonempty")
        els = set(spec.elements)

    elif isinstance(spec, RandomSpec):
        if not 1 <= spec.size <= group.order:
            raise InputError("random source size out of range")
        if spec.size > cap:
            raise BudgetError("random source size exceeds cap")
        rng = random.Random(spec.seed)
        if group.order > sys.maxsize:
            # rng.sample needs len(range(order)), which overflows here
            idx = set()
            while len(idx) < spec.size:
                idx.add(rng.randrange(group.order))
        else:
            idx = rng.sample(range(group.order), spec.size)
        els = {group.element_from_index(i) for i in idx}

    else:
        raise InputError(f"unknown source spec {spec!r}")

    return Source(group, spec, frozenset(els), notes)


def is_proper_gap(spec: GapSpec, group: Group) -> bool:
    """True iff the s^r coefficient sums are pairwise distinct."""
    if not isinstance(spec, GapSpec):
        raise InputError("is_proper_gap requires a GAP spec")
    return len(build_source(spec, group).elements) == spec.s**spec.r


def sub_gap(spec: GapSpec, group: Group, side: int) -> set:
    """Homogeneous small-coefficient sub-GAP {sum a_i b_i : 0 <= a_i < side}.

    These are the canonical symmetry-set witnesses of a proper GAP.
    """
    out = set()
    for coeffs in itertools.product(range(side), repeat=spec.r):
        x = group.zero
        for a, b in zip(coeffs, spec.steps):
            x = group.add(x, group.int_scale(a, b))
        out.add(x)
    return out


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def rep_count(X: Source, g) -> int:
    """|X cap (X + g)|: the number of ways to represent g as a difference."""
    els = X.elements
    grp = X.group
    return sum(1 for y in els if grp.sub(y, g) in els)


def cyclic_convolve(va, ca, vb, cb, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact weighted histogram of a_i + b_j mod m over all pairs (i, j).

    ``va``, ``vb`` are residues in [0, m) and ``ca``, ``cb`` their positive
    integer weights. Returns the distinct sums in increasing order and the
    total weight of each. The route follows from the sizes:

    * pairs, when |a||b| <= min(m, 2^26): the |a||b| sums themselves, with
      no length-m array;
    * FFT, when m <= element_budget(): zero-padded to a power of two
      >= 2m - 1 (a large prime length through Bluestein costs several times
      more), folded mod m and rounded;
    * otherwise BudgetError.
    """
    va, ca = np.asarray(va, dtype=np.int64), np.asarray(ca, dtype=np.int64)
    vb, cb = np.asarray(vb, dtype=np.int64), np.asarray(cb, dtype=np.int64)
    if va.size * vb.size <= min(m, DEFAULT_PAIR_BUDGET):
        # va + (vb - m) lies in [-m, m - 1), so int64 holds it for any m < 2^63
        sums = (va[:, None] + (vb - m)[None, :]).ravel()
        sums[sums < 0] += m
        values, inverse = np.unique(sums, return_inverse=True)
        counts = np.zeros(values.size, dtype=np.int64)
        np.add.at(counts, inverse, (ca[:, None] * cb[None, :]).ravel())
        return values, counts
    if m > element_budget():
        raise BudgetError(f"{va.size} x {vb.size} pair sums mod {m} fit neither "
                          f"the pair budget nor the element budget")
    size = 1 << (2 * m - 2).bit_length()
    spectrum = (np.fft.rfft(np.bincount(va, weights=ca, minlength=m), size)
                * np.fft.rfft(np.bincount(vb, weights=cb, minlength=m), size))
    full = np.fft.irfft(spectrum, size)
    folded = full[:m].copy()
    folded[:m - 1] += full[m:2 * m - 1]
    counts = np.rint(folded)
    # The FFT's error per entry is about c eps log2(size) |a|_2 |b|_2, with eps
    # = 2^-53 and c a small constant. Under the default budgets (size <= 2^27)
    # every caller keeps |a|_2 |b|_2 below 2^31 (sets of at most m <= 2^26
    # elements; moment_sum keeps |Y|^t < 2^31), so the residual stays below
    # 1e-4. The check guards inputs beyond those bounds.
    residual = float(np.abs(folded - counts).max())
    if residual >= 0.25:
        raise BudgetError(f"FFT rounding residual {residual} too large to round exactly")
    values = np.flatnonzero(counts)
    return values, counts[values].astype(np.int64)


def sym_set(X: Source, alpha: float) -> set:
    """{g : |X cap (X+g)| >= (1-alpha)|X|}, threshold inclusive.

    Only g in X - X can have a nonzero representation count. Over Z_p and Z_N
    the counts are the histogram of X + (-X).
    """
    if not 0 < alpha <= 1:
        raise InputError("alpha must lie in (0, 1]")
    thresh = (1 - Fraction(alpha)) * len(X)
    grp = X.group
    if grp.kind in ("zp", "zn"):
        m = grp.order
        arr = np.fromiter(X.elements, dtype=np.int64, count=len(X))
        ones = np.ones(len(X), dtype=np.int64)
        values, counts = cyclic_convolve(arr, ones, (m - arr) % m, ones, m)
        return {int(g) for g in values[counts >= thresh]}
    if len(X) ** 2 > DEFAULT_PAIR_BUDGET:
        raise BudgetError("pairwise difference scan exceeds budget")
    counts = Counter(grp.sub(x, y) for x in X.elements for y in X.elements)
    return {g for g, c in counts.items() if c >= thresh}


def doubling(X: Source) -> int:
    """Exact cardinality of the sumset X + X."""
    grp = X.group
    if grp.kind in ("zp", "zn") and grp.order <= element_budget():
        m = grp.order
        mask = 0
        for x in X.elements:
            mask |= 1 << x
        acc = 0
        for x in X.elements:
            acc |= mask << x
        folded = (acc & ((1 << m) - 1)) | (acc >> m)
        return folded.bit_count()
    if len(X) ** 2 > DEFAULT_PAIR_BUDGET:
        raise BudgetError("pairwise sum scan exceeds budget")
    els = list(X.elements)
    return len({grp.add(x, y) for x in els for y in els})


@dataclass(frozen=True)
class AdditiveProfile:
    """Measured structure parameters of a source at threshold alpha."""

    alpha: float
    beta: float
    tau: float
    entropy_rate: float
    size: int
    sym_size: int
    sumset_size: int
    group_order: int

    def to_json(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "tau": self.tau,
                "entropy_rate": self.entropy_rate, "size": self.size,
                "sym_size": self.sym_size, "sumset_size": self.sumset_size,
                "group_order": self.group_order}


def additive_profile(X: Source, alpha: float) -> AdditiveProfile:
    """beta = log|Sym_{1-alpha}(X)| / log|X|, tau = log|X+X|/log|X| - 1,
    entropy rate = log|X| / log|G|."""
    if len(X) < 2:
        raise InputError("profile requires |X| >= 2")
    sym = len(sym_set(X, alpha))
    dbl = doubling(X)
    logx = math.log(len(X))
    return AdditiveProfile(
        alpha=alpha,
        beta=math.log(sym) / logx,
        tau=math.log(dbl) / logx - 1.0,
        entropy_rate=logx / math.log(X.group.order),
        size=len(X), sym_size=sym, sumset_size=dbl, group_order=X.group.order)


@dataclass(frozen=True)
class ListDecodabilityParams:
    r: int
    B: int
    gamma: float | None = None
    L: float | None = None


def list_decodability_check(X: Source, params: ListDecodabilityParams,
                            op_budget: int | None = None):
    """Max fiber size over all r-index-sets and realized value assignments,
    compared against B. Returns (ok, worst) with the witnessing fiber."""
    if X.group.kind not in ("zp_vec", "fq_vec"):
        raise InputError("list decodability is defined for vector groups")
    n = X.group.n
    r = params.r
    if not 1 <= r <= n:
        raise InputError("need 1 <= r <= n")
    cap = DEFAULT_PAIR_BUDGET if op_budget is None else op_budget
    if math.comb(n, r) * len(X) > cap:
        raise BudgetError("fiber enumeration exceeds budget")
    els = list(X.elements)
    worst = {"indices": None, "values": None, "count": 0}
    for idx in itertools.combinations(range(n), r):
        counts = Counter(tuple(x[i] for i in idx) for x in els)
        values, count = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
        if count > worst["count"]:
            worst = {"indices": idx, "values": values, "count": count}
    return worst["count"] <= params.B, worst


def bohr_regularity_probe(spec: BohrSpec, group: Group,
                          kappa_grid: Sequence[float]) -> list[dict]:
    """For each kappa, the ratio |Bohr(S, rho(1+kappa))| / |Bohr(S, rho)| and
    whether it stays below 1 + 100 kappa |S| (meaningful for kappa < 1/(100|S|))."""
    d = len(spec.freqs)
    base = build_source(spec, group)
    rows = []
    for kappa in kappa_grid:
        inflated = build_source(BohrSpec(spec.freqs, spec.rho * (1 + kappa)), group)
        ratio = len(inflated) / len(base)
        bound = 1 + 100 * kappa * d
        rows.append({"kappa": kappa, "base_size": len(base),
                     "inflated_size": len(inflated), "ratio": ratio,
                     "bound": bound, "holds": ratio <= bound,
                     "applicable": kappa < 1 / (100 * d)})
    return rows


def gap_decomposition(spec: GapSpec, group: Group) -> dict:
    """Write a (possibly non-proper) GAP over Z_p^n as a union of independent
    GAPs on a maximal linearly independent subset of its steps.

    Diagnostic only; extraction always runs on the deduplicated element set.
    """
    if group.kind != "zp_vec":
        raise InputError("GAP decomposition implemented over Z_p^n")
    p = group.p
    rows: list[tuple] = []
    indep: list[int] = []
    reduced: list[list[int]] = []
    for i, step in enumerate(spec.steps):
        row = list(step)
        for bas in reduced:
            piv = next(j for j, x in enumerate(bas) if x)
            f = row[piv]
            if f:
                row = [(x - f * y) % p for x, y in zip(row, bas)]
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is not None:
            inv = pow(row[nz], -1, p)
            reduced.append([x * inv % p for x in row])
            indep.append(i)
            rows.append(step)
    dependent = [i for i in range(spec.r) if i not in indep]
    offsets = set()
    for coeffs in itertools.product(range(spec.s), repeat=len(dependent)):
        x = spec.b0
        for a, i in zip(coeffs, dependent):
            x = group.add(x, group.int_scale(a, spec.steps[i]))
        offsets.add(x)
    return {"k": len(indep), "independent_steps": [spec.steps[i] for i in indep],
            "offsets": sorted(offsets)}
