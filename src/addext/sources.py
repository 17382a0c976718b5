"""Source families over Z_p, Z_p^n, F_q^n and Z_N: construction by exact
enumeration, and structural diagnostics (symmetry sets, doubling, additive
profiles).

A source is the uniform distribution on a finite, deduplicated element set.
Elements are ints for Z_p and Z_N, tuples of ints for vector groups (each
coordinate an encoded field element for F_q^n).
"""

from __future__ import annotations

import math
import os
import random
import sys
from dataclasses import dataclass, field, fields
from decimal import Decimal
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import gf
from .canonical import digest
from .errors import BudgetError, InputError
from .numtheory import MODULUS_CAP, CrtSystem, dot_mod, from_digits, is_prime, to_digits

DEFAULT_ELEMENT_BUDGET = 1 << 26
DEFAULT_PAIR_BUDGET = 1 << 26
# Work counts array-entry steps (a numpy pass over one entry, ~0.5 ns on a 2-vCPU
# Xeon), a Python loop step as PY_STEP of them and a product of Python ints (dot_mod
# where (m - 1)^2 >= 2^63) as PY_INT; a run may do WORK_FACTOR x the budget (check_cost).
PY_STEP, PY_INT, WORK_FACTOR = 1 << 11, 1 << 7, 1 << 10


def product_steps(m: int) -> int:
    """The work of one entry of dot_mod mod m: 1 step in int64, PY_INT above."""
    return 1 if (m - 1) ** 2 < 1 << 63 else PY_INT


def element_budget() -> int:
    raw = os.environ.get("ADDEXT_BUDGET", DEFAULT_ELEMENT_BUDGET)
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"ADDEXT_BUDGET must be an integer, not {raw!r}") from None


def _figure(n: int) -> str:
    """n exactly while it has at most 12 digits, else to 4 significant digits
    (str() refuses an int of more than 4,300 digits)."""
    return str(n) if n < 10**12 else f"{Decimal(n):.4g}"


def check_cost(what: str, held: int = 0, work: int = 0) -> None:
    """The one budget refusal, made before anything is built: BudgetError
    when ``what`` holds more than element_budget() array entries at once, or
    works more than WORK_FACTOR times it in steps (PY_STEP, PY_INT)."""
    budget = element_budget()
    if held > budget:
        raise BudgetError(f"{what}, {_figure(held)} entries: past the element budget {budget}")
    if work > WORK_FACTOR * budget:
        raise BudgetError(f"{what}, {_figure(work)} steps: past {WORK_FACTOR} x the "
                          f"element budget {budget}")


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
        return self.zmn[0] ** self.zmn[1]

    @property
    def zmn(self) -> tuple[int, int]:
        """(m, N) with the group's additive group Z_m^N: (order, 1) for Z_p
        and the CRT group, (p, n) for Z_p^n and (p, kn) for F_q^n, q = p^k,
        since an F_q coordinate is encoded as k base-p digits (gf.FieldSpec)."""
        if self.kind == "zn":
            return self.crt.combined_modulus, 1
        return self.p, (self.n or 1) * (self.field.k if self.field else 1)

    @property
    def base_order(self) -> int:
        """Order of the coordinate field of a vector group."""
        return self.p if self.kind == "zp_vec" else self.field.order

    @property
    def zero(self):
        if self.kind in ("zp", "zn"):
            return 0
        return (0,) * self.n

    def digits(self, elements) -> np.ndarray:
        """The base-m digits of a collection of elements as one int64 array:
        (count,) for the ints of Z_p and Z_N, (count, N) for vectors. Digit
        j has weight m^j in the element's index: the element of index i is
        Group.from_digits(numtheory.to_digits(i, m, N)). An F_q coordinate
        (q < 2^63) is its k base-p digits."""
        if self.kind in ("zp", "zn"):
            return np.fromiter(elements, dtype=np.int64, count=len(elements))
        coords = np.array(list(elements), dtype=np.int64).reshape(-1, self.n)
        return to_digits(coords, self.p, self.field.k).reshape(-1, self.zmn[1]) \
            if self.field else coords

    def from_digits(self, digits: np.ndarray) -> list:
        """The elements of (count, N) digits, int64 or object (the inverse of
        Group.digits; a scalar group also takes (count,) digits)."""
        if self.kind in ("zp", "zn"):
            return digits.reshape(-1).tolist()
        if self.field:
            digits = from_digits(digits.reshape(len(digits), self.n, self.field.k), self.p)
        return list(map(tuple, digits.tolist()))

    def validate_element(self, *xs) -> None:
        """InputError unless every argument is an element of the group."""
        scalar = self.kind in ("zp", "zn")
        bound = self.order if scalar else self.base_order
        for x in xs:
            if not ((isinstance(x, int) and 0 <= x < bound) if scalar
                    else (isinstance(x, tuple) and len(x) == self.n
                          and all(isinstance(a, int) and 0 <= a < bound for a in x))):
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
                if p ** min(k, 64) >= MODULUS_CAP:  # p >= 2, so p^64 >= 2^64
                    raise InputError(f"q = {p}^{k} is not below 2^63")
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


def _elem_text(x) -> str:
    """canonical_json(_elem_json(x)) without json: the CSV cell of an element."""
    return "[" + ",".join(map(str, x)) + "]" if isinstance(x, tuple) else str(x)


def _elem_from_json(v):
    return tuple(int(a) for a in v) if isinstance(v, list) else int(v)


def spec_to_json(spec: SourceSpec) -> dict:
    if not isinstance(spec, SourceSpec):
        raise InputError(f"unknown spec {spec!r}")
    out = {"variant": spec.variant}
    for f in fields(spec):
        value = getattr(spec, f.name)
        out[f.name] = [_elem_json(x) for x in value] if f.type == "tuple" else _elem_json(value)
    if isinstance(spec, GapSpec):
        out["r"] = spec.r
    return out


_SPECS = {cls.variant: cls for cls in SourceSpec.__args__}
# field annotation -> reader of its JSON value
_SPEC_FIELDS = {"object": _elem_from_json, "tuple": lambda v: tuple(map(_elem_from_json, v)),
                "int": int, "float": float}


def spec_from_json(obj: dict) -> SourceSpec:
    cls = _SPECS.get(obj.get("variant"))
    if cls is None:
        raise InputError(f"unknown source variant {obj.get('variant')!r}")
    try:
        return cls(*(_SPEC_FIELDS[f.type](obj[f.name]) for f in fields(cls)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed source spec: {exc}") from exc


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Source:
    """A deduplicated element set carrying the uniform distribution. Its
    sorted elements and digest are computed once, on first read."""

    group: Group
    spec: SourceSpec
    elements: frozenset
    notes: dict = field(default_factory=dict, compare=False)

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def sorted_elements(self) -> list:
        return sorted(self.elements)

    @cached_property
    def digest(self) -> str:
        return digest({"group": self.group.to_json(),
                       "elements": [_elem_json(x) for x in self.sorted_elements]})

    def to_json(self) -> dict:
        return {"group": self.group.to_json(), "spec": spec_to_json(self.spec),
                "size": len(self), "digest": self.digest,
                "elements": [_elem_json(x) for x in self.sorted_elements],
                "notes": dict(self.notes)}


def bohr_vmax(m: int, rho) -> int:
    """The one Bohr predicate: a residue v mod m has || v/m || < rho iff
    min(v, m - v) <= bohr_vmax(m, rho). Exact for rho a float or a Fraction;
    -1 when no residue qualifies."""
    rho = Fraction(rho)
    return min((rho.numerator * m - 1) // rho.denominator, m - 1)


BOHR_CHUNK = 1 << 16  # entries per dot_mod matrix of _bohr_set (512 KiB); charsum_table takes 1/4


def _bohr_set(group: Group, freqs: Sequence, rho) -> set:
    """Bohr(freqs, rho): the x with min(v, m - v) <= bohr_vmax(m, rho) for
    every residue v = <xi, x> mod m, tested over chunks of the group's index
    range, each a dot_mod matrix of at most BOHR_CHUNK entries (at least one
    index), after the group's order is checked as held entries (check_cost).
    Frequencies are reduced below m, and one that is zero mod m is an input
    error; a modulus whose square reaches 2^63 is a BudgetError."""
    if group.field:
        raise InputError("Bohr sets are supported over Z_p, Z_p^n and Z_N")
    m, n = group.zmn
    vmax = bohr_vmax(m, rho)
    check_cost(f"a Bohr set over the {group.kind} group", held=group.order)
    if m * m >= 1 << 63:
        raise BudgetError(f"Bohr modulus {m} has a square of at least 2^63")
    vec = group.kind == "zp_vec"
    coeffs = []
    for xi in freqs:
        if not (isinstance(xi, tuple) and len(xi) == n and all(isinstance(a, int) for a in xi)
                if vec else isinstance(xi, int)):
            raise InputError(f"Bohr frequency {xi!r} does not fit the {group.kind} group")
        coeffs.append([a % m for a in (xi if vec else (xi,))])
        if not any(coeffs[-1]):
            raise InputError("Bohr frequencies must be nonzero")
    coeffs = np.array(coeffs, dtype=np.int64).reshape(len(coeffs), n)
    step = max(1, BOHR_CHUNK // max(1, len(coeffs)))
    out: set = set()
    for lo in range(0, group.order, step):
        rest = np.arange(lo, min(lo + step, group.order), dtype=np.int64)
        digits = to_digits(rest, m, n)
        v = dot_mod(coeffs, digits, m)
        keep = (np.minimum(v, m - v) <= vmax).all(axis=0)
        out.update(group.from_digits(digits[keep] if vec else rest[keep]))
    return out


def _multiples(group: Group, gens: np.ndarray, count: int, scalars: bool) -> np.ndarray:
    """(count, r, N) digit rows of count multiples of each of r generators,
    given as (r, N) digit rows: the integer multiples t g, digitwise
    (t mod m) g mod m by one numtheory.dot_mod, or with ``scalars`` the
    base-field multiples, t running over the encodings of the coordinate
    field (Z_p as F_p), by one gf.mul_many."""
    m = group.zmn[0]
    if not scalars:
        return dot_mod(np.arange(count) % m, gens.ravel(), m).reshape(count, *gens.shape)
    F = group.field or gf.FieldSpec.make(group.p, 1)
    dtype = gf.digit_dtype(F)
    t = to_digits(np.arange(count), F.p, F.k).astype(dtype)
    coords = gens.reshape(-1, F.k).astype(dtype)   # one row per coordinate of each generator
    prods = gf.mul_many(F, np.repeat(t, len(coords), axis=0), np.tile(coords, (count, 1)))
    return prods.reshape(count, *gens.shape).astype(np.int64)


def _span(group: Group, base, gens: Sequence, count: int, scalars: bool = False) -> set:
    """{base + m_1 + ... + m_r}, m_i running over count multiples of gens[i]
    (_multiples: the integer multiples 0, g, 2g, ..., or with ``scalars`` the
    base-field multiples t g, t < count = |F|), as digit rows: the box grows
    one generator at a time by the pair sums of its rows so far and that
    generator's multiples, only the distinct ones (_distinct_sums) once
    there are more pairs than group elements.

    The box volume count^r is checked as held entries (check_cost) before
    anything is built, and no step holds more rows than that volume; with no
    generators there is no table of multiples, and the span is {base}.
    """
    check_cost(f"a span of volume {count}^{len(gens)}", held=count ** len(gens))
    m, N = group.zmn
    rows = group.digits([base, *gens]).reshape(-1, N)
    out = rows[:1]
    multiples = _multiples(group, rows[1:], count, scalars) if gens else None
    for i in range(len(gens)):
        if len(out) * count > m**N:
            out = _distinct_sums(out, multiples[:, i], m)[0]
        else:
            out = np.array([_digit_sums(out, multiples[:, i], m, j) for j in range(N)]).T
    return set(group.from_digits(out))


def build_source(spec: SourceSpec, group: Group) -> Source:
    """Materialize a source by exact enumeration of its element set; its size
    (a box's volume, a Bohr set's group order, a random sample) is refused
    past the element budget by check_cost before anything is built."""
    notes: dict = {}

    if isinstance(spec, GapSpec):
        if not 1 <= spec.s:
            raise InputError("GAP side s must be >= 1")
        group.validate_element(spec.b0, *spec.steps)
        els = _span(group, spec.b0, spec.steps, spec.s)
        notes["proper"] = len(els) == spec.s**spec.r

    elif isinstance(spec, (ApSpec, HapSpec)):
        b0 = spec.b0 if isinstance(spec, ApSpec) else group.zero
        step, k = spec.step, spec.k
        group.validate_element(b0, step)
        if step == group.zero:
            raise InputError("AP step must be nonzero")
        els = _span(group, b0, (step,), k)
        notes["proper"] = len(els) == k

    elif isinstance(spec, BohrSpec):
        if not 0 < spec.rho < 1:
            raise InputError("Bohr radius must lie in (0, 1)")
        els = _bohr_set(group, spec.freqs, spec.rho)
        # 0 is always a member, so a Bohr set is never empty
        notes["rank"] = len(spec.freqs)

    elif isinstance(spec, AffineSpec):
        group.validate_element(spec.base, *spec.basis)
        if group.kind not in ("zp_vec", "fq_vec"):
            raise InputError("affine sources require a vector group")
        els = _span(group, spec.base, spec.basis, group.base_order, scalars=True)
        notes["dimension"] = round(math.log(len(els), group.base_order))

    elif isinstance(spec, LineSpec):
        if group.kind not in ("zp_vec", "fq_vec"):
            raise InputError("line sources require a vector group")
        group.validate_element(spec.a, spec.d)
        if spec.d == group.zero:
            raise InputError("line direction must be nonzero")
        els = _span(group, spec.a, (spec.d,), group.base_order, scalars=True)

    elif isinstance(spec, ExplicitSpec):
        group.validate_element(*spec.elements)
        if not spec.elements:
            raise InputError("explicit source must be nonempty")
        els = set(spec.elements)

    elif isinstance(spec, RandomSpec):
        if not 1 <= spec.size <= group.order:
            raise InputError("random source size out of range")
        check_cost("a random source", held=spec.size)
        rng = random.Random(spec.seed)
        if group.order > sys.maxsize:
            # rng.sample needs len(range(order)), which overflows here
            idx = set()
            while len(idx) < spec.size:
                idx.add(rng.randrange(group.order))
            idx = list(idx)
        else:
            idx = rng.sample(range(group.order), spec.size)
        els = set(group.from_digits(to_digits(idx, *group.zmn)))

    else:
        raise InputError(f"unknown source spec {spec!r}")

    return Source(group, spec, frozenset(els), notes)


def sub_gap(spec: GapSpec, group: Group, side: int) -> set:
    """Homogeneous small-coefficient sub-GAP {sum a_i b_i : 0 <= a_i < side}.

    These are the canonical symmetry-set witnesses of a proper GAP.
    """
    group.validate_element(*spec.steps)
    return _span(group, group.zero, spec.steps, side)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def cyclic_convolve(va, vb, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact histogram of a_i + b_j over all pairs (i, j) in Z_m^N.

    ``va``, ``vb`` are (count,) residues (N = 1) or (count, N) digit rows
    (Group.digits); an entry repeated r times counts r times. Returns the
    distinct sums in the layout of ``va`` and in increasing index (the
    base-m number of the digits), and the number of pairs giving each. The
    route follows from the sizes:

    * pairs, when |a||b| <= min(m^N, 2^26): the |a||b| digitwise sums,
      sorted and counted by runs (_distinct_sums);
    * FFT otherwise, its m^N entries checked as held (check_cost): for N = 1
      zero-padded to a power of two >= 2m - 1 (a large prime length through
      Bluestein costs several times more) and folded mod m, for N > 1 one
      cyclic rfftn on shape (m,)*N; then rounded.
    """
    va, vb = np.asarray(va, dtype=np.int64), np.asarray(vb, dtype=np.int64)
    N = va.shape[1] if va.ndim == 2 else 1
    a, b = va.reshape(len(va), N), vb.reshape(len(vb), N)
    order = m**N
    if len(a) * len(b) <= min(order, DEFAULT_PAIR_BUDGET):
        keys, counts = _distinct_sums(a, b, m)
    else:
        check_cost(f"the FFT route for {len(a)} x {len(b)} pair sums", held=order)
        if N == 1:
            counts = convolve_rows(np.bincount(a[:, 0], minlength=m)[None],
                                   np.bincount(b[:, 0], minlength=m)[None], m)[0]
        else:
            shape = (m,) * N  # axis j is digit j
            fa, fb = (np.fft.rfftn(np.bincount(from_digits(x, m), minlength=order)
                                   .reshape(shape, order="F")) for x in (a, b))
            counts = _rounded(np.fft.irfftn(fa * fb, shape, range(N))).ravel(order="F")
        index = np.flatnonzero(counts)
        counts = counts[index].astype(np.int64, copy=False)
        keys = to_digits(index, m, N)
    return (keys[:, 0] if va.ndim == 1 else keys), counts


def _distinct_sums(a: np.ndarray, b: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct digitwise sums (a_i + b_k) mod m over all pairs of two
    (count, N) int64 digit arrays, as digit rows in increasing index, and
    the number of pairs giving each: the sums sorted and counted by runs.
    The sums are told apart by their index while m^N < 2^63, by their
    digits above that."""
    N = a.shape[1]
    if m**N < 1 << 63:
        index = _digit_sums(a, b, m, 0)
        for j in range(1, N):
            index += _digit_sums(a, b, m, j) * m**j
        keys, counts = np.unique(index, return_counts=True)
        return to_digits(keys, m, N), counts
    # most significant digit first, so that the rows sort by index
    sums = np.stack([_digit_sums(a, b, m, j) for j in reversed(range(N))], axis=1)
    keys, counts = np.unique(sums, axis=0, return_counts=True)
    return keys[:, ::-1], counts


def _digit_sums(a: np.ndarray, b: np.ndarray, m: int, j: int) -> np.ndarray:
    """(a_i + b_k) mod m at digit j for every pair (i, k), flat. a + (b - m)
    lies in [-m, m - 1), so int64 holds it for any m < 2^63."""
    return (a[:, j, None] + (b[:, j] - m)[None, :]).ravel() % m


def _rounded(x: np.ndarray) -> np.ndarray:
    """An FFT's float counts, rounded; BudgetError if one is too far from an
    integer. The FFT's error per entry is about c eps log2(size) |a|_2 |b|_2,
    with eps = 2^-53 and c a small constant. Under the default budgets (size
    <= 2^27) every caller keeps |a|_2 |b|_2 below 2^31 (0/1 histograms of sets
    of at most 2^26 elements; moment_sum's t-fold counts, |Y|^t < 2^31), so
    the residual stays below 1e-4. The check guards inputs beyond those bounds."""
    counts = np.rint(x)
    residual = float(np.abs(x - counts).max(initial=0.0))
    if residual >= 0.25:
        raise BudgetError(f"FFT rounding residual {residual} too large to round exactly")
    return counts


CONVOLVE_CHUNK = 1 << 16  # padded entries per step of convolve_rows: 512 KiB per float64 work array


def convolve_rows(A, B, m: int) -> np.ndarray:
    """Exact cyclic convolutions of the rows of two (rows, m) arrays of
    non-negative integer weights: out[r, k] = sum over i + j = k mod m of
    A[r, i] B[r, j], as int64.

    Per chunk of rows, an rfft zero-padded to a power of two >= 2m - 1 (a
    large prime length through Bluestein costs several times more), folded
    mod m and rounded; the chunk holds at most CONVOLVE_CHUNK padded entries
    (at least one row), so memory is O(chunk) whatever the row count.
    The padded length is checked as held entries (check_cost) first.
    """
    A, B = np.asarray(A), np.asarray(B)
    size = 1 << (2 * m - 2).bit_length()
    check_cost(f"a convolution mod {m}, zero-padded", held=size)
    step = max(1, CONVOLVE_CHUNK // size)
    out = np.empty((len(A), m), dtype=np.int64)
    for s in range(0, len(A), step):
        fa = np.fft.rfft(A[s:s + step], size)
        fb = fa if B is A else np.fft.rfft(B[s:s + step], size)
        full = np.fft.irfft(fa * fb, size)
        folded = full[:, :m].copy()
        folded[:, :m - 1] += full[:, m:2 * m - 1]
        out[s:s + step] = _rounded(folded)
    return out


def difference_histogram(X: Source) -> tuple[np.ndarray, np.ndarray]:
    """The distinct g in X - X as digits (Group.digits), in increasing index,
    and each |X cap (X + g)|, the number of ways to write g as a difference,
    as the histogram of X + (-X) by cyclic_convolve."""
    m = X.group.zmn[0]
    digits = X.group.digits(X.elements)
    return cyclic_convolve(digits, (m - digits) % m, m)


def sym_set(X: Source, alpha: float) -> set:
    """{g : |X cap (X+g)| >= (1-alpha)|X|}, threshold inclusive.

    Only g in X - X can have a nonzero representation count, and the counts
    are the difference histogram.
    """
    if not 0 < alpha <= 1:
        raise InputError("alpha must lie in (0, 1]")
    # counts are integers: compare with the ceiling, not elementwise with a Fraction
    thresh = math.ceil((1 - Fraction(alpha)) * len(X))
    values, counts = difference_histogram(X)
    return set(X.group.from_digits(values[counts >= thresh]))


def doubling(X: Source) -> int:
    """Exact cardinality of the sumset X + X, by cyclic_convolve (which picks
    its route by size)."""
    digits = X.group.digits(X.elements)
    return len(cyclic_convolve(digits, digits, X.group.zmn[0])[0])


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
