"""Exact modular arithmetic: primes in arithmetic progressions, subgroup
generators, Chinese-remainder moduli systems, the one subgroup walk (powers)
and the batched discrete logs read from it, one base to many exponents
(pow_mod), the one exact product of int64 residues mod m < 2^63 (mul_mod,
matmul_mod and add_mod, priced by product_steps), the one gather of a
table at every product a_i b_j mod a prime (MulGather, one take at sums of
discrete logs, with no product and no remainder), and the one base-m digit
codec (to_digits / from_digits) of group indices and field encodings, the
only arrays of Python ints: an index or an encoding of 2^63 or more.

All functions are pure and deterministic; "smallest" is the canonical choice
wherever a prime or generator has to be picked, so every derived constant is
reproducible from its inputs alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, InputError, SearchBudgetError

MODULUS_CAP = 1 << 63
# product_steps past int64_sums: mul_mod takes about 20 ns an entry on 2^14 entries
# of a shared 2-vCPU Xeon, 40 of check_cost's 0.5 ns steps and 4 x its int64 product
LIMB_STEPS = 32
PRODUCT_CHUNK = 1 << 16  # products per mul_mod call of matmul_mod and gf._mul_digits

# Deterministic Miller-Rabin witness set, valid for all n < 3.317e24 > 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (valid below 2^64)."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class CrtSystem:
    """Pairwise-coprime moduli q_1..q_n with combined modulus q = prod q_i."""

    moduli: tuple[int, ...]
    combined_modulus: int

    @classmethod
    def make(cls, moduli: Sequence[int]) -> "CrtSystem":
        mods = tuple(int(m) for m in moduli)
        if not mods or any(m < 2 for m in mods):
            raise InputError("moduli must be integers >= 2")
        combined = 1
        for m in mods:
            if math.gcd(combined, m) != 1:
                raise InputError(f"moduli not pairwise coprime: {mods}")
            combined *= m
            if combined >= MODULUS_CAP:
                raise CapacityError(f"combined modulus {combined} >= 2^63")
        return cls(mods, combined)


def smallest_prime_congruent_one(p: int, budget: int = 10**9) -> int:
    """Smallest prime q with q = 1 (mod p), found by direct search."""
    return linnik_primes(p, 1, budget)[0]


def linnik_primes(p: int, n: int, budget: int = 10**9) -> list[int]:
    """Ascending list of the n smallest distinct primes = 1 (mod p)."""
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    if n < 1:
        raise InputError("n must be >= 1")
    out: list[int] = []
    q = 1 + p
    while q <= budget and len(out) < n:
        if is_prime(q):
            out.append(q)
        q += p
    if len(out) < n:
        raise SearchBudgetError(f"found {len(out)} < {n} primes = 1 mod {p} below {budget}")
    return out


def order_p_element(q: int, p: int) -> int:
    """Smallest g in {2..q-1} with g^p = 1 (mod q); has exact order p (p prime).

    Existence: Z_q* is cyclic of order q-1 and p | q-1.
    """
    if (q - 1) % p != 0:
        raise InputError(f"{p} does not divide {q}-1")
    for g in range(2, q):
        if pow(g, p, q) == 1:
            return g
    raise InputError(f"no element of order {p} mod {q}")  # unreachable for prime q


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk scale)."""
    if n <= 0:
        raise InputError("n must be positive")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, k >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def smallest_primitive_root(p: int) -> int:
    """Smallest generator of Z_p* (p an odd prime)."""
    if p == 2:
        return 1
    if not is_prime(p):
        raise InputError(f"{p} is not prime")
    prime_divs = list(factorize(p - 1))
    for g in range(2, p):
        if all(pow(g, (p - 1) // r, p) != 1 for r in prime_divs):
            return g
    raise InputError(f"no primitive root mod {p}")  # unreachable


def primes_upto(n: int) -> list[int]:
    """All primes <= n by sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i:: i] = bytearray(len(sieve[i * i:: i]))
    return [i for i, b in enumerate(sieve) if b]


def int64_sums(m: int, K: int) -> bool:
    """Whether a sum of K products of residues mod m stays below 2^63."""
    return K * (m - 1) ** 2 < MODULUS_CAP


def product_steps(m: int, K: int) -> int:
    """The price of one product of a sum of K mod m, in the steps of
    sources.check_cost: 1 in int64, LIMB_STEPS by mul_mod's limbs."""
    return 1 if int64_sums(m, K) else LIMB_STEPS


def _fold(m: int, r: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """v mod m, or that plus m, as uint64, for values v in [0, 2^34 m) given
    as r = v mod 2^64 (uint64) and their quotient by m estimated in float64,
    which is far better than 1/2 there: lowered by 1/2, the quotient is never
    too large and at most one short, so that the remainder is below 2m <
    2^64 and wrapping uint64 takes it exactly."""
    return r - (estimate - 0.5).astype(np.int64).view(np.uint64) * np.uint64(m)


def mul_mod(a, b, m: int) -> np.ndarray:
    """a b mod m, elementwise and broadcasting, for int64 residues in [0, m),
    m < 2^63, exact: one int64 product where int64_sums(m, 1), else by the
    32-bit limbs b = h 2^32 + l, as t 2^32 + a l, t = a h mod m (or that plus
    m), each reduced by _fold, less m where that leaves m or more."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if int64_sums(m, 1):
        return a * b % m
    if a.ndim == b.ndim == 0:  # numpy scalars would warn where uint64 wraps
        return mul_mod(a[None], b, m)[0]
    high, low = (b >> 32).view(np.uint64), (b & 0xFFFFFFFF).view(np.uint64)
    af, au = a.astype(np.float64), a.view(np.uint64)
    t = _fold(m, au * high, af * (high / m))
    r = _fold(m, (t << np.uint64(32)) + au * low, t * (2.0**32 / m) + af * (low / m))
    return np.minimum(r, r - np.uint64(m)).view(np.int64)


def add_mod(a, b, m: int) -> np.ndarray:
    """a + b mod m, elementwise and broadcasting, for int64 residues in [0,
    m), m < 2^63: the sum is taken in uint64, where it cannot overflow."""
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    s = a.view(np.uint64) + b.view(np.uint64)
    return (s - np.uint64(m) * (s >= np.uint64(m))).view(np.int64)


def matmul_mod(A, B, m: int) -> np.ndarray:
    """A @ B mod m with the broadcasting of @, for int64 residues A (..., n, K)
    and B (..., K, n'), m < 2^63, exact: one int64 @ where int64_sums(m, K),
    but an outer product (K = 1) is mul_mod's; else the products by mul_mod,
    PRODUCT_CHUNK at a time, their high and low 32 bits summed apart in
    uint64 (K < 2^31) and the sums reduced by _fold."""
    A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
    K = A.shape[-1]
    if K == 1:
        return mul_mod(A, B, m)
    if int64_sums(m, K):
        return A @ B % m
    out = np.broadcast_shapes(A.shape[:-1] + (1,), B.shape[:-2] + (1, B.shape[-1]))
    step = max(1, PRODUCT_CHUNK // max(1, math.prod(out)))
    high = low = np.zeros(out, dtype=np.uint64)
    for j in range(0, K, step):
        u = mul_mod(A[..., j:j + step, None], B[..., None, j:j + step, :], m).view(np.uint64)
        high = high + np.add.reduce(u >> np.uint64(32), axis=-2)
        low = low + np.add.reduce(u & np.uint64(0xFFFFFFFF), axis=-2)
    high %= np.uint64(m)
    r = _fold(m, (high << np.uint64(32)) + low, high * (2.0**32 / m) + low / m)
    return np.minimum(r, r - np.uint64(m)).view(np.int64)


def powers(g: int, count: int, q: int) -> np.ndarray:
    """g^0, g^1, ..., g^(count-1) mod q as int64: one subgroup walk by
    doubling, the powers so far times g^(their number) by mul_mod."""
    out = np.ones(count, dtype=np.int64)
    done = 1
    while done < count:
        step = min(done, count - done)
        out[done:done + step] = mul_mod(out[:step], pow(g, done, q), q)
        done += step
    return out


class MulGather:
    """table[a_i b_j mod p] for every pair of residues a, b in [0, p), p
    prime, with no product and no remainder: one take from table composed
    with the antilog table, at log a + log b. The logs are the indices to the
    base smallest_primitive_root(p), and 0 has 2p - 3, past every sum of two
    indices, where the composed table holds table[0] and the take clips. The
    log and composed tables, 3p entries, are built once (powers) for every
    gather (at)."""

    def __init__(self, table, p: int):
        antilog = np.append(powers(smallest_primitive_root(p), 2 * p - 3, p), 0)
        self.log = np.empty(p, dtype=np.int64)
        self.log[antilog[:p - 1]] = np.arange(p - 1)
        self.log[0] = 2 * p - 3
        self.composed = np.asarray(table)[antilog]

    def at(self, a, b=None, out=None) -> np.ndarray:
        """table[a_i b_j mod p], shape a.shape + b.shape, b None being every
        residue 0, ..., p - 1 in order, written into ``out`` if given."""
        index = np.add.outer(self.log[a], self.log if b is None else self.log[b])
        return self.composed.take(index, mode="clip", out=out)


def pow_mod(g: int, e: np.ndarray, q: int) -> np.ndarray:
    """g^e mod q at each exponent e >= 0 of an int64 array, as int64, by
    square and multiply: the squares g^(2^i) mod q as Python ints, and one
    mul_mod of the powers so far per bit of the largest exponent."""
    out = np.ones(e.shape, dtype=np.int64)
    square = g % q
    for i in range(int(e.max(initial=0)).bit_length()):
        out = mul_mod(out, np.where(e >> i & 1, square, 1), q)
        square = square * square % q
    return out


def discrete_logs(g: int, ys, p: int, baby: int) -> np.ndarray:
    """The index e in [0, p - 1) with g^e = y mod p of each y of ys (residues
    mod p, g a generator of Z_p*), or -1 where y = 0, by baby-step/giant-step
    for all points at once: one sorted table of the powers g^j, j < baby = B
    (1 <= B <= p - 1), then up to ceil((p - 1) / B) giant steps, each looking
    up y g^(-iB) for every point not yet found; the first hit is e = iB + j.
    At B = p - 1 the table holds every index and one step finds them all."""
    table = powers(g, baby, p)
    order = np.argsort(table)
    keys = table[order]
    giant = pow(g, -baby, p)
    ys = np.asarray(ys, dtype=np.int64)
    out = np.full(len(ys), -1, dtype=np.int64)
    todo = np.flatnonzero(ys)
    cur = ys[todo]
    for i in range(-(-(p - 1) // baby)):
        pos = np.minimum(np.searchsorted(keys, cur), baby - 1)
        hit = keys[pos] == cur
        out[todo[hit]] = i * baby + order[pos[hit]]
        todo, cur = todo[~hit], cur[~hit]
        if not len(todo):
            break
        cur = mul_mod(cur, giant, p)
    return out


def _weights(m: int, N: int) -> np.ndarray:
    """m^0, ..., m^(N-1): int64 where every code below m^N fits int64, else
    Python ints (dtype object)."""
    if m**N <= MODULUS_CAP:
        return m ** np.arange(N, dtype=np.int64)
    return np.array([m**j for j in range(N)], dtype=object)


def to_digits(codes, m: int, N: int) -> np.ndarray:
    """The N little-endian base-m digits of each code in [0, m^N), shape
    (..., N), int64: codes of 2^63 or more (Python ints, which numpy would
    read as uint64 or float64, or object arrays of them) are divided as
    Python ints, and only their digits, each below m, leave the codec."""
    array = np.asarray(codes)
    if array.dtype.kind not in "iO":
        array = np.array(codes, dtype=object)
    w = _weights(m, N)
    return (array.astype(np.result_type(array.dtype, w.dtype), copy=False)[..., None] // w % m
            ).astype(np.int64, copy=False)


def from_digits(digits, m: int) -> np.ndarray:
    """The codes sum_j d_j m^j of (..., N) base-m digit arrays (the inverse of
    to_digits): int64 where m^N <= 2^63, exact Python ints above that."""
    digits = np.asarray(digits)
    w = _weights(m, digits.shape[-1])
    return digits.astype(w.dtype, copy=False) @ w
