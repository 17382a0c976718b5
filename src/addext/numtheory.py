"""Exact modular arithmetic: primes in arithmetic progressions, subgroup
generators, Chinese-remainder moduli systems, the one subgroup walk (powers)
and the batched discrete logs read from it, the one kernel of inner products
mod m (dot_mod), and the one base-m digit codec (to_digits / from_digits) of
group indices and field encodings.

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


def dot_mod(A, X, m: int) -> np.ndarray:
    """The (c, n) int64 matrix of <a, x> mod m over the rows a of A and x of
    X, (c, N) and (n, N) digits in [0, m); (c,) and (n,) residues are N = 1,
    their products. Summed a digit at a time: int64 while (m - 1)^2 < 2^63
    (a sum below m plus one product then stays below 2^63), exact Python
    ints above that."""
    dtype = np.int64 if (m - 1) ** 2 < 1 << 63 else object
    A, X = (np.asarray(Y).astype(dtype, copy=False) for Y in (A, X))
    A, X = (Y[:, None] if Y.ndim == 1 else Y for Y in (A, X))
    out = A[:, 0, None] * X[None, :, 0]
    out %= m
    for j in range(1, A.shape[1]):
        out += A[:, j, None] * X[None, :, j]
        out %= m
    return out.astype(np.int64, copy=False)


def powers(g: int, count: int, q: int) -> np.ndarray:
    """g^0, g^1, ..., g^(count-1) mod q as int64: one subgroup walk by
    doubling, the powers so far times g^(their number) by dot_mod. Where
    (q - 1)^2 >= 2^63 a step takes at most isqrt(count) + 1 of them, which
    bounds the Python ints that dot_mod holds at once."""
    out = np.ones(count, dtype=np.int64)
    done, width = 1, count if (q - 1) ** 2 < 1 << 63 else math.isqrt(count) + 1
    while done < count:
        step = min(done, count - done, width)
        out[done:done + step] = dot_mod(out[:step], [pow(g, done, q)], q)[:, 0]
        done += step
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
        cur = dot_mod(cur, [giant], p)[:, 0]
    return out


def _weights(m: int, N: int) -> np.ndarray:
    """m^0, ..., m^(N-1): int64 where every code below m^N fits int64, else
    Python ints (dtype object)."""
    if m**N <= MODULUS_CAP:
        return m ** np.arange(N, dtype=np.int64)
    return np.array([m**j for j in range(N)], dtype=object)


def to_digits(codes, m: int, N: int) -> np.ndarray:
    """The N little-endian base-m digits of each code in [0, m^N), shape
    (..., N): int64 for int64 codes, Python ints (dtype object) for object
    codes and for Python ints of 2^63 or more, which numpy would read as
    uint64 or float64."""
    array = np.asarray(codes)
    if array.dtype.kind not in "iO":
        array = np.array(codes, dtype=object)
    dtype = array.dtype if array.dtype == object else np.int64
    w = _weights(m, N)
    return (array.astype(np.result_type(dtype, w.dtype), copy=False)[..., None] // w % m
            ).astype(dtype, copy=False)


def from_digits(digits, m: int) -> np.ndarray:
    """The codes sum_j d_j m^j of (..., N) base-m digit arrays (the inverse of
    to_digits): int64 where m^N <= 2^63, exact Python ints above that."""
    digits = np.asarray(digits)
    w = _weights(m, digits.shape[-1])
    return digits.astype(w.dtype, copy=False) @ w
