"""Prime-field arithmetic and small number-theoretic helpers.

Everything here is deterministic: primality uses a fixed Miller-Rabin
witness set proven complete for 64-bit inputs, and the Jacobi symbol uses
binary quadratic reciprocity (no factoring, so composite moduli like
double factorials are fine).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import isqrt

from .errors import EvenInput, EvenModulus

# Jaeschke/Sorenson-Webster witness set: deterministic for n < 3.3e24,
# which covers every 64-bit integer.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=8192)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for n < 2**64)."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi, by a segmented sieve.

    Only [lo, hi] and the base primes up to isqrt(hi) are sieved, so the
    memory is hi - lo + isqrt(hi) bytes, not hi.
    """
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = isqrt(hi)
    base = bytearray([1]) * (root + 1)
    window = bytearray([1]) * (hi - lo + 1)
    for i in range(2, root + 1):
        if base[i]:
            base[i * i :: i] = bytes(len(range(i * i, root + 1, i)))
            first = max(i * i, -(-lo // i) * i)
            window[first - lo :: i] = bytes(len(range(first, hi + 1, i)))
    return list(compress(range(lo, hi + 1), window))


class Prime(int):
    """An int validated to be prime at construction."""

    def __new__(cls, value: int) -> "Prime":
        value = int(value)
        if not is_prime(value):
            raise ValueError(f"{value} is not prime")
        return super().__new__(cls, value)


def inverse_table(p: int) -> list[int]:
    """inv[x] for all x in F_p (inv[0] = 0), built in O(p)."""
    inv = [0] * p
    if p > 1:
        inv[1] = 1
    for x in range(2, p):
        inv[x] = (p - p // x) * inv[p % x] % p
    return inv


def primitive_root(p: int) -> int:
    """The least generator of F_p^* for the prime p (1 at p = 2).

    g generates when g**((p-1)/q) != 1 for every prime q dividing p - 1;
    p - 1 is factored by trial division.
    """
    factors = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(1, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root for {p}")  # unreachable for prime p


@lru_cache(maxsize=1)  # a prime's orbit operands and root table, then the next
def _generator_powers(p: int) -> tuple[int, ...]:
    """g**j mod p for j < p - 1, g = primitive_root(p): Rader's reindexing."""
    g = primitive_root(p)
    powers = [1]
    for _ in range(p - 2):
        powers.append(powers[-1] * g % p)
    return tuple(powers)


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by binary reciprocity.

    Fully multiplicative in both arguments; returns 0 when gcd(a, n) > 1.
    n is never factored, so large composite moduli are cheap.
    """
    if n < 1 or n % 2 == 0:
        raise EvenModulus(f"Jacobi symbol needs odd n >= 1, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def double_factorial(d: int) -> int:
    """d!! = d(d-2)(d-4)...1 for odd d >= 1."""
    if d < 1 or d % 2 == 0:
        raise EvenInput(f"double factorial defined here for odd d >= 1, got {d}")
    out = 1
    for k in range(d, 0, -2):
        out *= k
    return out
