"""Exact arithmetic in Z[zeta_p] for prime p, and certified enclosures.

The library computes only with enclose_sum. CycInt stays as the tests' ring
oracle, and because perfbench's tracer names CycInt.__mul__ and __add__.

An element is stored as an integer coefficient vector of length p against
the spanning set 1, zeta, ..., zeta^(p-1). That set is linearly dependent
(the full sum of the powers vanishes), so every element has a one-parameter
family of representatives; the canonical one has coefficient 0 at exponent
0, reached by subtracting coeffs[0] from every entry. Multiplication is a
cyclic convolution modulo X**p - 1 followed by canonicalization.

Keeping all p coordinates (instead of a power basis of rank p-1) makes the
product a plain convolution and the canonical form a one-line rule, at the
cost of one redundant word per element.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import add, sub
from typing import Iterable, Sequence

from . import convolve
from .errors import ModulusMismatch, NotRational
from .ffprime import Prime, primitive_root

def _canonical(coeffs: Sequence[int]) -> tuple[int, ...]:
    c0 = coeffs[0]
    if c0 == 0:
        return tuple(coeffs)
    return tuple(map(sub, coeffs, repeat(c0)))


class CycInt:
    """Immutable cyclotomic integer in Z[zeta_p], canonical coefficient vector."""

    def __init__(self, p: int, coeffs: tuple[int, ...]):
        Prime(p)
        if len(coeffs) != p:
            raise ValueError(f"need {p} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs if coeffs[0] == 0 else _canonical(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CycInt is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, CycInt) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, p: int, coeffs: Iterable[int]) -> "CycInt":
        return cls(p, tuple(int(c) for c in coeffs))

    @classmethod
    def from_integer(cls, p: int, k: int) -> "CycInt":
        return cls(p, (int(k),) + (0,) * (p - 1))

    @classmethod
    def zeta_power(cls, p: int, t: int) -> "CycInt":
        v = [0] * p
        v[t % p] = 1
        return cls(p, tuple(v))

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        return cls(p, (0,) * p)

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "CycInt") -> None:
        if self.p != other.p:
            raise ModulusMismatch(f"p = {self.p} vs p = {other.p}")

    def __add__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.p, tuple(map(add, self.coeffs, other.coeffs)))

    def __mul__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        prod = convolve.cyclic_convolve(self.coeffs, other.coeffs)
        return CycInt(self.p, tuple(prod))

    def __pow__(self, n: int) -> "CycInt":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[zeta_p]")
        out = None
        base = self
        while n:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if n:
                base = base * base
        return CycInt.from_integer(self.p, 1) if out is None else out

    def galois(self, k: int) -> "CycInt":
        """Ring automorphism zeta -> zeta**k for k coprime to p."""
        if k % self.p == 0:
            raise ValueError("k must be a unit mod p")
        v = [0] * self.p
        for t, c in enumerate(self.coeffs):
            v[(k * t) % self.p] += c
        return CycInt(self.p, tuple(v))

    # -- queries ------------------------------------------------------------

    def is_rational(self) -> bool:
        tail = self.coeffs[1:]
        return all(c == tail[0] for c in tail)

    def __repr__(self) -> str:
        return f"CycInt(p={self.p}, coeffs={self.coeffs})"


def as_integer(x: CycInt) -> int:
    """Rational value of x, when it has one.

    In canonical form a rational element reads c*(zeta + ... + zeta^(p-1))
    = -c; anything else raises NotRational.
    """
    if not x.is_rational():
        raise NotRational(f"element is irrational: {x!r}")
    return -x.coeffs[1]


# ---------------------------------------------------------------------------
# Certified enclosures
# ---------------------------------------------------------------------------


def _atan_inv(n: int, one: int) -> tuple[int, int]:
    """one * atan(1/n) by its alternating series, and a bound on the error.

    Each term floor(one / (k n**k)) is short by less than one unit, and the
    first omitted term, below one unit, bounds the tail.
    """
    total, power, k = 0, one // n, 1
    while power:
        total += -(power // k) if k & 2 else power // k
        power //= n * n
        k += 2
    return total, k // 2 + 1


def _cos_sin_seed(p: int, w: int) -> tuple[tuple[int, int], ...]:
    """Floor and ceiling of 2**w cos(2*pi/p) and of 2**w sin(2*pi/p).

    Integer series at scale 2**-v, v = w + 16, as unit_root_intervals'
    error argument describes.
    """
    v = w + 16
    one = 1 << v
    a5, e5 = _atan_inv(5, one)
    a239, e239 = _atan_inv(239, one)
    pi, err = 16 * a5 - 4 * a239, 16 * e5 + 4 * e239
    x_lo, x_hi = 2 * (pi - err) // p, -(-2 * (pi + err) // p)
    bounds = [one, one, 0, 0]  # cos lo, cos hi, sin lo, sin hi
    t_lo = t_hi = one
    k = 0
    while k << v <= x_hi or t_hi > 1:
        k += 1
        t_lo = t_lo * x_lo // (k << v)
        t_hi = -(-t_hi * x_hi // (k << v))
        i = 2 * (k & 1)  # odd k: sin; k mod 4 in (2, 3): subtract
        if k & 2:
            bounds[i] -= t_hi
            bounds[i + 1] -= t_lo
        else:
            bounds[i] += t_lo
            bounds[i + 1] += t_hi
    # widen by the tails, clamp to [-1, 1], drop the guard bits outward
    return tuple(
        (max(lo - t_hi, -one) >> 16, -(-min(hi + t_hi, one) >> 16))
        for lo, hi in (bounds[:2], bounds[2:])
    )


def unit_root_intervals(p: int, precision: int) -> list[tuple[int, int]]:
    """Interval enclosures of cos(2*pi*t/p) for t = 0..p//2.

    Each endpoint is an int at scale 2**-precision. Integer series for pi,
    cos and sin of 2*pi/p at scale 2**-(g + 8), with g = precision +
    p.bit_length() + 16, seed an integer-ball recurrence at scale 2**-g;
    t = 0 is exact and t = 1 is the seed's bounds rounded outward.

    Error argument, the seed. It works at scale 2**-v with v = g + 24: 16
    guard bits below the seed's scale. Machin's formula pi = 16 atan(1/5)
    - 4 atan(1/239) encloses pi: each arctangent's alternating series is
    summed with every term floored, which loses less than one unit per
    term, and the first omitted term, below one unit, bounds the tail
    (Brent and Zimmermann, Modern Computer Arithmetic, 4.2 and 4.4). x =
    2*pi/p is floored from the lower bound and ceiled from the upper. The
    Taylor terms x**k/k! are an integer interval: the lo term is
    floor(lo_(k-1) x_lo / (k 2**v)) and the hi term ceil(hi_(k-1) x_hi /
    (k 2**v)). Everything is positive, so each chain bounds x**k/k! from
    its side. Term k adds to cos (k even) or sin (k odd), subtracted when
    k mod 4 is 2 or 3, lo endpoint to lo bound and hi to hi, swapped when
    subtracted. The loop stops once k > x and the hi term is at most one
    unit; beyond k both series alternate with decreasing terms, so each
    tail is below that hi term, which widens both sums. cos and sin lie
    in [-1, 1], so both bounds are clamped there (cos pi = -1 at p = 2 is
    then exact at the lower end), and the guard bits are dropped outward.

    Error argument, the recurrence. Write w_t = 2**g * exp(2*pi*i*t/p). The
    seed's bounds, floored and ceiled to ints at scale 2**-g, give a centre
    z_1 (each midpoint floored) and a radius r_1 (the sum of the two
    component half-widths, hi - centre), so |z_1 - w_1| <= r_1. The
    recurrence is z_(t+1) = floor(z_t * z_1 / 2**g), componentwise. From
        z_t z_1 - w_t w_1 = (z_t - w_t) z_1 + z_t (z_1 - w_1)
                            - (z_t - w_t)(z_1 - w_1)
    and |z_s| <= 2**g + r_s, |z_t z_1 - w_t w_1| is at most
    E = (2**g + r_t) r_1 + (2**g + r_1) r_t + r_t r_1. Since
    w_t w_1 / 2**g = w_(t+1), and flooring moves each component by less
    than 1 (the point by less than 2),
        r_(t+1) = ceil(E / 2**g) + 2
    bounds |z_(t+1) - w_(t+1)|, and so each component's error. The pair at
    t >= 2 is floor((x - r) / 2**(g - precision)) and
    ceil((x + r) / 2**(g - precision)) for the real part x of z_t. The
    seed is 8 bits finer than its scale, so r_1 is a few units and the
    radius grows by at most r_1 + 3 per step: r_t stays below
    2**(p.bit_length() + 3) for t <= p/2, and 2 r_t < 2**(g - precision),
    so every pair is at most 2 units wide.

    cos is even, so only t <= p/2 is kept.
    """
    g = precision + p.bit_length() + 16
    seed = _cos_sin_seed(p, g + 8)
    cut = g + 8 - precision
    (c_lo, c_hi), _ = seed
    cos_iv = [(1 << precision, 1 << precision), (c_lo >> cut, -(-c_hi >> cut))]
    (x_lo, x_hi), (y_lo, y_hi) = ((lo >> 8, -(-hi >> 8)) for lo, hi in seed)
    x1, y1 = (x_lo + x_hi) >> 1, (y_lo + y_hi) >> 1
    r1 = (x_hi - x1) + (y_hi - y1)
    one, drop = 1 << g, g - precision
    x, y, r = x1, y1, r1
    for _ in range(2, p // 2 + 1):
        x, y = (x * x1 - y * y1) >> g, (x * y1 + y * x1) >> g
        r = -(-((one + r) * r1 + (one + r1) * r + r * r1) >> g) + 2
        cos_iv.append(((x - r) >> drop, -(-(x + r) >> drop)))
    return cos_iv


@lru_cache(maxsize=1)  # both orbit representatives of one prime
def _cached_roots(p: int, precision: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The cosine table of unit_root_intervals in generator order.

    Returns g**j mod p for j < p - 1 with g = primitive_root(p), and the lo
    endpoints Q_m of cos(2*pi*g**m/p) for m below the orbit length
    L = (p - 1) / gcd(2, p - 1). The table holds t <= p/2 only, so
    cos(2*pi*t/p) is read at min(t, p - t). Q has period L: at odd p,
    g**(m+L) = -g**m.
    """
    cos_iv = unit_root_intervals(p, precision)
    g = primitive_root(p)
    powers = [1]
    for _ in range(p - 2):
        powers.append(powers[-1] * g % p)
    length = (p - 1) // gcd(2, p - 1)
    half = [lo for lo, _ in cos_iv]
    full = half + half[p - p // 2 - 1 : 0 : -1]  # full[t] = half[min(t, p - t)]
    return tuple(powers), tuple(map(full.__getitem__, powers[:length]))


def enclose_sum(counts: Sequence[int], precision: int) -> tuple[list[int], int]:
    """Lower bounds of sum_t c_t cos(2*pi*g**i*t/p) at scale 2**-precision,
    for i = 0..L-1, and one width w that every upper bound is within.

    counts holds c_t >= 0 for t = 0..p-1, and g and L are those of
    _cached_roots. When counts are the fibre sizes of Kl_2(p; r), entry i
    encloses Kl_2(p; g**(2i) r), since zeta -> zeta**k sends Kl_2(p; r) to
    Kl_2(p; k**2 r): the entries are the orbit of r. The counts are
    non-negative, so lo endpoints bound from below. With t = g**j
    (Rader's reindexing), C_j = c_(g**j) and Q's period L, each lower
    bound is the cyclic correlation
        E_i = c_0 2**precision + sum_(j<L) D_j Q_(i+j),
    where D_j = sum_k C_(j+kL) folds C onto one period; one exact
    cyclic_convolve computes all L of them. Each pair of
    unit_root_intervals is at most 2 units wide and t = 0 is exact, so
    every value lies in [E_i, E_i + w] with w = 2 sum_j D_j.
    """
    p = Prime(len(counts))
    if min(counts) < 0:
        raise ValueError("enclose_sum needs non-negative counts")
    powers, q_lo = _cached_roots(p, precision)
    length = len(q_lo)
    reordered = list(map(counts.__getitem__, powers))
    folded = reordered[:length]
    for k in range(length, p - 1, length):
        folded = list(map(add, folded, reordered[k : k + length]))
    # correlation as convolution: E_i = sum_m Q_m D_(m-i), D reversed cyclically
    flipped = folded[:1] + folded[:0:-1]
    base = counts[0] << precision
    lows = [base + a for a in convolve.cyclic_convolve(q_lo, flipped)]
    return lows, 2 * sum(folded)
