"""Exact arithmetic in Z[zeta_p] for prime p.

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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class CycInt:
    """Cyclotomic integer in Z[zeta_p], canonical coefficient vector."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        Prime(self.p)
        if len(self.coeffs) != self.p:
            raise ValueError(f"need {self.p} coefficients, got {len(self.coeffs)}")
        if self.coeffs[0] != 0:
            object.__setattr__(self, "coeffs", _canonical(self.coeffs))

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

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.p, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.p, tuple(-a for a in self.coeffs))

    def scale(self, k: int) -> "CycInt":
        return CycInt(self.p, tuple(k * a for a in self.coeffs))

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

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

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


def _scaled_bound(raw, precision: int, upper: bool) -> int:
    """An mpf endpoint times 2**precision, rounded outward to an int."""
    sign, man, exp, _ = raw
    if man == 0:
        if exp == 0:
            return 0
        raise OverflowError("non-finite interval endpoint")
    value = -int(man) if sign else int(man)
    shift = exp + precision
    if shift >= 0:
        return value << shift
    # >> floors; the upper bound rounds up as the negated floor of -value
    return -(-value >> -shift) if upper else value >> -shift


def unit_root_intervals(p: int, precision: int):
    """Interval enclosures of cos and sin of 2*pi*t/p for t = 0..p-1.

    Each endpoint is an int at scale 2**-precision. One mpmath interval,
    cos and sin of 2*pi/p at g + 8 bits with g = precision +
    p.bit_length() + 16, seeds an integer-ball recurrence at scale 2**-g;
    t = 0 is exact and t = 1 is the seed's bounds rounded outward.

    Error argument. Write w_t = 2**g * exp(2*pi*i*t/p). The seed's bounds,
    floored and ceiled to ints at scale 2**-g, give a centre z_1 (each
    midpoint floored) and a radius r_1 (the sum of the two component
    half-widths, hi - centre), so |z_1 - w_1| <= r_1. The recurrence is
    z_(t+1) = floor(z_t * z_1 / 2**g), componentwise. From
        z_t z_1 - w_t w_1 = (z_t - w_t) z_1 + z_t (z_1 - w_1)
                            - (z_t - w_t)(z_1 - w_1)
    and |z_s| <= 2**g + r_s, |z_t z_1 - w_t w_1| is at most
    E = (2**g + r_t) r_1 + (2**g + r_1) r_t + r_t r_1. Since
    w_t w_1 / 2**g = w_(t+1), and flooring moves each component by less
    than 1 (the point by less than 2),
        r_(t+1) = ceil(E / 2**g) + 2
    bounds |z_(t+1) - w_(t+1)|, and so each component's error. The pair at
    t >= 2 is floor((x - r) / 2**(g - precision)) and
    ceil((x + r) / 2**(g - precision)) for each component x of z_t. The
    seed is 8 bits finer than its scale, so r_1 is a few units and the
    radius grows by at most r_1 + 3 per step: r_t stays below
    2**(p.bit_length() + 3) for t <= p/2, and 2 r_t < 2**(g - precision),
    so every pair is at most 2 units wide.

    Only t <= p/2 is evaluated; t > p/2 follows exactly from
    cos(2*pi*(p-t)/p) = cos(2*pi*t/p) and sin(2*pi*(p-t)/p) = -sin(2*pi*t/p).
    """
    from mpmath import libmp  # only root tables need mpmath; start-up skips it

    g = precision + p.bit_length() + 16
    work = g + 8
    two_pi = tuple(
        libmp.mpf_shift(libmp.mpf_pi(work, rnd), 1)
        for rnd in (libmp.round_floor, libmp.round_ceiling)
    )
    arg = libmp.mpi_div(two_pi, (libmp.from_int(p),) * 2, work)
    (c_lo, c_hi), (s_lo, s_hi) = libmp.mpi_cos_sin(arg, work)
    cos_iv = [
        (1 << precision, 1 << precision),
        (_scaled_bound(c_lo, precision, False), _scaled_bound(c_hi, precision, True)),
    ]
    sin_iv = [
        (0, 0),
        (_scaled_bound(s_lo, precision, False), _scaled_bound(s_hi, precision, True)),
    ]
    x_lo, x_hi = _scaled_bound(c_lo, g, False), _scaled_bound(c_hi, g, True)
    y_lo, y_hi = _scaled_bound(s_lo, g, False), _scaled_bound(s_hi, g, True)
    x1, y1 = (x_lo + x_hi) >> 1, (y_lo + y_hi) >> 1
    r1 = (x_hi - x1) + (y_hi - y1)
    one, drop = 1 << g, g - precision
    x, y, r = x1, y1, r1
    for _ in range(2, p // 2 + 1):
        x, y = (x * x1 - y * y1) >> g, (x * y1 + y * x1) >> g
        r = -(-((one + r) * r1 + (one + r1) * r + r * r1) >> g) + 2
        cos_iv.append(((x - r) >> drop, -(-(x + r) >> drop)))
        sin_iv.append(((y - r) >> drop, -(-(y + r) >> drop)))
    for t in range(p // 2 + 1, p):
        cos_iv.append(cos_iv[p - t])
        lo, hi = sin_iv[p - t]
        sin_iv.append((-hi, -lo))
    return cos_iv, sin_iv


@lru_cache(maxsize=64)
def _cached_roots(p: int, precision: int) -> tuple[tuple[int, ...], ...]:
    """The cosine table of unit_root_intervals in generator order.

    Returns g**j mod p for j < p - 1 with g = primitive_root(p), and the lo
    and hi endpoints Q_m of cos(2*pi*g**m/p) for m below the orbit length
    L = (p - 1) / gcd(2, p - 1). Q has period L: at odd p,
    g**(m+L) = -g**m, and the table's second half mirrors the first
    exactly.
    """
    cos_iv, _ = unit_root_intervals(p, precision)
    g = primitive_root(p)
    powers = [1]
    for _ in range(p - 2):
        powers.append(powers[-1] * g % p)
    length = (p - 1) // gcd(2, p - 1)
    lo = tuple(cos_iv[t][0] for t in powers[:length])
    hi = tuple(cos_iv[t][1] for t in powers[:length])
    return tuple(powers), lo, hi


def enclose_sum(counts: Sequence[int], precision: int) -> list[tuple[int, int]]:
    """Integer bounds (lo, hi) of sum_t c_t cos(2*pi*g**i*t/p) at scale
    2**-precision, for i = 0..L-1.

    counts holds c_t >= 0 for t = 0..p-1, and g and L are those of
    _cached_roots. When counts are the fibre sizes of Kl_2(p; r), entry i
    encloses Kl_2(p; g**(2i) r), since zeta -> zeta**k sends Kl_2(p; r) to
    Kl_2(p; k**2 r): the entries are the orbit of r. The counts are
    non-negative, so lo pairs with lo and hi with hi. With t = g**j
    (Rader's reindexing), C_j = c_(g**j) and Q's period L, each bound is
    the cyclic correlation
        E_i = c_0 2**precision + sum_(j<L) D_j Q_(i+j),
    where D_j = sum_k C_(j+kL) folds C onto one period; one exact
    cyclic_convolve per endpoint computes all L of them.
    """
    p = Prime(len(counts))
    if min(counts) < 0:
        raise ValueError("enclose_sum needs non-negative counts")
    powers, q_lo, q_hi = _cached_roots(p, precision)
    length = len(q_lo)
    reordered = [counts[t] for t in powers]
    folded = [sum(col) for col in zip(*(
        reordered[k : k + length] for k in range(0, p - 1, length)
    ))]
    # correlation as convolution: E_i = sum_m Q_m D_(m-i), D reversed cyclically
    flipped = folded[:1] + folded[:0:-1]
    base = counts[0] << precision
    lo = convolve.cyclic_convolve(q_lo, flipped)
    hi = convolve.cyclic_convolve(q_hi, flipped)
    return [(base + a, base + b) for a, b in zip(lo, hi)]
