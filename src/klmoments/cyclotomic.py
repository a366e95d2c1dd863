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
from typing import Iterable, Sequence

import numpy as np
from mpmath import libmp

from . import convolve
from .errors import ModulusMismatch, NotRational
from .ffprime import Prime

def _canonical(coeffs: Sequence[int]) -> tuple[int, ...]:
    c0 = coeffs[0]
    if c0 == 0:
        return tuple(coeffs)
    return tuple(c - c0 for c in coeffs)


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
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

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
        out = CycInt.from_integer(self.p, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

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

    Each endpoint is an int at scale 2**-precision: mpmath's outward-rounded
    interval bounds times 2**precision, floored for lo and ceiled for hi,
    so downstream bounds are fully rigorous. Only t <= p/2 is evaluated,
    one mpi_cos_sin call each; t > p/2 follows exactly from
    cos(2*pi*(p-t)/p) = cos(2*pi*t/p) and sin(2*pi*(p-t)/p) = -sin(2*pi*t/p).
    """
    two_pi = tuple(
        libmp.mpf_shift(libmp.mpf_pi(precision, rnd), 1)
        for rnd in (libmp.round_floor, libmp.round_ceiling)
    )
    p_iv = (libmp.from_int(p),) * 2
    cos_iv, sin_iv = [], []
    for t in range(p // 2 + 1):
        t_iv = (libmp.from_int(t),) * 2
        arg = libmp.mpi_div(libmp.mpi_mul(two_pi, t_iv, precision), p_iv, precision)
        for table, (lo, hi) in zip((cos_iv, sin_iv), libmp.mpi_cos_sin(arg, precision)):
            table.append((
                _scaled_bound(lo, precision, upper=False),
                _scaled_bound(hi, precision, upper=True),
            ))
    for t in range(p // 2 + 1, p):
        cos_iv.append(cos_iv[p - t])
        lo, hi = sin_iv[p - t]
        sin_iv.append((-hi, -lo))
    return cos_iv, sin_iv


_LIMB_BITS = 32
# a-priori bound on sum_t |c_t| per row: each limb is below 2**32, so every
# int64 dot product of a row with a limb column stays below 2**62
WEIGHT_LIMIT = 1 << 30


class RootLimbs:
    """One root table's endpoints cut into offset 32-bit limbs.

    limbs[t] holds the limbs of lo_t + offset, then those of hi_t + offset,
    least significant first; the offset makes every endpoint non-negative.
    """

    def __init__(self, roots) -> None:
        self.offset = max(0, -min(lo for lo, _ in roots))
        top = max(hi for _, hi in roots) + self.offset
        self.count = max(1, -(-top.bit_length() // _LIMB_BITS))
        mask = (1 << _LIMB_BITS) - 1
        shifts = [_LIMB_BITS * k for k in range(self.count)]
        self.limbs = np.array(
            [
                [(e + self.offset) >> s & mask for e in pair for s in shifts]
                for pair in roots
            ],
            dtype=np.int64,
        ).reshape(len(roots), 2 * self.count)


@lru_cache(maxsize=64)
def _cached_roots(p: int, precision: int) -> tuple[RootLimbs, RootLimbs]:
    """The cos and sin tables of unit_root_intervals, cut into limbs once."""
    cos_iv, sin_iv = unit_root_intervals(p, precision)
    return RootLimbs(cos_iv), RootLimbs(sin_iv)


def enclose_sum(rows, roots) -> list[tuple[int, int]]:
    """Integer bounds (lo, hi) of sum_t c_t * r_t at the roots' scale, per row.

    rows is a batch of integer coefficient rows (a single vector is a
    one-row batch); roots is one table of unit_root_intervals, (lo, hi) per
    exponent t, or its RootLimbs. Each row is split as C+ - C-: a positive
    coefficient takes lo into the lower bound and a negative one takes hi,
    so every result encloses the exact sum. The dot products run as int64
    matmuls against the limbs, exact while sum_t |c_t| < WEIGHT_LIMIT;
    a row above that raises ValueError.
    """
    if not isinstance(roots, RootLimbs):
        roots = RootLimbs(roots)
    try:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    except OverflowError:
        raise ValueError(f"coefficients beyond the enclosure bound {WEIGHT_LIMIT}") from None
    width = roots.limbs.shape[0]
    if rows.ndim != 2 or rows.shape[1] != width:
        raise ValueError(f"need rows of {width} coefficients, got shape {rows.shape}")
    # entrywise first, so that the row sums of |c| cannot wrap
    lowest = rows.min(initial=0)
    if lowest <= -WEIGHT_LIMIT or rows.max(initial=0) >= WEIGHT_LIMIT:
        raise ValueError(f"a coefficient reaches the enclosure bound {WEIGHT_LIMIT}")
    pos = np.maximum(rows, 0)
    neg = pos - rows
    pos_weight, neg_weight = pos.sum(axis=1), neg.sum(axis=1)
    if (pos_weight + neg_weight).max(initial=0) >= WEIGHT_LIMIT:
        raise ValueError(f"a row's sum of |c| reaches the enclosure bound {WEIGHT_LIMIT}")
    k = roots.count
    acc = pos @ roots.limbs
    if lowest < 0:
        # -C- takes -hi into the lower bound and -lo into the upper one
        acc -= np.roll(neg @ roots.limbs, k, axis=1)
    shifts = [_LIMB_BITS * j for j in range(k)]
    out = []
    for limbs, total in zip(acc.tolist(), (pos_weight - neg_weight).tolist()):
        base = -roots.offset * total
        lo = base + sum(v << s for v, s in zip(limbs[:k], shifts))
        hi = base + sum(v << s for v, s in zip(limbs[k:], shifts))
        out.append((lo, hi))
    return out
