"""Kloosterman sums Kl_n(p; a), exact and enclosed.

Kl_2(p; a) = sum over x in F_p^* of psi(x + a/x), with psi(x) = zeta_p**x.
The additive character is fixed once; every quantity downstream that is
supposed to be character-independent is tested for invariance under the
rescaling psi -> psi(k.) instead of being recomputed with other characters.

a = 0 is rejected everywhere in this module. The completed-convention
value Kl_2(p; 0) = -1 exists only as an explicit correction term inside
the moments module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import TYPE_CHECKING

from .cyclotomic import CycInt, _cached_roots, enclose_sum
from .errors import BudgetExceeded, NotReal, ZeroParameter
from .ffprime import Prime, inverse_table, is_prime

if TYPE_CHECKING:
    import numpy as np

DEFAULT_KLN_BUDGET = 10**10


@lru_cache(maxsize=64)
def _inverses(p: int) -> tuple[int, ...]:
    """inv[x] = x^-1 mod p for x in F_p (inv[0] = 0)."""
    return tuple(inverse_table(p))


@lru_cache(maxsize=64)
def _cached_inverse_table(p: int) -> np.ndarray:
    """inverse_table(p) as an int64 array."""
    import numpy as np  # only the float route and the n-variable DP need numpy

    return np.array(inverse_table(p), dtype=np.int64)


@dataclass(frozen=True)
class ExponentCounts:
    """Fiber sizes counts[t] = #{x in (F_p^*)^n : prod x_i = a, sum x_i = t}."""

    p: int
    a: int
    n: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if sum(self.counts) != (self.p - 1) ** (self.n - 1):
            raise ValueError("fiber sizes do not sum to (p-1)**(n-1)")

    def value(self) -> CycInt:
        """The sum itself, as sum_t counts[t] * zeta**t."""
        return CycInt.from_coeffs(self.p, self.counts)


def kl2_count_rows(p: int, a_values) -> np.ndarray:
    """Exponent distributions of the 2-variable sum for a block of a.

    Row i holds counts[t] = #{x in F_p^* : x + a_i * x^-1 = t}, one
    bincount over row * p + t for the whole block; O(p) per row. This is
    the float route's counter; kl2_counts counts one row without numpy.
    """
    import numpy as np

    p = Prime(p)
    a = [v % p for v in a_values]
    if 0 in a:
        raise ZeroParameter("Kl_2(p; 0) is excluded; see the moments module")
    a = np.array(a, dtype=np.int64)
    x = np.arange(1, p, dtype=np.int64)
    t = (x + a[:, None] * _cached_inverse_table(p)[1:] % p) % p
    t += np.arange(len(a), dtype=np.int64)[:, None] * p
    return np.bincount(t.ravel(), minlength=len(a) * p).reshape(len(a), p)


def kl2_counts(p: int, a: int) -> ExponentCounts:
    """Exponent distribution of the 2-variable sum, in p - 1 steps.

    The same row as kl2_count_rows(p, [a]), counted in Python ints.
    """
    p = Prime(p)
    a %= p
    if a == 0:
        raise ZeroParameter("Kl_2(p; 0) is excluded; see the moments module")
    inv = _inverses(p)
    counts = [0] * p
    for x in range(1, p):
        counts[(x + a * inv[x]) % p] += 1
    return ExponentCounts(p, a, 2, tuple(counts))


def kl2_value(p: int, a: int) -> CycInt:
    """Kl_2(p; a) as an exact cyclotomic integer."""
    return kl2_counts(p, a).value()


@lru_cache(maxsize=32)
def _kln_table(p: int, n: int) -> list[list[int]]:
    """Joint DP over (partial product, partial sum); rows indexed by a.

    N_{k+1}(b, t) = sum over x of N_k(b * x^{-1}, t - x); total work
    O(n * p^3). Counts can exceed int64 for large n, so the DP runs mod
    several word-sized primes and lifts by CRT (the recurrence is linear).
    """
    import numpy as np

    inv = _cached_inverse_table(p)
    max_count = (p - 1) ** (n - 1)
    if max_count * p < 2**62:
        moduli = [0]  # plain int64, no reduction needed
    else:
        # residue DP: accumulated entries stay below p * q, so q < 2**62 / p
        moduli = []
        q = 2**62 // p
        while prod(moduli) <= 2 * max_count:
            q -= 1
            if is_prime(q):
                moduli.append(q)
    tables = []
    for q in moduli:
        cur = np.zeros((p, p), dtype=np.int64)
        for b in range(1, p):
            cur[b, b % p] = 1
        for _ in range(n - 1):
            nxt = np.zeros((p, p), dtype=np.int64)
            for x in range(1, p):
                # rows permuted by b -> b*x^{-1}, columns shifted by x
                ix = inv[x]
                perm = (np.arange(p) * ix) % p
                nxt += np.roll(cur[perm], x, axis=1)
            if q:
                nxt %= q
            cur = nxt
        tables.append(cur)
    if moduli == [0]:
        return tables[0].tolist()
    # CRT lift row by row
    modulus = prod(moduli)
    basis = []
    for q in moduli:
        m_i = modulus // q
        basis.append(m_i * pow(m_i, -1, q))
    out = []
    for b in range(p):
        row = []
        for t in range(p):
            x = sum(int(tab[b, t]) * c for tab, c in zip(tables, basis)) % modulus
            row.append(x)
        out.append(row)
    return out


def kln_counts(p: int, a: int, n: int, budget: int = DEFAULT_KLN_BUDGET) -> ExponentCounts:
    """Exponent distribution of the n-variable sum, n >= 2; O(n*p^3) once per (p, n)."""
    p = Prime(p)
    if n < 2:
        raise ValueError("Kloosterman sums need n >= 2 variables")
    a %= p
    if a == 0:
        raise ZeroParameter("Kl_n(p; 0) is excluded")
    if n * p**3 > budget:
        raise BudgetExceeded(f"n*p^3 = {n * p**3} exceeds budget {budget}")
    return ExponentCounts(p, a, n, tuple(_kln_table(int(p), n)[a]))


def kln_value(p: int, a: int, n: int, budget: int = DEFAULT_KLN_BUDGET) -> CycInt:
    return kln_counts(p, a, n, budget).value()


# ---------------------------------------------------------------------------
# Rigorous real enclosures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealEnclosure:
    """Closed interval [lo, hi] certified to contain the true real value."""

    lo: Fraction
    hi: Fraction

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    def contains(self, value) -> bool:
        value = Fraction(value)
        return self.lo <= value <= self.hi


def kl2_float(p: int, a: int, precision: int = 64) -> RealEnclosure:
    """Enclosure of Kl_2(p; a) from interval roots of unity at 2**-precision.

    The real part is enclosed against the cosines. Kl_2 is real (the
    substitution x -> -x makes the exponent counts symmetric under
    t -> -t), so the enclosure against the sines must contain 0; when it
    does not, NotReal is raised.
    """
    counts = kl2_counts(p, a).counts
    cos_limbs, sin_limbs = _cached_roots(p, precision)
    [(im_lo, im_hi)] = enclose_sum(counts, sin_limbs)
    if not im_lo <= 0 <= im_hi:
        raise NotReal(f"imaginary part of Kl_2({p}; {a}) failed to cancel")
    [(lo, hi)] = enclose_sum(counts, cos_limbs)
    scale = 1 << precision
    return RealEnclosure(Fraction(lo, scale), Fraction(hi, scale))
