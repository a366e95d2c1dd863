"""Kloosterman sums Kl_2(p; a): exponent counts and exact cyclotomic values.

Kl_2(p; a) = sum over x in F_p^* of psi(x + a/x), with psi(x) = zeta_p**x.
The additive character is fixed once; every quantity downstream that is
supposed to be character-independent is tested for invariance under the
rescaling psi -> psi(k.) instead of being recomputed with other characters.

a = 0 is rejected everywhere in this module. The completed-convention
value Kl_2(p; 0) = -1 exists only as an explicit correction term inside
the moments module.
"""

from __future__ import annotations

from functools import lru_cache

from .cyclotomic import CycInt
from .errors import ZeroParameter
from .ffprime import Prime, inverse_table


@lru_cache(maxsize=1)  # callers count every a of one prime before the next
def _inverses(p: int) -> tuple[int, ...]:
    """inv[x] = x^-1 mod p for x in F_p (inv[0] = 0)."""
    return tuple(inverse_table(p))


class ExponentCounts:
    """Fiber sizes counts[t] = #{(x, y) in (F_p^*)^2 : x y = a, x + y = t}.

    y = a / x, so the fibres partition the p - 1 choices of x.
    """

    def __init__(self, p: int, a: int, counts: tuple[int, ...]):
        if sum(counts) != p - 1:
            raise ValueError("fiber sizes do not sum to p - 1")
        self.p = p
        self.a = a
        self.counts = counts

    def value(self) -> CycInt:
        """The sum itself, as sum_t counts[t] * zeta**t."""
        return CycInt.from_coeffs(self.p, self.counts)


def kl2_counts(p: int, a: int) -> ExponentCounts:
    """Exponent distribution of the 2-variable sum, in p - 1 steps.

    counts[t] = #{x in F_p^* : x + a * x^-1 = t}. Both routes count here:
    the exact one takes the Legendre vector counts - 1, the float one
    encloses the counts.
    """
    p = Prime(p)
    a %= p
    if a == 0:
        raise ZeroParameter("Kl_2(p; 0) is excluded; see the moments module")
    inv = _inverses(p)
    counts = [0] * p
    for x in range(1, p):
        counts[(x + a * inv[x]) % p] += 1
    return ExponentCounts(p, a, tuple(counts))


def kl2_value(p: int, a: int) -> CycInt:
    """Kl_2(p; a) as an exact cyclotomic integer."""
    return kl2_counts(p, a).value()
