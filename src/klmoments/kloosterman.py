"""Kloosterman sums Kl_2(p; a) as exponent counts, and as Rader operands.

Kl_2(p; a) = sum over x in F_p^* of psi(x + a/x), with psi(x) = zeta_p**x.
The additive character is fixed once; every quantity downstream that is
supposed to be character-independent is tested for invariance under the
rescaling psi -> psi(k.) instead of being recomputed with other characters.

kl2_counts rejects a = 0, and _orbit_operand takes units only. The
completed-convention value Kl_2(p; 0) = -1 exists only as an explicit
correction term inside the moments module.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ZeroParameter
from .ffprime import Prime, _generator_powers


@lru_cache(maxsize=1)  # callers count every a of one prime before the next
def _inverses(p: int) -> tuple[int, ...]:
    """inv[x] = x^-1 mod p for x in F_p (inv[0] = 0), built in O(p):
    p = (p // x) x + p % x gives x^-1 = -(p // x) (p % x)^-1."""
    inv = [0] * p
    if p > 1:
        inv[1] = 1
    for x in range(2, p):
        inv[x] = (p - p // x) * inv[p % x] % p
    return tuple(inv)


def kl2_counts(p: int, a: int) -> tuple[int, ...]:
    """Exponent distribution of the 2-variable sum, in p - 1 steps.

    counts[t] = #{x in F_p^* : x + a * x^-1 = t}. The exact route takes the
    Legendre vector counts - 1, sym_moment_direct convolves their negatives;
    the float route reads them off the quadratic character (_orbit_operand).
    """
    p = Prime(p)
    a %= p
    if a == 0:
        raise ZeroParameter("Kl_2(p; 0) is excluded; see the moments module")
    inv = _inverses(p)
    counts = [0] * p
    for x in range(1, p):
        counts[(x + a * inv[x]) % p] += 1
    return tuple(counts)


def _orbit_operand(p: int, r: int) -> tuple[int, list[int]]:
    """c_0 and the fold D of the counts c of Kl_2(p; r), r a unit mod p:
    D_j = c_(g**j) + c_(g**(j+L)) for j < L = (p - 1) / gcd(2, p - 1), g**j
    from _generator_powers, flipped to D_0, D_(L-1), ..., D_1 so that its
    cyclic convolution with Q of period L is sum_j D_j Q_(i+j) at every i.

    At odd p, x + r/x = t, that is x**2 - t x + r = 0, has 1 + chi(t**2 - 4r)
    roots, none of them 0, for the quadratic character chi(g**k) = (-1)**k.
    So c_0 = 1 + chi(-4r) and, as g**(j+L) = -g**j and c_(-t) = c_t,
    D_j = 2 + 2 chi(g**(2j) - 4r). At p = 2 the counts are (1, 0): D = (0,).
    """
    if p == 2:
        return 1, [0]
    squares = _generator_powers(p)[::2]  # g**(2j), j < L
    roots = [1] + [0] * (p - 1)  # roots[x] = 1 + chi(x): the square roots of x
    for x in squares:
        roots[x] = 2
    m = 4 * r % p  # s - m lies in (-p, p): a negative index reads roots[s - m + p]
    folded = [2 * roots[s - m] for s in squares]
    return roots[-m], folded[:1] + folded[:0:-1]
