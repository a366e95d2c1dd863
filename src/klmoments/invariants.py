"""Closed-form dimension, Swan-conductor, local-invariant, Molien-series
and determinant formulas for symmetric powers of the rank-2 local system.

Degrees are denoted d throughout; [x] is the floor function in every
formula. A prime p is "good" for Sym^d when the dimensions have reached
their stable values: p > d for odd d (p = 2 is also stable for odd d),
p > d/2 for even d. The explicit sentinel GOOD names that row of the
dimension table; it is a distinct contract, not a stand-in for a large
prime.
"""

from __future__ import annotations

from typing import Sequence, Union

from .errors import EvenPrime, InputTooLarge, UnsupportedDegree
from .ffprime import Prime, double_factorial, jacobi_symbol, primes_in_range
from .modforms import QSeries

GOOD = "good"
PrimeOrGood = Union[int, str]


def _validate(d: int, pq: PrimeOrGood) -> PrimeOrGood:
    if d < 1:
        raise UnsupportedDegree(f"degree must be >= 1, got {d}")
    if pq == GOOD:
        return GOOD
    p = Prime(pq)
    if p == 2 and d == 1:
        raise UnsupportedDegree("p = 2 formulas need d > 1")
    return p


def is_good(d: int, p: int) -> bool:
    """Whether the dimensions at p already equal their stable values."""
    if d % 2 == 1:
        return p > d or p == 2
    return p > d // 2


def dim_m_shriek(d: int, pq: PrimeOrGood) -> int:
    """Dimension of the compactly-supported moment space for Sym^d."""
    pq = _validate(d, pq)
    if pq == GOOD:
        return d // 2 if d % 2 == 0 else (d + 1) // 2
    p = pq
    if p == 2:
        return (d + 1) // 2 if d % 2 == 1 else (d + 2) // 4
    if d % 2 == 0:
        return d // 2 - d // (2 * p)
    return (d + 1) // 2 - (d + p) // (2 * p)  # [d/2p + 1/2]


def dim_m_middle(d: int, pq: PrimeOrGood) -> int:
    """Dimension of the pure middle-extension moment space for Sym^d."""
    pq = _validate(d, pq)
    if pq == GOOD:
        return 2 * ((d + 2) // 4) - 2 if d % 2 == 0 else (d - 1) // 2
    p = pq
    if p == 2:
        if d % 2 == 1:
            return (d - 1) // 2
        if d % 12 == 0:
            return d // 6 - 2
        return 2 * ((d + 2) // 12)
    if d % 2 == 1:
        return (d - 1) // 2 - (d + p) // (2 * p)
    if d % 4 == 0:
        return d // 2 - 2 * (d // (2 * p)) - 2
    return d // 2 - 2 * (d // (2 * p)) - 1


def swan_sym(d: int, p: int) -> int:
    """Swan conductor at infinity of Sym^d of the rank-2 system.

    Equals dim_m_shriek at every prime (Euler-characteristic identity);
    the p = 2 case has its own closed form [(d+2)/4] / (d+1)/2.
    """
    if d < 1:
        raise UnsupportedDegree(f"degree must be >= 1, got {d}")
    p = Prime(p)
    if p == 2:
        return (d + 1) // 2 if d % 2 == 1 else (d + 2) // 4
    return dim_m_shriek(d, p)


class LocalInfinityInvariants:
    """Inertia invariants at infinity as a Frobenius module.

    All eigenvalues are +-p**(d/2); `plus` and `minus` are the
    multiplicities of +p**(d/2) and -p**(d/2).
    """

    def __init__(self, d, p, dimension, plus, minus, eigenvalue_magnitude):  # all ints
        self.d = d
        self.p = p
        self.dimension = dimension
        self.plus = plus
        self.minus = minus
        self.eigenvalue_magnitude = eigenvalue_magnitude  # p**(d/2) when d even, else 0

    def trace(self) -> int:
        return (self.plus - self.minus) * self.eigenvalue_magnitude


def local_inv_inf(d: int, p: int) -> LocalInfinityInvariants:
    """Dimension and Frobenius eigenvalues of the inertia invariants at infinity."""
    if d < 1:
        raise UnsupportedDegree(f"degree must be >= 1, got {d}")
    p = Prime(p)
    if d % 2 == 1:
        return LocalInfinityInvariants(d, p, 0, 0, 0, 0)
    mag = p ** (d // 2)
    if p > 2:
        dim = d // (2 * p) + (1 if d % 4 == 0 else 0)
        return LocalInfinityInvariants(d, p, dim, dim, 0, mag)
    # p = 2: multiplicities by d mod 24 (trace pattern has period 8)
    k = d // 24
    if d % 8 == 0:
        plus, minus = k + 1, k
    elif d % 8 == 6:
        plus, minus = k, k + 1
    elif d % 24 in (2, 4, 10):
        plus = minus = k
    else:  # d = 12, 18, 20 mod 24
        plus = minus = k + 1
    return LocalInfinityInvariants(d, p, plus + minus, plus, minus, mag)


# ---------------------------------------------------------------------------
# Dimension table
# ---------------------------------------------------------------------------

TABLE_PRIMES = (2, 3, 5, 7, 11, 13)
# The table's peak memory grows by about 1,400 bytes per degree (as JSON:
# VmHWM 404 MB at dmax 300,000, 1.33 GB at 10^6), so tables that would need
# about 1 GiB are refused.
DIMS_CEILING = 2**30 // 1400


class DimsTable:
    def __init__(self, dmax: int, primes: tuple[int, ...], good_row: tuple[int, ...],
                 prime_rows: dict[int, tuple[object, ...]]):
        self.dmax = dmax
        self.primes = primes
        self.good_row = good_row
        self.prime_rows = prime_rows  # int dim or the GOOD marker

    def cell(self, d: int, p: int | str):
        if p == GOOD:
            return self.good_row[d - 1]
        return self.prime_rows[p][d - 1]


def dims_table(dmax: int = 13) -> DimsTable:
    """Middle-extension dimensions for d = 1..dmax over TABLE_PRIMES.

    Cells where p is good carry the GOOD marker instead of repeating the
    stable value.
    """
    if dmax < 1:
        raise ValueError("dmax must be >= 1")
    if dmax > DIMS_CEILING:
        raise InputTooLarge(f"dmax = {dmax} is above the dims ceiling {DIMS_CEILING}")
    good_row = tuple(dim_m_middle(d, GOOD) for d in range(1, dmax + 1))
    rows = {}
    for p in TABLE_PRIMES:
        row = []
        for d in range(1, dmax + 1):
            row.append(GOOD if is_good(d, p) else dim_m_middle(d, p))
        rows[p] = tuple(row)
    return DimsTable(dmax, TABLE_PRIMES, good_row, rows)


# ---------------------------------------------------------------------------
# Molien series
# ---------------------------------------------------------------------------


# The integer series take about 9 us and 200 bytes per degree
# (molien_dim_series, as JSON: 9.0 s and VmHWM 214 MB at dmax 10^6), so the
# ceiling keeps a series near ten seconds and a quarter of a GiB.
MOLIEN_CEILING = 10**6


def _molien_series(terms: Sequence[tuple[Sequence[int], Sequence[int]]], scale: int,
                   dmax: int) -> list[int]:
    """Coefficients 0..dmax of (1/scale) sum num/den over the (num, den)
    terms. Each den has constant term 1, so num * den**-1 is an integer
    series, and every sum must be divisible by scale."""
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    if dmax > MOLIEN_CEILING:
        raise InputTooLarge(f"dmax = {dmax} is above the Molien ceiling {MOLIEN_CEILING}")
    total = QSeries(0, [], dmax)
    for num, den in terms:
        total = total + QSeries(0, num, dmax) * QSeries(0, den, dmax) ** -1
    out = []
    for d in range(dmax + 1):
        c, rem = divmod(total.coefficient(d), scale)
        if rem:
            raise ArithmeticError(f"non-integer series coefficient at d = {d}")
        out.append(c)
    return out


def molien_dim_series(dmax: int) -> list[int]:
    """Invariant dimensions of Sym^d under the binary tetrahedral group.

    The 24 group elements have standard-representation traces 2, -2 (once
    each), 1, -1 (eight each) and 0 (six), so the Molien average is
    (1/24)[1/(1-t)^2 + 1/(1+t)^2 + 6/(1+t^2) + 8/(1-t+t^2) + 8/(1+t+t^2)].
    """
    terms = (
        ([1], [1, -2, 1]),      # 1/(1-t)^2
        ([1], [1, 2, 1]),       # 1/(1+t)^2
        ([6], [1, 0, 1]),       # 6/(1+t^2)
        ([8], [1, -1, 1]),      # 8/(1-t+t^2)
        ([8], [1, 1, 1]),       # 8/(1+t+t^2)
    )
    return _molien_series(terms, 24, dmax)


def molien_dim_closed_form(d: int) -> int:
    """Piecewise closed form matching molien_dim_series."""
    if d % 2 == 1:
        return 0
    return d // 12 + (1 if d % 12 in (0, 6, 8) else 0)


def molien_frob_series(dmax: int) -> list[int]:
    """Frobenius traces on the invariants, normalized to unit scale.

    The coset average (1/24)[6/(1-sqrt2 t+t^2) + 6/(1+sqrt2 t+t^2)
    + 12/(1+t^2)] rationalizes to (1/2)[(1+t^2)/(1+t^4) + 1/(1+t^2)]
    (the two sqrt2-conjugate terms combine), giving +1 at d = 0 mod 8,
    -1 at d = 6 mod 8, 0 otherwise.
    """
    return _molien_series((([1, 0, 1], [1, 0, 0, 0, 1]), ([1], [1, 0, 1])), 2, dmax)


def molien_frob_closed_form(d: int) -> int:
    if d % 8 == 0:
        return 1
    if d % 8 == 6:
        return -1
    return 0


# ---------------------------------------------------------------------------
# Determinants
# ---------------------------------------------------------------------------


def fuwan_det(d: int, p: int) -> int:
    """Normalized Frobenius determinant on the middle moment space, in {+-1}.

    For odd d this is (-2/p)^[d/2p + 1/2] times the product of
    ((-1)^j (2j+1) / p) over 0 <= j <= (d-1)/2 with p not dividing 2j+1;
    for even d it is 1.
    """
    if d < 1:
        raise UnsupportedDegree(f"degree must be >= 1, got {d}")
    p = Prime(p)
    if p == 2:
        raise EvenPrime("determinant formula requires p > 2")
    if d % 2 == 0:
        return 1
    result = jacobi_symbol(-2, p) ** ((d + p) // (2 * p))
    for j in range((d - 1) // 2 + 1):
        odd = 2 * j + 1
        if odd % p == 0:
            continue
        result *= jacobi_symbol((-1) ** j * odd, p)
    return result


class DetCharacterReport:
    def __init__(self, d: int, modulus: int, pmax: int, checked: int, failures: tuple):
        self.d = d
        self.modulus = modulus  # d!!
        self.pmax = pmax
        self.checked = checked
        self.failures = failures

    @property
    def passed(self) -> bool:
        return not self.failures


def det_character_check(d: int, pmax: int) -> DetCharacterReport:
    """Verify fuwan_det(d, p) = (p / d!!) for every prime d < p <= pmax.

    Failures are collected, not raised.
    """
    if d < 3 or d % 2 == 0:
        raise UnsupportedDegree("determinant character check needs odd d >= 3")
    modulus = double_factorial(d)
    failures = []
    checked = 0
    for p in primes_in_range(d + 1, pmax):
        checked += 1
        if fuwan_det(d, p) != jacobi_symbol(p, modulus):
            failures.append(p)
    return DetCharacterReport(d, modulus, pmax, checked, tuple(failures))
