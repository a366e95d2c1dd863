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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import EvenPrime, UnsupportedDegree
from .ffprime import Prime, double_factorial, jacobi_symbol, primes_in_range

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


@dataclass(frozen=True)
class LocalInfinityInvariants:
    """Inertia invariants at infinity as a Frobenius module.

    All eigenvalues are +-p**(d/2); `plus` and `minus` are the
    multiplicities of +p**(d/2) and -p**(d/2).
    """

    d: int
    p: int
    dimension: int
    plus: int
    minus: int
    eigenvalue_magnitude: int  # p**(d/2) when d even, else 0

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


@dataclass(frozen=True)
class DimsTable:
    dmax: int
    primes: tuple[int, ...]
    good_row: tuple[int, ...]
    prime_rows: dict[int, tuple[object, ...]]  # int dim or the GOOD marker

    def cell(self, d: int, p: int | str):
        if p == GOOD:
            return self.good_row[d - 1]
        return self.prime_rows[p][d - 1]


def dims_table(dmax: int = 13, primes: Sequence[int] = TABLE_PRIMES) -> DimsTable:
    """Middle-extension dimensions for d = 1..dmax over the given primes.

    Cells where p is good carry the GOOD marker instead of repeating the
    stable value.
    """
    good_row = tuple(dim_m_middle(d, GOOD) for d in range(1, dmax + 1))
    rows = {}
    for p in primes:
        row = []
        for d in range(1, dmax + 1):
            row.append(GOOD if is_good(d, p) else dim_m_middle(d, p))
        rows[p] = tuple(row)
    return DimsTable(dmax, tuple(primes), good_row, rows)


def render_dims_text(table: DimsTable) -> str:
    width = 6
    header = "d".ljust(width) + "".join(str(d).rjust(width) for d in range(1, table.dmax + 1))
    lines = [header]
    lines.append("good".ljust(width) + "".join(str(v).rjust(width) for v in table.good_row))
    for p in table.primes:
        cells = "".join(str(v).rjust(width) for v in table.prime_rows[p])
        lines.append(f"p={p}".ljust(width) + cells)
    return "\n".join(lines) + "\n"


def render_dims_csv(table: DimsTable) -> str:
    cols = ["d", "good"] + [f"p={p}" for p in table.primes]
    lines = [",".join(cols)]
    for d in range(1, table.dmax + 1):
        row = [str(d), str(table.good_row[d - 1])]
        row += [str(table.prime_rows[p][d - 1]) for p in table.primes]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exact rational series
# ---------------------------------------------------------------------------


class RationalSeries:
    """Power-series expansion of num(t)/den(t) with exact coefficients.

    den must have a nonzero constant term; coefficients come from the
    linear recurrence c_n = (num_n - sum_{k>=1} den_k c_{n-k}) / den_0 in
    exact rational arithmetic, never floats.
    """

    def __init__(self, numerator: Sequence[int], denominator: Sequence[int]):
        if not denominator or denominator[0] == 0:
            raise ValueError("denominator needs a nonzero constant term")
        self.num = [Fraction(c) for c in numerator]
        self.den = [Fraction(c) for c in denominator]
        self._coeffs: list[Fraction] = []

    def coefficients(self, nmax: int) -> list[Fraction]:
        c = self._coeffs
        while len(c) <= nmax:
            n = len(c)
            total = self.num[n] if n < len(self.num) else Fraction(0)
            for k in range(1, min(n, len(self.den) - 1) + 1):
                total -= self.den[k] * c[n - k]
            c.append(total / self.den[0])
        return c[: nmax + 1]

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        num = _poly_add(
            _poly_mul(self.num, other.den), _poly_mul(other.num, self.den)
        )
        return RationalSeries(num, _poly_mul(self.den, other.den))

    def scaled(self, k) -> "RationalSeries":
        return RationalSeries([Fraction(k) * c for c in self.num], self.den)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ]


def molien_dim_series(dmax: int) -> list[int]:
    """Invariant dimensions of Sym^d under the binary tetrahedral group.

    The 24 group elements have standard-representation traces 2, -2 (once
    each), 1, -1 (eight each) and 0 (six), so the Molien average is
    (1/24)[1/(1-t)^2 + 1/(1+t)^2 + 6/(1+t^2) + 8/(1-t+t^2) + 8/(1+t+t^2)].
    """
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    series = (
        RationalSeries([1], [1, -2, 1])       # 1/(1-t)^2
        + RationalSeries([1], [1, 2, 1])      # 1/(1+t)^2
        + RationalSeries([6], [1, 0, 1])      # 6/(1+t^2)
        + RationalSeries([8], [1, -1, 1])     # 8/(1-t+t^2)
        + RationalSeries([8], [1, 1, 1])      # 8/(1+t+t^2)
    )
    out = []
    for c in series.coefficients(dmax):
        v = c / 24
        if v.denominator != 1:
            raise ArithmeticError(f"non-integer Molien coefficient {v}")
        out.append(int(v))
    return out


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
    if dmax < 0:
        raise ValueError("dmax must be >= 0")
    series = RationalSeries([1, 0, 1], [1, 0, 0, 0, 1]) + RationalSeries(
        [1], [1, 0, 1]
    )
    out = []
    for c in series.coefficients(dmax):
        v = c / 2
        if v.denominator != 1:
            raise ArithmeticError(f"non-integer Frobenius-series coefficient {v}")
        out.append(int(v))
    return out


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


@dataclass(frozen=True)
class DetCharacterReport:
    d: int
    modulus: int  # d!!
    pmax: int
    checked: int
    failures: tuple[int, ...]

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
