"""Power sums S_n(p) and symmetric-power moments m^d_2(p).

Conventions
-----------
restricted   S_n(p)  = sum over a in F_p^*  of Kl_2(p; a)**n
completed    S'_n(p) = S_n(p) + (-1)**n,  i.e. the a = 0 term is included
             with its value Kl_2(p; 0) = sum_{x != 0} psi(x) = -1.

The congruence S'_n(p) == (-1)**(n-1) * (n-1) * p  (mod p**2) holds for the
completed convention only; the restricted S_2 = p**2 - p - 1 already breaks
it. The float path therefore always recovers completed values.

Three independent routes to m^d_2(p) are provided and must agree:

girard       m^d = (-1)**d * sum_k (-1)**k C(d-k, k) p**k S_{d-2k}
             (restricted sums, S_0 := p - 1), the two-variable Newton/
             Girard conversion using alpha + beta = -Kl_2, alpha*beta = p.
direct       per-a recurrence h_j = s*h_{j-1} - p*h_{j-2} in Z[zeta_p]
             with s = -Kl_2(p; a), summed over a.
appendix8    the fixed degree-8 polynomial in completed sums
             S'_8 - 7p S'_6 + 15p^2 S'_4 - 10p^3 S'_2
             + p^5 - p^4 + 10p^3 - 15p^2 + 7p - 1,
             which is the girard formula rewritten in S'_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd
from operator import mul

from .cyclotomic import CycInt, _cached_roots, as_integer, enclose_sum
from .errors import (
    AmbiguousRounding,
    BudgetExceeded,
    ExactLimitExceeded,
    IdentityFailure,
    MissingPowerSum,
    WrongConvention,
)
from .ffprime import Prime
from .kloosterman import (
    DEFAULT_KLN_BUDGET,
    kl2_count_rows,
    kl2_counts,
    kln_value,
)

DEFAULT_EXACT_LIMIT = 257
PRECISION_START = 64
PRECISION_CAP = 4096

RESTRICTED = "restricted"
COMPLETED = "completed"

METHOD_EXACT = "exact-cyclotomic"
METHOD_FLOAT = "float-congruence"

# The float path counts and encloses Kl_2(p; a) for a block of a at a time;
# a block's count array holds at most this many int64 entries (64 KB).
BLOCK_ENTRIES = 1 << 13


@dataclass(frozen=True)
class PowerSumTable:
    """Exact power sums for one prime under one convention."""

    p: int
    convention: str
    values: dict[int, int]
    method: str

    def __getitem__(self, n: int) -> int:
        if n not in self.values:
            raise MissingPowerSum(f"S_{n}({self.p}) not in table (have n <= {max(self.values, default=0)})")
        return self.values[n]

    def to_convention(self, convention: str) -> "PowerSumTable":
        if convention == self.convention:
            return self
        if convention not in (RESTRICTED, COMPLETED):
            raise WrongConvention(f"unknown convention {convention!r}")
        sign = 1 if convention == COMPLETED else -1
        shifted = {n: v + sign * (-1) ** n for n, v in self.values.items()}
        return PowerSumTable(self.p, convention, shifted, self.method)


@dataclass(frozen=True)
class MomentValue:
    p: int
    d: int
    value: int
    method: str


def _orbit_representatives(p: int, n: int) -> list[int]:
    """The least parameter of each Galois orbit of Kl_n(p; .).

    sigma_k: zeta -> zeta**k sends Kl_n(p; a) to Kl_n(p; k**n * a)
    (substitute x_i -> k x_i), so the orbits are the cosets of the n-th
    powers in F_p^*. There are e = gcd(n, p - 1) of them, and the sum of
    Kl_n(p; .)**d over the orbit of r is Tr(Kl_n(p; r)**d) / e: the trace
    sums over all p - 1 conjugations, and each orbit member is reached e
    times. Two parameters share a coset exactly when their ((p-1)/e)-th
    powers agree.
    """
    e = gcd(n, p - 1)
    reps: dict[int, int] = {}
    for a in range(1, p):
        reps.setdefault(pow(a, (p - 1) // e, p), a)
        if len(reps) == e:
            break
    return list(reps.values())


def _field_trace(x: CycInt) -> int:
    """Tr of x from Q(zeta_p) to Q.

    Tr(zeta**t) = -1 for t != 0, and the canonical form keeps coeffs[0] = 0.
    """
    return -sum(x.coeffs)


def _paired_trace(y: CycInt, z: CycInt) -> int:
    """Tr(y * z) without the product, in O(p).

    Tr(zeta**k) = p - 1 when p | k and -1 otherwise, so
    Tr(y z) = p * sum_t y_t z_(-t) - (sum y)(sum z) (Washington,
    Introduction to Cyclotomic Fields, ch. 2).
    """
    yc, zc = y.coeffs, z.coeffs
    dot = yc[0] * zc[0] + sum(map(mul, yc[1:], reversed(zc[1:])))
    return y.p * dot - sum(yc) * sum(zc)


def _orbit_sum(e: int, traces: int, what: str) -> int:
    q, r = divmod(traces, e)
    if r:
        raise IdentityFailure(
            f"{what}: orbit traces sum to {traces}, not a multiple of {e}"
        )
    return q


def _check_power_sums(p: int, values: dict[int, int]) -> None:
    """The restricted identities S_1 = 1 and S_2 = p^2 - p - 1, and the Weil
    bound S_n^2 <= (p-1)^2 4^n p^n, which |Kl_2(p; a)| <= 2 sqrt(p) gives."""
    expected = {1: 1, 2: p * p - p - 1}
    for n, want in expected.items():
        if n in values and values[n] != want:
            raise IdentityFailure(f"S_{n}({p}) = {values[n]}, the theory forces {want}")
    for n, v in values.items():
        if v * v > (p - 1) ** 2 * (4 * p) ** n:
            raise IdentityFailure(
                f"S_{n}({p}) = {v} breaks the Weil bound |S_n| <= (p-1) (2 sqrt p)^n"
            )


def _check_completed_congruence(p: int, values: dict[int, int]) -> None:
    """S'_n = S_n + (-1)^n == (-1)^(n-1) (n-1) p (mod p^2) on restricted values.

    This is the rule that pins float tables, so only exact tables can check it.
    """
    for n, v in values.items():
        if (v + (-1) ** n - completed_congruence_class(n, p)) % (p * p):
            raise IdentityFailure(
                f"S'_{n}({p}) = {v + (-1) ** n} is not (-1)^(n-1) (n-1) p mod p^2"
            )


def power_sums_exact(
    p: int,
    nmax: int,
    convention: str = RESTRICTED,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> PowerSumTable:
    """S_n(p) for n = 1..nmax from one power chain per Galois orbit.

    Kl_2(p; .) has one orbit at p = 2 and two (squares, non-squares)
    otherwise, so S_n(p) = sum over representatives r of
    Tr(Kl_2(p; r)**n) / gcd(2, p - 1), computed in Z[zeta_p]. The chain
    stops at h = ceil(nmax / 2): Tr(x**n) for n > h is Tr(x**h * x**(n-h))
    by _paired_trace, so no power above x**h is formed. Every table
    is checked against the parity of that sum, S_1 = 1, S_2 = p^2 - p - 1,
    the Weil bound and the completed congruence mod p^2; a failure raises
    IdentityFailure.
    """
    p = Prime(p)
    if p > exact_limit:
        raise ExactLimitExceeded(f"p = {p} above exact-path limit {exact_limit}")
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if convention not in (RESTRICTED, COMPLETED):
        raise WrongConvention(f"unknown convention {convention!r}")
    reps = _orbit_representatives(p, 2)
    h = (nmax + 1) // 2
    traces = [0] * (nmax + 1)
    for r in reps:
        powers = [None, kl2_counts(p, r).value()]
        for k in range(2, h + 1):
            powers.append(powers[k // 2] * powers[k - k // 2])
        for n in range(1, h + 1):
            traces[n] += _field_trace(powers[n])
        for n in range(h + 1, nmax + 1):
            traces[n] += _paired_trace(powers[h], powers[n - h])
    values = {
        n: _orbit_sum(len(reps), traces[n], f"S_{n}({p})") for n in range(1, nmax + 1)
    }
    _check_power_sums(p, values)
    _check_completed_congruence(p, values)
    if convention == COMPLETED:
        values = {n: v + (-1) ** n for n, v in values.items()}
    return PowerSumTable(p, convention, values, METHOD_EXACT)


def completed_congruence_class(n: int, p: int) -> int:
    """The residue (-1)**(n-1) * (n-1) * p of S'_n(p) modulo p**2."""
    return ((-1) ** (n - 1) * (n - 1) * p) % p**2


def power_sums_float(p: int, nmax: int, precision: int = PRECISION_START) -> PowerSumTable:
    """Completed S'_n(p) from rigorous enclosures plus the mod-p**2 congruence.

    Kl_2(p; a) is counted by kl2_count_rows and enclosed by enclose_sum for
    a block of a at a time, as integer bounds at scale 2**-precision. Powers
    and the a-sum stay integer intervals, the n-th power at scale
    2**-(n*precision): products of integer endpoints are exact, so the final
    enclosure is certified without further rounding.
    The unique admissible integer is the one in the enclosure congruent to
    (-1)**(n-1)(n-1)p mod p**2; zero or several candidates raise
    AmbiguousRounding and the caller must retry at higher precision. The
    restricted S_1, S_2 and the Weil bound are checked like exact tables
    (IdentityFailure).
    """
    p = Prime(p)
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    cos_limbs, _ = _cached_roots(p, precision)
    block = max(1, BLOCK_ENTRIES // p)
    totals = [(0, 0)] * (nmax + 1)
    for start in range(1, p, block):
        counts = kl2_count_rows(p, range(start, min(start + block, p)))
        for kl_lo, kl_hi in enclose_sum(counts, cos_limbs):
            lo, hi = kl_lo, kl_hi
            for n in range(1, nmax + 1):
                if n > 1:
                    products = (lo * kl_lo, lo * kl_hi, hi * kl_lo, hi * kl_hi)
                    lo, hi = min(products), max(products)
                t_lo, t_hi = totals[n]
                totals[n] = (t_lo + lo, t_hi + hi)
    values = {}
    modulus = p**2
    for n in range(1, nmax + 1):
        bits = n * precision
        a_zero = (-1) ** n << bits
        lo = totals[n][0] + a_zero
        hi = totals[n][1] + a_zero
        if hi - lo >= modulus << bits:
            raise AmbiguousRounding(
                f"S'_{n}({p}): enclosure width {(hi - lo) / (1 << bits):.3g} >= p^2"
            )
        r = completed_congruence_class(n, p)
        # smallest integer >= lo / 2**bits congruent to r mod p^2
        start = -(-lo >> bits)
        k = start + (r - start) % modulus
        if k << bits > hi:
            raise AmbiguousRounding(f"S'_{n}({p}): no admissible integer in enclosure")
        if (k + modulus) << bits <= hi:
            raise AmbiguousRounding(f"S'_{n}({p}): several admissible integers")
        values[n] = k
    _check_power_sums(p, {n: v - (-1) ** n for n, v in values.items()})
    return PowerSumTable(p, COMPLETED, values, METHOD_FLOAT)


def power_sums_float_auto(
    p: int,
    nmax: int,
    precision_start: int = PRECISION_START,
    precision_cap: int = PRECISION_CAP,
) -> tuple[PowerSumTable, int]:
    """Run the float path, doubling precision until rounding is unambiguous.

    Returns the table and the precision that succeeded. Raises the last
    AmbiguousRounding if the cap is reached without success.
    """
    if precision_start < 1:
        raise ValueError("precision_start must be >= 1, or doubling never reaches the cap")
    precision = precision_start
    while True:
        try:
            return power_sums_float(p, nmax, precision), precision
        except AmbiguousRounding:
            if precision >= precision_cap:
                raise
            precision = min(2 * precision, precision_cap)


# ---------------------------------------------------------------------------
# Symmetric-power moments
# ---------------------------------------------------------------------------


def sym_moment_girard(p: int, d: int, table: PowerSumTable) -> MomentValue:
    """m^d_2(p) from a restricted power-sum table."""
    if table.convention != RESTRICTED:
        raise WrongConvention("girard conversion needs restricted power sums")
    if table.p != p:
        raise ValueError(f"table is for p = {table.p}, not {p}")
    if d < 0:
        raise ValueError("d must be >= 0")
    total = 0
    for k in range(d // 2 + 1):
        n = d - 2 * k
        s = table[n] if n >= 1 else p - 1
        total += (-1) ** k * comb(d - k, k) * p**k * s
    return MomentValue(p, d, (-1) ** d * total, "girard")


def sym_moment_direct(
    p: int, d: int, exact_limit: int = DEFAULT_EXACT_LIMIT
) -> MomentValue:
    """m^d_2(p) by the per-a eigenvalue recurrence, as an independent oracle.

    With s = alpha + beta = -Kl_2(p; a) and alpha*beta = p, the complete
    homogeneous traces satisfy h_j = s*h_{j-1} - p*h_{j-2}, h_0 = 1.
    """
    p = Prime(p)
    if p > exact_limit:
        raise ExactLimitExceeded(f"p = {p} above exact-path limit {exact_limit}")
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return MomentValue(p, 0, p - 1, "direct-recurrence")
    total = CycInt.zero(p)
    for a in range(1, p):
        s = -kl2_counts(p, a).value()
        h_prev = CycInt.from_integer(p, 1)
        h = s
        for _ in range(d - 1):
            h_prev, h = h, s * h - h_prev.scale(p)
        total = total + h
    return MomentValue(p, d, as_integer(total), "direct-recurrence")


def sym_moment_appendix8(p: int, table: PowerSumTable) -> MomentValue:
    """m^8_2(p) from completed power sums by the fixed degree-8 polynomial."""
    if table.convention != COMPLETED:
        raise WrongConvention("the degree-8 polynomial needs completed power sums")
    if table.p != p:
        raise ValueError(f"table is for p = {table.p}, not {p}")
    value = (
        table[8]
        - 7 * p * table[6]
        + 15 * p**2 * table[4]
        - 10 * p**3 * table[2]
        + p**5
        - p**4
        + 10 * p**3
        - 15 * p**2
        + 7 * p
        - 1
    )
    return MomentValue(p, 8, value, "appendix8")


def tensor_moment(
    p: int, n: int, d: int, budget: int = DEFAULT_KLN_BUDGET
) -> int:
    """Tensor-power moment: sum over a of ((-1)**(n-1) Kl_n(p; a))**d.

    Summed over Galois orbits, one trace per coset of the n-th powers (see
    _orbit_representatives): Tr(x**d) = Tr(x**h * x**(d-h)) with
    h = ceil(d / 2), by _paired_trace, so no power above x**h is formed.
    """
    p = Prime(p)
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return p - 1
    if n * p**3 > budget:
        raise BudgetExceeded(f"n*p^3 = {n * p**3} exceeds budget {budget}")
    sign = (-1) ** ((n - 1) * d)
    reps = _orbit_representatives(p, n)
    traces = 0
    for r in reps:
        x = kln_value(p, r, n, budget)
        low = x ** (d // 2)
        traces += _paired_trace(low if d % 2 == 0 else low * x, low)
    return sign * _orbit_sum(len(reps), traces, f"tensor moment n={n}, d={d} at p={p}")

