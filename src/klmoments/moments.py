"""Power sums S_n(p) and symmetric-power moments m^d_2(p).

Conventions
-----------
restricted   S_n(p)  = sum over a in F_p^*  of Kl_2(p; a)**n
completed    S'_n(p) = S_n(p) + (-1)**n,  i.e. the a = 0 term is included
             with its value Kl_2(p; 0) = sum_{x != 0} psi(x) = -1.

The congruence S'_n(p) == (-1)**(n-1) * (n-1) * p  (mod p**2) holds for the
completed convention only; the restricted S_2 = p**2 - p - 1 already breaks
it. The float path therefore always recovers completed values.

Both power-sum routes work orbit by orbit: zeta -> zeta**k sends
Kl_2(p; a) to Kl_2(p; k**2 a), so one Galois orbit (_orbit_representatives)
serves all p - 1 parameters. The exact route takes field traces of powers in
Z[zeta_p], as entries of the cyclic convolution powers of the orbit's
Legendre vector chi(t**2 - 4r) from kl2_counts (convolve.cyclic_powers, at a
slot width from Weil's bound); the float route encloses the whole orbit by
one Rader correlation (kloosterman._orbit_operand, cyclotomic._rader_cosines)
and sums the powers of midpoint-radius balls (_ball_power_sums).

MomentEngine is the one router: exact up to its exact_limit, float above.
Before its cache is read, it refuses a prime above PRIME_CEILING, a table
above TABLE_CEILING, an exact table above exact_limit and an nmax below 1.

Three independent routes to m^d_2(p) are provided and must agree:

girard       m^d = (-1)**d * sum_k (-1)**k C(d-k, k) p**k S_{d-2k}
             (restricted sums, S_0 := p - 1), the two-variable Newton/
             Girard conversion using alpha + beta = -Kl_2, alpha*beta = p.
direct       per-a recurrence h_j = s*h_{j-1} - p*h_{j-2} in Z[zeta_p]
             with s = -Kl_2(p; a), summed over a, on coefficient vectors
             (cyclic_convolve, as the float route's correlations; every
             route folds through convolve's one fold, which the tests
             check against a schoolbook product).
appendix8    the fixed degree-8 polynomial in completed sums
             S'_8 - 7p S'_6 + 15p^2 S'_4 - 10p^3 S'_2
             + p^5 - p^4 + 10p^3 - 15p^2 + 7p - 1,
             which is the girard formula rewritten in S'_n.
"""

from __future__ import annotations

import random
from math import comb, gcd, isqrt
from operator import add, mul

from . import cyclotomic
from .convolve import cyclic_convolve, cyclic_powers
from .errors import (
    AmbiguousRounding,
    CacheMismatch,
    ExactLimitExceeded,
    IdentityFailure,
    InputTooLarge,
    MissingPowerSum,
    PrimeTooLarge,
    WrongConvention,
)
from .ffprime import Prime, jacobi_symbol, primitive_root
from .kloosterman import _orbit_operand, kl2_counts

DEFAULT_EXACT_LIMIT = 257
# Either route's tables hold O(p) Python ints: a run's VmHWM grows by about 350
# bytes per unit of p (15.5 MB at p = 3, 49 MB at p = 100003, nmax 8, by the
# float route; 37 MB by the exact one), so the engine refuses primes whose
# tables would need about 1 GiB.
PRIME_CEILING = 2**30 // 350
# Below it, nmax sizes a table too: table_size grows like p nmax^3 log p; the
# float route at p = 3 peaked at 950 MB for 1.72e10 of it, so about 1 GiB here.
TABLE_CEILING = 17 * 2**30

RESTRICTED = "restricted"
COMPLETED = "completed"

METHOD_EXACT = "exact-cyclotomic"
METHOD_FLOAT = "float-congruence"


class PowerSumTable:
    """Exact power sums for one prime under one convention."""

    def __init__(self, p: int, convention: str, values: dict[int, int], method: str):
        self.p = p
        self.convention = convention
        self.values = values
        self.method = method

    def __eq__(self, other) -> bool:
        return isinstance(other, PowerSumTable) and vars(self) == vars(other)

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


def _check_agreement(a: PowerSumTable, b: PowerSumTable) -> None:
    """Two tables of one prime must hold the same S'_1..S'_m, m the smaller
    nmax; an n <= m that a table lacks disagrees. Raises CacheMismatch."""
    ca, cb = (t.to_convention(COMPLETED).values for t in (a, b))
    for n in range(1, min(max(ca, default=0), max(cb, default=0)) + 1):
        if ca.get(n) != cb.get(n):
            raise CacheMismatch(
                f"S'_{n}({a.p}): {a.method} gives {ca.get(n)} "
                f"but {b.method} gives {cb.get(n)}"
            )


class MomentValue:
    def __init__(self, p: int, d: int, value: int, method: str):
        self.p = p
        self.d = d
        self.value = value
        self.method = method


def _orbit_representatives(p: int) -> tuple[int, ...]:
    """One parameter per Galois orbit of Kl_2(p; .): 1, then g = primitive_root(p).

    sigma_k: zeta -> zeta**k sends Kl_2(p; a) to Kl_2(p; k**2 * a)
    (substitute x -> k x), so the orbits are the cosets of the squares in
    F_p^*. There are e = gcd(2, p - 1) of them: one at p = 2, and the
    squares and the non-squares (g is a non-square) otherwise. The sum of
    Kl_2(p; .)**n over the orbit of r is Tr(Kl_2(p; r)**n) / e: the trace
    sums over all p - 1 conjugations, and each orbit member is reached e
    times.
    """
    return (1, primitive_root(p))[: gcd(2, p - 1)]


def _orbit_sum(e: int, traces: int, what: str) -> int:
    q, r = divmod(traces, e)
    if r:
        raise IdentityFailure(
            f"{what}: orbit traces sum to {traces}, not a multiple of {e}"
        )
    return q


def _check_power_sums(p: int, values: dict[int, int]) -> None:
    """The restricted identities S_1 = 1, S_2 = p^2 - p - 1, and Salie's
    S_3 = (p/3) p^2 + 2p + 1 and S_4 = 2p^3 - 3p^2 - 3p - 1, S_4(2) = 1
    (H. Salie, Math. Z. 34, 1931); and the Weil bound
    S_n^2 <= (p-1)^2 4^n p^n, which |Kl_2(p; a)| <= 2 sqrt(p) gives."""
    expected = {1: 1, 2: p * p - p - 1, 3: jacobi_symbol(p, 3) * p * p + 2 * p + 1,
                4: 2 * p**3 - 3 * p * p - 3 * p - 1 if p % 2 else 1}
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
    exact_limit: int | None = None,
) -> PowerSumTable:
    """S_n(p) for n = 1..nmax from one power chain per Galois orbit.

    Kl_2(p; .) has one orbit at p = 2 and two (squares, non-squares)
    otherwise, so S_n(p) = sum over representatives r of
    Tr(Kl_2(p; r)**n) / gcd(2, p - 1), computed in Z[zeta_p].

    The representative. x = Kl_2(p; r) is sum_t c_t zeta**t with the
    counts c of kl2_counts, and the all-ones vector is 0 in Z[zeta_p], so
    the Legendre vector v_t = c_t - 1 = chi(t**2 - 4r) also represents x.
    Its entries sum to (p - 1) - p = -1, and it is even (c_(-t) = c_t under
    x -> -x). Powers of x are cyclic convolution powers of v
    (convolve.cyclic_powers), and Tr(y) = p y_0 - sum(y), as Tr(zeta**t)
    is p - 1 at t = 0 and -1 otherwise. The entries of v^(*n) sum to
    (-1)**n, so Tr(x**n) = p N_n - (-1)**n with N_n = [v^(*n)]_0 for
    n <= h = ceil(nmax / 2), and for n > h, with v^(*(n-h)) even,
    N_n = [v^(*h) * v^(*(n-h))]_0 = sum_t [v^(*h)]_t [v^(*(n-h))]_t.

    The width. The DFT of v is -1 at 0 and Kl_2(p; a**2 r) at a != 0,
    and |Kl_2| <= 2 sqrt p (A. Weil, On some exponential sums, PNAS 34,
    1948). By the inverse DFT every entry of v^(*k) is at most
    (1 + (p - 1)(4p)**(k/2)) / p <= (4p)**(k/2) in absolute value, so
    isqrt((4p)**h) bounds every power the chain forms.

    Every table is checked against the parity of the orbit sum, the closed
    forms of S_1..S_4 (_check_power_sums), the Weil bound and the completed
    congruence mod p^2; a failure raises IdentityFailure.

    The route has no limit of its own: a p above a caller's exact_limit
    raises ExactLimitExceeded. MomentEngine.lookup applies its own limit
    before its cache is read, and passes none.
    """
    p = Prime(p)
    if exact_limit is not None and p > exact_limit:
        raise ExactLimitExceeded(f"p = {p} above exact-path limit {exact_limit}")
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    if convention not in (RESTRICTED, COMPLETED):
        raise WrongConvention(f"unknown convention {convention!r}")
    reps = _orbit_representatives(p)
    h = (nmax + 1) // 2
    bound = isqrt((4 * p) ** h)
    traces = [0] * (nmax + 1)
    for r in reps:
        v = [c - 1 for c in kl2_counts(p, r)]
        powers = [None, *cyclic_powers(v, h, bound)]
        for n in range(1, h + 1):
            traces[n] += p * powers[n][0] - (-1) ** n
        for n in range(h + 1, nmax + 1):
            traces[n] += p * sum(map(mul, powers[h], powers[n - h])) - (-1) ** n
        del powers  # one orbit's chain in memory at a time
    values = {
        n: _orbit_sum(len(reps), traces[n], f"S_{n}({p})") for n in range(1, nmax + 1)
    }
    _check_power_sums(p, values)
    _check_completed_congruence(p, values)
    if convention == COMPLETED:
        values = {n: v + (-1) ** n for n, v in values.items()}
    return PowerSumTable(p, convention, values, METHOD_EXACT)


def table_size(p: int, nmax: int, method: str) -> int:
    """p * nmax**2 * w, which TABLE_CEILING bounds; w bounds, by bit lengths
    alone, the exact route's slot width isqrt((4p)**ceil(nmax/2)) (Weil's
    bound) or the float route's float_precision(p, nmax)."""
    if method == METHOD_EXACT:
        w = ((nmax + 1) // 2 * (4 * p).bit_length() + 1) // 2
    else:
        c = isqrt(4 * p) + 3
        w = max((p - 1).bit_length(), (2 * nmax).bit_length() + (nmax - 1) * c.bit_length())
    return p * nmax * nmax * w


def completed_congruence_class(n: int, p: int) -> int:
    """The residue (-1)**(n-1) * (n-1) * p of S'_n(p) modulo p**2."""
    return ((-1) ** (n - 1) * (n - 1) * p) % p**2


def _ball_power_sums(
    centres: list[int], radius: int, nmax: int
) -> tuple[list[int], list[int]]:
    """Power sums of the centres and their error bounds, indexed by
    n = 1..nmax: every choice of one x within radius of each centre m has
    |sum x**n - sum m**n| <= N (B**n - (B - R)**n), with N the number of
    centres, R the radius and B = max|m| + R.

    Proof. With x = m + e, |e| <= R, the binomial theorem gives
    |x**n - m**n| <= (|m| + R)**n - |m|**n, which grows with |m|.
    """
    sums = [0] * (nmax + 1)
    errors = [0] * (nmax + 1)
    big = max(map(abs, centres)) + radius
    powers = centres
    for n in range(1, nmax + 1):
        if n > 1:
            powers = list(map(mul, powers, centres))
        sums[n] = sum(powers)
        errors[n] = len(centres) * (big**n - (big - radius) ** n)
    return sums, errors


def power_sums_float(p: int, nmax: int, precision: int) -> PowerSumTable:
    """Completed S'_n(p) from rigorous enclosures plus the mod-p**2 congruence.

    Each Galois orbit of Kl_2(p; .) is enclosed at once. zeta -> zeta**k
    sends Kl_2(p; r) to Kl_2(p; k**2 r), so with the counts c of the
    representative r, Kl_2(p; g**(2i) r) = sum_t c_t cos(2*pi*g**i*t/p).
    The counts are non-negative, so with t = g**j (Rader's reindexing) its
    lower bounds at scale 2**-precision are one exact cyclic correlation,
        E_i = c_0 2**precision + sum_(j<L) D_j Q_(i+j),
    of the operand D of kloosterman._orbit_operand with the cosine lo
    endpoints Q of cyclotomic._rader_cosines. Each cosine pair is at most 2
    units wide and t = 0 is exact, so the value lies in [E_i, E_i + w],
    w = 2 sum_j D_j = 2 (p - 1 - c_0), and in the ball of centre E_i + w/2
    and radius R, the largest w/2 of the orbits. The centres' powers are
    exact integers at scale 2**-(n*precision), and _ball_power_sums bounds
    how far the true sum can be from theirs, so the final enclosure is
    certified without further rounding.
    The unique admissible integer is the one in the enclosure congruent to
    (-1)**(n-1)(n-1)p mod p**2. Admissible integers are p**2 apart, so an
    enclosure narrower than p**2 holds at most one; a wider enclosure, or
    one holding none, raises AmbiguousRounding, which float_precision(p,
    nmax) bits rule out. The restricted S_1..S_4 and the Weil bound are
    checked like exact tables (IdentityFailure).
    """
    p = Prime(p)
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    q_lo = cyclotomic._rader_cosines(p, precision)
    centres, radius = [], 0
    for r in _orbit_representatives(p):
        c0, operand = _orbit_operand(p, r)
        half = p - 1 - c0
        base = (c0 << precision) + half
        centres += [base + e for e in cyclic_convolve(q_lo, operand)]
        radius = max(radius, half)
    sums, errors = _ball_power_sums(centres, radius, nmax)
    values = {}
    modulus = p**2
    for n in range(1, nmax + 1):
        bits = n * precision
        mid = sums[n] + ((-1) ** n << bits)  # the a = 0 term is exact
        lo = mid - errors[n]
        hi = mid + errors[n]
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
        values[n] = k
    _check_power_sums(p, {n: v - (-1) ** n for n, v in values.items()})
    return PowerSumTable(p, COMPLETED, values, METHOD_FLOAT)


def float_precision(p: int, nmax: int) -> int:
    """The bits P at which power_sums_float pins S'_1..S'_nmax at p:

        P = max(bitlen(p - 1), bitlen(2 nmax c**(nmax - 1))),  c = isqrt(4p) + 3.

    Proof. power_sums_float gives each 2**P Kl_2(p; a) a lower bound and
    a width w <= 2(p - 1): its counts sum to p - 1, and each cosine
    interval of unit_root_intervals is at most 2 units wide. It puts
    it in a ball of centre m_a and radius R <= p - 1. As |Kl_2| <= 2 sqrt p
    (Weil) and 2**P >= p - 1, B = max|m| + R <= 2**P 2 sqrt p + 2R
    <= 2**P (2 sqrt p + 2) <= c 2**P, since isqrt(4p) > 2 sqrt p - 1. The
    enclosure of 2**(nP) S'_n (the a = 0 term is exact) from
    _ball_power_sums over the p - 1 balls is, by the mean value theorem,
        W_n = 2(p - 1)(B**n - (B - R)**n) <= 2n (p - 1) B**(n-1) R
            <= 2n (p - 1)**2 c**(n-1) 2**((n-1)P)
    wide, which is below p**2 2**(nP) once 2**P > 2n c**(n-1). Admissible
    integers are p**2 apart, so exactly one lies in the enclosure. The
    bound grows with n, so n = nmax covers every n.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    c = isqrt(4 * p) + 3
    return max((p - 1).bit_length(), (2 * nmax * c ** (nmax - 1)).bit_length())


def power_sums_float_auto(p: int, nmax: int) -> tuple[PowerSumTable, int]:
    """The float route at float_precision(p, nmax): the table and its bits."""
    precision = float_precision(p, nmax)
    return power_sums_float(p, nmax, precision), precision


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
    homogeneous traces satisfy h_j = s*h_{j-1} - p*h_{j-2}, h_0 = 1, on
    coefficient vectors (s = -counts): each h_j less its entry 0 times the
    all-ones vector, which is 0 in Z[zeta_p], keeps the products narrow.
    Entries 1..p-1 of the sum over a must be equal (IdentityFailure).
    """
    p = Prime(p)
    if p > exact_limit:
        raise ExactLimitExceeded(f"p = {p} above exact-path limit {exact_limit}")
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return MomentValue(p, 0, p - 1, "direct-recurrence")
    total = [0] * p
    for a in range(1, p):
        s = [-c for c in kl2_counts(p, a)]
        h_prev, h = [1] + [0] * (p - 1), s
        for _ in range(d - 1):
            step = [x - p * y for x, y in zip(cyclic_convolve(s, h), h_prev)]
            h_prev, h = h, [x - step[0] for x in step]
        total = list(map(add, total, h))
    if any(c != total[1] for c in total[2:]):
        raise IdentityFailure(f"m^{d}_2({p}): the sum over a is not rational")
    return MomentValue(p, d, total[0] - total[1], "direct-recurrence")


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


# ---------------------------------------------------------------------------
# Moment access with method selection
# ---------------------------------------------------------------------------


class MomentEngine:
    """Computes m^d_2(p), exact up to exact_limit, float-congruence above.

    Power-sum tables are memoized, one restricted table per prime found
    by p (and optionally persisted through `store`), since one sweep
    touches many degrees of the same prime. An exact_limit below 3 raises
    ValueError on construction; the refusals of `lookup` come before any
    table is read or built.
    """

    def __init__(self, exact_limit: int = DEFAULT_EXACT_LIMIT, store: object | None = None):
        if exact_limit < 3:
            raise ValueError("exact_limit must be >= 3")
        self.exact_limit = exact_limit
        self.store = store  # cache.PowerSumStore
        self._tables: dict[int, PowerSumTable] = {}
        self.float_primes: list[int] = []

    def table(self, p: int, nmax: int) -> PowerSumTable:
        """Restricted S_1..S_nmax at p: exact up to exact_limit, float beyond.

        The memo's table of p serves every nmax up to its own. A larger nmax
        builds a new table that replaces it, here and in `store`, rather
        than extending it: the exact route's slot width isqrt((4p)**h),
        h = ceil(nmax/2), covers the whole convolution chain, and neither
        the memo nor the cache keeps the chain; the float route's
        float_precision(p, nmax) grows with nmax, so the old enclosures are
        too coarse.
        """
        tab = self._tables.get(p)
        if tab is not None and max(tab.values) >= nmax:
            return tab
        method = METHOD_EXACT if p <= self.exact_limit else METHOD_FLOAT
        tab = self.lookup(p, nmax, method)
        if method == METHOD_FLOAT:
            self.float_primes.append(p)
        tab = tab.to_convention(RESTRICTED)
        self.seed(tab)
        return tab

    def lookup(self, p: int, nmax: int, method: str) -> PowerSumTable:
        """S_1..S_nmax at p by one method, read from `store` or computed.

        The table comes in the method's own convention, the one it is
        cached in: restricted for exact tables, completed for float tables
        (the convention their congruence pins). Nothing is routed or memoized.
        Before `store` is read, a p above PRIME_CEILING raises PrimeTooLarge,
        a table above TABLE_CEILING InputTooLarge, an exact table above
        exact_limit ExactLimitExceeded, and an nmax below 1 ValueError, so a
        warm cache refuses what a cold one does.
        """
        if p > PRIME_CEILING:
            raise PrimeTooLarge(f"p = {p} is above the prime ceiling {PRIME_CEILING}")
        size = table_size(p, nmax, method)
        if size > TABLE_CEILING:
            raise InputTooLarge(f"nmax = {nmax} at p = {p} sizes the {method} table "
                                f"at {size}, above the table ceiling {TABLE_CEILING}")
        if method == METHOD_EXACT:
            if p > self.exact_limit:
                raise ExactLimitExceeded(f"p = {p} above exact-path limit {self.exact_limit}")

            def compute():
                return power_sums_exact(p, nmax)
        else:
            def compute():
                return power_sums_float_auto(p, nmax)[0]
        if nmax < 1:
            raise ValueError("nmax must be >= 1")
        if self.store is None:
            return compute()
        return self.store.get_or_compute(p, nmax, method, compute)

    def seed(self, table: PowerSumTable) -> None:
        """Serve table's prime from a precomputed table, in place of any other.

        The table is kept restricted under its p, whatever the nmax of the
        one it replaces, and answers every request up to its own nmax
        without recomputation.
        """
        self._tables[table.p] = table.to_convention(RESTRICTED)

    def moment(self, p: int, d: int) -> MomentValue:
        tab = self.table(p, max(d, 1))
        mv = sym_moment_girard(p, d, tab)
        suffix = "exact" if tab.method == METHOD_EXACT else "float"
        return MomentValue(p, d, mv.value, f"girard-{suffix}")

    def audit(self, nmax: int) -> None:
        """Check S_1..S_nmax of one float-route prime, drawn by a
        random.Random(0), against the exact path (CacheMismatch)."""
        if not self.float_primes:
            return
        p = random.Random(0).choice(sorted(set(self.float_primes)))
        _check_agreement(self.table(p, nmax), power_sums_exact(p, nmax))
