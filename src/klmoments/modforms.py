"""Integer q-expansion engine: eta products, Hecke checks, coefficients.

A QSeries is a truncated integer q-expansion: coeffs[i] is the coefficient
of q**(lead + i), and every coefficient of exponent <= trunc is exact.
Arithmetic tracks validity: products are only trusted through the order
both operands support.

The form registry maps a moment degree to the eigenform whose a(p) its
pipeline derives: degrees 6 and 8 as integer combinations of eta
quotients, degree 5 as the theta series of Q(sqrt(-15)). The two level-6
forms are proven eigenforms by a finite certificate in the tests (Ligozat's
cusp orders, dim S_k(Gamma_0(6)) and Sturm's bound), so a sweep reads
their coefficients without a runtime check. hecke_validate samples the
eigenform identities of any expansion; degree 5 has no certificate yet.
"""

from __future__ import annotations

from math import gcd, isqrt, log, pi, sqrt
from typing import TYPE_CHECKING

from . import convolve
from .errors import (
    FractionalOrder,
    InputTooLarge,
    NotNormalized,
    TruncationTooShort,
)
from .ffprime import jacobi_symbol, primes_in_range

if TYPE_CHECKING:
    from fractions import Fraction


class QSeries:
    """Truncated integer q-expansion, exact through exponent `trunc`.

    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("lead", "coeffs", "trunc")

    def __init__(self, lead: int, coeffs, trunc: int):
        coeffs = [int(c) for c in coeffs]
        # normalize: leading coefficient nonzero, nothing beyond trunc
        zeros = next((i for i, c in enumerate(coeffs) if c), len(coeffs))
        lead += zeros
        coeffs = coeffs[zeros : zeros + max(0, trunc - lead + 1)]
        object.__setattr__(self, "lead", lead if coeffs else 0)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "trunc", trunc)

    def __setattr__(self, name, value):
        raise AttributeError("QSeries is immutable")

    # -- access ---------------------------------------------------------

    def coefficient(self, exponent: int) -> int:
        if exponent > self.trunc:
            raise TruncationTooShort(
                f"coefficient of q^{exponent} beyond truncation {self.trunc}"
            )
        i = exponent - self.lead
        if i < 0 or i >= len(self.coeffs):
            return 0
        return self.coeffs[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        limit = min(self.trunc, other.trunc)
        return all(
            self.coefficient(e) == other.coefficient(e)
            for e in range(min(self.lead, other.lead), limit + 1)
        )

    def __repr__(self) -> str:
        head = ", ".join(
            f"{c}*q^{self.lead + i}" for i, c in enumerate(self.coeffs[:4]) if c
        )
        return f"QSeries({head} ... ; trunc={self.trunc})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        trunc = min(self.trunc, other.trunc)
        lead = min(self.lead, other.lead)
        n = trunc - lead + 1
        out = [0] * n
        for i, c in enumerate(self.coeffs):
            j = self.lead + i - lead
            if 0 <= j < n:
                out[j] += c
        for i, c in enumerate(other.coeffs):
            j = other.lead + i - lead
            if 0 <= j < n:
                out[j] += c
        return QSeries(lead, out, trunc)

    def __mul__(self, other: "QSeries") -> "QSeries":
        # validity: each factor is exact through its own trunc, so the
        # product is exact through min(trunc_a + lead_b, trunc_b + lead_a)
        trunc = min(self.trunc + other.lead, other.trunc + self.lead)
        if not self.coeffs or not other.coeffs:
            return QSeries(0, [], trunc)
        lead = self.lead + other.lead
        keep = trunc - lead + 1
        if keep <= 0:
            return QSeries(0, [], trunc)
        prod = convolve.convolve_exact(
            self.coeffs[:keep], other.coeffs[:keep]
        )[:keep]
        return QSeries(lead, prod, trunc)

    def __pow__(self, e: int) -> "QSeries":
        """self**e. For e >= 0, square and multiply: the truncation is
        trunc + (e - 1) * lead either way, as for e - 1 successive products.

        For e < 0, which needs leading coefficient +-1, J. C. P. Miller's
        recurrence (Knuth, TAOCP vol. 2, 4.7): g = f**e satisfies
        k f_0 g_k = sum_{j=1..k} ((e + 1) j - k) f_j g_(k-j), one pass over
        the nonzero f_j per coefficient, and f_0 = +-1 leaves an exact
        division by k. It equals -e products of the inverse, down to the
        truncation trunc - (1 - e) * lead.
        """
        if e < 0:
            if not self.coeffs or self.coeffs[0] not in (1, -1):
                raise ValueError("a negative power needs leading coefficient +-1")
            u, n = self.coeffs[0], self.trunc - self.lead + 1
            # the j-th term is (a_j - k f_j) g_(k-j), with a_j = (e + 1) j f_j
            terms = [(j, (e + 1) * j * c, c) for j, c in enumerate(self.coeffs[1:n], 1) if c]
            g = [u if e % 2 else 1]
            for k in range(1, n):
                acc = sum((a - k * c) * g[k - j] for j, a, c in terms if j <= k)
                g.append(u * acc // k)
            return QSeries(e * self.lead, g, self.trunc - (1 - e) * self.lead)
        out = None
        base = self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return QSeries(0, [1], self.trunc) if out is None else out


# An expansion's peak memory grows by about 460 bytes per term (eta^24 as
# JSON: VmHWM 28.6 MB at 3*10^4 terms, 59.8 MB at 10^5), so expansions that
# would need about 1 GiB are refused.
ETA_TERMS_CEILING = 2**30 // 460
# A negative exponent makes the coefficients grow like exp(sqrt(n)). With
# K = sum |e|, the coefficient of q^n is at most exp(pi sqrt(2Kn/3)), so it
# has at most 1 + pi sqrt(2Kn/3) / ln 10 digits. Proof: (1 - x)^e is
# dominated termwise by (1 - x)^-|e|, so the unit part is dominated by
# prod_k (1 - q^k)^-K (eta(d t) for d > 1 takes a subproduct), whose
# coefficients p_K(n) satisfy p_K(n) x^n <= exp(K pi^2 x / (6 (1 - x))) for
# 0 < x < 1, since x^m / (1 - x^m) <= x / (m (1 - x)); take
# x = exp(-pi sqrt(K / 6n)). For K = 1 it is the classical bound on p(n)
# (Apostol, Introduction to Analytic Number Theory, ch. 14). Peak memory
# takes about 6 bytes per digit of the bound summed over n <= rel (1:-24 as
# JSON: VmHWM 73 MB at 2*10^4 terms, 10.3*10^6 digits; 314 MB at 6*10^4
# terms, 53.5*10^6 digits), so outputs that would need about 1 GiB are refused.
ETA_DIGITS_BUDGET = 2**30 // 6


class EtaQuotient:
    """Product of rescaled Dedekind eta factors eta(d*tau)**e."""

    def __init__(self, factors: tuple[tuple[int, int], ...]):
        for div, _ in factors:
            if div < 1:
                raise ValueError("eta factor needs a positive divisor")
        self.factors = factors

    @property
    def weight(self) -> Fraction:
        from fractions import Fraction

        return Fraction(sum(e for _, e in self.factors), 2)

    @property
    def q_order_times_24(self) -> int:
        return sum(div * e for div, e in self.factors)


def eta_unit_series(terms: int) -> QSeries:
    """Euler product prod_{n>=1} (1 - q**n) through q**terms.

    Expanded directly by the pentagonal-number theorem: the coefficient at
    k(3k-1)/2 (k any nonzero integer) is (-1)**k, all others vanish.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    coeffs = [0] * (terms + 1)
    coeffs[0] = 1
    k = 1
    while True:
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        if e1 > terms and e2 > terms:
            break
        sign = -1 if k % 2 else 1
        if e1 <= terms:
            coeffs[e1] = sign
        if e2 <= terms:
            coeffs[e2] = sign
        k += 1
    return QSeries(0, coeffs, terms)


def eta_quotient_series(eq: EtaQuotient, terms: int) -> QSeries:
    """q-expansion of prod_j (q**(d_j/24) prod_n (1-q**(d_j n)))**e_j.

    The total leading exponent sum(d_j e_j)/24 must be an integer.
    """
    total = eq.q_order_times_24
    if total % 24:
        raise FractionalOrder(
            f"leading exponent {total}/24 is not an integer for {eq.factors}"
        )
    lead = total // 24
    rel = terms - lead
    if max(terms, rel) > ETA_TERMS_CEILING:
        raise InputTooLarge(
            f"{max(terms, rel)} terms are above the eta term ceiling {ETA_TERMS_CEILING}"
        )
    if rel < 0:
        return QSeries(0, [], terms)
    if any(e < 0 for _, e in eq.factors):
        # the digits of ETA_DIGITS_BUDGET's bound, with sum_{n <= rel} sqrt(n)
        # at most (2/3) (rel + 1)^(3/2)
        k = sum(abs(e) for _, e in eq.factors)
        digits = int(rel + 1 + pi * sqrt(2 * k / 3) / log(10) * 2 / 3 * (rel + 1) ** 1.5) + 1
        if digits > ETA_DIGITS_BUDGET:
            raise InputTooLarge(
                f"up to {digits} digits are above the eta digit budget {ETA_DIGITS_BUDGET}"
            )
    unit_parts = QSeries(0, [1], rel)
    for div, e in eq.factors:
        # prod_n (1 - q^(div n))^e = f^e(q^div) for the Euler product f:
        # raise f to the power e on rel // div terms, then spread it out
        powered = (eta_unit_series(max(rel // div, 1)) ** e).coeffs[: rel // div + 1]
        rescaled = [0] * (rel + 1)
        rescaled[: len(powered) * div : div] = powered
        unit_parts = unit_parts * QSeries(0, rescaled, rel)
    # unit_parts starts at q^0 with constant term 1, and is exact through rel
    return QSeries(lead, unit_parts.coeffs, terms)


# ---------------------------------------------------------------------------
# Hecke validation
# ---------------------------------------------------------------------------


class HeckeReport:
    def __init__(self, weight: int, level: int, bound: int, multiplicativity_checked: int,
                 recursion_checked: int, deligne_checked: int, violations: tuple[str, ...]):
        self.weight = weight
        self.level = level
        self.bound = bound
        self.multiplicativity_checked = multiplicativity_checked
        self.recursion_checked = recursion_checked
        self.deligne_checked = deligne_checked
        self.violations = violations

    @property
    def passed(self) -> bool:
        return not self.violations


def hecke_validate(
    s: QSeries, weight: int, level: int, bound: int, character: int = 1
) -> HeckeReport:
    """Check eigenform identities on a normalized q-expansion.

    The nebentypus is chi(p) = jacobi_symbol(p, character), for an odd
    character dividing the level; 1, the default, is the trivial one. Verifies
    a(mn) = a(m)a(n) for coprime m, n; the prime-power recursion
    a(p**(r+1)) = a(p)a(p**r) - chi(p) p**(weight-1) a(p**(r-1)) for p not
    dividing the level; at p dividing the level exactly once,
    a(p**(r+1)) = a(p)a(p**r) and a(p)**2 = p**(weight-2), or
    a(p)**2 = p**(weight-1) where p also divides the character
    (Atkin-Lehner; old forms from lower levels break these); and the bound
    |a(p)| <= 2 p**((weight-1)/2), all for indices up to
    min(bound, truncation). recursion_checked counts the relations at
    primes not dividing the level.
    """
    if s.coefficient(1) != 1:
        raise NotNormalized(f"a(1) = {s.coefficient(1)}, expected 1")
    limit = min(bound, s.trunc)
    a = {n: s.coefficient(n) for n in range(1, limit + 1)}
    violations = []
    mult = 0
    for m in range(2, limit + 1):
        for n in range(m, limit // m + 1):
            if gcd(m, n) != 1:
                continue
            mult += 1
            if a[m * n] != a[m] * a[n]:
                violations.append(
                    f"a({m}*{n}) = {a[m*n]} != a({m})a({n}) = {a[m]*a[n]}"
                )
    rec = 0
    primes = primes_in_range(2, limit)
    for p in primes:
        if level % (p * p) == 0:
            continue
        # chi(p) p^(weight-1), zero where p divides the level; there a(p)^2
        # is p^(weight-1) if p divides the character too, else p^(weight-2)
        step = 0 if level % p == 0 else jacobi_symbol(p, character) * p ** (weight - 1)
        e = weight - 1 if character % p == 0 else weight - 2
        if not step and a[p] ** 2 != p**e:
            violations.append(
                f"a({p})^2 = {a[p] ** 2} != {p}^{e} at a prime dividing "
                f"the level once"
            )
        r = 1
        while p ** (r + 1) <= limit:
            rec += bool(step)
            lhs = a[p ** (r + 1)]
            rhs = a[p] * a[p**r] - step * a[p ** (r - 1)]
            if lhs != rhs:
                violations.append(f"Hecke recursion fails at {p}^{r+1}")
            r += 1
    deligne = 0
    for p in primes:
        deligne += 1
        # |a(p)| <= 2 p^((k-1)/2)  <=>  a(p)^2 <= 4 p^(k-1)
        if a[p] ** 2 > 4 * p ** (weight - 1):
            violations.append(f"|a({p})| = {abs(a[p])} breaks the Deligne bound")
    return HeckeReport(weight, level, limit, mult, rec, deligne, tuple(violations))


def prime_coefficients(s: QSeries, pmax: int) -> dict[int, int]:
    """a(p) for every prime p <= pmax."""
    if s.trunc < pmax:
        raise TruncationTooShort(f"series valid to {s.trunc}, need {pmax}")
    return {p: s.coefficient(p) for p in primes_in_range(2, pmax)}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class RegistryForm:
    """The eigenform whose a(p) a degree's pipeline derives from moments.

    `eta_terms` writes the form as an integer combination of eta
    quotients; a form without them is the CM theta series `_cm15_series`.
    The nebentypus is chi(p) = jacobi_symbol(p, character), trivial for 1.
    """

    def __init__(self, degree: int, weight: int, level: int, character: int = 1,
                 eta_terms: tuple = (), label: str = "eta-quotient"):
        self.degree = degree
        self.weight = weight
        self.level = level
        self.character = character
        self.eta_terms = eta_terms
        self.label = label  # how a comparison row names the form


def _eta6(a: int, b: int, c: int, d: int) -> EtaQuotient:
    """eta(t)^a eta(2t)^b eta(3t)^c eta(6t)^d."""
    return EtaQuotient(((1, a), (2, b), (3, c), (6, d)))


# The moment-matching eigenforms. Degree 6 is the weight-4 level-6 eta
# quotient. Degree 8 is the weight-6 level-6 newform, a combination of the
# holomorphic eta quotients that Ligozat's criterion gives at that weight
# and level. Degree 5 is the weight-3 level-15 CM form of Q(sqrt(-15)),
# with character (p/15) (Ribet 1977; Peters, Top and van der Vlugt 1992).
# Degree 7's weight-3 level-525 form is out of reach of both constructions.
REGISTRY: dict[int, RegistryForm] = {
    5: RegistryForm(5, weight=3, level=15, character=15, label="cm-theta"),
    6: RegistryForm(6, weight=4, level=6, eta_terms=((1, _eta6(2, 2, 2, 2)),)),
    8: RegistryForm(8, weight=6, level=6, eta_terms=(
        (1, _eta6(5, 5, 1, 1)), (9, _eta6(0, 6, 0, 6)), (-9, _eta6(4, -2, -4, 14)),
    )),
}


def registry_expansion(degree: int, pmax: int) -> QSeries:
    """Registry form's q-expansion through q**pmax: a(p) for every p <= pmax."""
    form = REGISTRY[degree]
    if not form.eta_terms:
        return _cm15_series(pmax)
    total = QSeries(0, [], pmax)
    for c, eq in form.eta_terms:
        s = eta_quotient_series(eq, pmax)
        total = total + QSeries(s.lead, [c * x for x in s.coeffs], s.trunc)
    return total


def _cm15_series(terms: int) -> QSeries:
    """The weight-3 CM form of Q(sqrt(-15)), exact through q**terms.

    Over O_K = Z[w], w = (1 + sqrt(-15))/2, with N(x + yw) = x^2 + xy + 4y^2
    and the non-principal class A = 2Z + wZ,
    a(m) = 1/2 sum_{N alpha = m} alpha^2 + 1/2 sum_{beta in A, N beta = 2m} beta^2 / w.
    Both sums are closed under conjugation, so each is half its trace;
    with beta^2 / w = beta^2 (1 - w) / 4 this reads, in integers,
    16 a(m) = sum_{N(x+yw) = m} (8x^2 + 8xy - 28y^2)
            + sum_{x even, N(x+yw) = 2m} (x^2 + 16xy + 4y^2).
    """
    acc = [0] * (terms + 1)  # 16 a(m)
    reach = 8 * terms  # 4 N(x + yw) = (2x + y)^2 + 15 y^2 <= 4 (2 terms)
    for y in range(-isqrt(reach // 15), isqrt(reach // 15) + 1):
        r = isqrt(reach - 15 * y * y)  # |2x + y| <= r
        for x in range(-((r + y) // 2), (r - y) // 2 + 1):
            n = x * x + x * y + 4 * y * y
            if n <= terms:
                acc[n] += 8 * x * x + 8 * x * y - 28 * y * y
            if x % 2 == 0:  # then n is even
                acc[n // 2] += x * x + 16 * x * y + 4 * y * y
    if any(v % 16 for v in acc):
        raise ArithmeticError("a coefficient of the CM form is not an integer")
    return QSeries(0, [v // 16 for v in acc], terms)
