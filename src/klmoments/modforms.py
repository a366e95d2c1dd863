"""Integer q-expansion engine: eta products, Hecke checks, coefficients.

A QSeries is a truncated integer q-expansion: coeffs[i] is the coefficient
of q**(lead + i), and every coefficient of exponent <= trunc is exact.
Arithmetic tracks validity: products are only trusted through the order
both operands support.

The form registry maps a moment degree to a candidate eta-quotient
realization of the matching eigenform. Candidates are hypotheses: nothing
downstream uses one until hecke_validate has passed on it. Degree 8 has no
registry expansion; its coefficients come from an imported table or from
the moment pipeline itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import convolve
from .errors import (
    FractionalOrder,
    NotNormalized,
    TruncationTooShort,
)
from .ffprime import is_prime, primes_in_range

TABLE_SCHEMA_VERSION = 1


class QSeries:
    """Truncated integer q-expansion, exact through exponent `trunc`.

    Instances are immutable after construction and safe to share.
    """

    __slots__ = ("lead", "coeffs", "trunc")

    def __init__(self, lead: int, coeffs, trunc: int):
        coeffs = [int(c) for c in coeffs]
        # normalize: leading coefficient nonzero, nothing beyond trunc
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            lead += 1
        if len(coeffs) > trunc - lead + 1:
            del coeffs[max(0, trunc - lead + 1) :]
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

    def __hash__(self):
        raise TypeError("QSeries is not hashable")

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

    def __neg__(self) -> "QSeries":
        return QSeries(self.lead, [-c for c in self.coeffs], self.trunc)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

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

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; requires unit leading coefficient."""
        if not self.coeffs or self.coeffs[0] not in (1, -1):
            raise ValueError("inverse needs leading coefficient +-1")
        u = self.coeffs[0]
        n = self.trunc - self.lead + 1
        inv = [0] * n
        inv[0] = u
        for k in range(1, n):
            acc = 0
            for j in range(1, min(k, len(self.coeffs) - 1) + 1):
                acc += self.coeffs[j] * inv[k - j]
            inv[k] = -u * acc
        return QSeries(-self.lead, inv, self.trunc - 2 * self.lead)

    def __pow__(self, e: int) -> "QSeries":
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return QSeries(0, [1], self.trunc)
        result = self
        for _ in range(e - 1):
            result = result * self
        return result


@dataclass(frozen=True)
class EtaQuotient:
    """Product of rescaled Dedekind eta factors eta(d*tau)**e."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for div, _ in self.factors:
            if div < 1:
                raise ValueError("eta factor needs a positive divisor")

    @property
    def weight(self) -> Fraction:
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
    if rel < 0:
        return QSeries(0, [], terms)
    unit_parts = QSeries(0, [1], rel)
    for div, e in eq.factors:
        base = eta_unit_series(max(rel, 1))
        rescaled = [0] * (rel + 1)
        for i, c in enumerate(base.coeffs):
            if div * i <= rel:
                rescaled[div * i] = c
            else:
                break
        factor = QSeries(0, rescaled, rel)
        unit_parts = unit_parts * (factor**e)
    out = [0] * (rel + 1)
    for i, c in enumerate(unit_parts.coeffs):
        if i <= rel:
            out[i] = c
    return QSeries(lead, out, terms)


# ---------------------------------------------------------------------------
# Hecke validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeckeReport:
    weight: int
    level: int
    bound: int
    multiplicativity_checked: int
    recursion_checked: int
    deligne_checked: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def hecke_validate(s: QSeries, weight: int, level: int, bound: int) -> HeckeReport:
    """Check eigenform identities on a normalized q-expansion.

    The character is taken trivial. Verifies a(mn) = a(m)a(n) for coprime
    m, n; the prime-power recursion
    a(p**(r+1)) = a(p)a(p**r) - p**(weight-1) a(p**(r-1)) for p not dividing
    the level; at p dividing the level exactly once, a(p)**2 = p**(weight-2)
    and a(p**(r+1)) = a(p)a(p**r) (Atkin-Lehner), which old forms from
    lower levels break; and the bound |a(p)| <= 2 p**((weight-1)/2), all for
    indices up to min(bound, truncation). recursion_checked counts the
    relations at primes not dividing the level.
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
        # chi(p) p^(weight-1) with chi the trivial character mod level
        step = 0 if level % p == 0 else p ** (weight - 1)
        if not step and a[p] ** 2 != p ** (weight - 2):
            violations.append(
                f"a({p})^2 = {a[p] ** 2} != {p}^{weight - 2} at a prime dividing "
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
# Registry and coefficient tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegistryForm:
    degree: int
    quotient: EtaQuotient
    weight: int
    level: int


# Candidate realizations of the moment-matching eigenforms. Degree 6 is the
# weight-4 level-6 quotient; degrees 5, 7, 8 have no constructive expansion
# here and rely on imported tables or the moment pipeline.
REGISTRY: dict[int, RegistryForm] = {
    6: RegistryForm(
        degree=6,
        quotient=EtaQuotient(((1, 2), (2, 2), (3, 2), (6, 2))),
        weight=4,
        level=6,
    ),
}

DEFAULT_TRUNCATION_PAD = 16


def registry_expansion(degree: int, pmax: int) -> QSeries:
    """Registry form's q-expansion, truncated to 2*pmax + 16 by default."""
    form = REGISTRY[degree]
    terms = 2 * pmax + DEFAULT_TRUNCATION_PAD
    return eta_quotient_series(form.quotient, terms)


@dataclass(frozen=True)
class CoefficientTable:
    """Imported eigenform coefficients a(n), exact integers."""

    label: str
    weight: int
    level: int
    nebentypus_modulus: int
    entries: dict[int, int]

    def get(self, n: int) -> int | None:
        return self.entries.get(n)


def table_to_json(table: CoefficientTable) -> str:
    doc = {
        "schema_version": TABLE_SCHEMA_VERSION,
        "label": table.label,
        "weight": table.weight,
        "level": table.level,
        "nebentypus_modulus": table.nebentypus_modulus,
        "entries": [
            {"n": n, "a": str(table.entries[n])} for n in sorted(table.entries)
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def load_coefficient_table(text: str) -> CoefficientTable:
    """Parse and vet an imported coefficient table.

    Prime entries are subjected to the Deligne bound before the table is
    trusted; a violation rejects the whole table.
    """
    doc = json.loads(text)
    if doc.get("schema_version") != TABLE_SCHEMA_VERSION:
        raise ValueError(f"unsupported table schema {doc.get('schema_version')}")
    entries = {int(e["n"]): int(e["a"]) for e in doc["entries"]}
    table = CoefficientTable(
        label=str(doc["label"]),
        weight=int(doc["weight"]),
        level=int(doc["level"]),
        nebentypus_modulus=int(doc["nebentypus_modulus"]),
        entries=entries,
    )
    for n, value in entries.items():
        if is_prime(n) and value**2 > 4 * n ** (table.weight - 1):
            raise ValueError(
                f"imported a({n}) = {value} violates the Deligne bound for weight {table.weight}"
            )
    return table
