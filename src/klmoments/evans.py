"""End-to-end verification pipelines for the moment/eigenform identities.

For the middle moment space of Sym^d the fundamental identity is

    -m^d_2(p) - 1 = Tr(Frob_p, M-part)          (d odd, p > d or p = 2)
    -m^d_2(p) - 1 = Tr(Frob_p, invariants) + [p**(d/2) if d = 0 mod 4]
                                                 (d even, p > 2)

where the pure part has eigenvalues of absolute value p**((d+1)/2) and,
for even d at small p, the invariants additionally contain [d/2p] lines of
Steinberg blocks with eigenvalues +-p**(d/2). Two layers of checks follow:

* range checks, which purity forces outright: the pure trace is bounded
  by dim * p**((d+1)/2). These hold at every applicable prime and a
  failure raises RangeFailure.
* integrality checks: the normalized odd-d trace (-m-1)/p**((d+1)/2) is a
  rational number whose denominator divides a power of p. It is an
  integer for d = 3, but for d >= 5 it genuinely acquires p-denominators
  at infinitely many primes (first seen at d = 5, p = 17, where the
  weight-3 coefficient is -14). Strict mode treats non-integrality as
  DivisibilityFailure; rational mode returns the exact Fraction.

The d = 5, 6, 7, 8 pipelines divide by the power of p the eigenform
identity actually provides (p**2 in all four cases) and record the finer
divisibility and bound facts as named check rows in the report.
"""

from __future__ import annotations

import json
import random
from functools import partial
from typing import TYPE_CHECKING

from .errors import (
    DivisibilityFailure,
    InputTooLarge,
    KlmomentsError,
    PrimeTooLarge,
    RangeFailure,
)
from .ffprime import Prime, jacobi_symbol, primes_in_range
from .modforms import (
    HECKE_BOUND, REGISTRY, hecke_validate, prime_coefficients, registry_expansion,
)
from .moments import (
    DEFAULT_EXACT_LIMIT,
    METHOD_EXACT,
    METHOD_FLOAT,
    PRIME_CEILING,
    RESTRICTED,
    TABLE_CEILING,
    MomentValue,
    PowerSumTable,
    _check_agreement,
    power_sums_exact,
    power_sums_float_auto,
    sym_moment_girard,
    table_size,
)

if TYPE_CHECKING:
    from fractions import Fraction

REPORT_SCHEMA_VERSION = 1


class CheckResult:
    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail


class EvansReport:
    def __init__(self, d: int, p: int, moment: int | None, derived: int | None, checks: tuple,
                 source: str, method: str, extra: dict | None = None, error: str | None = None):
        self.d = d
        self.p = p
        self.moment = moment
        self.derived = derived
        self.checks = checks
        self.source = source
        self.method = method
        self.extra = {} if extra is None else extra
        self.error = error

    @property
    def passed(self) -> bool:
        return self.error is None and all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            **vars(self),
            "moment": None if self.moment is None else str(self.moment),
            "derived": None if self.derived is None else str(self.derived),
            "checks": [vars(c) for c in self.checks],
            "extra": {k: str(v) for k, v in self.extra.items()},
        }

    def csv_row(self) -> list:
        # csv writes None as an empty field and an int in decimal
        return [
            self.p, self.moment, self.derived,
            sum(c.passed for c in self.checks),
            sum(not c.passed for c in self.checks),
            self.method if self.error is None else f"error:{self.error}",
        ]


CSV_HEADER = ["p", "m", "derived", "checks_passed", "checks_failed", "method"]


# ---------------------------------------------------------------------------
# Moment access with method selection
# ---------------------------------------------------------------------------


class MomentEngine:
    """Computes m^d_2(p), exact below the limit, float-congruence above.

    Power-sum tables are memoized per prime (and optionally persisted
    through `store`), since one sweep touches many degrees of the same
    prime. An exact_limit below 3 raises ValueError on construction; a
    prime above PRIME_CEILING raises PrimeTooLarge, and a table above
    TABLE_CEILING (table_size) InputTooLarge, before any table is built.
    """

    def __init__(self, exact_limit: int = DEFAULT_EXACT_LIMIT, store: object | None = None):
        if exact_limit < 3:
            raise ValueError("exact_limit must be >= 3")
        self.exact_limit = exact_limit
        self.store = store  # cache.PowerSumStore
        self._tables: dict[tuple[int, int], PowerSumTable] = {}
        self.float_primes: list[int] = []

    def table(self, p: int, nmax: int) -> PowerSumTable:
        """Restricted S_1..S_nmax at p: exact up to exact_limit, float beyond."""
        for (tp, tn), tab in self._tables.items():
            if tp == p and tn >= nmax:
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
        """
        if p > PRIME_CEILING:
            raise PrimeTooLarge(f"p = {p} is above the prime ceiling {PRIME_CEILING}")
        size = table_size(p, nmax, method)
        if size > TABLE_CEILING:
            raise InputTooLarge(f"nmax = {nmax} at p = {p} sizes the {method} table "
                                f"at {size}, above the table ceiling {TABLE_CEILING}")
        if method == METHOD_EXACT:
            def compute():
                return power_sums_exact(p, nmax, RESTRICTED, self.exact_limit)
        else:
            def compute():
                return power_sums_float_auto(p, nmax)[0]
        if self.store is None:
            return compute()
        return self.store.get_or_compute(p, nmax, method, compute)

    def seed(self, table: PowerSumTable) -> None:
        """Serve table's prime from a precomputed table, in place of any other.

        The table is kept restricted under (p, nmax) and answers every
        request up to its nmax without recomputation.
        """
        tab = table.to_convention(RESTRICTED)
        self._tables = {k: v for k, v in self._tables.items() if k[0] != tab.p}
        self._tables[(tab.p, max(tab.values))] = tab

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
        _check_agreement(self.table(p, nmax), power_sums_exact(p, nmax, exact_limit=p))


# ---------------------------------------------------------------------------
# Trace extraction
# ---------------------------------------------------------------------------


class EvenTrace:
    """Decomposition of -m - 1 - correction for even d.

    The inertia invariants split into [d/2p] lines coming from Steinberg
    blocks, each contributing +-p**(d/2) (the sign is an unramified
    quadratic twist the dimension theory does not pin down), plus a pure
    part of weight d + 1. sign_sum records the admissible sum of block
    signs that puts the remainder inside the Weil bound; at primes where
    the pure part is zero-dimensional the block signs are forced exactly
    (d = 6 and 8 at p = 3 give a single minus block; d = 12 at p = 3
    gives one of each sign).
    """

    def __init__(self, d, p, value, steinberg_blocks, sign_sum, pure_part, pure_dim):  # all ints
        self.d = d
        self.p = p
        self.value = value                        # Tr on the inertia invariants
        self.steinberg_blocks = steinberg_blocks  # [d/2p] two-dimensional unipotent pieces
        self.sign_sum = sign_sum                  # admissible sum of the block signs
        self.pure_part = pure_part                # value - sign_sum * p**(d/2)
        self.pure_dim = pure_dim                  # dim of the pure middle part at this p


def _middle_trace(d: int, p: int, m: int) -> int:
    """-m - 1 - [4 | d] p^(d/2): by the identities above, the trace of
    Frob_p on the middle part (odd d) or on the inertia invariants (even d)."""
    return -m - 1 - (p ** (d // 2) if d % 4 == 0 else 0)


def trace_middle(
    d: int,
    p: int,
    engine: MomentEngine | None = None,
    strict: bool = True,
) -> int | Fraction | EvenTrace:
    """Extract the normalized Frobenius trace from -m^d_2(p) - 1.

    Odd d (requires p > d or p = 2): the quotient (-m-1)/p**((d+1)/2) is
    returned; its absolute value never exceeds the stable middle dimension
    (RangeFailure otherwise). In strict mode a non-integer quotient raises
    DivisibilityFailure; with strict=False the exact Fraction is returned.

    Even d (requires p > 2, or p = 2 for the vacuous d = 2 case): returns
    the EvenTrace record; some sign pattern on the Steinberg blocks must
    leave a remainder inside the Weil bound dim * p**((d+1)/2), and the
    pattern minimizing the remainder is reported.
    """
    from .invariants import GOOD, dim_m_middle

    p = Prime(p)
    if d % 2 == 1 and not (p > d or p == 2):
        raise ValueError(f"odd-degree trace needs p > d or p = 2, got p = {p}")
    if d % 2 == 0 and p == 2 and d != 2:
        raise ValueError("even-degree trace at p = 2 is only defined for d = 2")
    u = _middle_trace(d, p, (engine or MomentEngine()).moment(p, d).value)
    if d % 2 == 1:
        e = (d + 1) // 2
        dim = dim_m_middle(d, GOOD)
        if u * u > dim * dim * p ** (2 * e):
            raise RangeFailure(
                f"|{u}| exceeds {dim} * {p}^{e} for d = {d}, p = {p}"
            )
        q, r = divmod(u, p**e)
        if r == 0:
            return q
        if strict:
            raise DivisibilityFailure(
                f"{p}^{e} does not divide -m^{d}_2({p}) - 1 = {u}"
            )
        from fractions import Fraction

        return Fraction(u, p**e)
    # even d
    blocks = d // (2 * p)
    magnitude = p ** (d // 2)
    dim = dim_m_middle(d, p)
    bound_sq = dim * dim * p ** (d + 1)
    best = None
    for s in range(-blocks, blocks + 1, 2):
        resid = u - s * magnitude
        if resid * resid <= bound_sq and (
            best is None or resid * resid < best[1] * best[1]
        ):
            best = (s, resid)
    if best is None:
        raise RangeFailure(
            f"no sign pattern on {blocks} Steinberg blocks puts the trace "
            f"{u} inside {dim} * p^({d + 1}/2) at d = {d}, p = {p}"
        )
    return EvenTrace(d, p, u, blocks, best[0], best[1], dim)


# ---------------------------------------------------------------------------
# Degree-specific pipelines
# ---------------------------------------------------------------------------


# The primes each degree's identity excludes, and the reason its pipeline
# gives when asked for one.
_EXCLUDED = {
    5: ({3, 5}, "p = 3 and p = 5 are ramified for the degree-5 identity"),
    6: (set(), ""),
    7: ({3, 5, 7}, "p = 3, 5, 7 are ramified for the degree-7 identity"),
    8: ({2}, "the degree-8 identity is stated for p >= 3"),
}


def _p2_quotient(
    d: int, p: int, engine: MomentEngine | None
) -> tuple[Prime, MomentValue, int]:
    """The prime, its moment m^d_2(p), and the middle trace divided by p^2.

    p must be admissible for the degree (ValueError otherwise); p^2 must
    divide the middle trace (DivisibilityFailure otherwise).
    """
    p = Prime(p)
    excluded, reason = _EXCLUDED[d]
    if p in excluded:
        raise ValueError(reason)
    mv = (engine or MomentEngine()).moment(p, d)
    q, r = divmod(_middle_trace(d, p, mv.value), p**2)
    if r:
        raise DivisibilityFailure(
            f"p^2 does not divide the degree-{d} combination at p = {p}"
        )
    return p, mv, q


def _compared(
    d: int, p: int, mv: MomentValue, a: int, checks: list[CheckResult],
    registry_coeffs: dict[int, int] | None,
) -> EvansReport:
    """The report, with a registry_match row where the registry form's
    coefficients (or None) have a(p)."""
    want = None if registry_coeffs is None else registry_coeffs.get(p)
    if want is not None:
        detail = f"{REGISTRY[d].label} a({p}) = {want}"
        checks.append(CheckResult("registry_match", want == a, detail))
    source = "none" if want is None else "registry-form"
    return EvansReport(d, p, mv.value, a, tuple(checks), source, mv.method)


def evans_d5(
    p: int,
    engine: MomentEngine | None = None,
    registry_coeffs: dict[int, int] | None = None,
) -> EvansReport:
    """Degree 5: a(p) = (-m^5 - 1)/p^2 against the weight-3 CM structure.

    Divisibility by p^2 is required (DivisibilityFailure otherwise). The
    report records: whether p also divides a(p) (true where a(p) = 0, as
    at primes inert in Q(sqrt(-15)); false at every split prime <= 500,
    where a(p) is the trace of an element of norm p^2), the weight-3 bound
    |a| <= 2p, and the vanishing a(p) = 0 forced at primes inert in
    Q(sqrt(-15)), i.e. with Jacobi symbol (p/15) = -1. With the registry
    form's coefficients, equality with a(p) is recorded.
    """
    p, mv, a = _p2_quotient(5, p, engine)
    chi = jacobi_symbol(p, 15)
    checks = [
        CheckResult("p_divides_a", a % p == 0, f"a = {a}"),
        CheckResult("deligne_weight3", a * a <= 4 * p * p, f"|a| vs 2p = {2*p}"),
        CheckResult(
            "cm_vanishing",
            chi != -1 or a == 0,
            f"(p/15) = {chi}",
        ),
    ]
    return _compared(5, p, mv, a, checks, registry_coeffs)


def evans_d6(
    p: int,
    engine: MomentEngine | None = None,
    registry_coeffs: dict[int, int] | None = None,
) -> EvansReport:
    """Degree 6: a(p) = (-m^6 - 1)/p^2, valid at every prime including 2.

    When the validated registry expansion is supplied, equality with its
    p-th coefficient is recorded.
    """
    p, mv, a = _p2_quotient(6, p, engine)
    checks = [
        CheckResult("deligne_weight4", a * a <= 4 * p**3, f"a = {a}"),
    ]
    return _compared(6, p, mv, a, checks, registry_coeffs)


def evans_d7(
    p: int,
    engine: MomentEngine | None = None,
) -> EvansReport:
    """Degree 7: trace in SO_3 with determinant twist (p/105).

    t(p) = (p/105) * (-m^7 - 1) / p^4 lies in [-1, 3]; it is rational with
    denominator dividing p^2 (integral only when p^4 divides the
    combination, which is rare). The derived integer is
    p^2 (t + 1) = a_f(p)^2 eps_f(p)^{-1}, the candidate squared-coefficient
    combination; it must lie in [0, 4p^2].
    """
    p, mv, q2 = _p2_quotient(7, p, engine)
    num = q2 * p**2  # -m - 1
    chi = jacobi_symbol(p, 105)
    candidate = chi * q2 + p**2  # = p^2 (t + 1)
    if not 0 <= candidate <= 4 * p**2:
        raise RangeFailure(
            f"degree-7 trace out of the SO_3 range at p = {p}: candidate = {candidate}"
        )
    from fractions import Fraction

    t = Fraction(candidate, p**2) - 1
    checks = [
        CheckResult("divisible_p4", num % p**4 == 0, f"-m-1 = {num}"),
        CheckResult("so3_trace_range", -1 <= t <= 3, f"t = {t}"),
    ]
    return EvansReport(
        7,
        p,
        mv.value,
        candidate,
        tuple(checks),
        "none",
        mv.method,
        extra={"t": t, "chi105": chi},
    )


def evans_d8(
    p: int,
    engine: MomentEngine | None = None,
    registry_coeffs: dict[int, int] | None = None,
) -> EvansReport:
    """Degree 8: a(p) = (-m^8 - 1 - p^4)/p^2 against the weight-6 bound.

    The eigenform has weight 6, so Deligne's bound is |a| <= 2 p^(5/2).
    With the registry form's coefficients, equality with a(p) is recorded.
    """
    p, mv, a = _p2_quotient(8, p, engine)
    checks = [
        CheckResult("deligne_weight6", a * a <= 4 * p**5, f"a = {a}"),
    ]
    return _compared(8, p, mv, a, checks, registry_coeffs)


# ---------------------------------------------------------------------------
# Batch driver
# ---------------------------------------------------------------------------

_PIPELINES = {5: evans_d5, 6: evans_d6, 7: evans_d7, 8: evans_d8}


class BatchSummary:
    def __init__(self, d, pmin, pmax, rows, passed, failed, errors):  # all ints
        self.d = d
        self.pmin = pmin
        self.pmax = pmax
        self.rows = rows
        self.passed = passed
        self.failed = failed
        self.errors = errors


def _sweep_one(
    engine: MomentEngine, d: int, kwargs: dict, p: int
) -> tuple[EvansReport, bool]:
    """Pipeline d at p with this engine, or an error row; and whether p
    took the float route (a pool worker's engine is a copy)."""
    try:
        row = _PIPELINES[d](p, engine, **kwargs)
    except KlmomentsError as exc:
        row = EvansReport(
            d, p, None, None, (), "none", "", error=f"{type(exc).__name__}: {exc}"
        )
    return row, p in engine.float_primes


def batch_report(
    d: int,
    pmin: int,
    pmax: int,
    engine: MomentEngine | None = None,
    jobs: int = 1,
) -> tuple[list[EvansReport], BatchSummary]:
    """Run one degree's pipeline over every admissible prime in [pmin, pmax].

    Per-prime failures become error rows; the sweep never aborts, but a
    pmax above PRIME_CEILING raises PrimeTooLarge before it starts. Rows are
    ordered by p regardless of execution order. With jobs > 1 the primes
    are spread over min(jobs, #primes) worker processes, each running a
    pickled copy of `engine` (settings, store, subclass). When any prime
    used the float path, one of them (chosen by a seeded RNG for
    reproducibility) is re-verified against the exact path.
    """
    if d not in _PIPELINES:
        raise ValueError(f"no pipeline for degree {d}; have {sorted(_PIPELINES)}")
    if pmax > PRIME_CEILING:  # before the sieve, which takes pmax - pmin + 1 bytes
        raise PrimeTooLarge(f"pmax = {pmax} is above the prime ceiling {PRIME_CEILING}")
    excluded, _ = _EXCLUDED[d]
    primes = [p for p in primes_in_range(pmin, pmax) if p not in excluded]
    engine = engine or MomentEngine()
    kwargs = {}
    # Degrees 5 and 8 have registry forms too, compared in the tests: their
    # registry_match rows reach stdout with the report's schema 2 (ROADMAP
    # item 6), so that stdout changes once, on purpose.
    if d == 6 and primes:
        form, series = REGISTRY[6], registry_expansion(6, max(primes))
        report = hecke_validate(series, form.weight, form.level, HECKE_BOUND, form.character)
        if report.passed:
            kwargs["registry_coeffs"] = prime_coefficients(series, max(primes))

    run = partial(_sweep_one, engine, d, kwargs)
    workers = min(jobs, len(primes))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pools pay its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, primes))
        engine.float_primes.extend(row.p for row, was_float in results if was_float)
    else:
        results = [run(p) for p in primes]
    rows = [row for row, _ in results]  # in the order of primes, ascending
    engine.audit(d)
    summary = BatchSummary(
        d,
        pmin,
        pmax,
        rows=len(rows),
        passed=sum(r.passed for r in rows),
        failed=sum((not r.passed) and r.error is None for r in rows),
        errors=sum(r.error is not None for r in rows),
    )
    return rows, summary


def render_reports(rows: list[EvansReport], summary: BatchSummary, fmt: str) -> str:
    """The sweep's report as the CLI prints it: fmt is text, csv or json."""
    if fmt == "json":
        doc = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "summary": vars(summary),
            "reports": [r.to_json_dict() for r in rows],
        }
        return json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(r.csv_row() for r in rows)
        return buf.getvalue()
    lines = [
        f"evans d={summary.d} primes in [{summary.pmin}, {summary.pmax}]: "
        f"{summary.rows} rows, {summary.passed} passed, "
        f"{summary.failed} failed, {summary.errors} errors"
    ]
    for r in rows:
        if r.error is not None:
            lines.append(f"p={r.p}: ERROR {r.error}")
            continue
        marks = " ".join(
            f"{c.name}={'ok' if c.passed else 'FAIL'}" for c in r.checks
        )
        lines.append(f"p={r.p}: m={r.moment} derived={r.derived} {marks}")
    return "".join(line + "\n" for line in lines)
