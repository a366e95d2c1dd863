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
divisibility and bound facts as named check rows in the report. A sweep
(batch_report) then compares degree 6's a(p) with its registry form.

Moments come from moments.MomentEngine, which routes each prime and
applies the limits; this module only applies the identities. It keeps
the report's data shape (EvansReport.to_json_dict and csv_row,
CSV_HEADER, REPORT_SCHEMA_VERSION); cli.render_reports prints it.
"""

from __future__ import annotations

import os
from functools import partial
from typing import TYPE_CHECKING

from . import modforms
from .errors import (
    DivisibilityFailure,
    KlmomentsError,
    PrimeTooLarge,
    RangeFailure,
)
from .ffprime import Prime, jacobi_symbol, primes_in_range
from .moments import PRIME_CEILING, MomentEngine, MomentValue

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


def evans_d5(p: int, engine: MomentEngine | None = None) -> EvansReport:
    """Degree 5: a(p) = (-m^5 - 1)/p^2 against the weight-3 CM structure.

    Divisibility by p^2 is required (DivisibilityFailure otherwise). The
    report records: whether p also divides a(p) (true where a(p) = 0, as
    at primes inert in Q(sqrt(-15)); false at every split prime <= 500,
    where a(p) is the trace of an element of norm p^2), the weight-3 bound
    |a| <= 2p, and the vanishing a(p) = 0 forced at primes inert in
    Q(sqrt(-15)), i.e. with Jacobi symbol (p/15) = -1.
    """
    p, mv, a = _p2_quotient(5, p, engine)
    chi = jacobi_symbol(p, 15)
    checks = (
        CheckResult("p_divides_a", a % p == 0, f"a = {a}"),
        CheckResult("deligne_weight3", a * a <= 4 * p * p, f"|a| vs 2p = {2*p}"),
        CheckResult("cm_vanishing", chi != -1 or a == 0, f"(p/15) = {chi}"),
    )
    return EvansReport(5, p, mv.value, a, checks, "none", mv.method)


def evans_d6(p: int, engine: MomentEngine | None = None) -> EvansReport:
    """Degree 6: a(p) = (-m^6 - 1)/p^2, valid at every prime including 2."""
    p, mv, a = _p2_quotient(6, p, engine)
    checks = (CheckResult("deligne_weight4", a * a <= 4 * p**3, f"a = {a}"),)
    return EvansReport(6, p, mv.value, a, checks, "none", mv.method)


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


def evans_d8(p: int, engine: MomentEngine | None = None) -> EvansReport:
    """Degree 8: a(p) = (-m^8 - 1 - p^4)/p^2 against the weight-6 bound.

    The eigenform has weight 6, so Deligne's bound is |a| <= 2 p^(5/2).
    """
    p, mv, a = _p2_quotient(8, p, engine)
    checks = (CheckResult("deligne_weight6", a * a <= 4 * p**5, f"a = {a}"),)
    return EvansReport(8, p, mv.value, a, checks, "none", mv.method)


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


def _sweep_one(engine: MomentEngine, d: int, p: int) -> tuple[EvansReport, bool]:
    """Pipeline d at p with this engine, or an error row; and whether p
    took the float route (a pool worker's engine is a copy)."""
    floats = len(engine.float_primes)
    try:
        row = _PIPELINES[d](p, engine)
    except KlmomentsError as exc:
        row = EvansReport(
            d, p, None, None, (), "none", "", error=f"{type(exc).__name__}: {exc}"
        )
    return row, len(engine.float_primes) > floats


def _match_registry(row: EvansReport, coeffs: dict[int, int]) -> None:
    """Compare a derived row's a(p) with the registry form's coefficient.

    A row with no error whose prime `coeffs` holds gets a last check,
    registry_match, and the source "registry-form"; any other row is left
    as it is.
    """
    want = coeffs.get(row.p)
    if row.error is not None or want is None:
        return
    detail = f"{modforms.REGISTRY[row.d].label} a({row.p}) = {want}"
    row.checks += (CheckResult("registry_match", want == row.derived, detail),)
    row.source = "registry-form"


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    are spread over min(jobs, #primes, usable CPUs) worker processes, each
    running a pickled copy of `engine` (settings, store, subclass); the
    pool starts every worker at once, so the CPU cap bounds the fan-out,
    and each task carries only its prime. Degree 6's form is expanded
    through q^pmax before any prime is swept, and the parent compares its
    coefficients with the rows from either path.
    When any prime used the float path, one of them (chosen by a seeded RNG
    for reproducibility) is re-verified against the exact path.
    """
    if d not in _PIPELINES:
        raise ValueError(f"no pipeline for degree {d}; have {sorted(_PIPELINES)}")
    if pmax > PRIME_CEILING:  # before the sieve, which takes pmax - pmin + 1 bytes
        raise PrimeTooLarge(f"pmax = {pmax} is above the prime ceiling {PRIME_CEILING}")
    excluded, _ = _EXCLUDED[d]
    primes = [p for p in primes_in_range(pmin, pmax) if p not in excluded]
    engine = engine or MomentEngine()
    coeffs = {}
    # Degrees 5 and 8 have registry forms too, compared in the tests: their
    # registry_match rows reach stdout with the report's schema 2 (ROADMAP
    # item 6b), so that stdout changes once, on purpose.
    if d == 6 and primes:
        series = modforms.registry_expansion(6, max(primes))
        coeffs = modforms.prime_coefficients(series, max(primes))

    run = partial(_sweep_one, engine, d)  # a pool pickles it with every prime
    workers = min(jobs, len(primes), _usable_cpus())
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pools pay its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, primes))
        engine.float_primes.extend(row.p for row, was_float in results if was_float)
    else:
        results = [run(p) for p in primes]
    rows = [row for row, _ in results]  # in the order of primes, ascending
    for row in rows:
        _match_registry(row, coeffs)
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

