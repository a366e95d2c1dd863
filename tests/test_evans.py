import concurrent.futures
import json
import os
import pickle
import tracemalloc
from fractions import Fraction

import pytest

from klmoments import evans, ffprime, kloosterman, modforms, moments
from klmoments.cache import PowerSumStore
from klmoments.cli import render_reports
from klmoments.errors import (
    CacheMismatch,
    DivisibilityFailure,
    KlmomentsError,
    PrimeTooLarge,
    RangeFailure,
)
from klmoments.evans import (
    EvansReport,
    EvenTrace,
    MomentEngine,
    batch_report,
    evans_d5,
    evans_d6,
    evans_d7,
    evans_d8,
    trace_middle,
)
from klmoments.ffprime import is_prime, jacobi_symbol, primes_in_range
from klmoments.invariants import GOOD, dim_m_middle, is_good
from klmoments.modforms import prime_coefficients, registry_expansion
from klmoments.moments import (
    METHOD_FLOAT,
    PRIME_CEILING,
    PowerSumTable,
    float_precision,
    power_sums_exact,
    sym_moment_girard,
)


def checks_by_name(report):
    return {c.name: c.passed for c in report.checks}


def matched(report, coeffs):
    """The report after the sweep's comparison with these coefficients."""
    evans._match_registry(report, coeffs)
    return report


class FailAt13Engine(MomentEngine):
    """Module level, so a process pool can unpickle it."""

    def moment(self, p, d):
        if p == 13:
            raise KlmomentsError("induced failure")
        return super().moment(p, d)


class InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers and the
    pickled function, and maps a copy of it inline, as a worker would."""

    def __init__(self, max_workers, requested, shipped):
        requested.append(max_workers)
        self.shipped = shipped

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        task = pickle.dumps(fn)  # a process pool sends it with every item
        self.shipped.append(task)
        return map(pickle.loads(task), items)


class TestTraceMiddle:
    def test_d3_is_the_quadratic_character(self, engine_200):
        # the middle space is one-dimensional orthogonal: trace = (p/3)
        for p in primes_in_range(5, 97):
            assert trace_middle(3, p, engine_200) == jacobi_symbol(p, 3)
        assert trace_middle(3, 2, engine_200) == -1

    def test_d5_p7_cm_zero(self, engine_200):
        assert trace_middle(5, 7, engine_200) == 0

    def test_even_d2_vanishes(self, engine_200):
        for p in (2, 5, 97):
            rec = trace_middle(2, p, engine_200)
            assert isinstance(rec, EvenTrace)
            assert rec.value == 0 and rec.pure_part == 0

    def test_p2_odd_traces_are_half_integral(self, engine_200):
        # the normalized trace at p = 2 is integral only for d = 3
        expected = {3: -1, 5: Fraction(1, 2), 7: Fraction(-1, 4),
                    9: Fraction(-3, 8), 11: Fraction(11, 16), 13: Fraction(-23, 32)}
        for d, t in expected.items():
            if d == 3:
                assert trace_middle(d, 2, engine_200) == t
            else:
                with pytest.raises(DivisibilityFailure):
                    trace_middle(d, 2, engine_200, strict=True)
                assert trace_middle(d, 2, engine_200, strict=False) == t

    def test_strict_failure_at_nonintegral_prime(self, engine_200):
        # d = 5, p = 17: the weight-3 coefficient is -14, not divisible by 17
        with pytest.raises(DivisibilityFailure):
            trace_middle(5, 17, engine_200, strict=True)
        assert trace_middle(5, 17, engine_200, strict=False) == Fraction(-14, 17)

    def test_universal_p2_divisibility(self, engine_200, sum_tables_200):
        # -m^d - 1 is divisible by p^2 for every odd d <= 13, d < p <= 97
        for d in (3, 5, 7, 9, 11, 13):
            for p in primes_in_range(d + 1, 97):
                m = sym_moment_girard(p, d, sum_tables_200[p]).value
                assert (-m - 1) % p**2 == 0, (d, p)

    def test_rational_quotient_in_weil_range(self, engine_200):
        for d in (5, 7, 9, 11, 13):
            dim = (d - 1) // 2
            for p in [2] + primes_in_range(d + 1, 97):
                t = trace_middle(d, p, engine_200, strict=False)
                assert abs(Fraction(t)) <= dim, (d, p)

    def test_even_range_checks(self, engine_200):
        for d in (2, 4, 6, 8, 10, 12):
            for p in primes_in_range(max(3, d // 2 + 1), 97):
                rec = trace_middle(d, p, engine_200)
                assert rec.steinberg_blocks == 0 and rec.sign_sum == 0
                assert rec.pure_part**2 <= rec.pure_dim**2 * p ** (d + 1)

    def test_even_ramified_forced_block_signs(self, engine_200):
        # at primes with Steinberg blocks and zero-dimensional pure part
        # the block signs are forced exactly by the trace
        rec = trace_middle(6, 3, engine_200)
        assert (rec.value, rec.sign_sum, rec.pure_part) == (-27, -1, 0)
        rec = trace_middle(8, 3, engine_200)
        assert (rec.value, rec.sign_sum, rec.pure_part) == (-81, -1, 0)
        rec = trace_middle(12, 3, engine_200)
        assert (rec.value, rec.steinberg_blocks, rec.sign_sum, rec.pure_part) == (
            0, 2, 0, 0,
        )

    def test_even_ramified_all_small_primes(self, engine_200):
        for d in (4, 6, 8, 10, 12):
            for p in primes_in_range(3, 97):
                rec = trace_middle(d, p, engine_200)
                assert abs(rec.sign_sum) <= rec.steinberg_blocks
                assert rec.sign_sum % 2 == rec.steinberg_blocks % 2
                assert rec.pure_part**2 <= rec.pure_dim**2 * p ** (d + 1)

    def test_preconditions(self, engine_200):
        with pytest.raises(ValueError):
            trace_middle(5, 3, engine_200)  # needs p > d or p = 2
        with pytest.raises(ValueError):
            trace_middle(4, 2, engine_200)  # even d at p = 2 only for d = 2


def shifted_engine(table, n, shift):
    """An engine serving table's prime with S_n moved by shift; a seeded
    table skips the identity checks."""
    values = dict(table.values)
    values[n] += shift
    engine = MomentEngine()
    engine.seed(PowerSumTable(table.p, table.convention, values, table.method))
    return engine


class TestRangeFailure:
    # S_d moved by a large multiple of p^2 moves -m^d - 1 by the same
    # amount, up to sign: p^2 still divides it, but it leaves every range
    SHIFT = 10**6 * 11**2

    def test_odd_degree_outside_the_middle_dimension(self, sum_tables_200):
        engine = shifted_engine(sum_tables_200[11], 5, self.SHIFT)
        u = -engine.moment(11, 5).value - 1
        with pytest.raises(RangeFailure) as info:
            trace_middle(5, 11, engine)
        assert str(info.value) == f"|{u}| exceeds 2 * 11^3 for d = 5, p = 11"

    def test_even_degree_without_a_sign_pattern(self, sum_tables_200):
        engine = shifted_engine(sum_tables_200[11], 6, self.SHIFT)
        u = -engine.moment(11, 6).value - 1
        with pytest.raises(RangeFailure) as info:
            trace_middle(6, 11, engine)
        assert str(info.value) == (
            f"no sign pattern on 0 Steinberg blocks puts the trace {u} "
            "inside 2 * p^(7/2) at d = 6, p = 11"
        )

    def test_degree7_outside_the_so3_range(self, sum_tables_200):
        engine = shifted_engine(sum_tables_200[11], 7, self.SHIFT)
        u = -engine.moment(11, 7).value - 1
        candidate = jacobi_symbol(11, 105) * u // 11**2 + 11**2
        assert not 0 <= candidate <= 4 * 11**2
        with pytest.raises(RangeFailure) as info:
            evans_d7(11, engine)
        assert str(info.value) == (
            f"degree-7 trace out of the SO_3 range at p = 11: candidate = {candidate}"
        )

    def test_sweep_turns_it_into_an_error_row(self, sum_tables_200):
        engine = shifted_engine(sum_tables_200[11], 7, self.SHIFT)
        rows, summary = batch_report(7, 11, 11, engine=engine)
        assert [r.p for r in rows] == [11]
        assert rows[0].error.startswith("RangeFailure: degree-7 trace out of the SO_3 range")
        assert (summary.rows, summary.passed, summary.errors) == (1, 0, 1)


class TestDivisibilityFailure:
    # S_5 moved by p moves -m^5 - 1 by p, which p^2 then does not divide
    MESSAGE = "p^2 does not divide the degree-5 combination at p = 11"

    def test_degree5_quotient(self, sum_tables_200):
        engine = shifted_engine(sum_tables_200[11], 5, 11)
        with pytest.raises(DivisibilityFailure) as info:
            evans_d5(11, engine)
        assert str(info.value) == self.MESSAGE

    def test_sweep_renders_the_error_row(self, sum_tables_200):
        engine = shifted_engine(sum_tables_200[11], 5, 11)
        rows, summary = batch_report(5, 11, 11, engine=engine)
        error = f"DivisibilityFailure: {self.MESSAGE}"
        assert render_reports(rows, summary, "text").splitlines() == [
            "evans d=5 primes in [11, 11]: 1 rows, 0 passed, 0 failed, 1 errors",
            f"p=11: ERROR {error}",
        ]
        assert render_reports(rows, summary, "csv").splitlines()[1:] == [
            f"11,,,0,0,error:{error}",
        ]


class TestEvansD5:
    def test_cm_vanishing_at_7(self, engine_200):
        r = evans_d5(7, engine_200)
        assert r.derived == 0 and r.passed

    def test_p2_report(self, engine_200):
        r = evans_d5(2, engine_200)
        assert r.derived == 1
        by_name = checks_by_name(r)
        assert by_name["deligne_weight3"] and by_name["cm_vanishing"]
        assert not by_name["p_divides_a"]  # 2 does not divide 1

    def test_p17_nonintegral_trace(self, engine_200):
        r = evans_d5(17, engine_200)
        assert r.derived == -14
        assert not checks_by_name(r)["p_divides_a"]

    def test_ramified_primes_rejected(self, engine_200):
        for p in (3, 5):
            with pytest.raises(ValueError):
                evans_d5(p, engine_200)

    def test_table_comparison(self, engine_200):
        good = {7: 0, 17: -14}
        r = matched(evans_d5(17, engine_200), good)
        assert checks_by_name(r)["registry_match"] and r.source == "registry-form"
        assert r.checks[-1].detail == "cm-theta a(17) = -14"
        r = matched(evans_d5(7, engine_200), {7: 5})
        assert not checks_by_name(r)["registry_match"]
        # a prime the coefficients lack gets no comparison row
        r = matched(evans_d5(11, engine_200), good)
        assert "registry_match" not in checks_by_name(r) and r.source == "none"


class TestEvansD6:
    def test_small_prime_values(self, engine_200):
        assert evans_d6(2, engine_200).derived == -2
        assert evans_d6(3, engine_200).derived == -3
        assert evans_d6(5, engine_200).derived == 6

    def test_registry_equality_to_97(self, engine_200):
        coeffs = prime_coefficients(registry_expansion(6, 97), 97)
        for p in primes_in_range(2, 97):
            r = matched(evans_d6(p, engine_200), coeffs)
            assert checks_by_name(r)["registry_match"], p
            assert r.source == "registry-form"


class TestEvansD7:
    def test_p11_integral(self, engine_200):
        r = evans_d7(11, engine_200)
        assert r.extra["t"] == -1
        assert r.derived == 0
        assert checks_by_name(r)["divisible_p4"]

    def test_p13_rational(self, engine_200):
        r = evans_d7(13, engine_200)
        assert r.extra["t"] == Fraction(-141, 169)
        assert r.derived == 28
        assert not checks_by_name(r)["divisible_p4"]

    def test_trace_range_and_value_count(self, engine_200):
        values = set()
        for p in primes_in_range(11, 97):
            r = evans_d7(p, engine_200)
            t = r.extra["t"]
            assert -1 <= t <= 3
            assert 0 <= r.derived <= 4 * p * p
            values.add(t)
        assert len(values) > 5

    def test_irreducibility_margin_at_11_and_13(self, engine_200):
        for p in (11, 13):
            m = engine_200.moment(p, 7).value
            assert abs(m + 1) < p**5 - p**4 - p**3

    def test_ramified_rejected(self, engine_200):
        for p in (3, 5, 7):
            with pytest.raises(ValueError):
                evans_d7(p, engine_200)


class TestEvansD8:
    def test_paper_pins(self, engine_200):
        assert evans_d8(5, engine_200).derived == -66
        assert evans_d8(7, engine_200).derived == 176

    def test_p3(self, engine_200):
        assert evans_d8(3, engine_200).derived == -9

    def test_p2_rejected(self, engine_200):
        with pytest.raises(ValueError):
            evans_d8(2, engine_200)

    def test_table_comparison(self, engine_200):
        coeffs = {5: -66, 7: 176}
        r = matched(evans_d8(5, engine_200), coeffs)
        assert checks_by_name(r)["registry_match"] and r.source == "registry-form"
        assert r.checks[-1].detail == "eta-quotient a(5) = -66"
        r = matched(evans_d8(7, engine_200), {7: -176})
        assert not checks_by_name(r)["registry_match"] and not r.passed


@pytest.fixture(scope="module")
def engine_500(sum_tables_200):
    """Exact tables S_1..S_8 (or more) for every prime p <= 500."""
    engine = MomentEngine(exact_limit=500)
    for tab in sum_tables_200.values():
        engine.seed(tab)
    for p in primes_in_range(201, 500):
        engine.seed(power_sums_exact(p, 8))
    return engine


class TestRegistryForms:
    @pytest.mark.parametrize("d, pipeline, admissible", [
        (5, evans_d5, 93),
        (6, evans_d6, 95),
        (8, evans_d8, 94),
    ])
    def test_registry_match_to_500(self, engine_500, d, pipeline, admissible):
        coeffs = prime_coefficients(registry_expansion(d, 500), 500)
        excluded, _ = evans._EXCLUDED[d]
        primes = [p for p in primes_in_range(2, 500) if p not in excluded]
        assert len(primes) == admissible
        for p in primes:
            r = matched(pipeline(p, engine_500), coeffs)
            assert checks_by_name(r)["registry_match"], p
            assert r.source == "registry-form"

    @pytest.mark.parametrize("d", [5, 8])
    def test_sweeps_of_5_and_8_build_no_series(self, engine_200, monkeypatch, d):
        # their registry_match rows are not in the report yet, so a sweep
        # neither expands nor validates a form
        def unreachable(*args):
            raise AssertionError("a degree-5 or degree-8 sweep built a form")

        monkeypatch.setattr(modforms, "registry_expansion", unreachable)
        monkeypatch.setattr(modforms, "hecke_validate", unreachable)
        rows, summary = batch_report(d, 2, 60, engine=engine_200)
        assert summary.errors == 0
        assert all(r.source == "none" for r in rows)
        with pytest.raises(AssertionError, match="built a form"):  # the patch reaches sweeps
            batch_report(6, 2, 13, engine=engine_200)

    def test_degree6_sweep_reads_the_proven_form_unchecked(self, engine_200, monkeypatch):
        # the form is proven an eigenform (tests/test_modforms.py), so a
        # sweep compares with it without sampling its Hecke identities,
        # and expands it only through q^pmax, here below q^200
        def unreachable(*args):
            raise AssertionError("a degree-6 sweep validated its form")

        monkeypatch.setattr(modforms, "hecke_validate", unreachable)
        assert not hasattr(evans, "hecke_validate")
        rows, summary = batch_report(6, 2, 31, engine=engine_200)
        assert summary.rows == summary.passed == 11
        assert all(checks_by_name(r)["registry_match"] for r in rows)
        assert all(r.source == "registry-form" for r in rows)


class TestRamification:
    # c_p(d) is the codimension of the inertia invariants at p in
    # trace_middle's model, a lower bound for the conductor exponent, with
    # equality where p is tame. p = 2 is left out: trace_middle defines
    # even d at p = 2 only for d = 2.
    @pytest.mark.parametrize("d, conductor", [
        (3, 3),  # the conductor of (p/3) in Salie's S_3
        (5, 15),  # REGISTRY[5]'s level and the modulus of its character
        (6, 3),  # the odd part of level 6
        (7, 105),  # the modulus of evans_d7's twist (p/105)
        (8, 3),  # the odd part of level 6
    ])
    def test_conductor_from_local_invariants(self, d, conductor):
        product = 1
        for p in primes_in_range(3, d):
            c = dim_m_middle(d, GOOD) - dim_m_middle(d, p) - (d % 2 == 0) * (d // (2 * p))
            assert c >= 0
            product *= p**c
        assert product == conductor

    @pytest.mark.parametrize("d", sorted(evans._EXCLUDED))
    def test_excluded_primes_are_bad(self, d):
        excluded, _ = evans._EXCLUDED[d]
        assert all(not is_good(d, p) for p in excluded)

    @pytest.mark.parametrize("d, pipeline, p", [
        (6, evans_d6, 2),
        (6, evans_d6, 3),
        (8, evans_d8, 3),
    ])
    def test_accepted_bad_primes_pass(self, engine_200, d, pipeline, p):
        assert not is_good(d, p)
        coeffs = prime_coefficients(registry_expansion(d, p), p)
        r = matched(pipeline(p, engine_200), coeffs)
        assert r.passed and checks_by_name(r)["registry_match"]


class TestBatchReport:
    def test_d8_3_to_100(self, engine_200):
        rows, summary = batch_report(8, 3, 100, engine=engine_200)
        assert summary.rows == 24
        assert summary.passed == 24 and summary.errors == 0
        assert [r.p for r in rows] == primes_in_range(3, 100)

    def test_empty_range(self):
        rows, summary = batch_report(5, 24, 28)
        assert rows == [] and summary.rows == 0

    def test_d5_excludes_ramified(self, engine_200):
        rows, _ = batch_report(5, 2, 30, engine=engine_200)
        assert {r.p for r in rows} == set(primes_in_range(2, 30)) - {3, 5}

    def test_cm_vanishing_rows(self, engine_200):
        rows, _ = batch_report(5, 2, 100, engine=engine_200)
        for r in rows:
            assert checks_by_name(r)["cm_vanishing"]
            if jacobi_symbol(r.p, 15) == -1:
                assert r.derived == 0

    def test_error_rows_do_not_abort(self, engine_200):
        class FailingEngine(MomentEngine):
            def moment(self, p, d):
                if p == 13:
                    raise KlmomentsError("induced failure")
                return super().moment(p, d)

        eng = FailingEngine()
        rows, summary = batch_report(8, 3, 20, engine=eng)
        assert summary.errors == 1
        failed = [r for r in rows if r.error is not None]
        assert len(failed) == 1 and failed[0].p == 13

    @pytest.mark.usefixtures("two_cpus")
    def test_parallel_matches_sequential(self):
        seq_rows, seq_sum = batch_report(6, 2, 40, jobs=1)
        par_rows, par_sum = batch_report(6, 2, 40, jobs=2)
        for fmt in ("text", "csv", "json"):
            assert render_reports(seq_rows, seq_sum, fmt) == render_reports(par_rows, par_sum, fmt)

    def test_float_path_with_audit(self):
        engine = MomentEngine(exact_limit=11)
        rows, summary = batch_report(6, 2, 31, engine=engine)
        assert summary.errors == 0
        assert any(r.method == "girard-float" for r in rows)
        assert all(r.passed for r in rows)

    def test_one_float_attempt_per_float_table(self, monkeypatch):
        # the precision is derived from (p, nmax), so nothing is retried
        calls = []
        real = moments.power_sums_float

        def recording(p, nmax, precision):
            calls.append((p, nmax, precision))
            return real(p, nmax, precision)

        monkeypatch.setattr(moments, "power_sums_float", recording)
        engine = MomentEngine()
        _, summary = batch_report(5, 258, 300, engine=engine)
        assert summary.errors == 0
        assert sorted(engine.float_primes) == primes_in_range(258, 300)
        assert calls == [(p, 5, float_precision(p, 5)) for p in engine.float_primes]

    def test_sweep_one_flags_the_float_tables_it_built(self):
        # a pool task's engine is a fresh copy, so "built here" is "took
        # the float route"; a memo hit builds nothing
        engine = MomentEngine(exact_limit=11)
        flags = [evans._sweep_one(engine, 6, p)[1] for p in (7, 13, 13)]
        assert flags == [False, True, False]
        assert engine.float_primes == [13]

    def test_float_sweep_keeps_one_prime_in_the_memos(self):
        # the generator powers serve a prime's two orbit operands and its
        # root table; the inverses, the audit's two chains
        ffprime._generator_powers.cache_clear()
        kloosterman._inverses.cache_clear()
        engine = MomentEngine()
        _, summary = batch_report(5, 258, 300, engine=engine)
        assert summary.errors == 0 and len(set(engine.float_primes)) > 1
        for memo in (ffprime._generator_powers, kloosterman._inverses):
            info = memo.cache_info()
            assert info.currsize <= 1 and info.hits > 0, info

    def test_audit_catches_corrupted_float_table(self):
        engine = MomentEngine(exact_limit=11)
        engine.moment(13, 6)
        assert engine.float_primes == [13]
        good = engine.table(13, 6)
        engine.audit(6)
        # a neighbour in the same class mod p^2, and a table missing an n
        shifted = {**good.values, 4: good.values[4] + 13**2}
        dropped = {n: v for n, v in good.values.items() if n != 3}
        for values, n in ((shifted, 4), (dropped, 3)):
            engine.seed(PowerSumTable(13, good.convention, values, good.method))
            with pytest.raises(
                CacheMismatch,
                match=rf"S'_{n}\(13\): float-congruence gives .* but exact-cyclotomic gives",
            ):
                engine.audit(6)

    @pytest.mark.usefixtures("two_cpus")
    def test_parallel_audit_uses_the_degree(self, monkeypatch):
        # the workers' tables stay in the workers, so the parent's audit
        # recomputes its prime: at the sweep's nmax, not a fixed 8
        asked = []
        real = moments.power_sums_float_auto

        def recording(p, nmax, *args):
            asked.append(nmax)
            return real(p, nmax, *args)

        monkeypatch.setattr(moments, "power_sums_float_auto", recording)
        engine = MomentEngine(exact_limit=11)
        rows, summary = batch_report(6, 2, 31, engine=engine, jobs=2)
        assert summary.errors == 0
        assert asked and max(asked) <= 6

    @pytest.mark.usefixtures("two_cpus")
    def test_pool_runs_the_callers_engine(self, tmp_path):
        store = PowerSumStore(tmp_path)
        engine = FailAt13Engine(exact_limit=11, store=store)
        rows, summary = batch_report(8, 3, 17, engine=engine, jobs=2)
        assert [r.p for r in rows if r.error is not None] == [13]
        assert summary.errors == 1
        cached = sorted(path.name for path in (tmp_path / "sums").glob("*.json"))
        assert cached == [
            "p11-restricted-exact-cyclotomic.json",
            "p17-completed-float-congruence.json",
            "p3-restricted-exact-cyclotomic.json",
            "p5-restricted-exact-cyclotomic.json",
            "p7-restricted-exact-cyclotomic.json",
        ]

    @pytest.fixture()
    def shipped(self):
        # the pickled task functions handed to the inline stand-in
        return []

    @pytest.fixture()
    def requested(self, monkeypatch, shipped):
        # the worker counts asked of an inline stand-in: no process starts
        requested = []
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor",
            lambda max_workers: InlinePool(max_workers, requested, shipped),
        )
        return requested

    @pytest.mark.usefixtures("two_cpus", "requested")
    def test_pool_task_size_does_not_grow_with_the_range(self, shipped):
        # the registry form's coefficients stay in the parent, so a task
        # is the engine, the degree and one prime, whatever pmax is
        for pmax in (31, 257):
            rows, summary = batch_report(6, 2, pmax, jobs=2)
            assert summary.rows == summary.passed == len(rows)
            assert all(checks_by_name(r)["registry_match"] for r in rows)
        assert len(shipped) == 2 and len(shipped[0]) == len(shipped[1])

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.usefixtures("two_cpus")
    def test_wrong_coefficient_fails_its_row(self, monkeypatch, requested, jobs):
        real = modforms.prime_coefficients

        def one_wrong(series, pmax):
            coeffs = real(series, pmax)
            coeffs[13] += 1
            return coeffs

        monkeypatch.setattr(modforms, "prime_coefficients", one_wrong)
        rows, summary = batch_report(6, 2, 31, jobs=jobs)
        failed = [r.p for r in rows if not r.passed]
        assert failed == [13] and not checks_by_name(rows[5])["registry_match"]
        assert rows[5].checks[-1].detail == "eta-quotient a(13) = 39"
        assert (summary.rows, summary.passed, summary.failed, summary.errors) == (11, 10, 1, 0)
        assert requested == [2] * (jobs - 1)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.usefixtures("two_cpus")
    def test_error_row_gets_no_registry_check(self, requested, jobs):
        rows, summary = batch_report(6, 2, 17, engine=FailAt13Engine(), jobs=jobs)
        (error,) = [r for r in rows if r.error is not None]
        assert error.p == 13 and error.checks == () and error.source == "none"
        assert all(r.source == "registry-form" for r in rows if r is not error)
        assert summary.errors == 1 and summary.passed == summary.rows - 1
        assert requested == [2] * (jobs - 1)

    def test_workers_capped_at_prime_count(self, monkeypatch, requested):
        monkeypatch.setattr(evans, "_usable_cpus", lambda: 64)
        rows, _ = batch_report(8, 3, 7, jobs=64)
        assert [r.p for r in rows] == [3, 5, 7] and requested == [3]
        rows, _ = batch_report(8, 3, 3, jobs=64)
        assert [r.p for r in rows] == [3] and requested == [3]

    def test_workers_capped_at_usable_cpus(self, monkeypatch, requested):
        monkeypatch.setattr(evans, "_usable_cpus", lambda: 2)
        rows, _ = batch_report(8, 3, 7, jobs=10**6)
        assert [r.p for r in rows] == [3, 5, 7] and requested == [2]
        monkeypatch.setattr(evans, "_usable_cpus", lambda: 1)
        rows, _ = batch_report(8, 3, 7, jobs=10**6)
        assert [r.p for r in rows] == [3, 5, 7] and requested == [2]

    def test_usable_cpus_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert evans._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert evans._usable_cpus() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert evans._usable_cpus() == 1

    def test_unknown_degree(self):
        with pytest.raises(ValueError):
            batch_report(9, 2, 10)


class TestPrimeCeiling:
    @pytest.fixture(autouse=True)
    def no_tables(self, monkeypatch):
        # a missing refusal fails here instead of allocating gigabytes
        def started(*args, **kwargs):
            raise AssertionError("a table or sieve above the prime ceiling was started")

        for name in ("power_sums_exact", "power_sums_float_auto"):
            monkeypatch.setattr(moments, name, started)
        monkeypatch.setattr(evans, "primes_in_range", started)

    def test_refused_before_any_allocation(self):
        # a table at p = 10^9 + 7 would take gigabytes, and so would the
        # sieve of a range that wide: each is refused before it allocates
        p = 1000000007
        tracemalloc.start()
        try:
            with pytest.raises(PrimeTooLarge, match="prime ceiling"):
                MomentEngine().lookup(p, 2, METHOD_FLOAT)
            with pytest.raises(PrimeTooLarge, match="prime ceiling"):
                MomentEngine(exact_limit=p).moment(p, 5)
            with pytest.raises(PrimeTooLarge, match="pmax"):
                batch_report(5, 2, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20 // 16

    def test_first_prime_above_the_ceiling(self):
        p = next(q for q in range(PRIME_CEILING + 1, PRIME_CEILING + 1000) if is_prime(q))
        with pytest.raises(PrimeTooLarge):
            MomentEngine().table(p, 2)


class TestEngineCache:
    def test_engine_persists_and_reuses_tables(self, tmp_path, monkeypatch):
        store = PowerSumStore(tmp_path)
        first = MomentEngine(exact_limit=11, store=store)
        v_exact = first.moment(11, 8).value
        v_float = first.moment(13, 8).value
        assert store.load(11, "exact-cyclotomic").convention == "restricted"
        assert store.load(13, "float-congruence").convention == "completed"

        calls = []
        orig = PowerSumStore.get_or_compute

        def counting(self, p, nmax, method, compute):
            def wrapped():
                calls.append(p)
                return compute()

            return orig(self, p, nmax, method, wrapped)

        def no_float(*args):
            raise AssertionError("a warm engine recomputed a float table")

        monkeypatch.setattr(PowerSumStore, "get_or_compute", counting)
        monkeypatch.setattr(moments, "power_sums_float_auto", no_float)
        second = MomentEngine(exact_limit=11, store=store)
        assert second.moment(11, 8).value == v_exact
        assert second.moment(13, 8).value == v_float
        assert calls == []  # warm cache: no recomputation
        # a float table read back from the cache is still audited
        assert second.float_primes == [13]
        audited = []
        real_exact = moments.power_sums_exact

        def recording(p, *args, **kwargs):
            audited.append(p)
            return real_exact(p, *args, **kwargs)

        monkeypatch.setattr(moments, "power_sums_exact", recording)
        second.audit(8)
        assert audited == [13]


class TestSerialization:
    def test_csv_shape(self, engine_200):
        rows, summary = batch_report(8, 3, 20, engine=engine_200)
        text = render_reports(rows, summary, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "p,m,derived,checks_passed,checks_failed,method"
        assert len(lines) == len(rows) + 1

    def test_json_keys_are_the_record_fields(self, engine_200):
        # the JSON objects are vars() of the records, so a stray attribute
        # would leak into stdout
        fields = ["checks", "d", "derived", "error", "extra", "method", "moment", "p", "source"]
        rows, summary = batch_report(6, 2, 20, engine=engine_200)
        rows.append(EvansReport(6, 23, None, None, (), "none", "", error="KlmomentsError: x"))
        doc = json.loads(render_reports(rows, summary, "json"))
        assert sorted(doc["summary"]) == [
            "d", "errors", "failed", "passed", "pmax", "pmin", "rows",
        ]
        assert rows[0].checks and rows[-1].extra == {}
        for row in rows:
            assert sorted(row.to_json_dict()) == fields
            for check in row.to_json_dict()["checks"]:
                assert sorted(check) == ["detail", "name", "passed"]
        assert [sorted(r) for r in doc["reports"]] == [fields] * len(rows)

    def test_json_deterministic(self, engine_200):
        rows, summary = batch_report(8, 3, 20, engine=engine_200)
        doc = render_reports(rows, summary, "json")
        assert doc == render_reports(rows, summary, "json")
        assert '"schema_version": 1' in doc
