import random
from fractions import Fraction

import pytest

from klmoments import evans
from klmoments.cache import PowerSumStore
from klmoments.errors import DivisibilityFailure, KlmomentsError
from klmoments.evans import (
    EvenTrace,
    MomentEngine,
    batch_report,
    evans_d5,
    evans_d6,
    evans_d7,
    evans_d8,
    reports_to_csv,
    reports_to_json,
    trace_middle,
)
from klmoments.ffprime import jacobi_symbol, primes_in_range
from klmoments.modforms import CoefficientTable, prime_coefficients, registry_expansion
from klmoments.moments import PowerSumTable, sym_moment_girard


def checks_by_name(report):
    return {c.name: c.passed for c in report.checks}


class FailAt13Engine(MomentEngine):
    """Module level, so a process pool can unpickle it."""

    def moment(self, p, d):
        if p == 13:
            raise KlmomentsError("induced failure")
        return super().moment(p, d)


class InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps inline."""

    def __init__(self, max_workers, requested):
        requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


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
        good = CoefficientTable("d5", 3, 15, 15, {7: 0, 17: -14})
        assert checks_by_name(evans_d5(7, engine_200, table=good))["table_match"]
        bad = CoefficientTable("d5", 3, 15, 15, {7: 5})
        assert not checks_by_name(evans_d5(7, engine_200, table=bad))["table_match"]


class TestEvansD6:
    def test_small_prime_values(self, engine_200):
        assert evans_d6(2, engine_200).derived == -2
        assert evans_d6(3, engine_200).derived == -3
        assert evans_d6(5, engine_200).derived == 6

    def test_registry_equality_to_97(self, engine_200):
        coeffs = prime_coefficients(registry_expansion(6, 97), 97)
        for p in primes_in_range(2, 97):
            r = evans_d6(p, engine_200, registry_coeffs=coeffs)
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
        table = CoefficientTable("d8", 6, 6, 1, {5: -66, 7: 176})
        r = evans_d8(5, engine_200, table=table)
        assert checks_by_name(r)["table_match"] and r.source == "imported-table"


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

    def test_parallel_matches_sequential(self):
        seq_rows, seq_sum = batch_report(6, 2, 40, jobs=1)
        par_rows, par_sum = batch_report(6, 2, 40, jobs=2)
        assert reports_to_json(seq_rows, seq_sum) == reports_to_json(par_rows, par_sum)

    def test_float_path_with_audit(self):
        engine = MomentEngine(exact_limit=11)
        rows, summary = batch_report(6, 2, 31, engine=engine, audit_seed=0)
        assert summary.errors == 0
        assert any(r.method == "girard-float" for r in rows)
        assert all(r.passed for r in rows)

    def test_audit_catches_corrupted_float_table(self):
        engine = MomentEngine(exact_limit=11)
        engine.moment(13, 6)
        assert engine.float_primes == [13]
        good = engine.table(13, 6)
        engine.audit(random.Random(0), 6)
        # a neighbour in the same class mod p^2, and a table missing an n
        shifted = {**good.values, 4: good.values[4] + 13**2}
        dropped = {n: v for n, v in good.values.items() if n != 3}
        for values in (shifted, dropped):
            engine.seed(PowerSumTable(13, good.convention, values, good.method))
            with pytest.raises(KlmomentsError, match="float audit mismatch at p=13"):
                engine.audit(random.Random(0), 6)

    def test_parallel_audit_uses_the_degree(self, monkeypatch):
        # the workers' tables stay in the workers, so the parent's audit
        # recomputes its prime: at the sweep's nmax, not a fixed 8
        asked = []
        real = evans.power_sums_float_auto

        def recording(p, nmax, *args):
            asked.append(nmax)
            return real(p, nmax, *args)

        monkeypatch.setattr(evans, "power_sums_float_auto", recording)
        engine = MomentEngine(exact_limit=11)
        rows, summary = batch_report(6, 2, 31, engine=engine, jobs=2)
        assert summary.errors == 0
        assert asked and max(asked) <= 6

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

    def test_workers_capped_at_prime_count(self, monkeypatch):
        requested = []
        monkeypatch.setattr(
            evans, "ProcessPoolExecutor",
            lambda max_workers: InlinePool(max_workers, requested),
        )
        rows, _ = batch_report(8, 3, 7, jobs=64)
        assert [r.p for r in rows] == [3, 5, 7] and requested == [3]
        rows, _ = batch_report(8, 3, 3, jobs=64)
        assert [r.p for r in rows] == [3] and requested == [3]

    def test_unknown_degree(self):
        with pytest.raises(ValueError):
            batch_report(9, 2, 10)


class TestEngineCache:
    def test_engine_persists_and_reuses_tables(self, tmp_path, monkeypatch):
        store = PowerSumStore(tmp_path)
        first = MomentEngine(exact_limit=11, store=store)
        v_exact = first.moment(11, 8).value
        v_float = first.moment(13, 8).value
        assert store.load(11, "restricted", "exact-cyclotomic") is not None
        assert store.load(13, "completed", "float-congruence") is not None

        calls = []
        orig = PowerSumStore.get_or_compute

        def counting(self, p, nmax, convention, method, compute):
            def wrapped():
                calls.append(p)
                return compute()

            return orig(self, p, nmax, convention, method, wrapped)

        def no_float(*args):
            raise AssertionError("a warm engine recomputed a float table")

        monkeypatch.setattr(PowerSumStore, "get_or_compute", counting)
        monkeypatch.setattr(evans, "power_sums_float_auto", no_float)
        second = MomentEngine(exact_limit=11, store=store)
        assert second.moment(11, 8).value == v_exact
        assert second.moment(13, 8).value == v_float
        assert calls == []  # warm cache: no recomputation
        # a float table read back from the cache is still audited
        assert second.float_primes == [13]
        audited = []
        real_exact = evans.power_sums_exact

        def recording(p, *args, **kwargs):
            audited.append(p)
            return real_exact(p, *args, **kwargs)

        monkeypatch.setattr(evans, "power_sums_exact", recording)
        second.audit(random.Random(0), 8)
        assert audited == [13]


class TestSerialization:
    def test_csv_shape(self, engine_200):
        rows, _ = batch_report(8, 3, 20, engine=engine_200)
        text = reports_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "p,m,derived,checks_passed,checks_failed,method"
        assert len(lines) == len(rows) + 1

    def test_json_deterministic(self, engine_200):
        rows, summary = batch_report(8, 3, 20, engine=engine_200)
        assert reports_to_json(rows, summary) == reports_to_json(rows, summary)
        doc = reports_to_json(rows, summary)
        assert '"schema_version": 1' in doc
