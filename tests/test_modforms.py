import json

import pytest
from hypothesis import given, settings, strategies as st

from klmoments.errors import (
    FractionalOrder,
    NotNormalized,
    TruncationTooShort,
)
from klmoments.modforms import (
    REGISTRY,
    CoefficientTable,
    EtaQuotient,
    QSeries,
    eta_quotient_series,
    eta_unit_series,
    hecke_validate,
    load_coefficient_table,
    prime_coefficients,
    registry_expansion,
    table_to_json,
)


def brute_force_euler_product(terms: int) -> list[int]:
    coeffs = [0] * (terms + 1)
    coeffs[0] = 1
    for n in range(1, terms + 1):
        nxt = coeffs[:]
        for i in range(terms + 1 - n):
            nxt[i + n] -= coeffs[i]
        coeffs = nxt
    return coeffs


class TestEtaUnitSeries:
    def test_first_coefficients(self):
        s = eta_unit_series(7)
        assert [s.coefficient(e) for e in range(8)] == [1, -1, -1, 0, 0, 1, 0, 1]

    def test_exponent_twelve_sign_decided_by_oracle(self):
        oracle = brute_force_euler_product(15)
        s = eta_unit_series(15)
        assert s.coefficient(12) == oracle[12] == -1

    def test_exponent_three_vanishes(self):
        assert eta_unit_series(5).coefficient(3) == 0

    @pytest.mark.parametrize("terms", [1, 2, 50, 400, 2000])
    def test_matches_brute_force_product(self, terms):
        s = eta_unit_series(terms)
        oracle = brute_force_euler_product(terms)
        assert [s.coefficient(e) for e in range(terms + 1)] == oracle


class TestQSeries:
    def test_truncation_guard(self):
        s = eta_unit_series(10)
        with pytest.raises(TruncationTooShort):
            s.coefficient(11)

    def test_mul_truncation_rule(self):
        a = QSeries(1, [1, 1], 5)
        b = QSeries(2, [1], 9)
        assert (a * b).trunc == min(5 + 2, 9 + 1)

    def test_inverse_round_trip(self):
        s = eta_unit_series(40)
        product = s * s.inverse()
        assert product.coefficient(0) == 1
        assert all(product.coefficient(e) == 0 for e in range(1, product.trunc + 1))

    def test_inverse_needs_unit(self):
        with pytest.raises(ValueError):
            QSeries(0, [2, 1], 5).inverse()

    def test_negative_power(self):
        s = eta_unit_series(30)
        assert (s**-2) * (s**2) == QSeries(0, [1], 20)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_ring_laws(self, data):
        coeff = st.integers(min_value=-9, max_value=9)
        mk = lambda: QSeries(
            data.draw(st.integers(min_value=0, max_value=3)),
            data.draw(st.lists(coeff, min_size=1, max_size=8)),
            12,
        )
        a, b, c = mk(), mk(), mk()
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestEtaQuotient:
    def test_weight_and_lead_of_registry_candidate(self):
        eq = EtaQuotient(((1, 2), (2, 2), (3, 2), (6, 2)))
        assert eq.weight == 4
        series = eta_quotient_series(eq, 20)
        assert series.lead == 1
        assert series.coefficient(1) == 1

    def test_discriminant_coefficients(self):
        # q prod (1-q^n)^24: tau(2) = -24, tau(3) = 252, tau(4) = -1472
        series = eta_quotient_series(EtaQuotient(((1, 24),)), 10)
        assert series.coefficient(2) == -24
        assert series.coefficient(3) == 252
        assert series.coefficient(4) == -1472

    def test_division_round_trip(self):
        num = EtaQuotient(((1, 2), (2, 2), (3, 2), (6, 2)))
        with_div = EtaQuotient(((1, 2), (2, 2), (3, 2), (6, 2), (2, -24), (2, 24)))
        a = eta_quotient_series(num, 30)
        b = eta_quotient_series(with_div, 30)
        assert a == b

    def test_fractional_order_rejected(self):
        with pytest.raises(FractionalOrder):
            eta_quotient_series(EtaQuotient(((1, 1),)), 10)


class TestHeckeValidate:
    def test_registry_degree6_passes(self):
        series = registry_expansion(6, 100)
        form = REGISTRY[6]
        report = hecke_validate(series, form.weight, form.level, 200)
        assert report.passed
        assert report.multiplicativity_checked > 50
        # prime powers <= 200 coprime to 6: 25, 49, 121, 125, 169
        assert report.recursion_checked == 5
        assert report.deligne_checked == 46

    def test_level_3_old_form_mixture_rejected(self):
        # E(5,5,1,1) + E(0,6,0,6) + 9 E(4,-2,-4,14), eta quotients of weight 6
        # on Gamma_0(6), mixes in old forms from level 3: a(2) = -4 passes
        # a(2)^2 = 2^4, but a(4) = -8 is not a(2)^2 = 16. The newform
        # E(5,5,1,1) + 9 E(0,6,0,6) - 9 E(4,-2,-4,14) passes.
        def e(a, b, c, d):
            return eta_quotient_series(EtaQuotient(((1, a), (2, b), (3, c), (6, d))), 60)

        def scaled(k, s):
            return QSeries(s.lead, [k * c for c in s.coeffs], s.trunc)

        mixture = e(5, 5, 1, 1) + e(0, 6, 0, 6) + scaled(9, e(4, -2, -4, 14))
        assert [mixture.coefficient(n) for n in (2, 4)] == [-4, -8]
        report = hecke_validate(mixture, 6, 6, 60)
        assert not report.passed
        assert "Hecke recursion fails at 2^2" in report.violations
        newform = e(5, 5, 1, 1) + scaled(9, e(0, 6, 0, 6)) - scaled(9, e(4, -2, -4, 14))
        assert [newform.coefficient(n) for n in (2, 3, 5, 7)] == [4, -9, -66, 176]
        assert hecke_validate(newform, 6, 6, 60).passed

    def test_constant_series_not_normalized(self):
        with pytest.raises(NotNormalized):
            hecke_validate(QSeries(0, [1], 50), 4, 6, 50)

    def test_multiplicativity_violation_reported(self):
        series = registry_expansion(6, 20)
        coeffs = [series.coefficient(e) for e in range(series.lead, series.trunc + 1)]
        coeffs[6 - series.lead] += 1  # corrupt a(6) = a(2)a(3)
        bad = QSeries(series.lead, coeffs, series.trunc)
        report = hecke_validate(bad, 4, 6, 30)
        assert not report.passed
        assert any("a(2*3)" in v for v in report.violations)


class TestPrimeCoefficients:
    def test_shifted_unit_series(self):
        s = eta_unit_series(30)
        shifted = QSeries(1, s.coeffs, 31)
        assert prime_coefficients(shifted, 7)[2] == -1

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooShort):
            prime_coefficients(eta_unit_series(10), 50)

    def test_zero_series(self):
        zero = QSeries(0, [], 100)
        assert set(prime_coefficients(zero, 20).values()) == {0}


class TestCoefficientTables:
    def test_round_trip(self):
        table = CoefficientTable("w6-l6", 6, 6, 1, {2: 4, 3: -9, 5: -66, 7: 176})
        text = table_to_json(table)
        loaded = load_coefficient_table(text)
        assert loaded == table
        assert json.loads(text)["schema_version"] == 1

    def test_deligne_violation_rejected(self):
        bad = CoefficientTable("bogus", 2, 11, 1, {3: 40})
        with pytest.raises(ValueError):
            load_coefficient_table(table_to_json(bad))

    def test_unknown_schema_rejected(self):
        doc = json.loads(table_to_json(CoefficientTable("x", 2, 11, 1, {2: 1})))
        doc["schema_version"] = 99
        with pytest.raises(ValueError):
            load_coefficient_table(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        "[1]",
        "42",
        "null",
        '{"schema_version": 1}',
        '{"schema_version": 1, "entries": [1], "label": "x", "weight": 2,'
        ' "level": 11, "nebentypus_modulus": 1}',
        '{"schema_version": 1, "entries": [], "label": "x", "weight": null,'
        ' "level": 11, "nebentypus_modulus": 1}',
    ])
    def test_malformed_document_is_value_error(self, text):
        # valid JSON of the wrong shape is rejected like invalid JSON
        with pytest.raises(ValueError):
            load_coefficient_table(text)
