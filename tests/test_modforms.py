import pytest
from hypothesis import given, settings, strategies as st

from klmoments.errors import (
    FractionalOrder,
    NotNormalized,
    TruncationTooShort,
)
from klmoments.modforms import (
    REGISTRY,
    EtaQuotient,
    QSeries,
    eta_quotient_series,
    eta_unit_series,
    hecke_validate,
    prime_coefficients,
    registry_expansion,
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

    def test_unhashable(self):
        # equality compares through the shorter truncation, so no hash agrees with it
        with pytest.raises(TypeError):
            hash(QSeries(0, [1], 3))

    def test_many_leading_zeros(self):
        # stripped in one pass, then cut at trunc
        n = 10**5
        s = QSeries(0, [0] * n + [1, 2, 3], n + 1)
        assert (s.lead, s.coeffs) == (n, (1, 2))
        assert [s.coefficient(e) for e in (0, n - 1, n, n + 1)] == [0, 0, 1, 2]

    def test_geometric(self):
        assert QSeries(0, [1, -1], 5) ** -1 == QSeries(0, [1] * 6, 5)

    def test_inverse_round_trip(self):
        s = eta_unit_series(40)
        product = s * s**-1
        assert product.coefficient(0) == 1
        assert all(product.coefficient(e) == 0 for e in range(1, product.trunc + 1))

    def test_inverse_needs_unit(self):
        with pytest.raises(ValueError):
            QSeries(0, [2, 1], 5) ** -1

    def test_negative_power(self):
        s = eta_unit_series(30)
        assert (s**-2) * (s**2) == QSeries(0, [1], 20)

    @staticmethod
    def _parts(s):
        return s.lead, s.coeffs, s.trunc

    def test_power_equals_repeated_product(self):
        # truncation included: trunc(s**e) = trunc + (e - 1) * lead
        s = QSeries(2, [3, -1, 0, 2, 5], 20)
        repeated = QSeries(0, [1], s.trunc)
        for e in range(10):
            assert self._parts(s**e) == self._parts(repeated)
            repeated = repeated * s

    def test_negative_power_equals_repeated_inverse(self):
        # truncation included: trunc(s**-e) = trunc - (e + 1) * lead
        s = QSeries(1, [1, -2, 0, 3], 15)
        inverse = s**-1
        assert (inverse.lead, inverse.trunc) == (-1, 13)
        repeated = inverse
        for e in range(1, 8):
            assert self._parts(s**-e) == self._parts(repeated)
            repeated = repeated * inverse

    @staticmethod
    def _dense_inverse(s):
        # the textbook recurrence over every index: inv_k = -u sum_j s_j inv_(k-j)
        u, c = s.coeffs[0], s.coeffs
        inv = [u]
        for k in range(1, s.trunc - s.lead + 1):
            inv.append(-u * sum(c[j] * inv[k - j] for j in range(1, min(k, len(c) - 1) + 1)))
        return QSeries(-s.lead, inv, s.trunc - 2 * s.lead)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_negative_power_equals_dense_repeated_inverse(self, data):
        lead = data.draw(st.integers(min_value=-4, max_value=4))
        unit = data.draw(st.sampled_from([1, -1]))
        rest = data.draw(st.lists(st.integers(min_value=-9, max_value=9), max_size=12))
        s = QSeries(lead, [unit, *rest], lead + data.draw(st.integers(min_value=0, max_value=30)))
        e = data.draw(st.integers(min_value=1, max_value=6))
        inverse = self._dense_inverse(s)
        repeated = inverse
        for _ in range(e - 1):
            repeated = repeated * inverse
        assert self._parts(s**-e) == self._parts(repeated)

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

    @pytest.mark.parametrize("eq", [
        eq for form in REGISTRY.values() for _, eq in form.eta_terms
    ], ids=lambda eq: f"EtaQuotient(factors={eq.factors})")
    def test_power_then_spread_equals_spread_then_power(self, eq):
        # f(q^div)^e = f^e(q^div): the oracle spreads the Euler product f to
        # q^div on every term first, then raises it to the power e
        terms = 300
        lead = eq.q_order_times_24 // 24
        rel = terms - lead
        product = QSeries(0, [1], rel)
        for div, e in eq.factors:
            spread = [0] * (rel + 1)
            spread[::div] = eta_unit_series(max(rel // div, 1)).coeffs[: rel // div + 1]
            product = product * QSeries(0, spread, rel) ** e
        want = QSeries(lead, product.coeffs, terms)
        got = eta_quotient_series(eq, terms)
        assert got.trunc == want.trunc == terms
        assert [got.coefficient(n) for n in range(lead, terms + 1)] == [
            want.coefficient(n) for n in range(lead, terms + 1)
        ]


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
        newform = e(5, 5, 1, 1) + scaled(9, e(0, 6, 0, 6)) + scaled(-9, e(4, -2, -4, 14))
        assert [newform.coefficient(n) for n in (2, 3, 5, 7)] == [4, -9, -66, 176]
        assert hecke_validate(newform, 6, 6, 60).passed

    @pytest.mark.parametrize("degree", sorted(REGISTRY))
    def test_every_registry_form_passes(self, degree):
        form = REGISTRY[degree]
        series = registry_expansion(degree, 100)
        report = hecke_validate(series, form.weight, form.level, 200, form.character)
        assert report.passed, report.violations[:3]
        assert report.deligne_checked == 46

    @pytest.mark.parametrize("degree", sorted(REGISTRY))
    @pytest.mark.parametrize("pmax", [2, 31, 200, 257])
    def test_expansion_reaches_pmax_and_the_hecke_bound(self, degree, pmax):
        assert registry_expansion(degree, pmax).trunc == max(pmax, 200)

    def test_registry_holds_degrees_5_6_8(self):
        assert {d: (f.weight, f.level, f.character) for d, f in REGISTRY.items()} == {
            5: (3, 15, 15), 6: (4, 6, 1), 8: (6, 6, 1),
        }

    def test_cm_form_first_coefficients(self):
        # a(p) = 0 at primes inert in Q(sqrt(-15)) (p/15 = -1: 7, 11, 13);
        # at 3 and 5, which divide level and character, a(p)^2 = p^2
        series = registry_expansion(5, 10)
        assert [series.coefficient(n) for n in range(1, 18)] == [
            1, 1, -3, -3, 5, -3, 0, -7, 9, 5, 0, 9, 0, 0, -15, 5, -14,
        ]

    def test_cm_form_with_trivial_character_rejected(self):
        # chi(7) = (7/15) = -1 and a(7) = 0, so the recursion gives
        # a(49) = a(7)^2 - chi(7) 7^2 = 49; the trivial character wants -49.
        # At 3 | 15, a(3)^2 = 3^(k-1) holds for the character (p/15), and
        # the trivial character's a(3)^2 = 3^(k-2) does not
        series = registry_expansion(5, 30)
        assert series.coefficient(49) == 49
        assert hecke_validate(series, 3, 15, 60, 15).passed
        report = hecke_validate(series, 3, 15, 60)
        assert "Hecke recursion fails at 7^2" in report.violations
        assert "a(3)^2 = 9 != 3^1 at a prime dividing the level once" in report.violations

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
