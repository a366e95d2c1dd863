from fractions import Fraction
from math import gcd, isqrt, prod

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
        series = registry_expansion(6, 200)
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
        series = registry_expansion(degree, 200)
        report = hecke_validate(series, form.weight, form.level, 200, form.character)
        assert report.passed, report.violations[:3]
        assert report.deligne_checked == 46

    @pytest.mark.parametrize("degree", sorted(REGISTRY))
    @pytest.mark.parametrize("pmax", [2, 31, 200, 257])
    def test_expansion_reaches_pmax_and_the_hecke_bound(self, degree, pmax):
        # exactly q^pmax: a sweep reads a(p) for p <= pmax and nothing more
        assert registry_expansion(degree, pmax).trunc == pmax

    @pytest.mark.parametrize("degree", [6, 8])
    @pytest.mark.parametrize("pmax", [1, 2, 3, 5, 7, 31])
    def test_short_expansion_is_a_prefix(self, degree, pmax):
        short, long = registry_expansion(degree, pmax), registry_expansion(degree, 200)
        assert [short.coefficient(n) for n in range(pmax + 1)] == [
            long.coefficient(n) for n in range(pmax + 1)
        ]

    def test_registry_holds_degrees_5_6_8(self):
        assert {d: (f.weight, f.level, f.character) for d, f in REGISTRY.items()} == {
            5: (3, 15, 15), 6: (4, 6, 1), 8: (6, 6, 1),
        }

    def test_cm_form_first_coefficients(self):
        # a(p) = 0 at primes inert in Q(sqrt(-15)) (p/15 = -1: 7, 11, 13);
        # at 3 and 5, which divide level and character, a(p)^2 = p^2
        series = registry_expansion(5, 17)
        assert [series.coefficient(n) for n in range(1, 18)] == [
            1, 1, -3, -3, 5, -3, 0, -7, 9, 5, 0, 9, 0, 0, -15, 5, -14,
        ]

    def test_cm_form_with_trivial_character_rejected(self):
        # chi(7) = (7/15) = -1 and a(7) = 0, so the recursion gives
        # a(49) = a(7)^2 - chi(7) 7^2 = 49; the trivial character wants -49.
        # At 3 | 15, a(3)^2 = 3^(k-1) holds for the character (p/15), and
        # the trivial character's a(3)^2 = 3^(k-2) does not
        series = registry_expansion(5, 60)
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


# ---------------------------------------------------------------------------
# Certificate: the level-6 registry forms are Hecke eigenforms
# ---------------------------------------------------------------------------


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _prime_divisors(n):
    return [q for q in _divisors(n) if q > 1 and len(_divisors(q)) == 2]


def ligozat_orders(eq, level):
    """Order of eta quotient eq at the cusp 1/c of X_0(level), c | level:
    (N/24) sum_delta gcd(c, delta)^2 r_delta / (gcd(c, N/c) c delta)
    (G. Ligozat, Courbes modulaires de genre 1, Mem. SMF 43, 1975)."""
    return tuple(
        Fraction(level, 24) * sum(
            Fraction(gcd(c, d) ** 2 * r, gcd(c, level // c) * c * d) for d, r in eq.factors
        )
        for c in _divisors(level)
    )


def is_cusp_form_on_gamma0(eq, level, weight):
    """Ligozat's criterion for eq in S_weight(Gamma_0(level)), weight even,
    trivial character: every delta divides the level, the weight is
    sum r / 2, sum delta r and sum (N/delta) r are multiples of 24, the
    character (prod delta^r / .) is trivial because prod delta^r is a
    square, and the order at every cusp is positive."""
    square = prod(Fraction(d) ** r for d, r in eq.factors)
    return (
        weight % 2 == 0
        and all(level % d == 0 for d, _ in eq.factors)
        and eq.weight == weight
        and sum(d * r for d, r in eq.factors) % 24 == 0
        and sum(level // d * r for d, r in eq.factors) % 24 == 0
        and all(isqrt(x) ** 2 == x for x in (square.numerator, square.denominator))
        and min(ligozat_orders(eq, level)) > 0
    )


def gamma0_index(level):
    """[SL_2(Z) : Gamma_0(N)] = N prod_{q | N} (1 + 1/q)."""
    return Fraction(level) * prod(Fraction(q + 1, q) for q in _prime_divisors(level))


def dim_cusp_forms(level, weight):
    """dim S_k(Gamma_0(N)) for even k >= 4, from the genus g, the cusps c and
    the elliptic points e_2, e_3 of X_0(N) (Diamond and Shurman, GTM 228,
    3.1.1, 3.5.1, 3.9.1):
    (k - 1)(g - 1) + (k/2 - 1) c + floor(k/4) e_2 + floor(k/3) e_3."""
    assert weight >= 4 and weight % 2 == 0
    qs = _prime_divisors(level)
    # (-4/q) and (-3/q) for the primes q | N
    e2 = 0 if level % 4 == 0 else prod(1 + {1: 1, 3: -1}.get(q % 4, 0) for q in qs)
    e3 = 0 if level % 9 == 0 else prod(1 + {1: 1, 2: -1}.get(q % 3, 0) for q in qs)
    cusps = sum(
        sum(gcd(i, gcd(d, level // d)) == 1 for i in range(1, gcd(d, level // d) + 1))
        for d in _divisors(level)
    )
    genus = 1 + gamma0_index(level) / 12 - Fraction(e2, 4) - Fraction(e3, 3) - Fraction(cusps, 2)
    assert genus.denominator == 1
    return int(
        (weight - 1) * (genus - 1) + (weight // 2 - 1) * cusps
        + weight // 4 * e2 + weight // 3 * e3
    )


def hecke_t(series, ell, weight, n):
    """Coefficient of q^n in T_ell f, ell prime to the level:
    a(ell n) + ell^(k-1) a(n / ell)."""
    return series.coefficient(ell * n) + (
        ell ** (weight - 1) * series.coefficient(n // ell) if n % ell == 0 else 0
    )


class TestSturmCertificate:
    """Degrees 6 and 8 are eigenforms of every T_l, l prime to 6, proven
    from finitely many coefficients, so a sweep reads their a(p) unchecked.

    Degree 6 lies in S_4(Gamma_0(6)), which is 1-dimensional: T_l maps the
    normalized form to a multiple of itself. Degree 8 lies in
    S_6(Gamma_0(6)), of dimension 3. Its old part is g(t), g(2t) for the
    level-3 form g = (eta(t) eta(3t))^6, which spans S_6(Gamma_0(3)), and
    T_5 acts on it by a_g(5) = 6. T_5 f + 66 f is in S_6(Gamma_0(6)) and
    vanishes through q^7, past Sturm's bound k [SL_2(Z) : Gamma_0(6)] / 12
    = 6 (J. Sturm, LNM 1240, 1987), so it is 0. T_5 is self-adjoint on the
    space, so its -66-eigenspace lies in the 1-dimensional complement of
    the old part: it is the line C f. Every T_l commutes with T_5, so f is
    an eigenform of each, with eigenvalue a(l) since a(1) = 1.
    """

    @pytest.mark.parametrize("degree, index, orders", [
        (6, 0, (1, 1, 1, 1)),
        (8, 0, (2, 2, 1, 1)),
        (8, 1, (1, 2, 1, 2)),
        (8, 2, (1, 1, 1, 3)),
    ])
    def test_eta_quotients_are_cusp_forms(self, degree, index, orders):
        form = REGISTRY[degree]
        _, eq = form.eta_terms[index]
        assert ligozat_orders(eq, form.level) == orders
        assert is_cusp_form_on_gamma0(eq, form.level, form.weight)

    def test_registry_forms_are_these_combinations(self):
        assert [len(REGISTRY[d].eta_terms) for d in (6, 8)] == [1, 3]
        assert [registry_expansion(d, 1).coefficient(1) for d in (6, 8)] == [1, 1]

    @pytest.mark.parametrize("level, weight, dim", [
        (6, 4, 1), (6, 6, 3), (3, 6, 1), (2, 6, 0), (1, 6, 0),
        # the formula against known spaces: Delta, and (eta(t) eta(2t))^8
        (1, 12, 1), (2, 8, 1), (1, 4, 0),
    ])
    def test_dimensions(self, level, weight, dim):
        assert dim_cusp_forms(level, weight) == dim

    def test_degree6_spans_its_space(self):
        form = REGISTRY[6]
        assert dim_cusp_forms(form.level, form.weight) == 1

    def test_level3_old_form(self):
        g_eq = EtaQuotient(((1, 6), (3, 6)))
        assert is_cusp_form_on_gamma0(g_eq, 3, 6)
        g = eta_quotient_series(g_eq, 5)
        assert (g.coefficient(1), g.coefficient(5)) == (1, 6)
        # S_6(SL_2(Z)) = S_6(Gamma_0(2)) = 0, so the old part of
        # S_6(Gamma_0(6)) is g(t), g(2t), and one dimension is left
        assert dim_cusp_forms(1, 6) == dim_cusp_forms(2, 6) == 0
        assert dim_cusp_forms(6, 6) - 2 * dim_cusp_forms(3, 6) == 1

    def test_degree8_is_the_t5_eigenform_past_sturms_bound(self):
        form = REGISTRY[8]
        sturm = form.weight * gamma0_index(form.level) / 12
        assert sturm == 6
        f = registry_expansion(8, 5 * 7)
        assert f.coefficient(5) == -66
        assert [hecke_t(f, 5, form.weight, n) + 66 * f.coefficient(n) for n in range(8)] == [0] * 8
