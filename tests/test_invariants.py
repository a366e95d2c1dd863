import pytest

from klmoments.errors import EvenPrime, UnsupportedDegree
from klmoments.ffprime import jacobi_symbol, primes_in_range
from klmoments.invariants import (
    GOOD,
    DetCharacterReport,
    det_character_check,
    dim_m_middle,
    dim_m_shriek,
    dims_table,
    fuwan_det,
    is_good,
    local_inv_inf,
    molien_dim_closed_form,
    molien_dim_series,
    molien_frob_closed_form,
    molien_frob_series,
    render_dims_csv,
    render_dims_text,
    swan_sym,
)

# The reference dimension table for d = 1..13: stable row plus the rows at
# small primes; "g" marks cells where the prime is already good.
REFERENCE_GOOD = [0, 0, 1, 0, 2, 2, 3, 2, 4, 4, 5, 4, 6]
REFERENCE_ROWS = {
    2: ["g", "g", "g", 0, "g", 0, "g", 0, "g", 2, "g", 0, "g"],
    3: ["g", "g", 0, "g", 1, 0, 2, 0, 2, 2, 3, 0, 4],
    5: ["g", "g", "g", "g", 1, "g", 2, "g", 3, 2, 4, 2, 5],
    7: ["g", "g", "g", "g", "g", "g", 2, "g", 3, "g", 4, "g", 5],
    11: ["g", "g", "g", "g", "g", "g", "g", "g", "g", "g", 4, "g", 5],
    13: ["g", "g", "g", "g", "g", "g", "g", "g", "g", "g", "g", "g", 5],
}


class TestDimensions:
    @pytest.mark.parametrize(
        "d,pq,expected",
        [
            (8, 2, 2),
            (7, GOOD, 4),
            (5, 3, 2),
            (6, 5, 3),
            (13, GOOD, 7),
        ],
    )
    def test_shriek(self, d, pq, expected):
        assert dim_m_shriek(d, pq) == expected

    @pytest.mark.parametrize(
        "d,pq,expected",
        [
            (7, GOOD, 3),
            (8, 3, 0),
            (13, 3, 4),
            (2, GOOD, 0),
            (12, 2, 0),
            (10, 2, 2),
        ],
    )
    def test_middle(self, d, pq, expected):
        assert dim_m_middle(d, pq) == expected

    def test_degree_domain(self):
        with pytest.raises(UnsupportedDegree):
            dim_m_middle(0, GOOD)
        with pytest.raises(UnsupportedDegree):
            dim_m_shriek(1, 2)

    def test_good_row_constant_beyond_bound(self):
        for d in range(1, 31):
            for p in primes_in_range(d + 1, 211):
                if p == 2 and d == 1:
                    continue  # p = 2 closed forms are stated for d > 1
                assert dim_m_middle(d, p) == dim_m_middle(d, GOOD)
                assert dim_m_shriek(d, p) == dim_m_shriek(d, GOOD)


class TestDimsTable:
    def test_matches_reference(self):
        table = dims_table()
        assert list(table.good_row) == REFERENCE_GOOD
        for p, row in REFERENCE_ROWS.items():
            got = [
                "g" if v == GOOD else v for v in table.prime_rows[p]
            ]
            assert got == row, f"p = {p}"

    def test_renderers_are_deterministic(self):
        t1, t2 = dims_table(), dims_table()
        assert render_dims_text(t1) == render_dims_text(t2)
        assert render_dims_csv(t1) == render_dims_csv(t2)
        assert render_dims_csv(t1).splitlines()[0] == "d,good,p=2,p=3,p=5,p=7,p=11,p=13"


class TestSwan:
    @pytest.mark.parametrize("d,p,expected", [(7, 2, 4), (8, 2, 2), (6, 5, 3)])
    def test_examples(self, d, p, expected):
        assert swan_sym(d, p) == expected

    def test_equals_shriek_dimension(self):
        for d in range(2, 31):
            for p in primes_in_range(2, 31):
                assert swan_sym(d, p) == dim_m_shriek(d, p)


class TestLocalInvariants:
    def test_example_d8_p3(self):
        inv = local_inv_inf(8, 3)
        assert inv.dimension == 2 and inv.plus == 2 and inv.minus == 0
        assert inv.eigenvalue_magnitude == 81

    def test_odd_degree_vanishes(self):
        for p in (2, 3, 5, 7):
            assert local_inv_inf(7, p).dimension == 0

    def test_example_d6_p2(self):
        inv = local_inv_inf(6, 2)
        assert inv.dimension == 1 and inv.minus == 1 and inv.plus == 0
        assert inv.trace() == -8

    def test_p2_dimension_closed_form(self):
        # dimension formula by d mod 12 must match the mod-24 multiplicities
        for d in range(2, 201, 2):
            inv = local_inv_inf(d, 2)
            if d % 12 in (0, 6, 8):
                assert inv.dimension == d // 12 + 1
            else:
                assert inv.dimension == d // 12

    def test_p2_trace_pattern(self):
        for d in range(2, 201, 2):
            tr = local_inv_inf(d, 2).trace()
            if d % 8 == 0:
                assert tr == 2 ** (d // 2)
            elif d % 8 == 6:
                assert tr == -(2 ** (d // 2))
            else:
                assert tr == 0

    def test_exact_sequence_dimension_identity(self):
        # middle = shriek - dim(unipotent invariants) - dim(infinity invariants)
        for d in range(2, 41):
            for p in primes_in_range(2, 41):
                if p == 2 and d == 1:
                    continue
                assert dim_m_middle(d, p) == (
                    dim_m_shriek(d, p) - 1 - local_inv_inf(d, p).dimension
                ), (d, p)


class TestMolien:
    def test_dim_examples(self):
        series = molien_dim_series(12)
        assert series[0] == 1
        assert series[2] == 0
        assert series[12] == 2

    def test_frob_examples(self):
        series = molien_frob_series(8)
        assert series[0] == 1
        assert series[6] == -1
        assert series[4] == 0

    @pytest.mark.parametrize("series, closed_form", [
        (molien_dim_series, molien_dim_closed_form),
        (molien_frob_series, molien_frob_closed_form),
    ], ids=["dim", "frob"])
    def test_matches_closed_form_to_10000(self, series, closed_form):
        assert series(10_000) == [closed_form(d) for d in range(10_001)]


class TestFuwanDet:
    def test_paper_values_d7(self):
        assert fuwan_det(7, 3) == 1
        assert fuwan_det(7, 5) == -1
        assert fuwan_det(7, 7) == 1

    def test_even_degree_trivial(self):
        for p in (3, 5, 7, 11):
            assert fuwan_det(6, p) == 1
            assert fuwan_det(8, p) == 1

    def test_p2_rejected(self):
        with pytest.raises(EvenPrime):
            fuwan_det(7, 2)

    def test_d3_example(self):
        assert fuwan_det(3, 5) == jacobi_symbol(5, 3)


class TestDetCharacter:
    def test_d5_modulus_15(self):
        report = det_character_check(5, 500)
        assert isinstance(report, DetCharacterReport)
        assert report.modulus == 15
        assert report.passed and report.checked > 0

    def test_d7_modulus_105(self):
        report = det_character_check(7, 500)
        assert report.modulus == 105
        assert report.passed

    def test_even_degree_rejected(self):
        with pytest.raises(UnsupportedDegree):
            det_character_check(6, 100)


class TestGoodness:
    def test_odd_rule_includes_two(self):
        assert is_good(13, 2)
        assert not is_good(13, 13)
        assert is_good(13, 17)

    def test_even_rule(self):
        assert not is_good(4, 2)
        assert is_good(4, 3)
