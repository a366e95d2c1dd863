from fractions import Fraction

import pytest

from klmoments import kloosterman
from klmoments.cyclotomic import as_integer
from klmoments.errors import BudgetExceeded, KlmomentsError, NotReal, ZeroParameter
from klmoments.ffprime import primes_in_range
from klmoments.kloosterman import (
    kl2_count_rows,
    kl2_counts,
    kl2_float,
    kl2_value,
    kln_counts,
    kln_value,
)


class TestKl2Counts:
    def test_p3_a1(self):
        assert kl2_counts(3, 1).counts == (0, 1, 1)

    def test_p3_a2(self):
        assert kl2_counts(3, 2).counts == (2, 0, 0)

    def test_total_is_p_minus_one(self):
        for p in primes_in_range(2, 60):
            for a in range(1, p):
                assert sum(kl2_counts(p, a).counts) == p - 1

    def test_zero_parameter(self):
        with pytest.raises(ZeroParameter):
            kl2_counts(7, 0)

    def test_negation_symmetry(self):
        # x -> -x maps the fiber over t to the fiber over -t, same a
        for p in primes_in_range(3, 100):
            for a in range(1, p):
                c = kl2_counts(p, a).counts
                assert all(c[t] == c[(p - t) % p] for t in range(p))


class TestKl2CountRows:
    def test_rows_equal_brute_force_counts(self):
        for p in primes_in_range(2, 50):
            rows = kl2_count_rows(p, range(1, p))
            assert rows.shape == (p - 1, p)
            for a in range(1, p):
                want = [0] * p
                for x in range(1, p):
                    want[(x + a * pow(x, -1, p)) % p] += 1
                assert rows[a - 1].tolist() == want, (p, a)
                assert list(kl2_counts(p, a).counts) == want, (p, a)

    def test_parameters_reduced_mod_p(self):
        assert kl2_count_rows(7, [3, 10, -4]).tolist() == [list(kl2_counts(7, 3).counts)] * 3

    def test_zero_in_block_rejected(self):
        with pytest.raises(ZeroParameter):
            kl2_count_rows(7, [1, 7, 2])


class TestKl2Value:
    def test_rational_examples(self):
        assert as_integer(kl2_value(3, 1)) == -1
        assert as_integer(kl2_value(3, 2)) == 2

    def test_galois_conjugation_moves_parameter_by_squares(self):
        # rescaling zeta -> zeta^k sends Kl_2(p; a) to Kl_2(p; k^2 a);
        # the naive claim Kl_2(p; a) = Kl_2(p; c^2 a) is false (p = 5: the
        # values at a = 1 and a = 4 differ), so only the conjugation
        # identity is asserted.
        for p in primes_in_range(3, 31):
            for a in range(1, p):
                for k in range(1, p):
                    lhs = kl2_value(p, a).galois(k)
                    rhs = kl2_value(p, (k * k * a) % p)
                    assert lhs == rhs

    def test_square_class_invariance_fails(self):
        assert kl2_value(5, 1) != kl2_value(5, 4)


class TestKlnCounts:
    def test_n2_matches_kl2(self):
        for p in primes_in_range(2, 31):
            for a in range(1, p):
                assert kln_counts(p, a, 2).counts == kl2_counts(p, a).counts

    def test_total_p3_n3(self):
        assert sum(kln_counts(3, 1, 3).counts) == 4

    def test_brute_force_p5_n3(self):
        p = 5
        for a in range(1, p):
            brute = [0] * p
            for x in range(1, p):
                for y in range(1, p):
                    for z in range(1, p):
                        if x * y * z % p == a:
                            brute[(x + y + z) % p] += 1
            assert kln_counts(p, a, 3).counts == tuple(brute)
            assert kln_value(p, a, 3) == kln_counts(p, a, 3).value()

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            kln_counts(211, 1, 10**6)

    def test_budget_guard_on_cached_table(self):
        kln_counts(7, 1, 3)
        with pytest.raises(BudgetExceeded):
            kln_counts(7, 1, 3, budget=10)
        with pytest.raises(BudgetExceeded):
            kln_counts(11, 1, 3, budget=10)

    def test_zero_parameter(self):
        with pytest.raises(ZeroParameter):
            kln_counts(5, 0, 3)

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            kln_counts(5, 1, 1)


class TestKl2Float:
    def test_known_rational_values(self):
        assert kl2_float(3, 1).contains(-1)
        assert kl2_float(3, 2).contains(2)

    def test_imaginary_residue_is_typed_error(self, monkeypatch):
        # an enclosure that excludes the real axis must surface as a
        # KlmomentsError, which the CLI turns into its JSON error object
        monkeypatch.setattr(kloosterman, "enclose_sum", lambda rows, roots: [(1, 2)])
        with pytest.raises(NotReal) as info:
            kl2_float(3, 1)
        assert isinstance(info.value, KlmomentsError)

    def test_interval_paths_agree_enclosing_same_value(self):
        # enclosures at 64 and 128 bits nest around the same value
        for p in primes_in_range(3, 61):
            for a in (1, 2, p - 1):
                coarse = kl2_float(p, a, 64)
                fine = kl2_float(p, a, 128)
                assert coarse.lo <= fine.midpoint <= coarse.hi
                assert fine.radius <= coarse.radius

    def test_weil_bound_all_p_up_to_200(self):
        # |Kl_2(p; a)| <= 2 sqrt(p): check (hi)^2 and (lo)^2 against 4p,
        # allowing only the interval's own width beyond the bound
        for p in primes_in_range(2, 200):
            for a in range(1, p):
                enc = kl2_float(p, a, 64)
                assert enc.hi - enc.lo < Fraction(1, 10**6)
                for endpoint in (enc.lo, enc.hi):
                    slack = endpoint * endpoint - 4 * p
                    assert slack <= Fraction(1, 10**3), (p, a)

    def test_zero_parameter(self):
        with pytest.raises(ZeroParameter):
            kl2_float(5, 0)

    def test_restricted_first_power_sum_is_one(self):
        # sum over a of Kl_2(p; a) = 1 by character orthogonality
        for p in primes_in_range(2, 60):
            lo = hi = Fraction(0)
            for a in range(1, p):
                enc = kl2_float(p, a, 64)
                lo += enc.lo
                hi += enc.hi
            assert lo <= 1 <= hi
