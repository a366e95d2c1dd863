from math import gcd

import pytest
from hypothesis import given, strategies as st

from klmoments.cyclotomic import CycInt, as_integer, enclose_sum
from klmoments.errors import ZeroParameter
from klmoments.ffprime import primes_in_range, primitive_root
from klmoments.kloosterman import kl2_counts


class TestKl2Counts:
    def test_p3_a1(self):
        assert kl2_counts(3, 1) == (0, 1, 1)

    def test_p3_a2(self):
        assert kl2_counts(3, 2) == (2, 0, 0)

    def test_total_is_p_minus_one(self):
        for p in primes_in_range(2, 60):
            for a in range(1, p):
                assert sum(kl2_counts(p, a)) == p - 1

    def test_zero_parameter(self):
        with pytest.raises(ZeroParameter):
            kl2_counts(7, 0)

    def test_negation_symmetry(self):
        # x -> -x maps the fiber over t to the fiber over -t, same a
        for p in primes_in_range(3, 100):
            for a in range(1, p):
                c = kl2_counts(p, a)
                assert all(c[t] == c[(p - t) % p] for t in range(p))

    def test_equal_brute_force_counts(self):
        for p in primes_in_range(2, 50):
            for a in range(1, p):
                want = [0] * p
                for x in range(1, p):
                    want[(x + a * pow(x, -1, p)) % p] += 1
                assert list(kl2_counts(p, a)) == want, (p, a)

    def test_parameters_reduced_mod_p(self):
        assert kl2_counts(7, 10) == kl2_counts(7, -4) == kl2_counts(7, 3)

    @given(st.sampled_from(primes_in_range(3, 500)), st.data())
    def test_counts_are_one_plus_the_quadratic_character(self, p, data):
        # x + r/x = t  <=>  x^2 - t x + r = 0, which has 1 + chi(t^2 - 4r)
        # roots, none of them 0. Both power-sum routes read these counts, so
        # no comparison of the two routes could see a defect in them.
        r = data.draw(st.integers(1, p - 1))
        squares = {x * x % p for x in range(1, p)}

        def chi(v):
            v %= p
            return 0 if v == 0 else 1 if v in squares else -1

        counts = kl2_counts(p, r)
        assert all(counts[t] == 1 + chi(t * t - 4 * r) for t in range(p))


def kl2_element(p, a):
    """Kl_2(p; a) as a cyclotomic integer, sum_t counts[t] zeta**t."""
    return CycInt.from_coeffs(p, kl2_counts(p, a))


class TestKl2Value:
    def test_rational_examples(self):
        assert as_integer(kl2_element(3, 1)) == -1
        assert as_integer(kl2_element(3, 2)) == 2

    def test_galois_conjugation_moves_parameter_by_squares(self):
        # rescaling zeta -> zeta^k sends Kl_2(p; a) to Kl_2(p; k^2 a);
        # the naive claim Kl_2(p; a) = Kl_2(p; c^2 a) is false (p = 5: the
        # values at a = 1 and a = 4 differ), so only the conjugation
        # identity is asserted.
        for p in primes_in_range(3, 31):
            for a in range(1, p):
                for k in range(1, p):
                    lhs = kl2_element(p, a).galois(k)
                    rhs = kl2_element(p, (k * k * a) % p)
                    assert lhs == rhs

    def test_square_class_invariance_fails(self):
        assert kl2_element(5, 1) != kl2_element(5, 4)


def orbit_enclosures(p, precision):
    """{a: (lo, lo + w)} for every a in F_p^*, at scale 2**-precision, from
    enclose_sum over the orbits of 1 and of g: entry i of the orbit of r
    is a = g^(2i) r, and w is the orbit's width."""
    g = primitive_root(p)
    out = {}
    for r in (1, g)[: gcd(2, p - 1)]:
        lows, width = enclose_sum(kl2_counts(p, r), precision)
        for i, lo in enumerate(lows):
            out[pow(g, 2 * i, p) * r % p] = (lo, lo + width)
    assert sorted(out) == list(range(1, p))
    return out


class TestOrbitEnclosures:
    def test_known_rational_values(self):
        # Kl_2(3; 1) = -1 and Kl_2(3; 2) = 2
        enc = orbit_enclosures(3, 64)
        for a, value in ((1, -1), (2, 2)):
            lo, hi = enc[a]
            assert lo <= value << 64 <= hi

    def test_interval_paths_agree_enclosing_same_value(self):
        # enclosures at 64 and 128 bits nest around the same value
        for p in primes_in_range(3, 61):
            coarse, fine = orbit_enclosures(p, 64), orbit_enclosures(p, 128)
            for a in range(1, p):
                (c_lo, c_hi), (f_lo, f_hi) = coarse[a], fine[a]
                assert c_lo << 65 <= f_lo + f_hi <= c_hi << 65
                assert f_hi - f_lo <= (c_hi - c_lo) << 64

    def test_weil_bound_all_p_up_to_200(self):
        # |Kl_2(p; a)| <= 2 sqrt(p): check (hi)^2 and (lo)^2 against 4p,
        # allowing only the interval's own width beyond the bound
        for p in primes_in_range(2, 200):
            for a, (lo, hi) in orbit_enclosures(p, 64).items():
                assert hi - lo < 2**64 // 10**6
                for endpoint in (lo, hi):
                    slack = endpoint * endpoint - (4 * p << 128)
                    assert slack <= 2**128 // 10**3, (p, a)

    def test_restricted_first_power_sum_is_one(self):
        # sum over a of Kl_2(p; a) = 1 by character orthogonality
        for p in primes_in_range(2, 60):
            enc = orbit_enclosures(p, 64).values()
            assert sum(lo for lo, _ in enc) <= 1 << 64 <= sum(hi for _, hi in enc)
