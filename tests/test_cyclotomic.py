import random

import pytest
from hypothesis import given, settings, strategies as st

from klmoments import convolve
from klmoments.cyclotomic import CycInt, approx_complex, as_integer
from klmoments.errors import ModulusMismatch, NotRational

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def random_elem(rng, p, span=5):
    return CycInt.from_coeffs(p, [rng.randint(-span, span) for _ in range(p)])


class TestCanonicalForm:
    def test_leading_coefficient_zero(self):
        x = CycInt.from_coeffs(5, (3, 1, 4, 1, 5))
        assert x.coeffs[0] == 0

    def test_constant_shift_invariance(self):
        rng = random.Random(1)
        for p in (3, 7, 13):
            for _ in range(20):
                x = random_elem(rng, p)
                k = rng.randint(-9, 9)
                shifted = CycInt.from_coeffs(p, [c + k for c in x.coeffs])
                assert shifted == x

    def test_zeta_plus_zeta_squared(self):
        s = CycInt.zeta_power(3, 1) + CycInt.zeta_power(3, 2)
        assert s.coeffs == (0, 1, 1)

    def test_additive_identity(self):
        x = CycInt.from_coeffs(7, range(7))
        assert x + CycInt.zero(7) == x

    def test_vanishing_full_sum(self):
        ones = CycInt.from_coeffs(3, (1, 1, 1))
        z = CycInt.zeta_power(3, 1)
        assert ones + z == z


class TestMultiplication:
    def test_exponent_arithmetic(self):
        for p in (3, 7):
            z = CycInt.zeta_power(p, 1)
            zinv = CycInt.zeta_power(p, p - 1)
            assert z * zinv == CycInt.from_integer(p, 1)

    def test_multiplicative_identity(self):
        x = CycInt.from_coeffs(5, (0, 2, -1, 7, 0))
        assert x * CycInt.from_integer(5, 1) == x

    def test_square_of_zeta_plus_zeta2_is_one(self):
        # (zeta + zeta^2)^2 = zeta^2 + 2 + zeta = -1 + 2 = 1 at p = 3
        x = CycInt.zeta_power(3, 1) + CycInt.zeta_power(3, 2)
        assert as_integer(x * x) == 1

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatch):
            CycInt.zeta_power(3, 1) * CycInt.zeta_power(5, 1)
        with pytest.raises(ModulusMismatch):
            CycInt.zeta_power(3, 1) + CycInt.zeta_power(5, 1)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_commutative_associative(self, data):
        p = data.draw(st.sampled_from(SMALL_PRIMES))
        coeff = st.integers(min_value=-5, max_value=5)
        vec = st.lists(coeff, min_size=p, max_size=p)
        x = CycInt.from_coeffs(p, data.draw(vec))
        y = CycInt.from_coeffs(p, data.draw(vec))
        z = CycInt.from_coeffs(p, data.draw(vec))
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(3)
        x = random_elem(rng, 7)
        acc = CycInt.from_integer(7, 1)
        for e in range(6):
            assert x**e == acc
            acc = acc * x

    def test_galois_is_ring_automorphism(self):
        rng = random.Random(5)
        for p in (3, 5, 7, 11, 13):
            for _ in range(5):
                x, y = random_elem(rng, p), random_elem(rng, p)
                for k in range(1, p):
                    assert (x * y).galois(k) == x.galois(k) * y.galois(k)
                    assert (x + y).galois(k) == x.galois(k) + y.galois(k)

    def test_big_coefficients_take_split_path(self):
        # force coefficients far beyond int64
        rng = random.Random(9)
        p = 11
        x = CycInt.from_coeffs(p, [rng.randrange(-(10**25), 10**25) for _ in range(p)])
        y = CycInt.from_coeffs(p, [rng.randrange(-(10**25), 10**25) for _ in range(p)])
        direct = [0] * p
        for i, a in enumerate(x.coeffs):
            for j, b in enumerate(y.coeffs):
                direct[(i + j) % p] += a * b
        expected = CycInt.from_coeffs(p, direct)
        assert x * y == expected


class TestNttBackend:
    def test_matches_schoolbook(self):
        rng = random.Random(11)
        for p in (3, 13, 61, 127):
            for scale in (5, 10**9, 10**22):
                a = [rng.randrange(-scale, scale) for _ in range(p)]
                b = [rng.randrange(-scale, scale) for _ in range(p)]
                assert convolve.cyclic_convolve(a, b) == convolve.cyclic_convolve_ntt(a, b)


class TestAsInteger:
    def test_examples(self):
        assert as_integer(CycInt.from_coeffs(3, (0, 1, 1))) == -1
        assert as_integer(CycInt.zero(3)) == 0
        assert as_integer(CycInt.from_integer(7, 42)) == 42

    def test_irrational_rejected(self):
        with pytest.raises(NotRational):
            as_integer(CycInt.from_coeffs(3, (0, 1, 0)))


class TestApproxComplex:
    def test_zero_has_zero_radius(self):
        enc = approx_complex(CycInt.zero(5), 64)
        assert enc.re_mid == 0 and enc.im_mid == 0 and enc.radius == 0

    def test_contains_minus_one(self):
        enc = approx_complex(CycInt.from_coeffs(3, (0, 1, 1)), 64)
        assert enc.contains_real(-1)
        assert enc.radius < 1e-10

    def test_contains_embedded_integer(self):
        for k in (-7, 0, 3):
            enc = approx_complex(CycInt.from_integer(11, k), 80)
            assert enc.contains_real(k)

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            approx_complex(CycInt.zero(3), 32)

    def test_rational_values_always_enclosed(self):
        rng = random.Random(17)
        for p in (3, 7, 13):
            for _ in range(10):
                k = rng.randint(-50, 50)
                shift = rng.randint(-5, 5)
                x = CycInt.from_coeffs(p, [k + shift] + [shift] * (p - 1))
                assert as_integer(x) == k
                assert approx_complex(x, 64).contains_real(k)
