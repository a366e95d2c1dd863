import tracemalloc

import pytest
from hypothesis import given, strategies as st

from klmoments.errors import EvenInput, EvenModulus
from klmoments.ffprime import (
    Prime,
    double_factorial,
    is_prime,
    jacobi_symbol,
    primes_in_range,
    primitive_root,
)
from klmoments.kloosterman import _inverses


class TestPrimality:
    def test_small_values(self):
        expected = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        assert {n for n in range(50) if is_prime(n)} == expected

    def test_carmichael_and_strong_pseudoprimes(self):
        # 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7
        for n in (561, 1105, 1729, 3215031751, 2**31 - 2):
            assert not is_prime(n)
        for n in (2**31 - 1, 999999937, 67280421310721):
            assert is_prime(n)

    def test_prime_type_validates(self):
        assert Prime(13) == 13
        with pytest.raises(ValueError):
            Prime(15)

    def test_primes_in_range(self):
        assert primes_in_range(10, 30) == [11, 13, 17, 19, 23, 29]
        assert primes_in_range(25, 28) == []
        assert primes_in_range(2, 2) == [2]

    @pytest.mark.parametrize(
        "lo, hi",
        [(0, 60), (1, 2), (2, 30), (0, 1), (1, 1), (30, 10), (3, 2),
         (10**12 - 400, 10**12 + 400)],
    )
    def test_primes_in_range_windows(self, lo, hi):
        assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]

    def test_primes_in_range_sieves_only_the_window(self):
        tracemalloc.start()
        try:
            primes = primes_in_range(2 * 10**7 - 200, 2 * 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert primes == [n for n in range(2 * 10**7 - 200, 2 * 10**7 + 1) if is_prime(n)]
        assert peak < 2**20


class TestModInverse:
    # _inverses is the inverse kl2_counts uses
    def test_identity(self):
        assert _inverses(7)[1] == 1

    def test_example(self):
        assert _inverses(7)[3] == 5

    def test_zero(self):
        # 0 has no inverse; the table holds 0 in its place
        assert _inverses(5)[0] == 0

    def test_involution(self):
        for p in (2, 3, 5, 7, 11, 101):
            inv = _inverses(p)
            for x in range(1, p):
                assert x * inv[x] % p == 1
                assert inv[inv[x]] == x


class TestPrimitiveRoot:
    def test_order_is_p_minus_one_below_2000(self):
        for p in primes_in_range(2, 2000):
            g = primitive_root(p)
            powers = {pow(g, k, p) for k in range(p - 1)}
            assert powers == set(range(1, p)), p

    def test_least_generator(self):
        assert [primitive_root(p) for p in (2, 3, 5, 7, 23, 41)] == [1, 2, 2, 3, 5, 6]


class TestJacobi:
    def test_examples(self):
        assert jacobi_symbol(1, 15) == 1
        assert jacobi_symbol(2, 15) == 1
        assert jacobi_symbol(7, 15) == -1

    def test_even_modulus_rejected(self):
        with pytest.raises(EvenModulus):
            jacobi_symbol(3, 10)
        with pytest.raises(EvenModulus):
            jacobi_symbol(3, 0)

    def test_shared_factor_gives_zero(self):
        assert jacobi_symbol(6, 9) == 0
        assert jacobi_symbol(35, 105) == 0

    @given(
        st.integers(min_value=-(10**4), max_value=10**4),
        st.integers(min_value=-(10**4), max_value=10**4),
        st.integers(min_value=0, max_value=4999),
    )
    def test_multiplicative(self, a, b, k):
        n = 2 * k + 1
        assert jacobi_symbol(a, n) * jacobi_symbol(b, n) == jacobi_symbol(a * b, n)

    def test_prime_modulus_matches_square_oracle(self):
        for p in primes_in_range(3, 500):
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert jacobi_symbol(a, p) == expected, (a, p)


class TestDoubleFactorial:
    @pytest.mark.parametrize("d,value", [(1, 1), (3, 3), (5, 15), (7, 105), (13, 135135)])
    def test_values(self, d, value):
        assert double_factorial(d) == value

    def test_even_rejected(self):
        with pytest.raises(EvenInput):
            double_factorial(6)
        with pytest.raises(EvenInput):
            double_factorial(0)
