import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from klmoments import convolve
from klmoments.cyclotomic import (
    CycInt,
    _cos_sin_seed,
    as_integer,
    enclose_sum,
    unit_root_intervals,
)
from klmoments.errors import ModulusMismatch, NotRational
from klmoments.ffprime import primes_in_range, primitive_root
from klmoments.kloosterman import kl2_counts

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
        # coefficients far beyond int64: slots wider than any struct size
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


# each signed slot width's edges, 2**(8k - 1) and one less, k = 1..8
SLOT_EDGES = [
    sign * (2 ** (8 * k - 1) - less)
    for k in range(1, 9)
    for less in (0, 1)
    for sign in (1, -1)
]
KRONECKER_ENTRIES = st.one_of(
    st.integers(-(2**200), 2**200),
    st.integers(-300, 300),
    st.sampled_from(SLOT_EDGES),
)


def naive_convolution(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestConvolveExact:
    @given(
        a=st.lists(KRONECKER_ENTRIES, min_size=1, max_size=40),
        b=st.lists(KRONECKER_ENTRIES, min_size=1, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_naive_double_loop(self, a, b):
        assert convolve.convolve_exact(a, b) == naive_convolution(a, b)
        # a square packs its one operand once
        assert convolve.convolve_exact(a, a) == naive_convolution(a, a)

    @pytest.mark.parametrize("edge", SLOT_EDGES)
    def test_slot_edges(self, edge):
        # the bound lands exactly on the edge, then one step past it
        for a, b in (([edge], [1]), ([edge, -edge, 1], [1, 1]), ([edge], [edge, 3])):
            assert convolve.convolve_exact(a, b) == naive_convolution(a, b)

    def test_zero_operand_and_empty(self):
        assert convolve.convolve_exact([2**300, -5], [0, 0, 0]) == [0] * 4
        assert convolve.convolve_exact([], [1, 2]) == []

    def test_cyclic_matches_schoolbook(self):
        # scale 10**22 needs slots wider than 8 bytes
        rng = random.Random(11)
        for p in (3, 13, 61, 127):
            for scale in (5, 10**9, 10**22):
                a = [rng.randrange(-scale, scale) for _ in range(p)]
                b = [rng.randrange(-scale, scale) for _ in range(p)]
                folded = [0] * p
                for t, c in enumerate(naive_convolution(a, b)):
                    folded[t % p] += c
                assert convolve.cyclic_convolve(a, b) == folded

    @given(
        v=st.lists(KRONECKER_ENTRIES, min_size=1, max_size=40),
        k=st.integers(1, 5),
        slack=st.integers(0, 2**70),
    )
    @settings(max_examples=100, deadline=None)
    def test_cyclic_powers_equal_repeated_convolution(self, v, k, slack):
        # the widest entry of the chain is the tightest admissible bound
        chain = [v]
        for _ in range(k - 1):
            chain.append(convolve.cyclic_convolve(chain[-1], v))
        bound = max(abs(x) for power in chain for x in power)
        assert convolve.cyclic_powers(v, k, bound) == chain
        assert convolve.cyclic_powers(v, k, bound + slack) == chain


class TestAsInteger:
    def test_examples(self):
        assert as_integer(CycInt.from_coeffs(3, (0, 1, 1))) == -1
        assert as_integer(CycInt.zero(3)) == 0
        assert as_integer(CycInt.from_integer(7, 42)) == 42

    def test_irrational_rejected(self):
        with pytest.raises(NotRational):
            as_integer(CycInt.from_coeffs(3, (0, 1, 0)))


def naive_enclosure(row, roots):
    """sum_t c_t r_t term by term: the sign of c_t picks the endpoint."""
    lo = hi = 0
    for c, (r_lo, r_hi) in zip(row, roots):
        lo += c * (r_lo if c > 0 else r_hi)
        hi += c * (r_hi if c > 0 else r_lo)
    return lo, hi


def enclose_complex(x, precision):
    """Integer bounds of Re(x) and Im(x) at scale 2**-precision."""
    cos_iv, sin_iv = unit_root_intervals(x.p, precision)
    return naive_enclosure(x.coeffs, cos_iv), naive_enclosure(x.coeffs, sin_iv)


def contains_real(enc, value, precision):
    (re_lo, re_hi), (im_lo, im_hi) = enc
    return re_lo <= value << precision <= re_hi and im_lo <= 0 <= im_hi


class TestApproxComplex:
    # the complex value of an element, enclosed term by term against the
    # cosine and the sine table
    def test_zero_has_zero_radius(self):
        assert enclose_complex(CycInt.zero(5), 64) == ((0, 0), (0, 0))

    def test_contains_minus_one(self):
        enc = enclose_complex(CycInt.from_coeffs(3, (0, 1, 1)), 64)
        assert contains_real(enc, -1, 64)
        (re_lo, re_hi), (im_lo, im_hi) = enc
        assert max(re_hi - re_lo, im_hi - im_lo) < 2**64 // 10**10

    def test_contains_embedded_integer(self):
        for k in (-7, 0, 3):
            enc = enclose_complex(CycInt.from_integer(11, k), 80)
            assert contains_real(enc, k, 80)

    def test_rational_values_always_enclosed(self):
        rng = random.Random(17)
        for p in (3, 7, 13):
            for _ in range(10):
                k = rng.randint(-50, 50)
                shift = rng.randint(-5, 5)
                x = CycInt.from_coeffs(p, [k + shift] + [shift] * (p - 1))
                assert as_integer(x) == k
                assert contains_real(enclose_complex(x, 64), k, 64)

    def test_negative_coefficients_take_the_opposite_endpoint(self):
        cos_iv, _ = unit_root_intervals(7, 32)
        lo, hi = naive_enclosure((0, -3, 0, 0, 0, 0, 2), cos_iv)
        assert lo == -3 * cos_iv[1][1] + 2 * cos_iv[6][0]
        assert hi == -3 * cos_iv[1][0] + 2 * cos_iv[6][1]


class TestEncloseSum:
    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from(list(primes_in_range(2, 600))),
        precision=st.integers(8, 256),
        non_residue=st.booleans(),
    )
    def test_orbit_equals_per_a_naive_sum(self, p, precision, non_residue):
        # entry i of the orbit of r encloses Kl_2(p; g^(2i) r); the per-a
        # reference counts that a itself and sums c_t r_t term by term
        g = primitive_root(p)
        r = g if non_residue else 1
        cos_iv, _ = unit_root_intervals(p, precision)
        orbit = enclose_sum(kl2_counts(p, r), precision)
        assert len(orbit) == (p - 1) // math.gcd(2, p - 1)
        for i, enclosure in enumerate(orbit):
            a = pow(g, 2 * i, p) * r % p
            assert enclosure == naive_enclosure(kl2_counts(p, a), cos_iv), (p, a)

    def test_any_non_negative_counts(self):
        # entry i encloses sum_t c_t cos(2 pi g^i t / p) for every i below
        # the orbit length, whatever the counts
        rng = random.Random(23)
        for p in (2, 3, 5, 13, 101):
            cos_iv, _ = unit_root_intervals(p, 64)
            g = primitive_root(p)
            counts = [rng.randrange(10**6) for _ in range(p)]
            for i, enclosure in enumerate(enclose_sum(counts, 64)):
                k = pow(g, i, p)
                dilated = [0] * p
                for t, c in enumerate(counts):
                    dilated[k * t % p] += c
                assert enclosure == naive_enclosure(dilated, cos_iv), (p, i)

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            enclose_sum([0, 1, -1, 2, 0], 64)

    def test_row_length_must_match_the_table(self):
        # the length of the counts is the prime of the root table
        with pytest.raises(ValueError):
            enclose_sum([1, 2, 3, 4], 64)


def _scaled_bound(raw, precision, upper):
    """An mpf endpoint times 2**precision, rounded outward to an int."""
    sign, man, exp, _ = raw
    if man == 0:
        if exp == 0:
            return 0
        raise OverflowError("non-finite interval endpoint")
    value = -int(man) if sign else int(man)
    shift = exp + precision
    if shift >= 0:
        return value << shift
    # >> floors; the upper bound rounds up as the negated floor of -value
    return -(-value >> -shift) if upper else value >> -shift


def reference_roots(p, precision):
    """cos and sin pairs of 2 pi t / p for t <= p/2, one mpi_cos_sin per t.

    The argument is built in mpmath's iv context, which rounds t and p
    outward to the working precision; the endpoints are scaled to ints at
    2**-precision by _scaled_bound.
    """
    old, mpmath.iv.prec = mpmath.iv.prec, precision
    try:
        args = [(2 * mpmath.iv.pi * t / p)._mpi_ for t in range(p // 2 + 1)]
    finally:
        mpmath.iv.prec = old
    pairs = []
    for arg in args:
        pairs.append(tuple(
            (_scaled_bound(lo, precision, False), _scaled_bound(hi, precision, True))
            for lo, hi in mpmath.libmp.mpi_cos_sin(arg, precision)
        ))
    return pairs


class TestCosSinSeed:
    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from(list(primes_in_range(2, 5000))), w=st.integers(8, 600))
    def test_brackets_mpmath_and_at_most_eight_units_wide(self, p, w):
        # the integer series against mpmath's cos and sin of 2 pi / p,
        # computed 64 bits beyond the seed's scale 2**-w
        seed = _cos_sin_seed(p, w)
        with mpmath.workprec(w + 64):
            arg = 2 * mpmath.pi / p
            values = (mpmath.cos(arg), mpmath.sin(arg))
            for (lo, hi), exact in zip(seed, values):
                assert isinstance(lo, int) and isinstance(hi, int)
                assert lo <= mpmath.ldexp(exact, w) <= hi, (p, w)
                assert hi - lo <= 8, (p, w)

    @pytest.mark.parametrize("w", [8, 64, 600])
    def test_clamp_makes_cos_pi_exact_at_the_lower_end(self, w):
        # at p = 2 the series' lower bound of cos pi = -1 falls below -1
        (c_lo, c_hi), (s_lo, s_hi) = _cos_sin_seed(2, w)
        assert c_lo == -(1 << w) <= c_hi and s_lo <= 0 <= s_hi


class TestUnitRootIntervals:
    @pytest.mark.parametrize(
        "p, precision",
        [(2, 8), (2, 64), (3, 8), (3, 64), (53, 8), (53, 64), (1009, 64), (13, 200)],
    )
    def test_scaled_endpoints_bracket_256_bit_values(self, p, precision):
        cos_iv, sin_iv = unit_root_intervals(p, precision)
        with mpmath.workprec(256):
            for t in range(p):
                arg = 2 * mpmath.pi * t / p
                pairs = ((cos_iv[t], mpmath.cos(arg)), (sin_iv[t], mpmath.sin(arg)))
                for (lo, hi), exact in pairs:
                    assert isinstance(lo, int) and isinstance(hi, int)
                    scaled = mpmath.ldexp(exact, precision)
                    assert lo <= scaled <= hi, (p, precision, t)
                    assert hi - lo <= 64

    @pytest.mark.parametrize("precision", [64, 128, 256])
    @pytest.mark.parametrize("p", [2, 3, 5, 263, 331])
    def test_equal_to_the_interval_context_construction(self, p, precision):
        # the interval-context construction (one mpi_cos_sin per t) is the
        # reference: every pair of the recurrence lies inside its pair and
        # still brackets the value computed with 256 bits beyond the scale
        cos_iv, sin_iv = unit_root_intervals(p, precision)
        with mpmath.workprec(precision + 256):
            for t, (c_ref, s_ref) in enumerate(reference_roots(p, precision)):
                arg = 2 * mpmath.pi * t / p
                pairs = (
                    (cos_iv[t], c_ref, mpmath.cos(arg)),
                    (sin_iv[t], s_ref, mpmath.sin(arg)),
                )
                for (lo, hi), (ref_lo, ref_hi), exact in pairs:
                    assert ref_lo <= lo <= hi <= ref_hi, (p, precision, t)
                    assert lo <= mpmath.ldexp(exact, precision) <= hi, (p, precision, t)

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from(list(primes_in_range(2, 1100))),
        precision=st.integers(8, 256),
    )
    def test_inside_the_reference_and_at_most_two_units_wide(self, p, precision):
        cos_iv, sin_iv = unit_root_intervals(p, precision)
        for t, (c_ref, s_ref) in enumerate(reference_roots(p, precision)):
            for (lo, hi), (ref_lo, ref_hi) in ((cos_iv[t], c_ref), (sin_iv[t], s_ref)):
                assert ref_lo <= lo <= hi <= ref_hi, (p, precision, t)
                assert hi - lo <= 2, (p, precision, t)

    @pytest.mark.parametrize("t", [252, 253])
    def test_endpoint_below_the_scale_is_rounded_outward(self, t):
        # cos(2 pi t / p) on either side of t = p/4 is tiny (positive at 252,
        # negative at 253): mpmath's endpoint has an exponent below
        # -precision, so scaling it leaves a fraction that _scaled_bound
        # must floor for lo and ceil for hi; the table's pair lies inside
        p, precision = 1009, 64
        old, mpmath.iv.prec = mpmath.iv.prec, precision
        try:
            lo_raw, hi_raw = mpmath.iv.cos(2 * mpmath.iv.pi * t / p)._mpi_
        finally:
            mpmath.iv.prec = old
        assert lo_raw[2] + precision < 0 and hi_raw[2] + precision < 0

        def scaled_raw(raw):
            sign, man, exp, _ = raw
            value = Fraction(int(man)) * Fraction(2) ** (exp + precision)
            return -value if sign else value

        ref_lo = _scaled_bound(lo_raw, precision, upper=False)
        ref_hi = _scaled_bound(hi_raw, precision, upper=True)
        assert ref_lo < scaled_raw(lo_raw) and scaled_raw(hi_raw) < ref_hi
        assert ref_lo == math.floor(scaled_raw(lo_raw))
        assert ref_hi == math.ceil(scaled_raw(hi_raw))
        lo, hi = unit_root_intervals(p, precision)[0][t]
        assert ref_lo <= lo <= hi <= ref_hi
        with mpmath.workprec(256):
            assert lo <= mpmath.ldexp(mpmath.cos(2 * mpmath.pi * t / p), precision) <= hi
