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
    _rader_cosines,
    _root_radius,
    as_integer,
    unit_root_intervals,
)
from klmoments.errors import AmbiguousRounding, ModulusMismatch, NotRational
from klmoments.ffprime import primes_in_range, primitive_root
from klmoments.kloosterman import _orbit_operand, kl2_counts

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


def naive_enclosure(row, cos_iv):
    """sum_t c_t cos(2 pi t / p) term by term against the half table of
    unit_root_intervals, read at min(t, p - t): the sign of c_t picks the
    endpoint."""
    p = len(row)
    lo = hi = 0
    for t, c in enumerate(row):
        r_lo, r_hi = cos_iv[min(t, p - t)]
        lo += c * (r_lo if c > 0 else r_hi)
        hi += c * (r_hi if c > 0 else r_lo)
    return lo, hi


def enclose_real(x, precision):
    """Integer bounds of Re(x) at scale 2**-precision."""
    return naive_enclosure(x.coeffs, unit_root_intervals(x.p, precision))


def contains_real(enc, value, precision):
    re_lo, re_hi = enc
    return re_lo <= value << precision <= re_hi


class TestApproxComplex:
    # the real part of an element's complex value, enclosed term by term
    # against the cosine table
    def test_zero_has_zero_radius(self):
        assert enclose_real(CycInt.zero(5), 64) == (0, 0)

    def test_contains_minus_one(self):
        enc = enclose_real(CycInt.from_coeffs(3, (0, 1, 1)), 64)
        assert contains_real(enc, -1, 64)
        re_lo, re_hi = enc
        assert re_hi - re_lo < 2**64 // 10**10

    def test_contains_embedded_integer(self):
        for k in (-7, 0, 3):
            enc = enclose_real(CycInt.from_integer(11, k), 80)
            assert contains_real(enc, k, 80)

    def test_rational_values_always_enclosed(self):
        rng = random.Random(17)
        for p in (3, 7, 13):
            for _ in range(10):
                k = rng.randint(-50, 50)
                shift = rng.randint(-5, 5)
                x = CycInt.from_coeffs(p, [k + shift] + [shift] * (p - 1))
                assert as_integer(x) == k
                assert contains_real(enclose_real(x, 64), k, 64)

    def test_negative_coefficients_take_the_opposite_endpoint(self):
        # t = 6 reads the pair of t = 1, since cos(2 pi 6/7) = cos(2 pi/7)
        cos_iv = unit_root_intervals(7, 32)
        lo, hi = naive_enclosure((0, -3, 0, 0, 0, 0, 2), cos_iv)
        assert lo == -3 * cos_iv[1][1] + 2 * cos_iv[1][0]
        assert hi == -3 * cos_iv[1][0] + 2 * cos_iv[1][1]


def assert_naive_within(lows, width, rows, cos_iv):
    """Each low is the naive lower bound of its row, and the naive upper
    bound lies within the orbit's one width of it."""
    assert len(lows) == len(rows)
    for low, row in zip(lows, rows):
        lo, hi = naive_enclosure(row, cos_iv)
        assert low == lo
        assert hi - lo <= width


def correlate(p, c0, operand, precision):
    """The lower bounds E_i = c_0 2**precision + sum_j D_j Q_(i+j) of an
    orbit, as power_sums_float correlates an operand with the root table."""
    q_lo = _rader_cosines(p, precision)
    return [(c0 << precision) + e for e in convolve.cyclic_convolve(q_lo, operand)]


class TestOrbitCorrelation:
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
        cos_iv = unit_root_intervals(p, precision)
        c0, operand = _orbit_operand(p, r)
        lows = correlate(p, c0, operand, precision)
        assert len(lows) == (p - 1) // math.gcd(2, p - 1)
        rows = [kl2_counts(p, pow(g, 2 * i, p) * r % p) for i in range(len(lows))]
        # two units per count off t = 0, where the root is exact
        width = 2 * (p - 1 - c0)
        assert_naive_within(lows, width, rows, cos_iv)
        assert width == 2 * (p - 1 - kl2_counts(p, r)[0])

    def test_any_non_negative_operand(self):
        # entry i encloses sum_t c_t cos(2 pi g^i t / p) for every i below
        # the orbit length, whatever the counts: here c_0 and c_(g^j) for
        # j < L are random, and c is 0 on the rest of the period
        rng = random.Random(23)
        for p in (2, 3, 5, 13, 101):
            cos_iv = unit_root_intervals(p, 64)
            g = primitive_root(p)
            length = (p - 1) // math.gcd(2, p - 1)
            counts = [0] * p
            counts[0] = rng.randrange(10**6)
            for j in range(length):
                counts[pow(g, j, p)] = rng.randrange(10**6)
            folded = [counts[pow(g, j, p)] for j in range(length)]
            lows = correlate(p, counts[0], folded[:1] + folded[:0:-1], 64)
            rows = []
            for i in range(length):
                k = pow(g, i, p)
                dilated = [0] * p
                for t, c in enumerate(counts):
                    dilated[k * t % p] += c
                rows.append(dilated)
            assert_naive_within(lows, 2 * sum(folded), rows, cos_iv)


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
    """cos pairs of 2 pi t / p for t <= p/2, one mpi_cos_sin per t.

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
        (lo, hi), _ = mpmath.libmp.mpi_cos_sin(arg, precision)
        pairs.append(
            (_scaled_bound(lo, precision, False), _scaled_bound(hi, precision, True))
        )
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
        cos_iv = unit_root_intervals(p, precision)
        with mpmath.workprec(256):
            for t, (lo, hi) in enumerate(cos_iv):
                assert isinstance(lo, int) and isinstance(hi, int)
                scaled = mpmath.ldexp(mpmath.cos(2 * mpmath.pi * t / p), precision)
                assert lo <= scaled <= hi, (p, precision, t)
                assert hi - lo <= 64

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 1009])
    def test_holds_t_up_to_half_p(self, p):
        # cos is even: t > p/2 is read at p - t, so the table stops at p // 2
        cos_iv = unit_root_intervals(p, 64)
        assert len(cos_iv) == p // 2 + 1
        assert all(isinstance(lo, int) and isinstance(hi, int) for lo, hi in cos_iv)

    @pytest.mark.parametrize("precision", [64, 128, 256])
    @pytest.mark.parametrize("p", [2, 3, 5, 263, 331])
    def test_equal_to_the_interval_context_construction(self, p, precision):
        # the interval-context construction (one mpi_cos_sin per t) is the
        # reference: every pair of the recurrence lies inside its pair and
        # still brackets the value computed with 256 bits beyond the scale
        cos_iv = unit_root_intervals(p, precision)
        reference = reference_roots(p, precision)
        assert len(cos_iv) == len(reference)
        with mpmath.workprec(precision + 256):
            for t, ((lo, hi), (ref_lo, ref_hi)) in enumerate(zip(cos_iv, reference)):
                exact = mpmath.cos(2 * mpmath.pi * t / p)
                assert ref_lo <= lo <= hi <= ref_hi, (p, precision, t)
                assert lo <= mpmath.ldexp(exact, precision) <= hi, (p, precision, t)

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from(list(primes_in_range(2, 1100))),
        precision=st.integers(8, 256),
    )
    def test_inside_the_reference_and_at_most_two_units_wide(self, p, precision):
        cos_iv = unit_root_intervals(p, precision)
        reference = reference_roots(p, precision)
        assert len(cos_iv) == len(reference)
        for t, ((lo, hi), (ref_lo, ref_hi)) in enumerate(zip(cos_iv, reference)):
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
        lo, hi = unit_root_intervals(p, precision)[t]
        assert ref_lo <= lo <= hi <= ref_hi
        with mpmath.workprec(256):
            assert lo <= mpmath.ldexp(mpmath.cos(2 * mpmath.pi * t / p), precision) <= hi

    def test_closed_form_radius_bounds_the_recurrence(self):
        # the old per-step radius r_(t+1) = ceil(E / 2**g) + 2 of the proof,
        # from the seed's r_1, is the reference: the closed form is at least
        # r_t at every t <= p/2. r_t depends on r_1 and g alone, so each
        # run of the recurrence serves every prime with that r_1 and g
        runs = {}
        for p in primes_in_range(2, 600):
            for precision in range(8, 257):
                g = precision + p.bit_length() + 16
                seed = _cos_sin_seed(p, g + 8)
                (x_lo, x_hi), (y_lo, y_hi) = ((lo >> 8, -(-hi >> 8)) for lo, hi in seed)
                r1 = (x_hi - ((x_lo + x_hi) >> 1)) + (y_hi - ((y_lo + y_hi) >> 1))
                run, one = runs.setdefault((r1, g), [r1]), 1 << g
                while len(run) < p // 2:  # run[t - 1] = r_t
                    r = run[-1]
                    run.append(-(-((one + r) * r1 + (one + r1) * r + r * r1) >> g) + 2)
                radius = _root_radius(p, r1, g, precision)
                assert max(run[: p // 2]) <= radius, (p, precision)

    @pytest.mark.parametrize("r1, g", [(2**12, 31), (1, 19)])
    def test_radius_beyond_its_proof_raises(self, r1, g):
        # p = 1009 at 8 bits: only 3 r r_1 <= 2**g fails, then only
        # 2 r < 2**(g - precision)
        with pytest.raises(AmbiguousRounding, match="root radius"):
            _root_radius(1009, r1, g, 8)
