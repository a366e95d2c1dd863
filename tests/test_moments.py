import pytest
from hypothesis import given, settings, strategies as st

from klmoments import evans, moments
from klmoments.convolve import cyclic_convolve
from klmoments.cyclotomic import CycInt, as_integer
from klmoments.errors import (
    AmbiguousRounding,
    ExactLimitExceeded,
    IdentityFailure,
    MissingPowerSum,
    WrongConvention,
)
from klmoments.evans import MomentEngine
from klmoments.ffprime import primes_in_range
from klmoments.kloosterman import kl2_counts
from klmoments.moments import (
    COMPLETED,
    RESTRICTED,
    completed_congruence_class,
    float_precision,
    power_sums_exact,
    power_sums_float,
    power_sums_float_auto,
    sym_moment_appendix8,
    sym_moment_direct,
    sym_moment_girard,
)


def power_sums_per_a(p, nmax):
    """Reference S_1..S_nmax: cumulative products of every Kl_2(p; a).

    Each partial sum over a is Galois-stable, so as_integer doubles as a
    check on the ring arithmetic.
    """
    totals = [CycInt.zero(p) for _ in range(nmax + 1)]
    for a in range(1, p):
        base = CycInt.from_coeffs(p, kl2_counts(p, a))
        cum = base
        totals[1] = totals[1] + cum
        for n in range(2, nmax + 1):
            cum = cum * base
            totals[n] = totals[n] + cum
    return {n: as_integer(totals[n]) for n in range(1, nmax + 1)}


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestGaloisOrbits:
    @given(
        p=st.sampled_from(primes_in_range(2, 200)),
        nmax=st.integers(min_value=1, max_value=13),
    )
    @settings(max_examples=40, deadline=None)
    def test_orbit_form_equals_per_a_oracle(self, p, nmax):
        assert power_sums_exact(p, nmax).values == power_sums_per_a(p, nmax)

    def test_p2_single_value(self):
        # Kl_2(2; 1) = psi(0) = 1: one orbit, no halving
        assert power_sums_exact(2, 6).values == {n: 1 for n in range(1, 7)}

    def test_p3_closed_form(self):
        # Kl_2(3; 1) = -1 and Kl_2(3; 2) = 2
        values = power_sums_exact(3, 8).values
        assert values == {n: 2**n + (-1) ** n for n in range(1, 9)}

    def test_p5_lucas_closed_form(self):
        # Kl_2(5; a) = phi^-2, phi^2 on the squares and -2 phi, -2 psi on
        # the non-squares, so S_n = L_2n + (-2)^n L_n
        values = power_sums_exact(5, 10).values
        assert values == {n: lucas(2 * n) + (-2) ** n * lucas(n) for n in range(1, 11)}

    def test_legendre_powers_within_weil_width(self):
        # the slot width of the exact chain: every entry of v^(*k), v the
        # Legendre vector of the real counts, is within (4p)^(k/2)
        for p in primes_in_range(2, 300):
            for r in moments._orbit_representatives(p):
                v = [c - 1 for c in kl2_counts(p, r)]
                power = v
                for k in range(1, 8):
                    assert max(x * x for x in power) <= (4 * p) ** k, (p, r, k)
                    power = cyclic_convolve(power, v)

    def test_products_stop_at_half_the_chain(self, monkeypatch):
        # v^(*1)..v^(*h) with h = ceil(nmax / 2) per orbit; the rest is
        # paired, and no CycInt product is formed
        asked = []
        powers = moments.cyclic_powers
        monkeypatch.setattr(
            moments, "cyclic_powers", lambda v, k, bound: asked.append(k) or powers(v, k, bound)
        )

        def no_product(x, y):
            raise AssertionError("the exact route formed a CycInt product")

        monkeypatch.setattr(CycInt, "__mul__", no_product)
        power_sums_exact(13, 8)
        assert asked == [4, 4]  # two orbits, v^(*1)..v^(*4)
        asked.clear()
        power_sums_exact(13, 6)
        assert asked == [3, 3]

    @pytest.mark.parametrize("p", [5, 7, 13, 31])
    def test_corrupted_chain_fails_parity(self, monkeypatch, p):
        # moving one unit of the non-residue's count from exponent 0 to
        # exponent 1 shifts its trace by -p, so the orbit traces sum odd
        def corrupted(q, a):
            counts = list(kl2_counts(q, a))
            if a != 1:
                counts[0] -= 1
                counts[1] += 1
            return tuple(counts)

        monkeypatch.setattr(moments, "kl2_counts", corrupted)
        with pytest.raises(IdentityFailure, match="not a multiple of 2"):
            power_sums_exact(p, 4)

    @pytest.mark.parametrize("p", [5, 7, 13, 31])
    def test_same_orbit_twice_fails_identities(self, monkeypatch, p):
        # both chains on the square class: the traces stay even, and
        # S_1 = 1 catches it
        monkeypatch.setattr(moments, "kl2_counts", lambda q, a: kl2_counts(q, 1))
        with pytest.raises(IdentityFailure, match="theory forces"):
            power_sums_exact(p, 4)

    def test_wrong_s2_fails_identities(self, monkeypatch):
        # products off by the group-ring 1 shift each trace by -p: S_1 and
        # the parity hold, S_2 = p^2 - p - 1 breaks
        powers = moments.cyclic_powers

        def off_by_one(v, k, bound):
            chain = powers(v, k, bound)
            return chain[:1] + [[y[0] - 1, *y[1:]] for y in chain[1:]]

        monkeypatch.setattr(moments, "cyclic_powers", off_by_one)
        with pytest.raises(IdentityFailure, match=r"S_2\(7\)"):
            # nmax 4 forms v^(*2) by a product; at nmax 2 the pairing needs none
            power_sums_exact(7, 4)

    def test_broken_congruence_fails_identities(self, monkeypatch):
        # S_3 one off: the parity, S_1, S_2 and the Weil bound still hold,
        # the completed congruence mod p^2 breaks
        orbit_sum = moments._orbit_sum
        monkeypatch.setattr(
            moments, "_orbit_sum",
            lambda e, traces, what: orbit_sum(e, traces, what) + what.startswith("S_3("),
        )
        with pytest.raises(IdentityFailure, match=r"S'_3\(7\)"):
            power_sums_exact(7, 4)

    def test_weil_bound_checked(self):
        # |S_4(13)| <= (p - 1)(2 sqrt p)^4 = 12 * 52^2 = 32448, with equality allowed
        values = {1: 1, 2: 13**2 - 13 - 1}
        moments._check_power_sums(13, {**values, 4: -32448})
        for s4 in (32449, -32449):
            with pytest.raises(IdentityFailure, match=r"S_4\(13\).*Weil"):
                moments._check_power_sums(13, {**values, 4: s4})


class TestPowerSumsExact:
    def test_p3(self):
        t = power_sums_exact(3, 2)
        assert t.values == {1: 1, 2: 5}

    def test_restricted_s1_is_one(self, sum_tables_200):
        assert all(t.values[1] == 1 for t in sum_tables_200.values())

    def test_restricted_s2_closed_form(self):
        for p in primes_in_range(2, 50):
            t = power_sums_exact(p, 2)
            assert t.values[2] == p * p - p - 1

    def test_completed_shift(self):
        t = power_sums_exact(3, 2, COMPLETED)
        assert t.values == {1: 0, 2: 6}
        assert t.values[2] % 9 == (-3) % 9

    def test_completed_congruence(self, sum_tables_200):
        for p, t in sum_tables_200.items():
            completed = t.to_convention(COMPLETED)
            for n, v in completed.values.items():
                assert v % p**2 == completed_congruence_class(n, p), (p, n)

    def test_exact_limit(self):
        with pytest.raises(ExactLimitExceeded):
            power_sums_exact(263, 2, exact_limit=257)

    def test_character_independence(self):
        # replacing psi by psi(k .) permutes each Kl_2 by a Galois map and
        # leaves every power sum unchanged
        for p in (3, 5, 7, 11, 13):
            base = power_sums_exact(p, 5)
            for k in range(2, p):
                totals = {n: CycInt.zero(p) for n in range(1, 6)}
                for a in range(1, p):
                    kl = CycInt.from_coeffs(p, kl2_counts(p, a)).galois(k)
                    cum = kl
                    totals[1] = totals[1] + cum
                    for n in range(2, 6):
                        cum = cum * kl
                        totals[n] = totals[n] + cum
                assert {n: as_integer(v) for n, v in totals.items()} == base.values


class TestTableConventions:
    def test_round_trip(self):
        t = power_sums_exact(5, 4)
        assert t.to_convention(COMPLETED).to_convention(RESTRICTED).values == t.values

    def test_missing_power_sum(self):
        t = power_sums_exact(5, 2)
        with pytest.raises(MissingPowerSum):
            t[3]

    def test_unknown_convention(self):
        with pytest.raises(WrongConvention):
            power_sums_exact(5, 2).to_convention("other")


class TestPowerSumsFloat:
    def test_p3_n2(self):
        t = power_sums_float(3, 2, 64)
        assert t.values[2] == 6

    @pytest.mark.parametrize("nmax", [1, 2, 5, 8, 13])
    def test_derived_precision_agrees_with_exact_to_200(self, sum_tables_200, nmax):
        for p, table in sum_tables_200.items():
            flt, used = power_sums_float_auto(p, nmax)
            assert used == float_precision(p, nmax)
            completed = table.to_convention(COMPLETED).values
            assert flt.values == {n: completed[n] for n in range(1, nmax + 1)}

    def test_insufficient_precision_is_ambiguous(self):
        # S'_16(101) needs far more than 53 bits: the enclosure is wider
        # than p^2 and the congruence class cannot be pinned
        with pytest.raises(AmbiguousRounding):
            power_sums_float(101, 16, 53)

    def test_derived_precision_pins_101_16(self):
        flt, used = power_sums_float_auto(101, 16)
        assert used == 73
        assert flt.values == power_sums_exact(101, 16, COMPLETED).values

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from(primes_in_range(2, 200)),
        nmax=st.integers(1, 6),
        precision=st.integers(8, 64),
    )
    def test_enclosure_contains_the_exact_value(self, p, nmax, precision):
        # at any precision the certified enclosure either pins the exact
        # table or refuses; it never rounds to a wrong integer
        try:
            flt = power_sums_float(p, nmax, precision)
        except AmbiguousRounding:
            return
        assert flt.values == power_sums_exact(p, nmax, COMPLETED).values

    @settings(max_examples=200, deadline=None)
    @given(
        ends=st.lists(st.integers(-40, 40), min_size=2, max_size=2).map(sorted),
        nmax=st.integers(1, 8),
    )
    def test_interval_powers_are_the_exact_range(self, ends, nmax):
        # one interval, which may straddle 0 or be a single point: each
        # bound is the brute-force min or max of x**n over its integers
        lo, hi = ends
        sum_lo, sum_hi = moments._interval_power_sums([(lo, hi)], nmax)
        for n in range(1, nmax + 1):
            powers = [x**n for x in range(lo, hi + 1)]
            assert (sum_lo[n], sum_hi[n]) == (min(powers), max(powers))

    def test_interval_powers_add_over_intervals(self):
        sum_lo, sum_hi = moments._interval_power_sums([(-3, 2), (-5, -4), (1, 2)], 3)
        assert sum_lo[1:] == [-3 - 5 + 1, 0 + 16 + 1, -27 - 125 + 1]
        assert sum_hi[1:] == [2 - 4 + 2, 9 + 25 + 4, 8 - 64 + 8]

    def test_identities_checked_on_fresh_tables(self, monkeypatch):
        # integer stand-ins for Kl_2(5; a) whose completed sums meet the
        # mod-25 congruence, with S_1 = 1 but S_2 = 69 instead of 19; with
        # g = 2 the orbit of 1 is a = 1, 4 and the orbit of 2 is a = 2, 3
        fake = {kl2_counts(5, 1): [7, 0], kl2_counts(5, 2): [-4, -2]}
        monkeypatch.setattr(
            moments, "enclose_sum",
            lambda counts, precision: [(v << precision,) * 2 for v in fake[counts]],
        )
        with pytest.raises(IdentityFailure, match="S_2"):
            power_sums_float(5, 2, 64)


class TestGirard:
    def test_degree_zero(self, sum_tables_200):
        for p, t in sum_tables_200.items():
            assert sym_moment_girard(p, 0, t).value == p - 1

    def test_degrees_one_and_two(self, sum_tables_200):
        for p, t in sum_tables_200.items():
            assert sym_moment_girard(p, 1, t).value == -1
            assert sym_moment_girard(p, 2, t).value == -1

    def test_degree_four(self, sum_tables_200):
        for p, t in sum_tables_200.items():
            if p > 2:
                assert sym_moment_girard(p, 4, t).value == -1 - p * p

    def test_needs_restricted(self):
        t = power_sums_exact(5, 4, COMPLETED)
        with pytest.raises(WrongConvention):
            sym_moment_girard(5, 4, t)

    def test_missing_sum(self):
        t = power_sums_exact(5, 2)
        with pytest.raises(MissingPowerSum):
            sym_moment_girard(5, 6, t)


class TestDirectRecurrence:
    def test_hand_computed_p3_d2(self):
        # s(a=1) = 1 gives h2 = -2, s(a=2) = -2 gives h2 = 1; total -1
        assert sym_moment_direct(3, 2).value == -1

    def test_degree_zero(self):
        assert sym_moment_direct(7, 0).value == 6

    def test_agrees_with_girard(self):
        for p in primes_in_range(2, 31):
            table = power_sums_exact(p, 8)
            for d in range(9):
                assert (
                    sym_moment_direct(p, d).value
                    == sym_moment_girard(p, d, table).value
                )

    def test_exact_limit(self):
        with pytest.raises(ExactLimitExceeded):
            sym_moment_direct(263, 2)

    @settings(max_examples=10, deadline=None)
    @given(p=st.sampled_from(primes_in_range(2, 300)), d=st.integers(0, 12))
    def test_agrees_with_girard_to_300(self, p, d):
        # beyond acceptance 03's grid (p <= 97, d <= 8)
        table = power_sums_exact(p, max(d, 1), exact_limit=p)
        assert (
            sym_moment_direct(p, d, exact_limit=p).value
            == sym_moment_girard(p, d, table).value
        )

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_unstable_sum_fails_rationality(self, monkeypatch, d):
        # one unit of Kl_2(7; 3)'s count moved from exponent 1 to 2: that
        # term is no conjugate of the others, so the sum over a is irrational
        def corrupted(q, a):
            counts = list(kl2_counts(q, a))
            if a == 3:
                counts[1] -= 1
                counts[2] += 1
            return tuple(counts)

        monkeypatch.setattr(moments, "kl2_counts", corrupted)
        with pytest.raises(IdentityFailure, match=r"m\^\d_2\(7\).*not rational"):
            sym_moment_direct(7, d)


class TestAppendix8:
    def test_needs_completed(self):
        with pytest.raises(WrongConvention):
            sym_moment_appendix8(5, power_sums_exact(5, 8))

    def test_agrees_with_direct(self):
        for p in primes_in_range(2, 31):
            completed = power_sums_exact(p, 8, COMPLETED)
            assert (
                sym_moment_appendix8(p, completed).value
                == sym_moment_direct(p, 8).value
            )

    def test_feeds_degree8_pins(self):
        t5 = power_sums_exact(5, 8, COMPLETED)
        t7 = power_sums_exact(7, 8, COMPLETED)
        m5 = sym_moment_appendix8(5, t5).value
        m7 = sym_moment_appendix8(7, t7).value
        assert (-m5 - 1 - 5**4) // 5**2 == -66
        assert (-m7 - 1 - 7**4) // 7**2 == 176


class TestLargePrimePaths:
    def test_float_matches_raised_exact_limit_at_263(self):
        # p = 263 sits above the default exact limit; the congruence path
        # must reproduce the exact values computed with a raised limit
        flt, _ = power_sums_float_auto(263, 4)
        exact = power_sums_exact(263, 4, COMPLETED, exact_limit=263)
        assert flt.values == exact.values

    @pytest.mark.parametrize("p", [127, 211, 353])
    def test_float_equals_exact_at_odd_and_even_orbit_lengths(self, p):
        # the orbits of Kl_2(p; .) have (p - 1) / 2 = 63 and 105 members,
        # odd, at 127 and 211, and 176, even, at 353
        flt = power_sums_float(p, 8, 64)
        assert flt.values == power_sums_exact(p, 8, COMPLETED, exact_limit=p).values

    @pytest.mark.parametrize("p", [263, 331, 499, 1009, 2003])
    def test_float_route_above_257(self, p):
        # pins the float route's coverage above today's default limit,
        # whatever DEFAULT_EXACT_LIMIT becomes
        engine = MomentEngine(exact_limit=257)
        exact = power_sums_exact(p, 8, exact_limit=p)
        table = engine.table(p, 8)
        assert table.method == moments.METHOD_FLOAT
        assert table.values == exact.values
        for d in range(5, 9):
            mv = engine.moment(p, d)
            assert mv.method == "girard-float"
            assert mv.value == sym_moment_girard(p, d, exact).value
        assert engine.float_primes == [p]


class TestMomentSelector:
    # MomentEngine is the one exact-versus-float router
    def test_exact_route(self):
        engine = MomentEngine()
        mv = engine.moment(5, 8)
        assert mv.value == sym_moment_direct(5, 8).value
        assert mv.method == "girard-exact"
        assert engine.float_primes == []

    def test_float_route(self):
        engine = MomentEngine(exact_limit=7)
        mv = engine.moment(11, 4)
        assert mv.method == "girard-float"
        assert mv.value == -1 - 121
        assert engine.float_primes == [11]

    def test_supplied_table_used(self, monkeypatch):
        t = power_sums_exact(7, 8)
        engine = MomentEngine()
        engine.seed(t)

        def no_recompute(*args):
            raise AssertionError("a seeded table must not be recomputed")

        monkeypatch.setattr(evans, "power_sums_exact", no_recompute)
        mv = engine.moment(7, 6)
        assert mv.value == sym_moment_girard(7, 6, t).value
        assert mv.method == "girard-exact"

    @pytest.mark.parametrize("kwargs, message", [
        ({"exact_limit": -1}, "exact_limit must be >= 3"),
        ({"exact_limit": 2}, "exact_limit must be >= 3"),
    ])
    def test_invalid_settings_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            MomentEngine(**kwargs)
