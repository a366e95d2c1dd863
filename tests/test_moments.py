import pytest
from hypothesis import given, settings, strategies as st

from klmoments import cyclotomic, kloosterman, moments
from klmoments.convolve import cyclic_convolve
from klmoments.cyclotomic import CycInt, as_integer
from klmoments.errors import (
    AmbiguousRounding,
    ExactLimitExceeded,
    IdentityFailure,
    MissingPowerSum,
    WrongConvention,
)
from klmoments.ffprime import jacobi_symbol, primes_in_range
from klmoments.kloosterman import kl2_counts
from klmoments.moments import (
    COMPLETED,
    RESTRICTED,
    MomentEngine,
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
        # S_5 one off: the parity, S_1..S_4 and the Weil bound still hold,
        # the completed congruence mod p^2 breaks
        orbit_sum = moments._orbit_sum
        monkeypatch.setattr(
            moments, "_orbit_sum",
            lambda e, traces, what: orbit_sum(e, traces, what) + what.startswith("S_5("),
        )
        with pytest.raises(IdentityFailure, match=r"S'_5\(7\)"):
            power_sums_exact(7, 6)

    def test_weil_bound_checked(self):
        # |S_6(13)| <= (p - 1)(2 sqrt p)^6 = 12 * 52^3 = 1687296, with equality allowed
        values = power_sums_exact(13, 5).values
        moments._check_power_sums(13, {**values, 6: -1687296})
        for s6 in (1687297, -1687297):
            with pytest.raises(IdentityFailure, match=r"S_6\(13\).*Weil"):
                moments._check_power_sums(13, {**values, 6: s6})

    def test_salie_closed_forms_to_400(self, monkeypatch):
        # S_3 = (p/3) p^2 + 2p + 1 and S_4 = 2p^3 - 3p^2 - 3p - 1 (S_4(2) = 1),
        # against tables built with the library's own identity checks switched off
        monkeypatch.setattr(moments, "_check_power_sums", lambda p, values: None)
        for p in primes_in_range(2, 400):
            table = power_sums_exact(p, 4, exact_limit=p)
            assert table[3] == jacobi_symbol(p, 3) * p * p + 2 * p + 1, p
            assert table[4] == (2 * p**3 - 3 * p * p - 3 * p - 1 if p % 2 else 1), p

    @pytest.mark.parametrize("route", ["exact", "float"])
    def test_s3_moved_by_p_squared_fails_identities(self, monkeypatch, route):
        # the congruence mod p^2 cannot see the move, and the float route
        # picks the admissible integer it finds; Salie's S_3 sees it
        p = 7
        if route == "exact":
            orbit_sum = moments._orbit_sum
            monkeypatch.setattr(
                moments, "_orbit_sum",
                lambda e, traces, what: orbit_sum(e, traces, what) + p * p * what.startswith("S_3("),
            )
            build = lambda: power_sums_exact(p, 4)
        else:
            precision = float_precision(p, 4)
            ball_sums = moments._ball_power_sums

            def moved(centres, radius, nmax):
                sums, errors = ball_sums(centres, radius, nmax)
                sums[3] += p * p << (3 * precision)
                return sums, errors

            monkeypatch.setattr(moments, "_ball_power_sums", moved)
            build = lambda: power_sums_float(p, 4, precision)
        want = jacobi_symbol(p, 3) * p * p + 2 * p + 1
        with pytest.raises(IdentityFailure, match=rf"S_3\(7\) = {want + p * p}, the theory forces {want}$"):
            build()


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

    def test_no_limit_of_its_own(self):
        # only a caller's exact_limit refuses a prime; the engine passes its own
        assert power_sums_exact(263, 4) == power_sums_exact(263, 4, exact_limit=263)

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

    def test_enclosure_without_an_admissible_integer(self, monkeypatch):
        # a residue class one off the true one: the enclosure, far narrower
        # than p^2 at 256 bits, holds no integer of it
        real = moments.completed_congruence_class
        monkeypatch.setattr(moments, "completed_congruence_class", lambda n, p: real(n, p) + 1)
        with pytest.raises(AmbiguousRounding) as info:
            power_sums_float(263, 4, 256)
        assert str(info.value) == "S'_1(263): no admissible integer in enclosure"

    def test_derived_precision_agrees_with_exact_to_400(self):
        # nmax 1..8 at every prime up to 400: the centres' powers and the
        # ball bound pin the same integers as the exact route
        for p in primes_in_range(2, 400):
            completed = power_sums_exact(p, 8, COMPLETED, exact_limit=p).values
            for nmax in range(1, 9):
                flt, _ = power_sums_float_auto(p, nmax)
                assert flt.values == {n: completed[n] for n in range(1, nmax + 1)}, (p, nmax)

    @pytest.mark.parametrize("p, nmax", [(101, 40), (3, 30)])
    def test_derived_precision_agrees_with_exact_at_high_nmax(self, p, nmax):
        flt, _ = power_sums_float_auto(p, nmax)
        assert flt.values == power_sums_exact(p, nmax, COMPLETED).values

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
        centres=st.lists(st.integers(-40, 40), min_size=1, max_size=4),
        radius=st.integers(0, 6),
        nmax=st.integers(1, 8),
    )
    def test_ball_powers_cover_every_point(self, centres, radius, nmax):
        # balls of either sign, straddling 0 or not, one to four of them:
        # the brute-force least and greatest sum of x**n, one integer x
        # within radius of each centre, lie in the bound
        sums, errors = moments._ball_power_sums(centres, radius, nmax)
        for n in range(1, nmax + 1):
            ranges = [[x**n for x in range(m - radius, m + radius + 1)] for m in centres]
            assert sums[n] == sum(m**n for m in centres)
            assert sums[n] - errors[n] <= sum(map(min, ranges))
            assert sum(map(max, ranges)) <= sums[n] + errors[n]

    @pytest.mark.parametrize("centre", [-9, -1, 0, 4])
    def test_one_ball_bound_is_attained(self, centre):
        # one ball: the bound is (|m| + R)**n - |m|**n, reached at the
        # endpoint away from 0
        sums, errors = moments._ball_power_sums([centre], 3, 6)
        far = centre - 3 if centre < 0 else centre + 3
        for n in range(1, 7):
            assert errors[n] == (abs(centre) + 3) ** n - abs(centre) ** n
            assert abs(far**n - sums[n]) == errors[n]

    def test_ball_bound_scales_with_the_count(self):
        # three balls around -5, 0 and 7, radius 2: B = 9, so each n is
        # enclosed within 3 (9**n - 7**n) of the centres' sum
        sums, errors = moments._ball_power_sums([-5, 0, 7], 2, 3)
        assert sums[1:] == [2, 74, 218]
        assert errors[1:] == [6, 96, 1158]

    @pytest.mark.parametrize("edge", ["bottom", "top"])
    def test_values_at_an_edge_of_their_enclosure(self, monkeypatch, edge):
        # Kl_2(3; 1) = -1 and Kl_2(3; 2) = 2 are integers, one per orbit:
        # placed at either end of enclosures of the widest width the proof
        # allows, 2(p - 1) at c_0 = 0, the balls still hold them, so the
        # tables are the exact ones. A root table of one 1 makes each
        # orbit's one lower bound its operand's one entry
        values = {1: -1, 2: 2}
        width = 4
        calls = []

        def at_edge(p, r):
            calls.append(r)
            low = values[r] << precision
            return 0, [low - width if edge == "top" else low]

        monkeypatch.setattr(moments, "_orbit_operand", at_edge)
        monkeypatch.setattr(cyclotomic, "_rader_cosines", lambda p, precision: [1])
        for nmax in (1, 2, 5, 8):
            precision = float_precision(3, nmax)
            flt = power_sums_float(3, nmax, precision)
            assert flt.values == power_sums_exact(3, nmax, COMPLETED).values
        assert calls == [1, 2] * 4  # two orbits per table

    def test_identities_checked_on_fresh_tables(self, monkeypatch):
        # integer stand-ins for Kl_2(5; a) whose completed sums meet the
        # mod-25 congruence, with S_1 = 1 but S_2 = 69 instead of 19; with
        # g = 2 the orbit of 1 is a = 1, 4 and the orbit of 2 is a = 2, 3.
        # c_0 = p - 1 makes every width 0, and the root table (1, 0) makes
        # each lower bound c_0 2**64 + D_i
        fake = {1: [7, 0], 2: [-4, -2]}
        monkeypatch.setattr(
            moments, "_orbit_operand",
            lambda p, r: (p - 1, [(v - p + 1) << 64 for v in fake[r]]),
        )
        monkeypatch.setattr(cyclotomic, "_rader_cosines", lambda p, precision: [1, 0])
        with pytest.raises(IdentityFailure, match="S_2"):
            power_sums_float(5, 2, 64)

    @pytest.mark.parametrize("p, nmax", [(2, 12), (3, 8), (263, 5), (1009, 8)])
    def test_reads_no_exponent_counts(self, monkeypatch, p, nmax):
        # the operand comes from the quadratic character, so the float
        # route runs with the inverse loop gone
        exact = power_sums_exact(p, nmax, COMPLETED, exact_limit=p)

        def no_counts(*args):
            raise AssertionError("the float route counted exponents")

        for module, name in ((kloosterman, "kl2_counts"), (moments, "kl2_counts"),
                             (kloosterman, "_inverses")):
            monkeypatch.setattr(module, name, no_counts)
        table, _ = power_sums_float_auto(p, nmax)
        assert table.values == exact.values


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
        table = power_sums_exact(p, max(d, 1))
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
        # p = 263 sits above the engine's default exact limit; the
        # congruence path must reproduce the exact values
        flt, _ = power_sums_float_auto(263, 4)
        exact = power_sums_exact(263, 4, COMPLETED)
        assert flt.values == exact.values

    @pytest.mark.parametrize("p", [127, 211, 353])
    def test_float_equals_exact_at_odd_and_even_orbit_lengths(self, p):
        # the orbits of Kl_2(p; .) have (p - 1) / 2 = 63 and 105 members,
        # odd, at 127 and 211, and 176, even, at 353
        flt = power_sums_float(p, 8, 64)
        assert flt.values == power_sums_exact(p, 8, COMPLETED).values

    @pytest.mark.parametrize("p", [263, 331, 499, 1009, 2003])
    def test_float_route_above_257(self, p):
        # pins the float route's coverage above today's default limit,
        # whatever DEFAULT_EXACT_LIMIT becomes
        engine = MomentEngine(exact_limit=257)
        exact = power_sums_exact(p, 8)
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

        monkeypatch.setattr(moments, "power_sums_exact", no_recompute)
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


class TestEngineMemo:
    # one restricted table per prime, found by p; a larger nmax replaces it
    @staticmethod
    def no_route(monkeypatch):
        def unreachable(*args):
            raise AssertionError("the memo's table must serve this nmax")

        monkeypatch.setattr(moments, "power_sums_exact", unreachable)
        monkeypatch.setattr(moments, "power_sums_float_auto", unreachable)

    @pytest.mark.parametrize("p, exact_limit", [(7, 257), (11, 7)])
    def test_larger_nmax_replaces_the_entry(self, monkeypatch, p, exact_limit):
        engine = MomentEngine(exact_limit=exact_limit)
        engine.table(p, 4)
        big = engine.table(p, 8)
        assert list(engine._tables) == [p] and engine._tables[p] is big
        assert sorted(big.values) == list(range(1, 9))
        assert big.convention == RESTRICTED
        self.no_route(monkeypatch)
        assert engine.table(p, 6) is big

    def test_smaller_seed_replaces_a_larger_one(self, monkeypatch):
        engine = MomentEngine()
        engine.seed(power_sums_exact(7, 8))
        small = power_sums_exact(7, 4)
        engine.seed(small)
        assert engine._tables == {7: small}
        asked = []
        real = moments.power_sums_exact

        def recording(p, nmax):
            asked.append((p, nmax))
            return real(p, nmax)

        monkeypatch.setattr(moments, "power_sums_exact", recording)
        assert sorted(engine.table(7, 8).values) == list(range(1, 9))
        assert asked == [(7, 8)]

    def test_seeding_one_prime_twice_keeps_one_entry(self, monkeypatch):
        engine = MomentEngine()
        engine.seed(power_sums_exact(11, 6))
        completed = power_sums_exact(11, 3, convention=COMPLETED)
        engine.seed(completed)
        engine.seed(power_sums_exact(13, 2))
        assert sorted(engine._tables) == [11, 13]
        assert engine._tables[11] == completed.to_convention(RESTRICTED)
        self.no_route(monkeypatch)
        assert engine.table(11, 3) is engine._tables[11]
