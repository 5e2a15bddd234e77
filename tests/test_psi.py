"""Tests for the genus-0/1 psi-integral engine."""

import math
import random
import re
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tautint import identities, psi
from tautint.arith import partitions
from tautint.psi import ModuliIndex, UnsupportedGenusError, genus0_closed_form, psi_integral
from tautint.strata import delta_graph, pullback_integral, stratum_terms


def genus1_closed_form(k):
    """Independent genus-1 oracle for a degree-matched exponent vector:
    <tau_d>_1 = (1/24) C(n; d) (1 - sum_{i>=2} (i-2)! e_i(d) / (n)_i),
    with e_i the elementary symmetric polynomials and (n)_i = n!/(n-i)!."""
    n = len(k)
    elementary = [1] + [0] * n  # coefficients of prod_j (1 + d_j x)
    for d in k:
        for i in range(n, 0, -1):
            elementary[i] += d * elementary[i - 1]
    multinomial = math.factorial(n) // math.prod(math.factorial(d) for d in k)
    correction = sum(
        Fraction(math.factorial(i - 2) * elementary[i], math.perm(n, i))
        for i in range(2, n + 1)
    )
    return Fraction(multinomial, 24) * (1 - correction)


class TestModuliIndex:
    def test_dimension(self):
        assert ModuliIndex(0, 3).dimension == 0
        assert ModuliIndex(1, 1).dimension == 1
        assert ModuliIndex(1, 4).dimension == 4

    @pytest.mark.parametrize("genus, marks, stable", [
        (0, 1, False), (0, 2, False), (0, 3, True), (1, 1, True), (1, 0, False),
    ])
    def test_stability(self, genus, marks, stable):
        assert ModuliIndex(genus, marks).is_stable is stable


class TestPsiIntegral:
    @pytest.mark.parametrize(
        "genus, k, expected",
        [
            (1, (1,), Fraction(1, 24)),
            (0, (0, 0, 0), Fraction(1)),
            (0, (1, 1, 0, 0), Fraction(0)),  # degree 2 on a 1-dimensional space
            (1, (1, 1), Fraction(1, 24)),    # dilaton step
            (1, (2, 0), Fraction(1, 24)),    # string step
            (0, (1, 0, 0, 0), Fraction(1)),
            (0, (2, 0, 0, 0, 0), Fraction(1)),
            (0, (1, 1, 0, 0, 0), Fraction(2)),
            (1, (3, 0, 0), Fraction(1, 24)),
            (1, (2, 1, 0), Fraction(1, 12)),
            (1, (1, 1, 1), Fraction(1, 12)),
            (1, (3, 1, 0, 0), Fraction(1, 8)),
        ],
    )
    def test_known_values(self, genus, k, expected):
        assert psi_integral(ModuliIndex(genus, len(k)), k) == expected

    def test_unstable_space_raises(self):
        with pytest.raises(ValueError):
            psi_integral(ModuliIndex(0, 2), (0, 0))

    def test_genus_two_unsupported(self):
        with pytest.raises(UnsupportedGenusError):
            psi_integral(ModuliIndex(2, 1), (4,))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            psi_integral(ModuliIndex(0, 3), (0, 0))

    def test_degree_mismatch_is_zero_not_error(self):
        for k in [(0,), (2,), (1, 1, 1, 1)]:
            space = ModuliIndex(1, len(k))
            if sum(k) != space.dimension:
                assert psi_integral(space, k) == 0

    @given(st.permutations([3, 1, 0, 0]))
    def test_symmetric_in_exponents(self, k):
        assert psi_integral(ModuliIndex(1, 4), k) == Fraction(1, 8)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_genus0_recursion_matches_closed_form(self, n):
        for degree in range(0, n - 1):  # include one degree above the dimension
            for k in partitions(degree, n):
                assert psi_integral(ModuliIndex(0, n), k) == genus0_closed_form(k)

    def test_genus1_recursion_matches_closed_form(self):
        checked = 0
        for n in range(1, 11):
            for k in partitions(n, n):
                assert psi_integral(ModuliIndex(1, n), k) == genus1_closed_form(k), k
                checked += 1
        assert checked == 138

    @pytest.mark.parametrize("genus", [0, 1])
    def test_every_matched_degree_terminates_positive(self, genus):
        # Each degree-matched stable input must reach a base case; at genus 1
        # the degree condition forces a zero part or an all-ones vector.
        for n in range(1, 11):
            space = ModuliIndex(genus, n)
            if not space.is_stable:
                continue
            for k in partitions(space.dimension, n):
                assert psi_integral(space, k) > 0

    def test_string_identity_property(self):
        # Removing a zero-exponent point and summing single decrements of the
        # remaining exponents reproduces the value, also on a cold cache.
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 8)
            genus = rng.choice([0, 1])
            space = ModuliIndex(genus, n)
            # the string equation forgets one point, so the smaller space
            # must itself be stable
            if not ModuliIndex(genus, n - 1).is_stable:
                continue
            parts = [k for k in partitions(space.dimension, n) if 0 in k]
            if not parts:
                continue
            k = list(rng.choice(parts))
            zero_at = k.index(0)
            rest = k[:zero_at] + k[zero_at + 1:]
            psi.clear_cache()
            expanded = sum(
                (
                    psi_integral(ModuliIndex(genus, n - 1),
                                 rest[:j] + [rest[j] - 1] + rest[j + 1:])
                    for j in range(n - 1)
                    if rest[j] > 0
                ),
                Fraction(0),
            )
            psi.clear_cache()
            assert psi_integral(space, k) == expanded

    def test_clear_cache_also_clears_delta_memo(self):
        identities.pullback_delta_recursive(3, (2, 1, 1))
        assert identities._DELTA_MEMO
        psi.clear_cache()
        assert not psi._CACHE
        assert not identities._DELTA_MEMO

    def test_concurrent_calls_agree_with_serial(self):
        jobs = [
            (genus, k)
            for genus in (0, 1)
            for n in range(1, 9)
            if ModuliIndex(genus, n).is_stable
            for k in partitions(ModuliIndex(genus, n).dimension, n)
        ]
        psi.clear_cache()
        serial = [psi_integral(ModuliIndex(g, len(k)), k) for g, k in jobs]
        psi.clear_cache()
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(
                lambda job: psi_integral(ModuliIndex(job[0], len(job[1])), job[1]),
                jobs * 4,
            ))
        assert threaded == serial * 4


def random_monomial(rng, genus, n):
    # A degree-matched exponent vector: 3g-3+n units dropped on a random
    # number of the n points, so both flat and steep vectors occur.
    k = [0] * n
    points = rng.randint(1, n)
    for _ in range(3 * genus - 3 + n):
        k[rng.randrange(points)] += 1
    return tuple(k)


class TestIntegerEngine:
    """The engine memoizes N = 24^g * value as an int; the edge divides."""

    def test_benchmark_sizes_match_closed_forms_in_one_cold_memo(self):
        rng = random.Random(2024)
        sizes = [(0, 26), (1, 20), (0, 30), (1, 24)]
        oracle = {0: genus0_closed_form, 1: genus1_closed_form}
        psi.clear_cache()
        for _ in range(50):  # the two genera interleaved
            for genus, n in sizes:
                k = random_monomial(rng, genus, n)
                value = psi_integral(ModuliIndex(genus, n), k)
                assert type(value) is Fraction
                assert value == oracle[genus](k), (genus, k)
        assert any(psi._CACHE.values())
        assert all(type(n) is int for memo in psi._CACHE.values() for n in memo.values())

    def test_memo_holds_the_value_times_24_to_the_genus(self):
        psi.clear_cache()
        assert psi_integral(ModuliIndex(1, 3), (2, 1, 0)) == Fraction(1, 12)
        assert psi_integral(ModuliIndex(0, 5), (1, 1, 0, 0, 0)) == 2
        assert psi._CACHE[1][psi._key((2, 1, 0))] == 2
        assert psi._CACHE[1][psi._key((1,))] == 1
        assert psi._CACHE[0][psi._key((1, 1, 0, 0, 0))] == 2

    def test_values_leave_the_engine_as_fractions(self):
        psi.clear_cache()
        assert type(psi_integral(ModuliIndex(0, 3), (0, 0, 0))) is Fraction
        assert type(psi_integral(ModuliIndex(0, 4), (1, 0, 0, 0))) is Fraction
        assert type(psi_integral(ModuliIndex(1, 1), (1,))) is Fraction
        assert type(pullback_integral(delta_graph(), (2, 1, 1))) is Fraction
        assert type(identities.pullback_delta_recursive(3, (2, 1, 1))) is Fraction
        for term in stratum_terms(delta_graph(), (2, 1, 1)):
            assert {f.space.genus for f in term.factors} == {0, 1}
            for factor in term.factors:
                assert type(factor.value) is Fraction


class TestStringRunWalk:
    """The string step jumps run to run and stops at the zeros; every memo
    entry it fills, intermediates included, must still be exact."""

    @pytest.mark.parametrize("genus, n", [(0, 30), (1, 24)])
    def test_every_cold_memo_entry_matches_the_closed_form(self, genus, n):
        oracle = {0: genus0_closed_form, 1: genus1_closed_form}[genus]
        k = random_monomial(random.Random(11), genus, n)
        psi.clear_cache()
        psi_integral(ModuliIndex(genus, n), k)
        assert list(psi._CACHE) == [genus] and len(psi._CACHE[genus]) > n
        for key, value in psi._CACHE[genus].items():
            key = psi._exponents(key)
            assert value == 24 ** genus * oracle(key), key

    def test_repeated_parts_fill_29_of_76_fitting_partitions(self):
        k = (3, 3, 2, 2, 2, 1, 1) + (0,) * 10
        psi.clear_cache()
        assert psi_integral(ModuliIndex(0, len(k)), k) == genus0_closed_form(k)
        assert sum(map(len, psi._CACHE.values())) == 29
        assert psi._fitting_partitions(k, 10 ** 9) == 76

    def test_walk_bounds(self):
        # a rest with no zero is walked to its end; an empty rest sums to 0
        psi.clear_cache()
        assert psi_integral(ModuliIndex(1, 3), (2, 1, 0)) == Fraction(1, 12)
        assert psi._CACHE[1][psi._key((2, 1, 0))] == 2
        # dilaton forgets the 1 first: (2, 1, 0) -> (2, 0) -> (1), never (1, 1)
        assert psi._CACHE[1] == {psi._key((2, 1, 0)): 2, psi._key((2, 0)): 1, psi._key((1,)): 1}
        assert psi._string_dilaton({}, "graph", 2, lambda k: None, psi._key((0,))) == 0


class TestDilatonFirst:
    """Where a key holds a 1, the engine forgets that point by the dilaton
    equation (one term) before any string step, one point per memo entry."""

    def test_ones_are_forgotten_one_entry_each(self):
        k = (2,) * 20 + (1,) * 3000 + (0,) * 20
        psi.clear_cache()
        value = psi_integral(ModuliIndex(1, len(k)), k)
        # 3000 keys that hold a 1, then the 40 points of <tau_2^20 tau_0^20>_1
        assert len(psi._CACHE[1]) == 3040
        # dilaton on M_{1,n+1} multiplies by n, for n = 40..3039
        factor = math.factorial(3039) // math.factorial(39)
        assert value == factor * genus1_closed_form((2,) * 20 + (0,) * 20)

    @pytest.mark.parametrize("seed", range(6))
    def test_keys_with_two_ones_come_from_the_root_by_dilaton(self, seed):
        rng = random.Random(seed)
        for genus, n in [(0, 22), (0, 26), (0, 30), (1, 20), (1, 24)]:
            root = psi._key(random_monomial(rng, genus, n))
            psi.clear_cache()
            psi_integral(ModuliIndex(genus, n), psi._exponents(root))
            for key in psi._CACHE[genus]:
                ones = key.count("\1")
                if ones >= 2:
                    assert key == root.replace("\1", "", root.count("\1") - ones), (root, key)


class TestNonIntegerExponents:
    @pytest.mark.parametrize("bad", [1.9, 1.0, "1", Fraction(1)])
    def test_rejected_not_truncated(self, bad):
        with pytest.raises(ValueError, match=f"must be integers, got {re.escape(repr(bad))}"):
            psi_integral(ModuliIndex(0, 4), (bad, 0, 0, 0))
        with pytest.raises(ValueError, match="must be integers"):
            psi_integral(ModuliIndex(1, 1), iter([bad]))

    def test_int_subclasses_count_as_their_value(self):
        class Exponent(int):
            pass

        value = psi_integral(ModuliIndex(0, 4), (True, False, 0, 0))
        assert value == 1 and type(value) is Fraction
        assert psi_integral(ModuliIndex(1, 2), (Exponent(2), Exponent(0))) == Fraction(1, 24)
        assert psi._CACHE and all(
            type(key) is str and type(part) is int
            for memo in psi._CACHE.values() for key in memo for part in psi._exponents(key)
        )


class TestGenus0ClosedForm:
    @pytest.mark.parametrize(
        "k, expected",
        [
            ((0, 0, 0), Fraction(1)),
            ((2, 0, 0, 0, 0), Fraction(1)),
            ((1, 1, 0, 0, 0), Fraction(2)),
            ((1, 1, 1, 0, 0, 0), Fraction(6)),
        ],
    )
    def test_known_values(self, k, expected):
        assert genus0_closed_form(k) == expected

    def test_degree_mismatch_is_zero(self):
        assert genus0_closed_form((1, 0, 0)) == 0

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError):
            genus0_closed_form((1, 0))


def staircase(m, genus=0):
    """(m, m-1, ..., 1) padded with zeros to its degree-matched length:
    Catalan(m+1) partitions fit in the staircase, the guard's memo bound."""
    degree = m * (m + 1) // 2
    return tuple(range(m, 0, -1)) + (0,) * (degree - 3 * genus + 3 - m)


# The psi memo that a cold staircase(m) fills, by m.
STAIRCASE_MEMO = {1: 2, 2: 4, 3: 9, 4: 24, 5: 71, 6: 223, 7: 727, 8: 2432}


class TestCostGuard:
    @pytest.mark.parametrize("m", range(1, 12))
    def test_cost_model_counts_the_staircase_memo(self, m):
        k = staircase(m)
        assert psi._fitting_partitions(k, 10 ** 9) == math.comb(2 * m + 2, m + 1) // (m + 2)
        if m <= 8:
            # dilaton forgets each 1 before string runs, so the memo holds
            # fewer entries than the guard's bound
            psi.clear_cache()
            psi_integral(ModuliIndex(0, len(k)), k)
            entries = sum(map(len, psi._CACHE.values()))
            assert entries == STAIRCASE_MEMO[m] <= psi._fitting_partitions(k, 10 ** 9)

    def test_count_stops_past_the_limit(self):
        assert 200 < psi._fitting_partitions(staircase(18), 200) < 10 ** 4

    def test_staircase_9_matches_closed_form(self):
        k = staircase(9)
        assert len(k) > psi._FREE_MARKS  # the guard counts, and lets it through
        psi.clear_cache()
        assert psi_integral(ModuliIndex(0, len(k)), k) == genus0_closed_form(k)

    @pytest.mark.parametrize("genus", [0, 1])
    def test_staircase_18_refused_at_once(self, genus):
        k = staircase(18, genus)
        psi.clear_cache()
        started = time.monotonic()
        with pytest.raises(ValueError, match="too costly"):
            psi_integral(ModuliIndex(genus, len(k)), k)
        assert time.monotonic() - started < 1
        assert not psi._CACHE

    def test_wrong_degree_is_zero_not_refused(self):
        k = staircase(18) + (0,)
        assert psi_integral(ModuliIndex(0, len(k)), k) == 0

    def test_small_degrees_skip_the_count(self, monkeypatch):
        def no_count(*args):
            raise AssertionError("memo size counted")

        monkeypatch.setattr(psi, "_fitting_partitions", no_count)
        rng = random.Random(7)
        for genus, n in [(0, 30), (1, 30), (1, 39)]:
            k = random_monomial(rng, genus, n)
            assert psi_integral(ModuliIndex(genus, n), k) != 0

    def test_free_marks_fit_the_cost_bound(self):
        # Up to _FREE_MARKS marks the memo holds at most one entry per
        # partition of size <= _FREE_MARKS, so the engine skips the count.
        # One more mark and that bound would pass MAX_PSI_COST: the two
        # constants move together.  p(s) by the part-size recurrence, not by
        # the engine's own count.
        limit = psi._FREE_MARKS + 1
        p = [1] + [0] * limit
        for part in range(1, limit + 1):
            for size in range(part, limit + 1):
                p[size] += p[size - part]
        assert p[10] == 42 and p[limit] == 37338
        assert sum(p[:limit]) <= psi.MAX_PSI_COST < sum(p)
