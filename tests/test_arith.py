"""Tests for the exact combinatorial kernel."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tautint.arith import (
    as_exponents,
    bernoulli,
    canonical,
    format_rational,
    multinomial,
    parse_rational,
    partitions,
)


def multiset_permutation_count(parts):
    """Independent oracle: count distinct arrangements of a multiset by
    brute-force enumeration (only usable for small totals)."""
    word = []
    for symbol, count in enumerate(parts):
        word.extend([symbol] * count)
    return len(set(itertools.permutations(word)))


class TestMultinomial:
    @pytest.mark.parametrize(
        "n, parts, expected",
        [
            (2, (2,), 1),
            (3, (2, 1), 3),
            (4, (2, 1, 1), 12),
            (3, (3, 0, 0), 1),
            (0, (0,), 1),
        ],
    )
    def test_known_values(self, n, parts, expected):
        assert multinomial(n, parts) == expected

    @pytest.mark.parametrize(
        "parts",
        [(2,), (2, 1), (2, 1, 1), (3, 2, 0), (1, 1, 1, 1), (4, 2), (2, 2, 2)],
    )
    def test_against_permutation_count(self, parts):
        assert multinomial(sum(parts), parts) == multiset_permutation_count(parts)

    def test_sum_mismatch_raises(self):
        with pytest.raises(ValueError):
            multinomial(3, (2, 2))

    def test_negative_part_raises(self):
        with pytest.raises(ValueError):
            multinomial(1, (2, -1))

    def test_no_parts(self):
        # The empty parts sum to 0, so the coefficient is 0!/() = 1.
        assert multinomial(0, ()) == 1
        with pytest.raises(ValueError, match=r"^parts \(\) do not sum to 2$"):
            multinomial(2, ())

    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6))
    def test_permutation_invariance(self, parts):
        n = sum(parts)
        reference = multinomial(n, parts)
        assert multinomial(n, sorted(parts)) == reference
        assert multinomial(n, sorted(parts, reverse=True)) == reference

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=7)
           .filter(lambda parts: sum(parts) >= 1))
    def test_pascal_generalization(self, parts):
        # sum over single decrements at level n-1 recombines to level n
        n = sum(parts)
        total = 0
        for j, part in enumerate(parts):
            if part > 0:
                decremented = parts[:j] + [part - 1] + parts[j + 1:]
                total += multinomial(n - 1, decremented)
        assert total == multinomial(n, parts)


class TestPartitions:
    @pytest.mark.parametrize(
        "total, max_parts, expected",
        [
            (2, 1, [(2,)]),
            (3, 2, [(3, 0), (2, 1)]),
            (4, 3, [(4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1)]),
            (0, 3, [(0, 0, 0)]),
            (1, 4, [(1, 0, 0, 0)]),
        ],
    )
    def test_exact_listing(self, total, max_parts, expected):
        assert list(partitions(total, max_parts)) == expected

    @pytest.mark.parametrize("total", range(0, 9))
    @pytest.mark.parametrize("max_parts", range(1, 6))
    def test_matches_brute_force(self, total, max_parts):
        produced = list(partitions(total, max_parts))
        brute = sorted(
            {
                tuple(sorted(combo, reverse=True))
                for combo in itertools.product(range(total + 1), repeat=max_parts)
                if sum(combo) == total
            },
            reverse=True,
        )
        assert produced == brute  # every partition once, reverse-lexicographic

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            list(partitions(-1, 2))
        with pytest.raises(ValueError):
            list(partitions(3, 0))


class TestBernoulli:
    @pytest.mark.parametrize(
        "m, expected",
        [
            (0, Fraction(1)),
            (1, Fraction(-1, 2)),
            (2, Fraction(1, 6)),
            (4, Fraction(-1, 30)),
            (6, Fraction(1, 42)),
            (7, Fraction(0)),
            (8, Fraction(-1, 30)),
            (12, Fraction(-691, 2730)),
        ],
    )
    def test_known_values(self, m, expected):
        assert bernoulli(m) == expected

    @pytest.mark.parametrize("m", range(1, 16))
    def test_odd_indices_vanish(self, m):
        assert bernoulli(2 * m + 1) == 0

    def test_recurrence_closes(self):
        # sum_{k=0}^{m} C(m+1, k) B_k == 0 for every m >= 1
        for m in range(1, 20):
            acc = sum(math.comb(m + 1, k) * bernoulli(k) for k in range(m + 1))
            assert acc == 0

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            bernoulli(-1)


class TestRationalText:
    @pytest.mark.parametrize(
        "value, text",
        [
            (Fraction(7, 5760), "7/5760"),
            (Fraction(3), "3"),
            (Fraction(-1, 30), "-1/30"),
            (Fraction(0), "0"),
        ],
    )
    def test_format(self, value, text):
        assert format_rational(value) == text
        assert parse_rational(text) == value

    @given(st.fractions())
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value

    def test_format_beyond_int_str_digit_limit(self):
        # 5001 numerator digits: more than str(int) prints by default.
        value = Fraction(-(10 ** 5000 + 7), 3)
        assert format_rational(value) == "-1" + "0" * 4999 + "7/3"

    def test_parse_beyond_int_str_digit_limit(self):
        value = Fraction(-(10 ** 5000 + 7), 3)
        assert parse_rational(format_rational(value)) == value
        assert parse_rational(format_rational(10 ** 5000)) == 10 ** 5000

    @pytest.mark.parametrize("text", ["1.5", "-2e3", " 1_000/3_0 ", ".5", "+7"])
    def test_parse_other_fraction_forms(self, text):
        assert parse_rational(text) == Fraction(text)

    @pytest.mark.parametrize("text", ["", "1/-2", "1 /2", "1__0", "nan", "1.5/2"])
    def test_parse_rejects_what_fraction_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)


class TestCanonical:
    def test_sorts_descending(self):
        assert canonical((0, 2, 1)) == (2, 1, 0)
        assert canonical([1, 1]) == (1, 1)


class TestAsExponents:
    """The refusal messages of the public exponent check."""

    @pytest.mark.parametrize("k", [(-1, 2, 0), (2, -1, 0), (2, 0, -1)],
                             ids=["first", "middle", "last"])
    def test_negative_entry_in_any_position(self, k):
        with pytest.raises(ValueError, match=f"^exponents must be nonnegative, got {re.escape(repr(k))}$"):
            as_exponents(k)

    def test_float_entry(self):
        with pytest.raises(ValueError, match="^exponents must be integers, got 1.5$"):
            as_exponents((2, 1.5, 0))

    def test_iterator_input(self):
        assert as_exponents(iter([2, 0, 1])) == (2, 0, 1)
        with pytest.raises(ValueError, match=r"^exponents must be nonnegative, got \(2, 0, -1\)$"):
            as_exponents(iter([2, 0, -1]))
        with pytest.raises(ValueError, match="^exponents must be integers, got 1.5$"):
            as_exponents(x for x in (2, 1.5))

    def test_empty_vector(self):
        with pytest.raises(ValueError, match="^exponent vector must have at least one entry$"):
            as_exponents(iter([]))
