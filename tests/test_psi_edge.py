"""psi_integral's public edge: the memo key is the integer check, and a memo
hit returns before the degree test.

Every value, exception type and message below was captured from the edge as it
was before the key did the check (``as_exponents`` first, then the space
checks, the length check and the degree test), so the edge must behave
exactly as that one did.  The one exception is a part beyond ``chr``'s range
at a matched degree, which used to leak chr's own ValueError and is now the
engine's named "too costly" refusal.
"""

import enum
import random
from fractions import Fraction

import pytest

from oracles import LEGGED_DECO
from tautint import psi
from tautint.arith import partitions
from tautint.identities import pullback_delta_recursive
from tautint.psi import ModuliIndex, UnsupportedGenusError, psi_integral
from tautint.strata import DualGraph, gamma_psi_graph, pullback_integral


class Level(enum.IntEnum):
    ZERO = 0
    TWO = 2


class Indexed:
    """An int-like with ``__index__`` only: no ordering and no arithmetic."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


class Reversed(int):
    """An int whose own ordering is backwards."""

    def __lt__(self, other):
        return int(self) > int(other)

    def __gt__(self, other):
        return int(self) < int(other)


VALUES = {
    "generator": (ModuliIndex(0, 5), lambda: (x for x in (2, 0, 0, 0, 0)), Fraction(1)),
    "iterator": (ModuliIndex(1, 2), lambda: iter([1, 1]), Fraction(1, 24)),
    "bytes": (ModuliIndex(0, 5), lambda: b"\x01\x01\x00\x00\x00", Fraction(2)),
    "bools": (ModuliIndex(0, 4), lambda: (True, False, False, False), Fraction(1)),
    "intenum": (ModuliIndex(0, 5), lambda: (Level.TWO,) + (Level.ZERO,) * 4, Fraction(1)),
    "index-only": (ModuliIndex(0, 5), lambda: tuple(map(Indexed, (1, 0, 1, 0, 0))), Fraction(2)),
    "reversed-lt": (ModuliIndex(0, 5), lambda: tuple(map(Reversed, (0, 2, 0, 0, 0))), Fraction(1)),
    "genus-1": (ModuliIndex(1, 3), lambda: (2, 1, 0), Fraction(1, 12)),
    "huge-mismatch": (ModuliIndex(0, 3), lambda: (2 ** 70, 0, 0), Fraction(0)),
    "past-chr-mismatch": (ModuliIndex(0, 3), lambda: (2_000_000, 0, 0), Fraction(0)),
}

ERRORS = {
    "str": (ModuliIndex(0, 3), lambda: "000", ValueError,
            "exponents must be integers, got '0'"),
    "float": (ModuliIndex(0, 4), lambda: (1.5, 0, 0, 0), ValueError,
              "exponents must be integers, got 1.5"),
    "fraction": (ModuliIndex(0, 4), lambda: (Fraction(1), 0, 0, 0), ValueError,
                 "exponents must be integers, got Fraction(1, 1)"),
    "text-part": (ModuliIndex(0, 4), lambda: ("1", 0, 0, 0), ValueError,
                  "exponents must be integers, got '1'"),
    "negative": (ModuliIndex(0, 4), lambda: (2, -1, 0, 0), ValueError,
                 "exponents must be nonnegative, got (2, -1, 0, 0)"),
    "empty": (ModuliIndex(0, 3), lambda: (), ValueError,
              "exponent vector must have at least one entry"),
    "length": (ModuliIndex(0, 4), lambda: (1, 0, 0), ValueError, "expected 4 exponents, got 3"),
    # the exponent error comes before the genus or marks error
    "float-and-genus": (ModuliIndex(2, 4), lambda: (1.5, 0, 0, 0), ValueError,
                        "exponents must be integers, got 1.5"),
    "negative-and-genus": (ModuliIndex(5, 4), lambda: (-1, 0, 0, 0), ValueError,
                           "exponents must be nonnegative, got (-1, 0, 0, 0)"),
    "empty-and-unstable": (ModuliIndex(0, 0), lambda: (), ValueError,
                           "exponent vector must have at least one entry"),
    "huge-and-genus": (ModuliIndex(3, 3), lambda: (2 ** 70, 0, 0), UnsupportedGenusError,
                       "genus 3 is outside this engine's exact range (0 or 1)"),
}


@pytest.mark.parametrize("space", [(0, 3, 1), (0,), 5], ids=["triple", "single", "int"])
def test_space_that_is_not_a_pair_is_named(space):
    with pytest.raises(ValueError) as caught:
        psi_integral(space, (0, 0, 0))
    assert str(caught.value) == f"space must be a (genus, marks) pair, got {space!r}"
    assert type(caught.value) is ValueError


@pytest.mark.parametrize("case", VALUES)
@pytest.mark.parametrize("cold", [True, False], ids=["cold", "warm"])
def test_values_as_before(case, cold):
    space, make, expected = VALUES[case]
    if cold:
        psi.clear_cache()
    value = psi_integral(space, make())
    assert value == expected and type(value) is Fraction
    assert type(value.numerator) is int and type(value.denominator) is int


@pytest.mark.parametrize("case", ERRORS)
def test_errors_as_before(case):
    space, make, error, message = ERRORS[case]
    psi.clear_cache()
    with pytest.raises(error) as caught:
        psi_integral(space, make())
    assert type(caught.value) is error and str(caught.value) == message
    assert not psi._CACHE


def test_memo_keys_order_by_value_not_by_the_parts_own_ordering():
    psi.clear_cache()
    assert psi_integral(ModuliIndex(0, 5), tuple(map(Reversed, (2, 0, 0, 0, 0)))) == 1
    assert psi._key(map(Reversed, (0, 3, 1))) == "\3\1\0"
    assert set(psi._CACHE[0]) == {"\2\0\0\0\0", "\1\0\0\0", "\0\0\0"}


class TestBeyondChrRange:
    """A part above 0x10FFFF has no code point.  At a matched degree its
    diagram alone fits more than MAX_PSI_COST partitions, so the engine's
    cost guard refuses it; at any other degree the value is 0."""

    def test_psi_integral_refused_as_too_costly(self):
        n = 0x110003
        psi.clear_cache()
        with pytest.raises(ValueError, match=r"^recursion over 1114115 marks is too costly"):
            psi_integral(ModuliIndex(0, n), (n - 3,) + (0,) * (n - 1))
        assert not psi._CACHE

    def test_delta_recursion_refused_as_too_costly(self):
        m = 0x110001
        psi.clear_cache()
        with pytest.raises(ValueError, match=r"^recursion over 1114113 marks is too costly"):
            pullback_delta_recursive(m, (m + 1,) + (0,) * (m - 1))
        assert not any(psi._MEMOS.values())

    def test_mismatched_degree_is_zero(self):
        assert psi_integral(ModuliIndex(0, 3), (2_000_000, 0, 0)) == 0
        assert psi_integral(ModuliIndex(1, 2), (0x110000, 0)) == 0


def test_every_psi_memo_key_has_a_matched_degree():
    # A hit returns before the degree test, which is right only while no
    # psi family holds a key of the wrong degree.  Fill the memo the three
    # ways that write it, each with mismatched calls among the matched ones.
    rng = random.Random(25)
    psi.clear_cache()
    try:
        for genus, marks in ((0, 22), (1, 20)):  # psi-cold's sizes
            for k in partitions(3 * genus - 3 + marks, marks):
                k = list(k)
                rng.shuffle(k)
                assert psi_integral(ModuliIndex(genus, marks), k) > 0
                k[rng.randrange(marks)] += 1
                assert psi_integral(ModuliIndex(genus, marks), k) == 0
        for graph in (gamma_psi_graph(), DualGraph(*LEGGED_DECO)):  # vertex-factor bases
            for n in range(1, 9):
                for k in partitions(n + 1, n):
                    pullback_integral(graph, k)
                    pullback_integral(graph, k[:-1] + (k[-1] + 1,))
        staircase = tuple(range(18, 0, -1)) + (0,) * 156  # matched, and refused
        with pytest.raises(ValueError, match="too costly"):
            psi_integral(ModuliIndex(0, len(staircase)), staircase)
        families = {genus: dict(table) for genus, table in psi._CACHE.items()}
    finally:
        psi.clear_cache()
    assert set(families) == {0, 1}
    assert sum(map(len, families.values())) > 1000
    for genus, table in families.items():
        bad = [psi._exponents(key) for key in table
               if sum(map(ord, key)) != 3 * genus - 3 + len(key)]
        assert not bad, (genus, bad[:3])
