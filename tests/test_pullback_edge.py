"""The pullback memo's public edges: ``pullback_integral``,
``expression_integral`` and ``lambda2_integral`` build the memo key
(``psi._key``) of the marks once per call, and the pullback memo holds
``(graph, key)`` pairs.  A part the key refuses goes through one refusal, in
the public order: a non-integer, a bad graph, a heavy decoration, a negative
part; past those, a part beyond ``chr``'s range gives 0 at a mismatched
degree and "too costly" at a matched one."""

import gc
import random
from fractions import Fraction

import pytest

from oracles import LEGGED_DECO
from tautint import psi, strata
from tautint.arith import partitions
from tautint.identities import lambda2_integral, verify
from tautint.strata import (DualGraph, InvalidGraphError, StrataExpression,
                            UnsupportedDecorationError, delta0_graph, delta_graph,
                            expression_integral, gamma_psi_graph, pullback_integral)

HEAVY_LOOP = DualGraph((1,), (((0, 2), (0, 0)),))
EXPRESSION = StrataExpression(((Fraction(1, 3), delta_graph()), (Fraction(-2, 5), delta0_graph())))
PAST_CHR = 2_000_000  # above 0x10FFFF: no code point


class Exponent(int):
    pass


def test_every_pullback_memo_key_is_a_graph_and_an_untracked_str():
    rng = random.Random(26)
    psi.clear_cache()
    try:
        for n in range(1, 8):
            for k in partitions(n + 1, n):
                shuffled = list(k)
                rng.shuffle(shuffled)
                pullback_integral(gamma_psi_graph(), map(Exponent, shuffled))
                pullback_integral(DualGraph(*LEGGED_DECO), iter(shuffled))
                expression_integral(EXPRESSION, shuffled)
                lambda2_integral(n, shuffled, "eq3")
        pullback_integral(HEAVY_LOOP)
        assert all(report.agreed for report in verify(6))
        keys = list(strata._PULLBACK_CACHE)
    finally:
        psi.clear_cache()
    graphs = {graph for graph, _ in keys}
    assert graphs == {gamma_psi_graph(), DualGraph(*LEGGED_DECO), delta_graph(), delta0_graph(), HEAVY_LOOP}
    assert len(keys) > 100
    for graph, key in keys:
        assert type(key) is str and not gc.is_tracked(key), key
        assert psi._key(psi._exponents(key)) == key


@pytest.mark.parametrize("call", [
    lambda k: pullback_integral(DualGraph(*LEGGED_DECO), k),
    lambda k: expression_integral(EXPRESSION, k),
    lambda k: lambda2_integral(len(k), k, "eq5"),
], ids=["pullback_integral", "expression_integral", "lambda2_integral"])
def test_each_call_builds_the_key_once(call, monkeypatch):
    k = (3, 2, 1, 1, 0, 0)  # degree n + 1, as every graph here needs
    keyed = []
    key = strata._key

    def recorded(parts):
        keyed.append(tuple(parts))
        return key(keyed[-1])

    psi.clear_cache()
    monkeypatch.setattr(strata, "_key", recorded)
    try:
        cold = call(k)  # the orbit core also keys each vertex's fixed points
        assert keyed.count(k) == 1, keyed
        keyed.clear()
        assert call(k) == cold
        assert keyed == [k]
    finally:
        psi.clear_cache()


class TestPastChrRange:
    """The key cannot hold a part above 0x10FFFF."""

    def test_mismatched_degree_is_zero_and_not_memoized(self):
        strata.clear_cache()
        for k in [(PAST_CHR,), (0x110000, 0), (2 ** 70, 1, 0)]:
            for value in (pullback_integral(delta_graph(), k), expression_integral(EXPRESSION, k)):
                assert value == 0 and type(value) is Fraction
        assert not strata._PULLBACK_CACHE

    @pytest.mark.parametrize("graph, k, error, message", [
        (delta_graph(), (PAST_CHR, 1.5), ValueError, "exponents must be integers, got 1.5"),
        (DualGraph((0,)), (PAST_CHR,), InvalidGraphError, "unstable-vertex"),
        (HEAVY_LOOP, (PAST_CHR,), UnsupportedDecorationError, "total degree >= 2"),
        (delta_graph(), (PAST_CHR, -1), ValueError,
         r"exponents must be nonnegative, got \(2000000, -1\)"),
    ], ids=["non-integer", "bad-graph", "heavy-decoration", "negative"])
    def test_named_errors_come_first(self, graph, k, error, message):
        with pytest.raises(error, match=message):
            pullback_integral(graph, k)
        with pytest.raises(error, match=message):
            expression_integral(StrataExpression(((1, graph),)), k)

    def test_lambda2_partition_check_comes_first(self):
        with pytest.raises(ValueError, match=r"must sum to n\+1 = 2"):
            lambda2_integral(1, (PAST_CHR,))

    def test_matched_degree_is_too_costly(self):
        m = 0x110001
        k = (m + 1,) + (0,) * (m - 1)  # degree n + 1, as delta and the lambda2 graphs need
        calls = {
            "pullback_integral": lambda: pullback_integral(delta_graph(), k),
            "expression_integral": lambda: expression_integral(EXPRESSION, k),
            "lambda2_integral": lambda: lambda2_integral(m, k, "eq3"),
        }
        strata.clear_cache()
        for name, call in calls.items():
            with pytest.raises(ValueError, match="too costly"):
                call()
            assert not strata._PULLBACK_CACHE, name
