"""The orbit cost guard charges a decorated vertex as an undecorated one.

A decorated vertex factor runs the string and dilaton laws over its marks, as
an undecorated one does, and its base inputs need no bubble correction.  So
the estimate depends on the number of marks, the vertex count and the
multiplicities of k only.  Inputs on decorated graphs that the old
decoration term refused now run, and the next sizes up are still refused
before any vertex factor is evaluated."""

import pytest

from oracles import DECORATED_DELTA, LEGGED_DECO
from tautint import strata
from tautint.strata import DualGraph, _recursive, pullback_integral


def staircase(a, zeros):
    # 3^a 2^a 1^5 0^zeros, sorted descending
    return (3,) * a + (2,) * a + (1,) * 5 + (0,) * zeros


@pytest.mark.parametrize("graph, k", [(DualGraph(*DECORATED_DELTA), staircase(10, 30)),
                                      (DualGraph(*LEGGED_DECO), staircase(10, 29))],
                         ids=["decorated-delta-55", "legged-deco-54"])
def test_decorated_inputs_accepted_and_equal_the_recursion(graph, k):
    strata.clear_cache()
    value = pullback_integral(graph, k)
    strata.clear_cache()
    assert value == _recursive(graph, k)
    assert value != 0


@pytest.mark.parametrize("graph, k", [(DualGraph(*DECORATED_DELTA), staircase(24, 72)),
                                      (DualGraph(*LEGGED_DECO), staircase(24, 71))],
                         ids=["decorated-delta-125", "legged-deco-124"])
def test_larger_decorated_inputs_refused_before_any_work(graph, k, monkeypatch):
    def no_factor(*args):
        raise AssertionError("vertex factor evaluated")

    strata.clear_cache()
    monkeypatch.setattr(strata, "_factor_value", no_factor)
    with pytest.raises(ValueError, match="too costly"):
        pullback_integral(graph, k)

