"""A decorated vertex factor runs the string and dilaton laws over its marks,
so no bubble correction of its decoration is ever peeled; and the graph
recursion refuses a heavy decoration as the stratum sum does."""

from fractions import Fraction

import pytest

from tautint import strata
from tautint.arith import partitions
from tautint.strata import (DualGraph, UnsupportedDecorationError, _recursive, clear_cache,
                            gamma_psi_graph, pullback_integral)

HEAVY_LOOP = DualGraph((1,), (((0, 2), (0, 0)),))  # a self-loop with psi^2 on one end
BUBBLE = (0, (0, 0))  # the genus-0 vertex holding the decorated point, the node and marks


@pytest.mark.parametrize("k", [(1,), (0,)])
def test_graph_recursion_refuses_a_heavy_decoration(k):
    with pytest.raises(UnsupportedDecorationError, match="total degree >= 2"):
        _recursive(HEAVY_LOOP, k)
    with pytest.raises(UnsupportedDecorationError, match="total degree >= 2"):
        pullback_integral(HEAVY_LOOP, k)


def test_graph_recursion_of_a_heavy_decoration_without_marks():
    assert _recursive(HEAVY_LOOP, ()) == pullback_integral(HEAVY_LOOP, ()) == Fraction(1, 24)


def test_bubble_peel_runs_only_on_exponents_of_at_least_two(monkeypatch):
    # Stronger than the name: no bubble is peeled at all.  The only peels are
    # the orbit core's, one per cold orbit sum, over the graph's own vertex.
    peel, peeled = strata._peel, []

    def recorded(vertices, values, counts):
        peeled.append((vertices, values))
        return peel(vertices, values, counts)

    graph = gamma_psi_graph()
    inputs = [k for n in range(1, 11) for k in partitions(n + 1, n)]  # verify's, in its order
    clear_cache()
    monkeypatch.setattr(strata, "_peel", recorded)
    try:
        own = strata._vertices(graph)
        for k in inputs:
            pullback_integral(graph, k)
    finally:
        clear_cache()
    assert len(peeled) == len(inputs) > 0
    assert all(vertices == own for vertices, _ in peeled), peeled
    bubbles = [values for vertices, values in peeled if vertices[0] == BUBBLE]
    assert not bubbles and all(value >= 2 for values in bubbles for value in values), bubbles
