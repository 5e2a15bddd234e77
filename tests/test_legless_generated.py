"""The legless laws of ``test_legless_laws`` on every generated legless class.

The graphs are ``oracles.legless_graphs()``: every legless genus-2 graph with
vertex genera in {0, 1}, at most three edges, at most one unit psi per vertex
and codimension (edges plus decorations) at most 3, found by the kit's own
check of connectivity, stability and total genus.  Vertex labelings count
apart, so each class is checked under each of its labelings.  A class of
codimension 2 obeys P(k) = multinomial(n + 1; k) P((2,)) and one of
codimension 3 obeys P(k) = c(k) P(()), with c from the string and dilaton
laws alone.  The base values come from the kit's literal sum
(``oracles.stratum_sum``), never from the package.
"""

import pytest

from oracles import codimension, legless_graphs, point_coefficient, stratum_sum
from tautint.arith import multinomial, partitions
from tautint.strata import DualGraph, pullback_integral, total_genus, validate_graph

GRAPHS = legless_graphs()
BY_CODIMENSION = {c: [data for data in GRAPHS if codimension(data) == c] for c in (1, 2, 3)}


def graph_id(data):
    genera, edges, _ = data
    return "".join(map(str, genera)) + ":" + ",".join(
        f"{a}{'*' * pa}-{b}{'*' * pb}" for (a, pa), (b, pb) in edges)


def test_the_generated_set():
    assert {c: len(graphs) for c, graphs in BY_CODIMENSION.items()} == {1: 2, 2: 6, 3: 10}
    assert sum(stratum_sum(*data, ()) == 0 for data in BY_CODIMENSION[3]) == 4
    for data in GRAPHS:
        assert validate_graph(DualGraph(*data)).ok and total_genus(DualGraph(*data)) == 2


@pytest.mark.parametrize("data", BY_CODIMENSION[2], ids=graph_id)
def test_codimension_2_classes_are_multinomials(data):
    graph, base = DualGraph(*data), stratum_sum(*data, (2,))
    for n in range(1, 8):
        for k in partitions(n + 1, n):
            assert pullback_integral(graph, k) == multinomial(n + 1, k) * base, (n, k)


@pytest.mark.parametrize("data", BY_CODIMENSION[3], ids=graph_id)
def test_codimension_3_classes_follow_the_point_coefficients(data):
    graph, base = DualGraph(*data), stratum_sum(*data, ())
    assert pullback_integral(graph, ()) == base
    for n in range(1, 7):
        for k in partitions(n, n):
            assert pullback_integral(graph, k) == point_coefficient(k) * base, (n, k)
