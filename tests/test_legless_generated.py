"""The legless laws of ``test_legless_laws`` on every generated legless class.

The graphs are every legless genus-2 ``DualGraph`` that ``validate_graph``
accepts, with vertex genera in {0, 1}, at most three edges, at most one unit
psi per vertex and codimension (edges plus decorations) at most 3; a fourth
vertex would need a fourth edge.  Vertex labelings count apart, so each
class is checked under each of its labelings.  A class of codimension 2
obeys P(k) = multinomial(n + 1; k) P((2,)) and one of codimension 3 obeys
P(k) = c(k) P(()), with c from the string and dilaton laws alone.  The base
values come from the literal ``stratum_terms`` sum, never from
``pullback_integral``.
"""

import itertools
from fractions import Fraction

import pytest

from tautint.arith import multinomial, partitions
from tautint.strata import DualGraph, pullback_integral, stratum_terms, total_genus, validate_graph
from test_legless_laws import point_coefficient


def codimension(graph):
    return len(graph.edges) + sum(end.psi for edge in graph.edges for end in edge)


def legless_graphs():
    # A DualGraph sorts its edges and edge ends, so a psi on either end of a
    # loop, or on either of two parallel edges, is one graph: kept once, in order.
    graphs = {}
    for count in (1, 2, 3):
        pairs = [(a, b) for a in range(count) for b in range(a, count)]
        for genera, size in itertools.product(itertools.product((0, 1), repeat=count), range(4)):
            for edges in itertools.combinations_with_replacement(pairs, size):
                ends = list(itertools.product(range(size), (0, 1)))
                # Each vertex carries a unit psi on one of its edge ends, or none.
                choices = [[None] + [(e, side) for e, side in ends if edges[e][side] == v]
                           for v in range(count)]
                for marked in itertools.product(*choices):
                    graph = DualGraph(genera, tuple(
                        tuple((edges[e][side], int((e, side) in marked)) for side in (0, 1))
                        for e in range(size)))
                    if (validate_graph(graph).ok and total_genus(graph) == 2
                            and codimension(graph) <= 3):
                        graphs[graph] = None
    return list(graphs)


def stratum_sum(graph, k):
    return sum((term.value for term in stratum_terms(graph, k)), Fraction(0))


GRAPHS = legless_graphs()
BY_CODIMENSION = {c: [g for g in GRAPHS if codimension(g) == c] for c in (1, 2, 3)}


def graph_id(graph):
    edges = ",".join(f"{a.vertex}{'*' * a.psi}-{b.vertex}{'*' * b.psi}" for a, b in graph.edges)
    return "".join(map(str, graph.genera)) + ":" + edges


def test_the_generated_set():
    assert {c: len(graphs) for c, graphs in BY_CODIMENSION.items()} == {1: 2, 2: 6, 3: 10}
    assert sum(stratum_sum(graph, ()) == 0 for graph in BY_CODIMENSION[3]) == 4


@pytest.mark.parametrize("graph", BY_CODIMENSION[2], ids=graph_id)
def test_codimension_2_classes_are_multinomials(graph):
    base = stratum_sum(graph, (2,))
    for n in range(1, 8):
        for k in partitions(n + 1, n):
            assert pullback_integral(graph, k) == multinomial(n + 1, k) * base, (n, k)


@pytest.mark.parametrize("graph", BY_CODIMENSION[3], ids=graph_id)
def test_codimension_3_classes_follow_the_point_coefficients(graph):
    base = stratum_sum(graph, ())
    assert pullback_integral(graph, ()) == base
    for n in range(1, 7):
        for k in partitions(n, n):
            assert pullback_integral(graph, k) == point_coefficient(k) * base, (n, k)
