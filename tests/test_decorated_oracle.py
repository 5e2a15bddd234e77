"""An oracle for decorated graphs that shares no code with the package: the
literal sum over all V^n mark assignments, with Dijkgraaf-Verlinde-Verlinde
vertex factors (see ``test_dvv_oracle``), built from ``math`` and ``Fraction``
only.

A unit psi decoration at a point h of a vertex is the psi class of h on the
vertex's own moduli space.  Pulled back along the map forgetting the new
marks, it is the psi class at h less the divisors where h bubbles off onto a
genus-0 component with a nonempty subset S of the marks.  So the decorated
vertex's factor is expanded here over the literal subsets S of its marks, one
term each: the bubble (h, the node and S) times the vertex with h undecorated
and the rest of the marks.
"""

import itertools
from fractions import Fraction

import pytest

from test_dvv_oracle import intersection
from tautint.strata import DualGraph, pullback_integral

# Decorated genus-2 graphs as (genera, edges, legs): an edge is a pair of
# (vertex, psi) ends, a leg a (vertex, psi).
GRAPHS = {
    "gamma-psi": ((1,), (((0, 1), (0, 0)),), ()),
    "legged-deco": ((1, 0), (((0, 0), (1, 0)), ((1, 1), (1, 0))), ((1, 0),)),
    "delta-deco-genus1": ((1, 0), (((0, 1), (1, 0)), ((1, 0), (1, 0))), ()),
    "delta-deco-genus0": ((1, 0), (((0, 0), (1, 1)), ((1, 0), (1, 0))), ()),
    "leg-deco-genus1": ((1, 1), (((0, 0), (1, 0)),), ((0, 1),)),
}
# How many of the multisets below have a nonzero value.  Decorating delta's
# genus-0 vertex pulls back psi from the point M_{0,3}, so it gives only 0s.
NONZERO = {"gamma-psi": 20, "legged-deco": 20, "delta-deco-genus1": 18,
           "delta-deco-genus0": 0, "leg-deco-genus1": 15}


def fixed_points(genera, edges, legs):
    """Each vertex's list of psi exponents at its edge ends and legs."""
    fixed = [[] for _ in genera]
    for vertex, psi in [end for edge in edges for end in edge] + list(legs):
        fixed[vertex].append(psi)
    return fixed


def vertex_factor(genus, fixed, marks):
    """The vertex's integral of its marks' psi monomial times the pullback of
    its decoration; fixed holds at most one 1 and otherwise 0s."""
    value = intersection(genus, list(marks) + fixed)
    if sum(fixed):
        undecorated = [0] * len(fixed)
        for size in range(1, len(marks) + 1):
            for bubbled in itertools.combinations(range(len(marks)), size):
                bubble = [marks[i] for i in bubbled] + [0, 0]
                rest = [x for i, x in enumerate(marks) if i not in bubbled]
                value -= intersection(0, bubble) * intersection(genus, rest + undecorated)
    return value


def stratum_sum(genera, edges, legs, k):
    """The pullback as the literal sum over the V^n assignments of the marks to
    vertices of the product of vertex factors."""
    fixed = fixed_points(genera, edges, legs)
    total = Fraction(0)
    for assignment in itertools.product(range(len(genera)), repeat=len(k)):
        value = Fraction(1)
        for v, genus in enumerate(genera):
            value *= vertex_factor(genus, fixed[v], [x for x, home in zip(k, assignment) if home == v])
            if not value:
                break
        total += value
    return total


@pytest.mark.parametrize("name", GRAPHS)
def test_literal_decorated_stratum_sum_equals_pullback(name):
    genera, edges, legs = GRAPHS[name]
    graph = DualGraph(genera, edges, tuple((f"x{i}", *leg) for i, leg in enumerate(legs)))
    nonzero = 0
    for n in range(6):
        for k in itertools.combinations_with_replacement(range(5), n):
            expected = stratum_sum(genera, edges, legs, k)
            assert pullback_integral(graph, k) == expected, k
            nonzero += expected != 0
    assert nonzero == NONZERO[name]
