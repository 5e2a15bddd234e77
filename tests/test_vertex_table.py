"""A graph's per-vertex fixed exponents come from one table, built once.

``fixed_exponents`` and ``valence`` must answer exactly what a scan of every
edge end and leg answers, for any int index, on valid graphs and on invalid
ones whose ends or legs reference vertices outside the graph.
"""

import time

from hypothesis import given, strategies as st

from tautint import psi, strata
from tautint.strata import DualGraph, pullback_integral, validate_graph


def scanned(graph, vertex):
    """The psi of every edge end, in edge order, then of every leg at ``vertex``."""
    exps = [end.psi for edge in graph.edges for end in edge if end.vertex == vertex]
    exps.extend(leg.psi for leg in graph.legs if leg.vertex == vertex)
    return tuple(exps)


def assert_matches_scan(graph, first=None):
    """Compare every index from -2 to V+2, plus every referenced vertex, with
    the scan; ``first`` is queried before the rest, to build the table."""
    referenced = {end.vertex for edge in graph.edges for end in edge}
    referenced.update(leg.vertex for leg in graph.legs)
    indices = [first] if first is not None else []
    indices += sorted(set(range(-2, graph.vertex_count + 3)) | referenced)
    for v in indices:
        assert graph.fixed_exponents(v) == scanned(graph, v), v
        assert graph.valence(v) == len(scanned(graph, v)), v


@st.composite
def loose_graphs(draw):
    """Graphs of up to five vertices whose genera, edge ends, legs and psi
    range past what validation accepts, with self-loops and repeated edges."""
    count = draw(st.integers(0, 5))
    genera = draw(st.lists(st.integers(-1, 3), min_size=count, max_size=count))
    vertex = st.integers(-3, count + 3)
    psi_value = st.integers(-2, 3)
    end = st.tuples(vertex, psi_value)
    edges = draw(st.lists(st.tuples(end, end), max_size=8))
    legs = draw(st.lists(st.tuples(vertex, psi_value), max_size=6))
    return DualGraph(tuple(genera), tuple(edges),
                     tuple((f"x{i}", v, p) for i, (v, p) in enumerate(legs)))


@given(loose_graphs(), st.integers(-4, 9))
def test_table_equals_scan_on_generated_graphs(graph, first):
    assert_matches_scan(graph, first)


def test_table_equals_scan_on_invalid_graphs():
    dangling_end = DualGraph((1, 0), (((0, 1), (3, 2)), (1, 1), (-1, 1)))
    dangling_leg = DualGraph((1, 0), ((0, 1), (1, 1)), (("x", 7, 2), ("y", -2), ("z", 1, 1)))
    negative_psi = DualGraph((1, 0), (((0, -1), (1, 0)), ((1, 2), (1, -3))), (("x", 1, -1),))
    no_vertices = DualGraph((), ((0, 0),), (("x", 0),))
    for graph in (dangling_end, dangling_leg, negative_psi, no_vertices):
        assert not validate_graph(graph).ok
        assert_matches_scan(graph)
    assert dangling_end.fixed_exponents(3) == (2,)
    assert dangling_end.fixed_exponents(-1) == (0,)
    assert dangling_leg.fixed_exponents(7) == (2,)
    assert negative_psi.fixed_exponents(1) == (0, -3, 2, -1)
    assert no_vertices.fixed_exponents(0) == (0, 0, 0)


def test_evaluator_reads_the_graphs_table():
    graph = DualGraph((0, 1, 0), ((0, 1), (1, 2), (2, 2)), (("x", 0), ("y", 0, 1)))
    psi.clear_cache()
    pullback_integral(graph, (2, 2))
    checked = strata._CHECKED[graph]
    assert checked == tuple((g, scanned(graph, v)) for v, g in enumerate(graph.genera))
    assert all(fixed is graph.fixed_exponents(v) for v, (_, fixed) in enumerate(checked))


def test_all_vertex_valence_on_a_long_legged_chain_is_fast():
    vertices = 4000
    genera = (1,) + (0,) * (vertices - 2) + (1,)
    edges = tuple((v, v + 1) for v in range(vertices - 1))
    legs = tuple((f"x{v}", v) for v in range(1, vertices - 1))
    graph = DualGraph(genera, edges, legs)
    started = time.monotonic()
    valences = [graph.valence(v) for v in range(vertices)]
    assert time.monotonic() - started < 0.5
    assert valences == [1] + [3] * (vertices - 2) + [1]
