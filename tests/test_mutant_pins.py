"""Pins on three details that the rest of the suite leaves free: the
fitting-partition count's early stop, the orbit cost model's nested-pair
term, and the half-edge slots that format_graph writes."""

from tautint import psi, strata
from tautint.strata import delta_graph, format_graph


def test_fitting_partition_count_runs_on_at_exactly_the_limit():
    # The count stops once past the limit, and a count of exactly the limit
    # is not past it, so the row after it is counted too.
    assert psi._fitting_partitions((3, 3, 2, 1), 10 ** 9) == 28
    assert psi._fitting_partitions((3, 3, 2, 1), 4) == 10


def test_two_undecorated_vertices_cost_twice_one():
    # With one or two vertices, no middle vertex and no decoration, the
    # estimate has no nested-pair term: one sub-multiset walk per vertex.
    for marks, counts in ((5, (2, 3)), (7, (1, 1, 4, 1)), (12, (6,))):
        one = strata._orbit_cost(marks, 1, counts)
        assert strata._orbit_cost(marks, 2, counts) == 2 * one


def test_format_graph_counts_half_edge_slots_from_zero():
    assert format_graph(delta_graph()) == (
        "v0 genus=1\nv1 genus=0\ne v0.h0 v1.h0\ne v1.h1 v1.h2\n"
    )
