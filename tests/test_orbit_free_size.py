"""The orbit sum skips its cost estimate while marks x vertices <= _FREE_ORBIT_SIZE.

No such input can pass MAX_ORBIT_COST, so skipping the estimate refuses
nothing the estimate would have let through, and one more mark on one vertex
can pass it: the two constants move together."""

import pytest

from tautint import strata
from tautint.arith import partitions
from tautint.identities import verify
from tautint.strata import delta0_graph, delta_graph, pullback_integral


def worst_cost(vertices, marks):
    # The largest estimate over every multiset of ``marks`` exponents: the
    # estimate reads only the counts of the distinct exponents, which are
    # the parts of a partition of ``marks``.
    return max(strata._orbit_cost(marks, vertices, tuple(c for c in counts if c))
               for counts in partitions(marks, marks))


def test_free_size_fits_the_cost_bound():
    free = strata._FREE_ORBIT_SIZE
    worst = max(worst_cost(vertices, marks)
                for vertices in range(1, free + 1) for marks in range(1, free // vertices + 1))
    assert worst == free * 2 ** free  # one vertex, every exponent distinct
    assert worst <= strata.MAX_ORBIT_COST < worst_cost(1, free + 1)


@pytest.fixture
def estimates(monkeypatch):
    # The sizes (marks, vertices) that strata._orbit_cost was called with.
    calls = []

    def counting(marks, vertex_count, counts):
        calls.append((marks, vertex_count))
        return cost(marks, vertex_count, counts)

    cost = strata._orbit_cost
    monkeypatch.setattr(strata, "_orbit_cost", counting)
    strata.clear_cache()
    yield calls
    strata.clear_cache()


def test_cold_verify_to_ten_makes_no_estimate(estimates):
    assert len(list(verify(10))) == 183
    assert estimates == []


@pytest.mark.parametrize("graph, k, sizes", [
    (delta_graph(), (2, 2, 2) + (1,) * 5 + (0,) * 2, []),
    (delta_graph(), (3, 2, 2) + (1,) * 5 + (0,) * 3, [(11, 2)]),
    (delta0_graph(), (5, 4, 3, 2, 2) + (1,) * 6 + (0,) * 10, []),
    (delta0_graph(), (5, 4, 3, 3, 2) + (1,) * 6 + (0,) * 11, [(22, 1)]),
], ids=["delta-10", "delta-11", "delta0-21", "delta0-22"])
def test_the_estimate_runs_once_past_the_free_size(estimates, graph, k, sizes):
    assert sum(k) == len(k) + 1  # degree-matched, so the orbit sum runs
    assert pullback_integral(graph, k) != 0
    assert estimates == sizes
    pullback_integral(graph, k)  # a memo hit estimates nothing
    assert estimates == sizes
