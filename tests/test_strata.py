"""Tests for dual graphs, validation, and stratum-pullback evaluation."""

import itertools
import operator
import os
import re
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (CHAIN3, DECORATED_DELTA, LEGGED_DECO, THETA, legged_chain, stratum_sum,
                     vertex_factor)
from tautint import psi, strata
from tautint.arith import partitions
from tautint.identities import pullback_delta_closed, pullback_delta_recursive
from tautint.psi import ModuliIndex, UnsupportedGenusError, psi_integral
from tautint.strata import (
    DualGraph,
    GraphParseError,
    InvalidGraphError,
    StrataExpression,
    UnsupportedDecorationError,
    delta0_graph,
    delta_graph,
    expression_integral,
    format_graph,
    gamma_psi_graph,
    parse_graph,
    pullback_integral,
    stratum_terms,
    total_genus,
    validate_graph,
)


class TestBuiltins:
    def test_delta(self):
        graph = delta_graph()
        assert validate_graph(graph).ok
        assert total_genus(graph) == 2
        assert graph.vertex_count == 2
        assert graph.valence(0) == 1 and graph.valence(1) == 3

    def test_delta0(self):
        graph = delta0_graph()
        assert validate_graph(graph).ok
        assert total_genus(graph) == 2
        assert graph.valence(0) == 4

    def test_gamma_psi(self):
        graph = gamma_psi_graph()
        assert validate_graph(graph).ok
        assert total_genus(graph) == 2
        assert graph.genera == (1,)
        assert graph.valence(0) == 2
        assert sorted(graph.fixed_exponents(0)) == [0, 1]


class TestValidation:
    def test_two_legged_rational_vertex_is_unstable(self):
        graph = DualGraph(genera=(0,), legs=(("a", 0), ("b", 0)))
        report = validate_graph(graph)
        assert not report.ok
        assert any(v.kind == "unstable-vertex" for v in report.violations)

    def test_disconnected(self):
        graph = DualGraph(genera=(1, 1))
        report = validate_graph(graph)
        assert any(v.kind == "disconnected" for v in report.violations)

    def test_bad_vertex_reference(self):
        graph = DualGraph(genera=(1,), edges=((0, 5),))
        assert any(v.kind == "bad-vertex-ref" for v in validate_graph(graph).violations)

    def test_duplicate_leg_labels(self):
        graph = DualGraph(genera=(1,), edges=((0, 0),), legs=(("x", 0), ("x", 0)))
        assert any(v.kind == "duplicate-leg-label" for v in validate_graph(graph).violations)

    def test_genus_two_vertex_flagged(self):
        graph = DualGraph(genera=(2,), legs=(("x", 0),))
        assert any(v.kind == "unsupported-genus" for v in validate_graph(graph).violations)

    def test_normalization_makes_equal_graphs_identical(self):
        one = DualGraph(genera=(1, 0), edges=((0, 1), (1, 1)))
        other = DualGraph(genera=(1, 0), edges=(((1, 0), (1, 0)), ((1, 0), (0, 0))))
        assert one == other
        assert hash(one) == hash(other)


class TestGraphCoercion:
    """Graph data is taken through operator.index: ints and bools at their
    value, never a float, str or Fraction that int() would truncate or parse."""

    @pytest.mark.parametrize("bad", [1.7, 0.9, 1.0, "1", Fraction(1)])
    @pytest.mark.parametrize("build", [
        lambda bad: DualGraph(genera=(bad, 0), edges=((0, 1), (1, 1))),
        lambda bad: DualGraph(genera=(1, 0), edges=((0, bad), (1, 1))),
        lambda bad: DualGraph(genera=(1, 0), edges=(((0, bad), 1), (1, 1))),
        lambda bad: DualGraph(genera=(1, 0), edges=((0, 1), (1, 1)), legs=(("x", bad),)),
        lambda bad: DualGraph(genera=(1, 0), edges=((0, 1), (1, 1)), legs=(("x", 1, bad),)),
    ], ids=["genus", "edge-vertex", "edge-psi", "leg-vertex", "leg-psi"])
    def test_non_integral_data_rejected_not_truncated(self, build, bad):
        with pytest.raises(ValueError, match=f"must be integers, got {re.escape(repr(bad))}"):
            build(bad)

    def test_bools_count_as_their_value(self):
        graph = DualGraph(genera=(True, False), edges=((False, True), ((True, False), True)),
                          legs=(("x", True, False),))
        plain = DualGraph(genera=(1, 0), edges=((0, 1), (1, 1)), legs=(("x", 1),))
        assert graph == plain and hash(graph) == hash(plain)
        assert format_graph(graph) == format_graph(plain)
        assert all(type(v) is int for v in graph.genera)
        assert all(type(v) is int for edge in graph.edges for end in edge for v in end)
        assert all(type(v) is int for leg in graph.legs for v in leg[1:])


class TestPullbackIntegral:
    @pytest.mark.parametrize(
        "graph, k, expected",
        [
            (delta_graph(), (2,), Fraction(1, 24)),
            (delta_graph(), (2, 1), Fraction(1, 8)),
            (delta0_graph(), (2,), Fraction(1)),
            (gamma_psi_graph(), (2,), Fraction(1, 12)),
            (gamma_psi_graph(), (3, 0), Fraction(1, 12)),
        ],
    )
    def test_known_values(self, graph, k, expected):
        assert pullback_integral(graph, k) == expected

    def test_delta_two_stratum_breakdown(self):
        terms = list(stratum_terms(delta_graph(), (2,)))
        assert sorted(term.value for term in terms) == [0, Fraction(1, 24)]
        (main,) = [term for term in terms if term.value != 0]
        factor_values = sorted(factor.value for factor in main.factors)
        assert factor_values == [Fraction(1, 24), Fraction(1)]

    @pytest.mark.parametrize("n", range(0, 9))
    def test_delta_visits_two_to_the_n_strata(self, n):
        k = (2,) + (1,) * (n - 1) if n else ()
        assert sum(1 for _ in stratum_terms(delta_graph(), k)) == 2 ** n

    def test_delta_dimension_bookkeeping(self):
        # Vertex dimensions always sum to n+1; a stratum contributes exactly
        # when the exponent degree splits to match both dimensions.
        for n in range(1, 7):
            for k in partitions(n + 1, n):
                for term in stratum_terms(delta_graph(), k):
                    dims = [factor.space.dimension for factor in term.factors]
                    assert sum(dims) == n + 1
                    matched = all(
                        sum(factor.exponents) == factor.space.dimension
                        for factor in term.factors
                    )
                    assert (term.value != 0) == matched

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", Fraction(2)])
    def test_non_integer_exponents_rejected_not_truncated(self, bad):
        for evaluate in (pullback_integral, lambda g, k: list(stratum_terms(g, k))):
            with pytest.raises(ValueError, match="must be integers"):
                evaluate(delta_graph(), (bad, 1))

    def test_int_subclass_exponents_count_as_their_value(self):
        class Exponent(int):
            pass

        strata.clear_cache()
        assert pullback_integral(delta_graph(), (Exponent(2), True)) == Fraction(1, 8)
        assert pullback_integral(delta_graph(), iter([True, 2, True])) == Fraction(1, 2)
        # keyed by psi._key of the plain values: (2, 1) and (2, 1, 1)
        assert list(strata._PULLBACK_CACHE) == [(delta_graph(), "\x02\x01"), (delta_graph(), "\x02\x01\x01")]
        assert all(type(key) is str for _, key in strata._PULLBACK_CACHE)

    @given(st.permutations([3, 1, 1, 0]))
    def test_relabeling_invariance(self, k):
        assert pullback_integral(delta_graph(), k) == pullback_integral(delta_graph(), (3, 1, 1, 0))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_decorated_loop_matches_reduction(self, n):
        # The decorated loop class equals 1/24 of the two-loop stratum plus
        # the mixed stratum, so their pullback integrals agree for every K.
        for k in partitions(n + 1, n):
            lhs = pullback_integral(gamma_psi_graph(), k)
            rhs = (
                Fraction(1, 24) * pullback_integral(delta0_graph(), k)
                + pullback_integral(delta_graph(), k)
            )
            assert lhs == rhs, k

    def test_legged_graph_counts_legs_as_points(self):
        data = ((1, 0), ((0, 1), (1, 1)), (("p", 0),))
        # the kit's Fubini sum over the four mark assignments, the leg a point of v0
        expected = stratum_sum(*data, (3, 1))
        assert expected == Fraction(1, 6)
        assert pullback_integral(DualGraph(*data), (3, 1)) == expected

    def test_empty_marks_allowed(self):
        assert pullback_integral(delta_graph(), ()) == 0
        assert total_genus(DualGraph(*THETA)) == 2
        assert pullback_integral(DualGraph(*THETA), ()) == 1

    def test_decorations_without_marks_evaluate_directly(self):
        loop_psi2 = DualGraph(genera=(1,), edges=(((0, 2), (0, 0)),))
        assert pullback_integral(loop_psi2, ()) == Fraction(1, 24)

    def test_heavy_decoration_with_marks_rejected(self):
        loop_psi2 = DualGraph(genera=(1,), edges=(((0, 2), (0, 0)),))
        with pytest.raises(UnsupportedDecorationError):
            pullback_integral(loop_psi2, (1,))

    def test_invalid_graph_rejected(self):
        broken = DualGraph(genera=(1, 1))  # disconnected
        with pytest.raises(InvalidGraphError) as excinfo:
            pullback_integral(broken, (1,))
        assert not excinfo.value.report.ok

    def test_invalid_graph_reported_before_negative_exponent(self):
        broken = DualGraph(genera=(1, 1))
        with pytest.raises(InvalidGraphError):
            pullback_integral(broken, (1, -1))
        with pytest.raises(ValueError, match="nonnegative"):
            pullback_integral(delta_graph(), (1, -1))

    def test_stratum_terms_reports_bad_graph_before_negative_exponent(self):
        with pytest.raises(InvalidGraphError):
            next(stratum_terms(DualGraph(genera=(1, 1)), (1, -1)))

    def test_genus_two_vertex_rejected(self):
        graph = DualGraph(genera=(2,), legs=(("x", 0),))
        with pytest.raises(UnsupportedGenusError):
            pullback_integral(graph, (1,))

    def test_wrong_total_genus_rejected(self):
        graph = DualGraph(genera=(1,), legs=(("x", 0),))
        with pytest.raises(ValueError, match="total genus"):
            pullback_integral(graph, (1,))


LAW_GRAPHS = {
    "delta": delta_graph(),
    "delta0": delta0_graph(),
    "gamma-psi": gamma_psi_graph(),
    "legged-loop": DualGraph((1,), ((((0, 1), (0, 0))),), (("x", 0),)),
    "legged-two-vertex": DualGraph((1, 0), ((0, 1), (1, 1)), (("x", 1), ("y", 0))),
}
LAW_EXPONENTS = [k for n in range(5) for k in itertools.product(range(5), repeat=n)]


class TestGraphStringDilaton:
    """String and dilaton laws of any forgetful pullback, on every k with
    n <= 4 marks and exponents <= 4."""

    @pytest.mark.parametrize("name", LAW_GRAPHS)
    def test_string_law(self, name):
        graph = LAW_GRAPHS[name]
        for k in LAW_EXPONENTS:
            expanded = sum(
                (pullback_integral(graph, k[:j] + (k[j] - 1,) + k[j + 1:])
                 for j in range(len(k)) if k[j] > 0),
                Fraction(0),
            )
            assert pullback_integral(graph, k + (0,)) == expanded, k

    @pytest.mark.parametrize("name", LAW_GRAPHS)
    def test_dilaton_law(self, name):
        graph = LAW_GRAPHS[name]
        factor = 2 + len(graph.legs)  # 2g - 2 + legs, plus one per mark
        for k in LAW_EXPONENTS:
            expected = (factor + len(k)) * pullback_integral(graph, k)
            assert pullback_integral(graph, k + (1,)) == expected, k


ORBIT_GRAPHS = dict(LAW_GRAPHS, chain3=DualGraph(*CHAIN3), chain4=DualGraph(*legged_chain(4)),
                    **{"legged-deco": DualGraph(*LEGGED_DECO)})


class TestOrbitSum:
    def test_fixture_graphs_are_evaluable(self):
        for graph in [DualGraph(*data) for data in (CHAIN3, LEGGED_DECO, legged_chain(12))]:
            assert validate_graph(graph).ok
            assert total_genus(graph) == 2

    @pytest.mark.parametrize("name", ORBIT_GRAPHS)
    def test_orbit_sum_equals_enumeration(self, name):
        # every multiset of entries <= 3, so both matched and mismatched degrees
        graph = ORBIT_GRAPHS[name]
        n_max = {1: 7, 2: 7, 3: 5, 4: 4}[graph.vertex_count]
        for n in range(n_max + 1):
            for k in itertools.combinations_with_replacement(range(4), n):
                strata.clear_cache()
                enumerated = sum((term.value for term in stratum_terms(graph, k)), Fraction(0))
                strata.clear_cache()
                assert pullback_integral(graph, k) == enumerated, k

    def test_warm_orbit_sums_equal_enumeration(self):
        # The inputs above plus a five-vertex chain's many 1s and 0s, one after
        # another on shared memos: a vertex's factors are read from its family
        # when an earlier sum stored them, zeros too, and computed otherwise.
        cases = [(graph, k) for graph in ORBIT_GRAPHS.values()
                 for n in range({1: 7, 2: 7, 3: 5, 4: 4}[graph.vertex_count] + 1)
                 for k in itertools.combinations_with_replacement(range(4), n)]
        chain5 = DualGraph(*legged_chain(5))
        cases += [(chain5, k) for n in range(6) for k in degree_matched(chain5, n, 3)]
        strata.clear_cache()
        enumerated = [sum((term.value for term in stratum_terms(graph, k)), Fraction(0))
                      for graph, k in cases]
        strata.clear_cache()
        for (graph, k), expected in zip(cases, enumerated):
            assert pullback_integral(graph, k) == expected, (graph, k)

    @pytest.mark.parametrize("graph", [delta_graph(), DualGraph(*CHAIN3), DualGraph(*LEGGED_DECO)],
                             ids=["delta", "chain3", "legged-deco"])
    def test_repeated_orbit_sum_makes_no_vertex_factor_call(self, graph, monkeypatch):
        def no_factor(*args):
            raise AssertionError("vertex factor evaluated")

        strata.clear_cache()
        keys = [psi._key(k) for n in range(1, 8) for k in degree_matched(graph, n, 3)]
        first = [strata._orbit_sum(graph, key) for key in keys]
        monkeypatch.setattr(strata, "_factor_value", no_factor)
        assert [strata._orbit_sum(graph, key) for key in keys] == first
        assert any(first)

    @pytest.mark.parametrize("graph", [DualGraph(*LEGGED_DECO), gamma_psi_graph(), LAW_GRAPHS["legged-loop"]])
    def test_decorated_factor_matches_subset_expansion(self, graph):
        decorated = [v for v in range(graph.vertex_count) if sum(graph.fixed_exponents(v))]
        assert decorated
        for n in range(1, 6):
            for k in itertools.combinations_with_replacement(range(4), n):
                for term in stratum_terms(graph, k):
                    for v in decorated:
                        fixed = graph.fixed_exponents(v)
                        factor = term.factors[v]
                        assigned = factor.exponents[:len(factor.exponents) - len(fixed)]
                        assert factor.value == vertex_factor(graph.genera[v], fixed, assigned), k

    def test_wrong_degree_returns_zero_before_any_vertex_factor(self, monkeypatch):
        def no_factor(*args):
            raise AssertionError("vertex factor evaluated")

        strata.clear_cache()
        monkeypatch.setattr(strata, "_factor_value", no_factor)
        # chain3 needs total degree n+1; 21 marks of degree 42 give 3^21 zero strata
        assert pullback_integral(DualGraph(*CHAIN3), (2,) * 21) == 0
        assert pullback_integral(delta_graph(), (2, 1) + (0,) * 28) == 0

    def test_costly_input_refused_before_any_work(self, monkeypatch):
        def no_factor(*args):
            raise AssertionError("vertex factor evaluated")

        strata.clear_cache()
        monkeypatch.setattr(strata, "_factor_value", no_factor)
        graph = DualGraph(*legged_chain(12))
        k = (3,) * 6 + (2,) * 6 + (1,) * 6 + (0,) * 17  # degree n+1, as the chain needs
        with pytest.raises(ValueError, match="too costly"):
            pullback_integral(graph, k)

    @pytest.mark.parametrize("graph", [delta_graph(), gamma_psi_graph(), DualGraph(*CHAIN3),
                                       DualGraph(*LEGGED_DECO), DualGraph(*DECORATED_DELTA)],
                             ids=["delta", "gamma-psi", "chain3", "legged-deco", "decorated-delta"])
    def test_vertex_factors_of_a_cold_orbit_sum_within_its_cost(self, graph, monkeypatch):
        # The guard's estimate bounds the walk: every vertex factor one cold
        # orbit sum asks for, a decorated vertex's as an undecorated one's.
        calls = 0
        factor_value = strata._factor_value

        def counted(*args):
            nonlocal calls
            calls += 1
            return factor_value(*args)

        monkeypatch.setattr(strata, "_factor_value", counted)
        vertices = strata._vertices(graph)
        checked = 0
        for n in range(1, 9):
            for k in degree_matched(graph, n, 4):
                k = psi._key(k)
                psi.clear_cache()
                calls = 0
                strata._orbit_sum(graph, k)
                counts = strata._runs(k)[1]
                assert 0 < calls <= strata._orbit_cost(n, len(vertices), counts), k
                checked += 1
        assert checked > 8

    def test_decorated_delta_without_marks_equals_its_one_stratum(self):
        # The peel runs over an empty multiset; the one stratum is the graph's own class.
        strata.clear_cache()
        graph = DualGraph(*DECORATED_DELTA)
        enumerated = sum((term.value for term in stratum_terms(graph)), Fraction(0))
        strata.clear_cache()
        assert pullback_integral(graph) == enumerated == Fraction(1, 24)

    def test_long_chain_input_allowed(self):
        # 150 marks on three vertices stay under the cost limit; the value
        # obeys the dilaton law (factor 2g-2 + legs + marks = 2 + 2 + 149).
        strata.clear_cache()
        shorter = pullback_integral(DualGraph(*CHAIN3), (2,) + (1,) * 148)
        assert shorter != 0
        assert pullback_integral(DualGraph(*CHAIN3), (2,) + (1,) * 149) == 153 * shorter

    def test_clear_cache_drops_vertex_factors(self):
        strata.clear_cache()
        pullback_integral(DualGraph(*LEGGED_DECO), (2, 1, 1))
        assert psi._GRAPH_MEMO and strata._PULLBACK_CACHE
        strata.clear_cache()
        assert not psi._GRAPH_MEMO and not strata._PULLBACK_CACHE

    def test_graph_checked_once_over_many_misses(self, monkeypatch):
        calls = []

        def counted(graph):
            calls.append(graph)
            return validate_graph(graph)

        monkeypatch.setattr(strata, "validate_graph", counted)
        strata.clear_cache()
        for n in range(1, 7):
            for k in partitions(n + 1, n):
                pullback_integral(delta_graph(), k)
        assert calls == [delta_graph()]
        broken = DualGraph(genera=(1, 1))
        for _ in range(2):  # a failed check is not remembered
            with pytest.raises(InvalidGraphError):
                pullback_integral(broken, (1,))
        assert calls == [delta_graph(), broken, broken]


def degree_matched(graph, n, top):
    """The multisets of n exponents <= top whose degree is the pullback's
    dimension 3 + n + legs - edges - decorations."""
    decorations = sum(sum(graph.fixed_exponents(v)) for v in range(graph.vertex_count))
    degree = 3 + n + len(graph.legs) - len(graph.edges) - decorations
    return [k for k in itertools.combinations_with_replacement(range(top + 1), n) if sum(k) == degree]


@st.composite
def genus2_graphs(draw):
    """Valid genus-2 dual graphs: up to three vertices of genus <= 1, a
    spanning tree plus 2 - sum(genera) more edges (loops allowed), the legs a
    vertex needs to be stable plus up to one more, and at most one unit
    decoration per vertex."""
    count = draw(st.integers(1, 3))
    genera = draw(st.lists(st.integers(0, 1), min_size=count, max_size=count)
                  .filter(lambda genera: sum(genera) <= 2))
    vertex = st.integers(0, count - 1)
    edges = [[draw(st.integers(0, v - 1)), v] for v in range(1, count)]
    edges += [[draw(vertex), draw(vertex)] for _ in range(2 - sum(genera))]
    legs = []
    for v, genus in enumerate(genera):
        valence = sum(end == v for edge in edges for end in edge)
        for _ in range(max(0, 3 - 2 * genus - valence) + draw(st.integers(0, 1))):
            legs.append([f"x{len(legs)}", v])
    # half-edges as (edge, end) or (leg,); decorate at most one per vertex
    psi_edges = [[0, 0] for _ in edges]
    psi_legs = [0] * len(legs)
    for v in range(count):
        slots = [(i, j) for i, edge in enumerate(edges) for j in (0, 1) if edge[j] == v]
        slots += [(i,) for i, leg in enumerate(legs) if leg[1] == v]
        slot = draw(st.none() | st.sampled_from(slots))
        if slot is None:
            continue
        if len(slot) == 2:
            psi_edges[slot[0]][slot[1]] = 1
        else:
            psi_legs[slot[0]] = 1
    return DualGraph(
        tuple(genera),
        tuple(((a, pa), (b, pb)) for (a, b), (pa, pb) in zip(edges, psi_edges)),
        tuple((label, v, p) for (label, v), p in zip(legs, psi_legs)),
    )


@st.composite
def graphs_with_marks(draw, max_marks=5):
    """A genus-2 graph and up to ``max_marks`` exponents, mostly of the
    degree its pullback needs, in any order."""
    graph = draw(genus2_graphs())
    n = draw(st.integers(0, max_marks))
    matched = degree_matched(graph, n, 4)
    if matched and draw(st.booleans()):
        k = draw(st.sampled_from(matched))
    else:
        k = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    return graph, tuple(draw(st.permutations(k)))


class TestGeneratedGraphs:
    @given(genus2_graphs())
    def test_generated_graphs_are_evaluable(self, graph):
        assert validate_graph(graph).ok
        assert total_genus(graph) == 2
        assert all(sum(graph.fixed_exponents(v)) <= 1 for v in range(graph.vertex_count))

    @given(genus2_graphs())
    def test_text_round_trip(self, graph):
        assert parse_graph(format_graph(graph)) == graph

    @settings(deadline=None)
    @given(graphs_with_marks())
    def test_orbit_sum_equals_enumeration_and_recursion(self, case):
        graph, k = case
        strata.clear_cache()
        value = pullback_integral(graph, k)
        assert value == sum((term.value for term in stratum_terms(graph, k)), Fraction(0))
        assert value == strata._recursive(graph, k)


@st.composite
def relabelled(draw, max_marks=5):
    """A graph with marks, and the same graph with its vertices renumbered:
    genera permuted and every edge end and leg moved to the new number."""
    graph, k = draw(graphs_with_marks(max_marks))
    order = draw(st.permutations(range(graph.vertex_count)))
    genera = [0] * graph.vertex_count
    for v, genus in enumerate(graph.genera):
        genera[order[v]] = genus
    edges = tuple(((order[a.vertex], a.psi), (order[b.vertex], b.psi)) for a, b in graph.edges)
    legs = tuple((leg.label, order[leg.vertex], leg.psi) for leg in graph.legs)
    return graph, DualGraph(tuple(genera), edges, legs), k


@settings(deadline=None)
@given(relabelled())
def test_vertex_relabelling_leaves_pullback_unchanged(case):
    # DualGraph equality is structural, so the renumbered graph is a new memo
    # key and its orbit peel runs over the vertices in another order.
    graph, renumbered, k = case
    assert validate_graph(renumbered).ok
    strata.clear_cache()
    value = pullback_integral(graph, k)
    strata.clear_cache()
    assert pullback_integral(renumbered, k) == value


class TestIntegerMemos:
    """The strata layer keeps ints scaled by 24^genus; the edges divide."""

    def test_memos_hold_ints_and_public_values_are_fractions(self):
        psi.clear_cache()
        strata.clear_cache()
        graph = DualGraph(*LEGGED_DECO)
        for n in range(1, 6):
            for k in degree_matched(graph, n, 3):
                value = pullback_integral(graph, k)
                assert type(value) is Fraction
                assert value == sum((term.value for term in stratum_terms(graph, k)), Fraction(0))
        for n in range(1, 9):
            for k in partitions(n + 1, n):
                value = pullback_delta_recursive(n, k)
                assert type(value) is Fraction
                assert value == pullback_delta_closed(n, k)
                # delta's vertex genera add up to 1
                assert psi._GRAPH_MEMO[delta_graph()][psi._key(k)] == 24 * value
        assert psi._GRAPH_MEMO
        assert all(type(value) is int for memo in psi._GRAPH_MEMO.values() for value in memo.values())
        assert all(type(value) is Fraction for value in strata._PULLBACK_CACHE.values())
        assert type(psi_integral(ModuliIndex(1, 2), (1, 1))) is Fraction

    def test_each_factor_is_24_to_the_genus_times_its_value(self):
        strata.clear_cache()
        graph = DualGraph(*LEGGED_DECO)
        for n in range(1, 6):
            for k in degree_matched(graph, n, 3):
                pullback_integral(graph, k)
        pullback_delta_recursive(1, (2,))
        decorated = 0
        factors = [(family, psi._exponents(key), scaled)
                   for family, memo in psi._GRAPH_MEMO.items() for key, scaled in memo.items()]
        for family, assigned, scaled in factors:
            if not isinstance(family, tuple):
                continue  # a graph's recursion, not a vertex factor
            genus, fixed = family
            factor = strata._vertex_factor(genus, fixed, assigned)
            assert type(factor.value) is Fraction
            assert scaled == 24 ** genus * factor.value
            # and the value itself, by the oracle kit's, which never scales
            assert factor.value == vertex_factor(genus, fixed, assigned)
            decorated += sum(fixed) > 0
        assert decorated


class TestGraphEngine:
    """The paper's induction: string and dilaton laws on a graph, down to the
    stratum sum."""

    @pytest.mark.parametrize("name", ORBIT_GRAPHS)
    def test_recursion_equals_orbit_sum(self, name):
        graph = ORBIT_GRAPHS[name]
        n_max = {1: 7, 2: 7, 3: 6, 4: 5}[graph.vertex_count]
        psi.clear_cache()
        strata.clear_cache()
        inputs = [k for n in range(n_max + 1) for k in degree_matched(graph, n, 4)]
        assert len(inputs) > n_max
        for k in inputs:
            assert strata._recursive(graph, k) == pullback_integral(graph, k), k

    def test_base_reached_only_where_every_exponent_is_at_least_two(self, monkeypatch):
        graph = LAW_GRAPHS["legged-two-vertex"]
        seen = []
        orbit_sum = strata._orbit_sum

        def recorded(graph, k):
            seen.append(k)
            return orbit_sum(graph, k)

        monkeypatch.setattr(strata, "_orbit_sum", recorded)
        psi.clear_cache()
        strata._recursive(graph, (3, 2, 1, 1, 0, 0, 0))
        assert seen and all(min(k, default=2) >= 2 for k in seen)


def sub_multisets_by_filter(counts, values, need):
    """The definition: every sub-multiset, kept when its sum of (x - 1) is need."""
    weights = [x - 1 for x in values]
    return [taken for taken in itertools.product(*(range(count + 1) for count in counts))
            if sum(map(operator.mul, weights, taken)) == need]


class TestSubMultisets:
    """The peel's walk over degree-matched splits, against its definition.

    Runs are laid out as ``strata._runs`` lays them: the values above 1,
    descending, then the 1 run and the 0 run, either of which may be empty."""

    @staticmethod
    def walked(counts, values, need):
        assert values[-2:] == (1, 0) and all(x > 1 for x in values[:-2]), values
        *big, ones, zeros = counts
        splits = strata._sub_multisets(big, [x - 1 for x in values[:-2]], need, zeros)
        # each split holds every count of 1s, which the peel ranges itself
        walked = [taken + (one, drop) for taken, drop in splits for one in range(ones + 1)]
        assert len(walked) == len(set(walked)), (counts, values, need)
        return sorted(walked)

    def test_seeded_random_runs_match_the_filtered_product(self):
        rng = random.Random(2024)
        for _ in range(3000):
            values = tuple(sorted(rng.sample(range(2, 7), rng.randint(0, 5)), reverse=True)) + (1, 0)
            counts = tuple(rng.randint(0, 5) for _ in values)
            need = rng.randint(-6, 8)
            assert self.walked(counts, values, need) == sub_multisets_by_filter(counts, values, need)

    @pytest.mark.parametrize("values, counts", [
        ((1, 0), (0, 0)),                 # the empty multiset
        ((4, 2, 1, 0), (2, 3, 1, 0)),     # no 0s
        ((3, 2, 1, 0), (2, 1, 0, 4)),     # no 1s
        ((1, 0), (0, 5)),                 # only 0s
        ((1, 0), (3, 0)),                 # only 1s
        ((1, 0), (2, 3)),                 # 1s and 0s
        ((5, 3, 2, 1, 0), (1, 2, 2, 3, 4)),
    ])
    def test_edges_match_the_filtered_product(self, values, counts):
        weights = [x - 1 for x in values]
        top = sum(w * c for w, c in zip(weights, counts) if w > 0)
        bottom = -counts[-1]
        for need in range(bottom - 2, top + 3):  # out of reach below and above, too
            expected = sub_multisets_by_filter(counts, values, need)
            assert self.walked(counts, values, need) == expected, need
            assert bool(expected) == (bottom <= need <= top), need

    def test_empty_multiset_yields_the_empty_split_iff_nothing_is_needed(self):
        assert list(strata._sub_multisets((), [], 0, 0)) == [((), 0)]
        assert list(strata._sub_multisets((), [], 1, 0)) == []
        assert list(strata._sub_multisets((), [], -1, 0)) == []


def test_every_split_has_one_count_per_run(monkeypatch):
    # Every degree-matched k with n <= 6 on legged chains of 4-6 vertices,
    # whose marks include 0s that a middle vertex may leave none of.  A peel
    # state is big + (ones, zeros), so it has one count per run when big has
    # one per run above 1, as weights has.
    walk = strata._sub_multisets
    splits, short = [], []

    def checked(big, weights, need, zeros):
        for taken, drop in walk(big, weights, need, zeros):
            splits.append(taken)
            if not len(taken) == len(big) == len(weights) or not 0 <= drop <= zeros:
                short.append((big, zeros, taken, drop))
            yield taken, drop

    monkeypatch.setattr(strata, "_sub_multisets", checked)
    for vertex_count in (4, 5, 6):
        graph = DualGraph(*legged_chain(vertex_count))
        degree = 3 + len(graph.legs) - len(graph.edges)
        for n in range(7):
            for k in itertools.combinations_with_replacement(range(degree + n, -1, -1), n):
                if sum(k) == degree + n:
                    strata._orbit_sum(graph, psi._key(k))
    assert splits and not short, f"{len(short)} of {len(splits)} splits short, first {short[:1]}"


class TestStrataExpression:
    def test_empty_expression_is_zero(self):
        assert expression_integral(StrataExpression(), (2,)) == 0

    @pytest.mark.parametrize("expression", [
        StrataExpression(), StrataExpression(((Fraction(1), delta_graph()),))])
    def test_exponents_checked_even_without_terms(self, expression):
        with pytest.raises(ValueError, match="must be integers, got 1.5"):
            expression_integral(expression, (1.5, -2))
        with pytest.raises(ValueError, match=r"^exponents must be nonnegative, got \(2, -1\)$"):
            expression_integral(expression, (2, -1))
        assert expression_integral(expression, iter((2,))) == expression_integral(expression, (2,))

    def test_single_term(self):
        expr = StrataExpression(((Fraction(1), delta_graph()),))
        assert expression_integral(expr, (2,)) == Fraction(1, 24)

    def test_decorated_form_value(self):
        expr = StrataExpression((
            (Fraction(1, 240), gamma_psi_graph()),
            (Fraction(1, 1152), delta0_graph()),
        ))
        assert expression_integral(expr, (2,)) == Fraction(7, 5760)

    def test_duplicate_graphs_combine(self):
        expr = StrataExpression((
            (Fraction(1, 3), delta_graph()),
            (Fraction(2, 3), delta_graph()),
        ))
        assert expr.terms == ((Fraction(1), delta_graph()),)

    @pytest.mark.parametrize("bad", [0.1, 1.0, "1/3", None])
    def test_coefficients_neither_rounded_nor_parsed(self, bad):
        with pytest.raises(ValueError, match="^coefficients must be integers or Fractions, got "
                                             + re.escape(repr(bad)) + "$"):
            StrataExpression(((Fraction(1), delta0_graph()), (bad, delta_graph())))

    def test_int_bool_and_fraction_coefficients_accepted(self):
        expr = StrataExpression(((1, delta_graph()), (True, delta_graph()), (Fraction(1, 3), delta0_graph())))
        assert expr.terms == ((Fraction(2), delta_graph()), (Fraction(1, 3), delta0_graph()))

    def test_cancelling_terms_drop(self):
        expr = StrataExpression((
            (Fraction(1), delta_graph()),
            (Fraction(-1), delta_graph()),
        ))
        assert expr.terms == ()


class TestGraphHash:
    LEGGED = DualGraph(*LEGGED_DECO)

    @pytest.mark.parametrize("build", [delta_graph, lambda: DualGraph(*LEGGED_DECO)],
                             ids=["delta", "legged-deco"])
    def test_hash_computed_once_with_the_dataclass_value(self, build):
        graph = build()
        assert hash(graph) == hash((graph.genera, graph.edges, graph.legs))
        object.__setattr__(graph, "_hash", 12345)  # the stored value is what hash() reads
        assert hash(graph) == 12345

    def test_hash_field_is_invisible(self):
        graph = self.LEGGED
        rebuilt = DualGraph(genera=(1, 0), edges=(((1, 0), (1, 1)), (1, 0)), legs=(("x", 1, 0),))
        assert rebuilt == graph and hash(rebuilt) == hash(graph)
        assert "_hash" not in repr(graph)
        assert repr(graph).endswith("legs=(Leg(label='x', vertex=1, psi=0),))")
        assert DualGraph.__match_args__ == ("genera", "edges", "legs")

    def test_unpickled_graph_rehashes_in_the_new_process(self):
        # str hashes differ between processes, so a pickled graph must not
        # carry its hash along.
        code = (
            "import pickle, sys; from tautint.strata import DualGraph; "
            "sys.stdout.buffer.write(pickle.dumps("
            "DualGraph(genera=(1, 0), edges=((0, 1), ((1, 1), (1, 0))), legs=(('x', 1),))))"
        )
        env = dict(os.environ, PYTHONHASHSEED="1")  # conftest puts src/ on PYTHONPATH
        dumped = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                check=True).stdout
        loaded = pickle.loads(dumped)
        assert loaded == self.LEGGED and hash(loaded) == hash(self.LEGGED)
        assert {self.LEGGED: 1}[loaded] == 1


class TestGraphText:
    @pytest.mark.parametrize("graph", [delta_graph(), delta0_graph(), gamma_psi_graph()])
    def test_builtin_round_trip(self, graph):
        assert parse_graph(format_graph(graph)) == graph

    def test_parse_with_comments_legs_and_decorations(self):
        text = """
        # a decorated two-vertex graph
        v0 genus=1
        v1 genus=0

        e v0.h0 v1.h0 psi=1   # decorated on the v0 end
        e v1.h1 v1.h2
        leg marked v1 psi=2
        """
        graph = parse_graph(text)
        assert graph.genera == (1, 0)
        assert graph.legs == (("marked", 1, 2),)
        assert sorted(graph.fixed_exponents(0)) == [1]
        round_tripped = parse_graph(format_graph(graph))
        assert round_tripped == graph

    def test_parse_two_end_decoration(self):
        graph = parse_graph("v0 genus=1\ne v0.h0 v0.h1 psi=1,2\n")
        assert sorted(graph.fixed_exponents(0)) == [1, 2]

    @pytest.mark.parametrize(
        "text",
        [
            "",                                   # no vertices
            "v1 genus=0\n",                       # indices must start at v0
            "v0 genus=x\n",                       # malformed genus
            "v0 genus=0\ne v0.h0 v1.h0\n",        # undeclared vertex
            "v0 genus=0\ne v0.h0 v0.h0\n",        # half-edge reused
            "v0 genus=0\ne v0.h0\n",              # missing endpoint
            "v0 genus=0\ne v0.h0 v0.h1 psi=-1\n",  # negative decoration
            "v0 genus=0\nleg a v0\nleg a v0\n",   # duplicate label
            "wibble\n",                           # unknown line
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(GraphParseError):
            parse_graph(text)


@settings(deadline=None)
@given(st.tuples(genus2_graphs(), st.integers(0, 4)))
@pytest.mark.parametrize("evaluate", [pullback_integral, strata._recursive],
                         ids=["orbit-sum", "recursion"])
def test_string_and_dilaton_laws_on_generated_graphs(evaluate, case):
    # For every k of n <= 4 marks (entries <= 4) with the degree each law
    # needs: P(k+(0,)) = sum_j P(k-e_j), and P(k+(1,)) = (2g-2+L+n) P(k), g = 2.
    graph, n = case
    strata.clear_cache()
    for k in (k[1:] for k in degree_matched(graph, n + 1, 4) if k[0] == 0):
        lowered = (evaluate(graph, k[:j] + (k[j] - 1,) + k[j + 1:]) for j in range(n) if k[j])
        assert evaluate(graph, k + (0,)) == sum(lowered, Fraction(0)), k
    for k in degree_matched(graph, n, 4):
        assert evaluate(graph, k + (1,)) == (2 + len(graph.legs) + n) * evaluate(graph, k), k
