"""Every strata edge refuses a bad input alike: a non-integer exponent, then
the graph (a bad graph, then a heavy decoration), then a negative exponent.

``pullback_integral`` and ``expression_integral`` build the memo key of the
marks first and hand an input the key refuses to one refusal path, so a
one-term expression must give its graph's pullback outcome on every input
below, values included: a part beyond ``chr``'s range at a mismatched degree
gives 0.  ``stratum_terms`` enumerates instead, so it is held to the same
refusal wherever the pullback refuses for another reason than such a part.
"""

import itertools
from fractions import Fraction

import pytest

from tautint import strata
from tautint.strata import (DualGraph, InvalidGraphError, StrataExpression, expression_integral,
                            pullback_integral, stratum_terms, validate_graph)

PAST_CHR = 2_000_000  # above 0x10FFFF, so psi._key refuses it

GRAPHS = {
    "valid": DualGraph((1, 0), ((0, 1), (1, 1))),
    "unstable": DualGraph((0,)),
    "bad-vertex-ref": DualGraph((1,), ((0, 0), (0, 3))),
    "heavy-loop": DualGraph((1,), (((0, 2), (0, 0)),)),
    "genus-1": DualGraph((1,), (), (("x", 0),)),
    "genus-3": DualGraph((1,), ((0, 0), (0, 0))),
    "genus-2-vertex": DualGraph((2,), (), (("x", 0),)),
    "not-a-graph": "delta",
}
EXPONENTS = [
    (), (2,), (1.5,), (2, 1.5), (-1,), (2, -1), (1, -1), (PAST_CHR,), (PAST_CHR, 0),
    (1.5, -1), (-1, 1.5), (PAST_CHR, -1), (-1, PAST_CHR), (PAST_CHR, 1.5), (PAST_CHR, -1, 2.0),
]
CASES = list(itertools.product(GRAPHS, EXPONENTS))


def outcome(call):
    try:
        return call()
    except Exception as exc:  # a refusal is compared by its type and text
        return type(exc), str(exc)


@pytest.fixture(autouse=True)
def cold_memos():
    strata.clear_cache()


@pytest.mark.parametrize("name, k", CASES, ids=[f"{name}-{k}" for name, k in CASES])
def test_every_edge_refuses_as_the_pullback(name, k):
    graph = GRAPHS[name]
    expected = outcome(lambda: pullback_integral(graph, k))
    assert outcome(lambda: expression_integral(StrataExpression(((Fraction(1), graph),)), k)) == expected
    if isinstance(expected, tuple) and "too costly" not in expected[1]:
        assert outcome(lambda: next(stratum_terms(graph, k))) == expected


@pytest.mark.parametrize("graph", ["delta", None, ((1, 0), ((0, 1), (1, 1)), ())])
def test_what_is_not_a_dual_graph_is_reported_and_refused(graph):
    assert [v.kind for v in validate_graph(graph).violations] == ["not-a-graph"]
    for call in (pullback_integral, lambda g, k: next(stratum_terms(g, k)),
                 lambda g, k: expression_integral(StrataExpression(((1, g),)), k)):
        with pytest.raises(InvalidGraphError, match="^not-a-graph: expected a DualGraph, got "):
            call(graph, (2,))
        with pytest.raises(ValueError, match="must be integers, got 1.5"):  # a non-integer first
            call(graph, (2, 1.5))


def test_terms_are_checked_in_order():
    # The first term's graph is named, whatever the second term holds.
    terms = ((Fraction(1), GRAPHS["genus-3"]), (Fraction(1), GRAPHS["unstable"]))
    for k in [(2, -1), (PAST_CHR,), (PAST_CHR, -1)]:
        with pytest.raises(ValueError, match="total genus 3"):
            expression_integral(StrataExpression(terms), k)


def test_empty_expression_still_checks_the_exponents():
    with pytest.raises(ValueError, match="must be integers, got 1.5"):
        expression_integral(StrataExpression(), (1.5, -2))
    with pytest.raises(ValueError, match=r"^exponents must be nonnegative, got \(2, -1\)$"):
        expression_integral(StrataExpression(), (2, -1))
    assert expression_integral(StrataExpression(), (PAST_CHR,)) == 0


@pytest.mark.parametrize("graph", [[1], ([1],), {"genera": (2,)}])
def test_an_unhashable_graph_is_reported_and_refused(graph):
    # The memo probes cannot hash it; the edges report it as any non-graph,
    # and an expression refuses the term when it is built.
    for call in (pullback_integral, lambda g, k: next(stratum_terms(g, k))):
        for k in [(2,), (PAST_CHR,), (2, -1)]:
            with pytest.raises(InvalidGraphError, match="^not-a-graph: expected a DualGraph, got "):
                call(graph, k)
        with pytest.raises(ValueError, match="must be integers, got 1.5"):  # a non-integer first
            call(graph, (2, 1.5))
    with pytest.raises(InvalidGraphError, match="^not-a-graph: expected a DualGraph, got "):
        StrataExpression(((1, GRAPHS["valid"]), (1, graph)))


@pytest.mark.parametrize("graph", ["delta", None, [1]])
def test_graph_helpers_refuse_what_is_not_a_dual_graph(graph):
    for helper in (strata.total_genus, strata.format_graph):
        with pytest.raises(InvalidGraphError, match="^not-a-graph: expected a DualGraph, got "):
            helper(graph)


@pytest.mark.parametrize("graph", [DualGraph((1,), ((0, 0), (0, 3))), DualGraph((1, 0), ((0, 1), (-1, 1)))],
                         ids=["edge-end-past-last-vertex", "edge-end-at-v-1"])
def test_total_genus_refuses_a_reference_to_a_missing_vertex(graph):
    # Not an IndexError, nor v-1 read as the last vertex by Python's negative index.
    with pytest.raises(InvalidGraphError) as raised:
        strata.total_genus(graph)
    assert raised.value.report == validate_graph(graph)
    assert "bad-vertex-ref" in {violation.kind for violation in raised.value.report.violations}
