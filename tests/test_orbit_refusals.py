"""The orbit core refuses what it cannot compute, and every public route
refuses in the same order: non-integer, bad graph, heavy decoration, negative.

A vertex whose decorations total >= 2 cannot take marks: its pulled-back
class would need products of boundary divisors.  The loop below carries psi^2
on one end of its self-loop, so it has such a vertex."""

from fractions import Fraction

import pytest

from tautint import strata
from tautint.strata import (
    DualGraph,
    InvalidGraphError,
    StrataExpression,
    UnsupportedDecorationError,
    delta_graph,
    expression_integral,
    pullback_integral,
    stratum_terms,
)

HEAVY_LOOP = DualGraph((1,), (((0, 2), (0, 0)),))
HEAVY_MESSAGE = (r"^vertex v0 carries decorations of total degree >= 2; only a single unit "
                 r"decoration per vertex can be pulled back exactly$")


def stratum_sum(graph, k):
    return sum((term.value for term in stratum_terms(graph, k)), Fraction(0))


def expression_value(graph, k):
    return expression_integral(StrataExpression(((Fraction(1), graph),)), k)


ROUTES = [pullback_integral, stratum_sum, expression_value]
ROUTE_IDS = ["pullback_integral", "stratum_terms", "expression_integral"]


@pytest.fixture(autouse=True)
def cold_memos():
    strata.clear_cache()


@pytest.mark.parametrize("k", [(2, 0), (2, 1, 0)])
def test_orbit_core_refuses_heavy_vertex_with_marks(k):
    # The degree matches at both, so without the rule the core would sum a value.
    with pytest.raises(UnsupportedDecorationError, match=HEAVY_MESSAGE):
        strata._orbit_sum(HEAVY_LOOP, k)


@pytest.mark.parametrize("route", ROUTES, ids=ROUTE_IDS)
@pytest.mark.parametrize("k", [(1,), (2, 0)])
def test_public_routes_refuse_heavy_vertex_with_marks(route, k):
    with pytest.raises(UnsupportedDecorationError, match=HEAVY_MESSAGE):
        route(HEAVY_LOOP, k)


@pytest.mark.parametrize("route", ROUTES, ids=ROUTE_IDS)
def test_heavy_vertex_without_marks_is_evaluated(route):
    assert route(HEAVY_LOOP, ()) == Fraction(1, 24)


ORDERED_ROUTES = [pullback_integral, lambda graph, k: next(stratum_terms(graph, k))]
ORDERED_IDS = ["pullback_integral", "stratum_terms"]


@pytest.mark.parametrize("route", ORDERED_ROUTES, ids=ORDERED_IDS)
def test_heavy_decoration_named_before_negative_exponent(route):
    with pytest.raises(UnsupportedDecorationError, match=HEAVY_MESSAGE):
        route(HEAVY_LOOP, (1, -1))


@pytest.mark.parametrize("route", ORDERED_ROUTES, ids=ORDERED_IDS)
def test_negative_exponent_message_names_k_as_given(route):
    with pytest.raises(ValueError, match=r"^exponents must be nonnegative, got \(1, -1\)$"):
        route(delta_graph(), (1, -1))


@pytest.mark.parametrize("route", ORDERED_ROUTES, ids=ORDERED_IDS)
def test_refusal_order(route):
    # Non-integer before a bad graph, a bad graph before heavy decoration.
    broken_heavy = DualGraph((1, 1), (((0, 2), (0, 0)),))  # disconnected
    with pytest.raises(ValueError, match="must be integers, got 1.5"):
        route(broken_heavy, (1.5, -1))
    with pytest.raises(InvalidGraphError):
        route(broken_heavy, (1, -1))
