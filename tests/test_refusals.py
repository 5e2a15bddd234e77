"""Refusals of out-of-range input that no other test reaches: each raises
its exception with its message, or reports its violation kind."""

import re

import pytest

from tautint.arith import format_rational, multinomial
from tautint.identities import lambda_g_prediction, pullback_delta_closed
from tautint.strata import (DualGraph, Violation, builtin_graph, expression_integral, parse_graph,
                            validate_graph)


def test_multinomial_refuses_negative_n():
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        multinomial(-1, (0,))


def test_delta_closed_refuses_nonpositive_n():
    with pytest.raises(ValueError, match="^n must be a positive integer$"):
        pullback_delta_closed(0, (1,))


def test_lambda_g_prediction_refuses_wrong_length():
    with pytest.raises(ValueError, match="^expected 3 exponents, got 2$"):
        lambda_g_prediction(2, 3, (2, 1))


@pytest.mark.parametrize("graph, violations", [
    (DualGraph(()), [Violation("empty", "graph has no vertices")]),
    (DualGraph((1, 0), (((0, -1), (1, 0)), (1, 1))),
     [Violation("negative-psi", "edge end at v0 has psi=-1")]),
    (DualGraph((1, 0), ((0, 1), (1, 1)), (("x", 2),)),
     [Violation("bad-vertex-ref", "leg 'x' references v2")]),
    (DualGraph((1, 0), ((0, 1), (1, 1)), (("x", 1, -2),)),
     [Violation("negative-psi", "leg 'x' has psi=-2")]),
])
def test_validate_graph_reports(graph, violations):
    assert list(validate_graph(graph).violations) == violations


def test_unknown_builtin_graph_names_the_choices():
    with pytest.raises(KeyError, match=re.escape("unknown graph 'nope'; choices: delta, delta0, gamma-psi")):
        builtin_graph("nope")


@pytest.mark.parametrize("name", [["x"], {"delta": 1}], ids=["list", "dict"])
def test_unhashable_builtin_graph_name_is_unknown(name):
    with pytest.raises(KeyError, match=re.escape(f"unknown graph {name!r}; choices: delta, delta0, gamma-psi")):
        builtin_graph(name)


@pytest.mark.parametrize("call, argument", [
    (lambda value: expression_integral(value, (2,)), "x"),
    (parse_graph, 5),
    (parse_graph, b"v0 genus=1"),
    (format_rational, 1.5),
    (format_rational, "1"),
], ids=["expression-str", "graph-text-int", "graph-text-bytes", "rational-float", "rational-str"])
def test_wrong_type_is_a_type_error_naming_it(call, argument):
    with pytest.raises(TypeError, match=f", got {type(argument).__name__}$"):
        call(argument)
