"""Public functions check their inputs once, at the edge.

Integer parameters are coerced the way exponents are, before any memo is
written; composed calls skip the inner checks, so a cold ``verify`` row runs
one exponent coercion per route; and the check-free paths behind the public
functions give the public values.
"""

import itertools
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import CHAIN3, LEGGED_DECO
from tautint import arith, identities, psi, strata
from tautint.arith import bernoulli, multinomial, partitions
from tautint.identities import (
    lambda2_closed,
    lambda2_integral,
    lambda_g_initial,
    lambda_g_prediction,
    pullback_delta_closed,
    pullback_delta_recursive,
    verify,
)
from tautint.psi import ModuliIndex, psi_integral
from tautint.strata import (
    DualGraph,
    StrataExpression,
    builtin_graph,
    expression_integral,
    pullback_integral,
    validate_graph,
)

GRAPHS = [builtin_graph(name) for name in ("delta", "delta0", "gamma-psi")]
GRAPHS += [DualGraph(*CHAIN3), DualGraph(*LEGGED_DECO)]

# Each integer parameter by name, a valid value and a call with it set to x.
INTEGER_PARAMETERS = {
    "delta_closed": ("n", 2, lambda x: pullback_delta_closed(x, (2, 1))),
    "delta_recursive": ("n", 2, lambda x: pullback_delta_recursive(x, (2, 1))),
    "lambda2_closed": ("n", 2, lambda x: lambda2_closed(x, (2, 1))),
    "lambda2_eq5": ("n", 2, lambda x: lambda2_integral(x, (2, 1))),
    "lambda2_eq3": ("n", 2, lambda x: lambda2_integral(x, (2, 1), "eq3")),
    "lambda_g_initial": ("g", 2, lambda x: lambda_g_initial(x)),
    "lambda_g_prediction.g": ("g", 2, lambda x: lambda_g_prediction(x, 2, (2, 1))),
    "lambda_g_prediction.n": ("n", 2, lambda x: lambda_g_prediction(2, x, (2, 1))),
    "verify": ("n_max", 2, lambda x: list(verify(x))),
    "psi.genus": ("genus", 0, lambda x: psi_integral(ModuliIndex(x, 4), (1, 0, 0, 0))),
    "psi.marks": ("marks", 4, lambda x: psi_integral(ModuliIndex(0, x), (1, 0, 0, 0))),
    "multinomial": ("n", 2, lambda x: multinomial(x, (1, 1))),
    "partitions.total": ("total", 2, lambda x: list(partitions(x, 2))),
    "partitions.max_parts": ("max_parts", 2, lambda x: list(partitions(3, x))),
    "bernoulli": ("m", 2, lambda x: bernoulli(x)),
}


class TestIntegerParameters:
    @pytest.mark.parametrize("case", INTEGER_PARAMETERS)
    @pytest.mark.parametrize("convert", [float, str, Fraction], ids=["float", "str", "Fraction"])
    def test_non_integer_refused_before_any_memo_is_written(self, case, convert):
        name, valid, call = INTEGER_PARAMETERS[case]
        bad = convert(valid)
        psi.clear_cache()
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            call(bad)
        assert not any(psi._MEMOS.values())


def route_calls(n, k):
    return {
        "delta_closed": lambda: pullback_delta_closed(n, k),
        "delta_recursive": lambda: pullback_delta_recursive(n, k),
        "delta_brute": lambda: pullback_integral(builtin_graph("delta"), k),
        "lambda2_closed": lambda: lambda2_closed(n, k),
        "lambda2_eq5": lambda: lambda2_integral(n, k, "eq5"),
        "lambda2_eq3": lambda: lambda2_integral(n, k, "eq3"),
        "lambda_g_pred": lambda: lambda_g_prediction(2, n, k),
    }


class TestComposedCallsSkipInnerChecks:
    def test_cold_verify_coerces_exponents_once_per_route(self, monkeypatch):
        calls = []
        as_ints = arith._as_ints

        def counted(*args, **kwargs):
            calls.append(args)
            return as_ints(*args, **kwargs)

        for module in (arith, psi, strata, identities):
            if hasattr(module, "_as_ints"):
                monkeypatch.setattr(module, "_as_ints", counted)
        psi.clear_cache()
        rows = list(verify(10))
        assert len(rows) == 183 and all(report.agreed for report in rows)
        assert len(calls) <= len(identities.VERIFY_METHODS) * len(rows)

    def test_verify_values_are_the_public_values(self):
        reports = list(verify(8))
        for report in reports:
            for method, call in route_calls(report.n, report.partition).items():
                psi.clear_cache()
                alone = call()
                assert type(alone) is Fraction
                assert report.values[method] == alone, (report.n, report.partition, method)


def runs_by_groupby(k):
    runs = [(value, len(list(run))) for value, run in itertools.groupby(k)]
    return tuple(value for value, _ in runs), tuple(count for _, count in runs)


@given(st.lists(st.integers(0, 6), max_size=12))
def test_runs_match_groupby(values):
    # groupby's runs of k, with a run of count 0 for a 1 or a 0 that k lacks
    k = tuple(sorted(values, reverse=True))
    runs = dict(zip(*runs_by_groupby(k)))
    layout = [x for x in runs if x > 1] + [1, 0]
    assert strata._runs(psi._key(k)) == (psi._key(layout), tuple(runs.get(x, 0) for x in layout))


coefficients = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 60))


@st.composite
def expressions_and_marks(draw):
    """A StrataExpression over the built-ins, chain3 and legged-deco, with
    coefficients of unlike denominators of either sign, and n exponents:
    mostly a partition of n + 1, the degree of every one of these graphs."""
    terms = draw(st.lists(st.tuples(coefficients, st.sampled_from(GRAPHS)), max_size=5))
    n = draw(st.integers(0, 5))
    if draw(st.booleans()):
        k = draw(st.sampled_from(list(partitions(n + 1, n)))) if n else ()
    else:
        k = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    return StrataExpression(tuple(terms)), tuple(draw(st.permutations(k)))


class TestExpressionIntegral:
    @settings(max_examples=150, deadline=None)
    @given(expressions_and_marks())
    @example((StrataExpression(), (2, 1)))
    def test_equals_the_sum_of_term_pullbacks(self, case):
        expression, k = case
        expected = sum((c * pullback_integral(graph, k) for c, graph in expression.terms),
                       Fraction(0))
        value = expression_integral(expression, k)
        assert type(value) is Fraction
        assert value == expected

    def test_cancelling_terms_give_zero(self):
        # lambda2's two forms integrate alike, so their difference is zero.
        eq5, eq3 = identities.lambda2_expression("eq5"), identities.lambda2_expression("eq3")
        difference = StrataExpression(eq5.terms + tuple((-c, g) for c, g in eq3.terms))
        for k in partitions(6, 5):
            assert expression_integral(difference, k) == 0


def legged_chain(vertices):
    """A legged genus-0 chain between two genus-1 ends."""
    genera = (1,) + (0,) * (vertices - 2) + (1,)
    edges = tuple((v, v + 1) for v in range(vertices - 1))
    legs = tuple((f"x{v}", v) for v in range(1, vertices - 1))
    return DualGraph(genera, edges, legs)


def test_graph_checks_are_linear_in_graph_size():
    graph = legged_chain(4000)
    psi.clear_cache()
    started = time.monotonic()
    assert validate_graph(graph).ok
    assert time.monotonic() - started < 1
    started = time.monotonic()
    assert pullback_integral(graph, ()) == 0  # degree 2, not 0
    assert time.monotonic() - started < 1
    vertices = strata._CHECKED[graph]
    assert [fixed for _, fixed in vertices] == list(map(graph.fixed_exponents, range(4000)))
