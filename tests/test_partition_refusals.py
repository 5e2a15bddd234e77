"""The ``identities`` routes of ``verify`` refuse a bad (n, exponents) input
through one check.

The five partition routes call ``identities._check_partition`` for n
exponents of total degree n + 1, and ``lambda_g_prediction`` calls it after
its genus check for total degree n + 2g - 3.  So the lambda_g route raises
exactly what the partition check raises, and at g = 2 all six routes refuse
a bad input with the same error, in type and text.
"""

import itertools
from fractions import Fraction

import pytest

from tautint.arith import multinomial, partitions
from tautint.identities import (_check_partition, lambda2_closed, lambda2_integral,
                                lambda_g_initial, lambda_g_prediction, pullback_delta_closed,
                                pullback_delta_recursive)

BAD_N = (-1, 0, 2.0, "2")
# For n = 2: empty, short, long, a float part, a negative part, the wrong
# degree at every genus; then (2, 1), of the right degree at g = 2 only.
EXPONENTS = ((), (3,), (1, 1, 1), (2.0, 1), (4, -1), (2, 2), (2, 1))
GRID = list(itertools.product(BAD_N + (2,), EXPONENTS))
PARTITION_ROUTES = {
    "pullback_delta_closed": pullback_delta_closed,
    "pullback_delta_recursive": pullback_delta_recursive,
    "lambda2_closed": lambda2_closed,
    "lambda2_integral eq5": lambda n, k: lambda2_integral(n, k, "eq5"),
    "lambda2_integral eq3": lambda n, k: lambda2_integral(n, k, "eq3"),
}


def refusal(call, *args) -> tuple[type, str] | None:
    try:
        call(*args)
    except Exception as exc:  # the refusal is compared by type and text
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("g", [1, 2, 3])
def test_lambda_g_prediction_refuses_as_the_partition_check(g):
    for n, k in GRID:
        expected = refusal(_check_partition, n, k, 2 * g - 3)
        assert expected is not None or (g, n, k) == (2, 2, (2, 1))
        assert refusal(lambda_g_prediction, g, n, k) == expected, (n, k)


def test_a_nonpositive_n_is_refused_as_in_the_other_routes():
    assert refusal(lambda_g_prediction, 2, 0, (2,)) == (ValueError, "n must be a positive integer")


def test_degree_text_names_the_excess():
    for g, text in ((1, "n-1 = 1"), (2, "n+1 = 3"), (3, "n+3 = 5")):
        expected = (ValueError, f"exponents (2, 2) must sum to {text}")
        assert refusal(lambda_g_prediction, g, 2, (2, 2)) == expected


@pytest.mark.parametrize("g", [1, 2, 3])
def test_lambda_g_prediction_on_good_inputs(g):
    for n in range(1, 7):
        for k in partitions(n + 2 * g - 3, n):
            value = lambda_g_prediction(g, n, k)
            assert isinstance(value, Fraction)
            assert value == multinomial(n + 2 * g - 3, k) * lambda_g_initial(g), (n, k)


@pytest.mark.parametrize("route", PARTITION_ROUTES)
def test_every_partition_route_refuses_as_lambda_g_prediction_at_genus_2(route):
    for n, k in GRID:
        expected = refusal(lambda_g_prediction, 2, n, k)
        if (n, k) != (2, (2, 1)):
            assert expected is not None
            assert refusal(PARTITION_ROUTES[route], n, k) == expected, (n, k)
