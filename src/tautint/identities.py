"""Closed forms and recursions for genus-2 stratum-pullback integrals, and the
multi-route verifier that cross-checks them.

For a partition k_1 + ... + k_n = n+1 three routes compute the integral of
psi_1^{k_1} ... psi_n^{k_n} against the pullback of the delta stratum (a
genus-1 component meeting a nodal rational component): a one-line multinomial
closed form, the string/dilaton recursion (the graph engine of
:mod:`tautint.strata` run on ``delta_graph()``, whose only non-recursive
input is the stratum sum at n <= 1), and the stratum sum of
:mod:`tautint.strata`, evaluated by orbits of mark distributions.  Four more
routes compute the same monomial paired with the top Chern class of the
genus-2 Hodge bundle, whose boundary-strata decomposition reduces everything
to the same ingredients.

``VERIFY_ROUTES`` states the seven routes once, as (name, route) pairs called
``route(n, k)``: the delta group, then the Hodge-class group.  ``verify``
loops over it, the method tuples and the CLI's columns take their names from
it, and the ``lambda2`` command looks its route up in it.  Each route looks up
its function on this module when called, not at import, so a function rebound
here (by a tracer or a test) is the one that runs.

Each public function checks its input once, the routes through one partition
check, builds at most one ``Fraction`` and calls check-free int forms of the
multinomial and of the delta recursion.  The strata-form routes call the
public :func:`tautint.strata.expression_integral`, whose one check is the
memo key it builds anyway.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, Iterator, NamedTuple

from .arith import Exponents, _as_int, _multinomial, as_exponents, bernoulli, partitions
# The delta route's memo, for tracing and tests.  Every pullback route fills it
# too, with its vertex factors.
from .psi import _GRAPH_MEMO as _DELTA_MEMO
from .strata import (
    StrataExpression,
    _recursive,
    delta0_graph,
    delta_graph,
    expression_integral,
    gamma_psi_graph,
    pullback_integral,
)

__all__ = [
    "pullback_delta_closed",
    "pullback_delta_recursive",
    "lambda2_closed",
    "lambda2_integral",
    "lambda2_expression",
    "lambda_g_initial",
    "lambda_g_prediction",
    "VerificationReport",
    "verify",
    "VERIFY_ROUTES",
    "DELTA_METHODS",
    "LAMBDA2_METHODS",
    "VERIFY_METHODS",
]

# The three delta routes, then the four Hodge-class routes (see the module
# docstring); each lambda looks its function up when called.
VERIFY_ROUTES = (
    ("delta_closed", lambda n, k: pullback_delta_closed(n, k)),
    ("delta_recursive", lambda n, k: pullback_delta_recursive(n, k)),
    ("delta_brute", lambda n, k: pullback_integral(_DELTA_GRAPH, k)),
    ("lambda2_closed", lambda n, k: lambda2_closed(n, k)),
    ("lambda2_eq5", lambda n, k: lambda2_integral(n, k, "eq5")),
    ("lambda2_eq3", lambda n, k: lambda2_integral(n, k, "eq3")),
    ("lambda_g_pred", lambda n, k: lambda_g_prediction(2, n, k)),
)
VERIFY_METHODS = tuple(name for name, _ in VERIFY_ROUTES)
DELTA_METHODS, LAMBDA2_METHODS = VERIFY_METHODS[:3], VERIFY_METHODS[3:]

_DELTA_GRAPH = delta_graph()  # built once, as the delta routes run per partition

_LAMBDA2_EXPRESSIONS = {  # see lambda2_expression; built once, as verify uses both per row
    "eq5": StrataExpression((
        (Fraction(1, 1152) + Fraction(1, 5760), delta0_graph()),
        (Fraction(1, 240), _DELTA_GRAPH),
    )),
    "eq3": StrataExpression((
        (Fraction(1, 240), gamma_psi_graph()),
        (Fraction(1, 1152), delta0_graph()),
    )),
}
LAMBDA2_METHOD_NAMES = tuple(_LAMBDA2_EXPRESSIONS)


def _check_partition(n: int, exponents: Iterable[int], excess: int = 1) -> Exponents:
    # The one input check of the partition routes and lambda_g_prediction: n
    # exponents of total degree n + excess, the exponents checked first, then
    # n, their count and their sum.
    k = as_exponents(exponents)
    n = _as_int(n, "n")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if len(k) != n:
        raise ValueError(f"expected {n} exponents, got {len(k)}")
    if sum(k) != n + excess:
        raise ValueError(f"exponents {k} must sum to n{excess:+d} = {n + excess}")
    return k


def pullback_delta_closed(n: int, exponents: Iterable[int]) -> Fraction:
    """Closed form: 1/24 times the multinomial coefficient of the partition."""
    k = _check_partition(n, exponents)
    return Fraction(_multinomial(n + 1, k), 24)


def pullback_delta_recursive(n: int, exponents: Iterable[int]) -> Fraction:
    """The same integral by induction on n: the graph-level string/dilaton
    engine run on ``delta_graph()``, with the pullback analogues of the string
    equation and of the dilaton equation (factor n+1).  Its only
    non-recursive input is the stratum sum at n <= 1, which is 1/24 at
    exponent 2.
    """
    k = _check_partition(n, exponents)
    return _recursive(_DELTA_GRAPH, k)


def lambda2_closed(n: int, exponents: Iterable[int]) -> Fraction:
    """Closed form 7/5760 times the multinomial coefficient (7/5760 = 7/(24*8*30))."""
    k = _check_partition(n, exponents)
    return Fraction(7 * _multinomial(n + 1, k), 5760)


def lambda2_expression(method: str) -> StrataExpression:
    """The boundary-strata decomposition of the genus-2 top Hodge class.

    Two equivalent forms are exposed: ``eq3`` keeps the
    psi-decorated loop graph, ``eq5`` is the fully reduced two-graph
    combination.  Both integrate to the same values; the verifier checks it.
    """
    if method not in _LAMBDA2_EXPRESSIONS:
        raise ValueError(f"unknown method {method!r}; choices: {', '.join(LAMBDA2_METHOD_NAMES)}")
    return _LAMBDA2_EXPRESSIONS[method]


def lambda2_integral(n: int, exponents: Iterable[int], method: str = "eq5") -> Fraction:
    """Integrate the psi monomial against the strata form of the Hodge class."""
    k = _check_partition(n, exponents)
    return expression_integral(lambda2_expression(method), k)


def _check_genus(g: int) -> int:
    g = _as_int(g, "g")
    if g < 1:
        raise ValueError("genus must be positive")
    return g


def _lambda_g_ratio(g: int) -> tuple[int, int]:
    # lambda_g_initial(g) as (numerator, denominator), for a checked g.
    half = 2 ** (2 * g - 1)
    b = bernoulli(2 * g)
    return (half - 1) * abs(b.numerator), half * b.denominator * factorial(2 * g)


def lambda_g_initial(g: int) -> Fraction:
    """The one-point Hodge integral ((2^{2g-1}-1)/2^{2g-1}) |B_{2g}| / (2g)!."""
    return Fraction(*_lambda_g_ratio(_check_genus(g)))


def lambda_g_prediction(g: int, n: int, exponents: Iterable[int]) -> Fraction:
    """Predicted value of the psi monomial paired with the top Hodge class:
    a multinomial coefficient times :func:`lambda_g_initial`.

    The genus is checked first, then n exponents of total degree n + 2g - 3
    by the partition check the other verify routes share, so a bad input is
    refused in their order and with their text.  Verifiable against
    independent routes only at g = 2 here; other genera are formula-only.
    """
    g = _check_genus(g)
    k = _check_partition(n, exponents, 2 * g - 3)
    numerator, denominator = _lambda_g_ratio(g)
    return Fraction(_multinomial(sum(k), k) * numerator, denominator)


class VerificationReport(NamedTuple):
    """All route values for one (n, partition) input.

    ``agreed`` means every route within each method group returned the same
    value (the delta-stratum routes form one group, the Hodge-class routes
    the other), and that the Hodge-class value is 7/240 times the delta one.
    """

    n: int
    partition: Exponents
    values: dict[str, Fraction]
    agreed: bool


def verify(n_max: int) -> Iterator[VerificationReport]:
    """Cross-check every route for all partitions of n+1 into at most n parts,
    n = 1..n_max, in deterministic order (n ascending, partitions
    reverse-lexicographic, zero-padded to length n)."""
    n_max = _as_int(n_max, "n_max")
    if n_max < 1:
        raise ValueError("n_max must be a positive integer")
    for n in range(1, n_max + 1):
        for k in partitions(n + 1, n):
            values = {name: route(n, k) for name, route in VERIFY_ROUTES}
            # Each group is held to its first route's value, compared with ==,
            # and the ratio cross-multiplied: no Fraction is hashed or built.
            delta, hodge = values[DELTA_METHODS[0]], values[LAMBDA2_METHODS[0]]
            agreed = (
                all(values[m] == delta for m in DELTA_METHODS)
                and all(values[m] == hodge for m in LAMBDA2_METHODS)
                and 240 * hodge.numerator * delta.denominator
                == 7 * delta.numerator * hodge.denominator
            )
            yield VerificationReport(n=n, partition=k, values=values, agreed=agreed)
