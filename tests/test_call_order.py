"""The order of public calls cannot change a value.

Every memo is keyed by what its value depends on, so a pool of public calls
must give the same values whether each call starts from cold memos, or all
of them run against one warm set of memos, forward and then in reverse.  A
memo family keyed too coarsely (say, a vertex factor's by the number of its
fixed points, not by the points' decorations) hands one input's value to
another: which one depends on the order of the calls.  The pool holds pairs
that only a full key tells apart, such as the graphs ``A`` and ``B`` below,
one genus-0 vertex with five fixed points each, whose values are 1 and 2.
"""

from fractions import Fraction

from oracles import CHAIN3, DECORATED_DELTA, LEGGED_DECO
from tautint import psi
from tautint.arith import partitions
from tautint.identities import lambda2_integral, pullback_delta_recursive
from tautint.psi import ModuliIndex, psi_integral
from tautint.strata import (DualGraph, _excess, _vertices, delta0_graph, delta_graph,
                            gamma_psi_graph, pullback_integral)

A = DualGraph((0,), (((0, 2), (0, 0)), ((0, 0), (0, 0))), (("x", 0),))
B = DualGraph((0,), (((0, 1), (0, 1)), ((0, 0), (0, 0))), (("x", 0),))
HEAVY = [  # decorations of total degree >= 2 on one vertex, evaluated at k = ()
    A,
    B,
    DualGraph((1,), (((0, 2), (0, 0)),)),
    DualGraph((1,), (((0, 2), (0, 1)),), (("x", 0),)),
    DualGraph((1,), (((0, 3), (0, 0)),), (("x", 0),)),
    DualGraph((1,), (((0, 1), (0, 1)),), (("x", 0, 1),)),
    DualGraph((0,), (((0, 3), (0, 0)), ((0, 0), (0, 0))), (("x", 0),)),
    DualGraph((1, 0), (((0, 2), (1, 0)), (1, 1)), (("x", 0),)),
]
MARKED = [  # graphs evaluated over degree-matched marks
    delta_graph(),
    delta0_graph(),
    gamma_psi_graph(),
    DualGraph(*CHAIN3),
    DualGraph(*LEGGED_DECO),
    DualGraph(*DECORATED_DELTA),
]


def pool():
    """(label, call) pairs: psi integrals, pullbacks, the delta recursion and lambda2."""
    calls = []
    for genus, max_marks in ((0, 11), (1, 8)):
        for marks in range(3 - 2 * genus, max_marks + 1):
            for k in partitions(3 * genus - 3 + marks, marks):
                calls.append((("psi", genus, k), lambda s=ModuliIndex(genus, marks), k=k: psi_integral(s, k)))
    for graph in HEAVY:
        calls.append((("pullback", graph, ()), lambda g=graph: pullback_integral(g)))
    for graph in MARKED:
        excess = sum(_excess(genus, fixed) for genus, fixed in _vertices(graph))
        for n in range(7):
            for k in partitions(n + excess, n) if n else [()]:
                calls.append((("pullback", graph, k), lambda g=graph, k=k: pullback_integral(g, k)))
    for n in range(1, 10):
        for k in partitions(n + 1, n):
            calls.append((("delta", k), lambda n=n, k=k: pullback_delta_recursive(n, k)))
            for method in ("eq5", "eq3"):
                calls.append((("lambda2", method, k), lambda n=n, k=k, m=method: lambda2_integral(n, k, m)))
    return calls


def test_values_do_not_depend_on_call_order():
    calls = pool()
    cold = {}
    for label, call in calls:
        psi.clear_cache()
        cold[label] = call()
    assert len(cold) == len(calls) > 500
    assert cold["pullback", A, ()] == 1 and cold["pullback", B, ()] == 2
    assert all(type(value) is Fraction for value in cold.values())
    psi.clear_cache()
    try:
        for order in (calls, calls[::-1]):
            wrong = [(label, value, cold[label]) for label, call in order
                     if (value := call()) != cold[label]]
            assert not wrong, wrong[:3]
    finally:
        psi.clear_cache()
