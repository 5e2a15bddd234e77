"""Closed forms of legless genus-2 classes, from the string and dilaton laws.

A class without legs is pulled back from the moduli space of unmarked
genus-2 curves, so its integral P(k) against a psi monomial in n new marks
obeys the string law P(k + (0,)) = sum_j P(k - e_j) and the dilaton law
P(k + (1,)) = (2 + n) P(k).  For a class of codimension 2 (dimension 1) these
give P(k) = multinomial(n + 1; k) P((2,)); for one of codimension 3 (a point
class) they give P(k) = c(k) P(()), c computed by the two laws alone
(``oracles.point_coefficient``).  The base values are products of genus-0
and genus-1 one-vertex integrals, so no expected value here comes from
``pullback_integral``.
"""

from fractions import Fraction

import pytest

from oracles import DECORATED_DELTA, GAMMA_1_PSI, THETA, point_coefficient
from tautint.arith import multinomial, partitions
from tautint.strata import DualGraph, delta0_graph, delta_graph, gamma_psi_graph, pullback_integral

# (graph, P((2,))): the mark with exponent 2 lands on the one vertex where
# its degree fits.
CODIM_2 = {
    "delta": (delta_graph(), Fraction(1, 24)),  # <tau_0 tau_2>_1 on the genus-1 end
    "delta0": (delta0_graph(), Fraction(1)),  # <tau_0^4 tau_2>_0
    "gamma-psi": (gamma_psi_graph(), Fraction(1, 12)),  # <tau_0 tau_1 tau_2>_1
    # Two genus-1 vertices, psi at one end of their edge: <tau_1>_1 <tau_0 tau_2>_1.
    "gamma1-psi": (DualGraph(*GAMMA_1_PSI), Fraction(1, 576)),
}
# (graph, P(())): the unmarked class's degree, one factor per vertex.
CODIM_3 = {
    "theta": (DualGraph(*THETA), Fraction(1)),
    "dumbbell": (DualGraph((0, 0), ((0, 0), (0, 1), (1, 1))), Fraction(1)),
    "delta0-psi": (DualGraph((0,), (((0, 1), (0, 0)), (0, 0))), Fraction(1)),  # <tau_1 tau_0^3>_0
    "delta-psi-g1": (DualGraph(*DECORATED_DELTA), Fraction(1, 24)),  # <tau_1>_1
    "gamma1-psi-psi": (DualGraph((1, 1), (((0, 1), (1, 1)),)), Fraction(1, 576)),  # <tau_1>_1^2
}
# psi on the genus-0 vertex of delta, whose space is a point: 0 at every k.
ZERO = {
    "delta-psi-g0-bridge": DualGraph((1, 0), (((0, 0), (1, 1)), (1, 1))),
    "delta-psi-g0-loop": DualGraph((1, 0), ((0, 1), ((1, 1), (1, 0)))),
}


def test_point_coefficients_from_the_laws():
    assert [point_coefficient(k) for k in ((), (1,), (1, 1), (2, 1, 0))] == [1, 2, 6, 8]


@pytest.mark.parametrize("name", CODIM_2)
def test_codimension_2_classes_are_multinomials(name):
    graph, base = CODIM_2[name]
    for n in range(1, 9):
        for k in partitions(n + 1, n):
            assert pullback_integral(graph, k) == multinomial(n + 1, k) * base, (n, k)


@pytest.mark.parametrize("name", CODIM_3)
def test_codimension_3_classes_follow_the_point_coefficients(name):
    graph, base = CODIM_3[name]
    assert pullback_integral(graph, ()) == base
    for n in range(1, 8):
        for k in partitions(n, n):
            assert pullback_integral(graph, k) == point_coefficient(k) * base, (n, k)


@pytest.mark.parametrize("name", ZERO)
def test_psi_on_a_point_vertex_gives_zero(name):
    graph = ZERO[name]
    assert pullback_integral(graph, ()) == 0
    for n in range(1, 8):
        for k in partitions(n, n):
            assert pullback_integral(graph, k) == 0, (n, k)
