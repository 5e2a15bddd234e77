"""λ2 from Mumford's λ1: a third boundary-strata form of the genus-2 top
Hodge class, derived from published facts rather than the tables that
``lambda2_expression`` types in.

On the moduli space of genus-2 stable curves, Mumford (*Towards an
enumerative geometry of the moduli space of curves*, 1983) gives
λ1 = δ_irr/10 + δ_1/5, and the vanishing of ch_2 gives λ2 = λ1²/2.  A graph
denotes the pushforward ξ_Γ*(1), so δ_irr = [Γ_irr]/2 and δ_1 = [Γ_1]/2,
with Γ_irr the genus-1 vertex with a self-loop and Γ_1 two genus-1 vertices
joined by an edge.  The excess-intersection product of boundary strata
(Graber–Pandharipande, *Constructions of nontautological classes on moduli
spaces of curves*, 2003, Appendix A) gives

    [Γ_irr]² = [delta0] − 4 [gamma-psi],
    [Γ_irr][Γ_1] = 2 [delta],
    [Γ_1]² = −4 [Γ_1ψ],

where Γ_1ψ is Γ_1 with ψ on one end of its edge.  So

    λ2 = −1/200 [gamma-psi] + 1/800 [delta0] + 1/100 [delta] − 1/50 [Γ_1ψ].

No built-in graph has the shape of Γ_1ψ, a genus-1 vertex carrying the
decorated end of a bridge, so this also runs a vertex factor of that shape.
The check stays out of ``verify``, whose output bytes are pinned.
"""

from fractions import Fraction

from oracles import GAMMA_1_PSI
from tautint import strata
from tautint.arith import partitions
from tautint.identities import lambda2_closed
from tautint.strata import (DualGraph, StrataExpression, delta0_graph, delta_graph,
                            expression_integral, gamma_psi_graph, pullback_integral)

MUMFORD_TERMS = (
    (Fraction(-1, 200), gamma_psi_graph()),
    (Fraction(1, 800), delta0_graph()),
    (Fraction(1, 100), delta_graph()),
    (Fraction(-1, 50), DualGraph(*GAMMA_1_PSI)),
)


def test_terms_at_a_single_mark():
    strata.clear_cache()
    terms = [coefficient * pullback_integral(graph, (2,)) for coefficient, graph in MUMFORD_TERMS]
    assert terms == [Fraction(-1, 2400), Fraction(1, 800), Fraction(1, 2400),
                     Fraction(-1, 28800)]
    assert sum(terms) == Fraction(7, 5760)


def test_mumford_form_equals_the_closed_form_on_verify_partitions():
    expression = StrataExpression(MUMFORD_TERMS)
    strata.clear_cache()
    rows = 0
    for n in range(1, 13):  # verify's partitions, in verify's order
        for k in partitions(n + 1, n):
            assert expression_integral(expression, k) == lambda2_closed(n, k), k
            rows += 1
    assert rows == 359
