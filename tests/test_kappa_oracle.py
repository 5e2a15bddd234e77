"""Pullbacks through kappa classes: an oracle with no bubble correction.

The kit's literal sum (``oracles.stratum_sum``) distributes the marks over
the vertices and corrects a decorated vertex by the bubble, the model the
package's engine also rests on.  This one pushes the marks forward instead.

Let pi forget the n new marks, from the space with the graph's L legs and the
marks to the space with the legs alone.  For exponents k with every k_i >= 1
(Arbarello-Cornalba, *Combinatorial and algebro-geometric cohomology classes
on the moduli spaces of curves*, 1996; Faber, *Algorithms for computing
intersection numbers on moduli spaces of curves*, 1999):

    pi_*(psi_1^{k_1} ... psi_n^{k_n}) = sum over permutations s of the marks of
        prod over the cycles c of s of kappa_{a(c)},  a(c) = sum_{i in c} (k_i - 1),

or, grouping the permutations by the set partition of their cycles, the sum
over set partitions of prod_B (|B| - 1)! kappa_{a(B)}.  By the projection
formula the pullback integral is the integral of that kappa polynomial
against the graph's class, decorations included, on the space with the legs
alone.  On the graph's stratum kappa_a = sum_v kappa_a^(v) over the vertices
(Arbarello-Cornalba), so each block's kappa goes to one vertex.  A vertex
integral <psi^fixed kappa_{b_1} ... kappa_{b_r}> comes from the same formula
on the vertex's own space, read backwards: <tau_fixed tau_{b_1 + 1} ...
tau_{b_r + 1}> is its term for the partition into singletons, plus terms
with fewer kappas.  psi integrals come from the oracle kit's DVV
``intersection`` (DVV 1991; Witten 1991; Kontsevich 1992).

A mark of exponent 0 goes by the string law P(k + (0,)) = sum_j P(k - e_j),
the one law this route shares with the package's engine.

Summed over the blocks' vertices, the formula and its inversion at each
vertex leave, for k >= 1, the products of plain vertex psi integrals over
every split of the marks; the weights (|B| - 1)! cancel, so a test of their
own pins them.  What the route checks is the model: with every exponent
>= 1 no bubble term enters, and the 0s go by the string law.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest

from oracles import (CHAIN3, GAMMA_1_PSI, GRAPHS, THETA, descending, fixed_points, intersection,
                     legless_graphs)
from tautint.strata import DualGraph, pullback_integral


def set_partitions(items):
    """Every set partition of the list items, as a list of blocks."""
    if not items:
        yield []
        return
    first, *rest = items
    for partition in set_partitions(rest):
        yield [[first], *partition]
        for i, block in enumerate(partition):
            yield partition[:i] + [[first, *block]] + partition[i + 1:]


def cycle_weight(blocks):
    """The number of permutations whose cycles are these blocks."""
    return math.prod(math.factorial(len(block) - 1) for block in blocks)


@functools.cache
def vertex_kappa(genus, fixed, kappas):
    """<psi^fixed kappa_{b_1} ... kappa_{b_r}> on the space of genus ``genus``
    with len(fixed) points, for sorted tuples fixed and kappas = (b_1, ..., b_r)."""
    value = intersection(genus, fixed + tuple(b + 1 for b in kappas))
    for blocks in set_partitions(list(kappas)):
        if len(blocks) < len(kappas):
            merged = tuple(sorted(sum(block) for block in blocks))
            value -= cycle_weight(blocks) * vertex_kappa(genus, fixed, merged)
    return value


@functools.cache
def kappa_pullback(data, k):
    """The pullback integral of the graph data against the marks' psi
    monomial, k a descending tuple."""
    if k and not k[-1]:  # the string law for a last 0
        rest = k[:-1]
        lowered = (rest[:j] + (rest[j] - 1,) + rest[j + 1:] for j in range(len(rest)) if rest[j])
        return sum((kappa_pullback(data, descending(r)) for r in lowered), Fraction(0))
    genera = data[0]
    fixed = [tuple(sorted(points)) for points in fixed_points(*data)]
    total = Fraction(0)
    for blocks in set_partitions(list(k)):
        kappas = [sum(x - 1 for x in block) for block in blocks]
        for homes in itertools.product(range(len(genera)), repeat=len(kappas)):
            value = Fraction(cycle_weight(blocks))
            for v, genus in enumerate(genera):
                here = tuple(sorted(b for b, home in zip(kappas, homes) if home == v))
                value *= vertex_kappa(genus, fixed[v], here)
                if not value:
                    break
            total += value
    return total


def degree_matched(data, n_max):
    """The descending k of at most n_max entries <= 4 whose degree is the
    pullback's dimension 3 + n + legs - edges - decorations."""
    _, edges, legs = data
    codimension = len(edges) + sum(map(sum, fixed_points(*data)))
    return [k for n in range(n_max + 1)
            for k in itertools.combinations_with_replacement(range(4, -1, -1), n)
            if sum(k) == 3 + n + len(legs) - codimension]


KAPPA_GRAPHS = dict(GRAPHS, theta=THETA, chain3=CHAIN3, **{
    "gamma-irr": ((1,), ((0, 0),), ()),
    "gamma-1": ((1, 1), ((0, 1),), ()),
    "gamma-1-psi": GAMMA_1_PSI,
})
# How many of each graph's rows (270 in all) have a nonzero value.
NONZERO = {"delta": 20, "delta0": 20, "legged-chain3": 15, "gamma-psi": 20, "legged-deco": 20,
           "delta-deco-genus1": 18, "delta-deco-genus0": 0, "leg-deco-genus1": 15, "theta": 18,
           "chain3": 20, "gamma-irr": 24, "gamma-1": 15, "gamma-1-psi": 20}


def test_set_partitions_and_cycle_weights_count_permutations():
    for n in range(7):
        partitions = list(set_partitions(list(range(n))))
        assert len(partitions) == [1, 1, 2, 5, 15, 52, 203][n]  # the Bell numbers
        assert sum(map(cycle_weight, partitions)) == math.factorial(n)


def test_vertex_kappa_values():
    assert vertex_kappa(1, (0,), (1,)) == Fraction(1, 24)  # kappa_1 on M_{1,1}
    assert vertex_kappa(0, (0, 0, 0, 1), (0,)) == 2  # kappa_0 = 2g - 2 + n, times psi on M_{0,4}
    assert vertex_kappa(0, (0,) * 5, (1, 1)) == 5  # kappa_1^2 on M_{0,5}


@pytest.mark.parametrize("name", KAPPA_GRAPHS)
def test_kappa_route_equals_pullback(name):
    data, graph = KAPPA_GRAPHS[name], DualGraph(*KAPPA_GRAPHS[name])
    nonzero = 0
    for k in degree_matched(data, 5):
        expected = kappa_pullback(data, k)
        assert pullback_integral(graph, k) == expected, k
        nonzero += expected != 0
    assert nonzero == NONZERO[name]


def test_kappa_route_equals_pullback_on_generated_legless_graphs():
    rows = nonzero = 0
    for data in legless_graphs():
        graph = DualGraph(*data)
        for k in degree_matched(data, 5):
            expected = kappa_pullback(data, k)
            assert pullback_integral(graph, k) == expected, (data, k)
            rows, nonzero = rows + 1, nonzero + (expected != 0)
    assert (rows, nonzero) == (348, 267)
