"""An oracle that shares no code with the psi engine: the
Dijkgraaf-Verlinde-Verlinde recursion (DVV 1991; Witten 1991; Kontsevich 1992).

Every recursive route of the package, and every vertex factor of a pullback,
runs on the one string/dilaton engine ``psi._string_dilaton``.  DVV is a
different induction: it removes the largest exponent and splits the rest over
a genus reduction and over every two-part separation of the marks.  Here it
is built from ``math`` and ``Fraction`` only, and it also gives the vertex
factors of a literal sum over all V^n mark assignments of a graph.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest

from tautint.psi import ModuliIndex, psi_integral
from tautint.strata import DualGraph, pullback_integral


def double_factorial(m):
    """m!! for odd m >= -1, with (-1)!! = 1."""
    return math.prod(range(m, 0, -2))


def descending(d):
    return tuple(sorted(d, reverse=True))


@functools.lru_cache(maxsize=None)
def dvv(d):
    """<tau_{d_1} ... tau_{d_n}>_g for a descending tuple d, the genus fixed by
    the degree sum(d) = 3g - 3 + n; 0 when no genus matches."""
    n, degree = len(d), sum(d)
    if not d or d[-1] < 0 or (degree - n) % 3:
        return Fraction(0)
    genus = (degree - n + 3) // 3
    if genus < 0:
        return Fraction(0)
    if d == (0, 0, 0):
        return Fraction(1)
    if d == (1,):
        return Fraction(1, 24)
    # d[0] = k + 1; k = -1 is the string equation and k = 0 the dilaton one.
    k, rest = d[0] - 1, d[1:]
    total = Fraction(0)
    for j, dj in enumerate(rest):
        raised = rest[:j] + (dj + k,) + rest[j + 1:]
        weight = Fraction(double_factorial(2 * k + 2 * dj + 1), double_factorial(2 * dj - 1))
        total += weight * dvv(descending(raised))
    for r in range(k):
        s = k - 1 - r
        weight = Fraction(double_factorial(2 * r + 1) * double_factorial(2 * s + 1), 2)
        total += weight * dvv(descending((r, s) + rest))  # genus g - 1
        for mask in itertools.product((False, True), repeat=len(rest)):
            first = tuple(x for x, side in zip(rest, mask) if side)
            second = tuple(x for x, side in zip(rest, mask) if not side)
            total += weight * dvv(descending((r,) + first)) * dvv(descending((s,) + second))
    return total / double_factorial(2 * k + 3)


def intersection(genus, d):
    """<tau_d>_genus, 0 when the degree does not match that genus."""
    if sum(d) != 3 * genus - 3 + len(d):
        return Fraction(0)
    return dvv(descending(d))


def genus01_inputs(n_max):
    """Every degree-matched descending exponent vector of genus 0 or 1 on at
    most n_max points."""
    for genus, n in itertools.product((0, 1), range(1, n_max + 1)):
        degree = 3 * genus - 3 + n
        if degree >= 0 and 2 * genus - 2 + n > 0:
            for k in itertools.combinations_with_replacement(range(degree, -1, -1), n):
                if sum(k) == degree:
                    yield genus, k


def test_dvv_equals_psi_integral_in_genus_0_and_1():
    inputs = list(genus01_inputs(8))
    assert len(inputs) == 85
    for genus, k in inputs:
        assert intersection(genus, k) == psi_integral(ModuliIndex(genus, len(k)), k), (genus, k)


def test_dvv_genus_2_values():
    assert dvv((4,)) == Fraction(1, 1152)
    assert dvv((3, 2)) == Fraction(29, 5760)
    for genus in range(1, 5):
        assert dvv((3 * genus - 2,)) == Fraction(1, 24 ** genus * math.factorial(genus))


# Undecorated genus-2 graphs as (genera, edges, legs), a leg being its vertex.
GRAPHS = {
    "delta": ((1, 0), ((0, 1), (1, 1)), ()),
    "delta0": ((0,), ((0, 0), (0, 0)), ()),
    "legged-chain3": ((1, 0, 1), ((0, 1), (1, 2)), (1,)),
}


def stratum_sum(genera, edges, legs, k):
    """The pullback as the literal sum over the V^n assignments of the marks
    to vertices of the product of per-vertex DVV integrals; each vertex keeps
    one exponent-0 point per edge end and leg."""
    fixed = [0] * len(genera)
    for vertex in [end for edge in edges for end in edge] + list(legs):
        fixed[vertex] += 1
    total = Fraction(0)
    for assignment in itertools.product(range(len(genera)), repeat=len(k)):
        value = Fraction(1)
        for v, genus in enumerate(genera):
            assigned = [x for x, home in zip(k, assignment) if home == v]
            value *= intersection(genus, assigned + [0] * fixed[v])
            if not value:
                break
        total += value
    return total


@pytest.mark.parametrize("name", GRAPHS)
def test_literal_dvv_stratum_sum_equals_pullback(name):
    genera, edges, legs = GRAPHS[name]
    graph = DualGraph(genera, edges, tuple((f"x{i}", v) for i, v in enumerate(legs)))
    nonzero = 0
    for n in range(6):
        for k in itertools.combinations_with_replacement(range(5), n):
            expected = stratum_sum(genera, edges, legs, k)
            assert pullback_integral(graph, k) == expected, k
            nonzero += expected != 0
    assert nonzero >= 10
