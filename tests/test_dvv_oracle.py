"""The oracle kit (``oracles.py``) against the package: its DVV psi integrals
against ``psi_integral``, and its literal sum over all V^n mark assignments
against ``pullback_integral``, on undecorated graphs and on graphs with a
unit decoration, whose vertex factor the kit expands over the literal
subsets of the marks that bubble off with the decorated point.

Every recursive route of the package, and every vertex factor of a pullback,
runs on the one string/dilaton engine ``psi._string_dilaton``; DVV is a
different induction, and the kit imports nothing from the package.
"""

import ast
import itertools
import math
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import GRAPHS, dvv, intersection, stratum_sum
from tautint.psi import ModuliIndex, psi_integral
from tautint.strata import DualGraph, pullback_integral


def test_the_kit_imports_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported and not [name for name in imported if name.split(".")[0] == "tautint"]


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


# How many of the multisets below have a nonzero value, for each of the
# kit's graphs.  Decorating delta's genus-0 vertex pulls back psi from the
# point M_{0,3}, so it gives only 0s.
NONZERO = {"delta": 20, "delta0": 20, "legged-chain3": 15, "gamma-psi": 20, "legged-deco": 20,
           "delta-deco-genus1": 18, "delta-deco-genus0": 0, "leg-deco-genus1": 15}


@pytest.mark.parametrize("name", GRAPHS)
def test_literal_dvv_stratum_sum_equals_pullback(name):
    graph = DualGraph(*GRAPHS[name])
    nonzero = 0
    for n in range(6):
        for k in itertools.combinations_with_replacement(range(5), n):
            expected = stratum_sum(*GRAPHS[name], k)
            assert pullback_integral(graph, k) == expected, k
            nonzero += expected != 0
    assert nonzero == NONZERO[name]
