"""A wrong memo entry cannot hide from ``verify``: fault injection.

A cold ``verify(6)`` fills every memo.  Then one entry at a time is corrupted
(+1 to an int, +1/5760 to a ``Fraction``), ``verify(6)`` runs again and the
memos are put back as the cold run left them.  Each group clears the memos
in front of its entries, so that the re-run reads them:

- each pullback entry, and each entry of ``delta_graph()``'s graph-recursion
  family, re-run warm;
- each vertex-factor entry, with the pullback memo and delta's family
  cleared;
- each psi entry, with every graph-recursion family cleared.

Every corruption that changes some route's value on some row must make some
row disagree.  Every route shares the string/dilaton engine, so this is what
keeps a wrong engine value from passing ``verify``.
"""

from fractions import Fraction

import pytest

from tautint import psi, strata
from tautint.identities import VERIFY_METHODS, verify
from tautint.strata import DualGraph, delta_graph

N_MAX = 6
DELTA = delta_graph()


def run():
    """Each row's route values and whether the row agreed."""
    return [(tuple(report.values[m] for m in VERIFY_METHODS), report.agreed) for report in verify(N_MAX)]


def copied(memo):
    """A copy of one memo, its family dicts too, in insertion order."""
    return {family: dict(table) if isinstance(table, dict) else table for family, table in memo.items()}


def snapshot():
    return {name: copied(memo) for name, memo in psi._MEMOS.items()}


def restore(saved):
    for name, memo in psi._MEMOS.items():
        memo.clear()
        memo.update(copied(saved[name]))


def corrupted(value):
    return value + Fraction(1, 5760) if isinstance(value, Fraction) else value + 1


def pullback_entries():
    delta = psi._GRAPH_MEMO[DELTA]
    return [(strata._PULLBACK_CACHE, key) for key in strata._PULLBACK_CACHE] + [(delta, key) for key in delta]


def vertex_factor_entries():
    return [(table, key) for family, table in psi._GRAPH_MEMO.items()
            if not isinstance(family, DualGraph) for key in table]


def psi_entries():
    return [(table, key) for table in psi._CACHE.values() for key in table]


def clear_nothing():
    pass


def clear_pullbacks_and_delta():
    strata._PULLBACK_CACHE.clear()
    del psi._GRAPH_MEMO[DELTA]


def clear_graph_recursion():
    psi._GRAPH_MEMO.clear()


@pytest.fixture(scope="module")
def cold():
    psi.clear_cache()
    rows = run()
    yield rows, snapshot()
    psi.clear_cache()


@pytest.mark.parametrize("entries, clear", [
    (pullback_entries, clear_nothing),
    (vertex_factor_entries, clear_pullbacks_and_delta),
    (psi_entries, clear_graph_recursion),
], ids=["pullback-and-delta-family", "vertex-factor", "psi"])
def test_every_value_changing_corruption_is_caught(cold, entries, clear):
    baseline, saved = cold
    assert all(agreed for _, agreed in baseline)
    restore(saved)
    count, changed = len(entries()), 0
    assert count
    for index in range(count):
        restore(saved)  # new family dicts, in the same order, so index them afresh
        table, key = entries()[index]
        table[key] = corrupted(table[key])
        clear()
        rows = run()
        if [values for values, _ in rows] != [values for values, _ in baseline]:
            changed += 1
            assert not all(agreed for _, agreed in rows), f"corrupted entry {key!r} went unnoticed"
    restore(saved)
    assert changed, "no corruption reached a route"
