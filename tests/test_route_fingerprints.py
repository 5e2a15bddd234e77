"""What keeps ``verify``'s routes independent: the layers each route reaches.

Each of the seven routes runs cold over every row with n <= 7 under
``sys.setprofile``, which records the ``tautint`` functions it calls.  The
closed forms reach no engine; the stratum sums (delta's pullback and both
strata forms of lambda2) never take the paper's induction over a graph; and
the induction takes the stratum sum only at its base, where no exponent is
below 2.  A refactor that routes one through another fails here even though
every value stays the same.
"""

import sys

import pytest

from tautint import identities, strata
from tautint.arith import partitions
from tautint.identities import VERIFY_METHODS
from tautint.strata import DualGraph

ROWS = [(n, k) for n in range(1, 8) for k in partitions(n + 1, n)]
# Each route as verify calls it on one row.
ROUTES = {
    "delta_closed": identities.pullback_delta_closed,
    "delta_recursive": identities.pullback_delta_recursive,
    "delta_brute": lambda n, k: strata.pullback_integral(identities._DELTA_GRAPH, k),
    "lambda2_closed": identities.lambda2_closed,
    "lambda2_eq5": lambda n, k: identities.lambda2_integral(n, k, "eq5"),
    "lambda2_eq3": lambda n, k: identities.lambda2_integral(n, k, "eq3"),
    "lambda_g_pred": lambda n, k: identities.lambda_g_prediction(2, n, k),
}
# The argument of each call worth keeping: the family an engine run fills,
# and the memo key of the marks an orbit sum is asked for.
DETAIL = {"_string_dilaton": "family", "_orbit_sum": "k"}


def fingerprint(route):
    """Run one route cold over ROWS; return its (module, function, detail) calls."""
    strata.clear_cache()
    calls = []

    def profile(frame, event, arg):
        module = frame.f_globals.get("__name__", "") if event == "call" else ""
        if module.startswith("tautint"):
            name = frame.f_code.co_name
            calls.append((module, name, frame.f_locals[DETAIL[name]] if name in DETAIL else None))

    sys.setprofile(profile)
    try:
        for n, k in ROWS:
            ROUTES[route](n, k)
    finally:
        sys.setprofile(None)
    return calls


def test_the_routes_are_the_ones_verify_runs():
    assert tuple(ROUTES) == VERIFY_METHODS
    reports = list(identities.verify(7))
    assert [(report.n, report.partition) for report in reports] == ROWS
    for report in reports:
        assert {m: ROUTES[m](report.n, report.partition) for m in ROUTES} == report.values


@pytest.mark.parametrize("route", ["delta_closed", "lambda2_closed", "lambda_g_pred"])
def test_closed_routes_reach_no_engine(route):
    calls = fingerprint(route)
    assert ("tautint.arith", "_multinomial", None) in calls
    assert {module for module, _, _ in calls} <= {"tautint.arith", "tautint.identities"}


@pytest.mark.parametrize("route", ["delta_brute", "lambda2_eq5", "lambda2_eq3"])
def test_stratum_sums_never_take_the_induction(route):
    calls = fingerprint(route)
    families = [detail for _, name, detail in calls if name == "_string_dilaton"]
    assert families and any(name == "_orbit_sum" for _, name, _ in calls)
    assert not any(name == "_recursive" for _, name, _ in calls)
    assert not any(isinstance(family, DualGraph) for family in families)


def test_the_induction_takes_stratum_sums_at_its_base_only():
    calls = fingerprint("delta_recursive")
    keys = [detail for _, name, detail in calls if name == "_orbit_sum"]
    assert ("tautint.psi", "_string_dilaton", identities._DELTA_GRAPH) in calls
    assert keys and all(part >= "\2" for key in keys for part in key)


def test_the_peel_splits_the_1s_over_the_vertices(monkeypatch):
    # delta's pullback sums each 1 on either vertex, as it does every other
    # exponent, and never collapses the 1s by the graph's dilaton law, which
    # delta_recursive checks it against.
    asked = []
    factor_value = strata._factor_value

    def record(genus, fixed, assigned):
        asked.append((genus, assigned))
        return factor_value(genus, fixed, assigned)

    strata.clear_cache()
    monkeypatch.setattr(strata, "_factor_value", record)
    for n, k in ROWS:
        strata.pullback_integral(strata.delta_graph(), k)
    assert any("\1" in key for genus, key in asked if genus == 1)
    assert any("\1" in key for genus, key in asked if genus == 0)
