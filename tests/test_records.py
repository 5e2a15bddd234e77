"""Tests for the record classes: construction, immutability, pickling, repr,
and a runtime import graph without ``dataclasses``."""

import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from oracles import LEGGED_DECO
from tautint.cli import OutputRecord
from tautint.identities import VerificationReport, verify
from tautint.psi import ModuliIndex
from tautint.strata import (
    DualGraph,
    StrataExpression,
    ValidationReport,
    Violation,
    delta_graph,
    validate_graph,
)


def legged_loop():
    return DualGraph(*LEGGED_DECO)


def expression():
    return StrataExpression(((Fraction(1, 2), delta_graph()), (3, legged_loop())))


def test_import_pulls_in_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize: ~10 ms of every start.
    code = ("import sys; before = set(sys.modules); import tautint.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    # conftest puts src/ on PYTHONPATH, which the child inherits.
    imported = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True).stdout.split()
    assert "tautint.cli" in imported
    for name in ("dataclasses", "inspect", "ast", "dis", "tokenize"):
        assert name not in imported


RECORDS = {
    "ModuliIndex": (ModuliIndex(1, 2), "genus"),
    "DualGraph": (legged_loop(), "genera"),
    "StrataExpression": (expression(), "terms"),
    "ValidationReport": (validate_graph(delta_graph()), "violations"),
    "VerificationReport": (next(verify(1)), "agreed"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    record, field = RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)


def test_graphs_take_no_new_attributes():
    with pytest.raises(AttributeError):
        legged_loop().extra = 1
    with pytest.raises(AttributeError):
        legged_loop()._hash = 0


@pytest.mark.parametrize("build", [lambda: ModuliIndex(1, 2), legged_loop, expression])
def test_pickle_round_trip(build):
    record = build()
    loaded = pickle.loads(pickle.dumps(record))
    assert loaded == record and hash(loaded) == hash(record)
    assert type(loaded) is type(record)


def test_keyword_and_positional_construction_agree():
    assert ModuliIndex(genus=1, marks=2) == ModuliIndex(1, 2)
    assert legged_loop() == DualGraph(genera=(1, 0), edges=((0, 1), ((1, 1), (1, 0))), legs=(("x", 1),))
    assert DualGraph(genera=(0,), edges=((0, 0), (0, 0))) == DualGraph((0,), ((0, 0), (0, 0)))
    terms = ((Fraction(1), delta_graph()),)
    assert StrataExpression(terms=terms) == StrataExpression(terms)
    assert StrataExpression() == StrataExpression(())
    assert ValidationReport(violations=()) == ValidationReport(())
    report = next(verify(1))
    assert VerificationReport(n=report.n, partition=report.partition, values=report.values,
                              agreed=report.agreed) \
        == VerificationReport(report.n, report.partition, report.values, report.agreed)
    assert OutputRecord(command="psi", inputs={}, results=[{"a": "1"}], agree=True) \
        == OutputRecord("psi", {}, [{"a": "1"}], True)


def test_records_are_tuples_of_their_fields():
    assert ModuliIndex(1, 2) == (1, 2) and tuple(ValidationReport(())) == ((),)
    genus, marks = ModuliIndex(0, 5)
    assert (genus, marks) == (0, 5) and ModuliIndex(0, 5).dimension == 2
    assert OutputRecord("psi", {}) == ("psi", {}, [], None)
    assert StrataExpression() == ((),)


def test_normalized_records_match_by_field():
    assert DualGraph.__match_args__ == ("genera", "edges", "legs")
    assert StrataExpression.__match_args__ == ("terms",)
    match expression():
        case StrataExpression(terms):
            assert len(terms) == 2
    assert legged_loop() != delta_graph() and legged_loop() != (legged_loop().genera,)
    assert expression() != StrataExpression() and hash(expression()) == hash(expression())


# Each record prints as it always has: by class name and fields, in order.
DELTA = ("DualGraph(genera=(1, 0), edges=(Edge(a=EdgeEnd(vertex=0, psi=0), "
         "b=EdgeEnd(vertex=1, psi=0)), Edge(a=EdgeEnd(vertex=1, psi=0), "
         "b=EdgeEnd(vertex=1, psi=0))), legs=())")
LOOP = ("DualGraph(genera=(1, 0), edges=(Edge(a=EdgeEnd(vertex=0, psi=0), "
        "b=EdgeEnd(vertex=1, psi=0)), Edge(a=EdgeEnd(vertex=1, psi=0), "
        "b=EdgeEnd(vertex=1, psi=1))), legs=(Leg(label='x', vertex=1, psi=0),))")
REPRS = [
    (lambda: ModuliIndex(1, 2), "ModuliIndex(genus=1, marks=2)"),
    (delta_graph, DELTA),
    (legged_loop, LOOP),
    (expression, f"StrataExpression(terms=((Fraction(1, 2), {DELTA}), (Fraction(3, 1), {LOOP})))"),
    (StrataExpression, "StrataExpression(terms=())"),
    (lambda: validate_graph(legged_loop()), "ValidationReport(violations=())"),
    (lambda: validate_graph(DualGraph((0,))),
     "ValidationReport(violations=(Violation(kind='unstable-vertex', message='vertex v0 "
     "(genus 0, valence 0) violates 2g-2+valence > 0'),))"),
    (lambda: next(verify(2)),
     "VerificationReport(n=1, partition=(2,), values={'delta_closed': Fraction(1, 24), "
     "'delta_recursive': Fraction(1, 24), 'delta_brute': Fraction(1, 24), "
     "'lambda2_closed': Fraction(7, 5760), 'lambda2_eq5': Fraction(7, 5760), "
     "'lambda2_eq3': Fraction(7, 5760), 'lambda_g_pred': Fraction(7, 5760)}, agreed=True)"),
    (lambda: OutputRecord("psi", {"genus": 1}, [{"a": "1"}], True),
     "OutputRecord(command='psi', inputs={'genus': 1}, results=[{'a': '1'}], agree=True)"),
    (lambda: OutputRecord("psi", {}),
     "OutputRecord(command='psi', inputs={}, results=[], agree=None)"),
]


@pytest.mark.parametrize("build, expected", REPRS)
def test_reprs_unchanged(build, expected):
    assert repr(build()) == expected


def test_validation_report_text():
    assert str(ValidationReport(())) == "valid dual graph" and ValidationReport(()).ok
    report = ValidationReport((Violation("empty", "graph has no vertices"),))
    assert str(report) == "empty: graph has no vertices" and not report.ok


def test_output_records_do_not_share_a_results_list():
    first, second = OutputRecord("psi", {}), OutputRecord(command="psi", inputs={})
    assert first.results == [] and first.results is not second.results
    first.results.append({"value": "1"})
    assert second.results == []
    assert OutputRecord.from_json(first.to_json()) == first
