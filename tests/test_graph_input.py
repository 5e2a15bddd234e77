"""Robustness of graph input: the three-line graph literal grammar and the
shapes of DualGraph's edge, edge-end and leg entries."""

import itertools
import re

import pytest
from hypothesis import given, settings, strategies as st

from oracles import CHAIN3, DECORATED_DELTA, GAMMA_1_PSI, GRAPHS, LEGGED_DECO, THETA, legged_chain
from tautint.cli import main
from tautint.psi import UnsupportedGenusError
from tautint.strata import (BUILTIN_GRAPHS, DualGraph, GraphParseError, InvalidGraphError, StrataExpression,
                            expression_integral, format_graph, parse_graph, pullback_integral, stratum_terms,
                            total_genus, validate_graph)

LONG = "1" * 5000  # more digits than int() converts from a str

EDGE_SHAPE = "e v<i>.h<a> v<j>.h<b> [psi=<p>[,<q>]]"


class TestDualGraphShapes:
    @pytest.mark.parametrize("entry, build", [
        (("x",), lambda: DualGraph(genera=(1, 0), edges=((0, 1), (1, 1)), legs=(("x",),))),
        ((0, 1, 2), lambda: DualGraph(genera=(1, 0), edges=(((0, 1, 2), 1), (1, 1)))),
        ((0, 1, 1), lambda: DualGraph(genera=(1, 0), edges=((0, 1, 1), (1, 1)))),
    ], ids=["leg", "edge-end", "edge"])
    def test_malformed_entry_is_a_value_error_naming_it(self, entry, build):
        with pytest.raises(ValueError, match=re.escape(repr(entry))) as raised:
            build()
        assert not isinstance(raised.value, TypeError)


class TestLegLabels:
    """Every label a DualGraph holds is one format_graph writes and
    parse_graph reads back."""

    @pytest.mark.parametrize("label", ["a b", "x#y", "", "a\tb", "a\nb"],
                             ids=["space", "hash", "empty", "tab", "newline"])
    def test_label_that_cannot_round_trip_is_refused(self, label):
        with pytest.raises(ValueError, match=f"^leg label {re.escape(repr(label))} "):
            DualGraph(genera=(1, 0), edges=((0, 1), (1, 1)), legs=((label, 1),))

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=6))
    def test_accepted_labels_round_trip(self, label):
        try:
            graph = DualGraph(genera=(1, 0), edges=((0, 1), (1, 1)), legs=((label, 1),))
        except ValueError:
            assert not label or any(c.isspace() or c == "#" for c in label)
            return
        assert parse_graph(format_graph(graph)) == graph


class TestLongNumbers:
    @pytest.mark.parametrize("text", [
        f"v{LONG} genus=0\n",
        f"leg a v{LONG}\n",
        f"e v0.h{LONG} v0.h1\n",
    ], ids=["vertex", "leg-vertex", "half-edge-slot"])
    def test_parse_error_names_the_line(self, text):
        with pytest.raises(GraphParseError, match="^line 1: "):
            parse_graph(text)

    def test_cli_reports_cannot_load(self, capsys, tmp_path):
        path = tmp_path / "long.graph"
        path.write_text(f"v0 genus=1\nleg a v{LONG}\n", encoding="utf-8")
        code = main(["pullback", "--graph", f"file:{path}", "--k", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("cannot load graph: line 2: ")


class TestLineGrammar:
    @pytest.mark.parametrize("text, message", [
        ("v0 genus=1\ne v0.h0 v0.h1 psi=1,2,3\n",
         f"line 2: expected '{EDGE_SHAPE}', got 'e v0.h0 v0.h1 psi=1,2,3'"),
        ("v0 genus=1\ne v0.h0 v0.h1 psi=1,\n",
         f"line 2: expected '{EDGE_SHAPE}', got 'e v0.h0 v0.h1 psi=1,'"),
        ("v0 genus=1\ne v0.h0 v0.h1 psi=1 x\n",
         f"line 2: expected '{EDGE_SHAPE}', got 'e v0.h0 v0.h1 psi=1 x'"),
        ("v0 genus=1\nleg a v0 psi=1 x\n",
         "line 2: expected 'leg <label> v<i> [psi=<p>]', got 'leg a v0 psi=1 x'"),
        ("v0 genus=1\nleg a v0 psi=x\n",
         "line 2: expected 'leg <label> v<i> [psi=<p>]', got 'leg a v0 psi=x'"),
        ("v0 genus=1 extra\n", "line 1: expected 'v<i> genus=<g>', got 'v0 genus=1 extra'"),
        ("# header\n\nwibble  # a comment\n", "line 3: expected 'v<i> genus=<g>', got 'wibble'"),
    ], ids=["psi-three", "psi-trailing-comma", "edge-trailing-token", "leg-trailing-token",
            "leg-psi-word", "vertex-trailing-token", "unknown-line"])
    def test_ill_formed_line_names_its_shape(self, text, message):
        with pytest.raises(GraphParseError, match=f"^{re.escape(message)}$"):
            parse_graph(text)

    @pytest.mark.parametrize("text", [
        "v0 genus=+1\n",
        "v0 genus=1_0\n",
        "v0 genus=١\n",  # ARABIC-INDIC DIGIT ONE, which int() reads as 1
        "v0 genus=1\ne v0.h0 v0.h1 psi=+1\n",
        "v0 genus=1\nleg a v0 psi=1_0\n",
    ], ids=["plus", "underscore", "non-ascii-digit", "edge-psi-plus", "leg-psi-underscore"])
    def test_only_decimal_digits_are_numbers(self, text):
        with pytest.raises(GraphParseError, match="^line [12]: expected '"):
            parse_graph(text)

    @pytest.mark.parametrize("text, message", [
        ("v0 genus=1\nv2 genus=0\n", "line 2: expected vertex v1, got v2"),
        ("v0 genus=1\ne v0.h0 v1.h0\n", "line 2: v1 is not declared"),
        ("v0 genus=1\nleg a v1\n", "line 2: v1 is not declared"),
        ("v0 genus=1\ne v0.h0 v0.h0\n", "line 2: half-edge v0.h0 repeats"),
        ("v0 genus=1\nleg a v0\nleg a v0\n", "line 3: leg label 'a' repeats"),
    ], ids=["vertex-order", "edge-vertex", "leg-vertex", "half-edge", "leg-label"])
    def test_rules_beyond_the_grammar(self, text, message):
        with pytest.raises(GraphParseError, match=f"^{re.escape(message)}$"):
            parse_graph(text)

    def test_tabs_and_runs_of_spaces_are_collapsed(self):
        text = "v0\t genus=1 \n\tv1   genus=0\n e\tv0.h0  v1.h0\t\tpsi=1\ne v1.h1 v1.h2\nleg  x\tv1\n"
        expected = DualGraph(genera=(1, 0), edges=(((0, 1), (1, 0)), (1, 1)), legs=(("x", 1),))
        assert parse_graph(text) == expected

    def test_negative_genus_reaches_validation(self):
        report = validate_graph(parse_graph("v0 genus=-1\nleg a v0\nleg b v0\nleg c v0\n"))
        assert [v.kind for v in report.violations] == ["negative-genus"]


class TestFormatGraph:
    """format_graph writes text that parse_graph reads back to an equal graph,
    or refuses a graph the format cannot hold."""

    UNWRITABLE = {
        "edge-end-past-last-vertex": DualGraph((1,), ((0, 0), (0, 3))),
        "edge-end-at-v-1": DualGraph((1, 0), ((0, 1), (-1, 1))),
        "leg-at-v5": DualGraph((1, 0), ((0, 1), (1, 1)), (("x", 5),)),
        "negative-psi": DualGraph((1,), (((0, -1), (0, 0)),)),
        "repeated-leg-label": DualGraph((1, 0), ((0, 1), (1, 1)), (("x", 1), ("x", 0))),
        "empty": DualGraph(()),
        "not-a-graph": "delta",
    }
    WRITABLE = {
        "negative-genus": DualGraph((-1,), (), (("a", 0), ("b", 0), ("c", 0))),
        "disconnected": DualGraph((1, 1), (), (("a", 0), ("b", 1))),
        "unstable-vertex": DualGraph((0,)),
        **{name: builder() for name, builder in BUILTIN_GRAPHS.items()},
        **{f"kit-{name}": DualGraph(*data) for name, data in GRAPHS.items()},
        "legged-deco": DualGraph(*LEGGED_DECO),
        "decorated-delta": DualGraph(*DECORATED_DELTA),
        "chain3": DualGraph(*CHAIN3),
        "theta": DualGraph(*THETA),
        "gamma-1-psi": DualGraph(*GAMMA_1_PSI),
        "legged-chain-6": DualGraph(*legged_chain(6)),
    }

    @pytest.mark.parametrize("graph", UNWRITABLE.values(), ids=UNWRITABLE)
    def test_unwritable_graph_is_refused(self, graph):
        with pytest.raises(InvalidGraphError) as raised:
            format_graph(graph)
        assert raised.value.report == validate_graph(graph)

    @pytest.mark.parametrize("graph", WRITABLE.values(), ids=WRITABLE)
    def test_writable_graph_round_trips(self, graph):
        assert parse_graph(format_graph(graph)) == graph


# Text over the format's own alphabet and keywords, with some whole lines so
# that valid graphs are drawn too.
TOKENS = ["v", "v0", "v1", "e", "leg", "genus=", "psi=", ".h", "h", "0", "1", "12", "-",
          ",", "=", ".", "x", "#", " ", "  ", "\t", "\n",
          "v0 genus=1\n", "v1 genus=0\n", "e v0.h0 v1.h0", "e v1.h1 v1.h2", "leg x v1",
          " psi=1", ",2"]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=40).map("".join))
def test_literal_text_parses_or_raises_parse_error(text):
    try:
        graph = parse_graph(text)
    except GraphParseError:
        return
    assert parse_graph(format_graph(graph)) == graph


class TestNumbersPastTheDigitLimit:
    """A graph number with more digits than str() writes is reported in
    Decimal, and each edge refuses the graph as any other such graph."""

    HUGE = 10 ** 5000
    CASES = {
        "huge-genus": (DualGraph((HUGE,), ((0, 0),)), "unsupported-genus", UnsupportedGenusError),
        "leg-at-huge-vertex": (DualGraph((1,), ((0, 0),), (("x", HUGE),)), "bad-vertex-ref",
                               InvalidGraphError),
    }

    @pytest.mark.parametrize("graph, kind, error", CASES.values(), ids=CASES)
    def test_report_writes_every_digit(self, graph, kind, error):
        (violation,) = validate_graph(graph).violations
        assert violation.kind == kind
        assert "1" + "0" * 5000 in violation.message

    @pytest.mark.parametrize("graph, kind, error", CASES.values(), ids=CASES)
    def test_evaluators_refuse_as_for_any_such_graph(self, graph, kind, error):
        calls = [lambda k: pullback_integral(graph, k), lambda k: list(stratum_terms(graph, k)),
                 lambda k: expression_integral(StrataExpression(((1, graph),)), k)]
        for call, k in itertools.product(calls, [(), (2,), (2, 1, 0)]):
            with pytest.raises(error) as raised:
                call(k)
            assert str(raised.value) == str(validate_graph(graph))

    @pytest.mark.parametrize("graph, kind, error", CASES.values(), ids=CASES)
    def test_format_graph_refuses_what_parse_graph_cannot_read(self, graph, kind, error):
        with pytest.raises(InvalidGraphError) as raised:
            format_graph(graph)
        assert kind in {violation.kind for violation in raised.value.report.violations}

    @pytest.mark.parametrize("graph", [HUGE, (HUGE,), [HUGE]], ids=["int", "tuple", "list"])
    def test_a_non_graph_past_the_limit_is_reported(self, graph):
        (violation,) = validate_graph(graph).violations
        assert violation.kind == "not-a-graph"
        calls = [lambda: pullback_integral(graph, (2,)), lambda: list(stratum_terms(graph, (2,))),
                 lambda: expression_integral(StrataExpression(((1, graph),)), (2,)),
                 lambda: total_genus(graph), lambda: format_graph(graph)]
        for call in calls:
            with pytest.raises(InvalidGraphError, match="^not-a-graph: expected a DualGraph, got "):
                call()

    @pytest.mark.parametrize("graph", [graph for graph, _, _ in CASES.values()]
                             + [DualGraph((1,), (((0, HUGE), (0, 0)),))], ids=[*CASES, "huge-psi"])
    def test_repr_and_str_write_every_digit(self, graph):
        assert str(graph) == repr(graph)
        assert repr(graph).count("1" + "0" * 5000) == 1

    def test_repr_of_a_graph_within_the_limit_is_the_fields_repr(self):
        graphs = [make() for make in BUILTIN_GRAPHS.values()]
        graphs += [DualGraph(*data) for data in [*GRAPHS.values(), CHAIN3, LEGGED_DECO, ((-3,),)]]
        for graph in graphs:
            assert repr(graph) == (f"DualGraph(genera={graph.genera!r}, edges={graph.edges!r}, "
                                   f"legs={graph.legs!r})")

    def test_format_graph_refuses_a_huge_psi_on_a_valid_graph(self):
        graph = DualGraph((1,), (((0, self.HUGE), (0, 0)),))
        assert validate_graph(graph).ok
        with pytest.raises(InvalidGraphError, match="^too-many-digits: "):
            format_graph(graph)
