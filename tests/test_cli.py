"""Tests for the command-line interface: outputs, formats, and exit codes."""

import csv
import io
import json
import sys
import time
from fractions import Fraction
from math import factorial

import pytest

from tautint import cli, identities
from tautint.arith import format_rational
from tautint.cli import CSV_COLUMNS, OutputRecord, main
from tautint.strata import delta_graph, format_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def decimal_value(text):
    """Read a decimal integer of any length, in chunks short enough for int()."""
    assert text.isdigit() and not text.startswith("0")
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


class TestPsiCommand:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("psi", "--genus", "1", "--k", "1"), "1/24"),
            (("psi", "--genus", "0", "--k", "0,0,0"), "1"),
            (("psi", "--genus", "1", "--k", "2,0"), "1/24"),
            (("psi", "--genus", "0", "--k", "1,1,0,0"), "0"),
        ],
    )
    def test_values(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == expected + "\n"

    def test_deep_inputs(self, capsys):
        # Deeper than Python's recursion limit in the number of points.
        code, out, _ = run(capsys, "psi", "--genus", "0", "--k", ",".join(["997"] + ["0"] * 999))
        assert (code, out) == (0, "1\n")
        code, out, _ = run(capsys, "psi", "--genus", "1", "--k", ",".join(["1"] * 1200))
        assert code == 0
        assert out == format_rational(Fraction(factorial(1199), 24)) + "\n"

    def test_costly_psi_is_domain_error_at_once(self, capsys):
        # The staircase (18, ..., 1, 0^156) would fill a memo of Catalan(19)
        # ~ 1.8e9 entries; the cost guard refuses it before any work.
        k = ",".join(map(str, list(range(18, 0, -1)) + [0] * 156))
        started = time.monotonic()
        code, out, err = run(capsys, "psi", "--genus", "0", "--k", k)
        assert time.monotonic() - started < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "too costly" in err
        assert "Traceback" not in err

    def test_values_beyond_int_str_digit_limit(self, capsys):
        # 1599!/24 has 4430 digits; text and JSON both print all of them.
        k = ",".join(["1"] * 1600)
        code, text, _ = run(capsys, "psi", "--genus", "1", "--k", k)
        assert code == 0 and text.endswith("\n")
        assert decimal_value(text[:-1]) == factorial(1599) // 24
        code, out, _ = run(capsys, "psi", "--genus", "1", "--k", k, "--json")
        assert code == 0
        assert OutputRecord.from_json(out).results == [
            {"method": "string-dilaton", "value": text[:-1]}
        ]

    def test_json_record_round_trips(self, capsys):
        code, out, _ = run(capsys, "psi", "--genus", "1", "--k", "1", "--json")
        assert code == 0
        record = OutputRecord.from_json(out)
        assert record == OutputRecord(
            command="psi",
            inputs={"genus": 1, "k": [1]},
            results=[{"method": "string-dilaton", "value": "1/24"}],
        )
        assert OutputRecord.from_json(record.to_json()) == record

    def test_unstable_space_is_domain_error(self, capsys):
        code, out, err = run(capsys, "psi", "--genus", "0", "--k", "0,0")
        assert code == 1
        assert out == ""
        assert "unstable" in err

    def test_malformed_exponents_usage_error(self, capsys):
        code, _, _ = run(capsys, "psi", "--genus", "1", "--k", "one")
        assert code == 2

    def test_genus_out_of_range_usage_error(self, capsys):
        code, _, _ = run(capsys, "psi", "--genus", "2", "--k", "4")
        assert code == 2


class TestPullbackCommand:
    @pytest.mark.parametrize(
        "graph, k, expected",
        [
            ("delta", "2", "1/24"),
            ("delta0", "2", "1"),
            ("gamma-psi", "2", "1/12"),
            ("delta", "2,1", "1/8"),
        ],
    )
    def test_builtin_graphs(self, capsys, graph, k, expected):
        code, out, _ = run(capsys, "pullback", "--graph", graph, "--k", k)
        assert code == 0
        assert out == expected + "\n"

    def test_deep_input(self, capsys):
        k = ",".join(["1001"] + ["0"] * 999)
        code, out, _ = run(capsys, "pullback", "--graph", "delta0", "--k", k)
        assert (code, out) == (0, "1\n")

    def test_wrong_degree_prints_zero_at_once(self, capsys):
        # 30 marks span 2^30 strata, but the degree alone gives 0.
        k = ",".join(["2", "1"] + ["0"] * 28)
        code, out, _ = run(capsys, "pullback", "--graph", "delta", "--k", k)
        assert (code, out) == (0, "0\n")

    def test_costly_pullback_is_domain_error(self, capsys):
        # degree n+1 over four distinct values: ~6e8 cost units, refused at once
        k = ",".join(["4"] * 15 + ["3"] * 15 + ["2"] * 15 + ["1"] * 5 + ["0"] * 89)
        code, out, err = run(capsys, "pullback", "--graph", "delta", "--k", k)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "too costly" in err

    def test_graph_from_file(self, capsys, tmp_path):
        path = tmp_path / "delta.graph"
        path.write_text(format_graph(delta_graph()), encoding="utf-8")
        code, out, _ = run(capsys, "pullback", "--graph", f"file:{path}", "--k", "2")
        assert code == 0
        assert out == "1/24\n"

    def test_invalid_graph_file_prints_report(self, capsys, tmp_path):
        path = tmp_path / "broken.graph"
        path.write_text("v0 genus=0\nleg a v0\nleg b v0\n", encoding="utf-8")
        code, out, err = run(capsys, "pullback", "--graph", f"file:{path}", "--k", "2")
        assert code == 1
        assert out == ""
        assert "unstable-vertex" in err

    def test_unparseable_graph_file(self, capsys, tmp_path):
        path = tmp_path / "garbage.graph"
        path.write_text("wibble\n", encoding="utf-8")
        code, _, err = run(capsys, "pullback", "--graph", f"file:{path}", "--k", "2")
        assert code == 1
        assert "line 1" in err

    def test_missing_graph_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "pullback", "--graph", f"file:{tmp_path}/nope", "--k", "2")
        assert code == 1
        assert "cannot load graph" in err

    def test_graph_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_bytes(bytes.fromhex("fffe007630"))
        code, out, err = run(capsys, "pullback", "--graph", f"file:{path}", "--k", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("cannot load graph: 'utf-8' codec can't decode byte 0xff")

    def test_unknown_graph_name_usage_error(self, capsys):
        code, _, err = run(capsys, "pullback", "--graph", "banana", "--k", "2")
        assert code == 2
        assert "unknown graph" in err


class TestLambda2Command:
    def test_default_method(self, capsys):
        code, out, _ = run(capsys, "lambda2", "--k", "2")
        assert code == 0
        assert out == "7/5760\n"

    @pytest.mark.parametrize("method", ["closed", "eq5", "eq3"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run(capsys, "lambda2", "--k", "2,1", "--method", method)
        assert code == 0
        assert out == "7/1920\n"

    def test_bad_partition_is_domain_error(self, capsys):
        code, _, err = run(capsys, "lambda2", "--k", "2,2")
        assert code == 1
        assert "sum to" in err


class TestVerifyCommand:
    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "2", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == 4
        assert rows[1] == ["1", "2", "1/24", "1/24", "1/24",
                           "7/5760", "7/5760", "7/5760", "7/5760", "true"]
        assert [row[1] for row in rows[1:]] == ["2", "3+0", "2+1"]
        assert all(row[-1] == "true" for row in rows[1:])

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "1")
        assert code == 0
        assert "AGREE" in out
        assert out.endswith("1 partitions checked, all routes agree\n")

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "2", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 3
        first = OutputRecord.from_dict(records[0])
        assert first.command == "verify"
        assert first.inputs == {"n": 1, "partition": [2]}
        assert first.agree is True
        assert {entry["method"] for entry in first.results} == set(CSV_COLUMNS[2:-1])

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "verify", "--n-max", "3", "--format", "csv")
        _, second, _ = run(capsys, "verify", "--n-max", "3", "--format", "csv")
        assert first == second

    def test_n_max_zero_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "--n-max", "0")
        assert code == 2

    def test_large_n_max_needs_hard_flag(self, capsys):
        code, out, err = run(capsys, "verify", "--n-max", "13", "--format", "csv")
        assert code == 2
        assert out == ""
        assert "--hard" in err


class TestParser:
    def test_no_command_usage_error(self, capsys):
        assert run(capsys, *[])[0] == 2

    def test_unknown_command_usage_error(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2


class TestOutputRecord:
    def test_agree_field_round_trips(self):
        record = OutputRecord(
            command="verify",
            inputs={"n": 1, "partition": [2]},
            results=[{"method": "delta_closed", "value": "1/24"}],
            agree=True,
        )
        assert OutputRecord.from_json(record.to_json()) == record
        assert "agree" in record.to_dict()

    def test_agree_omitted_when_unset(self):
        record = OutputRecord(command="psi", inputs={}, results=[])
        assert "agree" not in record.to_dict()


class TestIntegerArguments:
    """--genus, --k and --n-max take ASCII decimal digits, as the graph
    grammar does; int() alone would also read '1_0' as 10, '+1' and '١'."""

    @pytest.mark.parametrize("value", ["1_0", "+1", "١", "1.0", ""])
    def test_exponent_forms_refused(self, capsys, value):
        code, out, err = run(capsys, "psi", "--genus", "1", "--k", value)
        assert (code, out) == (2, "")
        assert f"expected comma-separated integers such as 2,1,0 — got {value!r}" in err

    def test_exponent_form_refused_in_any_position(self, capsys):
        code, _, err = run(capsys, "pullback", "--graph", "delta", "--k", "2,+0")
        assert code == 2 and "got '2,+0'" in err

    @pytest.mark.parametrize("value", ["1_0", "+1", "١", "x"])
    def test_genus_forms_refused(self, capsys, value):
        code, out, err = run(capsys, "psi", "--genus", value, "--k", "1")
        assert (code, out) == (2, "")
        assert f"argument --genus: invalid int value: {value!r}" in err

    @pytest.mark.parametrize("value", ["٢", "+2", "2_0", "2.0"])
    def test_n_max_forms_refused(self, capsys, value):
        code, out, err = run(capsys, "verify", "--n-max", value)
        assert (code, out) == (2, "")
        assert f"argument --n-max: expected an integer, got {value!r}" in err

    def test_surrounding_spaces_allowed(self, capsys):
        assert run(capsys, "psi", "--genus", " 1 ", "--k", " 2 , 0")[:2] == (0, "1/24\n")
        code, out, _ = run(capsys, "verify", "--n-max", " 1\t", "--format", "csv")
        assert code == 0 and out.count("\n") == 2

    def test_signs_keep_their_messages(self, capsys):
        _, _, err = run(capsys, "psi", "--genus", "1", "--k", "-1")
        assert "exponents must be nonnegative, got '-1'" in err
        _, _, err = run(capsys, "verify", "--n-max", "-3")
        assert "expected a positive integer, got -3" in err
        _, _, err = run(capsys, "psi", "--genus", "-1", "--k", "1")
        assert "invalid choice: -1" in err

    # Past int()'s default limit of 4300 digits, int() raises ValueError; the
    # messages must stay the documented ones, not name a private helper.
    LONG = "1" * 4301

    def test_exponent_past_digit_limit(self, capsys):
        code, out, err = run(capsys, "psi", "--genus", "0", "--k", self.LONG)
        assert (code, out) == (2, "")
        assert f"argument --k: expected comma-separated integers such as 2,1,0 — got {self.LONG!r}" in err

    def test_n_max_past_digit_limit(self, capsys):
        code, out, err = run(capsys, "verify", "--n-max", self.LONG)
        assert (code, out) == (2, "")
        assert f"argument --n-max: expected an integer, got {self.LONG!r}" in err

    def test_genus_past_digit_limit(self, capsys):
        code, out, err = run(capsys, "psi", "--genus", self.LONG, "--k", "1")
        assert (code, out) == (2, "")
        assert f"argument --genus: invalid int value: {self.LONG!r}" in err


class TestVerifyStreaming:
    def test_csv_rows_written_as_reports_arrive(self, monkeypatch):
        # The bytes under a buffered text stream: a row shows there only once
        # it has been written and flushed.
        raw = io.BytesIO()
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8"))
        seen = []

        def reports(n_max):
            for report in identities.verify(n_max):
                seen.append(raw.getvalue().decode())
                yield report

        monkeypatch.setattr(cli, "verify", reports)
        assert main(["verify", "--n-max", "2", "--format", "csv"]) == 0
        lines = raw.getvalue().decode().splitlines(keepends=True)
        assert lines[0] == ",".join(CSV_COLUMNS) + "\n" and len(lines) == 4
        assert seen[1:] == ["".join(lines[:2]), "".join(lines[:3])]

    @pytest.mark.parametrize("form", ["csv", "text", "json"])
    def test_disagreement_exits_3(self, capsys, monkeypatch, form):
        def reports(n_max):
            for report in identities.verify(n_max):
                yield report._replace(agreed=report.n != 2)

        monkeypatch.setattr(cli, "verify", reports)
        code, out, _ = run(capsys, "verify", "--n-max", "3", "--format", form)
        assert code == 3
        assert out.count("false" if form == "csv" else "DISAGREE" if form == "text"
                         else '"agree": false') == (3 if form == "text" else 2)
