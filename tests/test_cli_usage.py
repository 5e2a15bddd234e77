"""Pinned CLI bytes that do not depend on argparse's help layout: each
parser's usage line at a fixed width, and the whole stderr and exit code of
the two usage errors the handlers print themselves."""

import pytest

from tautint.cli import main

USAGE = {
    (): "usage: tautint [-h] {psi,pullback,lambda2,verify} ...",
    ("psi",): "usage: tautint psi [-h] --genus {0,1} --k K1,K2,... [--json]",
    ("pullback",): "usage: tautint pullback [-h] --graph GRAPH [--k K1,K2,...] [--json]",
    ("lambda2",): "usage: tautint lambda2 [-h] --k K1,K2,... [--method {closed,eq5,eq3}] [--json]",
    ("verify",): "usage: tautint verify [-h] [--n-max N_MAX] [--format {text,csv,json}] [--hard]",
}


@pytest.fixture
def run(capsys, monkeypatch):
    # argparse wraps at the terminal width, which it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


@pytest.mark.parametrize("command", USAGE, ids=lambda command: " ".join(command) or "tautint")
def test_usage_line(run, command):
    code, out, err = run(*command, "-h")
    assert (code, err) == (0, "")
    assert out.split("\n\n")[0] == USAGE[command]


def test_unknown_graph_name(run):
    assert run("pullback", "--graph", "banana") == (
        2, "", "unknown graph 'banana'; use one of delta, delta0, gamma-psi or file:<path>\n")


def test_n_max_past_the_soft_limit_without_hard(run):
    assert run("verify", "--n-max", "13") == (
        2, "", "--n-max 13 checks every partition of n+1 up to n = 13, and the run time about "
               "doubles every two steps past 12; pass --hard to confirm\n")
