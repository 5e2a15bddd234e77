"""Fuzzed command lines, run in-process through ``cli.main``: every argv ends
in an exit code in {0, 1, 2, 3}, with no traceback on stderr, in bounded
time.  The commands, their flags, short exponent lists, built-in graphs,
small graph files and malformed text are mixed; sizes stay small."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from tautint import cli

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_DOMAIN, cli.EXIT_USAGE, cli.EXIT_DISAGREE}

junk = st.text(max_size=8)

# Exponent lists: mostly short nonnegative ones (one_of draws its branches
# alike, so that one is listed three times), some with a negative entry, and
# text that is not a list of ASCII integers.
nonnegative = st.lists(st.integers(0, 6), min_size=1, max_size=6).map(lambda k: ",".join(map(str, k)))
exponent_texts = st.one_of(
    nonnegative, nonnegative, nonnegative,
    st.lists(st.integers(-2, 6), min_size=1, max_size=4).map(lambda k: ",".join(map(str, k))),
    st.sampled_from(["", ",", "1,,2", "2 , 1", "1_0", "+1", "٣", "2.0", "x"]),
    junk,
)


VALID_GRAPHS = [
    "v0 genus=1\nv1 genus=0\ne v0.h0 v1.h0\ne v1.h1 v1.h2\n",  # delta
    "v0 genus=1\nv1 genus=0\ne v0.h0 v1.h0\ne v1.h1 v1.h2 psi=1\nleg x v1\n",
    "v0 genus=0\nv1 genus=0\nv2 genus=0\ne v0.h0 v1.h0\ne v0.h1 v1.h1\n"
    "e v1.h2 v2.h0\ne v1.h3 v2.h1\nleg a v0\nleg b v2\n",
]


@st.composite
def random_graph_texts(draw):
    """A few lines of the graph literal format, not necessarily a valid graph:
    vertex, edge and leg lines of small numbers, and now and then junk."""
    count = draw(st.integers(1, 3))
    lines = [f"v{i} genus={draw(st.integers(-1, 2))}" for i in range(count)]
    vertex, slot, psi = st.integers(0, count), st.integers(0, 3), st.integers(0, 2)
    for _ in range(draw(st.integers(0, 3))):
        line = f"e v{draw(vertex)}.h{draw(slot)} v{draw(vertex)}.h{draw(slot)}"
        if draw(st.booleans()):
            line += f" psi={draw(psi)}"
        lines.append(line)
    for i in range(draw(st.integers(0, 2))):
        lines.append(f"leg x{i} v{draw(vertex)}" + draw(st.sampled_from(["", " psi=1"])))
    if draw(st.integers(0, 4)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "\n".join(lines) + "\n"


graph_texts = st.one_of(st.sampled_from(VALID_GRAPHS), random_graph_texts())


def flag(name, values):
    # Given five times in six, so that most command lines parse.
    return st.tuples(st.integers(0, 5), values).map(lambda pair: [name, pair[1]] if pair[0] else [])


def switch(name):
    return st.sampled_from([[], [name]])


@st.composite
def argvs(draw, graph_file):
    command = draw(st.sampled_from(["psi", "pullback", "lambda2", "verify"] * 2 + ["junk"]))
    if command == "psi":
        options = [draw(flag("--genus", st.sampled_from(["0", "1"] * 3 + ["2", "-1", "x"]))),
                   draw(flag("--k", exponent_texts)), draw(switch("--json"))]
    elif command == "pullback":
        text = draw(graph_texts)
        with open(graph_file, "w", encoding="utf-8") as handle:
            handle.write(text)
        graphs = st.sampled_from(["delta", "delta0", "gamma-psi", "bogus", f"file:{graph_file}.missing"]
                                 + [f"file:{graph_file}"] * 4)
        options = [draw(flag("--graph", graphs)), draw(flag("--k", exponent_texts)),
                   draw(switch("--json"))]
    elif command == "lambda2":
        methods = st.sampled_from(["closed", "eq5", "eq3", "eq4"])
        options = [draw(flag("--k", exponent_texts)), draw(flag("--method", methods)),
                   draw(switch("--json"))]
    elif command == "verify":
        # Small bounds run; past the soft limit only without --hard, so refused.
        n_max = draw(st.sampled_from(["1", "3", "6", "0", "-1", "x", "", "13", "40"]))
        hard = [] if n_max in ("13", "40") else draw(switch("--hard"))
        formats = st.sampled_from(["text", "csv", "json", "xml"])
        options = [draw(flag("--n-max", st.just(n_max))), draw(flag("--format", formats)), hard]
    else:
        return draw(st.lists(junk, max_size=4))
    extra = draw(st.sampled_from(["none"] * 8 + ["help", "junk"]))
    extra = {"none": [], "help": ["-h"], "junk": [draw(junk)]}[extra]
    options = draw(st.permutations(options + [extra]))
    return [command] + [arg for option in options for arg in option]


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "graph.txt")


@settings(max_examples=250, deadline=2000)
@given(data=st.data())
def test_any_argv_ends_in_an_exit_code_without_traceback(graph_file, data):
    argv = data.draw(argvs(graph_file), label="argv")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in EXIT_CODES, (argv, code)
    assert "Traceback" not in err.getvalue()
