"""One md5 over the outcomes of a seeded set of small strata evaluations.

Each graph (valid, invalid, heavily decorated, decorated, of genus other than
2) meets each of a seeded set of exponent lists (negatives and floats
included) through four calls: ``pullback_integral``, the same call again (a
memo hit), the sum of ``stratum_terms`` and ``expression_integral``.  An
outcome is the value, or the exception type and message.  Two checkouts that
print the same count and digest agree on every one of them, so a refactor
that must not change values can be checked by running this on both.  A
second line gives one md5 over every memo in ``psi._MEMOS`` after the calls,
its keys, values and insertion order, so a refactor of the evaluators can
show that it fills the same entries in the same order::

    PYTHONPATH=src python3 tools/check/outcome_digest.py [--seed N] [--verbose] [--entries]

``--verbose`` prints every outcome, one a line, for a diff, before the two
digest lines.  ``--entries`` adds a last line with each memo's entry count
(a family memo counts its families' entries), to show how much a memo
layout changed.
"""

import argparse
import hashlib
import random
from fractions import Fraction

from tautint import psi
from tautint.strata import (DualGraph, StrataExpression, delta_graph, expression_integral,
                            parse_graph, pullback_integral, stratum_terms)

# Graphs as literal text, or as DualGraph arguments where the literal format
# cannot say it (a reference to a missing vertex).
GRAPHS = {
    "delta": "v0 genus=1\nv1 genus=0\ne v0.h0 v1.h0\ne v1.h1 v1.h2\n",
    "delta0": "v0 genus=0\ne v0.h0 v0.h1\ne v0.h2 v0.h3\n",
    "gamma-psi": "v0 genus=1\ne v0.h0 v0.h1 psi=1\n",
    "chain3": "v0 genus=1\nv1 genus=0\nv2 genus=1\ne v0.h0 v1.h0\ne v1.h1 v2.h0\nleg a v1\n",
    "legged-deco": "v0 genus=1\nv1 genus=0\ne v0.h0 v1.h0\ne v1.h1 v1.h2 psi=1\nleg x v1\n",
    "delta-deco-g1": "v0 genus=1\nv1 genus=0\ne v0.h0 v1.h0 psi=1\ne v1.h1 v1.h2\n",
    "delta-deco-g0": "v0 genus=1\nv1 genus=0\ne v0.h0 v1.h0 psi=0,1\ne v1.h1 v1.h2\n",
    "leg-deco-g1": "v0 genus=1\nv1 genus=1\ne v0.h0 v1.h0\nleg x v0 psi=1\n",
    "heavy-loop": "v0 genus=1\ne v0.h0 v0.h1 psi=2\n",
    "heavy-split": "v0 genus=1\ne v0.h0 v0.h1 psi=1,1\n",
    "genus-1": "v0 genus=1\nleg x v0\n",
    "genus-3": "v0 genus=1\ne v0.h0 v0.h1\ne v0.h2 v0.h3\n",
    "genus-2-vertex": "v0 genus=2\nleg x v0\n",
    "unstable": "v0 genus=0\nv1 genus=1\ne v0.h0 v1.h0\ne v1.h1 v1.h2\n",
    "disconnected": "v0 genus=1\nv1 genus=1\nleg x v0\nleg y v1\n",
    "bad-vertex-ref": ((1,), ((0, 0), (0, 3))),
}
CALLS = ("pullback", "pullback again", "stratum terms", "expression")
BAD_ENTRIES = (-1, 1.5, 2.0)


def exponent_lists(seed: int, count: int = 80, most: int = 6) -> list[list]:
    """The empty list, then ``count`` seeded lists of 1..``most`` entries.
    Each holds n - 1 to n + 2 units spread over its n entries, around the
    degrees of the graphs above, and about one in six has one entry replaced
    by a negative or a float."""
    rng = random.Random(seed)
    lists = [[]]
    for _ in range(count):
        n = rng.randint(1, most)
        k = [0] * n
        for _ in range(n + rng.randint(-1, 2)):
            k[rng.randrange(n)] += 1
        if rng.random() < 1 / 6:
            k[rng.randrange(n)] = rng.choice(BAD_ENTRIES)
        lists.append(k)
    return lists


def outcome(call, *args) -> str:
    try:
        return repr(call(*args))
    except Exception as exc:  # every refusal is an outcome, recorded by type and text
        return f"{type(exc).__name__}: {exc}"


def evaluate(name: str, graph: DualGraph, k: list) -> list[str]:
    expression = StrataExpression(((Fraction(2, 3), graph), (Fraction(1, 5), delta_graph())))
    values = (
        outcome(pullback_integral, graph, k),
        outcome(pullback_integral, graph, k),
        outcome(lambda: sum(term.value for term in stratum_terms(graph, k))),
        outcome(expression_integral, expression, k),
    )
    return [f"{name}\t{call}\t{k!r}\t{value}" for call, value in zip(CALLS, values)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--entries", action="store_true")
    args = parser.parse_args()
    graphs = {name: parse_graph(spec) if isinstance(spec, str) else DualGraph(*spec)
              for name, spec in GRAPHS.items()}
    records = [record for k in exponent_lists(args.seed)
               for name, graph in graphs.items() for record in evaluate(name, graph, k)]
    if args.verbose:
        print("\n".join(records))
    digest = hashlib.md5("\n".join(records).encode()).hexdigest()
    print(f"{len(records)} outcomes, md5 {digest}")
    # Memo keys and values are graphs, strings, ints, tuples and Fractions,
    # whose reprs do not depend on the process's hash seed.
    print(f"memos, md5 {hashlib.md5(repr(psi._MEMOS).encode()).hexdigest()}")
    if args.entries:
        counts = (sum(len(v) if isinstance(v, dict) else 1 for v in memo.values()) for memo in psi._MEMOS.values())
        print("memo entries, " + ", ".join(f"{name} {count}" for name, count in zip(psi._MEMOS, counts)))


if __name__ == "__main__":
    main()
