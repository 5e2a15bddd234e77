"""Seeded inputs and output checks for the three benchmark workloads.

Inputs are plain JSON data made from the seed; the measured process receives
only these.  Checks compare every returned value with :mod:`oracle`, which
never imports tautint.  Nothing here imports tautint either.
"""

from __future__ import annotations

import csv
import io
import random
from fractions import Fraction

import oracle

# verify --n-max 10 (the ROADMAP's end-to-end command): 183 partitions x 7
# routes, about 4 s on one core.  Larger N leaves too few rounds per run.
VERIFY_N_MAX = 10
VERIFY_ROUTES = ("delta_closed", "delta_recursive", "delta_brute",
                 "lambda2_closed", "lambda2_eq5", "lambda2_eq3", "lambda_g_pred")
VERIFY_COLUMNS = ("n", "partition") + VERIFY_ROUTES + ("agree",)

# (genus, marks) of psi-cold: every partition of the dimension, ~7k monomials.
PSI_SPACES = ((0, 22), (0, 26), (0, 30), (1, 20), (1, 24))

CHAIN3 = """\
v0 genus=0
v1 genus=0
v2 genus=0
e v0.h0 v1.h0
e v0.h1 v1.h1
e v1.h2 v2.h0
e v1.h3 v2.h1
leg a v0
leg b v2
"""

LEGGED_DECO = """\
v0 genus=1
v1 genus=0
e v0.h0 v1.h0
e v1.h1 v1.h2 psi=1
leg x v1
"""

# Graph name -> literal text for parse_graph, or None for a built-in.
GRAPHS = {"delta": None, "delta0": None, "gamma-psi": None,
          "chain3": CHAIN3, "legged-deco": LEGGED_DECO}
LEGS = {"chain3": 2, "legged-deco": 1}

BUILTIN_NS = range(5, 11)          # two partitions per built-in graph and n
PAIR_BASES = {"chain3": range(5, 8), "legged-deco": range(5, 9)}
GROWTH_NS = range(6, 15)           # delta growth sweep
# One miss, then four hits per multiset.  A hit right after a miss runs on
# cold CPU caches and takes twice as long as one after a hit, by an amount
# that moves with the host's load; with four hits per miss the median call
# is a hit after a hit, so eval_p50_ms measures the hit path itself.
ASKS = 5


def generate(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "verify-sweep":
        # The command line is the whole input; the seed does not change it.
        return {"argv": ["verify", "--n-max", str(VERIFY_N_MAX), "--format", "csv"]}
    if workload == "psi-cold":
        return _psi_cold(rng)
    if workload == "pullback-graphs":
        return _pullback_graphs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _shuffled(values, rng) -> list[int]:
    out = list(values)
    rng.shuffle(out)
    return out


def _psi_cold(rng: random.Random) -> dict:
    # The first pass runs in a fixed order: which call pays for the deep
    # recursion depends on order, and a seeded order made the p99.9 latency
    # a property of the seed.  The seed picks each composition instead.
    monomials = [(genus, _shuffled(p, rng))
                 for genus, marks in PSI_SPACES
                 for p in oracle.partitions(3 * genus - 3 + marks, marks)]
    # A second pass over a random half, in random order, keeps misses the
    # majority, so the median latency is a miss, not the hit/miss boundary.
    again = [(genus, _shuffled(k, rng)) for genus, k in rng.sample(monomials, len(monomials) // 2)]
    return {"calls": [[g, k] for g, k in monomials + again]}


def _pullback_graphs(rng: random.Random) -> dict:
    used: set[tuple[str, tuple[int, ...]]] = set()
    groups: list[tuple[str, tuple[int, ...]]] = []
    pairs: list[list[int]] = []

    def pick(graph: str, n: int, fits=lambda p: True) -> tuple[int, ...]:
        choices = [p for p in oracle.partitions(n + 1, n) if (graph, p) not in used and fits(p)]
        chosen = rng.choice(choices)
        used.add((graph, chosen))
        groups.append((graph, chosen))
        return chosen

    for graph in ("delta", "delta0", "gamma-psi"):
        for n in BUILTIN_NS:
            pick(graph, n)
            pick(graph, n)
    for graph, bases in PAIR_BASES.items():
        for n in bases:
            base = pick(graph, n, lambda p: (graph, oracle.key(p + (1,))) not in used)
            up = oracle.key(base + (1,))
            used.add((graph, up))
            groups.append((graph, up))
            pairs.append([len(groups) - 2, len(groups) - 1])
    for n in GROWTH_NS:
        pick("delta", n)

    # Every multiset is asked ASKS times under fresh permutations, in one
    # random interleaving: its first ask misses the cache, later ones hit.
    asks = [g for g in range(len(groups)) for _ in range(ASKS)]
    rng.shuffle(asks)
    calls = [[groups[g][0], _shuffled(groups[g][1], rng)] for g in asks]
    return {"graphs": GRAPHS, "calls": calls, "group_of_call": asks,
            "groups": [[g, list(k)] for g, k in groups], "dilaton_pairs": pairs}


def check(workload: str, inputs: dict, result: dict) -> tuple[int, int, list[str]]:
    """Return (attempted, failed, messages) for one round's outputs."""
    if workload == "verify-sweep":
        return _check_verify(result)
    values = result.get("values")
    calls = inputs["calls"]
    if values is None or len(values) != len(calls):
        return len(calls), len(calls), ["round returned no per-call values"]
    failed, messages = 0, []
    got = []
    for (kind, k), text in zip(calls, values):
        value = _fraction(text)
        want = oracle.psi(kind, k) if workload == "psi-cold" else oracle.pullback(kind, k)
        got.append(value)
        if value != want:
            failed += 1
            if len(messages) < 5:
                messages.append(f"{kind} {k}: got {text}, oracle {want}")
    if workload == "pullback-graphs":
        first = {}
        for g, value in zip(inputs["group_of_call"], got):
            first.setdefault(g, value)
        for base, up in inputs["dilaton_pairs"]:
            graph, k = inputs["groups"][base]
            factor = 2 + len(k) + LEGS[graph]
            if first[up] is None or first[base] is None or first[up] != factor * first[base]:
                failed += 1
                messages.append(f"dilaton law fails on {graph} {k}")
    return len(calls), min(failed, len(calls)), messages


def _check_verify(result: dict) -> tuple[int, int, list[str]]:
    expected = [(n, p) for n in range(1, VERIFY_N_MAX + 1) for p in oracle.partitions(n + 1, n)]
    attempted = len(expected) * len(VERIFY_ROUTES)
    if result.get("rc") != 0:
        return attempted, attempted, [f"verify exited with code {result.get('rc')}"]
    rows = list(csv.reader(io.StringIO(result.get("csv", ""))))
    if not rows or tuple(rows[0]) != VERIFY_COLUMNS:
        return attempted, attempted, ["CSV header does not match"]
    rows = rows[1:]
    failed, messages = 0, []
    if len(rows) != len(expected):
        messages.append(f"{len(rows)} CSV rows, expected {len(expected)}")
        failed += abs(len(expected) - len(rows)) * len(VERIFY_ROUTES)
    for row, (n, p) in zip(rows, expected):
        if len(row) != len(VERIFY_COLUMNS) or row[:2] != [str(n), "+".join(map(str, p))] \
                or row[-1] != "true":
            failed += len(VERIFY_ROUTES)
            messages.append(f"row {row}, expected n={n} partition {p} agreeing")
            continue
        delta, lambda2 = oracle.builtin_pullback("delta", p), oracle.lambda2(p)
        for route, text in zip(VERIFY_ROUTES, row[2:-1]):
            if _fraction(text) != (delta if route.startswith("delta") else lambda2):
                failed += 1
                messages.append(f"n={n} {p} {route}: got {text}")
    return attempted, min(failed, attempted), messages[:5]


def _fraction(text) -> Fraction | None:
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        return None
