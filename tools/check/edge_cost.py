"""Time the public edges of the psi engine and of the pullback memo, per call.

Prints the microseconds per call of five statements, each the best and the
median of ``--repeat`` timeit runs in one process:

- ``psi_integral`` hit: a genus-0 monomial at 27 marks, shuffled, already in
  the memo;
- ``psi_integral`` shallow miss: the same call with only its own memo entry
  removed first, so the engine takes one step over memoized keys, the
  dilaton step where the monomial holds a 1 and else one string step (the
  statement includes that one ``dict.pop``);
- ``pullback_integral`` hit: ``delta_graph()`` at 10 marks, shuffled;
- ``lambda2_integral`` hit: the eq5 form at the same 10 marks, both of its
  graphs' pullbacks already in the memo;
- ``psi._key`` alone, on the 27 exponents of the first two.

perfbench times whole workloads; this separates the cost of the edge itself.
Run it on two checkouts to compare them::

    PYTHONPATH=src python3 tools/check/edge_cost.py [--seed N] [--repeat R]
"""

import argparse
import random
import statistics
import timeit

from tautint import psi
from tautint.identities import lambda2_integral
from tautint.psi import ModuliIndex, psi_integral
from tautint.strata import delta_graph, pullback_integral


def monomial(rng: random.Random, degree: int, marks: int) -> list[int]:
    # ``degree`` units spread at random over ``marks`` exponents.
    k = [0] * marks
    for _ in range(degree):
        k[rng.randrange(marks)] += 1
    return k


def per_call_us(stmt: str, names: dict, repeat: int) -> tuple[float, float]:
    timer = timeit.Timer(stmt, globals=names)
    number, _ = timer.autorange()
    runs = [seconds / number * 1e6 for seconds in timer.repeat(repeat, number)]
    return min(runs), statistics.median(runs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    rng = random.Random(args.seed)

    space = ModuliIndex(0, 27)
    k = tuple(monomial(rng, space.dimension, space.marks))
    graph, marks = delta_graph(), tuple(monomial(rng, 11, 10))
    psi.clear_cache()
    psi_integral(space, k)
    pullback_integral(graph, marks)
    lambda2_integral(len(marks), marks)
    names = {"psi_integral": psi_integral, "pullback_integral": pullback_integral,
             "lambda2_integral": lambda2_integral,
             "_key": psi._key, "space": space, "k": k, "graph": graph, "marks": marks,
             "table": psi._CACHE[0], "key": psi._key(k)}
    cases = {
        "psi_integral hit, 27 marks": "psi_integral(space, k)",
        "psi_integral shallow miss": "table.pop(key); psi_integral(space, k)",
        "pullback_integral hit, 10 marks": "pullback_integral(graph, marks)",
        "lambda2_integral hit, 10 marks": "lambda2_integral(10, marks)",
        "_key, 27 parts": "_key(k)",
    }
    print(f"{'statement':<34}{'best us':>9}{'median us':>11}")
    for name, stmt in cases.items():
        best, median = per_call_us(stmt, names, args.repeat)
        print(f"{name:<34}{best:>9.3f}{median:>11.3f}")


if __name__ == "__main__":
    main()
