"""Set the orbit cost guard's estimate beside measured time and memory.

For each input shape it prints the marks, ``strata._orbit_cost``'s estimate,
whether ``pullback_integral`` accepts it (estimate at most
``strata.MAX_ORBIT_COST``), and the cold time and peak RSS of the orbit sum
with the guard lifted: ``strata._peel`` over the graph's vertices, run in a
fresh interpreter so that every memo starts empty.  The warm time is a second
``_peel`` on the same shape with the memos full: the peel's own walk, without
the psi engine's fills.  The child then checks the sum against
``strata._orbit_sum`` and exits 1 if they differ.  README's cost table is
made from this output::

    PYTHONPATH=src python3 tools/check/orbit_cost.py

Peak RSS is the child's whole process (``ru_maxrss``), interpreter included.
"""

import argparse
import math
import resource
import subprocess
import sys
import time

from tautint import psi, strata
from tautint.strata import DualGraph, delta_graph, gamma_psi_graph


def legged_chain(vertex_count):
    # Genus-0 vertices in a row: two double edges, then single edges, with
    # legs wherever a vertex would otherwise have fewer than three points.
    edges = [(0, 1), (0, 1), (1, 2), (1, 2)]
    edges += [(v, v + 1) for v in range(2, vertex_count - 1)]
    legs = [("a", 0), ("z", vertex_count - 1), ("y", vertex_count - 1)]
    legs += [(f"m{v}", v) for v in range(3, vertex_count - 1)]
    return DualGraph((0,) * vertex_count, tuple(edges), tuple(legs))


DECORATED_DELTA = DualGraph((1, 0), (((0, 1), (1, 0)), (1, 1)))
LEGGED_DECO = DualGraph((1, 0), ((0, 1), ((1, 1), (1, 0))), (("x", 1),))


VALUES = (3, 2, 1, 0)  # every shape's k: these exponents, with its counts
SHAPES = [  # (name, graph, counts), k of degree matched to the graph
    ("12-vertex legged chain", legged_chain(12), (6, 6, 6, 17)),
    ("decorated delta", DECORATED_DELTA, (10, 10, 5, 30)),
    ("delta", delta_graph(), (10, 10, 56, 29)),
    ("gamma-psi", gamma_psi_graph(), (12, 12, 52, 35)),
    ("decorated delta", DECORATED_DELTA, (22, 22, 5, 66)),
    ("legged-deco", LEGGED_DECO, (22, 22, 5, 65)),
    ("decorated delta", DECORATED_DELTA, (24, 24, 5, 72)),
    ("legged-deco", LEGGED_DECO, (24, 24, 5, 71)),
]


def memo_key(counts: tuple[int, ...]) -> str:
    # The memo key of the shape's k, as the orbit core takes it.
    return psi._key([value for value, count in zip(VALUES, counts) for _ in range(count)])


def measure(shape: int) -> None:
    # In the child: the cold orbit sum with the guard lifted, then a warm one.
    _, graph, counts = SHAPES[shape]
    vertices = strata._vertices(graph)
    seconds = []
    for _ in range(2):
        started = time.perf_counter()
        k = memo_key(counts)
        total = strata._peel(vertices, strata._runs(k)[0], k)
        seconds.append(time.perf_counter() - started)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The timed call must be the one the orbit core makes: a stale one may
    # still run, on the wrong arguments, and time nothing.
    strata.MAX_ORBIT_COST = math.inf
    if total != strata._orbit_sum(graph, k):
        sys.exit("orbit_cost: the timed _peel call disagrees with strata._orbit_sum")
    print(f"{seconds[0]:.2f} {seconds[1] * 1000:.1f} {rss:.0f}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child is not None:
        measure(args.child)
        return
    print(f"limit {strata.MAX_ORBIT_COST:.2g}")
    print("| input | marks | estimate | cold time | warm time | peak RSS |")
    print("|---|---|---|---|---|---|")
    for shape, (name, graph, counts) in enumerate(SHAPES):
        marks = sum(counts)
        estimate = strata._orbit_cost(marks, graph.vertex_count, strata._runs(memo_key(counts))[1])
        verdict = "accepted" if estimate <= strata.MAX_ORBIT_COST else "refused"
        child = subprocess.run([sys.executable, __file__, "--child", str(shape)],
                               capture_output=True, text=True, check=True)
        cold, warm, rss = child.stdout.split()
        k = " ".join(f"{value}^{count}" for value, count in zip(VALUES, counts))
        print(f"| {name}, {k} | {marks} | {estimate:.2g} ({verdict}) | {cold} s | {warm} ms | {rss} MB |")


if __name__ == "__main__":
    main()
