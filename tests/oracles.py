"""The test suite's independent oracles and shared graphs, each defined once.

Nothing here imports ``tautint`` (``test_dvv_oracle`` checks this), so a
value computed here shares no code with the package.  Graphs are plain
``(genera, edges, legs)`` data, which ``DualGraph(*data)`` takes as it is: an
edge is a pair of ends, an end a vertex or ``(vertex, psi)``, and a leg
``(label, vertex)`` or ``(label, vertex, psi)``.

- ``dvv`` and ``intersection``: psi integrals by the Dijkgraaf-Verlinde-
  Verlinde recursion (DVV 1991; Witten 1991; Kontsevich 1992), an induction
  other than the package's string/dilaton engine.  It removes the largest
  exponent and splits the rest over a genus reduction and over every
  two-part separation of the marks.
- ``vertex_factor`` and ``stratum_sum``: a forgetful pullback as the literal
  sum over all V^n assignments of the marks to the vertices, with DVV vertex
  factors and the bubble correction for a unit decoration.
- ``point_coefficient``: a point class's integrals, from the string and
  dilaton laws alone.
- ``legless_graphs``: every legless genus-2 graph up to codimension 3, by a
  check of its own.
"""

import functools
import itertools
import math
from fractions import Fraction

# A genus-1 vertex joined to a genus-0 vertex with a loop, psi on one loop
# end, and a leg on the genus-0 vertex.
LEGGED_DECO = ((1, 0), ((0, 1), ((1, 1), (1, 0))), (("x", 1),))
# delta with psi on the genus-1 end of its bridge.
DECORATED_DELTA = ((1, 0), (((0, 1), (1, 0)), (1, 1)), ())
# Three genus-0 vertices joined by two double edges, a leg at each end.
CHAIN3 = ((0, 0, 0), ((0, 1), (0, 1), (1, 2), (1, 2)), (("a", 0), ("b", 2)))
# Two genus-0 vertices joined by three edges.
THETA = ((0, 0), ((0, 1), (0, 1), (0, 1)), ())
# Two genus-1 vertices joined by an edge, psi on one of its ends.
GAMMA_1_PSI = ((1, 1), (((0, 1), (1, 0)),), ())

# Genus-2 graphs on which the kit's literal sum is checked against the
# package, undecorated and with unit decorations.
GRAPHS = {
    "delta": ((1, 0), ((0, 1), (1, 1)), ()),
    "delta0": ((0,), ((0, 0), (0, 0)), ()),
    "legged-chain3": ((1, 0, 1), ((0, 1), (1, 2)), (("x0", 1),)),
    "gamma-psi": ((1,), (((0, 1), (0, 0)),), ()),
    "legged-deco": LEGGED_DECO,
    "delta-deco-genus1": DECORATED_DELTA,
    "delta-deco-genus0": ((1, 0), (((0, 0), (1, 1)), ((1, 0), (1, 0))), ()),
    "leg-deco-genus1": ((1, 1), (((0, 0), (1, 0)),), (("x0", 0, 1),)),
}


def legged_chain(vertex_count):
    """Genus-0 vertices in a row: two double edges, then single edges, with
    legs wherever a vertex would otherwise have fewer than three points."""
    edges = [(0, 1), (0, 1), (1, 2), (1, 2)]
    edges += [(v, v + 1) for v in range(2, vertex_count - 1)]
    legs = [("a", 0), ("z", vertex_count - 1), ("y", vertex_count - 1)]
    legs += [(f"m{v}", v) for v in range(3, vertex_count - 1)]
    return (0,) * vertex_count, tuple(edges), tuple(legs)


def double_factorial(m):
    """m!! for odd m >= -1, with (-1)!! = 1."""
    return math.prod(range(m, 0, -2))


def descending(d):
    return tuple(sorted(d, reverse=True))


@functools.lru_cache(maxsize=None)
def dvv(d):
    """<tau_{d_1} ... tau_{d_n}>_g for a descending tuple d, the genus fixed by
    the degree sum(d) = 3g - 3 + n; 0 when no genus matches."""
    n, degree = len(d), sum(d)
    if not d or d[-1] < 0 or (degree - n) % 3:
        return Fraction(0)
    genus = (degree - n + 3) // 3
    if genus < 0:
        return Fraction(0)
    if d == (0, 0, 0):
        return Fraction(1)
    if d == (1,):
        return Fraction(1, 24)
    # d[0] = k + 1; k = -1 is the string equation and k = 0 the dilaton one.
    k, rest = d[0] - 1, d[1:]
    total = Fraction(0)
    for j, dj in enumerate(rest):
        raised = rest[:j] + (dj + k,) + rest[j + 1:]
        weight = Fraction(double_factorial(2 * k + 2 * dj + 1), double_factorial(2 * dj - 1))
        total += weight * dvv(descending(raised))
    for r in range(k):
        s = k - 1 - r
        weight = Fraction(double_factorial(2 * r + 1) * double_factorial(2 * s + 1), 2)
        total += weight * dvv(descending((r, s) + rest))  # genus g - 1
        for mask in itertools.product((False, True), repeat=len(rest)):
            first = tuple(x for x, side in zip(rest, mask) if side)
            second = tuple(x for x, side in zip(rest, mask) if not side)
            total += weight * dvv(descending((r,) + first)) * dvv(descending((s,) + second))
    return total / double_factorial(2 * k + 3)


def intersection(genus, d):
    """<tau_d>_genus, 0 when the degree does not match that genus."""
    if sum(d) != 3 * genus - 3 + len(d):
        return Fraction(0)
    return dvv(descending(d))


def fixed_points(genera, edges, legs):
    """Each vertex's list of psi exponents at its edge ends and legs."""
    fixed = [[] for _ in genera]
    points = [end if isinstance(end, tuple) else (end,) for edge in edges for end in edge]
    points += [leg[1:] for leg in legs]
    for vertex, psi in ((*point, 0)[:2] for point in points):  # psi 0 where none is given
        fixed[vertex].append(psi)
    return fixed


def vertex_factor(genus, fixed, marks):
    """The vertex's integral of its marks' psi monomial times the pullback of
    its decoration, fixed holding at most one 1 and otherwise 0s.

    A unit psi at a point h is the psi class of h on the vertex's own space.
    Pulled back along the map forgetting the marks, it is the psi class at h
    less the divisors where h bubbles off onto a genus-0 component with a
    nonempty subset S of the marks: one term per literal subset, the bubble
    (S, h and the node) times the vertex with h undecorated and the rest."""
    marks, fixed = list(marks), list(fixed)
    value = intersection(genus, marks + fixed)
    if sum(fixed):
        undecorated = [0] * len(fixed)
        for size in range(1, len(marks) + 1):
            for bubbled in itertools.combinations(range(len(marks)), size):
                bubble = [marks[i] for i in bubbled] + [0, 0]
                rest = [x for i, x in enumerate(marks) if i not in bubbled]
                value -= intersection(0, bubble) * intersection(genus, rest + undecorated)
    return value


def stratum_sum(genera, edges, legs, k):
    """The pullback of the graph's class, integrated against the psi monomial
    of marks k: the literal sum over the V^n assignments of the marks to
    vertices of the product of vertex factors."""
    fixed = fixed_points(genera, edges, legs)
    total = Fraction(0)
    for assignment in itertools.product(range(len(genera)), repeat=len(k)):
        value = Fraction(1)
        for v, genus in enumerate(genera):
            value *= vertex_factor(genus, fixed[v], [x for x, home in zip(k, assignment) if home == v])
            if not value:
                break
        total += value
    return total


@functools.cache
def point_coefficient(k):
    """c(k), for k descending with sum(k) == len(k), in P(k) = c(k) P(()) of
    a legless point class: c(()) = 1, then the dilaton law
    P(k + (1,)) = (2 + n) P(k) for a last 1 and the string law
    P(k + (0,)) = sum_j P(k - e_j) for a last 0."""
    if not k:
        return 1
    *rest, last = k
    if last == 1:
        return (2 + len(rest)) * point_coefficient(tuple(rest))
    assert last == 0
    return sum(point_coefficient(descending(rest[:j] + [rest[j] - 1] + rest[j + 1:]))
               for j in range(len(rest)) if rest[j])


def codimension(data):
    """Edges plus decorations, for a legless graph with (vertex, psi) ends."""
    _, edges, _ = data
    return len(edges) + sum(psi for edge in edges for _, psi in edge)


def _stable_genus_2(genera, edges):
    # Connected, every vertex stable, and total genus sum(genera) + b_1 = 2.
    reached, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for (a, _), (b, _) in edges:
            for here, there in ((a, b), (b, a)):
                if here == v and there not in reached:
                    reached.add(there)
                    frontier.append(there)
    valence = [sum(end == v for (end, _) in itertools.chain(*edges)) for v in range(len(genera))]
    return (len(reached) == len(genera) and all(2 * g - 2 + m > 0 for g, m in zip(genera, valence))
            and sum(genera) + len(edges) - len(genera) + 1 == 2)


def legless_graphs():
    """Every legless genus-2 graph with vertex genera in {0, 1}, at most
    three edges, at most one unit psi per vertex and codimension at most 3;
    a fourth vertex would need a fourth edge.  Each is normalized as
    ``DualGraph`` normalizes it, the ends of each edge sorted and then the
    edges, so a psi on either end of a loop, or on either of two parallel
    edges, is one graph, kept once, in order.  Vertex labelings count apart."""
    graphs = {}
    for count in (1, 2, 3):
        pairs = [(a, b) for a in range(count) for b in range(a, count)]
        for genera, size in itertools.product(itertools.product((0, 1), repeat=count), range(4)):
            for edges in itertools.combinations_with_replacement(pairs, size):
                ends = list(itertools.product(range(size), (0, 1)))
                # Each vertex carries a unit psi on one of its edge ends, or none.
                choices = [[None] + [(e, side) for e, side in ends if edges[e][side] == v]
                           for v in range(count)]
                for marked in itertools.product(*choices):
                    decorated = tuple(sorted(
                        tuple(sorted((edges[e][side], int((e, side) in marked)) for side in (0, 1)))
                        for e in range(size)))
                    data = (genera, decorated, ())
                    if _stable_genus_2(genera, decorated) and codimension(data) <= 3:
                        graphs[data] = None
    return list(graphs)
