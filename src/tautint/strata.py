"""Decorated dual graphs of stable curves and exact stratum-pullback integrals.

A :class:`DualGraph` records a boundary stratum of the genus-2 moduli space:
genus-labeled vertices, edges between half-edges (self-loops allowed),
labeled legs, and optional psi exponents on half-edges.  Graphs denote
pushforward classes under the gluing maps, so the evaluator never divides by
automorphism counts.

:func:`pullback_integral` integrates a psi monomial in n new marked points
against the pullback of the graph's class under the map forgetting those
points.  Each of the V^n ways of distributing the marks over the V vertices
contributes one stratum, whose value is a product of per-vertex integrals by
Fubini factorization.  A vertex's integral depends only on the multiset of
exponents it receives, so the total is summed over orbits: the ways each
distinct exponent's multiplicity splits over the vertices, weighted by the
number of distributions in the orbit.  :func:`stratum_terms` still lists the
V^n strata one by one; both read the same memoized vertex factors.

A psi decoration on a half-edge means the psi class at that point on the
vertex's own moduli space.  That class is pulled back from the vertex's space
without the marks, so every vertex factor, decorated or not, obeys the string
and dilaton laws over its marks, which the psi engine runs down to where they
stop.  There a unit decoration's boundary corrections (the divisors where the
point bubbles off with new marks) vanish by degree, so the factor is the plain
psi integral.  Decorations of total degree >= 2 on one vertex would need
products of boundary divisors.

A graph builds its per-vertex fixed exponents once, on construction, so
``fixed_exponents`` and ``valence`` answer without a scan.  A graph is
checked once, memoizing each vertex's genus and fixed exponents, and public
evaluators check the exponents once per call.  The pullback edges,
:func:`pullback_integral` and :func:`expression_integral`, build the memo key
of the marks (``psi._key``) once per call, and that is the integer check;
the pullback memo is keyed ``(graph, key)``, and the same key goes on to the
orbit core, which splits its runs over the vertices: its distinct
characters, descending, always ending in the 1 run and the 0 run, of count 0
where the key has none.  The marks a split leaves are keyed by their own memo
key, which the next vertex counts its runs in and the last vertex's factor
is read under.  An input the
key refuses goes to one refusal, for the pullback's graph or the
expression's graphs, which names the error in the public order (the order
:func:`stratum_terms` checks in too), else answers a part beyond ``chr``'s
range.  The orbit core itself
refuses the two inputs it cannot compute, before any work: marks on a vertex
whose decorations total >= 2, and an orbit sum whose estimated cost exceeds
``MAX_ORBIT_COST``.  So the pullback memo in front of it runs no check, and
every route refuses alike.  Vertex factors call the psi engine's check-free
recursion, as a valid graph's vertices are stable.
:func:`clear_cache` is ``psi.clear_cache``, which empties every memo in
``psi._MEMOS``.  The layer runs on ints: a vertex factor is 24^g times its
value and an orbit sum 24^G times its value, G the sum of the vertex genera.
The one ``Fraction`` is built at the edge: for the pullback memo, over an
expression's common denominator, by the graph engine's caller for the memo of
ints it fills, and per vertex for :class:`VertexFactor`.

Graph data (genera, vertices and psi of edge ends and legs) is taken at its
integer value; a float, str or Fraction raises ValueError, never truncated.

Graph literal format (also accepted by the CLI as ``file:<path>``).  With a
'#' comment stripped and whitespace collapsed, a nonblank line must match one
of three shapes, the whole grammar (numbers are decimal; the genus may be
negative, for validation to report)::

    v<i> genus=<g>                         vertex, declared in order v0, v1, ...
    e v<i>.h<a> v<j>.h<b> [psi=<p>[,<q>]]  edge; psi decorates the first end
                                           (and the second)
    leg <label> v<i> [psi=<p>]             labeled marked point

A line of another shape raises GraphParseError ``line N: expected '<shape>',
got '<line>'``; an undeclared vertex, a half-edge used twice or a repeated leg
label raises it as ``line N:`` and the broken rule.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arith import Exponents, _as_ints, _nonnegative, format_rational
from .psi import (_GRAPH_MEMO, _MEMOS, ModuliIndex, UnsupportedGenusError, _key, _scaled,
                  _string_dilaton, _too_costly, clear_cache)

__all__ = [
    "EdgeEnd",
    "Edge",
    "Leg",
    "DualGraph",
    "Violation",
    "ValidationReport",
    "InvalidGraphError",
    "UnsupportedDecorationError",
    "GraphParseError",
    "StrataExpression",
    "VertexFactor",
    "StratumTerm",
    "validate_graph",
    "total_genus",
    "delta_graph",
    "delta0_graph",
    "gamma_psi_graph",
    "BUILTIN_GRAPHS",
    "builtin_graph",
    "stratum_terms",
    "pullback_integral",
    "expression_integral",
    "parse_graph",
    "format_graph",
]


class EdgeEnd(NamedTuple):
    vertex: int
    psi: int = 0


class Edge(NamedTuple):
    a: EdgeEnd
    b: EdgeEnd


class Leg(NamedTuple):
    label: str
    vertex: int
    psi: int = 0


def _shaped(entry, lengths: tuple[int, ...], shape: str) -> tuple:
    # An edge, edge end or leg: a tuple or list of one of the allowed lengths.
    if isinstance(entry, (tuple, list)) and len(entry) in lengths:
        return tuple(entry)
    raise ValueError(f"{shape}, got {entry!r}")


def _as_end(end) -> EdgeEnd:
    # A bare vertex, or (vertex,) or (vertex, psi); every entry must be an int.
    if not isinstance(end, (tuple, list)):
        end = (end,)
    end = _shaped(end, (1, 2), "an edge end is a vertex, (vertex,) or (vertex, psi)")
    return EdgeEnd(*_as_ints(end, "edge-end vertices and psi"))


def _label(label) -> str:
    # A leg label that format_graph can write and parse_graph read back.
    label = str(label)
    if not re.fullmatch(r"[^\s#]+", label):
        raise ValueError(f"leg label {label!r} must be nonempty, without whitespace or '#'")
    return label


def _repr(value) -> str:
    # repr of graph data, its ints written by format_rational, past str()'s digit limit too.
    if not isinstance(value, tuple):
        return format_rational(value) if isinstance(value, int) else repr(value)
    parts = list(map(_repr, value))
    if hasattr(value, "_fields"):  # Edge, EdgeEnd or Leg
        return type(value).__name__ + "(" + ", ".join(map("{}={}".format, value._fields, parts)) + ")"
    return "(" + ", ".join(parts) + "," * (len(parts) == 1) + ")"


class DualGraph:
    """A decorated dual graph, normalized so equal graphs compare equal.

    ``edges`` entries may be given loosely as ``(v_a, v_b)`` or
    ``((v_a, psi_a), (v_b, psi_b))``; ``legs`` entries as ``(label, vertex)``
    or ``(label, vertex, psi)``, a label being nonempty text without
    whitespace or '#'.  Edge ends and the edge/leg lists are sorted
    on construction, so two graphs built from the same data in any order are
    identical (this is structural identity, not graph isomorphism).
    """

    # Graphs key the memos probed on every call, so the hash is computed once
    # into _hash, and the fields are slots: they read faster than NamedTuple fields.
    __slots__ = ("genera", "edges", "legs", "_hash", "_fixed")
    __match_args__ = ("genera", "edges", "legs")

    def __init__(self, genera: tuple[int, ...], edges: tuple[Edge, ...] = (),
                 legs: tuple[Leg, ...] = ()) -> None:
        object.__setattr__(self, "genera", _as_ints(genera, "vertex genera"))
        normalized = []
        for raw in edges:
            a, b = _shaped(raw, (2,), "an edge is a pair of edge ends")
            end_a, end_b = _as_end(a), _as_end(b)
            normalized.append(Edge(end_a, end_b) if end_a <= end_b else Edge(end_b, end_a))
        object.__setattr__(self, "edges", tuple(sorted(normalized)))
        shaped = (_shaped(leg, (2, 3), "a leg is (label, vertex) or (label, vertex, psi)")
                  for leg in legs)
        legs = tuple(sorted(Leg(_label(label), *_as_ints(rest, f"leg {label!r} vertex and psi"))
                            for label, *rest in shaped))
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "_hash", hash((self.genera, self.edges, self.legs)))
        # Every vertex's fixed exponents in one pass over the edge ends, then
        # the legs, keyed by vertex, as a dangling end may name any int.
        fixed: dict[int, list[int]] = {}
        for end in itertools.chain(*self.edges, legs):
            fixed.setdefault(end.vertex, []).append(end.psi)
        object.__setattr__(self, "_fixed", {v: tuple(psis) for v, psis in fixed.items()})

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.genera, self.edges, self.legs) == (other.genera, other.edges, other.legs)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fields = map(_repr, (self.genera, self.edges, self.legs))
        return "{}(genera={}, edges={}, legs={})".format(type(self).__name__, *fields)

    def __reduce__(self):
        # Rebuild on unpickling, as str hashes differ between processes.
        return DualGraph, (self.genera, self.edges, self.legs)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    @property
    def vertex_count(self) -> int:
        return len(self.genera)

    def valence(self, vertex: int) -> int:
        """Number of special points at a vertex: edge ends plus legs."""
        return len(self.fixed_exponents(vertex))

    def fixed_exponents(self, vertex: int) -> Exponents:
        """psi decorations of the vertex's edge ends and legs (0 = undecorated)."""
        return self._fixed.get(vertex, ())


class Violation(NamedTuple):
    kind: str
    message: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid dual graph"
        return "\n".join(f"{v.kind}: {v.message}" for v in self.violations)


class InvalidGraphError(ValueError):
    """An evaluator was handed a graph that fails validation."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


class UnsupportedDecorationError(ValueError):
    """Decoration pattern outside the exactly-evaluable family."""


class GraphParseError(ValueError):
    """Malformed graph literal text."""


def validate_graph(graph: DualGraph) -> ValidationReport:
    """Check every dual-graph invariant; failures are reported, not raised.
    Graph numbers are written through Decimal, past str()'s digit limit too."""
    if not isinstance(graph, DualGraph):
        try:
            shown = repr(graph)
        except ValueError:  # an int past str()'s digit limit, alone or inside the input
            shown = f"a {type(graph).__name__!r} object past repr()'s digit limit"
        return ValidationReport((Violation("not-a-graph", f"expected a DualGraph, got {shown}"),))
    problems: list[Violation] = []
    nv = graph.vertex_count
    if nv == 0:
        return ValidationReport((Violation("empty", "graph has no vertices"),))

    for i, g in enumerate(graph.genera):
        if g < 0:
            problems.append(Violation("negative-genus", f"vertex v{i} has genus {format_rational(g)}"))

    for edge in graph.edges:
        for vertex, psi in edge:
            if not 0 <= vertex < nv:
                problems.append(Violation(
                    "bad-vertex-ref", f"edge end references v{format_rational(vertex)}"))
            if psi < 0:
                problems.append(Violation(
                    "negative-psi", f"edge end at v{format_rational(vertex)} has psi={format_rational(psi)}"))
    seen_labels: set[str] = set()
    for leg in graph.legs:
        if not 0 <= leg.vertex < nv:
            problems.append(Violation(
                "bad-vertex-ref", f"leg {leg.label!r} references v{format_rational(leg.vertex)}"))
        if leg.psi < 0:
            problems.append(Violation(
                "negative-psi", f"leg {leg.label!r} has psi={format_rational(leg.psi)}"))
        if leg.label in seen_labels:
            problems.append(Violation("duplicate-leg-label", f"leg label {leg.label!r} repeats"))
        seen_labels.add(leg.label)
    if problems:
        return ValidationReport(tuple(problems))

    if _component_count(graph) > 1:
        problems.append(Violation("disconnected", "graph is not connected"))

    for i, (g, valence) in enumerate(zip(graph.genera, map(graph.valence, range(nv)))):
        if 2 * g - 2 + valence <= 0:
            problems.append(Violation(
                "unstable-vertex",
                f"vertex v{i} (genus {g}, valence {valence}) violates 2g-2+valence > 0",
            ))
        if g > 1:
            problems.append(Violation(
                "unsupported-genus",
                f"vertex v{i} has genus {format_rational(g)}; evaluable vertices have genus <= 1",
            ))
    return ValidationReport(tuple(problems))


def _component_count(graph: DualGraph) -> int:
    parent = list(range(graph.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for edge in graph.edges:
        ra, rb = find(edge.a.vertex), find(edge.b.vertex)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(graph.vertex_count)})


def total_genus(graph: DualGraph) -> int:
    """Sum of vertex genera plus the graph's first Betti number.  Raises
    InvalidGraphError for a non-graph or a reference to a missing vertex."""
    report = validate_graph(graph)
    if {"not-a-graph", "bad-vertex-ref"} & {violation.kind for violation in report.violations}:
        raise InvalidGraphError(report)
    betti = len(graph.edges) - graph.vertex_count + _component_count(graph)
    return sum(graph.genera) + betti


def delta_graph() -> DualGraph:
    """Genus-1 vertex joined to a genus-0 vertex carrying a self-loop."""
    return DualGraph(genera=(1, 0), edges=((0, 1), (1, 1)))


def delta0_graph() -> DualGraph:
    """Single genus-0 vertex with two self-loops (totally degenerate stratum)."""
    return DualGraph(genera=(0,), edges=((0, 0), (0, 0)))


def gamma_psi_graph() -> DualGraph:
    """Genus-1 vertex with a self-loop, unit psi decoration on one loop end."""
    return DualGraph(genera=(1,), edges=((((0, 1), (0, 0))),))


BUILTIN_GRAPHS = {
    "delta": delta_graph,
    "delta0": delta0_graph,
    "gamma-psi": gamma_psi_graph,
}


def builtin_graph(name: str) -> DualGraph:
    """Look up one of the named built-in graphs (delta, delta0, gamma-psi)."""
    try:
        return BUILTIN_GRAPHS[name]()
    except (KeyError, TypeError):  # an unhashable name is unknown too
        raise KeyError(f"unknown graph {name!r}; choices: {', '.join(sorted(BUILTIN_GRAPHS))}")


class VertexFactor(NamedTuple):
    """One vertex's contribution to a stratum: its moduli space, the exponent
    vector it integrates (assigned marks first, then fixed points), and the
    resulting value.  A decoration is the psi class pulled back from the
    vertex's space without the marks."""

    space: ModuliIndex
    exponents: Exponents
    value: Fraction


class StratumTerm(NamedTuple):
    """One mark assignment: ``assignment[i]`` is the vertex receiving mark i."""

    assignment: tuple[int, ...]
    factors: tuple[VertexFactor, ...]
    value: Fraction


def _excess(genus: int, fixed: Exponents) -> int:
    # The sum of (k - 1) over a vertex's marks for which its factor can be
    # nonzero: its dimension 3g-3+|fixed|+|marks|, less its decoration degree,
    # less one per mark.
    return 3 * genus - 3 + len(fixed) - sum(fixed)


def _runs(k: str) -> tuple[str, tuple[int, ...]]:
    # A descending memo key as its distinct characters and their counts,
    # always ending in the 1 run and the 0 run (count 0 where k has none).
    chars = "".join(dict.fromkeys(k.rstrip("\1\0"))) + "\1\0"
    return chars, tuple(map(k.count, chars))


def _sub_multisets(big: Sequence[int], weights: Sequence[int], need: int,
                   zeros: int) -> Iterator[tuple[tuple[int, ...], int]]:
    # The sub-multisets whose sum of (x - 1) is ``need``, as (taken, drop):
    # ``taken`` the counts taken of the runs above 1 (``big`` their counts,
    # ``weights`` their x - 1) and ``drop`` the 0s taken of ``zeros``.  A 0
    # takes one away, so the 0s taken are fixed by the rest; a 1 adds
    # nothing, so each split holds every count of 1s, which the caller ranges.
    for taken in itertools.product(*(range(count + 1) for count in big)):
        drop = sum(map(operator.mul, weights, taken)) - need
        if 0 <= drop <= zeros:
            yield taken, drop


_CHECKED = _MEMOS["graph check"] = {}  # evaluable graph -> (genus, fixed) per vertex


def _factor_value(genus: int, fixed: Exponents, assigned: str) -> int:
    """One vertex's factor, as the int 24^genus * value, for the memo key
    (``psi._key``) of assigned exponents whose degree matches the vertex.

    The fixed points' psi classes, a decoration's too, come from the vertex's
    space without the marks, so the string law runs over the marks alone and
    the dilaton factor counts every special point.  Where the engine stops,
    the factor is the plain psi integral.  Memoized in the graph-recursion
    memo, in the family (genus, fixed), which the engine probes first.
    """
    def base(k: str) -> int:
        # A decoration's boundary corrections vanish here: a genus-0
        # bubble holding the decorated point, the node and marks S has
        # dimension |S| - 1, but S brings degree >= 2|S|.
        return _scaled(genus, "".join(sorted(k + _key(fixed), reverse=True)))

    euler = 2 * genus - 2 + len(fixed)
    return _string_dilaton(_GRAPH_MEMO, (genus, fixed), euler, base, assigned)


def _vertex_factor(genus: int, fixed: Exponents, assigned: Exponents) -> VertexFactor:
    space = ModuliIndex(genus, len(fixed) + len(assigned))
    matched = sum(assigned) - len(assigned) == _excess(genus, fixed)
    value = _factor_value(genus, fixed, _key(assigned)) if matched else 0
    return VertexFactor(space, assigned + fixed, Fraction(value, 24 ** genus))


def _vertices(graph: DualGraph, k: Sequence = ()) -> tuple[tuple[int, Exponents], ...]:
    # Each vertex's (genus, fixed) after the checks that see only the graph,
    # run once per evaluable graph (an invalid one raises, not remembered).
    # Marks k (a tuple or memo key) are refused when a vertex's decorations
    # total >= 2: its pulled-back class would need products of boundary divisors.
    # A non-graph, maybe unhashable, skips the memo for validate_graph's report.
    vertices = _CHECKED.get(graph) if isinstance(graph, DualGraph) else None
    if vertices is None:
        report = validate_graph(graph)
        if not report.ok:
            if all(v.kind == "unsupported-genus" for v in report.violations):
                raise UnsupportedGenusError(str(report))
            raise InvalidGraphError(report)
        # total_genus, without validating again: a valid graph is connected.
        genus = sum(graph.genera) + len(graph.edges) - graph.vertex_count + 1
        if genus != 2:
            raise ValueError(f"graph has total genus {genus}; the evaluator covers genus 2")
        vertices = _CHECKED[graph] = tuple((g, graph.fixed_exponents(v))
                                           for v, g in enumerate(graph.genera))
    for v, (_, fixed) in enumerate(vertices if k else ()):
        if sum(fixed) >= 2:
            raise UnsupportedDecorationError(
                f"vertex v{v} carries decorations of total degree >= 2; only a single unit "
                "decoration per vertex can be pulled back exactly")
    return vertices


def _checked_input(graphs: Iterable[DualGraph], exponents: Iterable[int]
                   ) -> tuple[Exponents, list[tuple[tuple[int, Exponents], ...]]]:
    # The public refusal order of every strata edge, for a pullback's graph or
    # an expression's graphs in term order: a non-integer, then each graph's
    # errors (a bad graph, then a heavy decoration), then a negative part.
    k = _as_ints(exponents)
    checked = [_vertices(graph, k) for graph in graphs]
    _nonnegative(k)
    return k, checked


def stratum_terms(graph: DualGraph, exponents: Iterable[int] = ()) -> Iterator[StratumTerm]:
    """Enumerate the V^n mark assignments and their Fubini-factorized values.

    The generator always performs the full enumeration; use
    :func:`pullback_integral` for the (cached) total.
    """
    k, (vertices,) = _checked_input((graph,), exponents)
    for assignment in itertools.product(range(len(vertices)), repeat=len(k)):
        factors = tuple(_vertex_factor(genus, fixed, tuple(x for x, home in zip(k, assignment) if home == v))
                        for v, (genus, fixed) in enumerate(vertices))
        yield StratumTerm(assignment, factors, math.prod(factor.value for factor in factors))


# Largest _orbit_cost that pullback_integral accepts.  The estimate does not track time: with
# it lifted (2-vCPU Xeon, CPython 3.11), the legged chain refused at 1.3e9 ran cold in
# 0.24-0.42 s and 17 MB, about as long as delta at 105 marks (4.3e7, 0.22-0.30 s).  README
# lists these and more, as tools/check/orbit_cost.py measures them.
MAX_ORBIT_COST = 50_000_000
# As c+1 <= 2^c and C(c+2,2) <= 3^c, m marks on V vertices cost at most m(V 2^m + max(V-2, 0) 3^m),
# which is at most 21 2^21 = 4.4e7 while V m <= 21: such inputs skip the estimate.
_FREE_ORBIT_SIZE = 21

_PULLBACK_CACHE = _MEMOS["pullback"] = {}  # (graph, psi._key of the marks) -> public value


def _orbit_cost(marks: int, vertex_count: int, counts: tuple[int, ...]) -> int:
    # Upper bound on the exponents in the memo keys _orbit_sum builds and
    # hashes: each step handles a multiset of up to ``marks`` exponents.  The
    # first and last vertex take at most one step per sub-multiset of k; a
    # middle vertex one per nested pair of them.
    subsets = math.prod(count + 1 for count in counts)
    pairs = math.prod(math.comb(count + 2, 2) for count in counts)
    return marks * (vertex_count * subsets + max(vertex_count - 2, 0) * pairs)


def _peel(vertices: Sequence[tuple[int, Exponents]], chars: str, k: str) -> int:
    # Sum over the ways each distinct exponent's multiplicity splits over the
    # (genus, fixed) vertices, weighted by the mark assignments in the split,
    # of the product of vertex factors: the int 24^G * value, G the sum of
    # the genera.  ``k`` is the marks' memo key and ``chars`` its runs'
    # characters as _runs lays them out, ending in the 1 run and the 0 run.
    # Vertices are peeled one at a time, and splits that leave the same marks
    # share that remainder's sum.  Each state is keyed by the memo key of the
    # marks it leaves, so the last vertex, which takes every mark left as the
    # caller matches the total degree, probes its family with the state's key.
    # A set of marks is keyed by repeating each character by its count.  Each
    # split of the runs other than the 1s builds its key head and tail, the
    # remainder's head and tail, and its weight once; the 1s, which it may
    # take any count of, go in between.  Factors are read from the vertex's
    # family in the graph-recursion memo, fetched once per vertex (empty if
    # the family is not made yet), and _factor_value computes a miss.
    heads, weights = chars[:-2], [ord(c) - 1 for c in chars[:-2]]
    states = {k: 1}  # memo key of the marks left -> weighted sum so far
    for vertex in vertices[:-1]:
        need, family = _excess(*vertex), _GRAPH_MEMO.get(vertex, {})
        reached: dict[str, int] = {}
        for left, total in states.items():
            *big, ones, zeros = map(left.count, chars)
            for taken, drop in _sub_multisets(big, weights, need, zeros):
                head, tail = "".join(map(operator.mul, heads, taken)), "\0" * drop
                rest_head = "".join(map(operator.mul, heads, map(operator.sub, big, taken)))
                rest_tail = "\0" * (zeros - drop)
                scale = total * math.prod(map(math.comb, big, taken)) * math.comb(zeros, drop)
                for one in range(ones + 1):
                    key = head + "\1" * one + tail
                    factor = family.get(key)
                    if factor is None:
                        factor = _factor_value(*vertex, key)
                    if factor:
                        rest = rest_head + "\1" * (ones - one) + rest_tail
                        reached[rest] = reached.get(rest, 0) + scale * math.comb(ones, one) * factor
        states = reached
    vertex, total = vertices[-1], 0
    family = _GRAPH_MEMO.get(vertex, {})
    for left, weight in states.items():
        factor = family.get(left)
        total += weight * (_factor_value(*vertex, left) if factor is None else factor)
    return total


def _orbit_sum(graph: DualGraph, k: str) -> int:
    # The stratum sum over orbits of mark assignments, as the int 24^G * value,
    # for the memo key k (psi._key) of the marks' exponents.
    vertices = _vertices(graph, k)
    # The vertex conditions add up to sum(k) = 3 + n + legs - edges - decorations.
    if sum(map(ord, k)) - len(k) != sum(_excess(g, fixed) for g, fixed in vertices):
        return 0
    chars, counts = _runs(k)
    if (len(k) * len(vertices) > _FREE_ORBIT_SIZE
            and (cost := _orbit_cost(len(k), len(vertices), counts)) > MAX_ORBIT_COST):
        raise ValueError(
            f"pullback over {len(vertices)} vertices with {len(k)} marks is too "
            f"costly: estimated cost {cost} exceeds the limit {MAX_ORBIT_COST}"
        )
    return _peel(vertices, chars, k)


def _recursive(graph: DualGraph, exponents: Exponents) -> Fraction:
    # The paper's induction on the marks, for an evaluable graph with L legs:
    # the string law P(k+(0,)) = sum_j P(k-e_j) and the dilaton law
    # P(k+(1,)) = (2+L+n) P(k), down to the stratum sum once every exponent
    # is >= 2, where the degree bound leaves at most 3+L-|E|-decorations marks.
    # The memo holds the ints 24^G * value, as _orbit_sum returns them.  A
    # heavy decoration is refused up front, as the steps may never reach the
    # orbit core's refusal: (1,) and (0,) step straight down to k = ().
    try:
        k = _key(exponents)
    except ValueError:  # a part beyond chr's range, refused as psi_integral refuses it
        raise _too_costly(len(exponents)) from None
    _vertices(graph, k)
    scaled = _string_dilaton(_GRAPH_MEMO, graph, 2 + len(graph.legs), lambda key: _orbit_sum(graph, key), k)
    return Fraction(scaled, 24 ** sum(graph.genera))


def _refused(graphs: Iterable[DualGraph], exponents: Iterable[int]) -> Fraction:
    # Exponents that psi._key refused (or an unhashable graph), for a pullback's
    # graph or an expression's graphs: the public errors, in their order, as
    # _checked_input raises them.  If none applies, a part is beyond chr's
    # range: 0 unless some graph's degree matches, else refused as
    # psi_integral refuses such a part, whose one-row diagram alone fits more
    # than MAX_PSI_COST partitions.  The degree test runs on the ints here and
    # on code points in _orbit_sum, as no key can hold such a part.
    k, checked = _checked_input(graphs, exponents)
    if all(sum(k) - len(k) != sum(_excess(*vertex) for vertex in vertices) for vertices in checked):
        return Fraction(0)
    raise _too_costly(len(k))


def pullback_integral(graph: DualGraph, exponents: Iterable[int] = ()) -> Fraction:
    """Integrate a psi monomial against the forgetful pullback of the graph's class.

    ``exponents`` lists one psi exponent per new marked point; it may be
    empty, in which case the graph's own class degree is evaluated.  The
    result is the exact sum over all mark distributions of per-vertex
    integrals, summed by orbits of equal exponent multisets per vertex; a
    monomial of the wrong total degree gives 0 at once.  Raises ValueError
    when the orbit sum's estimated cost exceeds ``MAX_ORBIT_COST``, or for a
    part above 0x10FFFF at a matched degree ("too costly" either way).
    """
    k = tuple(exponents)
    # Only checked inputs are cached, and the checks see only the graph and
    # the multiset of k, so a hit needs no check.
    try:  # the memo key is the integer check, as in psi_integral
        key = _key(k)
        cached = _PULLBACK_CACHE.get((graph, key))
    except (TypeError, ValueError, OverflowError):  # chr past C int, probe of an unhashable graph
        return _refused((graph,), k)
    if cached is None:
        cached = _pullback(graph, key)
    return cached


def _pullback(graph: DualGraph, key: str) -> Fraction:
    # A pullback memo miss: the orbit sum, stored as the public value.
    value = _PULLBACK_CACHE[graph, key] = Fraction(_orbit_sum(graph, key), 24 ** sum(graph.genera))
    return value


class _ExpressionFields(NamedTuple):
    terms: tuple[tuple[Fraction, DualGraph], ...] = ()


class StrataExpression(_ExpressionFields):
    """Formal rational-coefficient combination of dual graphs.

    Terms with an identical graph are combined on construction and zero
    coefficients dropped, so no two stored terms share a graph.  A coefficient
    is an int (bools too, as in graph data) or a Fraction; a float or str
    raises ValueError, never taken at its binary value or parsed.
    """

    __slots__ = ()

    def __new__(cls, terms: tuple[tuple[Fraction, DualGraph], ...] = ()) -> StrataExpression:
        combined: dict[DualGraph, Fraction] = {}
        for coefficient, graph in terms:
            if not isinstance(coefficient, (int, Fraction)):
                raise ValueError(f"coefficients must be integers or Fractions, got {coefficient!r}")
            try:
                combined[graph] = combined.get(graph, Fraction(0)) + Fraction(coefficient)
            except TypeError:  # an unhashable graph
                raise InvalidGraphError(validate_graph(graph)) from None
        return super().__new__(cls, tuple((c, g) for g, c in combined.items() if c != 0))


def expression_integral(expression: StrataExpression, exponents: Iterable[int] = ()) -> Fraction:
    """Pullback integral of a strata expression: the pullback distributes
    over the linear combination.  Refuses as :func:`pullback_integral` does,
    each term's graph in turn, so a one-term expression refuses as its graph."""
    if not isinstance(expression, StrataExpression):
        raise TypeError(f"expected a StrataExpression, got {type(expression).__name__}")
    k = tuple(exponents)
    try:  # key-first, as in pullback_integral
        key = _key(k)
    except (TypeError, ValueError, OverflowError):
        return _refused((graph for _, graph in expression.terms), k)
    # Each term's pullback is probed under the one key, and the terms add up
    # as ints over one common denominator, reduced by the one Fraction.
    numerator, denominator = 0, 1
    for coefficient, graph in expression.terms:
        value = _PULLBACK_CACHE.get((graph, key))
        if value is None:
            value = _pullback(graph, key)
        scale = coefficient.denominator * value.denominator
        numerator = numerator * scale + coefficient.numerator * value.numerator * denominator
        denominator *= scale
    return Fraction(numerator, denominator)


# --- graph literal format ---------------------------------------------------

# The whole grammar: each line kind's shape and the regex that must match the
# whole line, comment stripped and whitespace collapsed; 'v' is the default.
_LINE_KINDS = {
    "v": ("v<i> genus=<g>", r"v([0-9]+) genus=(-?[0-9]+)"),
    "e": ("e v<i>.h<a> v<j>.h<b> [psi=<p>[,<q>]]",
          r"e v([0-9]+)\.h([0-9]+) v([0-9]+)\.h([0-9]+)(?: psi=([0-9]+)(?:,([0-9]+))?)?"),
    "leg": ("leg <label> v<i> [psi=<p>]", r"leg (\S+) v([0-9]+)(?: psi=([0-9]+))?"),
}


def parse_graph(text: str) -> DualGraph:
    """Parse the graph literal format described in the module docstring."""
    if not isinstance(text, str):
        raise TypeError(f"graph text must be a str, got {type(text).__name__}")
    genera: list[int] = []
    edges: list[tuple[tuple[int, int], tuple[int, int]]] = []
    legs: list[tuple[str, int, int]] = []
    seen: set[str] = set()  # half-edges and leg labels
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = " ".join(raw.split("#", 1)[0].split())
        if not line:
            continue
        kind = line.split(" ", 1)[0]
        shape, pattern = _LINE_KINDS.get(kind, _LINE_KINDS["v"])
        match = re.fullmatch(pattern, line)
        try:
            if not match:
                raise ValueError(f"expected '{shape}', got '{line}'")
            numbers = [int(group or 0) for group in match.groups()[kind == "leg":]]  # not the label
            if kind == "e":
                va, a, vb, b, psi_a, psi_b = numbers
                uses = [(va, f"half-edge v{va}.h{a}"), (vb, f"half-edge v{vb}.h{b}")]
                edges.append(((va, psi_a), (vb, psi_b)))
            elif kind == "leg":
                uses = [(numbers[0], f"leg label {match[1]!r}")]
                legs.append((match[1], *numbers))
            elif numbers[0] != len(genera):
                raise ValueError(f"expected vertex v{len(genera)}, got v{numbers[0]}")
            else:
                uses = []
                genera.append(numbers[1])
            for vertex, name in uses:
                if vertex >= len(genera):
                    raise ValueError(f"v{vertex} is not declared")
                if name in seen:
                    raise ValueError(f"{name} repeats")
                seen.add(name)
        except ValueError as exc:  # int() raises one past its digit limit, too
            raise GraphParseError(f"line {lineno}: {exc}") from None
    if not genera:
        raise GraphParseError("no vertices declared")
    return DualGraph(genera=tuple(genera), edges=tuple(edges), legs=tuple(legs))


def format_graph(graph: DualGraph) -> str:
    """Render a graph in the literal format; parse_graph round-trips it.
    Raises InvalidGraphError for a graph the format cannot hold, or whose
    genus or psi has more digits than parse_graph reads."""
    report = validate_graph(graph)  # a negative genus, disconnected or unstable graph is written
    unwritable = {"not-a-graph", "empty", "bad-vertex-ref", "negative-psi", "duplicate-leg-label"}
    if unwritable & {violation.kind for violation in report.violations}:
        raise InvalidGraphError(report)
    next_slot = [0] * graph.vertex_count

    def half_edge(end: EdgeEnd) -> str:
        slot = next_slot[end.vertex]
        next_slot[end.vertex] += 1
        return f"v{end.vertex}.h{slot}"

    try:  # str() refuses a number past the digit limit, as parse_graph's int() does
        lines = [f"v{i} genus={g}" for i, g in enumerate(graph.genera)]
        for edge in graph.edges:
            line = f"e {half_edge(edge.a)} {half_edge(edge.b)}"
            if edge.b.psi:
                line += f" psi={edge.a.psi},{edge.b.psi}"
            elif edge.a.psi:
                line += f" psi={edge.a.psi}"
            lines.append(line)
        for leg in graph.legs:
            line = f"leg {leg.label} v{leg.vertex}"
            if leg.psi:
                line += f" psi={leg.psi}"
            lines.append(line)
        return "\n".join(lines) + "\n"
    except ValueError:
        too_long = Violation("too-many-digits", "a genus or psi is past Python's int-to-str digit limit")
        raise InvalidGraphError(ValidationReport(report.violations + (too_long,))) from None
