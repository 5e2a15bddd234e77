"""psi-class intersection numbers in genus 0 and 1.

The integrals <psi_1^{k_1} ... psi_n^{k_n}> over the moduli space of stable
n-pointed curves are computed by memoized string/dilaton recursion from the
two base values <1>_{0,3} = 1 and <psi_1>_{1,1} = 1/24, forgetting a point
of exponent 1 by dilaton before any string step.  Every coefficient of those
steps is an integer (a run length or the dilaton factor), so the engine runs
on Python ints: it memoizes N = 24^g * value, starting from the base N = 1 in
both genera, and the edge builds the one ``Fraction`` N/24^g.
The same iterative engine runs the string and dilaton laws of any class
pulled back along the maps forgetting marks.  Keyed by a genus-2 dual graph,
it runs a graph's forgetful pullbacks down to its stratum sum: the delta
route of :mod:`tautint.identities` is the engine on ``delta_graph()``, whose
only non-recursive input is the stratum sum at n <= 1.  Keyed by a vertex's
(genus, fixed exponents), it runs each vertex factor of
:mod:`tautint.strata` over the vertex's marks, down to plain psi integrals.
Each family (a genus, a graph or a vertex) has a memo dict of its own, keyed
by ``_key``: the exponent multiset as a ``str`` of code points in descending
order, which the steps slice and count.  A str refers to no other object, so
the garbage collector does not track it and a filled memo adds nothing to its
passes; it caches its hash and takes one byte per part below 256.
A closed-form multinomial evaluation in genus 0 is kept as an independent
cross-check.

Inputs are checked at the public edge only.  :func:`psi_integral` builds the
memo key from the caller's exponents, and that is the integer check; only an
input the key refuses goes through ``as_exponents``, for the named error.  A
hit skips the degree test, as every key of a psi family has a matched degree;
a miss runs it, then the check-free int entry ``_scaled``, and the edge builds
the one ``Fraction``.  The strata evaluator multiplies those ints directly.
:func:`clear_cache` empties every memo in ``_MEMOS``, and the engine refuses
a call whose memo would outgrow ``MAX_PSI_COST`` entries before any work.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple

from .arith import Exponents, _as_int, as_exponents, multinomial

__all__ = [
    "ModuliIndex",
    "UnsupportedGenusError",
    "psi_integral",
    "genus0_closed_form",
]


class UnsupportedGenusError(ValueError):
    """Raised for a genus beyond the exactly-solvable range of this engine."""


class ModuliIndex(NamedTuple):
    """A moduli space of stable curves: genus and number of marked points."""

    genus: int
    marks: int

    @property
    def dimension(self) -> int:
        return 3 * self.genus - 3 + self.marks

    @property
    def is_stable(self) -> bool:
        return 2 * self.genus - 2 + self.marks > 0


# Every memo of the package by name, strata's too, so one clear_cache empties
# all but arith's Bernoulli table (see there).  Plain dicts suffice for
# concurrent use in CPython: reads and writes of immutable values are atomic,
# racing threads only insert equal values, and a family's memo is added with
# setdefault, so racing threads fill the same one.
# The psi memo maps a genus to its family memo, of the ints N = 24^g * value.
# The graph-recursion memo holds the recursions over a pulled-back class, as
# ints 24^g * value: a graph's pullbacks (strata._recursive) under the graph,
# g its sum of vertex genera, and every vertex factor (strata._factor_value)
# under (genus, fixed exponents).  A family memo maps _key(exponents) to a value.
_MEMOS: dict[str, dict] = {}
_CACHE = _MEMOS["psi"] = {}
_GRAPH_MEMO = _MEMOS["graph recursion"] = {}


def _key(k: Iterable[int]) -> str:
    # The memo key of an exponent multiset: its parts as code points, in
    # descending order.  chr takes exactly the ints 0..0x10FFFF, an int-like
    # through __index__, so building a key checks its parts; the characters
    # are sorted, so the order is the parts' values whatever their own __lt__.
    return "".join(sorted(map(chr, k), reverse=True))


def _exponents(key: str) -> Exponents:
    # The descending exponent tuple that a _key encodes.
    return tuple(map(ord, key))


def clear_cache() -> None:
    """Drop every memo registered in ``_MEMOS`` (mainly for tests and
    benchmarks); ``arith``'s table of Bernoulli numbers is kept."""
    for memo in _MEMOS.values():
        memo.clear()


def psi_integral(space: ModuliIndex, exponents: Iterable[int]) -> Fraction:
    """The intersection number <psi_1^{k_1} ... psi_n^{k_n}> on ``space``.

    Returns exactly 0 whenever the monomial degree differs from the space's
    dimension 3g-3+n; a degree mismatch is a value, not an error, so stratum
    evaluators can silently discard non-contributing terms.

    Raises ValueError for a space that is not a (genus, marks) pair, a
    non-integer or unstable index, a wrong-length exponent vector or an
    input whose memo would exceed ``MAX_PSI_COST`` entries, and
    UnsupportedGenusError for genus >= 2.
    """
    k = tuple(exponents)
    try:  # the key is the integer check (see _key); chr raises OverflowError past C int
        key = _key(k)
    except (TypeError, ValueError, OverflowError):
        key = ""
    if not key:  # as_exponents names the error; if none, a part is beyond chr's range
        k = as_exponents(k)
    try:
        genus, marks = space  # one unpacking: each NamedTuple field read is a call
    except (TypeError, ValueError):
        raise ValueError(f"space must be a (genus, marks) pair, got {space!r}") from None
    genus, marks = _as_int(genus, "genus"), _as_int(marks, "marks")
    if 2 * genus - 2 + marks <= 0:  # space.is_stable, on the ints
        raise ValueError(f"unstable moduli index (genus={genus}, marks={marks})")
    if genus not in (0, 1):
        raise UnsupportedGenusError(f"genus {genus} is outside this engine's exact range (0 or 1)")
    if len(k) != marks:
        raise ValueError(f"expected {marks} exponents, got {len(k)}")
    if not key and sum(k) == 3 * genus - 3 + marks:
        # A part beyond chr's range alone fits more than MAX_PSI_COST
        # partitions in k's diagram: the engine's guard would refuse k.
        raise _too_costly(marks)
    # Every key of a psi family has a matched degree, so a hit needs no degree test.
    value = (_CACHE.get(genus) or {}).get(key)
    if value is None:
        value = _scaled(genus, key) if key and sum(map(ord, key)) == 3 * genus - 3 + marks else 0
    return Fraction(value) if genus == 0 else Fraction(value, 24)


# Largest memo that one engine call fills (psi integral, vertex factor or graph
# recursion).  At the slowest rate measured, ~25 us per entry (2-vCPU Xeon,
# CPython 3.11), that is ~5 s.
MAX_PSI_COST = 200_000
# The memo holds k and at most one entry per partition of size <= n (the
# degree is 3g-3+n, or n+1 on a built-in graph), and there are 177 970
# partitions of the sizes 0..39: inputs of up to 39 marks are free.
_FREE_MARKS = 39


def _fitting_partitions(k: Exponents, limit: int) -> int:
    # The partitions whose diagram fits inside that of k (sorted descending),
    # counted row by row, stopping once past ``limit``.  The string and
    # dilaton steps only lower parts and drop zeros and ones, so every memo
    # entry under k is one of them, padded with zeros to its degree-matched
    # length: an upper bound, as dilaton first leaves many of them out.
    # ways[v]: the choices of the rows so far whose last row is v, starting
    # from a virtual row k[0] above the first
    ways = [0] * k[0] + [1]
    for bound in k:
        if not bound or sum(ways) > limit:
            break
        # a row may be any v <= bound that does not exceed the row above it
        ways = list(itertools.accumulate(reversed(ways)))[:-bound - 2:-1]
    return sum(ways)


def _too_costly(marks: int) -> ValueError:
    # The engine's refusal of an input whose memo would outgrow MAX_PSI_COST
    # entries; also raised at the edges for a part beyond chr's range.
    return ValueError(f"recursion over {marks} marks is too costly: its memo "
                      f"would exceed {MAX_PSI_COST} entries")


def _scaled(genus: int, key: str) -> int:
    # Check-free entry: the _key of degree-matched exponents on a stable genus-0/1
    # index.  Returns N = 24^genus * value; the steps stop only at N = 1, the
    # base <1>_{0,3} or <psi_1>_{1,1}.
    return _string_dilaton(_CACHE, genus, 2 * genus - 2, lambda k: 1, key)


def _string_dilaton(memo: dict, family: object, euler: int, base: Callable[[str], int], k: str) -> int:
    # The values of one family, memoized in ``memo[family]`` under their
    # _key, as ints: psi integrals of genus ``family`` (N), pullbacks of the
    # graph ``family``, or the factors of the vertex ``family`` = (genus, fixed).
    # ``euler`` is the family's 2g-2 plus legs; ``base(k)`` is the value where
    # string and dilaton do not apply (see _step).  k is a _key.  Pending
    # steps wait on an explicit stack, so the depth is not bounded by
    # Python's recursion limit.
    value = (memo.get(family) or {}).get(k)
    if value is not None:
        return value
    if len(k) > _FREE_MARKS and _fitting_partitions(_exponents(k), MAX_PSI_COST) > MAX_PSI_COST:
        raise _too_costly(len(k))
    table = memo.setdefault(family, {})  # only now, so a refused call leaves no trace
    stack = [(k, _step(table, euler, base, k))]
    while stack:
        k, step = stack[-1]
        try:
            needed = step.send(value)
        except StopIteration as done:
            stack.pop()
            value = table[k] = done.value
        else:
            value = None
            stack.append((needed, _step(table, euler, base, needed)))
    return value


def _step(table: dict, euler: int, base: Callable[[str], int], k: str):
    # One induction step on a _key: yields each smaller key missing from
    # ``table`` and is sent its value.  String and dilaton apply where a point of
    # exponent 0 or 1 can be forgotten and leave a stable space, else base(k).
    # Both hold there, so a point of exponent 1 goes first: dilaton has one term.
    if not k or k[-1] > "\1" or euler + len(k) < 2:
        return base(k)
    if "\1" in k:
        # Dilaton equation: the factor is euler+n counted after forgetting the point.
        rest = k.replace("\1", "", 1)
        value = table.get(rest)
        return (euler - 1 + len(k)) * ((yield rest) if value is None else value)
    rest = k[:-1]
    # String equation, on a key with no 1: forget a point with exponent 0 and
    # redistribute one unit of exponent among the remaining points.  Equal
    # parts give equal terms, so the string step visits runs of nonzero parts
    # only, one jump per run, decremented at its end to stay sorted; the zeros
    # end the walk.
    total = end = 0
    size = len(rest)
    while end < size and (part := rest[end]) != "\0":
        end += (count := rest.count(part, end))
        smaller = rest[:end - 1] + chr(ord(part) - 1) + rest[end:]
        value = table.get(smaller)
        total += count * ((yield smaller) if value is None else value)
    return total


def genus0_closed_form(exponents: Iterable[int]) -> Fraction:
    """Genus-0 integral as a single multinomial coefficient.

    For n marked points the value is multinomial(n-3, K) when the exponents
    sum to n-3 and 0 otherwise.  Independent of the recursion in
    :func:`psi_integral`; the two are cross-checked in the test suite.
    """
    k = as_exponents(exponents)
    n = len(k)
    if n < 3:
        raise ValueError("genus-0 moduli spaces need at least three marked points")
    if sum(k) != n - 3:
        return Fraction(0)
    return Fraction(multinomial(n - 3, k))
