"""Reference values computed independently of tautint.

Everything here is built from ``math.factorial`` and ``Fraction`` alone; no
tautint module is imported, so a defect in the library cannot hide in its own
check.  Exponent vectors are plain tuples of nonnegative ints.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product


def multinomial(n: int, parts) -> int:
    """n! / prod(k!) for parts summing to n."""
    out = math.factorial(n)
    for part in parts:
        out //= math.factorial(part)
    return out


def partitions(total: int, max_parts: int):
    """Partitions of ``total`` into at most ``max_parts`` positive parts,
    descending, zero-padded to ``max_parts``, reverse-lexicographic order."""

    def descend(remaining, slots, bound):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in descend(remaining - first, slots - 1, first):
                yield (first,) + rest

    for parts in descend(total, max_parts, total):
        yield parts + (0,) * (max_parts - len(parts))


def key(exponents) -> tuple[int, ...]:
    return tuple(sorted(exponents, reverse=True))


@lru_cache(maxsize=None)
def genus0(k: tuple[int, ...]) -> Fraction:
    """<tau_k>_0 on M_{0,n}: multinomial(n-3; k) when the degree matches."""
    n = len(k)
    if n < 3 or sum(k) != n - 3:
        return Fraction(0)
    return Fraction(multinomial(n - 3, k))


@lru_cache(maxsize=None)
def genus1(k: tuple[int, ...]) -> Fraction:
    """<tau_d>_1 = (1/24) C(n; d) (1 - sum_{i>=2} (i-2)! e_i(d) / (n)_i),
    with e_i the elementary symmetric polynomials of the exponents and
    (n)_i the falling factorial."""
    n = len(k)
    if n < 1 or sum(k) != n:
        return Fraction(0)
    elementary = [1] + [0] * n
    for d in k:
        for i in range(n, 0, -1):
            elementary[i] += d * elementary[i - 1]
    correction = Fraction(0)
    falling = n
    for i in range(2, n + 1):
        falling *= n - i + 1
        correction += Fraction(math.factorial(i - 2) * elementary[i], falling)
    return Fraction(multinomial(n, k), 24) * (1 - correction)


def psi(genus: int, exponents) -> Fraction:
    return (genus0 if genus == 0 else genus1)(key(exponents))


def builtin_pullback(graph: str, exponents) -> Fraction:
    """Closed forms for the built-in graphs: with M = multinomial(n+1; k),
    delta = M/24, delta0 = M, gamma-psi = M/12 (0 off degree n+1)."""
    k = tuple(exponents)
    if sum(k) != len(k) + 1:
        return Fraction(0)
    m = multinomial(len(k) + 1, k)
    return {"delta": Fraction(m, 24), "delta0": Fraction(m), "gamma-psi": Fraction(m, 12)}[graph]


def splits(exponents, parts: int):
    """Every way to hand the multiset ``exponents`` out to ``parts`` places.

    Yields (weight, pieces): ``pieces[j]`` is the sub-multiset sent to place
    j and ``weight`` the number of labelled assignments with that shape.
    """
    counts = sorted(Counter(exponents).items())
    per_value = []
    for value, count in counts:
        options = []
        for cut in _compositions(count, parts):
            options.append((multinomial(count, cut), [(value,) * c for c in cut]))
        per_value.append(options)
    for choice in product(*per_value):
        weight = 1
        pieces = [()] * parts
        for w, chunks in choice:
            weight *= w
            pieces = [pieces[j] + chunks[j] for j in range(parts)]
        yield weight, pieces


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def chain3_pullback(k: tuple[int, ...]) -> Fraction:
    """Three genus-0 vertices v0 = v1 = v2 (two double edges), one leg on v0
    and one on v2.  Undecorated, so each mark distribution contributes the
    product of genus-0 closed forms with 3, 4 and 3 fixed points."""
    fixed = (3, 4, 3)
    total = Fraction(0)
    for weight, pieces in splits(k, 3):
        value = Fraction(weight)
        for piece, f in zip(pieces, fixed):
            value *= genus0(key(piece + (0,) * f))
            if not value:
                break
        total += value
    return total


@lru_cache(maxsize=None)
def _decorated_vertex(b: tuple[int, ...]) -> Fraction:
    """Genus-0 vertex with four fixed points h, p, q, r and the pulled-back
    class psi_h, integrated against the marks' exponents ``b``.

    On M_{0,4}, psi_h is the boundary point D(hp|qr); its pullback is the sum
    over subsets S of the marks of D(hpS|qrS^c), and each divisor integrates
    to a product of two genus-0 integrals with three special points each.
    """
    total = Fraction(0)
    for weight, (left, right) in splits(b, 2):
        total += weight * genus0(key(left + (0, 0, 0))) * genus0(key(right + (0, 0, 0)))
    return total


@lru_cache(maxsize=None)
def legged_deco_pullback(k: tuple[int, ...]) -> Fraction:
    """delta with a leg on the loop vertex and a unit psi on one loop end:
    genus-1 vertex (one edge end) joined to a genus-0 vertex carrying the
    loop, the leg and the decoration."""
    total = Fraction(0)
    for weight, (on_g1, on_g0) in splits(k, 2):
        g1 = genus1(key(on_g1 + (0,)))
        if g1:
            total += weight * g1 * _decorated_vertex(key(on_g0))
    return total


def pullback(graph: str, exponents) -> Fraction:
    k = key(exponents)
    if graph == "chain3":
        return chain3_pullback(k)
    if graph == "legged-deco":
        return legged_deco_pullback(k)
    return builtin_pullback(graph, k)


def lambda2(exponents) -> Fraction:
    """Genus-2 top Hodge class against a psi monomial: 7/5760 * multinomial(n+1; k)."""
    k = tuple(exponents)
    return Fraction(7 * multinomial(len(k) + 1, k), 5760)
