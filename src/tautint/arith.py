"""Exact combinatorial kernel: multinomials, integer partitions, Bernoulli numbers.

Every value in this package is an arbitrary-precision ``int`` or
``fractions.Fraction``; nothing anywhere touches floating point.
"""

from __future__ import annotations

import math
import operator
import re
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "Exponents",
    "as_exponents",
    "canonical",
    "multinomial",
    "partitions",
    "bernoulli",
    "format_rational",
    "parse_rational",
]

# An exponent vector (k_1, ..., k_n): one nonnegative psi exponent per marked
# point.  Plain tuples keep these hashable and cheap to permute.
Exponents = tuple[int, ...]


def _as_ints(values: Iterable[int], what: str = "exponents") -> tuple[int, ...]:
    # operator.index takes ints and int subclasses (bool) at their value as
    # plain ints, and refuses a float, str or Fraction that int() would
    # truncate or parse.
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next((v for v in values if not hasattr(v, "__index__")), values)
        raise ValueError(f"{what} must be integers, got {bad!r}") from None


def _as_int(value: int, name: str) -> int:
    # One integer parameter, taken as _as_ints takes exponents.
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _nonnegative(values: Iterable[int]) -> Exponents:
    # The values as ints, as _as_ints takes them, refusing a negative one.
    k = _as_ints(values)
    if k and min(k) < 0:
        raise ValueError(f"exponents must be nonnegative, got {k}")
    return k


def as_exponents(values: Iterable[int]) -> Exponents:
    """Coerce an iterable of psi exponents to a validated tuple of ints;
    a non-integer entry raises ValueError."""
    k = _nonnegative(values)
    if not k:
        raise ValueError("exponent vector must have at least one entry")
    return k


def canonical(exponents: Iterable[int]) -> Exponents:
    """Sorted-descending form of an exponent vector.

    Symmetric integrals only depend on the multiset of exponents, so sorting
    collapses compositions to partitions.  The memos key a multiset by
    ``psi._key``, the same order written as a str of code points.
    """
    return tuple(sorted(exponents, reverse=True))


def multinomial(n: int, parts: Iterable[int]) -> int:
    """Multinomial coefficient n! / (k_1! ... k_m!) for parts summing to n.

    Parts equal to zero are allowed and contribute a factor 0! = 1.
    Raises ValueError when the parts do not sum to ``n``.
    """
    k = _nonnegative(parts)
    n = _as_int(n, "n")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if sum(k) != n:
        raise ValueError(f"parts {k} do not sum to {n}")
    return _multinomial(n, k)


def _multinomial(n: int, k: Exponents) -> int:
    # Check-free: k holds nonnegative ints summing to n.
    out = math.factorial(n)
    for part in k:
        out //= math.factorial(part)
    return out


def partitions(total: int, max_parts: int) -> Iterator[Exponents]:
    """Yield each partition of ``total`` into at most ``max_parts`` positive parts.

    Every partition is padded with zeros to length ``max_parts`` and emitted
    exactly once, in reverse-lexicographic order:

        partitions(4, 3) -> (4,0,0), (3,1,0), (2,2,0), (2,1,1)

    ``total == 0`` yields the single all-zero vector.
    """
    total, max_parts = _as_int(total, "total"), _as_int(max_parts, "max_parts")
    if total < 0:
        raise ValueError("total must be nonnegative")
    if max_parts < 1:
        raise ValueError("max_parts must be positive")
    for parts in _descending_parts(total, max_parts, total):
        yield parts + (0,) * (max_parts - len(parts))


def _descending_parts(remaining: int, slots: int, bound: int) -> Iterator[Exponents]:
    if remaining == 0:
        yield ()
        return
    if slots == 0:
        return
    for first in range(min(remaining, bound), 0, -1):
        for rest in _descending_parts(remaining - first, slots - 1, first):
            yield (first,) + rest


# Bernoulli numbers, B_1 = -1/2 convention; extended on demand.  The one
# module memo outside psi._MEMOS, so clear_cache keeps it: it holds constants
# that only grow, and clearing it would drop the seed B_0 the recurrence needs.
_BERNOULLI: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """The m-th Bernoulli number under the B_1 = -1/2 convention.

    Computed exactly from the recurrence sum_{k=0}^{m} C(m+1, k) B_k = 0
    with B_0 = 1.
    """
    m = _as_int(m, "m")
    if m < 0:
        raise ValueError("index must be nonnegative")
    while len(_BERNOULLI) <= m:
        j = len(_BERNOULLI)
        acc = sum((math.comb(j + 1, i) * _BERNOULLI[i] for i in range(j)), Fraction(0))
        _BERNOULLI.append(-acc / (j + 1))
    return _BERNOULLI[m]


def format_rational(value: Fraction | int) -> str:
    """Render an exact rational as "p/q", omitting "/q" when q is 1."""
    if not isinstance(value, (int, Fraction)):
        raise TypeError(f"format_rational takes an int or Fraction, got {type(value).__name__}")
    # Decimal prints every digit; str(int) stops at sys.get_int_max_str_digits().
    if value.denominator == 1:
        return str(Decimal(value.numerator))
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


# The integer "p" / "p/q" forms that fractions.Fraction reads, digit for digit.
_INTEGER_RATIO = re.compile(r"\s*([-+]?\d+(?:_\d+)*)(?:/(\d+(?:_\d+)*))?\s*")


def parse_rational(text: str) -> Fraction:
    """Parse the "p/q" form produced by :func:`format_rational`, of any
    length; any other text ``fractions.Fraction`` reads is accepted too."""
    match = _INTEGER_RATIO.fullmatch(text)
    if match is None:
        return Fraction(text.strip())
    # Decimal reads every digit, as format_rational prints them.
    numerator, denominator = match.groups()
    return Fraction(int(Decimal(numerator)), int(Decimal(denominator or 1)))
