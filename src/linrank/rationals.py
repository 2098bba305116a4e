"""Exact rational scalars.

Every number this package takes or returns is a `fractions.Fraction`:
arbitrary precision, always in canonical form (reduced, positive
denominator), so equality is structural and no operation ever rounds.
Vectors and matrices are plain tuples of Fractions.  Inside, rows are
ints where integral: the engines read a loop's matrix that way
(`to_leq_rows` with `_ints`), and `projection`'s rows keep the coprime
int directions `projection._row` gives them and an int constant when
it is integral.  So most LPs arrive all-int and the simplex lays them out
as they are; any other row is scaled to ints once by `integer_scaling`.
Floats and decimal strings are rejected, never rounded.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Sequence

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[0-9]+)?$")


def rat(numerator: int | str | Rational, denominator: int | Rational = 1) -> Rational:
    """Build a Rational; accepts ints, "p/q" strings and Fractions over a
    nonzero int or Fraction denominator.  Floats and other inexact values,
    and a zero denominator, are rejected with ValueError, not rounded."""
    if isinstance(numerator, str):
        numerator = parse_rational(numerator)
    elif not isinstance(numerator, (int, Fraction)):
        raise ValueError(f"not an exact rational: {numerator!r}")
    if not isinstance(denominator, (int, Fraction)) or not denominator:
        raise ValueError(f"not a nonzero exact denominator: {denominator!r}")
    return Fraction(numerator, denominator)


def parse_rational(text: str) -> Rational:
    """Parse "p" or "p/q" in ASCII digits exactly.  Decimals and zero
    denominators are rejected with ValueError, not rounded."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def integer_scaling(values: Sequence[Rational]) -> tuple[int, list[int]]:
    """The positive lcm of the values' denominators, and the values times
    it as ints.  All-int values are returned as they are, with scale 1."""
    if all(type(v) is int for v in values):
        return 1, list(values)
    scale = lcm(*(v.denominator for v in values))
    if scale == 1:
        return 1, [v.numerator for v in values]
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def format_rational(value: Rational) -> str:
    """Render as "p/q", or plain "p" when the denominator is 1."""
    return str(value)
