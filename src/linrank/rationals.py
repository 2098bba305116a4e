"""Exact rational scalars.

Every number in this package is a `fractions.Fraction`: arbitrary precision,
always in canonical form (reduced, positive denominator), so equality is
structural and no operation ever rounds.  Vectors and matrices are plain
tuples of Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rat(numerator: int | str | Rational, denominator: int = 1) -> Rational:
    """Build a Rational; accepts ints, "p/q" strings and Fractions."""
    if isinstance(numerator, str):
        return parse_rational(numerator)
    return Fraction(numerator, denominator)


def parse_rational(text: str) -> Rational:
    """Parse "p" or "p/q" exactly.  Decimals and zero denominators are
    rejected with ValueError, not rounded."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(value: Rational) -> str:
    """Render as "p/q", or plain "p" when the denominator is 1."""
    return str(value)
