"""Exact rational scalars.

Rationals are the standard library ``fractions.Fraction``: arbitrary
precision, always stored with positive denominator and gcd(|num|, den) = 1,
with decidable equality.  This module adds the canonical text form used by
the CLI and all JSON output: ``p/q``, or just ``p`` when q = 1.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse canonical rational text ``p/q`` (or ``p``); reject anything else."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational in p/q form: {text!r}")
    num, _, den = text.partition("/")
    if den and not den.strip("0"):
        raise ValueError(f"zero denominator: {text!r}")
    try:
        return Fraction(text)
    except ValueError:
        # past Python's int-from-str digit limit: the mirror of format_rational
        return Fraction(int(Decimal(num)), int(Decimal(den or 1)))


def promote(value):
    """A plain int as a Fraction (int / int is a float); refuses a float with TypeError."""
    if isinstance(value, float):
        raise TypeError(f"floats are not exact scalars: {value!r}")
    return Fraction(value) if isinstance(value, int) else value


def format_rational(value) -> str:
    """Canonical text of any exact scalar, at any size: ``p/q``, or ``p`` when
    q = 1, for a Fraction or an int; ``str`` of a Decimal integer, a Laurent
    polynomial or a rational function."""
    value = promote(value)
    try:
        return str(value)
    except ValueError:  # a Fraction past the int-to-str digit limit
        num = format_int(value.numerator)
        return num if value.denominator == 1 else f"{num}/{format_int(value.denominator)}"


def format_int(n: int) -> str:
    """Decimal text of an int at any size.  Past Python's int-to-str digit
    limit, which stays in force to guard the parsing of outside input, the
    text comes from a Decimal, which converts ints exactly."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))
