from decimal import Decimal
from fractions import Fraction

import pytest

from hhrec.laurent import RationalFunction, variables
from hhrec.rational import format_rational, parse_rational


@pytest.mark.parametrize("text,value", [
    ("3/4", Fraction(3, 4)),
    ("-3/4", Fraction(-3, 4)),
    ("+7", Fraction(7)),
    ("0", Fraction(0)),
    ("12/4", Fraction(3)),
])
def test_parse(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("bad", ["", "1.5", "3/", "/4", "1/2/3", "a", "1e3", "3 / 4", "1/0"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_rejects_zero_denominator_past_the_digit_limit():
    # Fraction refuses the 5001-digit numerator, so the decimal route parses it
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1" * 5001 + "/000")


def test_format():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-66, 143)) == "-6/13"  # canonical form reduces
    assert format_rational(Fraction(14)) == "14"


_DIGITS = "1" + "0" * 4999 + "1"  # 5001 digits, past the int-to-str limit of 4300
_X0, _X1, _A = variables(3)


@pytest.mark.parametrize("value,text", [
    (Fraction(-66, 143), "-6/13"),
    (-7, "-7"),
    (Fraction(-int(Decimal(_DIGITS)), 3), f"-{_DIGITS}/3"),
    (Decimal(-12345), "-12345"),
    (Decimal(f"-{_DIGITS}"), f"-{_DIGITS}"),
    (3 * _X0 * _A - _X1 ** -2 + 4, "3*x0*a + 4 - x1^-2"),
    (RationalFunction(_X0 + 1, _X1 * _A), "(x0 + 1) / (x1*a)"),
    (10 ** 5000 * _X0, "1" + "0" * 5000 + "*x0"),
    (_X1 - int(Decimal(_DIGITS)), f"x1 - {_DIGITS}"),
    (RationalFunction(_X0, 10 ** 5000 * _A), "(x0) / (1" + "0" * 5000 + "*a)"),
], ids=["fraction", "int", "fraction_past_limit", "decimal", "decimal_past_limit",
        "laurent", "rational_function", "laurent_past_limit", "laurent_constant_past_limit",
        "rational_function_past_limit"])
def test_one_formatter_for_every_exact_scalar(value, text):
    assert format_rational(value) == text


def test_canonical_form_after_operations():
    # den > 0 and gcd(|num|, den) = 1 hold after arbitrary arithmetic
    vals = [Fraction(6, -4), Fraction(2, 6) + Fraction(1, 6), Fraction(3, 7) * Fraction(7, 3)]
    for v in vals:
        assert v.denominator > 0
        from math import gcd
        assert gcd(abs(v.numerator), v.denominator) == 1


def test_equality_agrees_with_cross_multiplication():
    a, b = Fraction(6, 8), Fraction(3, 4)
    assert a == b and a.numerator * b.denominator == b.numerator * a.denominator


def test_format_past_the_int_to_str_digit_limit():
    # 5001 digits: past Python's default int-to-str limit of 4300
    big = 10 ** 5000 + 1
    digits = "1" + "0" * 4999 + "1"
    assert format_rational(Fraction(big)) == digits
    assert format_rational(Fraction(-big, 3)) == f"-{digits}/3"
    assert format_rational(Fraction(7, big)) == f"7/{digits}"


def test_parse_mirrors_format_past_the_digit_limit():
    # the fallback reads what format_rational writes, while Fraction(text) refuses it
    big = 10 ** 4400 + 3
    for value in (Fraction(big), Fraction(-big, 7), Fraction(7, big), Fraction(-1, 3)):
        assert parse_rational(format_rational(value)) == value
    assert parse_rational(f"+{format_rational(big)}/{format_rational(2 * big)}") == Fraction(1, 2)
