from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhrec.engine import RecurrenceSpec
from hhrec.errors import NotExactError, ZeroAtNegativeExponentError
from hhrec.invariants import explicit_iterates
from hhrec.laurent import (
    LaurentPolynomial,
    RationalFunction,
    format_laurent,
    parse_laurent,
    variables,
)

NV = 4  # k = 1 ring: x0, x1, x2, a


@pytest.fixture
def gens():
    return variables(NV)


# -- strategies ------------------------------------------------------------------

def exponents():
    xs = st.integers(min_value=-3, max_value=3)
    last = st.integers(min_value=0, max_value=3)
    return st.tuples(xs, xs, xs, last)


def polys(max_terms=4):
    return st.dictionaries(exponents(), st.integers(min_value=-9, max_value=9),
                           max_size=max_terms).map(lambda d: LaurentPolynomial(NV, d))


def nonzero_polys(max_terms=4):
    return polys(max_terms).filter(lambda p: not p.is_zero())


# -- constructors / invariants ------------------------------------------------------

def test_zero_coefficients_never_stored(gens):
    x0, x1, x2, a = gens
    p = x0 + x1 - x0 - x1
    assert p.is_zero() and len(p) == 0


def test_parameter_exponent_must_be_nonnegative():
    with pytest.raises(ValueError):
        LaurentPolynomial(NV, {(0, 0, 0, -1): 1})


def test_variable_count_mismatch(gens):
    x0 = gens[0]
    other = LaurentPolynomial.variable(6, 0)
    with pytest.raises(ValueError):
        x0 * other


# -- spec examples --------------------------------------------------------------------

def test_mul_unit_times_inverse_monomial(gens):
    x0 = gens[0]
    assert x0 * x0 ** -1 == 1


def test_mul_difference_of_squares(gens):
    _, x1, _, a = gens
    assert (x1 + a) * (x1 - a) == x1 * x1 - a * a


def test_mul_monomial_scaling(gens):
    x0, x1, x2, a = gens
    p = (x1 * x2 + a * x1 + a * x2) * x0 ** -1
    expected = x0 ** -1 * x1 * x2 + a * x0 ** -1 * x1 + a * x0 ** -1 * x2
    assert p == expected


def test_exact_div_constructed_factor(gens):
    x0, x1, _, a = gens
    assert ((x0 + a) * (x1 + a)).exact_div(x0 + a) == x1 + a


def test_exact_div_no_common_factor(gens):
    x0, x1, _, a = gens
    with pytest.raises(NotExactError):
        (x0 + a).exact_div(x1 + a)


def test_exact_div_by_zero(gens):
    x0 = gens[0]
    with pytest.raises(ZeroDivisionError):
        x0.exact_div(LaurentPolynomial.zero(NV))


@pytest.mark.parametrize("k", [1, 2])
def test_exact_div_iteration_numerator_matches_closed_formula(k):
    # the forward step at n = k divides by x_k; the quotient is the
    # closed-formula iterate x_{3k+1}
    spec = RecurrenceSpec.symbolic(k)
    w = spec.window().extend(new_hi=3 * k)
    a = spec.a
    numerator = w[3 * k] * w[k + 1] + a * (w[2 * k] + w[2 * k + 1])
    quotient = numerator.exact_div(w[k])
    assert quotient == explicit_iterates(spec).value(3 * k + 1)


def test_substitute_matches_direct_iteration(gens):
    x0, x1, x2, a = gens
    p = x0 ** -1 * x1 * x2 + a * x0 ** -1 * (x1 + x2)
    assert p.substitute([Fraction(1), Fraction(2), Fraction(3), Fraction(1)]) == 11


def test_substitute_constant_one(gens):
    one = LaurentPolynomial.one(NV)
    assert one.substitute([Fraction(9), Fraction(-2), Fraction(5), Fraction(0)]) == 1


def test_substitute_zero_at_negative_exponent(gens):
    x0 = gens[0]
    with pytest.raises(ZeroAtNegativeExponentError) as err:
        (x0 ** -1).substitute([Fraction(0), Fraction(1), Fraction(1), Fraction(1)])
    assert err.value.var == "x0"


# -- ring axioms (property tests) --------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polys(), nonzero_polys())
def test_exact_div_inverts_mul(p, q):
    assert (p * q).exact_div(q) == p


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=3), polys(max_terms=3),
       st.tuples(*[st.integers(min_value=1, max_value=7)] * 3),
       st.integers(min_value=-5, max_value=5))
def test_substitution_is_a_ring_homomorphism(p, q, xvals, aval):
    values = [Fraction(v) for v in xvals] + [Fraction(aval)]
    assert (p * q).substitute(values) == p.substitute(values) * q.substitute(values)
    assert (p + q).substitute(values) == p.substitute(values) + q.substitute(values)


# -- canonical text -------------------------------------------------------------------

def test_format_examples(gens):
    x0, x1, x2, a = gens
    assert format_laurent(x1 * x1 - a * a) == "x1^2 - a^2"
    assert format_laurent(LaurentPolynomial.zero(NV)) == "0"
    assert format_laurent(LaurentPolynomial.constant(NV, -7)) == "-7"
    assert format_laurent(3 * x0 * a) == "3*x0*a"
    assert format_laurent(x0 ** -2) == "x0^-2"


def test_terms_sorted_by_degree_then_lex(gens):
    x0, x1, x2, a = gens
    p = x0 * x2 ** -1 + 1 + x0 ** -1 * x2
    assert format_laurent(p) == "x0*x2^-1 + 1 + x0^-1*x2"


@settings(max_examples=80, deadline=None)
@given(polys())
def test_text_round_trip(p):
    assert parse_laurent(format_laurent(p), NV) == p


def test_parse_rejects_garbage():
    for bad in ["", "x9", "x0^", "2**x0", "x0 x1", "b0"]:
        with pytest.raises(ValueError):
            parse_laurent(bad, NV)


# -- rational functions ------------------------------------------------------------------

def test_rational_function_field_ops(gens):
    x0, x1, x2, a = gens
    r = RationalFunction(x1, x0) + RationalFunction(x2, x0)
    assert r == RationalFunction(x1 + x2, x0)
    assert (r * RationalFunction(x0)).as_laurent() == x1 + x2
    s = RationalFunction(x0 + a) / RationalFunction(x1 + a)
    assert s * RationalFunction(x1 + a) == RationalFunction(x0 + a)
    with pytest.raises(NotExactError):
        s.as_laurent()


def test_rational_function_zero_denominator(gens):
    x0 = gens[0]
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x0, LaurentPolynomial.zero(NV))


def test_rational_function_bool_is_false_exactly_for_zero(gens):
    x0, x1, x2, a = gens
    assert not RationalFunction(LaurentPolynomial.zero(NV), x0 + a)
    r = RationalFunction(x0 + a, x1 + x2)
    assert not r - r
    assert not RationalFunction(x1 + x2, x0) - RationalFunction(x1, x0) - RationalFunction(x2, x0)
    assert r and RationalFunction(x0) and RationalFunction(LaurentPolynomial.constant(NV, -1))
    assert r / RationalFunction(x0 + a)


def test_sigma_pullback_reverses_variables(gens):
    x0, x1, x2, a = gens
    p = x0 ** 2 * x2 ** -1 + a * x1
    assert p.sigma_pullback() == x2 ** 2 * x0 ** -1 + a * x1
    assert p.sigma_pullback().sigma_pullback() == p
