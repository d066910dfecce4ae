import heapq
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhrec.engine import RecurrenceSpec, xi_residual
from hhrec.errors import NotExactError, ZeroAtNegativeExponentError
from hhrec.invariants import explicit_iterates
from hhrec.laurent import (
    _EXP_MAX,
    _EXP_MIN,
    LaurentPolynomial,
    RationalFunction,
    _pack,
    _unpack_all,
    dot,
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
    return polys(max_terms).filter(bool)


# -- constructors / invariants ------------------------------------------------------

def test_zero_coefficients_never_stored(gens):
    x0, x1, x2, a = gens
    p = x0 + x1 - x0 - x1
    assert not p and len(p) == 0


def test_non_integer_coefficients_rejected():
    # an int() cast would truncate each of these silently
    for terms in ({(1, 0): Fraction(3, 2)}, {(1, 0): 2.7}):
        with pytest.raises(ValueError):
            LaurentPolynomial(2, terms)
    with pytest.raises(ValueError):
        LaurentPolynomial.constant(2, Fraction(1, 2))
    assert LaurentPolynomial(2, {(1, 0): Fraction(4, 2)}) == 2 * LaurentPolynomial.variable(2, 0)


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
        x0.exact_div(LaurentPolynomial(NV))


@pytest.mark.parametrize("k", [1, 2])
def test_exact_div_iteration_numerator_matches_closed_formula(k):
    # the forward step at n = k divides by x_k; the quotient is the
    # closed-formula iterate x_{3k+1}
    spec = RecurrenceSpec.symbolic(k)
    w = spec.window().extend(new_hi=3 * k)
    a = spec.a
    numerator = w[3 * k] * w[k + 1] + a * (w[2 * k] + w[2 * k + 1])
    quotient = numerator.exact_div(w[k])
    assert quotient == explicit_iterates(spec).values[3 * k + 1]


def test_substitute_matches_direct_iteration(gens):
    x0, x1, x2, a = gens
    p = x0 ** -1 * x1 * x2 + a * x0 ** -1 * (x1 + x2)
    assert p.substitute([Fraction(1), Fraction(2), Fraction(3), Fraction(1)]) == 11


def test_substitute_constant_one(gens):
    one = LaurentPolynomial.constant(NV, 1)
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


# -- dot: the compact-key sum of products against the sum of * products ------------------

def assert_dot_is_sum_of_products(xs, ys):
    """dot(xs, ys) has the term map and text of the slow route, sum of x * y,
    and raises ValueError exactly when the slow route does."""
    try:
        want = sum(x * y for x, y in zip(xs, ys))
    except ValueError:
        with pytest.raises(ValueError):
            dot(xs, ys)
        return
    got = dot(xs, ys)
    assert (got.nvars, got._terms, str(got)) == (want.nvars, want._terms, str(want))


def dot_polys(nv: int):
    """Polynomials in nv variables: zero, one-term and up to five terms, with
    signed coefficients; one exponent of a term may sit near the range's ends,
    so that products leave the exponent or the degree range."""
    def moved(exp, i, e):  # exponent i set to e; a's exponent stays nonnegative
        return exp[:i] + (e if i < nv - 1 else abs(e) // 2,) + exp[i + 1:]

    small = st.tuples(*[st.integers(min_value=-3, max_value=3)] * (nv - 1),
                      st.integers(min_value=0, max_value=3))
    near_end = st.builds(moved, small, st.integers(min_value=0, max_value=nv - 1),
                         st.sampled_from([_EXP_MIN, -8192, 8192, _EXP_MAX]))
    exps = st.one_of(small, small, near_end).filter(lambda e: _EXP_MIN <= sum(e) <= _EXP_MAX)
    coeffs = st.integers(min_value=1, max_value=9) | st.integers(min_value=-9, max_value=-1)
    general = st.dictionaries(exps, coeffs, min_size=2, max_size=5)
    return st.one_of(st.dictionaries(exps, coeffs, max_size=0),
                     st.dictionaries(exps, coeffs, min_size=1, max_size=1),
                     general, general, general).map(lambda d: LaurentPolynomial(nv, d))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dot_equals_the_sum_of_products(data):
    nv = data.draw(st.integers(min_value=2, max_value=5))
    ps = dot_polys(nv)
    cancel = data.draw(st.booleans())
    pairs = data.draw(st.lists(st.tuples(ps, ps), min_size=0 if cancel else 1, max_size=4))
    if cancel:  # P*Q + (-Q)*P: these two products cancel to exactly 0
        p, q = data.draw(ps), data.draw(ps)
        pairs += [(p, q), (-q, p)]
    pairs = data.draw(st.permutations(pairs))
    if data.draw(st.integers(min_value=0, max_value=9)) == 7:  # one operand of another ring
        i, j = data.draw(st.integers(min_value=0, max_value=len(pairs) - 1)), data.draw(st.booleans())
        other = data.draw(st.sampled_from([LaurentPolynomial(nv + 1),
                                           LaurentPolynomial.variable(nv + 1, 0)]))
        pairs[i] = (other, pairs[i][1]) if j else (pairs[i][0], other)
    xs, ys = zip(*pairs)
    assert_dot_is_sum_of_products(xs, ys)


def test_dot_at_and_past_the_bound(gens):
    x0, x1, x2, a = gens
    half = (_EXP_MAX + 1) // 2
    for xs, ys in [
        ([x0 ** half], [x0 ** (half - 1)]),  # x0^16383: the last exponent in range
        ([x0 ** half, x1], [x0 ** half, x2]),  # x0 leaves the range
        ([x1 ** -half, a], [x1 ** -(half + 1), x0]),
        ([a ** half], [a ** half]),
        ([x0 ** _EXP_MAX], [x1 + x2]),  # only the total degree leaves the range
        ([x0 ** _EXP_MIN], [x2 ** -1 + x1]),
        # the per-variable minima sum to -18100, yet no term's degree is below -9100
        ([x0 ** -9000 + x1 ** -9000], [x0 ** -100 + x1 ** -100]),
        ([x0 ** -half, x1], [x0 ** -half - x1, LaurentPolynomial.variable(NV + 1, 0)]),
        ([x0 ** half, LaurentPolynomial(NV + 2)], [x0 ** half, x0]),
    ]:
        assert_dot_is_sum_of_products(xs, ys)


# -- canonical text -------------------------------------------------------------------

def test_format_examples(gens):
    x0, x1, x2, a = gens
    assert format_laurent(x1 * x1 - a * a) == "x1^2 - a^2"
    assert format_laurent(LaurentPolynomial(NV)) == "0"
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
    for bad in ["", "x9", "x0^", "2**x0", "x0 x1", "b0", "x0*", "2*x1*"]:
        with pytest.raises(ValueError):
            parse_laurent(bad, NV)


def test_parse_refuses_in_linear_time():
    # a grammar regex with two adjacent whitespace runs backtracks
    # exponentially on such a text: about 10 s at 12 factors
    text = "x0^   2*" * 12 + "x"
    start = time.perf_counter()
    with pytest.raises(ValueError):
        parse_laurent(text, NV)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text, expected", [
    ("  x0 + 1", "x0 + 1"),
    ("x0 ^ - 2 * a", "x0^-2*a"),
    ("2*3*x0", "6*x0"),
    ("x0*x0^-1", "1"),
    ("a^-1*a^2", "a"),
])
def test_parse_accepts_non_canonical_spellings(text, expected):
    assert format_laurent(parse_laurent(text, NV)) == expected


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


def test_rational_function_of_a_laurent_polynomial_divides_nothing(gens, monkeypatch):
    x0, x1, x2, a = gens
    p = 2 * x0 ** -2 * x1 + a * x2 ** -1 - 3
    calls = []
    exact_div = LaurentPolynomial.exact_div
    monkeypatch.setattr(LaurentPolynomial, "exact_div",
                        lambda self, d: calls.append(d) or exact_div(self, d))
    r = RationalFunction(p)
    assert (calls, r.num, r.den) == ([], p, 1)
    # nor does a quotient: the pair is kept as given, even when it shares a
    # monomial or divides exactly, and is only divided on request
    shared = RationalFunction(x0 * (x1 + a), x0)
    coprime = RationalFunction(x0 + a, x1 + x2)
    assert calls == []
    assert (shared.num, shared.den) == (x0 * (x1 + a), x0)
    assert (coprime.num, coprime.den) == (x0 + a, x1 + x2)
    assert shared.as_laurent() == x1 + a
    with pytest.raises(NotExactError):
        coprime.as_laurent()
    assert shared == RationalFunction(x1 + a) and shared == x1 + a
    assert coprime != RationalFunction(x0 + a) and coprime * (x1 + x2) == x0 + a
    assert shared and coprime and not shared - RationalFunction(x1 + a)


def test_rational_function_zero_denominator(gens):
    x0 = gens[0]
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x0, LaurentPolynomial(NV))


def test_rational_function_bool_is_false_exactly_for_zero(gens):
    x0, x1, x2, a = gens
    assert not RationalFunction(LaurentPolynomial(NV), x0 + a)
    r = RationalFunction(x0 + a, x1 + x2)
    assert not r - r
    assert not RationalFunction(x1 + x2, x0) - RationalFunction(x1, x0) - RationalFunction(x2, x0)
    assert r and RationalFunction(x0) and RationalFunction(LaurentPolynomial.constant(NV, -1))
    assert r / RationalFunction(x0 + a)


# -- operator table: the operand rule of both ring classes ------------------------------------
#
# Every binary operator lifts an int or a LaurentPolynomial operand into its
# own class; a RationalFunction operand makes a LaurentPolynomial step aside,
# so the quotient class answers; Fraction and float are no ring operands.

OPS = {"+": lambda u, v: u + v, "-": lambda u, v: u - v,
       "*": lambda u, v: u * v, "/": lambda u, v: u / v}
POINT = (Fraction(2), Fraction(-3), Fraction(5, 7), Fraction(4))


def _operand(kind):
    x0, x1, x2, a = variables(NV)
    # the polynomial is a monomial with coefficient 2, so that p / 2, 2 / p
    # and p / p all divide exactly in the ring
    return {"int": 2, "laurent": 2 * x0 * x1 ** -1,
            "rational": RationalFunction(x2 + a, x0 - x1)}[kind]


def _value(v):
    if isinstance(v, RationalFunction):
        return v.num.substitute(POINT) / v.den.substitute(POINT)
    return v.substitute(POINT) if isinstance(v, LaurentPolynomial) else Fraction(v)


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("left, right", [
    ("laurent", "int"), ("int", "laurent"), ("laurent", "laurent"),
    ("rational", "int"), ("int", "rational"), ("rational", "laurent"),
    ("laurent", "rational"), ("rational", "rational"),
])
def test_operator_table_ring_operands(op, left, right):
    u, v = _operand(left), _operand(right)
    result = OPS[op](u, v)
    expected = RationalFunction if "rational" in (left, right) else LaurentPolynomial
    assert type(result) is expected
    assert _value(result) == OPS[op](_value(u), _value(v))


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("kind", ["laurent", "rational"])
@pytest.mark.parametrize("scalar", [Fraction(1, 2), Fraction(2), 0.5])
def test_operator_table_refuses_fraction_and_float(op, kind, scalar):
    u = _operand(kind)
    with pytest.raises(TypeError):
        OPS[op](u, scalar)
    with pytest.raises(TypeError):
        OPS[op](scalar, u)


def test_operator_table_equality(gens):
    x0, x1, x2, a = gens
    p, r = _operand("laurent"), _operand("rational")
    two = LaurentPolynomial.constant(NV, 2)
    equal = [(two, 2), (2, two), (p, p), (p, RationalFunction(p)), (RationalFunction(p), p),
             (RationalFunction(p * x0, x0), p), (r, r), (RationalFunction(two), 2),
             (2, RationalFunction(two)), (r, RationalFunction((x2 + a) * x1, (x0 - x1) * x1))]
    unequal = [(p, 2), (2, p), (p, r), (r, p), (r, 2), (two, RationalFunction(two, x0))]
    for u, v in equal:
        assert u == v and not u != v, (u, v)
    for u, v in unequal:
        assert u != v and not u == v, (u, v)
    # Fraction and float have no rule against either class: never equal, never raising
    for u in (two, RationalFunction(two)):
        for scalar in (Fraction(2), 2.0):
            assert u != scalar and scalar != u and not u == scalar and not scalar == u


def test_operator_table_division_by_zero(gens):
    x0 = gens[0]
    p, r = _operand("laurent"), _operand("rational")
    zero_lp, zero_rf = LaurentPolynomial(NV), RationalFunction(LaurentPolynomial(NV), x0)
    for u, v in [(p, 0), (p, zero_lp), (2, zero_lp), (zero_lp, zero_lp), (p, zero_rf),
                 (r, 0), (r, zero_lp), (r, zero_rf), (2, zero_rf), (zero_lp, zero_rf)]:
        with pytest.raises(ZeroDivisionError):
            u / v


@pytest.mark.parametrize("op", OPS)
def test_operator_table_variable_count_mismatch(op):
    p, r = _operand("laurent"), _operand("rational")
    other = LaurentPolynomial.variable(6, 0)
    for u, v in [(p, other), (other, p), (r, other), (other, r)]:
        with pytest.raises(ValueError, match="variable-count mismatch"):
            OPS[op](u, v)
    for u in (p, r):  # unequal in both orders, as no ring holds both
        assert not u == other and u != other and not other == u and other != u


def test_sigma_pullback_reverses_variables(gens):
    x0, x1, x2, a = gens
    p = x0 ** 2 * x2 ** -1 + a * x1
    assert p.sigma_pullback() == x2 ** 2 * x0 ** -1 + a * x1
    assert p.sigma_pullback().sigma_pullback() == p


# -- reference route: the tuple-keyed kernel -----------------------------------------------
#
# Multiply and exact division over exponent tuples, as the package computed
# them before monomials were packed into ints.  Slow, but independent of the
# packing: the packed kernel must agree with it term for term.

def _order_key(exp):
    # graded order: total degree, ties broken lexicographically from position 0
    return (sum(exp), exp)


def ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(int.__add__, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def ref_divide_ordinary(num: dict, den: dict) -> dict | None:
    """Quotient of ordinary (nonnegative-exponent) term maps, or None."""
    dlead = max(den, key=_order_key)
    dlc = den[dlead]
    den_rest = [(e, c) for e, c in den.items() if e != dlead]
    r = dict(num)
    q = {}
    heap = [(-s, tuple(-x for x in e), e) for e in r for s in (sum(e),)]
    heapq.heapify(heap)
    while r:
        while heap:
            _, _, rlead = heap[0]
            if rlead in r:
                break
            heapq.heappop(heap)
        if not heap:
            break
        rc = r[rlead]
        qexp = tuple(map(int.__sub__, rlead, dlead))
        if any(e < 0 for e in qexp):
            return None
        qc, rem = divmod(rc, dlc)
        if rem:
            return None
        q[qexp] = qc
        del r[rlead]
        heapq.heappop(heap)
        for e, c in den_rest:
            key = tuple(map(int.__add__, qexp, e))
            s = r.get(key, 0) - qc * c
            if s:
                if key not in r:
                    heapq.heappush(heap, (-sum(key), tuple(-x for x in key), key))
                r[key] = s
            elif key in r:
                del r[key]
    return q if not r else None


def ref_exact_div(num: dict, den: dict) -> dict:
    """Exact quotient of tuple term maps; raises NotExactError if there is none."""
    if not num:
        return {}
    if len(den) == 1:
        (dexp, dcoeff), = den.items()
        out = {}
        for e, c in num.items():
            q, r = divmod(c, dcoeff)
            exp = tuple(map(int.__sub__, e, dexp))
            if r or exp[-1] < 0:
                raise NotExactError("reference: not exact")
            out[exp] = q
        return out
    # factor out per-variable minimal x-exponents; `a` (last slot) stays
    nmin = [min(col) for col in zip(*num)]
    dmin = [min(col) for col in zip(*den)]
    nmin[-1] = dmin[-1] = 0
    nshift = {tuple(ei - mi for ei, mi in zip(e, nmin)): c for e, c in num.items()}
    dshift = {tuple(ei - mi for ei, mi in zip(e, dmin)): c for e, c in den.items()}
    q = ref_divide_ordinary(nshift, dshift)
    if q is None:
        raise NotExactError("reference: remainder is nonzero")
    back = tuple(a - b for a, b in zip(nmin, dmin))
    out = {tuple(map(int.__add__, e, back)): c for e, c in q.items()}
    if any(e[-1] < 0 for e in out):
        raise NotExactError("reference: negative power of the parameter")
    return out


def outcome(fn):
    """The value of fn(), or the class of the exception it raised."""
    try:
        return fn()
    except (NotExactError, ValueError) as exc:
        return type(exc)


def in_range(terms: dict) -> bool:
    return all(_EXP_MIN <= x <= _EXP_MAX for e in terms for x in e + (sum(e),))


def wide_exponents():
    # fields near the ends of the range, so carries between fields and the
    # sign of every field matter
    xs = st.one_of(st.integers(min_value=-6, max_value=6),
                   st.integers(min_value=_EXP_MIN, max_value=_EXP_MAX))
    last = st.one_of(st.integers(min_value=0, max_value=4),
                     st.integers(min_value=0, max_value=_EXP_MAX))
    return st.tuples(xs, xs, xs, last).filter(lambda e: _EXP_MIN <= sum(e) <= _EXP_MAX)


def wide_polys(max_terms=5):
    return st.dictionaries(st.one_of(exponents(), wide_exponents()),
                           st.integers(min_value=-9, max_value=9).filter(bool),
                           max_size=max_terms).map(lambda d: LaurentPolynomial(NV, d))


def monomials():
    return st.builds(lambda e, c: LaurentPolynomial(NV, {e: c}),
                     exponents(), st.sampled_from([1, -1, 2, -3]))


@settings(max_examples=150, deadline=None)
@given(wide_polys(), wide_polys())
def test_packed_mul_equals_reference_or_refuses_out_of_range(p, q):
    expected = ref_mul(p.terms(), q.terms())
    if in_range(expected):
        assert (p * q).terms() == expected
    else:
        with pytest.raises(ValueError, match="outside"):
            p * q


@settings(max_examples=150, deadline=None)
@given(polys(6), nonzero_polys(4), polys(2))
def test_packed_exact_div_equals_reference(p, d, r):
    # exact (p * d), perturbed (p * d + r, almost never exact) and arbitrary (p)
    for num in (p * d, p * d + r, p):
        expected = outcome(lambda: ref_exact_div(num.terms(), d.terms()))
        assert outcome(lambda: num.exact_div(d).terms()) == expected


@settings(max_examples=100, deadline=None)
@given(polys(6), monomials(), polys(2), wide_polys())
def test_packed_monomial_div_equals_reference(p, m, r, wide):
    # a wide numerator puts quotient exponents at and past the bound
    for num in (p * m, p * m + r, p, wide):
        expected = outcome(lambda: ref_exact_div(num.terms(), m.terms()))
        if isinstance(expected, dict) and not in_range(expected):
            expected = ValueError
        assert outcome(lambda: num.exact_div(m).terms()) == expected


@settings(max_examples=80, deadline=None)
@given(st.one_of(monomials(), nonzero_polys(3)), st.integers(min_value=1, max_value=4))
def test_negative_power_equals_reference(p, n):
    power = {(0,) * NV: 1}
    for _ in range(n):
        power = ref_mul(power, p.terms())
    expected = outcome(lambda: ref_exact_div({(0,) * NV: 1}, power))
    assert outcome(lambda: (p ** -n).terms()) == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(exponents(), wide_exponents()), unique=True, max_size=12))
def test_packed_key_order_is_graded_order(exps):
    keys = sorted(_pack(e, NV) for e in exps)
    assert _unpack_all(keys, NV) == sorted(exps, key=_order_key)


@settings(max_examples=60, deadline=None)
@given(wide_polys())
def test_sorted_terms_follow_order_key(p):
    assert p.sorted_terms() == sorted(p.terms().items(), key=lambda kv: _order_key(kv[0]),
                                      reverse=True)
    assert sorted(p.coefficients()) == sorted(p.terms().values())


# -- exponent range guard ------------------------------------------------------------------

def test_construction_at_and_past_the_bound():
    for exp in [(_EXP_MAX, 0, 0, 0), (_EXP_MIN, 0, 0, 0), (0, 0, 0, _EXP_MAX),
                (_EXP_MAX, _EXP_MIN, _EXP_MAX, 0)]:
        assert LaurentPolynomial(NV, {exp: 1}).terms() == {exp: 1}
    for exp, what in [((_EXP_MAX + 1, 0, 0, 0), "x0"), ((0, _EXP_MIN - 1, 0, 0), "x1"),
                      ((0, 0, 0, _EXP_MAX + 1), "a"), ((_EXP_MAX, 1, 0, 0), "total degree"),
                      ((_EXP_MIN, 0, -1, 0), "total degree")]:
        with pytest.raises(ValueError, match=rf"{what}\b.* is outside \[{_EXP_MIN}, {_EXP_MAX}\]"):
            LaurentPolynomial(NV, {exp: 1})


def test_multiply_at_and_past_the_bound(gens):
    x0, x1, x2, a = gens
    half = (_EXP_MAX + 1) // 2
    assert x0 ** half * x0 ** (half - 1) == LaurentPolynomial(NV, {(_EXP_MAX, 0, 0, 0): 1})
    with pytest.raises(ValueError, match="x0 is outside"):
        x0 ** half * x0 ** half
    with pytest.raises(ValueError, match="x2 is outside"):
        x2 ** -half * (x2 ** -(half + 1) * x1 ** 2 + a)
    with pytest.raises(ValueError, match="total degree 16384 is outside"):
        x0 ** _EXP_MAX * (x1 + x2)
    # out of range in a term that is neither the highest nor the lowest key
    with pytest.raises(ValueError, match="x2 is outside"):
        x2 ** half * (x2 ** half * x1 ** -1 + x0 ** _EXP_MAX * x2 ** -half + x1 ** -5 * x2 ** -half)


def test_power_at_and_past_the_bound(gens):
    x0, x1, x2, a = gens
    assert (x0 ** _EXP_MAX).terms() == {(_EXP_MAX, 0, 0, 0): 1}
    assert (x1 ** _EXP_MIN).terms() == {(0, _EXP_MIN, 0, 0): 1}
    with pytest.raises(ValueError, match="x0 is outside"):
        x0 ** (_EXP_MAX + 1)
    with pytest.raises(ValueError, match="x1 is outside"):
        x1 ** (_EXP_MIN - 1)


def test_division_at_and_past_the_bound(gens):
    x0, x1, x2, a = gens
    low = x0 ** _EXP_MIN
    assert (x0 ** (_EXP_MIN + 1)).exact_div(x0) == low
    with pytest.raises(ValueError, match="x0 is outside"):
        low.exact_div(x0)
    assert (low * (x1 + a)).exact_div(x1 + a) == low
    with pytest.raises(ValueError, match="x0 is outside"):
        (low * (x1 + a)).exact_div(x0 * (x1 + a))


def test_sigma_pullback_at_the_bound(gens):
    p = LaurentPolynomial(NV, {(_EXP_MAX, 0, _EXP_MIN, 3): 2, (_EXP_MIN, 1, 0, 0): -1})
    assert p.sigma_pullback().terms() == {(_EXP_MIN, 0, _EXP_MAX, 3): 2, (0, 1, _EXP_MIN, 0): -1}
    assert p.sigma_pullback().sigma_pullback() == p


# -- cross-check against sympy ---------------------------------------------------------------

def test_k2_window_products_and_quotients_match_sympy():
    pytest.importorskip("sympy")
    from sympy import ZZ
    from sympy.polys.rings import ring

    k = 2
    spec = RecurrenceSpec.symbolic(k)
    w = spec.window().extend(-6, 16)
    R, *_ = ring("x0,x1,x2,x3,x4,a", ZZ)

    def to_sympy(p: LaurentPolynomial, shift: int):
        # p times (x0...x4)^shift, which clears every negative exponent
        return R({tuple(e + shift for e in exp[:-1]) + exp[-1:]: c
                  for exp, c in p.terms().items()})

    assert to_sympy(w[-6] * w[16], 40) == to_sympy(w[-6], 20) * to_sympy(w[16], 20)

    # x_16 / x_-1: sympy's reduced denominator is not a monomial, so no
    # Laurent quotient exists and the ring division must refuse
    num, den = to_sympy(w[16], 20).cancel(to_sympy(w[-1], 20))
    assert len(den.terms()) > 1
    with pytest.raises(NotExactError):
        w[16] / w[-1]

    # the forward step to x_16 divides by x_11 exactly; sympy agrees
    step = w[15] * w[12] + spec.a * (w[13] + w[14])
    num, den = to_sympy(step, 20).cancel(to_sympy(w[11], 20))
    assert len(den.terms()) == 1
    assert num * to_sympy(LaurentPolynomial.constant(spec.a.nvars, 1), 20) == \
        to_sympy(w[16], 20) * den
    assert step / w[11] == w[16]

    # the laurent check's last residual, at n = 4k + 3, vanishes in sympy's arithmetic
    n = 4 * k + 3
    x = {m: to_sympy(w[m], 20) for m in range(n, n + 2 * k + 2)}
    xi = x[n] * x[n + 2 * k + 1] - x[n + 1] * x[n + 2 * k] \
        - to_sympy(spec.a, 20) * (x[n + k] + x[n + k + 1])
    assert xi == 0 and xi_residual(w, n) == 0
