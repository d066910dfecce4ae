from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhrec.laurent import LaurentPolynomial, RationalFunction, variables
from hhrec.matrix import (
    ZeroMinorError,
    _fewest_terms,
    det_bareiss,
    det_cofactor,
    det_dodgson,
    det_scaled,
    matrix_det,
    scale_row,
    solve_exact,
)


def rationals():
    return st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                     st.integers(min_value=1, max_value=5))


def square(n, entries=rationals):
    return st.lists(st.lists(entries(), min_size=n, max_size=n),
                    min_size=n, max_size=n)


def wide_rationals():
    """Numerators past 2^64 and denominators up to 10^6, with zeros common
    enough that elimination meets zero pivots."""
    return st.one_of(st.just(Fraction(0)),
                     st.builds(Fraction, st.integers(min_value=-2**80, max_value=2**80),
                               st.integers(min_value=1, max_value=10**6)))


def test_all_ones_3x3_is_singular():
    assert matrix_det([[1] * 3] * 3) == 0


def test_wronskian_golden_value():
    # rows of the 3x3 discrete Wronskian at the all-ones seed (k = 1, a = 1)
    m = [(1, 1, 7), (1, 3, 31), (1, 7, 85)]
    assert det_cofactor(m) == det_bareiss(m) == det_dodgson(m) == matrix_det(m) == 12


def test_4x4_wronskian_vanishes_on_solution_window():
    from hhrec.engine import RecurrenceSpec
    from hhrec.invariants import wronskian4_det
    w = RecurrenceSpec.numeric(1, 1, [1, 1, 1]).window().extend(-3, 12)
    assert wronskian4_det(w, -2) == 0


def test_non_square_rejected():
    with pytest.raises(ValueError):
        matrix_det([(1, 2, 3), (4, 5, 6)])


@pytest.mark.parametrize("rows, message", [
    ([(1, 2), (3,)], "ragged rows"),
    ([], "empty matrix"),
], ids=["ragged", "empty"])
def test_ragged_and_empty_rows_rejected(rows, message):
    for det in (matrix_det, det_cofactor, det_dodgson):
        with pytest.raises(ValueError, match=message):
            det(rows)


@settings(max_examples=150, deadline=None)
@given(square(3))
def test_algorithms_agree_3x3(m):
    c = det_cofactor(m)
    assert det_bareiss(m) == c
    assert matrix_det(m) == c
    try:
        assert det_dodgson(m) == c
    except ZeroMinorError:
        pass


@settings(max_examples=150, deadline=None)
@given(square(4))
def test_algorithms_agree_4x4(m):
    c = det_cofactor(m)
    assert det_bareiss(m) == c
    assert matrix_det(m) == c
    try:
        assert det_dodgson(m) == c
    except ZeroMinorError:
        pass


def test_dodgson_zero_interior_raises():
    # interior entry is 0, so condensation cannot divide; Bareiss needs no
    # interior minor and still matches the oracle
    m = [(1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 0, 12), (13, 14, 15, 17)]
    with pytest.raises(ZeroMinorError):
        det_dodgson(m)
    assert matrix_det(m) == det_cofactor(m)


@pytest.mark.parametrize("rows, expected", [
    ([[7]], 7),
    ([[1, 2], [3, 4]], -2),
    # a zero leading pivot forces a row swap
    ([[0, 1], [1, 0]], -1),
    ([(0, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12), (13, 14, 15, 17)], 4),
])
def test_small_sizes_and_zero_leading_pivot(rows, expected):
    assert matrix_det(rows) == det_cofactor(rows) == expected


def test_symbolic_determinant():
    from hhrec.engine import RecurrenceSpec
    x0, x1, x2, a = variables(4)
    m = [
        [x0, x1, x2],
        [x1, x2, x0],
        [x2, x0, x1],
    ]
    expected = det_cofactor(m)
    assert det_bareiss(m) == expected
    assert det_dodgson(m) == expected
    # the 3x3 and 4x4 Wronskian blocks (x_{n+i+2j}) of the generic k = 1 window
    w = RecurrenceSpec.symbolic(1).window().extend(-2, 8)
    for n in (-2, -1):
        for size in (3, 4):
            m = [[w[n + i + 2 * j] for j in range(size)] for i in range(size)]
            assert matrix_det(m) == det_cofactor(m)


def test_singular_bareiss_zero_column():
    z = Fraction(0)
    m = [(z, 1, 2), (z, 3, 4), (z, 5, 6)]
    assert det_bareiss(m) == 0 == det_cofactor(m)


# -- the ring route: each stage pivots on the entry with the fewest terms ------

def laurents():
    """Laurent polynomials of up to four terms in x0, x1 and a, zero included."""
    exponent = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 1))
    return st.dictionaries(exponent, st.integers(-3, 3), max_size=4).map(
        lambda terms: LaurentPolynomial(3, terms))


@st.composite
def laurent_matrices(draw):
    """1x1 to 4x4 Laurent matrices, some with a zero row or column, some with
    a row that is a Laurent combination of two others (rank-deficient)."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(square(n, laurents))
    zero = LaurentPolynomial(3)
    shape = draw(st.sampled_from(["full", "zero-row", "zero-column", "rank-deficient"]))
    i = draw(st.integers(0, n - 1))
    if shape == "zero-row":
        m[i] = [zero] * n
    elif shape == "zero-column":
        for row in m:
            row[i] = zero
    elif shape == "rank-deficient" and n >= 2:
        others = [r for r in range(n) if r != i]
        c, d = draw(laurents()), draw(laurents())
        m[i] = [c * u + d * v for u, v in zip(m[others[0]], m[others[-1]])]
    return m


@settings(max_examples=200, deadline=None)
@given(laurent_matrices())
def test_ring_route_agrees_with_cofactor(m):
    det = det_bareiss(m)
    assert isinstance(det, LaurentPolynomial)
    assert det == det_cofactor(m)


def test_fewest_terms_swaps_row_and_column_with_their_sign():
    x0, x1, a = variables(3)
    big = x0 + x1 + a + 1
    # the monomial at (row, column) moves to (0, 0): one flip per swap
    for (r, c), flip in {(0, 0): 1, (0, 2): -1, (2, 0): -1, (2, 1): 1}.items():
        m = [[big + i + 3 * j for j in range(3)] for i in range(3)]
        m[r][c] = x0 * x1
        moved = [row[:] for row in m]
        assert _fewest_terms(moved, 0) == flip and moved[0][0] == x0 * x1
        assert det_bareiss(m) == det_cofactor(m)
    zero = LaurentPolynomial(3)
    assert _fewest_terms([[big, zero], [zero, zero]], 1) == 0


def test_a_rational_function_counts_the_terms_of_both_parts():
    x0, x1, a = variables(3)
    r = RationalFunction(x0 + x1 + 1, x0 - a)
    assert len(r) == 5 and len(RationalFunction(LaurentPolynomial(3))) == 1
    m = [[r, x1], [RationalFunction(x0, x1 + a), x0 * x1 * a]]
    assert det_bareiss(m) == det_cofactor(m)


# -- the integer route: Fraction matrices are row-scaled to integers ------------

@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(lambda n: square(n, wide_rationals)))
def test_integer_route_agrees_with_cofactor(m):
    det = matrix_det(m)
    assert type(det) is Fraction
    assert det == det_cofactor(m)


F = Fraction


@pytest.mark.parametrize("rows, expected", [
    # rows (1, 2, 3)/2, (2, 4, 5)/3, (3, 7, 1): the second stage's pivot is 0,
    # so the last two rows swap mid-elimination
    ([(F(1, 2), 1, F(3, 2)), (F(2, 3), F(4, 3), F(5, 3)), (3, 7, 1)], F(1, 6)),
    ([(F(1, 2), F(1, 3), F(1, 5)), (0, 0, 0), (F(2, 7), 1, F(9, 4))], 0),
    # a zero column met at the second stage
    ([(1, 0, F(2, 3)), (3, 0, 5), (F(1, 2), 0, 7)], 0),
    # the third column is the sum of the first two; no entry is zero
    ([(F(1, 2), F(1, 3), F(5, 6)), (2, 3, 5), (F(3, 7), 1, F(10, 7))], 0),
    # integer-valued Fractions, one past 2^64
    ([(F(4, 2), -1, 0), (-1, 2, -1), (0, -1, 2**70)], 3 * 2**70 - 2),
], ids=["second-stage-swap", "zero-row", "zero-column", "singular-full-support", "integer-valued"])
def test_integer_route_fixed_cases(rows, expected):
    rows = [[F(v) for v in row] for row in rows]
    det = matrix_det(rows)
    assert type(det) is Fraction
    assert det == det_cofactor(rows) == expected


def test_scale_row_takes_the_lcm_of_its_denominators():
    assert scale_row([F(1, 2), F(-1, 3), 4, F(0)]) == (6, (3, -2, 24, 0))
    assert scale_row([F(5), 7]) == (1, (5, 7))


@pytest.mark.parametrize("row", [
    [F(3) ** 3000, F(-7), 5, F(0)],                            # integers: s = 1
    [F(1, 6), F(5 * 3 ** 3000 + 2, 6), F(5, 2), F(-4), F(7, 3)],  # mixed: s = 6
], ids=["integer", "mixed"])
def test_scale_row_takes_a_numerator_over_the_scale_as_it_is(row):
    s, ints = scale_row(row)
    assert ints == tuple(v.numerator * (s // v.denominator) for v in row)
    # a numerator over s itself is the row's own int, not a copy made by * 1
    assert all(n is v.numerator for n, v in zip(ints, row) if v.denominator == s)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(lambda n: square(n, wide_rationals)))
def test_det_scaled_of_scaled_rows_agrees_with_cofactor(m):
    rows = [scale_row(r) for r in m]
    kept = [(s, tuple(ints)) for s, ints in rows]
    det = det_scaled(rows)
    assert type(det) is Fraction
    assert det == det_cofactor(m)
    assert rows == kept  # the elimination works on copies: cached rows stay intact


@pytest.mark.parametrize("det", [det_bareiss, det_cofactor, det_dodgson, matrix_det])
def test_determinants_refuse_a_decimal_entry(det):
    # a Decimal would round in the default 28-digit context
    with pytest.raises(TypeError):
        det([[Decimal(10) ** 40, 1], [1, Decimal(10) ** 40 + 1]])


@pytest.mark.parametrize("row", [[F(1), Decimal(2)], [F(1), 0.5], [F(1), variables(2)[0]]],
                         ids=["decimal", "float", "laurent"])
def test_scale_row_refuses_what_is_not_a_fraction_or_int(row):
    with pytest.raises(TypeError):
        scale_row(row)


def test_any_laurent_entry_keeps_the_ring_route():
    x0, x1 = variables(2)
    c = lambda v: LaurentPolynomial.constant(2, v)
    constants = [[c(2), c(-1), c(3)], [c(5), c(0), c(7)], [c(1), c(4), c(-6)]]
    one_variable = [row[:] for row in constants]
    one_variable[1][1] = x0 * x1 - 1
    for m in (constants, one_variable):
        det = matrix_det(m)
        assert isinstance(det, LaurentPolynomial)
        assert det == det_cofactor(m)


def test_solve_exact_unique_and_inconsistent():
    sol = solve_exact([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(-1)]],
                      [Fraction(5), Fraction(1)])
    assert sol == [Fraction(2), Fraction(1)]
    assert solve_exact([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
                       [Fraction(1), Fraction(3)]) is None


@pytest.mark.parametrize("rows,rhs", [
    ([[1.5, 1], [2, 3]], [1, 0]),
    ([[1, 1], [2, 3]], [1, 0.1]),
], ids=["matrix", "right-hand-side"])
def test_solve_exact_refuses_floats(rows, rhs):
    with pytest.raises(TypeError):
        solve_exact(rows, rhs)
    # plain ints are promoted to Fraction
    assert solve_exact([[2, 1], [1, -1]], [5, 1]) == [2, 1]


def test_solve_exact_underdetermined_picks_a_solution():
    sol = solve_exact([[Fraction(1), Fraction(2)]], [Fraction(4)])
    assert sol is not None and sol[0] + 2 * sol[1] == 4
