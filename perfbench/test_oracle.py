"""Tests of the benchmark's oracles on facts derived by hand.

Run with ``python3 -m pytest perfbench``.
"""

from fractions import Fraction

import pytest

import oracle
from workloads import Solution, solution


def ones(k):
    return [Fraction(1)] * (2 * k + 1)


def test_all_ones_k1_first_terms():
    # x3 = (1*1 + (1+1))/1 = 3, x4 = (3*1 + (1+3))/1 = 7, x5 = (7*3 + (3+7))/1 = 31,
    # x6 = (31*7 + (7+31))/3 = 85; the seed is symmetric, so x_{-n} = x_{2+n}
    x = oracle.iterate(1, 1, ones(1), -4, 6)
    assert [x[n] for n in range(0, 7)] == [1, 1, 1, 3, 7, 31, 85]
    assert [x[-n] for n in range(1, 5)] == [x[2 + n] for n in range(1, 5)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_all_ones_integers_and_k(k):
    # K = P0 + P1 + P2 = 3 + 8k + (2k^2 + 1) for the all-ones seed with a = 1
    x = oracle.iterate(k, 1, ones(k), -2 * k, 6 * k + 2)
    assert all(v.denominator == 1 for v in x.values())
    assert oracle.k_ratio(k, x) == 2 * k * k + 8 * k + 4


def test_k_ratio_needs_a_nonzero_denominator():
    with pytest.raises(ZeroDivisionError):
        oracle.k_ratio(1, {n: Fraction(1) for n in range(-2, 7)})


def test_zero_iterate_is_degenerate():
    # a = -1/2 on the all-ones seed: x3 = (1 + 2a)/1 = 0, so x6 divides by zero
    with pytest.raises(ZeroDivisionError):
        oracle.iterate(1, Fraction(-1, 2), ones(1), 0, 6)
    assert solution(1, Fraction(-1, 2), ones(1)) is None


def test_x_at_matches_iteration_both_ways():
    k, a = 2, Fraction(3, 7)
    init = [Fraction(2, 3), Fraction(-5, 4), Fraction(7, 9), Fraction(1, 2), Fraction(3)]
    x = oracle.iterate(k, a, init, -40, 40)
    K = oracle.k_ratio(k, x)
    assert all(oracle.x_at(k, K, x, n) == x[n] for n in range(-40, 41))


def test_x_at_all_ones():
    x = oracle.iterate(1, 1, ones(1), -2, 6)
    assert oracle.x_at(1, 14, x, 6) == 85
    assert oracle.x_at(1, 14, x, -4) == 85


def test_target_charpoly_k1():
    # (S^2 - 1)(S^4 - 13 S^2 + 1) = S^6 - 14 S^4 + 14 S^2 - 1
    assert oracle.target_charpoly(1, 14) == [1, 0, -14, 0, 14, 0, -1]


def test_poly_divides():
    assert oracle.poly_divides([1, -1], [1, 0, -1])       # S - 1 | S^2 - 1
    assert not oracle.poly_divides([1, 2], [1, 0, -1])    # S + 2 does not
    assert oracle.poly_divides([1, 0, -14, 0, 14, 0, -1], oracle.target_charpoly(1, 14))


def test_annihilates():
    x = oracle.iterate(1, 1, ones(1), 0, 20)
    values = [x[n] for n in range(0, 21)]
    assert oracle.annihilates(oracle.target_charpoly(1, 14), values)
    assert not oracle.annihilates([1, -1], values)


def test_det():
    assert oracle.det([[Fraction(2), 0, 0], [0, Fraction(3), 0], [0, 0, Fraction(4)]]) == 24
    assert oracle.det([[Fraction(1), 2], [3, 4]]) == -2


def test_eval_laurent():
    point = {"x0": 2, "x1": 3, "x2": 3, "a": 5}
    assert oracle.eval_laurent("x0^-1*x2 + 2*a - 3", point) == Fraction(17, 2)
    assert oracle.eval_laurent("-x0^-2*a^2 - 2*x1", point) == Fraction(-49, 4)
    assert oracle.eval_laurent("0", point) == 0
    with pytest.raises(ValueError):
        oracle.eval_laurent("x0^^2", point)


def test_relation_holds_on_integer_pairs():
    x = oracle.iterate(1, 1, ones(1), 0, 8)
    pairs = {n: (v.numerator, v.denominator) for n, v in x.items()}
    assert all(oracle.relation_holds(1, Fraction(1), pairs, n) for n in range(0, 6))
    pairs[4] = (8, 1)
    assert not oracle.relation_holds(1, Fraction(1), pairs, 2)
    # halving numerator and denominator together leaves the value alone
    pairs[4] = (14, 2)
    assert oracle.relation_holds(1, Fraction(1), pairs, 2)


def test_parse_rows():
    assert oracle.parse_rows("n,value\n-1,3\n0,1/2\n", "csv") == [(-1, 3, 1), (0, 1, 2)]
    assert oracle.parse_rows('[{"n": 0, "value": "-2/3"}]', "json") == [(0, -2, 3)]
    assert oracle.parse_rows("5 7\n6 9\n", "bfile") == [(5, 7, 1), (6, 9, 1)]
    with pytest.raises(ValueError):
        oracle.parse_rows("5 7/2\n", "bfile")


def test_nonzero_mod_p_finds_a_zero_of_the_linear_continuation():
    # with K = 1/2: x5 = K (x3 - x1) + x_{-1} = (-1 - 1)/2 + 1 = 0
    x = {-2: Fraction(2), -1: Fraction(1), 0: Fraction(1), 1: Fraction(1),
         2: Fraction(1), 3: Fraction(-1), 4: Fraction(1)}
    sol = Solution(1, Fraction(1), [1, 1, 1], x, Fraction(1, 2))
    assert sol.nonzero_mod_p(-2, 4)
    assert not sol.nonzero_mod_p(-2, 5)
