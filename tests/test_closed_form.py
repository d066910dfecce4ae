from fractions import Fraction

import pytest

from hhrec.closed_form import (
    ChebyshevPoint,
    chebyshev_tu,
    eval_closed_form,
    extract_coeffs,
)
from hhrec.engine import RecurrenceSpec
from hhrec.errors import DegenerateTError
from hhrec.invariants import k_formula
from hhrec.verifier import SplitMix64, random_rational


def ones_window(k, lo, hi):
    return RecurrenceSpec.numeric(k, 1, [1] * (2 * k + 1)).window().extend(lo, hi)


def test_chebyshev_base_cases():
    t = Fraction(13, 2)
    assert chebyshev_tu(t, 0) == (1, 1)
    assert chebyshev_tu(t, 1) == (t, 2 * t)
    assert chebyshev_tu(t, -1) == (t, 0)


def test_chebyshev_m2_golden():
    assert chebyshev_tu(Fraction(13, 2), 2) == (Fraction(167, 2), 168)


@pytest.mark.parametrize("t", [Fraction(13, 2), Fraction(3, 4), Fraction(-5, 7)])
def test_pell_relation(t):
    for m in range(-20, 21):
        tm, _ = chebyshev_tu(t, m)
        _, um1 = chebyshev_tu(t, m - 1)
        assert tm * tm - (t * t - 1) * um1 * um1 == 1


@pytest.mark.parametrize("t", [Fraction(13, 2), Fraction(-2, 3)])
def test_three_term_recurrence_across_zero(t):
    for m in range(-10, 10):
        for idx in (0, 1):  # T then U
            nxt = chebyshev_tu(t, m + 1)[idx]
            cur = chebyshev_tu(t, m)[idx]
            prev = chebyshev_tu(t, m - 1)[idx]
            assert nxt == 2 * t * cur - prev


def test_reflection_identities():
    t = Fraction(9, 5)
    for m in range(0, 12):
        assert chebyshev_tu(t, -m)[0] == chebyshev_tu(t, m)[0]
    for m in range(2, 12):
        assert chebyshev_tu(t, -m)[1] == -chebyshev_tu(t, m - 2)[1]


def chebyshev_by_recurrence(t, m):
    """Reference route: (T_m, U_m) by the three-term recurrence, one index at a time.

    p_{i+1} = 2t p_i - p_{i-1} is unchanged by i -> -i, so negative m steps
    the same rule away from p_0 = 1 and p_{-1} (T_{-1} = t, U_{-1} = 0).  With
    t = p/q, N_i = q^i p_{+-i} stays integral: N_{i+1} = 2p N_i - q^2 N_{i-1}.
    """
    p, q, steps = t.numerator, t.denominator, abs(m)
    result = []
    for p1 in ((t, 2 * t) if m >= 0 else (t, 0)):
        prev, cur = 1, int(p1 * q)
        for _ in range(steps):
            prev, cur = cur, 2 * p * cur - q * q * prev
        result.append(Fraction(prev, q ** steps))
    return tuple(result)


@pytest.mark.parametrize("t", [Fraction(7, 3), Fraction(2, 5), Fraction(-9, 4)])
def test_chebyshev_power_matches_three_term_recurrence(t):
    for m in [*range(-12, 13), 1023, 1024, 1025, -1023, -1024, -1025, 4999, 5000, -5001]:
        assert chebyshev_tu(t, m) == chebyshev_by_recurrence(t, m), m


def test_extraction_golden_triple():
    w = ones_window(1, -2, 4)
    c = extract_coeffs(w, k_formula(w.spec).K)
    assert c.point.t == Fraction(13, 2)
    assert (c.q[0], c.r[0], c.s[0]) == (Fraction(5, 11), Fraction(144, 143), Fraction(-66, 143))


def test_reconstruction_at_zero():
    w = ones_window(1, -2, 4)
    c = extract_coeffs(w, k_formula(w.spec).K)
    # T_0 = U_0 = 1, so the sum of the triple must give x_0
    assert c.q[0] + c.r[0] + c.s[0] == 1 == eval_closed_form(c, 0)


def test_reconstruction_golden_n4():
    w = ones_window(1, -2, 4)
    c = extract_coeffs(w, k_formula(w.spec).K)
    assert (c.q[0] + c.r[0] * Fraction(167, 2) + c.s[0] * 168) == 7
    assert eval_closed_form(c, 4) == 7


def test_eval_far_outside_window():
    w = ones_window(1, -2, 4)
    c = extract_coeffs(w, k_formula(w.spec).K)
    oracle = RecurrenceSpec.numeric(1, 1, [1, 1, 1]).window().extend(new_hi=100)
    assert eval_closed_form(c, 100) == oracle[100]


def test_degenerate_t():
    w = ones_window(1, -2, 4)
    with pytest.raises(DegenerateTError):
        extract_coeffs(w, Fraction(3))  # t = 1
    with pytest.raises(DegenerateTError):
        extract_coeffs(w, Fraction(1))  # t = 0
    assert ChebyshevPoint.from_k(Fraction(3)).degenerate


def test_extraction_needs_window_coverage():
    w = ones_window(1, 0, 4)
    with pytest.raises(IndexError):
        extract_coeffs(w, k_formula(w.spec).K)


def test_floored_index_conventions():
    for period in (2, 4, 6):
        for n in range(-3 * period, 3 * period + 1):
            j = n % period
            m = n // period
            assert 0 <= j < period and n == period * m + j


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_matches_iteration(k):
    rng = SplitMix64(60 + k)
    hits = 0
    while hits < 3:
        init = tuple(random_rational(rng, 6, 4) for _ in range(2 * k + 1))
        a = random_rational(rng, 6, 4)
        spec = RecurrenceSpec(k, a, init)
        try:
            w = spec.window().extend(-6 * k, 12 * k)
            K = k_formula(spec).K
            c = extract_coeffs(w, K)
        except Exception:
            continue  # degenerate draw; try the next one
        for n in range(-6 * k, 12 * k + 1):
            assert eval_closed_form(c, n) == w[n], (k, n)
        hits += 1


def test_json_serialization_shape():
    w = ones_window(2, -4, 8)
    c = extract_coeffs(w, k_formula(w.spec).K)
    d = c.to_json_dict()
    assert d["k"] == 2 and d["K"] == "28" and len(d["triples"]) == 4
    assert d["triples"][0].keys() == {"j", "q", "r", "s"}
