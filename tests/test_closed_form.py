import operator
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from hhrec.closed_form import (
    _residue,
    _scaled_value,
    chebyshev_tu,
    eval_closed_form,
    extract_coeffs,
)
from hhrec.engine import _EXACT, GUARD_PRIME, RecurrenceSpec, _guard_residues
from hhrec.errors import DegenerateTError
from hhrec.invariants import k_formula
from hhrec.matrix import mat_mul
from hhrec.verifier import SplitMix64, TrialConfig, random_rational, random_spec


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


def chebyshev_by_matrix_power(t, m):
    """Reference route: (T_m, U_m) from the m-th power of a 2x2 matrix.

    M = [[2t, -1], [1, 0]] has M^m = [[U_m, -U_{m-1}], [U_{m-1}, -U_{m-2}]]
    for every integer m, and det M = 1 gives M^{-1} = [[0, 1], [-1, 2t]].
    With t = p/q, B = q M (or q M^{-1} for m < 0) is an integer matrix and
    M^m = B^{|m|} / q^{|m|}, taken by repeated squaring in integers
    (Fiduccia, SIAM J. Comput. 14, 1985).  T_m = U_m - t U_{m-1}.
    """
    p, q, e = t.numerator, t.denominator, abs(m)
    base = ((2 * p, -q), (q, 0)) if m >= 0 else ((0, q), (-q, 2 * p))
    power = ((1, 0), (0, 1))
    while e:
        if e & 1:
            power = mat_mul(power, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    (u, _), (u_prev, _) = power  # q^|m| U_m and q^|m| U_{m-1}
    scale = q ** abs(m)
    return Fraction(q * u - p * u_prev, q * scale), Fraction(u, scale)


# odd and even denominators of t, |t| < 1, t = -1 and an integer t
@pytest.mark.parametrize("t", [Fraction(29, 6), Fraction(319, 40), Fraction(-11, 2), Fraction(15),
                               Fraction(-1237, 320), Fraction(-1), Fraction(3, 4), Fraction(-5, 7)])
def test_chebyshev_doubling_matches_the_matrix_power(t):
    for m in range(-300, 301):
        assert chebyshev_tu(t, m) == chebyshev_by_matrix_power(t, m), m


@pytest.mark.parametrize("t", [Fraction(7, 3), Fraction(2, 5), Fraction(-9, 4)])
def test_chebyshev_power_matches_three_term_recurrence(t):
    for m in [*range(-12, 13), 1023, 1024, 1025, -1023, -1024, -1025, 4999, 5000, -5001]:
        assert chebyshev_tu(t, m) == chebyshev_by_recurrence(t, m), m


# (k, a, init) of unit, integer and rational seeds and of t = -1 (K = -1,
# where a^2 - 4b^2 = 0 for 2t = a/b): closed-form --eval prints the iterated
# window's value for every n in [-200, 200] (``tests/test_cli.py``)
EVAL_GRID = {
    "k1-unit": (1, "1", "1,1,1"),
    "k1-integer": (1, "2", "2,3,5"),
    "k1-rational": (1, "3/2", "1/2,2/3,-3/4"),
    "k1-t-minus-one": (1, "1", "-4,-4,3"),
    "k2-unit": (2, "1", "1,1,1,1,1"),
    "k2-integer": (2, "-3", "1,2,3,4,5"),
    "k2-rational": (2, "-5/6", "1/2,-4/3,5,2/7,3"),
    "k3-unit": (3, "1", "1,1,1,1,1,1,1"),
    "k3-integer": (3, "1", "2,-1,3,1,4,1,5"),
    "k3-rational": (3, "3/2", "1/2,-4/3,5,2/7,3,-5/6,2"),
}


def extract_coeffs_by_prefactor(w, K):
    """Reference route for ``extract_coeffs``: the extraction matrix over
    Fractions, times its prefactor 1/(2t(1-t))."""
    k = w.spec.k
    t = (Fraction(K) - 1) / 2
    pref = 1 / (2 * t * (1 - t))
    qs, rs, ss = [], [], []
    for j in range(2 * k):
        hi_v, mid_v, lo_v = w[2 * k + j], w[j], w[-2 * k + j]
        qs.append(pref * (t * hi_v - 2 * t * t * mid_v + t * lo_v))
        rs.append(pref * (-hi_v + 2 * t * mid_v + (1 - 2 * t) * lo_v))
        ss.append(pref * ((1 - t) * hi_v + (t - 1) * lo_v))
    return tuple(qs), tuple(rs), tuple(ss)


# the grid's seeds and the numeric campaign's first draws at seed 41
EXTRACT_SPECS = {
    **{case: RecurrenceSpec.numeric(k, Fraction(a), [Fraction(v) for v in init.split(",")])
       for case, (k, a, init) in EVAL_GRID.items()},
    **{f"campaign-k{k}-{trial}": random_spec(TrialConfig(k=k, seed=41), trial)
       for k in (1, 2, 3) for trial in range(8)},
}


@pytest.mark.parametrize("case", EXTRACT_SPECS)
def test_extract_coeffs_matches_the_prefactor_route(case):
    spec = EXTRACT_SPECS[case]
    k = spec.k
    w = spec.window().extend(-2 * k, 4 * k - 1)
    c = extract_coeffs(w, spec.K)
    assert (c.q, c.r, c.s) == extract_coeffs_by_prefactor(w, spec.K)
    assert all(type(v) is Fraction for v in (*c.q, *c.r, *c.s))


def seed_coeffs(k, a, init):
    """The spec of (k, a, init), init a comma-separated seed, and its closed-form coefficients."""
    spec = RecurrenceSpec.numeric(k, Fraction(a), [Fraction(v) for v in init.split(",")])
    return spec, extract_coeffs(spec.window().extend(-2 * k, 4 * k - 1), spec.K)


# (k, a, init): 2t = a/b with b = 1 and b > 1, |t| < 1 on both sides of 0,
# t = -1 (K = -1, where a^2 - 4b^2 = 0), the guard prime in the seed, and k = 2
SCALED_SEEDS = {
    "b-one": (1, "1", "1,1,1"),                   # t = 13/2
    "b-three": (1, "1", "1,2,3"),                 # t = 29/6
    "t-inside": (1, "1", "-3,3,-2"),              # t = 8/9
    "t-inside-negative": (1, "1", "-2,-3,-2"),    # t = -3/8
    "t-minus-one": (1, "1", "-4,-4,3"),
    "guard-prime": (1, "1", f"{GUARD_PRIME},1,1"),
    "k2": (2, "-5/6", "1/2,-4/3,5,2/7,3"),
}


@pytest.mark.parametrize("case", SCALED_SEEDS)
def test_scaled_value_matches_the_slow_route(case):
    """``_scaled_value`` against q + r T + s U, T and U from the matrix power,
    for every j and m in [-300, 300] and +-5000, over int and over Decimal.

    y / (2 L b^|m|) is compared with no gcd, over the denominator 2 b^|m|
    that T and U divide.  Decimal-int base conversion is quadratic, so the
    Decimal route's y and b^|m| are compared with the int route's modulo
    the Mersenne prime 2^521 - 1.
    """
    k, a, init = SCALED_SEEDS[case]
    spec, c = seed_coeffs(k, a, init)
    if case == "t-minus-one":
        assert spec.K == -1
    b, mersenne = c.scaled[1], (1 << 521) - 1
    for m in [*range(-300, 301), 5000, -5000]:
        T, U = chebyshev_by_matrix_power(c.t, m)
        for j in range(2 * k):
            n = 2 * k * m + j
            y, two_l, scale = _scaled_value(c, n)
            two_scale = 2 * scale
            assert scale == b ** abs(m) and two_scale % T.denominator == two_scale % U.denominator == 0
            triple = [two_l * v for v in (c.q[j], c.r[j], c.s[j])]
            assert all(v.denominator == 1 for v in triple), n
            q, r, s = (v.numerator for v in triple)
            assert 2 * y == (q * two_scale + r * T.numerator * (two_scale // T.denominator)
                             + s * U.numerator * (two_scale // U.denominator)), n
            with localcontext(_EXACT):
                yd, two_ld, scaled = _scaled_value(c, n, Decimal)
                residues = [int(v % Decimal(mersenne)) % mersenne for v in (yd, scaled)]
            assert type(yd) is type(scaled) is Decimal and two_ld == two_l, n
            assert residues == [y % mersenne, scale % mersenne], n


def residue_by_matrix_power(w, n):
    """Reference route for ``_residue``: (p, x_n mod p) from the companion
    matrix C of z_{i+3} = K (z_{i+2} - z_{i+1}) + z_i on the class of j,
    z_i = x_{j+2ki}: z_m is the first entry of C^(m+1) (z_{-1}, z_0, z_1),
    with C^-1 for m + 1 < 0, by repeated squaring modulo p."""
    period = 2 * w.spec.k
    j, e = n % period, n // period + 1
    p, (K, *z) = _guard_residues((w.spec.K, w[j - period], w[j], w[j + period]))
    base = [[0, 1, 0], [0, 0, 1], [1, -K, K]] if e >= 0 else [[K, -K, 1], [1, 0, 0], [0, 1, 0]]
    e = abs(e)
    while e:
        if e & 1:
            z = [sum(map(operator.mul, row, z)) % p for row in base]
        e >>= 1
        if e:
            base = [[v % p for v in row] for row in mat_mul(base, base)]
    return p, z[0]


@pytest.mark.parametrize("k,a,init", [(1, "1", "1,2,3"), (1, "1", f"{GUARD_PRIME},1,1"),
                                      (1, "1", "-4,-4,3"), (2, "-5/6", "1/2,-4/3,5,2/7,3")])
def test_residue_matches_the_matrix_power(k, a, init):
    spec, _ = seed_coeffs(k, a, init)
    w = spec.window().extend(-2 * k, 4 * k - 1)
    for n in [*range(-200, 201), 10 ** 4, -10 ** 4]:
        assert _residue(w, n) == residue_by_matrix_power(w, n), n


def test_extraction_golden_triple():
    w = ones_window(1, -2, 4)
    c = extract_coeffs(w, k_formula(w.spec).K)
    assert (c.K, c.t) == (Fraction(14), Fraction(13, 2))
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
