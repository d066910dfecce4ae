"""Exact Chebyshev closed form of the general solution.

Every solution satisfies the constant-coefficient linear relation with
conserved quantity K, so with t = (K-1)/2 it decomposes as

    x_n = q_j + r_j * T_m(t) + s_j * U_m(t),   m = floor(n / 2k),  j = n mod 2k,

with T, U the Chebyshev families normalized by T_0 = U_0 = 1, T_1 = T_{-1} = t,
U_1 = 2t, U_{-1} = 0.  The 2k coefficient triples come from a fixed 3x3
matrix applied to (x_{2k+j}, x_j, x_{-2k+j}) with prefactor 1/(2t(1-t)),
which is finite iff t is outside {0, 1} (i.e. K outside {1, 3}).

T_m and U_m come from one Lucas chain over the integers, for positive and
negative m alike (Joye and Quisquater, Electron. Lett. 32, 1996): with
2t = a/b in lowest terms, u_j = b^(j-1) U_j(2t, 1) and v_j = b^j V_j(2t, 1)
are integers, U_m = U_{m+1}(2t, 1) and 2 T_m = V_m(2t, 1).  The chain carries
(u_j, v_j, b^j) in O(log |m|) doublings of two big products each, and
b^|m| comes out of it.  No case split is needed between |t| <= 1 (bounded,
oscillatory-type solutions) and |t| > 1 (hyperbolic growth): the integers
are exact in both regimes.

``chebyshev_tu`` runs the chain to |m| over ``int`` and returns Fractions.
Every value of the closed form is one scaled evaluation (``_scaled_value``):
x_n is one integer over 2 L b^|m|, L the lcm of the triple's denominators,
from integers that ``ClosedFormCoeffs.scaled`` builds once per triple.  It
runs the chain to |m| >> 1 and folds the last doubling into the value, one
big product at the top level.
``eval_closed_form`` runs it over ``int`` and returns a Fraction.
``printable_value``, which ``closed-form --eval`` prints, runs it over
Decimal integers, as ``engine.export_window`` runs its relation, reduces
the value once by ``engine._reduced``, and checks it against the linear
relation modulo 2^61 - 1 or, where that divides a denominator, a smaller
odd modulus (``engine._guard_residues``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property

from .engine import _EXACT, SequenceWindow, _check_agreement, _guard_residues, _reducer
from .errors import DegenerateTError
from .matrix import scale_row
from .rational import format_rational


def _lucas_chain(a, b, h: int) -> tuple:
    """(u_h, v_h, b^h) for h >= 0, u_j = b^(j-1) U_j(a/b, 1) and v_j = b^j V_j(a/b, 1),
    in the integers a and b > 0 are (ints, or Decimals in ``_EXACT``): u_0 = 0,
    v_0 = 2, and both follow w_{j+1} = a w_j - b^2 w_{j-1}.

    Per bit of h from the top, the triple doubles to u_2j = u_j v_j and
    v_2j = v_j^2 - 2 b^2j, two big products and the smaller b^2j = (b^j)^2
    (1 when b = 1), and a set bit steps it once: u_{j+1} = (a u_j + v_j)/2 and
    v_{j+1} = ((a^2 - 4b^2) u_j + a v_j)/2.  No step divides by a^2 - 4b^2,
    which is 0 at t = -1.
    """
    d, zero = a * a - 4 * b * b, 0 * b  # zero has b's type, and no sign as b > 0
    u, v, p = zero, zero + 2, zero + 1
    for bit in bin(h)[2:]:
        p *= p
        u, v = u * v, v * v - 2 * p
        if bit == "1":
            u, v, p = (a * u + v) // 2, (d * u + a * v) // 2, p * b
    return u, v, p


def chebyshev_tu(t: Fraction, m: int) -> tuple[Fraction, Fraction]:
    """(T_m(t), U_m(t)) for any integer m, negative included.

    With 2t = a/b and e = |m|: 2 b^e T_m = v_e, and 2 b^e U_m is a u_e + v_e
    for m >= 0 (U_m = U_{m+1}(2t, 1)) and v_e - a u_e for m < 0 (U_m = -U_{e-1}(2t, 1)).
    """
    t2 = 2 * Fraction(t)
    a, b = t2.numerator, t2.denominator
    u, v, scale = _lucas_chain(a, b, abs(m))
    return Fraction(v, 2 * scale), Fraction(v + a * u if m >= 0 else v - a * u, 2 * scale)


@dataclass(frozen=True)
class ClosedFormCoeffs:
    """The 2k coefficient triples (q_j, r_j, s_j), indexed by j = n mod 2k,
    with K and the evaluation point t = (K-1)/2."""

    k: int
    K: Fraction
    t: Fraction
    q: tuple
    r: tuple
    s: tuple

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "K": format_rational(self.K),
            "t": format_rational(self.t),
            "triples": [
                {"j": j, "q": format_rational(self.q[j]),
                 "r": format_rational(self.r[j]), "s": format_rational(self.s[j])}
                for j in range(2 * self.k)
            ],
        }

    @cached_property
    def scaled(self) -> tuple[int, int, tuple]:
        """(a, b, rows) for ``_scaled_value``: 2t = a/b in lowest terms, and
        rows[j] = (2L, Lq_j, Lr_j, Ls_j), L the lcm of the denominators of
        the triple of j; built once per coefficients."""
        rows = []
        for triple in zip(self.q, self.r, self.s):
            lcm = math.lcm(*(v.denominator for v in triple))
            rows.append((2 * lcm, *(v.numerator * (lcm // v.denominator) for v in triple)))
        t2 = 2 * self.t
        return t2.numerator, t2.denominator, tuple(rows)


def extract_coeffs(w: SequenceWindow, K: Fraction) -> ClosedFormCoeffs:
    """Coefficient triples from the window values at j, j +- 2k.

    Requires the window to cover [-2k, 4k-1] and t = (K-1)/2 outside {0, 1}
    (the extraction matrix carries the prefactor 1/(2t(1-t))).  With t = P/Q
    the prefactor cancels: for (x_{2k+j}, x_j, x_{j-2k}) = (A, B, C) / L
    (``scale_row``), each entry is one Fraction of integers,

        q_j = (Q (A + C) - 2P B) / (2 (Q - P) L),
        r_j = Q (2P B - Q A + (Q - 2P) C) / (2P (Q - P) L),
        s_j = Q (A - C) / (2P L).
    """
    k = w.spec.k
    K = Fraction(K)
    t = (K - 1) / 2
    if t in (0, 1):
        raise DegenerateTError(f"t = {t} makes the extraction matrix singular (K = {K})")
    P, Q = t.numerator, t.denominator
    qs, rs, ss = [], [], []
    for j in range(2 * k):
        L, (A, B, C) = scale_row((w[2 * k + j], w[j], w[-2 * k + j]))
        qs.append(Fraction(Q * (A + C) - 2 * P * B, 2 * (Q - P) * L))
        rs.append(Fraction(Q * (2 * P * B - Q * A + (Q - 2 * P) * C), 2 * P * (Q - P) * L))
        ss.append(Fraction(Q * (A - C), 2 * P * L))
    return ClosedFormCoeffs(k, K, t, tuple(qs), tuple(rs), tuple(ss))


def eval_closed_form(c: ClosedFormCoeffs, n: int) -> Fraction:
    """x_n from the closed form, any integer n.

    Index split uses floored division, so j = n mod 2k stays in [0, 2k-1]
    and n = 2k*m + j holds for negative n as well.  The value is one integer
    over 2 L b^|m| (``_scaled_value``); a numeric sweep tests x_n against an
    iterate by the integer numerator of the difference (``_minus_window``).
    """
    y, two_l, scale = _scaled_value(c, n)
    return Fraction(y, two_l * scale)


def _scaled_value(c: ClosedFormCoeffs, n: int, num=int) -> tuple:
    """(y, 2L, b^|m|) with x_n = y / (2 L b^|m|), over ``num`` integers: int,
    or Decimal in ``_EXACT``.  Here 2t = a/b and the triple of j times L
    are read from ``c.scaled``, and 2L is an int.

    y = 2 q b^|m| + (r + s) v_|m| +- s a u_|m|, + for m >= 0 and - for m < 0
    (``chebyshev_tu``).  The chain runs to h = |m| >> 1 only: the last doubling
    and, for odd |m|, the last step fold into 2y = v_h (alpha u_h + gamma v_h)
    + delta b^2h with small integers alpha, gamma and delta, one big product.
    """
    period = 2 * c.k
    j, m = n % period, n // period
    a, b, rows = c.scaled
    two_l, q, r, s = rows[j]
    h, odd = divmod(abs(m), 2)
    rs, sa = r + s, s * a if m >= 0 else -s * a
    if odd:  # u_2h+1 = (a u_2h + v_2h)/2, v_2h+1 = ((a^2 - 4b^2) u_2h + a v_2h)/2
        alpha, gamma = rs * (a * a - 4 * b * b) + sa * a, rs * a + sa
    else:
        alpha, gamma = 2 * sa, 2 * rs
    delta = 4 * q * b ** odd - 2 * gamma
    u, v, p = _lucas_chain(num(a), num(b), h)
    p *= p
    y = (v * (num(alpha) * u + num(gamma) * v) + num(delta) * p) // 2
    return y, two_l, p * b if odd else p


def _minus_window(c: ClosedFormCoeffs, w: SequenceWindow, n: int) -> tuple[int, int]:
    """(numerator, denominator > 0) of eval_closed_form(c, n) - w[n], with no gcd."""
    y, two_l, scale = _scaled_value(c, n)
    v, den = w[n], two_l * scale
    return y * v.denominator - v.numerator * den, den * v.denominator


def printable_value(w: SequenceWindow, c: ClosedFormCoeffs, n: int):
    """x_n as ``eval_closed_form(c, n)`` gives it, to be printed: a Decimal
    integer or a reduced ``engine._Quotient``; c comes from the window w.
    A value that differs from ``_residue`` raises ResidueMismatchError."""
    value = _decimal_value(c, n)
    p, res = _residue(w, n)
    _check_agreement(p, [(n, value, res)])
    return value


def _decimal_value(c: ClosedFormCoeffs, n: int):
    """x_n from the closed form over Decimal integers (``_scaled_value``), in
    lowest terms: every prime that y and its denominator share divides 2 L b."""
    with localcontext(_EXACT):
        y, two_l, scale = _scaled_value(c, n, Decimal)
        if not y:  # a product by zero can be -0
            return Decimal(0)
        return _reducer(two_l * c.scaled[1])(y, two_l * scale)


def _residue(w: SequenceWindow, n: int) -> tuple[int, int]:
    """(p, x_n mod p) by the linear relation, run from the window's x_{j-2k},
    x_j and x_{j+2k}, j = n mod 2k, in O(log |m|) steps, p from ``_guard_residues``.

    On the class of j, z_i = x_{j+2ki} has z_{i+3} = K (z_{i+2} - z_{i+1}) + z_i,
    whose characteristic polynomial is f = y^3 - K y^2 + K y - 1.  With
    y^e = c_0 + c_1 y + c_2 y^2 modulo f and p, z_{i+e} = c_0 z_i + c_1 z_{i+1}
    + c_2 z_{i+2}, so z_m comes from y^(m+1) and (z_{-1}, z_0, z_1); for e < 0,
    y^-1 = y^2 - K y + K.  Per bit of |e| from the top, c squares, with
    y^3 = K y^2 - K y + 1 and y^4 = (K^2 - K) y^2 + (1 - K^2) y + K, and a set
    bit multiplies it by y or y^-1.
    """
    period = 2 * w.spec.k
    j, e = n % period, n // period + 1
    p, (K, *z) = _guard_residues((w.spec.K, w[j - period], w[j], w[j + period]))
    k1, k2 = (1 - K * K) % p, (K * K - K) % p
    c0, c1, c2 = 1, 0, 0
    for bit in bin(abs(e))[2:]:
        e3, e4 = 2 * c1 * c2, c2 * c2
        c0, c1, c2 = ((c0 * c0 + e3 + K * e4) % p, (2 * c0 * c1 - K * e3 + k1 * e4) % p,
                      (2 * c0 * c2 + c1 * c1 + K * e3 + k2 * e4) % p)
        if bit == "1":
            c0, c1, c2 = (c2, c0 - K * c2, c1 + K * c2) if e > 0 else (c1 + K * c0, c2 - K * c0, c0)
    return p, (c0 * z[0] + c1 * z[1] + c2 * z[2]) % p
