"""Exact Chebyshev closed form of the general solution.

Every solution satisfies the constant-coefficient linear relation with
conserved quantity K, so with t = (K-1)/2 it decomposes as

    x_n = q_j + r_j * T_m(t) + s_j * U_m(t),   m = floor(n / 2k),  j = n mod 2k,

with T, U the Chebyshev families normalized by T_0 = U_0 = 1, T_1 = T_{-1} = t,
U_1 = 2t, U_{-1} = 0.  The 2k coefficient triples come from a fixed 3x3
matrix applied to (x_{2k+j}, x_j, x_{-2k+j}) with prefactor 1/(2t(1-t)),
which is finite iff t is outside {0, 1} (i.e. K outside {1, 3}).

T_m and U_m come from Lucas-sequence fast doubling in O(log |m|) steps of
three big products each (Joye and Quisquater, Electron. Lett. 32, 1996), for
positive and negative m alike, over the integers: with 2t = a/b in lowest
terms, u_n = b^(n-1) U_n(2t, 1) is an integer, and U_m = U_{m+1}(2t, 1).  No
case split is needed between |t| <= 1 (bounded, oscillatory-type solutions)
and |t| > 1 (hyperbolic growth): the integers are exact in both regimes.

``chebyshev_tu`` runs the doubling over ``int`` and returns Fractions.
Every value of the closed form is one scaled evaluation (``_scaled_value``):
x_n is one integer over 2 L b^|m|, L the lcm of the triple's denominators,
from integers that ``ClosedFormCoeffs.scaled`` builds once per triple.
``eval_closed_form`` runs it over ``int`` and returns a Fraction.
``printable_value``, which ``closed-form --eval`` prints, runs it over
Decimal integers, as ``engine.export_window`` runs its relation, reduces
the value once by ``engine._reduced``, and checks it against the linear
relation modulo 2^61 - 1 or, where that divides a denominator, a smaller
odd modulus (``engine._guard_residues``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property

from .engine import _EXACT, SequenceWindow, _check_agreement, _guard_residues, _reducer
from .errors import DegenerateTError
from .matrix import mat_mul
from .rational import format_rational


def _lucas(a, b, n: int) -> tuple:
    """(u_n, u_{n+1}) for n >= 0, u_j = b^(j-1) U_j(a/b, 1), in the integers a
    and b are (ints, or Decimals in ``_EXACT``): u_0 = 0, u_1 = 1 and
    u_{j+1} = a u_j - b^2 u_{j-1}.

    Per bit of n from the top, the pair doubles to (u_{2n}, u_{2n+1}) =
    (u_n (2 u_{n+1} - a u_n), u_{n+1}^2 - b^2 u_n^2), and a set bit steps it
    once.
    """
    b2 = b * b
    u, v = 0, 1
    for bit in bin(n)[2:]:
        u, v = u * (2 * v - a * u), v * v - b2 * (u * u)
        if bit == "1":
            u, v = v, a * v - b2 * u
    return u, v


def _chebyshev_scaled(a, b, m: int) -> tuple:
    """(2 b^|m| T_m(t), b^|m| U_m(t)) for 2t = a/b in lowest terms, any integer m.

    Both come from x = b^|m| U_m and y = b^(|m|-1) U_{m-1}, as T_m = U_m - t U_{m-1}.
    With U_m = U_{m+1}(2t, 1), m >= 0 has (y, x) = (u_m, u_{m+1}); m = -e < 0 has
    U_m = -U_{e-1}(2t, 1) and U_{m-1} = -U_e(2t, 1), from (u_{e-1}, u_e).
    """
    if m >= 0:
        y, x = _lucas(a, b, m)
    else:
        x, y = _lucas(a, b, -m - 1)
        x, y = -b * b * x, -y
    return 2 * x - a * y, x


def chebyshev_tu(t: Fraction, m: int) -> tuple[Fraction, Fraction]:
    """(T_m(t), U_m(t)) for any integer m, negative included."""
    t2 = 2 * Fraction(t)
    a, b = t2.numerator, t2.denominator
    tm, um = _chebyshev_scaled(a, b, m)
    scale = b ** abs(m)
    return Fraction(tm, 2 * scale), Fraction(um, scale)


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
    (the extraction matrix carries the prefactor 1/(2t(1-t))).
    """
    k = w.spec.k
    K = Fraction(K)
    t = (K - 1) / 2
    if t in (0, 1):
        raise DegenerateTError(f"t = {t} makes the extraction matrix singular (K = {K})")
    pref = 1 / (2 * t * (1 - t))
    qs, rs, ss = [], [], []
    for j in range(2 * k):
        hi_v, mid_v, lo_v = w[2 * k + j], w[j], w[-2 * k + j]
        qs.append(pref * (t * hi_v - 2 * t * t * mid_v + t * lo_v))
        rs.append(pref * (-hi_v + 2 * t * mid_v + (1 - 2 * t) * lo_v))
        ss.append(pref * ((1 - t) * hi_v + (t - 1) * lo_v))
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

    y = 2 q b^|m| + r (2 b^|m| T_m) + 2 s (b^|m| U_m) for the triple times L.
    """
    period = 2 * c.k
    j, m = n % period, n // period
    a, b, rows = c.scaled
    two_l, *triple = rows[j]
    a, b, q, r, s = map(num, (a, b, *triple))
    tm, um = _chebyshev_scaled(a, b, m)
    scale = b ** abs(m)
    return 2 * q * scale + r * tm + 2 * s * um, two_l, scale


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

    On the class of j, z_i = x_{j+2ki} has z_{i+3} = K (z_{i+2} - z_{i+1}) + z_i:
    the companion matrix C maps (z_i, z_{i+1}, z_{i+2}) to (z_{i+1}, z_{i+2},
    z_{i+3}), and z_m is the first entry of C^(m+1) (z_{-1}, z_0, z_1).
    """
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
