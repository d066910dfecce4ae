"""Exact Chebyshev closed form of the general solution.

Every solution satisfies the constant-coefficient linear relation with
conserved quantity K, so with t = (K-1)/2 it decomposes as

    x_n = q_j + r_j * T_m(t) + s_j * U_m(t),   m = floor(n / 2k),  j = n mod 2k,

with T, U the Chebyshev families normalized by T_0 = U_0 = 1, T_1 = T_{-1} = t,
U_1 = 2t, U_{-1} = 0.  The 2k coefficient triples come from a fixed 3x3
matrix applied to (x_{2k+j}, x_j, x_{-2k+j}) with prefactor 1/(2t(1-t)),
which is finite iff t is outside {0, 1} (i.e. K outside {1, 3}).

T_m and U_m come from the m-th power of the 2x2 matrix of the three-term
recurrence p_{i+1} = 2t p_i - p_{i-1}, taken by repeated squaring in
O(log |m|) steps for positive and negative m alike (Fiduccia, SIAM J.
Comput. 14, 1985).  Everything is exact rational arithmetic.  No case split
is needed between |t| <= 1 (bounded, oscillatory-type solutions) and |t| > 1
(solutions with hyperbolic growth): the powers are exact in both regimes, so
the same code covers them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import SequenceWindow
from .errors import DegenerateTError
from .rational import format_rational


def chebyshev_tu(t: Fraction, m: int) -> tuple[Fraction, Fraction]:
    """(T_m(t), U_m(t)) for any integer m, negative included.

    M = [[2t, -1], [1, 0]] has M^m = [[U_m, -U_{m-1}], [U_{m-1}, -U_{m-2}]]
    for every integer m, and det M = 1 gives M^{-1} = [[0, 1], [-1, 2t]].
    With t = p/q, B = q M (or q M^{-1} for m < 0) is an integer matrix and
    M^m = B^{|m|} / q^{|m|}; B^{|m|} is taken by repeated squaring in
    integers, so only the two results are reduced.  T_m = U_m - t U_{m-1}.
    """
    t = Fraction(t)
    p, q, e = t.numerator, t.denominator, abs(m)
    base = ((2 * p, -q), (q, 0)) if m >= 0 else ((0, q), (-q, 2 * p))
    power = ((1, 0), (0, 1))
    while e:
        if e & 1:
            power = _mat2_mul(power, base)
        e >>= 1
        if e:
            base = _mat2_mul(base, base)
    (u, _), (u_prev, _) = power  # q^|m| U_m and q^|m| U_{m-1}
    scale = q ** abs(m)
    return Fraction(q * u - p * u_prev, q * scale), Fraction(u, scale)


def _mat2_mul(a, b):
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


@dataclass(frozen=True)
class ChebyshevPoint:
    """The evaluation point t = (K-1)/2 together with K itself."""

    t: Fraction
    K: Fraction

    @classmethod
    def from_k(cls, K: Fraction) -> "ChebyshevPoint":
        K = Fraction(K)
        return cls((K - 1) / 2, K)

    @property
    def degenerate(self) -> bool:
        return self.t in (Fraction(0), Fraction(1))


@dataclass(frozen=True)
class ClosedFormCoeffs:
    """The 2k coefficient triples (q_j, r_j, s_j), indexed by j = n mod 2k."""

    k: int
    point: ChebyshevPoint
    q: tuple
    r: tuple
    s: tuple

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "K": format_rational(self.point.K),
            "t": format_rational(self.point.t),
            "triples": [
                {"j": j, "q": format_rational(self.q[j]),
                 "r": format_rational(self.r[j]), "s": format_rational(self.s[j])}
                for j in range(2 * self.k)
            ],
        }


def extract_coeffs(w: SequenceWindow, K: Fraction) -> ClosedFormCoeffs:
    """Coefficient triples from the window values at j, j +- 2k.

    Requires the window to cover [-2k, 4k-1] and t = (K-1)/2 outside {0, 1}
    (the extraction matrix carries the prefactor 1/(2t(1-t))).
    """
    k = w.spec.k
    if not w.covers(-2 * k, 4 * k - 1):
        raise IndexError(f"coefficient extraction needs [{-2 * k}, {4 * k - 1}] "
                         f"inside [{w.lo}, {w.hi}]")
    point = ChebyshevPoint.from_k(K)
    if point.degenerate:
        raise DegenerateTError(f"t = {point.t} makes the extraction matrix singular (K = {point.K})")
    t = point.t
    pref = 1 / (2 * t * (1 - t))
    qs, rs, ss = [], [], []
    for j in range(2 * k):
        hi_v, mid_v, lo_v = w[2 * k + j], w[j], w[-2 * k + j]
        qs.append(pref * (t * hi_v - 2 * t * t * mid_v + t * lo_v))
        rs.append(pref * (-hi_v + 2 * t * mid_v + (1 - 2 * t) * lo_v))
        ss.append(pref * ((1 - t) * hi_v + (t - 1) * lo_v))
    return ClosedFormCoeffs(k, point, tuple(qs), tuple(rs), tuple(ss))


def eval_closed_form(c: ClosedFormCoeffs, n: int) -> Fraction:
    """x_n from the closed form, any integer n.

    Index split uses floored division, so j = n mod 2k stays in [0, 2k-1]
    and n = 2k*m + j holds for negative n as well.
    """
    period = 2 * c.k
    j = n % period
    m = n // period
    tm, um = chebyshev_tu(c.point.t, m)
    return c.q[j] + c.r[j] * tm + c.s[j] * um
