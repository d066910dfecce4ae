"""Conserved quantities, periodic invariants, and determinant identities.

The central object is the conserved quantity K of the linear relation

    x[n+6k] - K * (x[n+4k] - x[n+2k]) - x[n] = 0,

computed by four independent routes that must agree exactly:

* ``k_formula``    -- the explicit breakdown K = P0 + a*P1 + a^2*P2;
* ``k_ratio``      -- (x[4k] - x[-2k]) / (x[2k] - x[0]) (optionally shifted);
* ``k_cramer``     -- 3x3 determinant ratios from the kernel of the 4x4
                      discrete Wronskian;
* ``monodromy_k``  -- traces of ordered companion-matrix products over one
                      period of the 3-term relation, run over the integers:
                      each step's matrix is scaled by the lcm of its
                      coefficients' denominators, and each trace is divided
                      by the product of the scales once, at the end.

Alongside: the 3x3 Wronskian determinant delta_n (a k-invariant), the 4x4
Wronskian determinant (identically zero on solutions), the closed formulas
for the 2k iterates on either side of the seed, the inhomogeneous relations
obtained by integrating the linear one, and the shift-operator identity that
holds for arbitrary (non-solution) sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .engine import RecurrenceSpec, SequenceWindow, phi, raw_window, xi_residual
from .errors import (
    DegenerateDenominatorError,
    SingularDeltaError,
    SingularSystemError,
    ZeroAlphaError,
    ZeroPivotError,
)
from .laurent import LaurentPolynomial, RationalFunction
from .matrix import mat_mul, matrix_det, scale_row
from .rational import format_rational, promote


# -- the explicit formula ------------------------------------------------------

@dataclass(frozen=True)
class KBreakdown:
    """K = P0 + a*P1 + a^2*P2, each piece free of the parameter."""

    P0: object
    P1: object
    P2: object
    K: object

    def to_json_dict(self) -> dict:
        return {name: format_rational(getattr(self, name)) for name in ("P0", "P1", "P2", "K")}


def k_breakdown(values: Sequence, a) -> KBreakdown:
    """The conserved-quantity formula evaluated on arbitrary scalars.

    ``values`` are the 2k+1 phase-space coordinates; every one is inverted,
    so in numeric mode they must all be nonzero.  Works over Fraction,
    LaurentPolynomial (divisions by single variables are exact) and
    RationalFunction scalars alike; ints are promoted to Fractions.
    """
    if len(values) % 2 == 0 or len(values) < 3:
        raise ValueError("need an odd number 2k+1 >= 3 of values")
    k = (len(values) - 1) // 2
    x, a = [promote(v) for v in values], promote(a)
    for j, v in enumerate(x):
        if not v:
            raise ZeroPivotError(j, what="initial value")
    # the ints 1 and 0 coerce into every scalar type
    p0 = 1 + x[0] / x[2 * k] + x[2 * k] / x[0]
    s_fwd = sum((x[j - 1] + x[j]) / (x[j + k - 1] * x[j + k]) for j in range(1, k + 1))
    s_bwd = sum((x[j + k - 1] + x[j + k]) / (x[j - 1] * x[j]) for j in range(1, k + 1))
    p1 = (1 + x[2 * k] / x[0]) * s_fwd + (1 + x[0] / x[2 * k]) * s_bwd
    p2 = 1 / (x[k] * x[2 * k])
    for j in range(0, k):
        p2 = p2 + (1 / x[j]) * (1 / x[j + k] + 1 / x[j + k + 1])
    for l in range(1, k):
        for m in range(1, l + 1):
            p2 = p2 + ((x[l] + x[l + 1]) * (x[k + m - 1] + x[k + m])
                       / (x[k + l] * x[k + l + 1] * x[m - 1] * x[m]))
    return KBreakdown(p0, p1, p2, p0 + a * p1 + a * a * p2)


def k_formula(spec: RecurrenceSpec) -> KBreakdown:
    """The breakdown on a recurrence instance's initial data."""
    return k_breakdown(spec.init, spec.a)


# -- the ratio route -----------------------------------------------------------

def k_ratio(w: SequenceWindow, base: int = 0):
    """K as (x[base+4k] - x[base-2k]) / (x[base+2k] - x[base]).

    ``base = 0`` is the two-sided form; ``base = 2k`` is the one-sided form
    over [0, 6k].  Raises DegenerateDenominatorError when the denominator
    vanishes (e.g. the all-ones seed at base 0).
    """
    k = w.spec.k
    den = w[base + 2 * k] - w[base]
    num = w[base + 4 * k] - w[base - 2 * k]
    if not den:
        raise DegenerateDenominatorError(
            f"x_{base + 2 * k} = x_{base}; use a shifted base or the explicit formula")
    return num / den


def k_ratio_route(w: SequenceWindow):
    """(K, form) by the two-sided ratio, or by the shifted one at base 2k when
    x_{2k} = x_0; the shifted form may raise DegenerateDenominatorError too."""
    try:
        return k_ratio(w, 0), "two-sided"
    except DegenerateDenominatorError:
        return k_ratio(w, 2 * w.spec.k), "shifted"


# -- discrete Wronskians -------------------------------------------------------
#
# Every Wronskian determinant below is one of x_{n + offsets[i] + 2k shifts[j]},
# and the window's ``WronskianTable`` builds what each one reads once.
# A numeric window takes one integer sum over the table's rows and pair
# minors over the product of the rows' scales (``_wronskian_parts``), and a
# numeric check compares such pairs by cross-multiplication: the 4x4 is the
# Laplace sum of the complementary minors of the row pairs (n, n+1) and
# (n+2, n+3); a 3x3 block is two consecutive rows and one lone row, expanded
# along the lone row against the pair's minors.  A read that misses fills
# one block of BLOCK rows and their pairs in one pass over slices of the
# window's values, so a sweep of overlapping blocks builds each row and pair
# about once, and a single read costs at most one block.  The Cramer and abg
# ratios over delta_n are one integer pair each (``_over_delta``), and the
# table builds the periodic coefficients from them once.
# A symbolic window keeps each determinant in the table: a 3x3 block is
# ``matrix_det`` over the Laurent ring, and the 4x4 is one Desnanot-Jacobi
# step over four deltas (``_condensed_w4``).  So a 4x4 sweep on a fresh
# window pays for the deltas it reads, and the delta, Cramer and abg routes
# read them for free afterwards.

# the rows a numeric table builds per miss: enough to spread a fill's fixed
# cost, few enough that one read on a long window stays cheap
BLOCK = 32


class WronskianTable:
    """The determinants of one window's Wronskian blocks, or the integers a
    numeric one is a sum over (``_wronskian_parts``), each built once; the
    window holds it (``SequenceWindow.wronskian_table``), and ``symbolic``
    says which of the two it keeps.  A numeric table also holds the
    window's periodic coefficients (``periodic``), built on the first read.

    Numeric windows: ``rows[m]`` is ``scale_row`` of (x_m, x_{m+2k},
    x_{m+4k}, x_{m+6k}); ``pairs[m]`` holds the product of the scales of
    rows m and m+1 and their six 2x2 minors over the column pairs of
    ``MINOR_COLUMNS``.  A read that misses (``row``, ``pair``) fills one
    block (``_fill``): rows m .. m+BLOCK-1 and the pairs among them, clipped
    to the window and stopped before the first row with an entry that is not
    a Fraction or int, so an entry outside the rows a read needs never
    raises.  Where the window ends before x_{m+6k}, row m keeps only its
    first three entries, and so does the minor tuple of each pair with such
    a row: a read of an entry the window lacks raises IndexError.  A read of
    a row with a Decimal, ``_Quotient`` or Laurent value raises TypeError.

    Symbolic windows: ``det`` holds each block's determinant by (n,
    offsets, shifts).
    """

    MINOR_COLUMNS = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3))

    def __init__(self, w: SequenceWindow):
        self._w, self._step = w, 2 * w.spec.k
        self.symbolic = w.spec.symbolic_mode
        self.rows: dict[int, tuple[int, tuple[int, ...]]] = {}
        self.pairs: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._dets: dict[tuple, LaurentPolynomial] = {}

    def row(self, m: int) -> tuple[int, tuple[int, ...]]:
        """(s_m, the row's integers): its scale and the row times it."""
        row = self.rows.get(m)
        if row is None:
            self._fill(m)
            row = self.rows[m]
        return row

    def pair(self, m: int) -> tuple[int, tuple[int, ...]]:
        """(s_m s_{m+1}, the minors of rows m and m+1 over ``MINOR_COLUMNS``)."""
        pair = self.pairs.get(m)
        if pair is None:
            self._fill(m)
            if m not in self.pairs:  # the block ended at row m
                self._fill(m + 1)  # raises: row m + 1 is outside the window or not rational
            pair = self.pairs[m]
        return pair

    def _fill(self, m: int) -> None:
        """Build rows m .. m+BLOCK-1 and the pairs among them in one pass,
        clipped to the rows whose first three entries the window holds and
        stopped before the first row with an entry that is not a Fraction or
        int; IndexError or TypeError if row m itself is not built."""
        w, step = self._w, self._step
        w[m], w[m + 2 * step]  # IndexError outside the window
        count = min(BLOCK, w.hi - 2 * step + 1 - m)
        values = w.values[m - w.lo:m - w.lo + count + 3 * step]
        # stop before the lowest row that reads an entry that is no Fraction or int
        count = min([count, *(i - step * min(3, i // step) for i, v in enumerate(values)
                              if not isinstance(v, (Fraction, int)))])
        if not count:
            scale_row(values[:3 * step + 1:step])  # raises TypeError on an entry of row m
        values = values[:count + 3 * step]
        nums, dens = [v.numerator for v in values], [v.denominator for v in values]
        built = []
        for width in (4, 3):  # rows whose x_{m+6k} the window lacks keep three entries
            cut = [slice(j * step + len(built), j * step + count) for j in range(width)]
            for row, row_dens in zip(zip(*(nums[c] for c in cut)), zip(*(dens[c] for c in cut))):
                s = math.lcm(*row_dens)
                # as ``scale_row``: a product by s // d = 1 would copy a big numerator
                built.append((s, row if s == 1 else tuple(
                    v if d == s else v * (s // d) for v, d in zip(row, row_dens))))
        self.rows.update(zip(range(m, m + count), built))
        pairs = self.pairs
        for i, ((s, a), (t, b)) in enumerate(zip(built, built[1:]), m):
            if len(b) == 4:
                a0, a1, a2, a3 = a
                b0, b1, b2, b3 = b
                pairs[i] = s * t, (a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a1 * b2 - a2 * b1,
                                   a0 * b3 - a3 * b0, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2)
            else:
                pairs[i] = s * t, tuple(a[c] * b[d] - a[d] * b[c] for c, d in self.MINOR_COLUMNS[:3])

    @cached_property
    def periodic(self) -> "PeriodicCoeffs":
        """A numeric window's ``periodic_coeffs``, built once: alpha_n, beta_n
        and gamma_n for n in [0, 2k), each one Fraction of ``_abg_parts``."""
        k = self._step // 2
        trips = [_abg_parts(self, n) for n in range(2 * k)]
        return PeriodicCoeffs(k, tuple(Fraction(*t[0]) for t in trips[:k]),
                              *(tuple(Fraction(*t[i]) for t in trips) for i in (1, 2)))

    def det(self, n: int, offsets: tuple[int, ...], shifts: tuple[int, ...]) -> LaurentPolynomial:
        """The symbolic block's determinant: ``_condensed_w4`` for the 4x4,
        ``matrix_det`` for a 3x3 block."""
        key = (n, offsets, shifts)
        d = self._dets.get(key)
        if d is None:
            d = self._dets[key] = (_condensed_w4(self._w, n) if len(offsets) == 4 else
                                   matrix_det(_wronskian_block(self._w, n, offsets, shifts)))
        return d


# offsets -> (lone row, first row of the pair), both relative to n
_LONE_AND_PAIR = {(0, 1, 2): (0, 1), (0, 2, 3): (0, 2), (0, 1, 3): (3, 0)}
# the columns (c0, c1, c2) of a 3x3 block, a Wronskian block's shifts or the
# columns of ``inhom_coeffs``, -> the positions in ``MINOR_COLUMNS`` of (c1, c2),
# (c0, c2), (c0, c1)
_COFACTORS = {(0, 1, 2): (2, 1, 0), (0, 1, 3): (4, 3, 0), (0, 2, 3): (5, 3, 1),
              (1, 2, 3): (5, 4, 2)}


def _wronskian_block(w: SequenceWindow, n: int, offsets: Sequence[int],
                     shifts: Sequence[int]) -> list[list]:
    """The rows of the matrix with entry (i, j) = x_{n + offsets[i] + 2k shifts[j]}."""
    k = w.spec.k
    return [[w[n + i + 2 * k * j] for j in shifts] for i in offsets]


def _wronskian_det(w: SequenceWindow, n: int, offsets: tuple[int, ...],
                   shifts: tuple[int, ...]):
    """det of ``_wronskian_block(w, n, offsets, shifts)``: the 4x4 block, or a
    3x3 one with offsets and shifts among those of ``_LONE_AND_PAIR`` and
    ``_COFACTORS``.  A symbolic window reads it from its table (``det``), a
    numeric one builds its one Fraction from ``_wronskian_parts``."""
    table = w.wronskian_table
    if table.symbolic:
        return table.det(n, offsets, shifts)
    return Fraction(*_wronskian_parts(table, n, offsets, shifts))


def _wronskian_parts(table: WronskianTable, n: int, offsets: tuple[int, ...],
                     shifts: tuple[int, ...]) -> tuple[int, int]:
    """(sum, scale > 0) of a numeric window's Wronskian determinant, sum/scale,
    from the integers of its table's maps, filled on a miss, with no gcd."""
    rows, pairs = table.rows, table.pairs
    if len(offsets) == 4:
        (s, p), (t, q) = pairs.get(n) or table.pair(n), pairs.get(n + 2) or table.pair(n + 2)
        # minors over columns 01, 02, 12, 03, 13, 23 against their complements
        return (p[0] * q[5] - p[1] * q[4] + p[2] * q[3]
                + p[3] * q[2] - p[4] * q[1] + p[5] * q[0], s * t)
    lone, first = _LONE_AND_PAIR[offsets]
    s, a = rows.get(n + lone) or table.row(n + lone)
    t, p = pairs.get(n + first) or table.pair(n + first)
    (c0, c1, c2), (i0, i1, i2) = shifts, _COFACTORS[shifts]
    # the lone row is first or last of three, so its cofactor signs are +, -, +
    return a[c0] * p[i0] - a[c1] * p[i1] + a[c2] * p[i2], s * t


def _over_delta(n: int, delta_n: tuple[int, int], dets) -> list[tuple[int, int]]:
    """(numerator, denominator) of each determinant of ``dets`` over delta_n,
    all given as ``_wronskian_parts`` pairs: a/s over d/t is (a t, s d).
    SingularDeltaError(n) where delta_n = 0."""
    d, t = delta_n
    if not d:
        raise SingularDeltaError(n)
    return [(a * t, s * d) for a, s in dets]


def _condensed_w4(w: SequenceWindow, n: int) -> LaurentPolynomial:
    """The symbolic 4x4 Wronskian by one Desnanot-Jacobi step (Dodgson 1866):

        W4(n) (ad - bc) = delta(n) delta(n+2k+1) - delta(n+1) delta(n+2k),

    the block's corner 3x3 minors against its centre [[a, b], [c, d]], of
    rows n+1, n+2 and shifts 1, 2.  The division by ad - bc is exact; where
    it is 0, ``matrix_det`` of the block.
    """
    step = 2 * w.spec.k
    a, b = w[n + 1 + step], w[n + 1 + 2 * step]
    c, d = w[n + 2 + step], w[n + 2 + 2 * step]
    centre = a * d - b * c
    if not centre:
        return matrix_det(_wronskian_block(w, n, (0, 1, 2, 3), (0, 1, 2, 3)))
    return (delta(w, n) * delta(w, n + step + 1) - delta(w, n + 1) * delta(w, n + step)) / centre


def wronskian3(w: SequenceWindow, n: int) -> list[list]:
    """The rows of the 3x3 matrix with columns (x_{n+2kj+i}) for j = 0,1,2 and rows i = 0..2."""
    return _wronskian_block(w, n, (0, 1, 2), (0, 1, 2))


# delta and the 4x4 take ``_wronskian_det``'s two routes themselves: a read
# pays no call more than the parts and its one Fraction

def delta(w: SequenceWindow, n: int):
    """det of the 3x3 discrete Wronskian; a k-invariant on solutions."""
    table = w.wronskian_table
    if table.symbolic:
        return table.det(n, (0, 1, 2), (0, 1, 2))
    return Fraction(*_wronskian_parts(table, n, (0, 1, 2), (0, 1, 2)))


def wronskian4_det(w: SequenceWindow, n: int):
    """det of the 4x4 discrete Wronskian; exactly 0 on solution windows."""
    table = w.wronskian_table
    if table.symbolic:
        return table.det(n, (0, 1, 2, 3), (0, 1, 2, 3))
    return Fraction(*_wronskian_parts(table, n, (0, 1, 2, 3), (0, 1, 2, 3)))


# -- Cramer route ----------------------------------------------------------------

def k_cramer(w: SequenceWindow, n: int = 0):
    """(K1, K2) as 3x3 determinant ratios over delta_n; both equal K.

    K1 replaces the third Wronskian column by the 6k-shifted one, K2 the
    second; both are independent of n and swap into each other under the
    reversal symmetry.  A numeric window builds each as one Fraction of
    ``_cramer_parts``.
    """
    table = w.wronskian_table
    if not table.symbolic:
        return tuple(Fraction(*q) for q in _cramer_parts(table, n))
    d1 = table.det(n, (0, 1, 2), (0, 1, 3))
    d2 = table.det(n, (0, 1, 2), (0, 2, 3))
    d = table.det(n, (0, 1, 2), (0, 1, 2))
    if not d:
        raise SingularDeltaError(n)
    return d1 / d, d2 / d


def _cramer_parts(table: WronskianTable, n: int) -> list[tuple[int, int]]:
    """(numerator, denominator) of K1 and K2 of ``k_cramer`` on a numeric
    window's table, with no gcd."""
    dets = [_wronskian_parts(table, n, (0, 1, 2), shifts) for shifts in ((0, 1, 3), (0, 2, 3))]
    return _over_delta(n, _wronskian_parts(table, n, (0, 1, 2), (0, 1, 2)), dets)


# -- 3-term relation coefficients -------------------------------------------------

# (shift of n, offsets) of the numerators of alpha_n, beta_n and gamma_n
_ABG_BLOCKS = ((1, (0, 1, 2)), (0, (0, 2, 3)), (0, (0, 1, 3)))


def abg_coeffs(w: SequenceWindow, n: int):
    """(alpha_n, beta_n, gamma_n) of x_{n+3} - gamma x_{n+2} + beta x_{n+1} - alpha x_n = 0.

    These are ratios of 3x3 determinants over delta_n and are genuinely
    rational functions, not Laurent polynomials: on a symbolic window the
    four determinants are taken in the Laurent ring and lifted into
    RationalFunction scalars for the ratios.  The four blocks read the rows
    of delta_n and delta_{n+1}.  A numeric window builds each coefficient as
    one Fraction of ``_abg_parts``.
    """
    table = w.wronskian_table
    if not table.symbolic:
        return tuple(Fraction(*q) for q in _abg_parts(table, n))
    d, d_alpha, d_beta, d_gamma = [RationalFunction(table.det(n + s, offsets, (0, 1, 2)))
                                   for s, offsets in ((0, (0, 1, 2)), *_ABG_BLOCKS)]
    if not d:
        raise SingularDeltaError(n)
    return d_alpha / d, d_beta / d, d_gamma / d


def _abg_parts(table: WronskianTable, n: int) -> list[tuple[int, int]]:
    """(numerator, denominator) of alpha_n, beta_n and gamma_n of
    ``abg_coeffs`` on a numeric window's table, with no gcd."""
    delta_n = _wronskian_parts(table, n, (0, 1, 2), (0, 1, 2))
    dets = [_wronskian_parts(table, n + s, offsets, (0, 1, 2)) for s, offsets in _ABG_BLOCKS]
    return _over_delta(n, delta_n, dets)


@dataclass(frozen=True)
class PeriodicCoeffs:
    """alpha (period k) and beta, gamma (period 2k), indexed by n mod period."""

    k: int
    alpha: tuple
    beta: tuple
    gamma: tuple

    def alpha_at(self, n: int):
        return self.alpha[n % self.k]

    def beta_at(self, n: int):
        return self.beta[n % (2 * self.k)]

    def gamma_at(self, n: int):
        return self.gamma[n % (2 * self.k)]


def periodic_coeffs(w: SequenceWindow) -> PeriodicCoeffs:
    """One full period of the 3-term relation coefficients, from base index 0;
    numeric windows only (over a symbolic window the monodromy products
    swell).  The window's table builds them once (``WronskianTable.periodic``)."""
    if w.spec.symbolic_mode:
        raise ValueError("periodic coefficients are computed in numeric mode only")
    return w.wronskian_table.periodic


def _three_term_parts(w: SequenceWindow, n: int, scaled) -> tuple[int, int]:
    """(numerator, denominator) of x_{n+3} - gamma_n x_{n+2} + beta_n x_{n+1}
    - alpha_n x_n on a window of Fractions, with no gcd; ``scaled`` is
    ``scale_row`` of (alpha_n, beta_n, gamma_n), (d, (A, B, G))."""
    d, (A, B, G) = scaled
    x0, x1, x2, x3 = w[n], w[n + 1], w[n + 2], w[n + 3]
    q01, q23 = x0.denominator * x1.denominator, x2.denominator * x3.denominator
    # (d x3 - G x2) q23 + (B x1 - A x0) q01, over d q01 q23
    return ((d * x3.numerator * x2.denominator - G * x2.numerator * x3.denominator) * q01
            + (B * x1.numerator * x0.denominator - A * x0.numerator * x1.denominator) * q23,
            d * q01 * q23)


# -- monodromy route ---------------------------------------------------------------

def monodromy_k(coeffs: PeriodicCoeffs, start: int = 0):
    """(K1, K2) as traces of companion-matrix products over one period.

    K1 multiplies L_{start+2k-1} ... L_{start}; K2 multiplies the displayed
    inverses L_{start}^{-1} ... L_{start+2k-1}^{-1}, which require every
    alpha to be nonzero (ZeroAlphaError at the first m with alpha_m = 0).
    The traces do not depend on ``start``.

    The products run over the integers: ``scale_row`` turns the step's
    (alpha, beta, gamma) into d and the integers (A, B, G) = d (alpha, beta,
    gamma), so d L_m and A L_m^{-1} are integer matrices, and each trace is
    one Fraction over the product of its scales.  A coefficient that is not
    a Fraction or an int raises TypeError.
    """
    fwd = inv = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    fwd_scale = inv_scale = 1
    for m in range(start, start + 2 * coeffs.k):
        d, (A, B, G) = scale_row((coeffs.alpha_at(m), coeffs.beta_at(m), coeffs.gamma_at(m)))
        if not A:
            raise ZeroAlphaError(f"alpha_{m} = 0: companion matrix is singular")
        fwd = mat_mul([[0, d, 0], [0, 0, d], [A, -B, G]], fwd)  # d L_m
        inv = mat_mul(inv, [[B, -G, d], [A, 0, 0], [0, A, 0]])  # A L_m^{-1}
        fwd_scale *= d
        inv_scale *= A
    return (Fraction(fwd[0][0] + fwd[1][1] + fwd[2][2], fwd_scale),
            Fraction(inv[0][0] + inv[1][1] + inv[2][2], inv_scale))


# -- explicit iterates -----------------------------------------------------------

@dataclass(frozen=True)
class ExplicitIterates:
    """Closed formulas for the 2k iterates on each side of the seed.

    ``values[m]`` is x_m for m in [-2k, -1] and [2k+1, 4k].  The coefficient
    families ``F1`` and ``F2`` are keyed by the absolute sequence index over
    [-2k, -1] and [2k, 4k]; the quadratic coefficient is zero on the first k
    steps of either side, where the iterates are still linear in the parameter.
    """

    values: dict
    F1: dict
    F2: dict


def _coefficient_families(values: Sequence, a):
    """F1[m], F2[m] for m in [2k, 4k], telescoped from the given seed."""
    k = (len(values) - 1) // 2
    x = list(values)
    zero = a - a
    f1 = {2 * k: zero}
    f2 = {m: zero for m in range(2 * k, 3 * k + 1)}
    for j in range(1, k + 1):
        acc = zero
        for l in range(1, j + 1):
            acc = acc + (x[k + l - 1] + x[k + l]) / (x[l - 1] * x[l])
        f1[2 * k + j] = x[j] * acc
    for j in range(1, k + 1):
        acc = zero
        for l in range(1, j + 1):
            acc = acc + (x[l - 1] + x[l]) / (x[k + l - 1] * x[k + l])
        f1[3 * k + j] = (x[k + j] * x[2 * k] / x[0]) * acc + (x[k + j] / x[k]) * f1[3 * k]
        acc2 = zero
        for l in range(1, j + 1):
            acc2 = acc2 + (f1[2 * k + l - 1] + f1[2 * k + l]) / (x[k + l - 1] * x[k + l])
        f2[3 * k + j] = x[k + j] * acc2
    return f1, f2


def explicit_iterates(spec: RecurrenceSpec) -> ExplicitIterates:
    """Assemble the closed formulas; equals iteration exactly on all 4k spots.

    The backward coefficients are the reversal pullbacks of the forward
    ones, realized by evaluating the same telescoped sums on the reversed
    seed (for symbolic data this is literally the variable reversal).
    """
    k = spec.k
    x = list(spec.init)
    a = spec.a
    for j, v in enumerate(x):
        if not v:
            raise ZeroPivotError(j, what="initial value")
    f1, f2 = _coefficient_families(x, a)
    xr = list(reversed(x))
    g1, g2 = _coefficient_families(xr, a)
    values = {m: x[m - 2 * k] * x[2 * k] / x[0] + a * f1[m] + a * a * f2[m]
              for m in range(2 * k + 1, 4 * k + 1)}
    for j in range(1, 2 * k + 1):
        f1[-j], f2[-j] = g1[2 * k + j], g2[2 * k + j]
        lead = xr[j] * x[0] / x[2 * k]  # x_{2k-j} * x_0 / x_{2k}
        values[-j] = lead + a * f1[-j] + a * a * f2[-j]
    return ExplicitIterates(values, f1, f2)


# -- inhomogeneous relations -----------------------------------------------------

@dataclass(frozen=True)
class InhomCoeffs:
    """nu_n and the order-2 relation coefficients (all 2k-invariants)."""

    nu: Fraction
    epsilon: Fraction
    zeta: Fraction
    eta: Fraction


def nu_invariant(w: SequenceWindow, n: int, K):
    """nu_n = x_{n+4k} - (K-1) x_{n+2k} + x_n; shifts by 2k leave it fixed."""
    k = w.spec.k
    return w[n + 4 * k] - (K - 1) * w[n + 2 * k] + w[n]


def k_prime(w: SequenceWindow, n: int, K):
    """K' = nu_n + ... + nu_{n+2k-1}; a conserved quantity."""
    return sum(nu_invariant(w, n + j, K) for j in range(2 * w.spec.k))


def inhom_coeffs(w: SequenceWindow, n: int, K) -> InhomCoeffs:
    """nu_n plus (epsilon_n, zeta_n, eta_n) of x_{m+2} + eta x_{m+1} + zeta x_m = epsilon.

    The three coefficients solve the 3x3 system over the columns m = n,
    n+2k, n+4k of the one-bordered Wronskian; numeric windows only.  The
    system's row m, epsilon - zeta x_m - eta x_{m+1} = x_{m+2}, is taken as
    ``scale_row`` of (1, x_m, x_{m+1}, x_{m+2}), and Cramer's rule runs over
    those integers: every determinant gains the same product of row scales,
    which cancels in each ratio, and the signs of the two negated columns
    are folded into the ratios.  The 3x3 determinants expand along the
    first row against the 2x2 minors of the other two.
    """
    k = w.spec.k
    if w.spec.symbolic_mode:
        raise ValueError("inhomogeneous coefficients are computed in numeric mode only")
    nu = nu_invariant(w, n, K)
    (_, r), (_, u), (_, v) = (scale_row((1, w[m], w[m + 1], w[m + 2]))
                              for m in (n, n + 2 * k, n + 4 * k))
    minors = [u[c] * v[d] - u[d] * v[c] for c, d in WronskianTable.MINOR_COLUMNS]

    def det(columns):  # of the integer rows over these three of the four columns
        (c0, c1, c2), (i0, i1, i2) = columns, _COFACTORS[columns]
        return r[c0] * minors[i0] - r[c1] * minors[i1] + r[c2] * minors[i2]

    d = det((0, 1, 2))
    if not d:
        raise SingularSystemError(f"order-2 relation solve is singular at n={n}")
    return InhomCoeffs(nu, Fraction(det((1, 2, 3)), d), Fraction(det((0, 2, 3)), d),
                       Fraction(-det((0, 1, 3)), d))


# -- linear relation and the operator identity -------------------------------------

def linear_relation_residual(w: SequenceWindow, n: int, K):
    """x_{n+6k} - K (x_{n+4k} - x_{n+2k}) - x_n; identically 0 on solutions.

    A numeric window takes it as one integer numerator over one denominator
    (``_relation_parts``), 0 exactly when the residual is: a numeric sweep
    tests that integer, and the residual is that Fraction.
    """
    if w.spec.symbolic_mode:
        k = w.spec.k
        return w[n + 6 * k] - K * (w[n + 4 * k] - w[n + 2 * k]) - w[n]
    return Fraction(*_relation_parts(w, n, K))


def _relation_parts(w: SequenceWindow, n: int, K) -> tuple[int, int]:
    """(numerator, denominator > 0) of ``linear_relation_residual`` on a
    window of Fractions and a Fraction or int K, with no gcd."""
    k = w.spec.k
    x6, x4, x2, x0 = w[n + 6 * k], w[n + 4 * k], w[n + 2 * k], w[n]
    # K (x4 - x2) = p / q
    p = K.numerator * (x4.numerator * x2.denominator - x2.numerator * x4.denominator)
    q = K.denominator * x2.denominator * x4.denominator
    q0, q6 = x0.denominator, x6.denominator
    return (x6.numerator * q0 - x0.numerator * q6) * q - p * (q0 * q6), q * q0 * q6


def operator_identity_residual(w: SequenceWindow, K, n: int):
    """lhs - rhs of the shift-operator identity on an arbitrary window.

    With L = S^{6k} - K (S^{4k} - S^{2k}) - 1 acting on sequences, the
    residual xi satisfies  L xi_n = M_n (L x)_n  for the displayed first-order
    operator M_n, for ANY window (solution or not) and any constant K.
    """
    k = w.spec.k
    a = w.spec.a

    def y(m):  # (L x)_m
        return linear_relation_residual(w, m, K)

    xi = raw_window(w.spec, n, [xi_residual(w, m) for m in range(n, n + 6 * k + 1)])
    lhs = linear_relation_residual(xi, n, K)  # (L xi)_n
    rhs = (w[n + 6 * k] * y(n + 2 * k + 1) - w[n + 6 * k + 1] * y(n + 2 * k)
           - w[n + 2 * k] * y(n + 1) + w[n + 2 * k + 1] * y(n)
           - a * (y(n + k + 1) + y(n + k)))
    return lhs - rhs


# -- symbolic first-integral machinery ----------------------------------------------

def k_after_phi(spec: RecurrenceSpec) -> LaurentPolynomial:
    """The pullback of K through one forward map step, as a Laurent polynomial.

    Evaluates the explicit formula on the shifted point (x1, ..., x{2k+1})
    over rational-function scalars and proves the result is a Laurent
    polynomial by exact division.  For a conserved quantity it equals
    ``k_formula(spec).K`` identically.
    """
    if not spec.symbolic_mode:
        raise ValueError("use numeric windows for the numeric first-integral check")
    shifted = [RationalFunction(v) for v in phi(spec.init, spec.a, spec.k)]
    return k_breakdown(shifted, RationalFunction(spec.a)).K.as_laurent()


def first_integral_proof_residuals(spec: RecurrenceSpec):
    """The three order-by-order identities behind the conservation proof.

    Each combines the explicit-iterate coefficient families with the P
    pieces of the conserved quantity and vanishes identically (checked per
    power of the parameter: orders 1, 2 and 3).
    """
    k = spec.k
    x = list(spec.init)
    ex = explicit_iterates(spec)
    kb = k_formula(spec)
    f1, f2 = ex.F1, ex.F2
    s_mid = x[k] + x[k + 1]
    i1 = (s_mid * (x[2 * k] / x[0] - kb.P0)
          + (x[1] * x[2 * k] / x[0]) * f1[-2 * k]
          + (x[0] * x[0] / x[2 * k]) * f1[2 * k + 1]
          - x[2 * k] * f1[-2 * k + 1])
    i2 = (f1[3 * k] + f1[3 * k + 1]
          + (x[1] * x[2 * k] / x[0]) * f2[-2 * k]
          + f1[2 * k + 1] * f1[-2 * k]
          - x[2 * k] * f2[-2 * k + 1]
          - s_mid * kb.P1)
    i3 = f2[3 * k + 1] + s_mid * (f2[-2 * k] / x[0] - kb.P2)
    return i1, i2, i3


def p_vs_iterates_residuals(spec: RecurrenceSpec):
    """(x_{2k} - x_0) * P_j - (F1/F2 at 4k minus at -2k), for j = 1 and 2."""
    k = spec.k
    x = list(spec.init)
    ex = explicit_iterates(spec)
    kb = k_formula(spec)
    gap = x[2 * k] - x[0]
    r1 = gap * kb.P1 - (ex.F1[4 * k] - ex.F1[-2 * k])
    r2 = gap * kb.P2 - (ex.F2[4 * k] - ex.F2[-2 * k])
    return r1, r2
