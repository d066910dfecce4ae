"""Determinants of small exact square matrices, given as lists of rows.

Entries are any exact scalar with ring arithmetic, exact ``/`` and a
``bool()`` zero test (Fraction, LaurentPolynomial or RationalFunction), and
outside Fractions a ``len()``, the entry's number of terms; plain ints are
promoted to Fraction, since int / int is a float, and floats and
Decimals are refused with TypeError (a Decimal would round in its context).
Three independent determinant routines are provided:

* Bareiss fraction-free elimination -- the production route behind
  ``matrix_det`` at every size; interior divisions are exact in the entry
  ring by Sylvester's identity.  A matrix of Fractions runs over the
  integers, as Bareiss intended, in two steps: ``scale_row`` gives a row's
  scale s, the lcm of its denominators, and the integers s*x; ``det_scaled``
  eliminates the integer rows, every stage dividing with exact ``//`` (no
  gcd), and returns ``Fraction(det, product of the scales)``.  Any other
  matrix (Laurent polynomials or RationalFunctions) runs with the
  ring's exact ``/`` and pivots, at each stage, on the nonzero entry of the
  trailing block with the fewest terms, by ``len``: a Wronskian block often
  has a one-term monomial two columns from an 80-term diagonal entry.
  Bareiss is exact under any row and column permutation, and choosing the
  pivots as the stages go is the same as permuting the matrix up front, so
  every interior division stays exact; each swap flips the sign.  The
  integer route keeps a search down the pivot's column only: pivoting its
  small blocks on bit length cost more in the search than it saved;
* cofactor expansion -- the brute-force oracle, any size;
* Dodgson condensation -- repeated 2x2 condensation divided by the interior
  of the grandparent stage; fails when an interior entry vanishes.

Cofactor and Dodgson are reference routes: tests compare the production
route against them, and no production code calls them.  One condensation
step does run in production, inside ``invariants``: a symbolic 4x4
Wronskian is the Desnanot-Jacobi identity, the one behind Bareiss's exact
divisions, applied once to its four corner 3x3 minors (``_condensed_w4``),
with ``matrix_det`` of the block where the central 2x2 minor vanishes.
``mat_mul`` is the matrix product of the monodromy route, whose companion
matrices it multiplies over the integers (``scale_row`` of each step's
coefficients).  The numeric Wronskians take no elimination: each is one
sum over integer rows and their 2x2 minors (``invariants.WronskianTable``,
``scale_row`` of each row).
"""

from __future__ import annotations

import math
import operator
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

from .rational import promote


class ZeroMinorError(Exception):
    """Dodgson condensation hit a zero interior minor; use another algorithm."""


def _square_rows(rows: Sequence[Sequence]) -> list[list]:
    """A fresh copy of a square matrix's rows, plain ints promoted to Fraction.

    Refuses an empty, ragged or non-square input with ValueError, and a float
    or Decimal entry with TypeError.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("determinant of an empty matrix")
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise ValueError("ragged rows")
    if widths != {n}:
        raise ValueError(f"determinant of a non-square {n}x{widths.pop()} matrix")
    a = [[promote(v) for v in r] for r in rows]
    if any(isinstance(v, Decimal) for r in a for v in r):
        raise TypeError("Decimal entries would round in the decimal context")
    return a


def det_cofactor(rows: Sequence[Sequence]):
    """Determinant by cofactor expansion along the first row (oracle)."""

    def rec(rs):
        size = len(rs)
        if size == 1:
            return rs[0][0]
        if size == 2:
            return rs[0][0] * rs[1][1] - rs[0][1] * rs[1][0]
        total = None
        for j in range(size):
            minor = [[row[c] for c in range(size) if c != j] for row in rs[1:]]
            term = rs[0][j] * rec(minor)
            if j % 2:
                term = -term
            total = term if total is None else total + term
        return total

    return rec(_square_rows(rows))


def det_bareiss(rows: Sequence[Sequence]):
    """Fraction-free Gaussian elimination; divisions are exact in the ring.

    A matrix of Fractions runs over the integers, by ``det_scaled`` of its
    ``scale_row`` pairs; any other pivots on the entry with the fewest terms.
    """
    a = _square_rows(rows)
    if not all(isinstance(v, Fraction) for row in a for v in row):
        return _eliminate(a, operator.truediv, _fewest_terms)
    return det_scaled([scale_row(r) for r in a])


def scale_row(row: Sequence) -> tuple[int, tuple[int, ...]]:
    """(s, ints): s the lcm of the denominators of a row of Fractions or ints,
    and ints the row times s.  Refuses any other entry with TypeError."""
    for v in row:
        if not isinstance(v, (Fraction, int)):
            raise TypeError(f"a {type(v).__name__} entry is not a Fraction or int")
    s = math.lcm(*(v.denominator for v in row))
    # a product by s // v.denominator = 1 would copy a big numerator
    return s, tuple(v.numerator if v.denominator == s else v.numerator * (s // v.denominator)
                    for v in row)


def det_scaled(rows: Sequence[tuple[int, Sequence[int]]]):
    """The determinant of the rows ints/s, given as ``scale_row`` pairs (s, ints):
    the integer determinant, every stage dividing with exact ``//``, over the
    product of the scales.  The pairs are left as they are."""
    det = _eliminate([list(ints) for _, ints in rows], operator.floordiv, _first_in_column)
    return Fraction(det, math.prod(s for s, _ in rows))


def _first_in_column(a: list[list], k: int) -> int:
    """Stage k's pivot search over the integers: keep a[k][k] if nonzero, else
    swap in the first row below with a nonzero entry in column k.  The sign of
    the swap, or 0 when the column is zero."""
    if a[k][k]:
        return 1
    for i in range(k + 1, len(a)):
        if a[i][k]:
            a[k], a[i] = a[i], a[k]
            return -1
    return 0


def _fewest_terms(a: list[list], k: int) -> int:
    """Stage k's pivot search over a ring: swap the nonzero entry of the
    trailing block (rows and columns k..) with the fewest terms, by ``len``,
    into place, the first in row order on a tie.  The sign of the swaps, or 0
    when the block is zero."""
    n = len(a)
    sizes = [(len(a[i][j]), i, j) for i in range(k, n) for j in range(k, n) if a[i][j]]
    if not sizes:
        return 0
    _, i, j = min(sizes)
    a[k], a[i] = a[i], a[k]
    for row in a[k:]:
        row[k], row[j] = row[j], row[k]
    return -1 if (i == k) != (j == k) else 1


def _eliminate(a: list[list], div, pivot):
    """Bareiss elimination in place on ``a``; ``div`` is the ring's exact
    division.  ``pivot(a, k)`` swaps stage k's pivot into a[k][k] and returns
    the sign of its swaps, or 0 when the determinant is 0."""
    n = len(a)
    sign = 1
    prev = None  # pivot of the previous stage
    for k in range(n - 1):
        flip = pivot(a, k)
        if not flip:
            return a[k][k]  # a zero column or block: the determinant is this zero
        sign *= flip
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                elt = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = elt if prev is None else div(elt, prev)
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return -det if sign < 0 else det


def det_dodgson(rows: Sequence[Sequence]):
    """Determinant by condensation; raises ZeroMinorError on a zero interior."""
    outer = _square_rows(rows)
    inner = outer if len(outer) == 1 else _condense(outer, None)
    while len(inner) > 1:
        interior = [row[1:-1] for row in outer[1:-1]]
        nxt = _condense(inner, interior)
        outer, inner = inner, nxt
    return inner[0][0]


def _condense(a, divisors):
    size = len(a) - 1
    out = []
    for i in range(size):
        row = []
        for j in range(size):
            v = a[i][j] * a[i + 1][j + 1] - a[i][j + 1] * a[i + 1][j]
            if divisors is not None:
                d = divisors[i][j]
                if not d:
                    raise ZeroMinorError(f"zero interior minor at ({i}, {j})")
                v /= d
            row.append(v)
        out.append(row)
    return out


def matrix_det(rows: Sequence[Sequence]):
    """Exact determinant of a square list of rows, by Bareiss elimination."""
    return det_bareiss(rows)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """The product of two matrices given as lists of rows, over any ring."""
    return [[sum(map(operator.mul, row, col)) for col in zip(*b)] for row in a]


def solve_exact(a_rows: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> list[Fraction] | None:
    """One exact solution of A x = b (free variables set to 0), or None.

    Plain Gauss-Jordan over Fraction with partial structure only -- the
    systems here are tiny.  Returns None when the system is inconsistent.
    """
    nrows = len(a_rows)
    if nrows == 0:
        return []
    ncols = len(a_rows[0])
    aug = [[promote(v) for v in row] + [promote(b[i])] for i, row in enumerate(a_rows)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [vi - f * vr for vi, vr in zip(aug[i], aug[r])]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row, col in pivots:
        x[col] = aug[row][ncols]
    return x
