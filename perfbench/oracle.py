"""Reference computations the benchmark checks the program's outputs against.

Everything here uses the standard library's ``Fraction`` only and imports
nothing from ``hhrec``, so a fault in the package cannot hide itself by
agreeing with its own check.  The recurrence is

    x[n+2k+1] * x[n] = x[n+2k] * x[n+1] + a * (x[n+k] + x[n+k+1]),

and every solution also satisfies the linear relation
``x[n+6k] = K * (x[n+4k] - x[n+2k]) + x[n]`` with a conserved K.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


def iterate(k: int, a, init, lo: int, hi: int) -> dict[int, Fraction]:
    """x_n for lo <= n <= hi by the defining recurrence, run both ways.

    Raises ZeroDivisionError when a step divides by a zero iterate.
    """
    a = Fraction(a)
    x = {n: Fraction(v) for n, v in enumerate(init)}
    for m in range(2 * k + 1, hi + 1):
        x[m] = (x[m - 1] * x[m - 2 * k] + a * (x[m - k - 1] + x[m - k])) / x[m - 2 * k - 1]
    for n in range(-1, lo - 1, -1):
        x[n] = (x[n + 2 * k] * x[n + 1] + a * (x[n + k] + x[n + k + 1])) / x[n + 2 * k + 1]
    return {n: x[n] for n in range(min(lo, 0), max(hi, 2 * k) + 1)}


def relation_holds(k: int, a: Fraction, x, n: int) -> bool:
    """The defining relation at n over ``x``, a mapping n -> (numerator, denominator).

    Cross-multiplied to integers, so no gcd is taken.
    """
    (p0, q0), (p1, q1) = x[n], x[n + 1]
    (pk, qk), (pk1, qk1) = x[n + k], x[n + k + 1]
    (p2k, q2k), (p2k1, q2k1) = x[n + 2 * k], x[n + 2 * k + 1]
    A, B = a.numerator, a.denominator
    lhs = p2k1 * p0 * q2k * q1 * B * qk * qk1
    rhs = q2k1 * q0 * (p2k * p1 * B * qk * qk1 + A * (pk * qk1 + pk1 * qk) * q2k * q1)
    return lhs == rhs


def k_ratio(k: int, x) -> Fraction:
    """K = (x[4k] - x[-2k]) / (x[2k] - x[0]), else the same ratio shifted by 2k.

    ``x`` must cover [-2k, 6k].  Raises ZeroDivisionError when both
    denominators vanish.
    """
    for base in (0, 2 * k):
        den = x[base + 2 * k] - x[base]
        if den:
            return (x[base + 4 * k] - x[base - 2 * k]) / den
    raise ZeroDivisionError("both ratio denominators vanish")


def _mat_mul(p, q):
    return [[sum(p[i][t] * q[t][j] for t in range(3)) for j in range(3)] for i in range(3)]


def _mat_pow(m, e: int):
    out = [[int(i == j) for j in range(3)] for i in range(3)]
    while e:
        if e & 1:
            out = _mat_mul(out, m)
        e >>= 1
        if e:
            m = _mat_mul(m, m)
    return out


def x_at(k: int, K, x, n: int) -> Fraction:
    """x_n for any n from x over [-2k, 4k-1], by the linear relation.

    Along j = n mod 2k the values y_i = x[j + 2k*i] satisfy
    y[i+3] = K (y[i+2] - y[i+1]) + y[i]; the 3x3 companion matrix of that
    relation (or its inverse, for negative i) is raised to a power by
    repeated squaring.  With K = P/Q it is Q times an integer matrix, so the
    power is taken over the integers and divided once at the end.
    """
    K = Fraction(K)
    P, Q = K.numerator, K.denominator
    j, m = n % (2 * k), n // (2 * k)
    state = (x[j - 2 * k], x[j], x[j + 2 * k])  # y_{-1}, y_0, y_1
    D = math.lcm(*(v.denominator for v in state))
    ints = [int(v * D) for v in state]
    if m >= 0:
        step = [[0, Q, 0], [0, 0, Q], [Q, -P, P]]
    else:
        step = [[P, -P, Q], [Q, 0, 0], [0, Q, 0]]
    row = _mat_pow(step, abs(m))[1]
    return Fraction(sum(c * v for c, v in zip(row, ints)), D * Q ** abs(m))


def poly_mul(p, q) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def target_charpoly(k: int, K) -> list[Fraction]:
    """(S^2k - 1)(S^4k - (K-1) S^2k + 1), coefficients by descending power."""
    left = [Fraction(1)] + [Fraction(0)] * (2 * k - 1) + [Fraction(-1)]
    right = ([Fraction(1)] + [Fraction(0)] * (2 * k - 1) + [1 - Fraction(K)]
             + [Fraction(0)] * (2 * k - 1) + [Fraction(1)])
    return poly_mul(left, right)


def poly_divides(d, p) -> bool:
    """Whether d divides p (descending coefficients, d with nonzero lead)."""
    r = [Fraction(v) for v in p]
    d = [Fraction(v) for v in d]
    while len(r) >= len(d):
        f = r[0] / d[0]
        for i in range(len(d)):
            r[i] -= f * d[i]
        r.pop(0)
    return not any(r)


def annihilates(charpoly, values) -> bool:
    """Whether sum_i c_i * v[n+L-i] = 0 for every n the values allow."""
    c = [Fraction(v) for v in charpoly]
    order = len(c) - 1
    return all(sum(c[i] * values[n + order - i] for i in range(order + 1)) == 0
               for n in range(len(values) - order))


def det(rows) -> Fraction:
    """Determinant by cofactor expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, v in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * v * det(minor)
    return total


_FACTOR_RE = re.compile(r"(?:(\d+)|(x\d+|a)(?:\^(-?\d+))?)")


def eval_laurent(text: str, point) -> Fraction:
    """Value of a polynomial in the canonical ``c*x0^e0*...*a^e`` text form.

    Terms are joined by `` + `` and `` - ``; ``point`` maps variable names
    (``x0``, ``x1``, ..., ``a``) to rationals.
    """
    parts = re.split(r" ([+-]) ", text.strip())
    total = Fraction(0)
    for sign, body in zip(["+"] + parts[1::2], parts[0::2]):
        term = Fraction(-1 if sign == "-" else 1)
        if body.startswith("-"):
            term, body = -term, body[1:]
        for factor in body.split("*"):
            m = _FACTOR_RE.fullmatch(factor)
            if m is None:
                raise ValueError(f"not a canonical factor: {factor!r}")
            if m.group(1) is not None:
                term *= int(m.group(1))
            else:
                term *= Fraction(point[m.group(2)]) ** int(m.group(3) or 1)
        total += term
    return total


def parse_rows(text: str, form: str) -> list[tuple[int, int, int]]:
    """(n, numerator, denominator) rows of a ``gen`` output in csv, json or bfile form."""
    if form == "json":
        import json
        pairs = [(r["n"], r["value"]) for r in json.loads(text)]
    else:
        lines = text.splitlines()
        if form == "csv":
            if lines[0] != "n,value":
                raise ValueError("csv output lacks its header")
            pairs = [line.split(",") for line in lines[1:]]
        else:
            pairs = [line.split(" ") for line in lines]
    rows = []
    for n, v in pairs:
        num, _, den = v.partition("/")
        if form == "bfile" and den:
            raise ValueError(f"b-file value is not an integer: {v!r}")
        rows.append((int(n), int(num), int(den or 1)))
    return rows
