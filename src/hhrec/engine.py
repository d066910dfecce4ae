"""The order-(2k+1) rational recurrence and its two-sided iteration.

One step forward solves

    x[n+2k+1] * x[n] = x[n+2k] * x[n+1] + a * (x[n+k] + x[n+k+1])

for the left-hand iterate; one step backward solves the same relation for
``x[n]``.  Iterating in numeric mode divides exact rationals; in symbolic
mode every division goes through Laurent exact division and a failure aborts
with :class:`LaurentViolationError` (it would disprove the Laurent property,
so it must never be silent).

This nonlinear step is the definition.  It builds one fixed block of each
numeric spec, [-2k, 4k] (``RecurrenceSpec.block``), dividing by seed values
only; every other value comes from the linear relation x[n+6k] = K (x[n+4k]
- x[n+2k]) + x[n], with K from the explicit formula on the seed, run over
scaled integers so that no step takes a gcd.  The relation divides by
nothing: where the nonlinear step would divide by a zero iterate, it gives
the value of x_n as a Laurent polynomial in the seed and a.

Windows of the generic seed (``RecurrenceSpec.symbolic(k)``, the general
solution) take the same relation over Laurent polynomials once they leave
the centred block [-3k, 3k].  The nonlinear step builds that block, at most
3k steps from the seed, and a certificate is checked on it once per spec,
when a request first leaves it: (a) K after one map step is K, and
(b) the relation holds at n = -3k.  As x_j(phi^m X) = x_{j+m}(X), the
residual at -3k pulled back through m map steps is the residual at m - 3k
with the same K by (a), so (b) gives the relation at every n; a failure
raises :class:`CertificateError`.  Requests inside a block build by the
nonlinear step, and every other symbolic seed uses it throughout.

``export_window`` builds the windows that ``gen`` prints.  Past the 6k
values the relation starts from, it runs the same scaled relation over
``decimal.Decimal`` integers y in an exact context: Decimal add, subtract
and multiply by K's numerator and denominator take time linear in the
digits, and so does ``str``, where CPython's int-to-str is quadratic.  Each
value y/s, s = D Q^e, is reduced without a big gcd, since every prime that
y and s share divides D Q: the common factor comes out in gcds of ints
below 10^19, each after one short division of y (``_reduced``).  An
integer window has D = Q = 1 and skips the reduction.  Before the window is
returned, every value is checked against the relation over residues, modulo
2^61 - 1 or, where that divides a denominator, a smaller odd modulus
(``_guard_residues``); a mismatch raises :class:`ResidueMismatchError`.

Windows are immutable two-sided tables of iterates.  ``extend`` returns a new
window; a *raw* window wraps arbitrary values without the solution invariant
and exists for fault injection and identities that hold for any sequence.
A window caches the integers of its numeric Wronskian determinants (rows
scaled once by the lcm of their denominators, and the 2x2 minors of
consecutive rows), built one block of rows at a time where a read misses,
so a single read costs at most one block, and the periodic coefficients of
its 3-term relation, built from them once, or its symbolic Wronskian
determinants themselves (``invariants.WronskianTable``); a copy starts with
none.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field, replace
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    Context,
    Decimal,
    Inexact,
    InvalidOperation,
    Rounded,
    localcontext,
)
from fractions import Fraction
from functools import cached_property, partial
from typing import Iterable, Iterator, Sequence

from .errors import (
    CertificateError,
    LaurentViolationError,
    NonIntegerValueError,
    NotExactError,
    ResidueMismatchError,
    ZeroPivotError,
)
from .laurent import LaurentPolynomial, dot, variables
from .rational import format_rational, parse_rational, promote

# Decimal arithmetic on integers that must never round: a lost digit raises
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[Inexact, Rounded, InvalidOperation])
GUARD_PRIME = (1 << 61) - 1  # the first modulus of the residue checks, a Mersenne prime


@dataclass(frozen=True)
class RecurrenceSpec:
    """One instance of the recurrence: order parameter k, coefficient a, seed."""

    k: int
    a: "Fraction | LaurentPolynomial"
    init: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", promote(self.a))
        object.__setattr__(self, "init", tuple(promote(v) for v in self.init))
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if len(self.init) != 2 * self.k + 1:
            raise ValueError(f"need 2k+1 = {2 * self.k + 1} initial values, got {len(self.init)}")
        if not self.a:
            raise ValueError("the coefficient a must be nonzero")

    @classmethod
    def numeric(cls, k: int, a, init: Sequence) -> "RecurrenceSpec":
        return cls(k, Fraction(a), tuple(Fraction(v) for v in init))

    @classmethod
    def symbolic(cls, k: int) -> "RecurrenceSpec":
        """Generic initial data: init = (x0, ..., x2k) and a as variables."""
        if k < 1:  # checked here, as for k < 0 there are no generators to unpack
            raise ValueError("k must be >= 1")
        gens = variables(2 * k + 2)
        return cls(k, gens[-1], tuple(gens[:-1]))

    @property
    def symbolic_mode(self) -> bool:
        return isinstance(self.a, LaurentPolynomial)

    @cached_property
    def K(self):
        """The conserved quantity by the explicit formula on the seed, computed once."""
        from .invariants import k_breakdown  # deferred: invariants imports this module
        return k_breakdown(self.init, self.a).K

    @cached_property
    def block(self) -> "SequenceWindow | None":
        """The nonlinear step's window that the relation continues: a numeric
        seed's [-2k, 4k]; the generic seed's [-3k, 3k] once (b) and then (a)
        of the module docstring hold, else CertificateError naming the failed
        piece, which is not cached; None for other symbolic seeds."""
        if not self.symbolic_mode:
            return self.window()._grown(-2 * self.k, 4 * self.k, linear=False)
        if self != RecurrenceSpec.symbolic(self.k):
            return None
        from .invariants import k_after_phi, linear_relation_residual  # deferred, as in K
        n = -3 * self.k
        block = self.window()._grown(n, -n, linear=False)
        residual = linear_relation_residual(block, n, self.K)
        if residual:
            raise CertificateError("(b) x[n+6k] - K(x[n+4k]-x[n+2k]) - x[n] = 0", n, residual)
        residual = k_after_phi(self) - self.K
        if residual:
            raise CertificateError("(a) K after one map step == K", 0, residual)
        return block

    @property
    def order(self) -> int:
        return 2 * self.k + 1

    def reversed_init(self) -> "RecurrenceSpec":
        return replace(self, init=tuple(reversed(self.init)))

    def window(self) -> "SequenceWindow":
        """The minimal window [0, 2k] holding exactly the initial data."""
        return SequenceWindow(self, 0, tuple(self.init), raw=False)


@dataclass(frozen=True)
class SequenceWindow:
    """Contiguous table of iterates x_n for n in [lo, lo + len(values) - 1].

    A window that is not raw holds iterates of ``spec``'s own seed: ``extend``
    continues it with the linear relation whose K comes from ``spec.init``.
    Numeric values are Fractions, or, in a window from ``export_window``,
    Decimal integers and reduced ``_Quotient`` pairs; symbolic values are
    Laurent polynomials.
    """

    spec: RecurrenceSpec
    lo: int
    values: tuple
    raw: bool = False
    # lo + len(values) - 1, set once: ``__getitem__`` reads it on every call
    hi: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hi", self.lo + len(self.values) - 1)

    def __getitem__(self, n: int):
        if not self.lo <= n <= self.hi:
            raise IndexError(f"index {n} outside window [{self.lo}, {self.hi}]")
        return self.values[n - self.lo]

    def __contains__(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def covers(self, lo: int, hi: int) -> bool:
        return self.lo <= lo and hi <= self.hi

    def indices(self) -> range:
        return range(self.lo, self.hi + 1)

    def extend(self, new_lo: int | None = None, new_hi: int | None = None) -> "SequenceWindow":
        """Enlarge to [new_lo, new_hi] by forward and backward steps.

        A request that leaves the block, [-2k, 4k] if numeric, [-3k, 3k] if
        symbolic, is joined with ``spec.block`` and continued by the linear
        relation; others take the nonlinear step.  A printed window (from
        ``export_window``) joins the block's values as printed ones, so it
        keeps one value type.  Symbolic windows stop at
        |n| <= 6k + 6: their term counts grow steeply.
        """
        if self.raw:
            raise ValueError("raw windows are not solutions and cannot be extended")
        new_lo = self.lo if new_lo is None else min(new_lo, self.lo)
        new_hi = self.hi if new_hi is None else max(new_hi, self.hi)
        spec = self.spec
        k = spec.k
        if spec.symbolic_mode:
            cap = 6 * k + 6
            if new_lo < -cap or new_hi > cap:
                raise ValueError(f"symbolic window [{new_lo}, {new_hi}] exceeds cap |n| <= {cap}")
        b = 3 * k if spec.symbolic_mode else 2 * k  # the block is [-b, 6k - b]
        w, linear = self, False
        if new_lo < -b or new_hi > 6 * k - b:
            block = spec.block  # built, and certified or refused, before any value
            if block is not None:
                if isinstance(self.values[0], (Decimal, _Quotient)):  # a printed window
                    block = SequenceWindow(spec, block.lo, tuple(map(_printable, block.values)))
                # both hold [0, 2k], so their union is one window of the solution
                lo, hi = min(self.lo, block.lo), max(self.hi, block.hi)
                w = SequenceWindow(spec, lo, tuple(self[n] if n in self else block[n]
                                                   for n in range(lo, hi + 1)))
                linear = True
        w = w._grown(new_lo, new_hi, linear)
        return SequenceWindow(spec, new_lo, w.values[new_lo - w.lo:new_hi - w.lo + 1])

    def _grown(self, new_lo: int, new_hi: int, linear: bool) -> "SequenceWindow":
        """The window over [min(lo, new_lo), max(hi, new_hi)]; ``linear`` as in
        ``_iterate``.  Decimal values are built in ``_EXACT``, whatever the
        caller's context."""
        lo, hi = min(self.lo, new_lo), max(self.hi, new_hi)
        fwd = list(self.values)
        with localcontext(_EXACT):
            _iterate(fwd, self.spec, hi - self.hi, lambda j: self.lo + j, linear)
            # backward is the forward step on the reversed window
            bwd = fwd[::-1]
            _iterate(bwd, self.spec, self.lo - lo, lambda j: hi - j, linear)
        return SequenceWindow(self.spec, lo, tuple(reversed(bwd[len(fwd):])) + tuple(fwd))

    @cached_property
    def wronskian_table(self):
        """The integer rows and pair minors of this window's numeric Wronskian
        determinants, filled a block of rows at a time as reads miss, and its
        periodic coefficients, or its symbolic determinants
        (``invariants.WronskianTable``); a copy starts with none."""
        from .invariants import WronskianTable  # deferred, as in RecurrenceSpec.K
        return WronskianTable(self)

    def with_value(self, n: int, value) -> "SequenceWindow":
        """A raw copy with one entry overwritten (for fault injection tests)."""
        self[n]  # IndexError outside the window
        vals = list(self.values)
        vals[n - self.lo] = value
        return SequenceWindow(self.spec, self.lo, tuple(vals), raw=True)


def _step(block: Sequence, a, pivot: int, target: int):
    """The one solve of the recurrence for a new iterate.

    ``block`` holds the 2k+1 previous values in stepping order, the divisor
    first: (x_n, ..., x_{n+2k}) for a forward step to x_{n+2k+1}, or the
    reversed (x_{n+2k+1}, ..., x_{n+1}) for a backward step to x_n.
    ``pivot`` and ``target`` are the indices of the divisor and of the new
    value, named in the errors.

    Where ``a`` and the five values the step reads are Fractions, the new
    value is one Fraction of cross-multiplied numerators and denominators,
    so it takes one gcd, not one per operation; any other scalars (Laurent
    polynomials) take the ring formula with the ring's exact ``/``.
    """
    k = len(block) // 2
    x0, x1, xk, xk1, x2k = block[0], block[1], block[k], block[k + 1], block[2 * k]
    if not x0:
        raise ZeroPivotError(pivot)
    if type(a) is type(x0) is type(x1) is type(xk) is type(xk1) is type(x2k) is Fraction:
        # x_{2k} x_1 = p / q and a (x_k + x_{k+1}) = s / t
        p, q = x2k.numerator * x1.numerator, x2k.denominator * x1.denominator
        s = a.numerator * (xk.numerator * xk1.denominator + xk1.numerator * xk.denominator)
        t = a.denominator * xk.denominator * xk1.denominator
        return Fraction((p * t + s * q) * x0.denominator, q * t * x0.numerator)
    try:
        return (x2k * x1 + a * (xk + xk1)) / x0
    except NotExactError as exc:
        raise LaurentViolationError(target) from exc


def _iterate(seq: list, spec: RecurrenceSpec, count: int, index, linear: bool) -> None:
    """Append ``count`` iterates to ``seq``, a window in stepping order whose
    j-th entry is x_{index(j)}: by ``_step`` alone, or, if ``linear`` is set,
    by the linear relation alone.  From [0, 2k] to the block [-2k, 4k],
    ``_step`` divides by seed values only: x_0..x_{2k-1} forward, x_{2k}..x_1
    backward.

    The relation x[j] = K (x[j-2k] - x[j-4k]) + x[j-6k], which has this form
    in both stepping directions, continues from the last 6k values in
    ``seq``, and divides by nothing.  A window of Fractions runs it over the
    integers y[j] = D Q^(j // 2k) x[j]; here K = P/Q, j counts from the
    first of those 6k values, and D is the lcm of their denominators:

        y[j] = P (y[j-2k] - Q y[j-4k]) + Q^3 y[j-6k]

    No step takes a gcd; each output is one Fraction(y[j], D Q^(j // 2k)), or
    Fraction(y[j]) when D = Q = 1.
    A window from ``export_window``, of Decimal integers and ``_Quotient``
    pairs, runs the same lines over Decimal integers (``_grown`` runs it in
    ``_EXACT``), with P, Q and the scale made Decimals once, and each output
    is ``_reduced(y[j], D Q^(j // 2k))``, or y[j] itself when D = Q = 1.
    A symbolic window, whose K is a Laurent polynomial, runs them with P = K
    and Q = D = 1, so y is x itself.
    """
    k, order, first = spec.k, spec.order, len(seq)
    if not linear:
        for j in range(first, first + count):
            seq.append(_step(seq[-order:], spec.a, index(j - order), index(j)))
    if not linear or not count:
        return
    K = spec.K
    start = seq[-6 * k:]
    if spec.symbolic_mode:
        p, q, scale, emit = K, 1, 1, _identity
        y = deque(start, maxlen=6 * k)
    else:
        p, q = K.numerator, K.denominator
        parts = [_parts(v) for v in start]
        scale = math.lcm(*(int(den) for _, den in parts))
        y = deque((num * (scale // int(den) * q ** (i // (2 * k)))
                   for i, (num, den) in enumerate(parts)), maxlen=6 * k)
        h = scale * q
        if isinstance(start[0], Fraction):
            # Fraction(y, 1) would pay a gcd and copy y
            emit = Fraction if h != 1 else _whole
        else:
            # every prime that y and s = D Q^e share divides h = D Q
            emit = _identity if h == 1 else _reducer(h, q)
            # Decimal operands once here, not an int conversion in every operation
            p, q, scale = Decimal(p), Decimal(q), Decimal(scale)
        scale *= q ** 2  # the scale of y[4k..6k-1]
    q3, unit = q ** 3, q == 1
    two, four = 2 * k, 4 * k
    for j in range(first, first + count):
        # y holds the scaled x_{index(j-6k)}..x_{index(j-1)}
        # with Q = 1 the products by Q would only copy y
        y.append(p * (y[four] - y[two]) + y[0] if unit
                 else p * (y[four] - q * y[two]) + q3 * y[0])
        if (j - first) % two == 0:
            scale *= q
        seq.append(emit(y[-1], scale))


def _identity(v, scale):
    return v


def _whole(v, scale):
    return Fraction(v)


@dataclass(frozen=True, slots=True)
class _Quotient:
    """A value of a printed window that is no integer: numerator/denominator
    in lowest terms, two Decimal integers with denominator > 1, so that
    ``str`` takes time linear in the digits."""

    numerator: Decimal
    denominator: Decimal

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


def _parts(v) -> tuple:
    """(numerator, denominator) of a Fraction, a Decimal integer or a _Quotient."""
    return (v, 1) if isinstance(v, Decimal) else (v.numerator, v.denominator)


def _printable(v: Fraction) -> "Decimal | _Quotient":
    """A Fraction as a value of a printed window."""
    if v.denominator == 1:
        return Decimal(v.numerator)
    return _Quotient(Decimal(v.numerator), Decimal(v.denominator))


def _reduced(y: Decimal, s: Decimal, H: int, Hd: Decimal) -> "Decimal | _Quotient":
    """y/s in lowest terms, for Decimal integers y and s > 0 and H > 1 such
    that every prime dividing both y and s divides H; Hd is H as a Decimal.

    The common factor is taken out in pieces g = gcd(y, s, H), each a gcd of
    ints below H: ``y % Hd`` is a short division while H fits in one word.
    A prime p of g can still divide both quotients only if g took all of
    p's power in H; otherwise one piece is all of gcd(y, s).
    """
    g = math.gcd(int(y % Hd), int(s % Hd), H)
    while g > 1:
        y, s = y // g, s // g
        left, rest = g, H // g
        while (c := math.gcd(left, rest)) > 1:
            left //= c
        if left == 1:  # every prime of g keeps some power in H // g
            break
        g = math.gcd(int(y % Hd), int(s % Hd), H)
    return y if s == 1 else _Quotient(y, s)


def _reducer(h: int, q: int = 1):
    """``_reduced`` for y/s whose shared primes all divide h > 1, with H one
    word filled with powers of h, then of q, which s may gain as it grows."""
    H = h
    while H * h < 10 ** 19:
        H *= h
    while q > 1 and H * q < 10 ** 19:
        H *= q
    return partial(_reduced, H=H, Hd=Decimal(H))


def _guard_residues(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(p, [v mod p for v in values]): p is GUARD_PRIME if it is coprime to
    every denominator, else the first odd number below it that is and passes
    the base-2 Fermat test (a pseudoprime serves too: the denominators are units)."""
    p = GUARD_PRIME
    while any(math.gcd(v.denominator, p) > 1 for v in values):
        p -= 2
        while pow(2, p - 1, p) != 1:  # GUARD_PRIME, a prime, skips the test
            p -= 2
    return p, [v.numerator * pow(v.denominator, -1, p) % p for v in values]


def _check_agreement(p: int, checks: Iterable) -> None:
    """Raise ResidueMismatchError at the first (n, v, res) of ``checks`` whose
    Decimal integer or ``_Quotient`` v = num/den has num != res den modulo p.
    Each ``v % p`` is taken in ``_EXACT``, with p as a Decimal built once."""
    pd = Decimal(p)
    with localcontext(_EXACT):
        for n, v, res in checks:
            if (int(v % pd) % p != res if type(v) is Decimal  # an integer: its denominator is 1
                    else int(v.numerator % pd) % p != res * int(v.denominator % pd) % p):
                raise ResidueMismatchError(n, p)


def raw_window(spec: RecurrenceSpec, lo: int, values: Sequence) -> SequenceWindow:
    """A window over arbitrary values, exempt from the solution invariant."""
    return SequenceWindow(spec, lo, tuple(promote(v) for v in values), raw=True)


def xi_residual(w: SequenceWindow, n: int):
    """The defining residual; identically 0 on any window produced by extend.

    xi_n = | x_n      x_{n+2k}   |  -  a * (x_{n+k} + x_{n+k+1})
           | x_{n+1}  x_{n+2k+1} |

    A symbolic window sums the three products with ``laurent.dot``, which
    builds none of them.  A numeric window cross-multiplies the numerators
    and denominators of its Fractions into one integer numerator over one
    denominator (``_xi_parts``), which is 0 exactly when xi_n is: a numeric
    sweep tests that integer, and the residual is that Fraction.
    """
    if w.spec.symbolic_mode:
        k = w.spec.k
        return dot((w[n], -w[n + 1], -w.spec.a),
                   (w[n + 2 * k + 1], w[n + 2 * k], w[n + k] + w[n + k + 1]))
    return Fraction(*_xi_parts(w, n))


def _xi_parts(w: SequenceWindow, n: int) -> tuple[int, int]:
    """(numerator, denominator > 0) of xi_n on a window of Fractions, with
    no gcd: the three products as integer pairs over one common denominator."""
    k, a = w.spec.k, w.spec.a
    x0, x1, x2k1, x2k = w[n], w[n + 1], w[n + 2 * k + 1], w[n + 2 * k]
    xk, xk1 = w[n + k], w[n + k + 1]
    p0, q0 = x0.numerator * x2k1.numerator, x0.denominator * x2k1.denominator
    p1, q1 = x1.numerator * x2k.numerator, x1.denominator * x2k.denominator
    p2 = a.numerator * (xk.numerator * xk1.denominator + xk1.numerator * xk.denominator)
    q2 = a.denominator * xk.denominator * xk1.denominator
    return (p0 * q1 - p1 * q0) * q2 - p2 * (q0 * q1), q0 * q1 * q2


def apply_sigma(w: SequenceWindow) -> SequenceWindow:
    """The reversal pullback: the window of y_n = x_{2k-n}.

    The image is a valid solution window of the spec with reversed initial
    data; applying sigma twice restores the original window.
    """
    k = w.spec.k
    spec = w.spec.reversed_init()
    new_lo = 2 * k - w.hi
    return SequenceWindow(spec, new_lo, tuple(reversed(w.values)), raw=w.raw)


def phi(point: Sequence, a, k: int) -> tuple:
    """One application of the forward map on a phase-space point."""
    if len(point) != 2 * k + 1:
        raise ValueError("point must have 2k+1 coordinates")
    point = tuple(promote(v) for v in point)
    return point[1:] + (_step(point, promote(a), 0, 2 * k + 1),)


def phi_inverse(point: Sequence, a, k: int) -> tuple:
    """One application of the inverse map on a phase-space point."""
    if len(point) != 2 * k + 1:
        raise ValueError("point must have 2k+1 coordinates")
    point = tuple(promote(v) for v in point)
    return (_step(point[::-1], promote(a), 2 * k, -1),) + point[:2 * k]


def check_reversibility(spec: RecurrenceSpec) -> bool:
    """Exact test that the maps invert each other on the seed p:
    phi_inverse(phi(p)) == p and phi(phi_inverse(p)) == p.

    The round trips divide by x_{2k+1} and x_{-1}; where either is zero
    they raise ZeroPivotError.
    """
    p, a, k = spec.init, spec.a, spec.k
    return phi_inverse(phi(p, a, k), a, k) == p and phi(phi_inverse(p, a, k), a, k) == p


# -- sequence export / import -------------------------------------------------

def export_window(spec: RecurrenceSpec, lo: int, hi: int) -> SequenceWindow:
    """The window [lo, hi] of a numeric spec, lo <= 0 and hi >= 2k, to be printed.

    Its values are those of ``spec.window().extend(lo, hi)``.  The 6k values
    the relation starts from are Fractions of that window; past them,
    ``_grown`` runs the relation over Decimal integers y, never mixing in a
    Fraction, and each value is y/s reduced (``_reduced``): a Decimal for an
    integer, else a ``_Quotient``.  ``_check_residues`` checks each value
    before it returns, for every seed.

    The window is for printing.  Extending it joins it with the spec's
    Fraction block, and a rational one converts its Decimal denominators
    back to ints, in time quadratic in the digits; to print a wider window,
    extend ``spec.window()`` and export that instead.
    """
    k = spec.k
    block = spec.window().extend(max(lo, min(0, hi - 6 * k + 1)), min(hi, 6 * k - 1))
    if block.covers(lo, hi):
        return block
    w = SequenceWindow(spec, block.lo, tuple(map(_printable, block.values)))._grown(lo, hi, True)
    _check_residues(w, block)
    return w


def _check_residues(w: SequenceWindow, block: SequenceWindow) -> None:
    """Raise ResidueMismatchError unless each value num/den of ``w`` is,
    modulo p, the linear relation run from the values of ``block``:
    num = r_n den for the relation's residue r_n.

    A loop of its own over residues, apart from ``_iterate``, in time linear
    in the digits: an independent check of the Decimal route and of the
    divisions of its reduction, though not that a pair is in lowest terms.
    The residues are a list whose i-th entry is r_{w.lo + i}.  The only
    inverses are those of K's denominator and the block's, which choose p
    (``_guard_residues``).
    """
    k, first = w.spec.k, block.lo - w.lo
    p, (K, *r) = _guard_residues((w.spec.K, *block.values))
    r = [0] * first + r
    for i in range(len(r), len(w.values)):
        r.append((K * (r[i - 2 * k] - r[i - 4 * k]) + r[i - 6 * k]) % p)
    for i in range(first - 1, -1, -1):
        r[i] = (K * (r[i + 2 * k] - r[i + 4 * k]) + r[i + 6 * k]) % p
    _check_agreement(p, zip(w.indices(), w.values, r))


def window_rows(w: SequenceWindow, lo: int | None = None, hi: int | None = None) -> list[tuple[int, object]]:
    lo = w.lo if lo is None else lo
    hi = w.hi if hi is None else hi
    if lo <= hi:
        w[lo], w[hi]  # IndexError outside the window
    return list(zip(range(lo, hi + 1), w.values[lo - w.lo:hi - w.lo + 1]))


def render_pieces(rows: Sequence[tuple[int, object]], form: str) -> Iterator[str]:
    """The text of ``render_<form>(rows)`` as the head, one string per row
    and, for JSON, the closing bracket, so that a writer holds one row's text
    at a time.  For a b-file, every value is checked to be an integer before
    the head.

    A JSON row is written as ``json.dumps`` writes the dict {"n": n, "value":
    text}, with ", " in front of every row after the first: the canonical
    text of a value has no character JSON escapes."""
    if form == "bfile":
        for n, v in rows:
            # Decimal values are integers by construction; a Laurent polynomial has no denominator
            if not isinstance(v, Decimal) and getattr(v, "denominator", None) != 1:
                raise NonIntegerValueError(f"value at n={n} is not an integer: {format_rational(v)}")
    yield {"csv": "n,value\n", "json": "[", "bfile": ""}[form]
    if form == "json":
        comma = ""
        for n, v in rows:
            yield f'{comma}{{"n": {n}, "value": "{format_rational(v)}"}}'
            comma = ", "
        yield "]\n"
    else:
        sep = "," if form == "csv" else " "
        for n, v in rows:
            yield f"{n}{sep}{format_rational(v)}\n"


def render_csv(rows: Sequence[tuple[int, object]]) -> str:
    return "".join(render_pieces(rows, "csv"))


def render_json(rows: Sequence[tuple[int, object]]) -> str:
    return "".join(render_pieces(rows, "json"))


def render_bfile(rows: Sequence[tuple[int, object]]) -> str:
    """OEIS-style b-file ``n value``; every value must be an integer."""
    return "".join(render_pieces(rows, "bfile"))


def parse_sequence(text: str) -> list[tuple[int, Fraction]]:
    """Read any of the three export formats back as (n, value) pairs."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty sequence input")
    if stripped.startswith("["):
        return [_json_row(item) for item in json.loads(stripped)]
    rows = []
    for line in stripped.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "," in line:
            left, right = line.split(",", 1)
            if left.strip() == "n":
                continue  # csv header
            rows.append((int(left), parse_rational(right.strip())))
        else:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"cannot parse sequence line: {line!r}")
            rows.append((int(parts[0]), parse_rational(parts[1])))
    return rows


def _json_row(item) -> tuple[int, Fraction]:
    """One ``{"n": ..., "value": ...}`` item of the JSON format as an (n, value) pair."""
    if not isinstance(item, dict) or "n" not in item or "value" not in item:
        raise ValueError(f'each sequence item needs "n" and "value": {json.dumps(item)}')
    n = item["n"]
    if isinstance(n, bool) or not isinstance(n, (int, str)):
        raise ValueError(f"index n must be an integer, got {json.dumps(n)}")
    return int(n), parse_rational(str(item["value"]))


def contiguous_values(rows: Sequence[tuple[int, Fraction]]) -> tuple[int, list[Fraction]]:
    """Validate that indices are contiguous; return (lo, values)."""
    if not rows:
        raise ValueError("no rows")
    rows = sorted(rows)
    lo = rows[0][0]
    for offset, (n, _) in enumerate(rows):
        if n != lo + offset:
            raise ValueError(f"sequence indices are not contiguous near n={n}")
    return lo, [v for _, v in rows]
