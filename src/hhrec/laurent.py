"""Sparse multivariate Laurent polynomials over the integers.

The ring is Z[x0^{+-1}, ..., x{2k}^{+-1}, a]: the x-variables are invertible,
the parameter ``a`` is an ordinary (non-invertible) variable kept in the last
exponent position.  A polynomial is a map from monomials to nonzero integer
coefficients; the zero polynomial is the empty map.  Two values are equal iff
their term maps are identical, so equality testing is exact and cheap.

Term order is graded: compare total degree first, then the exponent tuple
lexicographically from position 0.  The order fixes the canonical text form
and the leading-term choice inside exact division.

Each monomial is stored packed into one int (Kronecker substitution): the
exponents are signed 16-bit fields, the parameter lowest, and the total
degree sits in the field above x0.  Integer order on keys is then the graded
order, and multiplying monomials is adding keys.  Exponents and total degrees
must lie in ``[_EXP_MIN, _EXP_MAX]`` = [-16384, 16383], half a field, so a sum
or difference of two keys never carries into the next field.  A construction,
product, quotient, power or pullback that leaves the range raises
``ValueError`` naming the variable and the bound; nothing wraps.  Symbolic
iterates stay far inside it: they have total degree 1 (the recurrence is
homogeneous of degree 1 in the x-variables and ``a``), and their largest
exponent grows at most about linearly in |n|: 12 over the whole default window
[-12, 12] at k = 1, 8 over [-14, 18] at k = 2, 6 over [-8, 22] at k = 3.  So no
window under the symbolic cap (|n| <= 6k + 6) for k <= 6 comes near
the bound.  The public API speaks exponent tuples: the constructor takes
tuple-keyed maps, and ``terms()`` and ``sorted_terms()`` decode.

Exact division: the quotient's Newton polytope is the numerator's minus the
divisor's, so each quotient exponent lies between the difference of the two
per-variable minima and the difference of the two maxima (and ``a``'s is never
negative).  The leading-term reduction refuses any quotient term outside that
box, so every remainder term stays inside the numerator's box, and the loop
either ends with zero remainder or proves that no quotient exists.

Sums of products whose result is mostly cancelled go through ``dot``.  It
decodes every operand once, for its exponent box and its re-keying as a small
mixed-radix offset inside the union of the products' exponent boxes,
accumulates every term pair into one dict over those keys, and decodes only
the nonzero sums back to packed keys; no product is built as a polynomial.
It has two callers: the xi residuals of a symbolic window, and the last stage
of a Bareiss elimination of size 3 or more (``matrix._eliminate``), whose one
entry is the determinant times the previous pivot.  Every other product whose
result is kept goes through ``*``: the earlier Bareiss stages' entries are
multiplied again, and there ``dot`` lost to ``*`` (compact keys pay only when
little is kept).
"""

from __future__ import annotations

import heapq
import operator
import re
import struct
from fractions import Fraction
from functools import lru_cache, wraps
from typing import Mapping, NamedTuple, Sequence

from .errors import NotExactError, ZeroAtNegativeExponentError
from .rational import format_int

ExponentVector = tuple[int, ...]

# 15-bit signed exponents in 16-bit fields: a sum or difference of two keys
# never carries out of a field.  CPython hashes an int modulo 2^61 - 1; with
# 16-bit fields that spreads keys well, while 15- and 20-bit fields made the
# multiply about 2x and 3x slower.
_FIELD_BITS = 16
_EXP_MIN, _EXP_MAX = -(1 << 14), (1 << 14) - 1


def var_name(index: int, nvars: int) -> str:
    """Variable name at a position: ``x0 .. x{nvars-2}`` then ``a``."""
    return "a" if index == nvars - 1 else f"x{index}"


# -- packed monomials -----------------------------------------------------------

class _Layout(NamedTuple):
    signs: int             # the top bit of every exponent field
    range_bits: int        # the bit below it in every exponent field
    bias: int              # the top bit of every field, the degree's included
    fields: struct.Struct  # the bytes of ``(key + bias) ^ bias``, lowest field first


@lru_cache(maxsize=None)
def _layout(nvars: int) -> _Layout:
    # Added to a key, ``signs`` makes every exponent field nonnegative without a
    # carry, and then each field's top bit is set iff the field was >= 0; the
    # field was in [_EXP_MIN, _EXP_MAX] iff its top bit differs from the next.
    half = 1 << (_FIELD_BITS - 1)
    signs = sum(half << (_FIELD_BITS * i) for i in range(nvars))
    return _Layout(signs, signs >> 1, signs + (half << (_FIELD_BITS * nvars)),
                   struct.Struct(f"<{nvars + 1}h"))


def _pack(exp: Sequence[int], nvars: int) -> int:
    """The key of an exponent vector, unchecked: linear, so keys add like vectors."""
    key = 0
    for e in exp:
        key = (key << _FIELD_BITS) + e
    return key + (sum(exp) << (_FIELD_BITS * nvars))


def _unpack_all(keys, nvars: int) -> list[ExponentVector]:
    """The exponent vectors of keys whose fields (degree too) fit in 16 signed bits."""
    lay = _layout(nvars)
    bias, size = lay.bias, lay.fields.size
    blob = b"".join([((key + bias) ^ bias).to_bytes(size, "little") for key in keys])
    return [f[nvars - 1::-1] for f in lay.fields.iter_unpack(blob)]


def _range_error(exp: Sequence[int], nvars: int,
                 degrees: Sequence[int] | None = None) -> ValueError | None:
    """The error for the first exponent in ``exp``, then the first total degree
    in ``degrees`` (by default ``exp``'s own), outside the range; None if all fit."""
    for i, e in enumerate(exp):
        if not _EXP_MIN <= e <= _EXP_MAX:
            return ValueError(f"exponent {e} of {var_name(i, nvars)} is outside "
                              f"[{_EXP_MIN}, {_EXP_MAX}]")
    for d in (sum(exp),) if degrees is None else degrees:
        if not _EXP_MIN <= d <= _EXP_MAX:
            return ValueError(f"total degree {d} is outside [{_EXP_MIN}, {_EXP_MAX}]")
    return None


def _checked_key(exp: Sequence[int], nvars: int) -> int:
    err = _range_error(exp, nvars)
    if err:
        raise err
    return _pack(exp, nvars)


def _raw(nvars: int, terms: dict[int, int]) -> "LaurentPolynomial":
    """A polynomial over a packed term map, as is."""
    p = object.__new__(LaurentPolynomial)
    p.nvars = nvars
    p._terms = terms
    return p


def _checked(nvars: int, terms: dict[int, int]) -> "LaurentPolynomial":
    """A polynomial over computed keys, refusing any exponent or degree out of range.

    Keys are sums or differences of two in-range keys, so every field, the
    degree's too, still fits in 16 signed bits.  The mask flags every key with
    an exponent out of range; the flagged keys and the two extreme keys, which
    hold the lowest and highest total degree, are decoded and checked exactly.
    """
    if terms:
        lay = _layout(nvars)
        signs, bits = lay.signs, lay.range_bits
        suspects = [min(terms), max(terms)]  # the lowest and highest total degree
        suspects += [key for key in terms if ((x := key + signs) ^ (x >> 1)) & bits != bits]
        for exp in _unpack_all(suspects, nvars):
            err = _range_error(exp, nvars)
            if err:
                raise err
    return _raw(nvars, terms)


def _ring_op(method):
    """A binary operator whose ``other`` is first lifted by ``self._coerce``;
    an operand that cannot be lifted gives ``NotImplemented``."""
    @wraps(method)
    def op(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return method(self, other)
    return op


def _exponent_box(p: "LaurentPolynomial") -> tuple[list[int], list[int]]:
    """Per-variable minimum and maximum exponents of a nonzero polynomial."""
    columns = list(zip(*_unpack_all(p._terms, p.nvars)))
    return [min(c) for c in columns], [max(c) for c in columns]


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: dict[int, int] = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff == 0:
                    continue
                if len(exp) != nvars:
                    raise ValueError(f"exponent vector {exp} has wrong length for nvars={nvars}")
                if exp[-1] < 0:
                    raise ValueError("the parameter variable (last position) is not invertible")
                if int(coeff) != coeff:
                    raise ValueError(f"coefficient {coeff!r} is not an integer")
                clean[_checked_key(exp, nvars)] = int(coeff)
        self.nvars = nvars
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, value: int) -> "LaurentPolynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "LaurentPolynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1})

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[tuple[int, ...], int]:
        """A copy of the term map (exponent tuple -> nonzero int coefficient)."""
        return dict(zip(_unpack_all(self._terms, self.nvars), self._terms.values()))

    def coefficients(self):
        """The nonzero coefficients, as a read-only view; no monomial is decoded."""
        return self._terms.values()

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in descending canonical order (leading term first)."""
        keys = sorted(self._terms, reverse=True)
        return list(zip(_unpack_all(keys, self.nvars), map(self._terms.__getitem__, keys)))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> "LaurentPolynomial | None":
        if isinstance(other, LaurentPolynomial):
            if other.nvars != self.nvars:
                raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")
            return other
        if isinstance(other, int):
            return LaurentPolynomial.constant(self.nvars, other)
        return None

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial.constant(self.nvars, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    __hash__ = None  # mutable-looking container semantics; not hashable

    def __neg__(self) -> "LaurentPolynomial":
        return _raw(self.nvars, {e: -c for e, c in self._terms.items()})

    def _merge(self, other: "LaurentPolynomial", sign: int) -> "LaurentPolynomial":
        """self + sign * other, term by term."""
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + sign * c
            if s:
                out[e] = s
            else:
                del out[e]
        return _raw(self.nvars, out)

    @_ring_op
    def __add__(self, other) -> "LaurentPolynomial":
        return self._merge(other, 1)

    __radd__ = __add__

    @_ring_op
    def __sub__(self, other) -> "LaurentPolynomial":
        return self._merge(other, -1)

    @_ring_op
    def __rsub__(self, other) -> "LaurentPolynomial":
        return other - self

    @_ring_op
    def __mul__(self, other) -> "LaurentPolynomial":
        # iterate the smaller operand on the outside
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        b_items = list(b.items())
        out: dict[int, int] = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b_items:
                e = e1 + e2
                s = get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return _checked(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return LaurentPolynomial.constant(self.nvars, 1).exact_div(self) ** (-n)
        result = LaurentPolynomial.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    @_ring_op
    def __truediv__(self, other) -> "LaurentPolynomial":
        return self.exact_div(other)

    @_ring_op
    def __rtruediv__(self, other) -> "LaurentPolynomial":
        return other.exact_div(self)

    # -- exact division ----------------------------------------------------

    def exact_div(self, divisor: "LaurentPolynomial | int") -> "LaurentPolynomial":
        """Exact quotient q with ``q * divisor == self``.

        Raises :class:`NotExactError` if no quotient exists in the ring and
        ``ZeroDivisionError`` if the divisor is zero.  Division by a monomial
        whose coefficient is a unit always succeeds for the x-variables; a
        factor of ``a`` or a non-unit coefficient must divide every term.
        """
        divisor = self._coerce(divisor)
        if divisor is None:
            raise TypeError("divisor must be a LaurentPolynomial or int")
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPolynomial(self.nvars)
        nv = self.nvars
        nlo, nhi = _exponent_box(self)
        dlo, dhi = _exponent_box(divisor)
        lo = [n - d for n, d in zip(nlo, dlo)]
        lo[-1] = max(lo[-1], 0)
        hi = [n - d for n, d in zip(nhi, dhi)]
        q = _divide_packed(self._terms, divisor._terms, _pack(lo, nv), _pack(hi, nv),
                           _layout(nv).signs)
        if q is None:
            raise NotExactError("remainder is nonzero")
        return _checked(nv, q)

    # -- evaluation and pullbacks -------------------------------------------

    def substitute(self, values: Sequence[Fraction]) -> Fraction:
        """Evaluate at exact rational values, one per variable (``a`` last)."""
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for exp, coeff in self.terms().items():
            term = Fraction(coeff)
            for i, e in enumerate(exp):
                if e == 0:
                    continue
                v = vals[i]
                if v == 0:
                    if e < 0:
                        raise ZeroAtNegativeExponentError(var_name(i, self.nvars))
                    term = Fraction(0)
                    break
                term *= v ** e
            total += term
        return total

    def sigma_pullback(self) -> "LaurentPolynomial":
        """Reverse the x-variables (x_i -> x_{2k-i}); the parameter is fixed."""
        # a permutation of the exponents keeps each of them and their sum in range
        nv = self.nvars
        return _raw(nv, {_pack(exp[-2::-1] + exp[-1:], nv): c for exp, c in self.terms().items()})

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        return format_laurent(self)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.nvars}, {format_laurent(self)!r})"


def _divide_packed(num: dict[int, int], den: dict[int, int], lo: int, hi: int,
                   signs: int) -> dict[int, int] | None:
    """Quotient of packed term maps, or None if there is none.

    ``lo`` and ``hi`` are the keys of the per-variable exponent bounds every
    quotient term must meet; one masked add against ``signs`` tests all fields
    at once.  Leading terms are tracked with a lazy max-heap of negated keys;
    every reduction step cancels the current leading term, so the loop runs
    once per quotient term.  Every remainder term stays inside the
    numerator's exponent box.
    """
    above_lo, below_hi = signs - lo, signs + hi
    if (below_hi - lo) & signs != signs:  # the box is empty
        return None
    dlead = max(den)
    dlc = den[dlead]
    den_rest = [(e, c) for e, c in den.items() if e != dlead]
    r = dict(num)
    q: dict[int, int] = {}
    heap = [-e for e in r]
    heapq.heapify(heap)
    while r:
        # lazy deletion: pop until the key is live
        while -heap[0] not in r:
            heapq.heappop(heap)
        rlead = -heapq.heappop(heap)
        qexp = rlead - dlead
        if (qexp + above_lo) & signs != signs or (below_hi - qexp) & signs != signs:
            return None
        qc, rem = divmod(r.pop(rlead), dlc)
        if rem:
            return None
        q[qexp] = qc
        for e, c in den_rest:
            key = qexp + e
            s = r.get(key, 0) - qc * c
            if s:
                if key not in r:
                    heapq.heappush(heap, -key)
                r[key] = s
            else:
                del r[key]
    return q


def dot(xs: Sequence[LaurentPolynomial], ys: Sequence[LaurentPolynomial]) -> LaurentPolynomial:
    """The sum of the products ``xs[i] * ys[i]``, computed in one pass over compact keys.

    A product's per-variable exponent box is the sum of its operands' boxes,
    and its lowest and highest terms in the term order are the products of
    its operands': over Z no extreme term cancels.  So the boxes decide,
    before any term pair is formed, whether a product leaves the exponent
    range, and ``ValueError`` is raised exactly when ``*`` would raise it.
    Inside U, the union of the product boxes, the mixed-radix offset
    sum_j (e_j - min_j U) * stride_j is linear and injective, and small: below
    2^27 on the xi sweeps of k <= 3, where a packed key has 144 bits.  Every
    operand is decoded once, for its box and its offsets, every product
    accumulates into one dict over these offsets, and only the nonzero sums
    are decoded back to packed keys.
    A sum that cancels, such as a passing xi residual, decodes nothing.
    """
    pairs = list(zip(xs, ys, strict=True))
    nv = pairs[0][0].nvars
    for p in (p for pair in pairs for p in pair):
        if p.nvars != nv:
            raise ValueError(f"variable-count mismatch: {nv} vs {p.nvars}")
    pairs = [(x, y) for x, y in pairs if x and y]
    boxes, decoded = [], []
    for x, y in pairs:
        ex, ey = _unpack_all(x._terms, nv), _unpack_all(y._terms, nv)
        xcols, ycols = list(zip(*ex)), list(zip(*ey))
        lo = [min(c) + min(d) for c, d in zip(xcols, ycols)]
        hi = [max(c) + max(d) for c, d in zip(xcols, ycols)]
        ends = _unpack_all([min(x._terms) + min(y._terms), max(x._terms) + max(y._terms)], nv)
        err = _range_error(lo, nv, [sum(e) for e in ends]) or _range_error(hi, nv, ())
        if err:
            raise err
        boxes.append((lo, hi))
        decoded.append(((ex, x._terms.values()), (ey, y._terms.values())))
    if not boxes:
        return _raw(nv, {})
    ulo = [min(c) for c in zip(*(lo for lo, _ in boxes))]
    radices = [max(c) - l + 1 for c, l in zip(zip(*(hi for _, hi in boxes)), ulo)]
    strides = [1] * nv
    for j in range(nv - 1, 0, -1):
        strides[j - 1] = strides[j] * radices[j]

    def rekeyed(operand, offset: int) -> list[tuple[int, int]]:
        exps, coeffs = operand  # the exponent vectors decoded for the boxes
        return list(zip([sum(map(operator.mul, e, strides)) - offset for e in exps], coeffs))

    out: dict[int, int] = {}
    get = out.get
    offset = sum(map(operator.mul, ulo, strides))  # taken off the left operands' keys
    for x, y in decoded:
        a, b = rekeyed(x, offset), rekeyed(y, 0)
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
    terms = {}
    for key, c in out.items():
        if c:
            exp = [0] * nv
            for j in reversed(range(nv)):
                key, digit = divmod(key, radices[j])
                exp[j] = ulo[j] + digit
            terms[_pack(exp, nv)] = c
    return _raw(nv, terms)


def variables(nvars: int) -> list[LaurentPolynomial]:
    """All generators in order: x0, ..., x{nvars-2}, a."""
    return [LaurentPolynomial.variable(nvars, i) for i in range(nvars)]


# -- canonical text ----------------------------------------------------------

def format_laurent(p: LaurentPolynomial) -> str:
    """Canonical text: terms in descending order, ``c*x0^e0*...*a^e`` each.

    Zero exponents are omitted, exponent 1 is rendered as the bare variable,
    and a unit coefficient is omitted unless the monomial is empty.
    """
    if not p:
        return "0"
    chunks: list[str] = []
    for i, (exp, coeff) in enumerate(p.sorted_terms()):
        factors = []
        for pos, e in enumerate(exp):
            if e == 0:
                continue
            name = var_name(pos, p.nvars)
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(coeff)
        if factors:
            body = "*".join(factors) if mag == 1 else f"{format_int(mag)}*" + "*".join(factors)
        else:
            body = format_int(mag)
        if i == 0:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(chunks)


# no two whitespace runs are adjacent: a refused text costs linear time
# instead of exponential backtracking
_FACTOR = r"(?:\d+|(?:a|x\d+)(?:\s*\^\s*(?:-\s*)?\d+)?)"
_TERM = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
_TEXT_RE = re.compile(rf"\s*(?:[+-]\s*)?{_TERM}(?:\s*[+-]\s*{_TERM})*")
_SIGNED_TERM_RE = re.compile(rf"([+-]?)\s*({_TERM})")
_FACTOR_RE = re.compile(r"(\d+)|(a|x\d+)(?:\s*\^\s*(?:(-)\s*)?(\d+))?")


def parse_laurent(text: str, nvars: int) -> LaurentPolynomial:
    """Parse the text form; the grammar is wider than what ``format_laurent`` emits.

        text   = [+|-] term { (+|-) term }
        term   = factor { * factor }
        factor = integer | var [ ^ [-] integer ],   var = a | x<integer>

    Whitespace may precede any token, but none may trail the text.  Integer
    factors multiply, exponents of a repeated variable add, and equal
    monomials add.  Raises ValueError on any other text, on an x-index past
    ``nvars - 2``, and on a term whose total exponent of ``a`` is negative.
    """
    if not _TEXT_RE.fullmatch(text):
        raise ValueError(f"not a Laurent polynomial: {text!r}")
    terms: dict[tuple[int, ...], int] = {}
    for sign, term in _SIGNED_TERM_RE.findall(text):
        coeff = -1 if sign == "-" else 1
        exp = [0] * nvars
        for num, name, neg, e in _FACTOR_RE.findall(term):
            if num:
                coeff *= int(num)
                continue
            idx = nvars - 1 if name == "a" else int(name[1:])
            if name != "a" and idx >= nvars - 1:
                raise ValueError(f"variable {name} out of range for nvars={nvars}")
            exp[idx] += int(neg + e) if e else 1
        if exp[-1] < 0:
            raise ValueError("the parameter variable cannot have a negative exponent")
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + coeff
    return LaurentPolynomial(nvars, terms)


# -- rational functions -------------------------------------------------------

class RationalFunction:
    """A quotient of Laurent polynomials, for the few places the ring is not
    enough (K after one map step, the alpha/beta/gamma coefficients).

    The pair is stored as given and never reduced: ``==`` cross-multiplies,
    ``bool()`` reads the numerator, and ``as_laurent()`` divides once at the
    end.  The Laurent ring is a UFD, so num/den is a Laurent polynomial
    exactly when den divides num there, whatever factors the two share.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial | int = 1):
        if isinstance(den, int):
            den = LaurentPolynomial.constant(num.nvars, den)
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.nvars != den.nvars:
            raise ValueError("variable-count mismatch")
        self.num = num
        self.den = den

    def __bool__(self) -> bool:
        return bool(self.num)

    def __len__(self) -> int:
        """Terms of the numerator plus terms of the denominator."""
        return len(self.num) + len(self.den)

    def as_laurent(self) -> LaurentPolynomial:
        """The value as a Laurent polynomial; raises NotExactError otherwise."""
        return self.num.exact_div(self.den)

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, int):
            other = LaurentPolynomial.constant(self.num.nvars, other)
        if isinstance(other, LaurentPolynomial):
            return RationalFunction(other)
        return None

    @_ring_op
    def __eq__(self, other) -> bool:
        return (self.num.nvars == other.num.nvars
                and self.num * other.den == other.num * self.den)

    __hash__ = None

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    @_ring_op
    def __add__(self, other):
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    @_ring_op
    def __sub__(self, other):
        return self + (-other)

    @_ring_op
    def __rsub__(self, other):
        return other - self

    @_ring_op
    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    @_ring_op
    def __truediv__(self, other):
        return RationalFunction(self.num * other.den, self.den * other.num)

    @_ring_op
    def __rtruediv__(self, other):
        return other / self

    def __str__(self):
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__
