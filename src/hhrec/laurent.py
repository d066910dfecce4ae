"""Sparse multivariate Laurent polynomials over the integers.

The ring is Z[x0^{+-1}, ..., x{2k}^{+-1}, a]: the x-variables are invertible,
the parameter ``a`` is an ordinary (non-invertible) variable kept in the last
exponent position.  A polynomial is a map from dense exponent tuples (length
``nvars``, one slot per variable, ``a`` last) to nonzero integer
coefficients; the zero polynomial is the empty map.  Two values are equal iff
their term maps are identical, so equality testing is exact and cheap.

Term order is graded: compare total degree first, then the exponent tuple
lexicographically from position 0.  The order fixes the canonical text form
and the leading-term choice inside exact division.

Exact division reduces Laurent division to ordinary multivariate division by
factoring a monomial out of each operand so all x-exponents become
nonnegative (``a`` is nonnegative already); ordinary division then either
terminates with zero remainder or proves that no quotient exists.
"""

from __future__ import annotations

import heapq
import re
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import NotExactError, ZeroAtNegativeExponentError

ExponentVector = tuple[int, ...]


def var_name(index: int, nvars: int) -> str:
    """Variable name at a position: ``x0 .. x{nvars-2}`` then ``a``."""
    return "a" if index == nvars - 1 else f"x{index}"


def _order_key(exp: tuple[int, ...]) -> tuple:
    # graded order: total degree, ties broken lexicographically from position 0
    return (sum(exp), exp)


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff == 0:
                    continue
                if len(exp) != nvars:
                    raise ValueError(f"exponent vector {exp} has wrong length for nvars={nvars}")
                if exp[-1] < 0:
                    raise ValueError("the parameter variable (last position) is not invertible")
                clean[tuple(exp)] = int(coeff)
        self.nvars = nvars
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: int) -> "LaurentPolynomial":
        if value == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: int(value)})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPolynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "LaurentPolynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): 1})

    @classmethod
    def monomial(cls, nvars: int, exp: Sequence[int], coeff: int = 1) -> "LaurentPolynomial":
        return cls(nvars, {tuple(exp): coeff})

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[tuple[int, ...], int]:
        """A copy of the term map (exponent tuple -> nonzero int coefficient)."""
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in descending canonical order (leading term first)."""
        return sorted(self._terms.items(), key=lambda kv: _order_key(kv[0]), reverse=True)

    def is_zero(self) -> bool:
        return not self._terms

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def ring_one(self) -> "LaurentPolynomial":
        return LaurentPolynomial.one(self.nvars)

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
        return LaurentPolynomial(self.nvars, {e: -c for e, c in self._terms.items()})

    def __add__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPolynomial(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPolynomial(self.nvars, out)

    def __rsub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return LaurentPolynomial.zero(self.nvars)
        # iterate the smaller operand on the outside
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        b_items = list(b.items())
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b_items:
                e = tuple(map(int.__add__, e1, e2))
                s = get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        return LaurentPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return LaurentPolynomial.one(self.nvars).exact_div(self ** (-n))
        result = LaurentPolynomial.one(self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __truediv__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.exact_div(other)

    def __rtruediv__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
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
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial.zero(self.nvars)
        if divisor.is_monomial():
            (dexp, dcoeff), = divisor._terms.items()
            out: dict[tuple[int, ...], int] = {}
            for e, c in self._terms.items():
                q, r = divmod(c, dcoeff)
                if r:
                    raise NotExactError(f"coefficient {c} not divisible by {dcoeff}")
                exp = tuple(map(int.__sub__, e, dexp))
                if exp[-1] < 0:
                    raise NotExactError("the parameter variable does not divide every term")
                out[exp] = q
            return LaurentPolynomial(self.nvars, out)
        return self._divide_general(divisor)

    def _divide_general(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        nv = self.nvars
        # factor out per-variable minimal x-exponents so both operands become
        # ordinary polynomials; `a` (last slot) is already nonnegative
        nmin = _min_exponents(self)
        dmin = _min_exponents(divisor)
        nmin[-1] = dmin[-1] = 0
        nshift = {tuple(ei - mi for ei, mi in zip(e, nmin)): c for e, c in self._terms.items()}
        dshift = {tuple(ei - mi for ei, mi in zip(e, dmin)): c for e, c in divisor._terms.items()}
        q = _divide_ordinary(nshift, dshift)
        if q is None:
            raise NotExactError("remainder is nonzero")
        back = tuple(a - b for a, b in zip(nmin, dmin))
        out = {tuple(map(int.__add__, e, back)): c for e, c in q.items()}
        for e in out:
            if e[-1] < 0:
                raise NotExactError("quotient would need a negative power of the parameter")
        return LaurentPolynomial(nv, out)

    # -- evaluation and pullbacks -------------------------------------------

    def substitute(self, values: Sequence[Fraction]) -> Fraction:
        """Evaluate at exact rational values, one per variable (``a`` last)."""
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for exp, coeff in self._terms.items():
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
        nv = self.nvars
        out = {}
        for exp, coeff in self._terms.items():
            out[tuple(exp[nv - 2 - i] for i in range(nv - 1)) + (exp[-1],)] = coeff
        return LaurentPolynomial(nv, out)

    # -- text form -----------------------------------------------------------

    def __str__(self) -> str:
        return format_laurent(self)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.nvars}, {format_laurent(self)!r})"


def _min_exponents(p: LaurentPolynomial) -> list[int]:
    """Per-variable minimum exponent over the terms of a nonzero polynomial."""
    it = iter(p._terms)
    m = list(next(it))
    for e in it:
        for i, ei in enumerate(e):
            if ei < m[i]:
                m[i] = ei
    return m


def _divide_ordinary(num: dict, den: dict) -> dict | None:
    """Quotient of ordinary (nonnegative-exponent) term maps, or None.

    Leading terms are tracked with a lazy max-heap over the graded order;
    every reduction step cancels the current leading term, so the loop runs
    once per quotient term.
    """
    dlead = max(den, key=_order_key)
    dlc = den[dlead]
    den_rest = [(e, c) for e, c in den.items() if e != dlead]
    r = dict(num)
    q: dict[tuple[int, ...], int] = {}
    heap = [(-s, tuple(-x for x in e), e) for e in r for s in (sum(e),)]
    heapq.heapify(heap)
    while r:
        # lazy deletion: pop until the key is live
        while heap:
            _, _, rlead = heap[0]
            if rlead in r:
                break
            heapq.heappop(heap)
        if not heap:
            break
        rc = r[rlead]
        qexp = tuple(map(int.__sub__, rlead, dlead))
        if any(e < 0 for e in qexp):
            return None
        qc, rem = divmod(rc, dlc)
        if rem:
            return None
        q[qexp] = qc
        del r[rlead]
        heapq.heappop(heap)
        for e, c in den_rest:
            key = tuple(map(int.__add__, qexp, e))
            s = r.get(key, 0) - qc * c
            if s:
                if key not in r:
                    heapq.heappush(heap, (-sum(key), tuple(-x for x in key), key))
                r[key] = s
            elif key in r:
                del r[key]
    return q if not r else None


def variables(nvars: int) -> list[LaurentPolynomial]:
    """All generators in order: x0, ..., x{nvars-2}, a."""
    return [LaurentPolynomial.variable(nvars, i) for i in range(nvars)]


# -- canonical text ----------------------------------------------------------

def format_laurent(p: LaurentPolynomial) -> str:
    """Canonical text: terms in descending order, ``c*x0^e0*...*a^e`` each.

    Zero exponents are omitted, exponent 1 is rendered as the bare variable,
    and a unit coefficient is omitted unless the monomial is empty.
    """
    if p.is_zero():
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
            body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
        else:
            body = str(mag)
        if i == 0:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(chunks)


_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>a|x\d+)|(?P<op>[*^+-]))")


def parse_laurent(text: str, nvars: int) -> LaurentPolynomial:
    """Parse the canonical text form (the same grammar ``format_laurent`` emits)."""
    tokens: list[str | int] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ValueError(f"bad character at position {pos} in {text!r}")
        if m.group("num") is not None:
            tokens.append(int(m.group("num")))
        elif m.group("name") is not None:
            tokens.append(m.group("name"))
        else:
            tokens.append(m.group("op"))
        pos = m.end()
    if not tokens:
        raise ValueError("empty polynomial text")

    terms: dict[tuple[int, ...], int] = {}
    i = 0

    def parse_term(i: int, sign: int) -> int:
        coeff = sign
        exp = [0] * nvars
        expect_factor = True
        saw_factor = False
        while i < len(tokens):
            tok = tokens[i]
            if tok in ("+", "-") and not expect_factor:
                break
            if not expect_factor:
                if tok != "*":
                    raise ValueError(f"expected '*' or end of term, got {tok!r}")
                i += 1
                expect_factor = True
                continue
            if isinstance(tok, int):
                coeff *= tok
                i += 1
            elif isinstance(tok, str) and tok not in ("*", "^", "+", "-"):
                if tok == "a":
                    idx = nvars - 1
                else:
                    idx = int(tok[1:])
                    if idx >= nvars - 1:
                        raise ValueError(f"variable {tok} out of range for nvars={nvars}")
                e = 1
                if i + 1 < len(tokens) and tokens[i + 1] == "^":
                    i += 2
                    neg = False
                    if i < len(tokens) and tokens[i] == "-":
                        neg = True
                        i += 1
                    if i >= len(tokens) or not isinstance(tokens[i], int):
                        raise ValueError("expected integer exponent after '^'")
                    e = -tokens[i] if neg else tokens[i]
                i += 1
                exp[idx] += e
            else:
                raise ValueError(f"unexpected token {tok!r}")
            expect_factor = False
            saw_factor = True
        if not saw_factor:
            raise ValueError("empty term")
        key = tuple(exp)
        if key[-1] < 0:
            raise ValueError("the parameter variable cannot have a negative exponent")
        terms[key] = terms.get(key, 0) + coeff
        return i

    sign = 1
    if tokens[0] in ("+", "-"):
        sign = -1 if tokens[0] == "-" else 1
        i = 1
    i = parse_term(i, sign)
    while i < len(tokens):
        tok = tokens[i]
        if tok not in ("+", "-"):
            raise ValueError(f"expected '+' or '-' between terms, got {tok!r}")
        i = parse_term(i + 1, -1 if tok == "-" else 1)
    return LaurentPolynomial(nvars, terms)


# -- rational functions -------------------------------------------------------

class RationalFunction:
    """A quotient of Laurent polynomials, for the few places the ring is not
    enough (pullbacks through the map, the alpha/beta/gamma coefficients).

    Arithmetic is exact with cross-multiplication; reduction only strips a
    common monomial factor and integer content, plus a full exact-division
    attempt, which keeps intermediate sizes small without a multivariate gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial | int = 1):
        if isinstance(den, int):
            den = LaurentPolynomial.constant(num.nvars, den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.nvars != den.nvars:
            raise ValueError("variable-count mismatch")
        if not num.is_zero():
            num, den = _reduce_pair(num, den)
        else:
            den = LaurentPolynomial.one(num.nvars)
        self.num = num
        self.den = den

    @classmethod
    def lift(cls, p: "LaurentPolynomial | RationalFunction | int", nvars: int) -> "RationalFunction":
        if isinstance(p, RationalFunction):
            return p
        if isinstance(p, int):
            p = LaurentPolynomial.constant(nvars, p)
        return cls(p)

    def ring_one(self) -> "RationalFunction":
        return RationalFunction(LaurentPolynomial.one(self.num.nvars))

    def __bool__(self) -> bool:
        return bool(self.num)

    def as_laurent(self) -> LaurentPolynomial:
        """The value as a Laurent polynomial; raises NotExactError otherwise."""
        return self.num.exact_div(self.den)

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (LaurentPolynomial, int)):
            return RationalFunction.lift(other, self.num.nvars)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # quasi-lcm: when one denominator divides the other, reuse the larger
        try:
            q = other.den.exact_div(self.den)
            return RationalFunction(self.num * q + other.num, other.den)
        except NotExactError:
            pass
        try:
            q = self.den.exact_div(other.den)
            return RationalFunction(self.num + other.num * q, self.den)
        except NotExactError:
            pass
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __str__(self):
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def _reduce_pair(num: LaurentPolynomial, den: LaurentPolynomial):
    from math import gcd

    nv = num.nvars
    # strip the common monomial factor: per-variable min exponent of both
    # operands (the parameter's exponents are never negative)
    common = [min(a, b) for a, b in zip(_min_exponents(num), _min_exponents(den))]
    if any(common):
        shift = LaurentPolynomial.monomial(nv, common)
        num = num.exact_div(shift)
        den = den.exact_div(shift)
    # integer content
    g = 0
    for c in num._terms.values():
        g = gcd(g, c)
    for c in den._terms.values():
        g = gcd(g, c)
    if g > 1:
        num = num.exact_div(g)
        den = den.exact_div(g)
    if den.is_monomial() or len(den) <= len(num):
        try:
            num = num.exact_div(den)
            den = LaurentPolynomial.one(nv)
        except NotExactError:
            pass
    return num, den


def ring_one(scalar):
    """The multiplicative unit of the scalar's ring (Fraction, int, Laurent, RF)."""
    if isinstance(scalar, (LaurentPolynomial, RationalFunction)):
        return scalar.ring_one()
    return Fraction(1)
