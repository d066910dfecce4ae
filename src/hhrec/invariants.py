"""Conserved quantities, periodic invariants, and determinant identities.

The central object is the conserved quantity K of the linear relation

    x[n+6k] - K * (x[n+4k] - x[n+2k]) - x[n] = 0,

computed by four independent routes that must agree exactly:

* ``k_formula``    -- the explicit breakdown K = P0 + a*P1 + a^2*P2;
* ``k_ratio``      -- (x[4k] - x[-2k]) / (x[2k] - x[0]) (optionally shifted);
* ``k_cramer``     -- 3x3 determinant ratios from the kernel of the 4x4
                      discrete Wronskian;
* ``monodromy_k``  -- traces of ordered companion-matrix products over one
                      period of the 3-term relation.

Alongside: the 3x3 Wronskian determinant delta_n (a k-invariant), the 4x4
Wronskian determinant (identically zero on solutions), the closed formulas
for the 2k iterates on either side of the seed, the inhomogeneous relations
obtained by integrating the linear one, and the shift-operator identity that
holds for arbitrary (non-solution) sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .engine import RecurrenceSpec, SequenceWindow, format_value, phi, raw_window, xi_residual
from .errors import (
    DegenerateDenominatorError,
    SingularDeltaError,
    SingularSystemError,
    ZeroAlphaError,
    ZeroPivotError,
)
from .laurent import LaurentPolynomial, RationalFunction
from .matrix import Matrix, matrix_det, solve_exact


# -- the explicit formula ------------------------------------------------------

@dataclass(frozen=True)
class KBreakdown:
    """K = P0 + a*P1 + a^2*P2, each piece free of the parameter."""

    P0: object
    P1: object
    P2: object
    K: object

    def to_json_dict(self) -> dict:
        return {name: format_value(getattr(self, name)) for name in ("P0", "P1", "P2", "K")}


def k_breakdown(values: Sequence, a) -> KBreakdown:
    """The conserved-quantity formula evaluated on arbitrary scalars.

    ``values`` are the 2k+1 phase-space coordinates; every one is inverted,
    so in numeric mode they must all be nonzero.  Works over Fraction,
    LaurentPolynomial (divisions by single variables are exact) and
    RationalFunction scalars alike.
    """
    if len(values) % 2 == 0 or len(values) < 3:
        raise ValueError("need an odd number 2k+1 >= 3 of values")
    k = (len(values) - 1) // 2
    x = list(values)
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


def _need(w: SequenceWindow, lo: int, hi: int, what: str) -> None:
    """Raise IndexError unless the window covers [lo, hi]."""
    if not w.covers(lo, hi):
        raise IndexError(f"{what} needs [{lo}, {hi}] inside [{w.lo}, {w.hi}]")


# -- the ratio route -----------------------------------------------------------

def k_ratio(w: SequenceWindow, base: int = 0):
    """K as (x[base+4k] - x[base-2k]) / (x[base+2k] - x[base]).

    ``base = 0`` is the two-sided form; ``base = 2k`` is the one-sided form
    over [0, 6k].  Raises DegenerateDenominatorError when the denominator
    vanishes (e.g. the all-ones seed at base 0).
    """
    k = w.spec.k
    _need(w, base - 2 * k, base + 4 * k, "ratio")
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

def _wronskian_block(w: SequenceWindow, n: int, offsets: Sequence[int],
                     shifts: Sequence[int]) -> Matrix:
    """The matrix with entry (i, j) = x_{n + offsets[i] + 2k shifts[j]}."""
    k = w.spec.k
    _need(w, n + min(offsets) + 2 * k * min(shifts), n + max(offsets) + 2 * k * max(shifts),
          "Wronskian block")
    return Matrix.from_rows([[w[n + i + 2 * k * j] for j in shifts] for i in offsets])


def wronskian3(w: SequenceWindow, n: int) -> Matrix:
    """The 3x3 matrix with columns (x_{n+2kj+i}) for j = 0,1,2 and rows i = 0..2."""
    return _wronskian_block(w, n, (0, 1, 2), (0, 1, 2))


def delta(w: SequenceWindow, n: int):
    """det of the 3x3 discrete Wronskian; a k-invariant on solutions."""
    return matrix_det(wronskian3(w, n))


def wronskian4_det(w: SequenceWindow, n: int):
    """det of the 4x4 discrete Wronskian; exactly 0 on solution windows."""
    return matrix_det(_wronskian_block(w, n, (0, 1, 2, 3), (0, 1, 2, 3)))


# -- Cramer route ----------------------------------------------------------------

def k_cramer(w: SequenceWindow, n: int = 0):
    """(K1, K2) as 3x3 determinant ratios over delta_n; both equal K.

    K1 replaces the third Wronskian column by the 6k-shifted one, K2 the
    second; both are independent of n and swap into each other under the
    reversal symmetry.
    """
    m1 = _wronskian_block(w, n, (0, 1, 2), (0, 1, 3))
    m2 = _wronskian_block(w, n, (0, 1, 2), (0, 2, 3))
    d = delta(w, n)
    if not d:
        raise SingularDeltaError(n)
    return matrix_det(m1) / d, matrix_det(m2) / d


# -- 3-term relation coefficients -------------------------------------------------

def abg_coeffs(w: SequenceWindow, n: int, allow_symbolic: bool = False):
    """(alpha_n, beta_n, gamma_n) of x_{n+3} - gamma x_{n+2} + beta x_{n+1} - alpha x_n = 0.

    These are ratios of 3x3 determinants over delta_n and are genuinely
    rational functions, not Laurent polynomials, so symbolic evaluation is
    gated behind ``allow_symbolic``: the four determinants are taken in the
    Laurent ring and lifted into RationalFunction scalars for the ratios.
    """
    if w.spec.symbolic_mode and not allow_symbolic:
        raise ValueError("alpha/beta/gamma are rational functions; pass allow_symbolic=True")
    dets = [matrix_det(_wronskian_block(w, n + s, offsets, (0, 1, 2)))
            for s, offsets in ((0, (0, 1, 2)), (1, (0, 1, 2)), (0, (0, 2, 3)), (0, (0, 1, 3)))]
    if w.spec.symbolic_mode:
        dets = [RationalFunction(v) for v in dets]
    d, d_alpha, d_beta, d_gamma = dets
    if not d:
        raise SingularDeltaError(n)
    return d_alpha / d, d_beta / d, d_gamma / d


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

    def to_json_dict(self) -> dict:
        return {
            "alpha": {"period": self.k, "values": [format_value(v) for v in self.alpha]},
            "beta": {"period": 2 * self.k, "values": [format_value(v) for v in self.beta]},
            "gamma": {"period": 2 * self.k, "values": [format_value(v) for v in self.gamma]},
        }


def periodic_coeffs(w: SequenceWindow) -> PeriodicCoeffs:
    """One full period of the 3-term relation coefficients, from base index 0."""
    k = w.spec.k
    trips = [abg_coeffs(w, n) for n in range(0, 2 * k)]
    return PeriodicCoeffs(
        k,
        tuple(trips[n][0] for n in range(k)),
        tuple(t[1] for t in trips),
        tuple(t[2] for t in trips),
    )


# -- monodromy route ---------------------------------------------------------------

def _mat3_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(3)) for j in range(3)] for i in range(3)]


def monodromy_k(coeffs: PeriodicCoeffs, start: int = 0):
    """(K1, K2) as traces of companion-matrix products over one period.

    K1 multiplies L_{start+2k-1} ... L_{start}; K2 multiplies the displayed
    inverses L_{start}^{-1} ... L_{start+2k-1}^{-1}, which require every
    alpha to be nonzero.  The traces do not depend on ``start``.
    """
    k = coeffs.k

    def companion(n):
        return [[0, 1, 0],
                [0, 0, 1],
                [coeffs.alpha_at(n), -coeffs.beta_at(n), coeffs.gamma_at(n)]]

    def companion_inv(n):
        al = coeffs.alpha_at(n)
        if not al:
            raise ZeroAlphaError(f"alpha_{n} = 0: companion matrix is singular")
        return [[coeffs.beta_at(n) / al, -(coeffs.gamma_at(n) / al), 1 / al],
                [1, 0, 0],
                [0, 1, 0]]

    fwd = None
    for m in range(start, start + 2 * k):
        fwd = companion(m) if fwd is None else _mat3_mul(companion(m), fwd)
    inv = None
    for m in range(start, start + 2 * k):
        step = companion_inv(m)
        inv = step if inv is None else _mat3_mul(inv, step)
    k1 = fwd[0][0] + fwd[1][1] + fwd[2][2]
    k2 = inv[0][0] + inv[1][1] + inv[2][2]
    return k1, k2


# -- explicit iterates -----------------------------------------------------------

@dataclass(frozen=True)
class ExplicitIterates:
    """Closed formulas for the 2k iterates on each side of the seed.

    ``forward[j]`` is x_{2k+1+j} for j = 0..2k-1; ``backward[j]`` is x_{-1-j}.
    The coefficient families are keyed by the absolute sequence index; the
    quadratic coefficient is zero on the first k steps of either side, where
    the iterates are still linear in the parameter.
    """

    spec: RecurrenceSpec
    forward: tuple
    backward: tuple
    F1_forward: dict
    F2_forward: dict
    F1_backward: dict
    F2_backward: dict

    def value(self, m: int):
        k = self.spec.k
        if 2 * k + 1 <= m <= 4 * k:
            return self.forward[m - 2 * k - 1]
        if -2 * k <= m <= -1:
            return self.backward[-m - 1]
        raise IndexError(f"explicit formulas cover [-2k, -1] and [2k+1, 4k], not {m}")


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
    forward = []
    for m in range(2 * k + 1, 4 * k + 1):
        lead = x[m - 2 * k] * x[2 * k] / x[0]
        forward.append(lead + a * f1[m] + a * a * f2[m])
    backward = []
    f1_b, f2_b = {}, {}
    for j in range(1, 2 * k + 1):
        lead = xr[j] * x[0] / x[2 * k]  # x_{2k-j} * x_0 / x_{2k}
        f1_b[-j] = g1[2 * k + j]
        f2_b[-j] = g2[2 * k + j]
        backward.append(lead + a * f1_b[-j] + a * a * f2_b[-j])
    return ExplicitIterates(
        spec, tuple(forward), tuple(backward),
        {m: f1[m] for m in range(2 * k, 4 * k + 1)},
        {m: f2[m] for m in range(2 * k, 4 * k + 1)},
        f1_b, f2_b,
    )


# -- inhomogeneous relations -----------------------------------------------------

@dataclass(frozen=True)
class InhomCoeffs:
    """nu_n and the order-2 relation coefficients (all 2k-invariants)."""

    nu: Fraction
    epsilon: Fraction
    zeta: Fraction
    eta: Fraction


def nu_invariant(w: SequenceWindow, n: int, K=None):
    """nu_n = x_{n+4k} - (K-1) x_{n+2k} + x_n; shifts by 2k leave it fixed."""
    k = w.spec.k
    _need(w, n, n + 4 * k, "nu")
    if K is None:
        K = k_formula(w.spec).K
    return w[n + 4 * k] - (K - 1) * w[n + 2 * k] + w[n]


def k_prime(w: SequenceWindow, n: int = 0, K=None):
    """K' = nu_n + ... + nu_{n+2k-1}; a conserved quantity."""
    k = w.spec.k
    if K is None:
        K = k_formula(w.spec).K
    total = None
    for j in range(2 * k):
        v = nu_invariant(w, n + j, K)
        total = v if total is None else total + v
    return total


def inhom_coeffs(w: SequenceWindow, n: int, K=None) -> InhomCoeffs:
    """nu_n plus (epsilon_n, zeta_n, eta_n) of x_{m+2} + eta x_{m+1} + zeta x_m = epsilon.

    The three coefficients solve the 3x3 system over the columns m = n,
    n+2k, n+4k of the one-bordered Wronskian; numeric windows only.
    """
    k = w.spec.k
    if w.spec.symbolic_mode:
        raise ValueError("inhomogeneous coefficients are computed in numeric mode only")
    _need(w, n, n + 4 * k + 2, "inhomogeneous relation")
    nu = nu_invariant(w, n, K)
    a_rows = [[Fraction(1), -w[m], -w[m + 1]] for m in (n, n + 2 * k, n + 4 * k)]
    rhs = [w[m + 2] for m in (n, n + 2 * k, n + 4 * k)]
    det = matrix_det(Matrix.from_rows(a_rows))
    if det == 0:
        raise SingularSystemError(f"order-2 relation solve is singular at n={n}")
    sol = solve_exact(a_rows, rhs)
    assert sol is not None
    eps, zeta, eta = sol
    return InhomCoeffs(nu, eps, zeta, eta)


# -- linear relation and the operator identity -------------------------------------

def linear_relation_residual(w: SequenceWindow, n: int, K=None):
    """x_{n+6k} - K (x_{n+4k} - x_{n+2k}) - x_n; identically 0 on solutions."""
    k = w.spec.k
    _need(w, n, n + 6 * k, "linear relation")
    if K is None:
        K = k_formula(w.spec).K
    return w[n + 6 * k] - K * (w[n + 4 * k] - w[n + 2 * k]) - w[n]


def operator_identity_residual(w: SequenceWindow, K, n: int):
    """lhs - rhs of the shift-operator identity on an arbitrary window.

    With L = S^{6k} - K (S^{4k} - S^{2k}) - 1 acting on sequences, the
    residual xi satisfies  L xi_n = M_n (L x)_n  for the displayed first-order
    operator M_n, for ANY window (solution or not) and any constant K.
    """
    k = w.spec.k
    _need(w, n, n + 8 * k + 1, "operator identity")
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
    k = spec.k
    nv = 2 * k + 2
    shifted = [RationalFunction.lift(v, nv) for v in phi(spec.init, spec.a, k)]
    a = RationalFunction.lift(spec.a, nv)
    shifted_k = k_breakdown(shifted, a).K
    return shifted_k.as_laurent()


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
    f1 = dict(ex.F1_forward)
    f1.update(ex.F1_backward)
    f2 = dict(ex.F2_forward)
    f2.update(ex.F2_backward)
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
    r1 = gap * kb.P1 - (ex.F1_forward[4 * k] - ex.F1_backward[-2 * k])
    r2 = gap * kb.P2 - (ex.F2_forward[4 * k] - ex.F2_backward[-2 * k])
    return r1, r2
