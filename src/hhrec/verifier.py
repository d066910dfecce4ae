"""Randomized verification campaigns over the identity suite.

A campaign draws random rational seeds, runs every requested identity check
on each trial, and aggregates a machine-readable report.  Failures are data,
not exceptions: any fail record carries a witness and is reproducible from
(check, seed, trial) alone.  A witness names the first index ``n`` where an
identity fails, the ``identity``, and the nonzero ``residual`` it left; a
failure that leaves no residual (no recurrence found, a non-integer or
non-Laurent iterate, a failed reversibility round trip) has no ``residual``
key.  A numeric sweep tests each identity as one integer, the residual's
numerator cross-multiplied over one denominator (``engine._xi_parts``,
``invariants._relation_parts``, ``closed_form._minus_window``), or compares
two values with ``!=``; it builds a residual only for the witness.

Randomness comes from SplitMix64, a tiny, exactly specified 64-bit generator
(Steele, Lea & Flood's mixer), so reports are portable across platforms and
Python versions.  The per-trial substream is seeded with
``mix64(seed XOR (trial+1) * 0xBF58476D1CE4E5B9)``; resample attempt i uses
the (i+1)-th spec drawn from that substream.

Degenerate seeds (a zero divisor of a check's own steps, vanishing Wronskian,
equal endpoints in the ratio route, t in {0, 1}) are never silently passed:
the trial is resampled up to ``max_resamples`` times and, if the degeneracy
persists, recorded as ``skipped-degenerate``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import closed_form as cf
from . import invariants as inv
from .engine import (
    RecurrenceSpec,
    SequenceWindow,
    _xi_parts,
    apply_sigma,
    check_reversibility,
    phi,
    phi_inverse,
    raw_window,
    xi_residual,
)
from .errors import (
    CertificateError,
    DegenerateInputError,
    InsufficientDataError,
    LaurentViolationError,
    NotExactError,
)
from .matrix import scale_row
from .rational import format_rational

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator; deterministic and platform-independent."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-enough integer in [lo, hi]; determinism is the contract here."""
        return lo + self.next_u64() % (hi - lo + 1)


def _mix64(x: int) -> int:
    return SplitMix64(x).next_u64()


def trial_stream(seed: int, trial: int, salt: int = 0) -> SplitMix64:
    """The independent substream for one trial (optionally salted)."""
    return SplitMix64(_mix64(seed ^ ((trial + 1) * 0xBF58476D1CE4E5B9 & _MASK64) ^ salt))


def random_rational(rng: SplitMix64, numerator_bound: int, denominator_bound: int) -> Fraction:
    """A nonzero rational with |num| <= numerator_bound, den <= denominator_bound."""
    num = 0
    while num == 0:
        num = rng.randint(-numerator_bound, numerator_bound)
    den = rng.randint(1, denominator_bound)
    return Fraction(num, den)


@dataclass(frozen=True)
class TrialConfig:
    """Everything needed to reproduce a campaign byte-for-byte."""

    k: int
    trials: int = 25
    seed: int = 0
    numerator_bound: int = 10
    denominator_bound: int = 10
    checks: frozenset = frozenset({"all"})
    symbolic: bool = False
    max_resamples: int = 8
    inject_fault: str | None = None

    def __post_init__(self):
        if self.k < 1 or self.trials < 1 or self.max_resamples < 0:
            raise ValueError("k and trials must be >= 1, max_resamples >= 0")
        if self.numerator_bound < 1 or self.denominator_bound < 1:
            raise ValueError("bounds must be >= 1")
        if not self.checks:
            raise ValueError("checks must be nonempty")
        checks = self.resolved_checks()  # raises on an unknown check id
        target = self.fault_target
        if target is not None and target not in checks:
            raise ValueError(f"inject_fault target {self.inject_fault!r} is not among the requested checks")
        if target in _fault_blind(self.k, self.symbolic):
            raise ValueError(f"inject_fault target {self.inject_fault!r} never reads the corrupted "
                             "iterate x_{2k+1}, so it cannot serve as a negative control")

    def resolved_checks(self) -> list[str]:
        return expand_checks(self.checks, self.symbolic)

    @property
    def fault_target(self) -> str | None:
        return None if self.inject_fault is None else normalize_check_id(self.inject_fault)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "checks": self.resolved_checks()}


def random_spec(cfg: TrialConfig, trial: int, attempt: int = 0) -> RecurrenceSpec:
    """The attempt-th candidate spec of the trial's deterministic stream."""
    rng = trial_stream(cfg.seed, trial)
    for _ in range(attempt + 1):
        init = [random_rational(rng, cfg.numerator_bound, cfg.denominator_bound)
                for _ in range(2 * cfg.k + 1)]
        a = random_rational(rng, cfg.numerator_bound, cfg.denominator_bound)
    return RecurrenceSpec(cfg.k, a, tuple(init))


# -- minimal linear recurrence detection ----------------------------------------

def detect_linear_recurrence(values: Sequence[Fraction], max_order: int) -> list[Fraction] | None:
    """Monic characteristic polynomial of the minimal linear recurrence.

    Berlekamp-Massey (Massey, IEEE Trans. Inf. Theory 15, 1969) finds the
    shortest recurrence x[n+L] = c1 x[n+L-1] + ... + cL x[n] that holds over
    ALL supplied terms; with at least 2*max_order + 2 terms it is unique
    whenever L <= max_order.  It runs over the integers s*x_n, s the lcm of
    the denominators (a recurrence with constant coefficients survives the
    scaling), and the result is checked against every term before it is
    returned.  Returns the coefficients [1, -c1, ..., -cL] (descending
    powers), [1] for an all-zero input, or None when L > max_order.  A value
    that is not a Fraction or an int raises TypeError; a Decimal, as
    ``export_window`` gives, would read back in time quadratic in its digits.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    try:
        _, ys = scale_row(values)
    except TypeError as exc:
        raise TypeError(f"{exc}: take the values from the Fraction window "
                        "of spec.window().extend(lo, hi)") from None
    if len(ys) < 2 * max_order + 2:
        raise InsufficientDataError(
            f"need at least 2*max_order+2 = {2 * max_order + 2} terms, got {len(ys)}")
    conn = _integer_massey(ys, max_order)
    # the detector is an oracle and must not trust its algorithm
    if conn is None or any(_residual(conn, ys, n) for n in range(len(conn) - 1, len(ys))):
        return None
    return [Fraction(c, conn[0]) for c in conn]


def _residual(conn: Sequence[int], ys: Sequence[int], n: int) -> int:
    # a zero term still costs a copy of a big integer in the sum
    return sum(c * ys[n - i] for i, c in enumerate(conn) if c)


def _integer_massey(ys: Sequence[int], max_order: int) -> list[int] | None:
    """Fraction-free Berlekamp-Massey: the primitive integer connection
    polynomial [c0, ..., cL] of ys, or None once L passes max_order.

    conn annihilates every term so far; prev is conn before its last change
    of order, which left the discrepancy prev_disc, shift steps ago.  The
    update prev_disc*conn - disc*S^shift*prev is a nonzero multiple of the
    rational one; dividing out its content (a positive gcd, so signs stay)
    keeps the integers small.
    """
    conn, prev = [1], [1]
    order, shift, prev_disc = 0, 1, 1
    for n in range(len(ys)):
        disc = _residual(conn, ys, n)
        if disc:
            new_order = max(order, n + 1 - order)
            updated = [prev_disc * c for c in conn] + [0] * (new_order - order)
            for i, c in enumerate(prev, start=shift):
                updated[i] -= disc * c
            content = math.gcd(*updated)
            updated = [c // content for c in updated]
            if new_order > order:
                if new_order > max_order:  # the order never decreases
                    return None
                prev, prev_disc, shift = conn, disc, 0
            order, conn = new_order, updated
        shift += 1
    return conn


def poly_divides(d: Sequence[Fraction], p: Sequence[Fraction]) -> bool:
    """Whether d divides p exactly (both descending, d nonzero)."""
    r = [Fraction(v) for v in p]
    d = [Fraction(v) for v in d]
    while r and r[0] == 0:
        r.pop(0)
    while len(r) >= len(d):
        f = r[0] / d[0]
        for i in range(len(d)):
            r[i] -= f * d[i]
        assert r[0] == 0
        r.pop(0)
        while r and r[0] == 0:
            r.pop(0)
    return not r


def target_characteristic_poly(k: int, K: Fraction) -> list[Fraction]:
    """(S^{2k} - 1) * (S^{4k} - (K-1) S^{2k} + 1), descending coefficients."""
    out = [Fraction(0)] * (6 * k + 1)
    out[0], out[6 * k] = Fraction(1), Fraction(-1)
    out[2 * k], out[4 * k] = -Fraction(K), Fraction(K)
    return out


# -- campaign machinery -----------------------------------------------------------

@dataclass
class CheckResult:
    """A check's outcome; truthy iff it passed, so ``a and b`` is the first
    failure of two results, and b is computed only when a passed."""

    ok: bool
    witness: dict | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass
class TrialContext:
    """Shared per-(trial, attempt) state: the spec, its k, and a growing window.

    The checks read K as ``spec.K``, computed once per spec.  While
    ``corrupt`` is set (the running check is the fault-injection target),
    ``window`` hands out a raw copy with x_{2k+1} raised by one.
    """

    cfg: TrialConfig
    spec: RecurrenceSpec
    trial: int
    corrupt: bool = False
    _window: SequenceWindow | None = None

    @property
    def k(self) -> int:
        return self.spec.k

    def window(self, lo: int, hi: int) -> SequenceWindow:
        if self._window is None:
            self._window = self.spec.window()
        if not self._window.covers(lo, hi):
            self._window = self._window.extend(lo, hi)
        if not self.corrupt:
            return self._window
        n = 2 * self.k + 1  # inside every window the checks ask for
        return self._window.with_value(n, self._window[n] + 1)

    def default_window(self) -> SequenceWindow:
        return self.window(-2 * self.k - 2, 12 * self.k + 3)


def _wit(n: int, what: str, residual=None) -> dict:
    """A failure witness; a tuple residual becomes a list of canonical strings,
    and a failure that leaves no residual has no ``residual`` key."""
    wit = {"n": n, "identity": what}
    if residual is not None:
        wit["residual"] = ([format_rational(v) for v in residual] if isinstance(residual, tuple)
                           else format_rational(residual))
    return wit


def _sweep(ns: Iterable[int], residual: Callable, what: str) -> CheckResult:
    """Pass iff residual(n), or each entry of a tuple residual(n), is zero at
    every n; else witness the first n where it is not."""
    for n in ns:
        r = residual(n)
        if any(r) if isinstance(r, tuple) else r:
            return CheckResult(False, _wit(n, what, r))
    return CheckResult(True)


def _zero_sweep(ns: Iterable[int], parts: Callable, what: str) -> CheckResult:
    """Pass iff the integer numerator of parts(n) = (numerator, denominator)
    is 0 at every n; else witness the first n where it is not, with the
    residual numerator/denominator, the only Fraction the sweep builds."""
    for n in ns:
        num, den = parts(n)
        if num:
            return CheckResult(False, _wit(n, what, Fraction(num, den)))
    return CheckResult(True)


def _equal_sweep(triples: Iterable[tuple], what: str) -> CheckResult:
    """Pass iff left == right for every (n, left, right); else witness the
    first n where not, with the residual left - right."""
    for n, left, right in triples:
        if left != right:
            return CheckResult(False, _wit(n, what, left - right))
    return CheckResult(True)


def _xi_sweep(w: SequenceWindow, what: str) -> CheckResult:
    """xi_n = 0 at every n the window covers."""
    ns = range(w.lo, w.hi - 2 * w.spec.k)
    if w.spec.symbolic_mode:
        return _sweep(ns, lambda n: xi_residual(w, n), what)
    return _zero_sweep(ns, lambda n: _xi_parts(w, n), what)


def _explicit_sweep(w: SequenceWindow, ex: inv.ExplicitIterates, what: str) -> CheckResult:
    """The closed formulas equal the iterates on [-2k, -1] and [2k+1, 4k]."""
    return _equal_sweep(((m, ex.values[m], w[m]) for m in sorted(ex.values)), what)


# each check: fn(ctx) -> CheckResult; DegenerateInputError triggers a resample

def _check_xi_zero(ctx: TrialContext) -> CheckResult:
    return _xi_sweep(ctx.default_window(), "xi_n = 0")


def _check_linear_relation(ctx: TrialContext) -> CheckResult:
    w = ctx.default_window()
    return _zero_sweep(range(w.lo, w.hi - 6 * ctx.k + 1),
                       lambda n: inv._relation_parts(w, n, ctx.spec.K),
                       "x[n+6k] - K(x[n+4k]-x[n+2k]) - x[n] = 0")


def _map_orbit(spec: RecurrenceSpec, lo: int, hi: int) -> dict:
    """x_n for n in [lo, hi] by iterated phi and phi_inverse alone: the slow
    route, which never takes the linear relation."""
    k = spec.k
    x = dict(enumerate(spec.init))
    point = spec.init
    for n in range(2 * k + 1, hi + 1):
        point = phi(point, spec.a, k)
        x[n] = point[-1]
    point = spec.init
    for n in range(-1, lo - 1, -1):
        point = phi_inverse(point, spec.a, k)
        x[n] = point[0]
    return x


def _check_linear_route(ctx: TrialContext) -> CheckResult:
    w = ctx.default_window()
    slow = _map_orbit(ctx.spec, w.lo, w.hi)
    return _equal_sweep(((n, w[n], slow[n]) for n in w.indices()), "linear route == nonlinear step")


def _check_k_ratio(ctx: TrialContext) -> CheckResult:
    K = ctx.spec.K
    value, form = inv.k_ratio_route(ctx.default_window())  # may raise -> resample
    return (_sweep((0,), lambda n: value - K, f"ratio ({form}) == K")
            and CheckResult(True, detail=f"form={form}"))


def _check_k_cramer(ctx: TrialContext) -> CheckResult:
    w, K = ctx.default_window(), ctx.spec.K
    return _sweep((0, 1), lambda n: tuple(v - K for v in inv.k_cramer(w, n)), "Cramer pair == K")


def _check_k_monodromy(ctx: TrialContext) -> CheckResult:
    pc, K = inv.periodic_coeffs(ctx.default_window()), ctx.spec.K
    return _sweep((0, 1), lambda n: tuple(v - K for v in inv.monodromy_k(pc, start=n)),
                  "monodromy traces == K")


def _check_delta_invariance(ctx: TrialContext) -> CheckResult:
    k, w = ctx.k, ctx.default_window()
    deltas = [inv.delta(w, n) for n in range(w.lo, w.hi - 4 * k - 2 + 1)]  # each once
    return _sweep(range(w.lo, w.hi - 5 * k - 2 + 1),
                  lambda n: deltas[n + k - w.lo] - deltas[n - w.lo], "delta[n+k] == delta[n]")


def _check_wronskian4(ctx: TrialContext) -> CheckResult:
    w = ctx.default_window()
    return _sweep(range(w.lo, w.hi - 6 * ctx.k - 3 + 1),
                  lambda n: inv.wronskian4_det(w, n), "det of 4x4 Wronskian = 0")


def _check_abg_relation(ctx: TrialContext) -> CheckResult:
    k = ctx.k
    w = ctx.default_window()
    pc = inv.periodic_coeffs(w)

    def periodicity(n):  # alpha has period k, beta and gamma period 2k
        alpha = inv.abg_coeffs(w, n + k)[0] - pc.alpha_at(n + k)
        _, beta, gamma = inv.abg_coeffs(w, n + 2 * k)
        return alpha, beta - pc.beta_at(n), gamma - pc.gamma_at(n)

    return (_sweep(range(0, 6 * k),
                   lambda n: (w[n + 3] - pc.gamma_at(n) * w[n + 2]
                              + pc.beta_at(n) * w[n + 1] - pc.alpha_at(n) * w[n]),
                   "3-term relation")
            and _sweep(range(0, 2 * k), periodicity, "alpha, beta, gamma periodicity")
            # abg_coeffs(w, j)[0] == pc.alpha_at(j) for j = 1..k: pc holds it for j < k,
            # and the periodicity sweep proved it at j = k
            and _sweep((0,), lambda n: math.prod(pc.alpha_at(j) for j in range(1, k + 1)) - 1,
                       "product of alpha_1..alpha_k == 1"))


def _check_explicit_iterates(ctx: TrialContext) -> CheckResult:
    w = ctx.default_window()
    return _explicit_sweep(w, inv.explicit_iterates(ctx.spec), "closed formula == iterate")


def _check_inhom(ctx: TrialContext) -> CheckResult:
    k, K = ctx.k, ctx.spec.K
    w = ctx.default_window()
    # nu_{n+2k} - nu_n is the linear relation's residual at n
    invariants = (_zero_sweep(range(0, 2 * k + 2), lambda n: inv._relation_parts(w, n, K),
                              "nu is a 2k-invariant")
                  and _sweep((0,), lambda n: inv.k_prime(w, n, K) - inv.k_prime(w, n + 1, K),
                             "K' conserved under shift"))
    if not invariants:
        return invariants
    c0, c2k = inv.inhom_coeffs(w, 0, K), inv.inhom_coeffs(w, 2 * k, K)
    return (_sweep((0,), lambda n: (c2k.epsilon - c0.epsilon, c2k.zeta - c0.zeta, c2k.eta - c0.eta),
                   "epsilon/zeta/eta 2k-invariance")
            # the fourth bordered column satisfies the same relation
            and _sweep((6 * k,), lambda m: w[m + 2] + c0.eta * w[m + 1] + c0.zeta * w[m] - c0.epsilon,
                       "order-2 inhomogeneous relation"))


def _check_closed_form(ctx: TrialContext) -> CheckResult:
    k = ctx.k
    w = ctx.window(-6 * k, 12 * k + 3)
    coeffs = cf.extract_coeffs(w, ctx.spec.K)  # DegenerateTError -> resample
    return _zero_sweep(range(-6 * k, 12 * k + 1), lambda n: cf._minus_window(coeffs, w, n),
                       "closed form == iterate")


def _check_detect(ctx: TrialContext) -> CheckResult:
    k = ctx.k
    w = ctx.window(-2 * k - 2, 14 * k)
    found = detect_linear_recurrence([w[n] for n in range(0, 14 * k + 1)], 6 * k)
    if found is None:
        return CheckResult(False, _wit(0, "a linear recurrence of order <= 6k exists"))
    if not poly_divides(found, target_characteristic_poly(k, ctx.spec.K)):
        return CheckResult(False, {**_wit(0, "detected charpoly divides the factored one"),
                                   "charpoly": [format_rational(c) for c in found]})
    return CheckResult(True, detail=f"order={len(found) - 1}")


def _check_first_integral(ctx: TrialContext) -> CheckResult:
    w = ctx.window(0, 2 * ctx.k + 1)
    shifted = [w[j] for j in range(1, 2 * ctx.k + 2)]
    return _sweep((1,), lambda n: inv.k_breakdown(shifted, ctx.spec.a).K - ctx.spec.K,
                  "K after one map step == K")


def _check_reversibility(ctx: TrialContext) -> CheckResult:
    if not check_reversibility(ctx.spec):  # a zero x_{2k+1} or x_{-1} raises -> resample
        return CheckResult(False, {**_wit(0, "phi_inverse(phi(p)) == p == phi(phi_inverse(p))"),
                                   "init": [format_rational(v) for v in ctx.spec.init]})
    return CheckResult(True)


def _check_sigma_roundtrip(ctx: TrialContext) -> CheckResult:
    k = ctx.k
    w = ctx.default_window()
    back = apply_sigma(apply_sigma(w))
    reversal = (_equal_sweep(((n, back[n], w[n]) for n in w.indices()), "sigma is an involution")
                and _xi_sweep(apply_sigma(w), "sigma image solves the recurrence"))
    if not reversal:
        return reversal
    # forward-then-backward round trip from the top of the window
    top = RecurrenceSpec(k, ctx.spec.a, tuple(w[w.hi - 2 * k + j] for j in range(2 * k + 1)))
    redone = top.window().extend(new_lo=-(w.hi - 2 * k - w.lo))
    return _equal_sweep(((j, redone[j], w[w.hi - 2 * k + j])
                         for j in range(redone.lo, 2 * k + 1)), "forward-backward round trip")


def _check_operator_identity(ctx: TrialContext) -> CheckResult:
    cfg = ctx.cfg
    rng = trial_stream(cfg.seed, ctx.trial, salt=0x0B5E_21)
    vals = [random_rational(rng, cfg.numerator_bound, cfg.denominator_bound)
            for _ in range(8 * ctx.k + 2)]
    K = random_rational(rng, cfg.numerator_bound, cfg.denominator_bound)
    w = raw_window(ctx.spec, 0, vals)
    return _sweep((0,), lambda n: inv.operator_identity_residual(w, K, n),
                  "L xi == M . L x on a raw window")


# -- symbolic checks ---------------------------------------------------------------

def _check_sym_laurent(ctx: TrialContext) -> CheckResult:
    """Every iterate over [-2k-2, 6k+4] is a Laurent polynomial with integer
    coefficients, and xi_n = 0 at every n.

    The window past [-3k, 3k] comes from the certified linear relation, so
    this xi sweep is the campaign's independent check of every value the
    relation built.  Each residual is one ``laurent.dot`` over the window's
    values: the products, up to 45,316 terms at k = 3, are never built, and a
    passing residual decodes no term.
    """
    k = ctx.k
    w = ctx.window(-2 * k - 2, 6 * k + 4)
    for n in w.indices():
        if not all(isinstance(c, int) for c in w[n].coefficients()):
            return CheckResult(False, _wit(n, "integer coefficients"))
    return _xi_sweep(w, "xi_n = 0 symbolically")


def _check_sym_explicit(ctx: TrialContext) -> CheckResult:
    k = ctx.k
    w = ctx.window(-2 * k, 4 * k)
    ex = inv.explicit_iterates(ctx.spec)
    return (_explicit_sweep(w, ex, "closed formula == symbolic iterate")
            and _sweep((2 * k,), lambda n: ex.F1[n], "first linear coefficient is zero")
            and _sweep(range(-1, -2 * k - 1, -1),
                       lambda n: tuple(f[n] - f[2 * k - n].sigma_pullback() for f in (ex.F1, ex.F2)),
                       "backward linear, quadratic coeffs are the reversal images"))


def _check_sym_first_integral(ctx: TrialContext) -> CheckResult:
    return _sweep((1,), lambda n: inv.k_after_phi(ctx.spec) - ctx.spec.K,
                  "pullback of K equals K as Laurent polynomials")


def _check_sym_k_ratio(ctx: TrialContext) -> CheckResult:
    # [-3k, 3k] holds only values of the nonlinear step, which never read K
    k = ctx.k
    try:
        ratio = inv.k_ratio(ctx.window(-3 * k, 3 * k), base=-k)
    except NotExactError:
        return CheckResult(False, _wit(-k, "(x[n+4k]-x[n-2k])/(x[n+2k]-x[n]) is a Laurent polynomial"))
    return _sweep((-k,), lambda n: ratio - ctx.spec.K, "ratio route == K symbolically")


def _check_sym_proof_identities(ctx: TrialContext) -> CheckResult:
    residuals = inv.first_integral_proof_residuals(ctx.spec)
    return _sweep((1, 2, 3), lambda n: residuals[n - 1], "conservation proof identity at order n")


def _check_sym_reversal_covariance(ctx: TrialContext) -> CheckResult:
    K = ctx.spec.K
    return (_sweep((0,), lambda n: K.sigma_pullback() - K, "K is invariant under variable reversal")
            and _sweep((0,), lambda n: ctx.spec.reversed_init().K - K,
                       "K of the reversed seed equals K"))


def _check_sym_p_from_iterates(ctx: TrialContext) -> CheckResult:
    residuals = inv.p_vs_iterates_residuals(ctx.spec)
    return _sweep((1, 2), lambda n: residuals[n - 1], "(x_2k - x_0) Pn == Fn[4k] - Fn[-2k]")


NUMERIC_CHECKS: dict[str, Callable[[TrialContext], CheckResult]] = {
    "xi_zero": _check_xi_zero,
    "linear_relation": _check_linear_relation,
    "linear_route": _check_linear_route,
    "k_ratio": _check_k_ratio,
    "k_cramer": _check_k_cramer,
    "k_monodromy": _check_k_monodromy,
    "delta_invariance": _check_delta_invariance,
    "wronskian4": _check_wronskian4,
    "abg_relation": _check_abg_relation,
    "explicit_iterates": _check_explicit_iterates,
    "inhom": _check_inhom,
    "closed_form": _check_closed_form,
    "detect": _check_detect,
    "first_integral": _check_first_integral,
    "reversibility": _check_reversibility,
    "sigma_roundtrip": _check_sigma_roundtrip,
    "operator_identity": _check_operator_identity,
}

SYMBOLIC_CHECKS: dict[str, Callable[[TrialContext], CheckResult]] = {
    "laurent": _check_sym_laurent,
    "explicit": _check_sym_explicit,
    "first_integral": _check_sym_first_integral,
    "k_ratio": _check_sym_k_ratio,
    "proof_identities": _check_sym_proof_identities,
    "reversal_covariance": _check_sym_reversal_covariance,
    "p_from_iterates": _check_sym_p_from_iterates,
}


def _fault_blind(k: int, symbolic: bool) -> frozenset:
    """The checks that never read x_{2k+1} of a trial window, where fault
    injection writes: a fault aimed at them would control nothing, so it is
    refused.  The symbolic k_ratio reads x_{3k}, which is x_{2k+1} at k = 1 only.
    """
    if not symbolic:
        return frozenset({"k_ratio", "reversibility", "operator_identity"})
    return frozenset({"first_integral", "proof_identities", "reversal_covariance",
                      "p_from_iterates", *(["k_ratio"] if k > 1 else [])})


def normalize_check_id(name: str) -> str:
    return name.strip().replace("-", "_")


def expand_checks(names, symbolic: bool) -> list[str]:
    table = SYMBOLIC_CHECKS if symbolic else NUMERIC_CHECKS
    out: list[str] = []
    for name in names:
        cid = normalize_check_id(name)
        if cid == "all":
            out.extend(table.keys())
        elif cid in table:
            out.append(cid)
        else:
            raise ValueError(f"unknown {'symbolic' if symbolic else 'numeric'} check: {name!r}")
    return sorted(set(out), key=list(table).index)


# -- report -------------------------------------------------------------------------

@dataclass
class CheckRecord:
    check: str
    k: int
    seed: int
    trial: int
    status: str  # pass | fail | skipped-degenerate
    witness: dict | None = None
    detail: str | None = None
    resamples: int = 0
    elapsed: float = 0.0


@dataclass
class VerificationReport:
    config: TrialConfig
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def counts(self) -> dict:
        c = {"pass": 0, "fail": 0, "skipped-degenerate": 0}
        for r in self.records:
            c[r.status] += 1
        return c

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == "fail"]

    def to_json(self) -> str:
        counts = self.counts
        return json.dumps({
            "config": self.config.to_json_dict(),
            # a record's fields in order; asdict would deep-copy every witness for the same text
            "results": [vars(r) for r in self.records],
            "summary": {**counts, "total": len(self.records)},
        }, indent=2) + "\n"

    def render_table(self) -> str:
        lines = [f"{'trial':>5}  {'check':<20} {'status':<19} {'resamples':>9}  detail"]
        for r in self.records:
            extra = r.detail or ""
            if r.status == "fail" and r.witness is not None:
                extra = json.dumps(r.witness)
            lines.append(f"{r.trial:>5}  {r.check:<20} {r.status:<19} {r.resamples:>9}  {extra}")
        c = self.counts
        lines.append(f"summary: {c['pass']} pass, {c['fail']} fail, "
                     f"{c['skipped-degenerate']} skipped-degenerate")
        return "\n".join(lines) + "\n"


def run_campaign(cfg: TrialConfig) -> VerificationReport:
    """Run every requested check on every trial; failures are report data.

    Each trial owns a deterministic spec stream; a check that raises a
    degeneracy is retried on the next candidate spec.  The checks of a
    trial share one context per attempt index, so windows are reused.
    Symbolic trials draw nothing at random, so only trial 0 runs; the
    records of trials 1..n-1 are its copies, with ``elapsed`` 0.0.
    """
    check_ids = cfg.resolved_checks()
    table = SYMBOLIC_CHECKS if cfg.symbolic else NUMERIC_CHECKS
    report = VerificationReport(cfg)
    for trial in range(1 if cfg.symbolic else cfg.trials):
        contexts: list[TrialContext] = []  # the context of each attempt so far
        for cid in check_ids:
            notes = []
            for attempt in range(cfg.max_resamples + 1):
                if attempt == len(contexts):
                    spec = (RecurrenceSpec.symbolic(cfg.k) if cfg.symbolic
                            else random_spec(cfg, trial, attempt))
                    contexts.append(TrialContext(cfg, spec, trial))
                ctx = contexts[attempt]
                ctx.corrupt = cid == cfg.fault_target
                t0 = time.perf_counter()
                try:
                    result = table[cid](ctx)
                except DegenerateInputError as exc:
                    notes.append(f"attempt {attempt}: {exc}")
                    continue
                # a window build that would disprove the theorem: data, not a crash
                except LaurentViolationError as exc:
                    result = CheckResult(False, _wit(exc.n, "iterate stays a Laurent polynomial"))
                except CertificateError as exc:
                    result = CheckResult(False, _wit(exc.n, f"linear-route certificate {exc.identity}",
                                                     exc.residual))
                report.records.append(CheckRecord(
                    cid, cfg.k, cfg.seed, trial, "pass" if result.ok else "fail",
                    result.witness, result.detail, attempt, time.perf_counter() - t0))
                break
            else:
                report.records.append(CheckRecord(
                    cid, cfg.k, cfg.seed, trial, "skipped-degenerate",
                    {"degeneracies": notes}, None, cfg.max_resamples, 0.0))
    if cfg.symbolic:
        first = list(report.records)
        report.records.extend(replace(r, trial=t, elapsed=0.0)
                              for t in range(1, cfg.trials) for r in first)
    return report
