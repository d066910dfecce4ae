"""Randomized verification campaigns over the identity suite.

A campaign draws random rational seeds, runs every requested identity check
on each trial, and aggregates a machine-readable report.  Failures are data,
not exceptions: any fail record carries a witness and is reproducible from
(check, seed, trial) alone.

Randomness comes from SplitMix64, a tiny, exactly specified 64-bit generator
(Steele, Lea & Flood's mixer), so reports are portable across platforms and
Python versions.  The per-trial substream is seeded with
``mix64(seed XOR (trial+1) * 0xBF58476D1CE4E5B9)``; resample attempt i uses
the (i+1)-th spec drawn from that substream.

Degenerate seeds (zero pivot, vanishing Wronskian, equal endpoints in the
ratio route, t in {0, 1}) are never silently passed: the trial is resampled
up to ``max_resamples`` times and, if the degeneracy persists, recorded as
``skipped-degenerate``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from . import closed_form as cf
from . import invariants as inv
from .engine import (
    RecurrenceSpec,
    SequenceWindow,
    apply_sigma,
    check_reversibility,
    format_value,
    raw_window,
    xi_residual,
)
from .errors import (
    DegenerateInputError,
    InsufficientDataError,
    LaurentViolationError,
    ResampleBudgetExhaustedError,
)
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
        if target in (_SYMBOLIC_FAULT_BLIND if self.symbolic else _NUMERIC_FAULT_BLIND):
            raise ValueError(f"inject_fault target {self.inject_fault!r} never reads the corrupted "
                             "iterate x_{2k+1}, so it cannot serve as a negative control")

    def resolved_checks(self) -> list[str]:
        return expand_checks(self.checks, self.symbolic)

    @property
    def fault_target(self) -> str | None:
        return None if self.inject_fault is None else normalize_check_id(self.inject_fault)

    def to_json_dict(self) -> dict:
        return {
            "k": self.k, "trials": self.trials, "seed": self.seed,
            "numerator_bound": self.numerator_bound,
            "denominator_bound": self.denominator_bound,
            "checks": self.resolved_checks(),
            "symbolic": self.symbolic,
            "max_resamples": self.max_resamples,
            "inject_fault": self.inject_fault,
        }


def random_spec(cfg: TrialConfig, trial: int, attempt: int = 0,
                reject: Callable[[RecurrenceSpec], bool] | None = None) -> RecurrenceSpec:
    """The attempt-th candidate spec of the trial's deterministic stream.

    With a ``reject`` predicate, draws successive candidates until one is
    accepted, up to ``max_resamples`` extra draws.
    """
    rng = trial_stream(cfg.seed, trial)
    budget = cfg.max_resamples if reject is not None else attempt

    def draw() -> RecurrenceSpec:
        init = [random_rational(rng, cfg.numerator_bound, cfg.denominator_bound)
                for _ in range(2 * cfg.k + 1)]
        a = random_rational(rng, cfg.numerator_bound, cfg.denominator_bound)
        return RecurrenceSpec(cfg.k, a, tuple(init))

    spec = draw()
    if reject is None:
        for _ in range(attempt):
            spec = draw()
        return spec
    tried = 0
    while reject(spec):
        tried += 1
        if tried > budget:
            raise ResampleBudgetExhaustedError(
                f"no acceptable seed within {budget} resamples (seed={cfg.seed}, trial={trial})")
        spec = draw()
    return spec


# -- minimal linear recurrence detection ----------------------------------------

def detect_linear_recurrence(values: Sequence[Fraction], max_order: int) -> list[Fraction] | None:
    """Monic characteristic polynomial of the minimal linear recurrence.

    Berlekamp-Massey over Q (Massey, IEEE Trans. Inf. Theory 15, 1969) finds
    the shortest recurrence x[n+L] = c1 x[n+L-1] + ... + cL x[n] that holds
    over ALL supplied terms; with at least 2*max_order + 2 terms it is unique
    whenever L <= max_order.  The result is checked against every term before
    it is returned.  Returns the coefficients [1, -c1, ..., -cL] (descending
    powers), [1] for an all-zero input, or None when L > max_order.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    values = [Fraction(v) for v in values]
    if len(values) < 2 * max_order + 2:
        raise InsufficientDataError(
            f"need at least 2*max_order+2 = {2 * max_order + 2} terms, got {len(values)}")
    # conn = [1, -c1, ..., -cL] annihilates every term so far; prev is conn
    # before the last change of order, with discrepancy prev_disc, shift steps ago
    def residual(conn, n):
        return sum(c * values[n - i] for i, c in enumerate(conn))

    conn, prev = [Fraction(1)], [Fraction(1)]
    order, shift, prev_disc = 0, 1, Fraction(1)
    for n in range(len(values)):
        disc = residual(conn, n)
        if disc:
            new_order = max(order, n + 1 - order)
            updated = conn + [Fraction(0)] * (new_order - order)
            scale = disc / prev_disc
            for i, c in enumerate(prev):
                updated[i + shift] -= scale * c
            if new_order > order:
                if new_order > max_order:  # the order never decreases
                    return None
                prev, prev_disc, shift = conn, disc, 0
            order, conn = new_order, updated
        shift += 1
    # the detector is an oracle and must not trust its algorithm
    if any(residual(conn, n) for n in range(order, len(values))):
        return None
    return conn


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    """Product of dense univariate polynomials (descending coefficients)."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


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
    left = [Fraction(1)] + [Fraction(0)] * (2 * k - 1) + [Fraction(-1)]
    right = ([Fraction(1)] + [Fraction(0)] * (2 * k - 1) + [-(K - 1)]
             + [Fraction(0)] * (2 * k - 1) + [Fraction(1)])
    return poly_mul(left, right)


# -- campaign machinery -----------------------------------------------------------

@dataclass
class CheckResult:
    ok: bool
    witness: dict | None = None
    detail: str | None = None


@dataclass
class TrialContext:
    """Shared per-(trial, attempt) state, or per campaign when symbolic: the
    spec and a growing window.

    While ``corrupt`` is set (the running check is the fault-injection
    target), ``window`` hands out a raw copy with x_{2k+1} raised by one.
    """

    cfg: TrialConfig
    spec: RecurrenceSpec
    trial: int
    corrupt: bool = False
    _window: SequenceWindow | None = None

    def window(self, lo: int, hi: int) -> SequenceWindow:
        if self._window is None:
            self._window = self.spec.window()
        if not self._window.covers(lo, hi):
            self._window = self._window.extend(min(lo, self._window.lo),
                                               max(hi, self._window.hi))
        if not self.corrupt:
            return self._window
        n = 2 * self.spec.k + 1  # inside every window the checks ask for
        return self._window.with_value(n, self._window[n] + 1)

    def default_window(self) -> SequenceWindow:
        k = self.spec.k
        return self.window(-2 * k - 2, 12 * k + 3)

    def breakdown(self) -> inv.KBreakdown:
        return inv.k_formula(self.spec)


def _wit(n: int, what: str, value) -> dict:
    """A failure witness; a tuple residual becomes a list of canonical strings."""
    residual = ([format_value(v) for v in value] if isinstance(value, tuple)
                else format_value(value))
    return {"n": n, "identity": what, "residual": residual}


def _xi_sweep(w: SequenceWindow, what: str) -> CheckResult:
    """xi_n = 0 at every n the window covers."""
    for n in range(w.lo, w.hi - 2 * w.spec.k):
        r = xi_residual(w, n)
        if r:
            return CheckResult(False, _wit(n, what, r))
    return CheckResult(True)


def _explicit_sweep(w: SequenceWindow, ex: inv.ExplicitIterates, what: str) -> CheckResult:
    """The closed formulas equal the iterates on [-2k, -1] and [2k+1, 4k]."""
    k = ex.spec.k
    for m in [*range(-2 * k, 0), *range(2 * k + 1, 4 * k + 1)]:
        if ex.value(m) != w[m]:
            return CheckResult(False, _wit(m, what, ex.value(m) - w[m]))
    return CheckResult(True)


# each check: fn(ctx) -> CheckResult; DegenerateInputError triggers a resample

def _check_xi_zero(ctx: TrialContext) -> CheckResult:
    return _xi_sweep(ctx.default_window(), "xi_n = 0")


def _check_linear_relation(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    K = ctx.breakdown().K
    w = ctx.default_window()
    for n in range(w.lo, w.hi - 6 * k + 1):
        r = inv.linear_relation_residual(w, n, K)
        if r != 0:
            return CheckResult(False, _wit(n, "x[n+6k] - K(x[n+4k]-x[n+2k]) - x[n] = 0", r))
    return CheckResult(True)


def _check_k_ratio(ctx: TrialContext) -> CheckResult:
    K = ctx.breakdown().K
    value, form = inv.k_ratio_route(ctx.default_window())  # may raise -> resample
    if value != K:
        return CheckResult(False, _wit(0, f"ratio ({form}) == K", value - K))
    return CheckResult(True, detail=f"form={form}")


def _check_k_cramer(ctx: TrialContext) -> CheckResult:
    K = ctx.breakdown().K
    w = ctx.default_window()
    for n in (0, 1):
        k1, k2 = inv.k_cramer(w, n)
        if k1 != K or k2 != K:
            return CheckResult(False, _wit(n, "Cramer pair == K", (k1 - K, k2 - K)))
    return CheckResult(True)


def _check_k_monodromy(ctx: TrialContext) -> CheckResult:
    K = ctx.breakdown().K
    w = ctx.default_window()
    pc = inv.periodic_coeffs(w)
    for start in (0, 1):
        k1, k2 = inv.monodromy_k(pc, start=start)
        if k1 != K or k2 != K:
            return CheckResult(False, _wit(start, "monodromy traces == K", (k1 - K, k2 - K)))
    return CheckResult(True)


def _check_delta_invariance(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    w = ctx.default_window()
    for n in range(w.lo, w.hi - 5 * k - 2 + 1):
        d0, d1 = inv.delta(w, n), inv.delta(w, n + k)
        if d0 != d1:
            return CheckResult(False, _wit(n, "delta[n+k] == delta[n]", d1 - d0))
    return CheckResult(True)


def _check_wronskian4(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    w = ctx.default_window()
    for n in range(w.lo, w.hi - 6 * k - 3 + 1):
        d = inv.wronskian4_det(w, n)
        if d != 0:
            return CheckResult(False, _wit(n, "det of 4x4 Wronskian = 0", d))
    return CheckResult(True)


def _check_abg_relation(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    w = ctx.default_window()
    pc = inv.periodic_coeffs(w)
    for n in range(0, 6 * k):
        r = (w[n + 3] - pc.gamma_at(n) * w[n + 2]
             + pc.beta_at(n) * w[n + 1] - pc.alpha_at(n) * w[n])
        if r != 0:
            return CheckResult(False, _wit(n, "3-term relation", r))
    for n in range(0, 2 * k):
        if inv.abg_coeffs(w, n + k)[0] != pc.alpha_at(n + k):
            return CheckResult(False, _wit(n, "alpha periodicity", 0))
        trip = inv.abg_coeffs(w, n + 2 * k)
        if trip[1] != pc.beta_at(n) or trip[2] != pc.gamma_at(n):
            return CheckResult(False, _wit(n, "beta/gamma periodicity", 0))
    prod = Fraction(1)
    for j in range(1, k + 1):
        prod *= inv.abg_coeffs(w, j)[0]
    if prod != 1:
        return CheckResult(False, _wit(0, "product of alpha_1..alpha_k == 1", prod - 1))
    return CheckResult(True)


def _check_explicit_iterates(ctx: TrialContext) -> CheckResult:
    w = ctx.default_window()
    return _explicit_sweep(w, inv.explicit_iterates(ctx.spec), "closed formula == iterate")


def _check_inhom(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    K = ctx.breakdown().K
    w = ctx.default_window()
    for n in range(0, 2 * k + 2):
        if inv.nu_invariant(w, n + 2 * k, K) != inv.nu_invariant(w, n, K):
            return CheckResult(False, _wit(n, "nu is a 2k-invariant", 0))
    if inv.k_prime(w, 0, K) != inv.k_prime(w, 1, K):
        return CheckResult(False, _wit(0, "K' conserved under shift", 0))
    c0 = inv.inhom_coeffs(w, 0, K)
    c2k = inv.inhom_coeffs(w, 2 * k, K)
    if (c0.epsilon, c0.zeta, c0.eta) != (c2k.epsilon, c2k.zeta, c2k.eta):
        return CheckResult(False, _wit(0, "epsilon/zeta/eta 2k-invariance", 0))
    m = 6 * k  # fourth bordered column satisfies the same relation
    r = w[m + 2] + c0.eta * w[m + 1] + c0.zeta * w[m] - c0.epsilon
    if r != 0:
        return CheckResult(False, _wit(m, "order-2 inhomogeneous relation", r))
    return CheckResult(True)


def _check_closed_form(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    K = ctx.breakdown().K
    w = ctx.window(-6 * k, 12 * k + 3)
    coeffs = cf.extract_coeffs(w, K)  # DegenerateTError -> resample
    for n in range(-6 * k, 12 * k + 1):
        got = cf.eval_closed_form(coeffs, n)
        if got != w[n]:
            return CheckResult(False, _wit(n, "closed form == iterate", got - w[n]))
    return CheckResult(True)


def _check_detect(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    K = ctx.breakdown().K
    w = ctx.window(-2 * k - 2, 14 * k)
    values = [w[n] for n in range(0, 14 * k + 1)]
    found = detect_linear_recurrence(values, 6 * k)
    if found is None:
        return CheckResult(False, _wit(0, "a linear recurrence of order <= 6k exists", 0))
    if not poly_divides(found, target_characteristic_poly(k, K)):
        return CheckResult(False, {"identity": "detected charpoly divides the factored one",
                                   "charpoly": [format_rational(c) for c in found]})
    return CheckResult(True, detail=f"order={len(found) - 1}")


def _check_first_integral(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    K = ctx.breakdown().K
    w = ctx.window(0, 2 * k + 1)
    shifted = [w[j] for j in range(1, 2 * k + 2)]
    K_shift = inv.k_breakdown(shifted, ctx.spec.a).K
    if K_shift != K:
        return CheckResult(False, _wit(1, "K after one map step == K", K_shift - K))
    return CheckResult(True)


def _check_reversibility(ctx: TrialContext) -> CheckResult:
    if not check_reversibility(ctx.spec):
        return CheckResult(False, {"identity": "map == sigma o inverse o sigma",
                                   "init": [format_rational(v) for v in ctx.spec.init]})
    return CheckResult(True)


def _check_sigma_roundtrip(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    w = ctx.default_window()
    back = apply_sigma(apply_sigma(w))
    if back.lo != w.lo or back.values != w.values:
        return CheckResult(False, {"identity": "sigma is an involution"})
    sweep = _xi_sweep(apply_sigma(w), "sigma image solves the recurrence")
    if not sweep.ok:
        return sweep
    # forward-then-backward round trip from the top of the window
    top = RecurrenceSpec(k, ctx.spec.a, tuple(w[w.hi - 2 * k + j] for j in range(2 * k + 1)))
    redone = top.window().extend(new_lo=-(w.hi - 2 * k - w.lo))
    for j in range(redone.lo, 2 * k + 1):
        if redone[j] != w[w.hi - 2 * k + j]:
            return CheckResult(False, _wit(j, "forward-backward round trip", redone[j] - w[w.hi - 2 * k + j]))
    return CheckResult(True)


def _check_operator_identity(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    rng = trial_stream(ctx.cfg.seed, ctx.trial, salt=0x0B5E_21)
    cfg = ctx.cfg
    vals = [random_rational(rng, cfg.numerator_bound, cfg.denominator_bound)
            for _ in range(8 * k + 2)]
    K = random_rational(rng, cfg.numerator_bound, cfg.denominator_bound)
    w = raw_window(ctx.spec, 0, vals)
    r = inv.operator_identity_residual(w, K, 0)
    if r != 0:
        return CheckResult(False, _wit(0, "L xi == M . L x on a raw window", r))
    return CheckResult(True)


# -- symbolic checks ---------------------------------------------------------------

def _check_sym_laurent(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    try:
        w = ctx.window(-2 * k - 2, 6 * k + 4)
    except LaurentViolationError as exc:
        # would disprove the Laurent property: a failure witness, not a crash
        return CheckResult(False, _wit(exc.n, "iterate stays a Laurent polynomial", 0))
    for n in w.indices():
        p = w[n]
        if not all(isinstance(c, int) for c in p.terms().values()):
            return CheckResult(False, _wit(n, "integer coefficients", 0))
    return _xi_sweep(w, "xi_n = 0 symbolically")


def _check_sym_explicit(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    w = ctx.window(-2 * k, 4 * k)
    ex = inv.explicit_iterates(ctx.spec)
    sweep = _explicit_sweep(w, ex, "closed formula == symbolic iterate")
    if not sweep.ok:
        return sweep
    if ex.F1_forward[2 * k]:
        return CheckResult(False, _wit(2 * k, "first linear coefficient is zero",
                                       ex.F1_forward[2 * k]))
    for j in range(1, 2 * k + 1):
        for name, back, fwd in (("linear", ex.F1_backward, ex.F1_forward),
                                ("quadratic", ex.F2_backward, ex.F2_forward)):
            r = back[-j] - fwd[2 * k + j].sigma_pullback()
            if r:
                return CheckResult(False, _wit(-j, f"backward {name} coeff is the reversal image", r))
    return CheckResult(True)


def _check_sym_first_integral(ctx: TrialContext) -> CheckResult:
    K = ctx.breakdown().K
    shifted = inv.k_after_phi(ctx.spec)
    if shifted != K:
        return CheckResult(False, {"identity": "pullback of K equals K as Laurent polynomials"})
    return CheckResult(True)


def _check_sym_k_ratio(ctx: TrialContext) -> CheckResult:
    k = ctx.spec.k
    K = ctx.breakdown().K
    w = ctx.window(-2 * k, 4 * k)
    if inv.k_ratio(w, 0) != K:
        return CheckResult(False, {"identity": "ratio route == K symbolically"})
    return CheckResult(True)


def _check_sym_proof_identities(ctx: TrialContext) -> CheckResult:
    i1, i2, i3 = inv.first_integral_proof_residuals(ctx.spec)
    for order, r in ((1, i1), (2, i2), (3, i3)):
        if not r.is_zero():
            return CheckResult(False, {"identity": f"conservation proof identity at order {order}"})
    return CheckResult(True)


def _check_sym_reversal_covariance(ctx: TrialContext) -> CheckResult:
    K = ctx.breakdown().K
    if K.sigma_pullback() != K:
        return CheckResult(False, {"identity": "K is invariant under variable reversal"})
    if inv.k_formula(ctx.spec.reversed_init()).K != K:
        return CheckResult(False, {"identity": "K of the reversed seed equals K"})
    return CheckResult(True)


def _check_sym_p_from_iterates(ctx: TrialContext) -> CheckResult:
    r1, r2 = inv.p_vs_iterates_residuals(ctx.spec)
    for j, r in ((1, r1), (2, r2)):
        if not r.is_zero():
            return CheckResult(False, {"identity": f"(x_2k - x_0) P{j} == F{j}[4k] - F{j}[-2k]"})
    return CheckResult(True)


NUMERIC_CHECKS: dict[str, Callable[[TrialContext], CheckResult]] = {
    "xi_zero": _check_xi_zero,
    "linear_relation": _check_linear_relation,
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


# checks that never read x_{2k+1} of a trial window, where fault injection
# writes: a fault aimed at them would control nothing, so it is refused
_NUMERIC_FAULT_BLIND = frozenset({"k_ratio", "reversibility", "operator_identity"})
_SYMBOLIC_FAULT_BLIND = frozenset({"k_ratio", "first_integral", "proof_identities",
                                   "reversal_covariance", "p_from_iterates"})


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
            "results": [asdict(r) for r in self.records],
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
    degeneracy is retried on the next candidate spec (all checks of the
    trial share candidates by attempt index, so windows are reused).
    """
    check_ids = cfg.resolved_checks()
    table = SYMBOLIC_CHECKS if cfg.symbolic else NUMERIC_CHECKS
    report = VerificationReport(cfg)
    # symbolic trials draw nothing at random, so one context (spec and
    # window) serves every trial; no symbolic check reads ctx.trial
    shared = TrialContext(cfg, RecurrenceSpec.symbolic(cfg.k), 0) if cfg.symbolic else None
    for trial in range(cfg.trials):
        pending = list(check_ids)
        done: dict[str, CheckRecord] = {}
        notes: dict[str, list[str]] = {cid: [] for cid in check_ids}
        for attempt in range(cfg.max_resamples + 1):
            ctx = shared or TrialContext(cfg, random_spec(cfg, trial, attempt), trial)
            still: list[str] = []
            for cid in pending:
                ctx.corrupt = cid == cfg.fault_target
                t0 = time.perf_counter()
                try:
                    result = table[cid](ctx)
                except DegenerateInputError as exc:
                    notes[cid].append(f"attempt {attempt}: {exc}")
                    still.append(cid)
                    continue
                elapsed = time.perf_counter() - t0
                done[cid] = CheckRecord(
                    cid, cfg.k, cfg.seed, trial,
                    "pass" if result.ok else "fail",
                    result.witness, result.detail, attempt, elapsed)
            pending = still
            if not pending:
                break
        for cid in pending:
            done[cid] = CheckRecord(
                cid, cfg.k, cfg.seed, trial, "skipped-degenerate",
                {"degeneracies": notes[cid]}, None, cfg.max_resamples, 0.0)
        report.records.extend(done[cid] for cid in check_ids)
    return report
