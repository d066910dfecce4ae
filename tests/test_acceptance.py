"""Acceptance suite: one test per criterion, all comparisons exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is either a frozen golden computed by an
independent oracle or a pinned closed-form constant; no tolerances anywhere.
"""

import time
from fractions import Fraction

import pytest

from hhrec.closed_form import extract_coeffs
from hhrec.engine import RecurrenceSpec, raw_window
from hhrec.invariants import (
    explicit_iterates,
    k_after_phi,
    k_formula,
    k_prime,
    nu_invariant,
    operator_identity_residual,
)
from hhrec.matrix import ZeroMinorError, det_cofactor, det_dodgson, matrix_det
from hhrec.verifier import (
    SplitMix64,
    TrialConfig,
    detect_linear_recurrence,
    random_rational,
    run_campaign,
)

SEED = 20260810


def _report(cid: str, failures: list, extra: str = ""):
    status = "PASS" if not failures else "FAIL"
    tail = f"  [{extra}]" if extra else ""
    print(f"ACCEPTANCE {cid}: {status}{tail}")
    assert not failures, failures[:5]


def test_criterion_01_special_sequences():
    """k = 1..4, all-ones seed, a = 1: positive integers satisfying the
    constant-coefficient relation with K = 2k^2 + 8k + 4, in under 10 s."""
    failures = []
    t0 = time.perf_counter()
    expected_k = {1: 14, 2: 28, 3: 46, 4: 68}
    for k in (1, 2, 3, 4):
        spec = RecurrenceSpec.numeric(k, 1, [1] * (2 * k + 1))
        w = spec.window().extend(-50, 150)
        K = expected_k[k]
        if k_formula(spec).K != K:
            failures.append((k, "formula value"))
        for n in range(-50, 151):
            v = w[n]
            if v.denominator != 1 or v <= 0:
                failures.append((k, n, "not a positive integer", v))
                break
        for n in range(-50, 151 - 6 * k):
            if w[n + 6 * k] - K * (w[n + 4 * k] - w[n + 2 * k]) - w[n] != 0:
                failures.append((k, n, "linear relation"))
                break
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    _report("1 special-sequence reproduction", failures, f"{elapsed:.2f}s")


def test_criterion_02_general_linearization():
    """100 random seeds per k in {1,2,3}: the linear relation holds exactly
    across a width-12k window; degenerate seeds resampled; under 60 s."""
    failures = []
    t0 = time.perf_counter()
    resamples = 0
    skipped = 0
    for k in (1, 2, 3):
        rep = run_campaign(TrialConfig(k=k, trials=100, seed=SEED,
                                       checks=frozenset({"linear_relation"})))
        resamples += sum(r.resamples for r in rep.records)
        skipped += rep.counts["skipped-degenerate"]
        failures += [(k, r.trial, r.witness) for r in rep.failures]
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _report("2 general linearization", failures,
            f"{elapsed:.2f}s, {resamples} resamples, {skipped} skipped")


def test_criterion_03_four_route_agreement():
    """On the same trials: formula == ratio (or its shifted form) == both
    Cramer components == both monodromy traces, exactly."""
    failures = []
    for k in (1, 2, 3):
        rep = run_campaign(TrialConfig(k=k, trials=100, seed=SEED,
                                       checks=frozenset({"k_ratio", "k_cramer", "k_monodromy"})))
        failures += [(k, r.check, r.trial) for r in rep.failures]
    _report("3 four-route K agreement", failures)


def test_criterion_04_first_integral_symbolic():
    """K pulled back through the map equals K, as identical Laurent
    polynomials, for k = 1 and k = 2 (the latter within 120 s)."""
    failures = []
    for k in (1, 2):
        t0 = time.perf_counter()
        spec = RecurrenceSpec.symbolic(k)
        if k_after_phi(spec) != k_formula(spec).K:
            failures.append((k, "pullback differs"))
        elapsed = time.perf_counter() - t0
        if k == 2 and elapsed >= 120.0:
            failures.append(("runtime", elapsed))
    _report("4 first integral (symbolic)", failures, f"k=2 in {elapsed:.2f}s")


def test_criterion_05_laurent_property():
    """Symbolic iteration for k = 1, 2 over [-2k-2, 6k+4]: no failed exact
    division, every coefficient an integer."""
    failures = []
    for k in (1, 2):
        spec = RecurrenceSpec.symbolic(k)
        w = spec.window().extend(-2 * k - 2, 6 * k + 4)  # LaurentViolationError = loud abort
        for n in w.indices():
            if not all(isinstance(c, int) for c in w[n].terms().values()):
                failures.append((k, n, "non-integer coefficient"))
    _report("5 Laurent property", failures)


def test_criterion_06_explicit_iterates():
    """Closed formulas equal iterated values for all 4k positions (k = 1, 2),
    with backward coefficients the reversal images of forward ones."""
    failures = []
    for k in (1, 2):
        spec = RecurrenceSpec.symbolic(k)
        w = spec.window().extend(-2 * k, 4 * k)
        ex = explicit_iterates(spec)
        for m in list(range(-2 * k, 0)) + list(range(2 * k + 1, 4 * k + 1)):
            if ex.values[m] != w[m]:
                failures.append((k, m, "formula vs iterate"))
        if ex.F1[2 * k]:
            failures.append((k, "F1[2k] nonzero"))
        for j in range(1, 2 * k + 1):
            if ex.F1[-j] != ex.F1[2 * k + j].sigma_pullback():
                failures.append((k, j, "linear sigma relation"))
            if ex.F2[-j] != ex.F2[2 * k + j].sigma_pullback():
                failures.append((k, j, "quadratic sigma relation"))
    _report("6 explicit iterates", failures)


def test_criterion_07_determinant_suite():
    """delta is a k-invariant and the 4x4 Wronskian vanishes on every numeric
    trial; the production determinant agrees with cofactor expansion on 1000
    random 3x3 and 4x4 matrices, and with condensation wherever no interior
    minor vanishes."""
    failures = []
    for k in (1, 2, 3):
        rep = run_campaign(TrialConfig(k=k, trials=25, seed=SEED,
                                       checks=frozenset({"delta_invariance", "wronskian4"})))
        failures += [(k, r.check, r.trial) for r in rep.failures]
    rng = SplitMix64(SEED)
    for i in range(1000):
        n = 3 if i % 2 == 0 else 4
        m = [[random_rational(rng, 9, 9) for _ in range(n)] for _ in range(n)]
        d = matrix_det(m)
        if d != det_cofactor(m):
            failures.append((i, "determinant mismatch with cofactor expansion"))
        try:
            if d != det_dodgson(m):
                failures.append((i, "determinant mismatch with condensation"))
        except ZeroMinorError:
            pass
    _report("7 determinant suite", failures)


def test_criterion_08_operator_identity():
    """The shift-operator identity holds exactly on 100 random raw
    (non-solution) windows with random K, for k = 1 and 2."""
    failures = []
    rng = SplitMix64(SEED + 8)
    for k in (1, 2):
        spec = RecurrenceSpec.numeric(k, random_rational(rng, 9, 9), [1] * (2 * k + 1))
        for trial in range(100):
            vals = [random_rational(rng, 9, 9) for _ in range(8 * k + 2)]
            K = random_rational(rng, 9, 9)
            w = raw_window(spec, 0, vals)
            if operator_identity_residual(w, K, 0) != 0:
                failures.append((k, trial))
    _report("8 operator identity", failures)


def test_criterion_09_inhomogeneous_relations():
    """nu, epsilon, zeta, eta are 2k-periodic along every trial window; K' is
    shift-invariant; golden values at the k=1 all-ones seed."""
    failures = []
    for k in (1, 2, 3):
        rep = run_campaign(TrialConfig(k=k, trials=25, seed=SEED,
                                       checks=frozenset({"inhom"})))
        failures += [(k, r.trial, r.witness) for r in rep.failures]
    ones = RecurrenceSpec.numeric(1, 1, [1, 1, 1]).window().extend(-4, 15)
    K = k_formula(ones.spec).K
    if (nu_invariant(ones, 0, K), nu_invariant(ones, 1, K)) != (-5, -7):
        failures.append("nu goldens")
    if k_prime(ones, 0, K) != -12 or k_prime(ones, 1, K) != -12:
        failures.append("K' golden / shift")
    _report("9 inhomogeneous relations", failures)


def test_criterion_10_closed_form():
    """Chebyshev reconstruction equals iteration for n in [-6k, 12k] on every
    non-degenerate trial (k = 1, 2, 3); golden triple at the all-ones seed."""
    failures = []
    for k in (1, 2, 3):
        rep = run_campaign(TrialConfig(k=k, trials=25, seed=SEED,
                                       checks=frozenset({"closed_form"})))
        failures += [(k, r.trial, r.witness) for r in rep.failures]
    ones = RecurrenceSpec.numeric(1, 1, [1, 1, 1]).window().extend(-6, 12)
    c = extract_coeffs(ones, k_formula(ones.spec).K)
    if (c.q[0], c.r[0], c.s[0]) != (Fraction(5, 11), Fraction(144, 143), Fraction(-66, 143)):
        failures.append("golden triple")
    _report("10 closed form", failures)


def test_criterion_11_detection_oracle():
    """The minimal recurrence of the k=1 all-ones sequence has order 6 with
    the expected characteristic polynomial; on random trials the detected
    polynomial divides (S^2k - 1)(S^4k - (K-1) S^2k + 1)."""
    failures = []
    w = RecurrenceSpec.numeric(1, 1, [1, 1, 1]).window().extend(0, 19)
    got = detect_linear_recurrence([w[n] for n in range(20)], 6)
    if got != [1, 0, -14, 0, 14, 0, -1]:
        failures.append(("golden charpoly", got))
    for k in (1, 2):
        rep = run_campaign(TrialConfig(k=k, trials=20, seed=SEED,
                                       checks=frozenset({"detect"})))
        failures += [(k, r.trial, r.witness) for r in rep.failures]
    _report("11 detection oracle", failures)


def test_criterion_12_negative_controls():
    """Corrupting one window value makes the linear-relation and Wronskian
    checks fail, with a witness index that touches the corrupted entry."""
    failures = []
    for k in (1, 2):
        corrupted = 2 * k + 1  # index the campaign's fault injector overwrites
        rep = run_campaign(TrialConfig(k=k, trials=3, seed=SEED,
                                       checks=frozenset({"linear_relation"}),
                                       inject_fault="linear_relation"))
        if rep.counts["fail"] != 3:
            failures.append((k, "linear_relation did not fail"))
        for r in rep.failures:
            n = r.witness["n"]
            if corrupted not in {n, n + 2 * k, n + 4 * k, n + 6 * k}:
                failures.append((k, "linear_relation witness", n))
        rep = run_campaign(TrialConfig(k=k, trials=3, seed=SEED,
                                       checks=frozenset({"wronskian4"}),
                                       inject_fault="wronskian4"))
        if rep.counts["fail"] != 3:
            failures.append((k, "wronskian4 did not fail"))
        for r in rep.failures:
            n = r.witness["n"]
            touched = {n + i + 2 * k * j for i in range(4) for j in range(4)}
            if corrupted not in touched:
                failures.append((k, "wronskian4 witness", n))
    _report("12 negative controls", failures)
