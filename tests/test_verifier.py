import json
import math
import random
from dataclasses import asdict, replace
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhrec.invariants as invariants
import hhrec.verifier as verifier
from hhrec.engine import RecurrenceSpec, SequenceWindow, export_window
from hhrec.errors import HHRecError, InsufficientDataError, LaurentViolationError, ZeroPivotError
from hhrec.matrix import scale_row, solve_exact
from hhrec.rational import parse_rational
from hhrec.verifier import (
    NUMERIC_CHECKS,
    SYMBOLIC_CHECKS,
    SplitMix64,
    TrialConfig,
    TrialContext,
    _fault_blind,
    _integer_massey,
    _sweep,
    detect_linear_recurrence,
    expand_checks,
    poly_divides,
    random_rational,
    random_spec,
    run_campaign,
    target_characteristic_poly,
    trial_stream,
)


# -- rng and spec sampling ---------------------------------------------------------

def test_splitmix_reference_values():
    # first outputs for seed 0 and seed 42 of the standard SplitMix64 mixer
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        16294208416658607535, 7960286522194355700, 487617019471545679]
    g = SplitMix64(42)
    assert g.next_u64() == 13679457532755275413


def test_streams_are_deterministic_and_distinct():
    a = [trial_stream(7, 0).next_u64() for _ in range(4)]
    b = [trial_stream(7, 0).next_u64() for _ in range(4)]
    c = [trial_stream(7, 1).next_u64() for _ in range(4)]
    assert a == b and a != c


def test_random_rational_respects_bounds():
    rng = SplitMix64(5)
    for _ in range(200):
        v = random_rational(rng, 3, 2)
        assert v != 0 and abs(v.numerator) <= 3 and v.denominator <= 2


def test_random_spec_deterministic():
    cfg = TrialConfig(k=1, trials=3, seed=42)
    assert random_spec(cfg, 0) == random_spec(cfg, 0)
    assert random_spec(cfg, 0) != random_spec(cfg, 1)


def test_random_spec_golden_pin():
    # frozen on first implementation; portability of reports depends on it
    spec = random_spec(TrialConfig(k=1, trials=1, seed=42), 0)
    assert spec.init == (Fraction(5, 8), Fraction(-1, 2), Fraction(-9, 5))
    assert spec.a == Fraction(9, 10)


def test_random_spec_unit_bounds():
    cfg = TrialConfig(k=2, trials=1, seed=5, numerator_bound=1, denominator_bound=1)
    spec = random_spec(cfg, 0)
    assert all(v in (1, -1) for v in spec.init) and spec.a in (1, -1)


# -- recurrence detection ------------------------------------------------------------

def test_detect_order6_golden():
    w = RecurrenceSpec.numeric(1, 1, [1, 1, 1]).window().extend(new_hi=19)
    charpoly = detect_linear_recurrence([w[n] for n in range(20)], 6)
    assert charpoly == [1, 0, -14, 0, 14, 0, -1]


def test_detect_constant_sequence():
    assert detect_linear_recurrence([Fraction(5)] * 12, 4) == [1, -1]


def test_detect_fibonacci():
    fib = [1, 1]
    while len(fib) < 14:
        fib.append(fib[-1] + fib[-2])
    assert detect_linear_recurrence(fib, 3) == [1, -1, -1]


def test_detect_all_zero():
    assert detect_linear_recurrence([Fraction(0)] * 10, 2) == [1]


def test_detect_no_recurrence_within_order():
    vals = [Fraction(v) for v in (1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800)]
    assert detect_linear_recurrence(vals, 3) is None


def test_detect_insufficient_data():
    with pytest.raises(InsufficientDataError):
        detect_linear_recurrence([Fraction(1)] * 5, 4)


def test_detect_minimality():
    # geometric sequence satisfies order 1; the detector must not return 2
    vals = [Fraction(3) ** n for n in range(12)]
    assert detect_linear_recurrence(vals, 4) == [1, -3]


# -- the detector against its slow reference route ----------------------------------

def _reference_detect(values, max_order):
    """The first order L whose Hankel system x[n+L] = c1 x[n+L-1] + ... + cL x[n]
    is consistent over all rows, solved afresh by Gauss-Jordan for each L."""
    values = [Fraction(v) for v in values]
    if not any(values):
        return [Fraction(1)]
    for order in range(1, max_order + 1):
        rows = [values[n:n + order][::-1] for n in range(len(values) - order)]
        sol = solve_exact(rows, values[order:])
        if sol is not None:
            return [Fraction(1)] + [-c for c in sol]
    return None


def _recurrent(coeffs, init, count):
    """count terms of x[n+L] = c1 x[n+L-1] + ... + cL x[n] from init."""
    vals = list(init)
    while len(vals) < count:
        vals.append(sum(c * vals[-j] for j, c in enumerate(coeffs, start=1)))
    return vals[:count]


def _random_case(seed):
    """A random rational recurrence of order <= max_order: some with leading
    zeros, some with last coefficient 0, some with exactly 2*max_order+2 terms,
    and a few unstructured sequences."""
    rng = random.Random(seed)
    frac = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    max_order = rng.randint(2, 6)
    order = rng.randint(1, max_order)
    coeffs = [frac() for _ in range(order)]
    init = [frac() for _ in range(order)]
    if rng.random() < 0.3:
        coeffs[-1] = Fraction(0)
    if order > 1 and rng.random() < 0.3:
        zeros = rng.randint(1, order - 1)
        init = [Fraction(0)] * zeros + init[zeros:]
    count = 2 * max_order + 2 + rng.choice([0, 0, 1, 3])
    if rng.random() < 0.15:  # unstructured: almost surely no recurrence <= max_order
        return [frac() for _ in range(count)], max_order
    return _recurrent(coeffs, init, count), max_order


DETECT_CASES = {
    **{f"random-{seed}": _random_case(seed) for seed in range(60)},
    "impulse-at-0": ([1] + [0] * 11, 3),
    "impulse-at-5": ([0] * 5 + [1] + [0] * 8, 6),
    "impulse-at-5-beyond-max-order": ([0] * 5 + [1] + [0] * 8, 5),
    "leading-zeros-fibonacci": ([0, 0, 0] + _recurrent([1, 1], [1, 1], 12), 5),
    "factorials": ([math.factorial(n) for n in range(12)], 5),
    "factorials-exact-length": ([math.factorial(n) for n in range(8)], 3),
    "exact-length-order-6": (_recurrent([2, 0, Fraction(-1, 3), 0, 1, 5], [1, 2, 3, 4, 5, 6], 14), 6),
    "all-zero": ([0] * 6, 2),
}


@pytest.mark.parametrize("values,max_order", DETECT_CASES.values(), ids=DETECT_CASES.keys())
def test_detect_agrees_with_per_order_solve(values, max_order):
    assert detect_linear_recurrence(values, max_order) == _reference_detect(values, max_order)


@pytest.mark.parametrize("case,expected", [
    ("impulse-at-0", [1, 0]),
    ("impulse-at-5", [1, 0, 0, 0, 0, 0, 0]),
    ("impulse-at-5-beyond-max-order", None),
    ("leading-zeros-fibonacci", [1, -1, -1, 0, 0]),  # 0, 1, 1 is Fibonacci
    ("factorials", None),
    ("exact-length-order-6", [1, -2, 0, Fraction(1, 3), 0, -1, -5]),
])
def test_detect_edge_cases(case, expected):
    assert detect_linear_recurrence(*DETECT_CASES[case]) == expected


def test_detect_agrees_with_per_order_solve_on_verifier_windows():
    for k in (1, 2):
        for trial in range(3):
            w = random_spec(TrialConfig(k=k, seed=7), trial).window().extend(0, 14 * k)
            values = [w[n] for n in range(0, 14 * k + 1)]
            assert detect_linear_recurrence(values, 6 * k) == _reference_detect(values, 6 * k)


# -- the integer route against the Fraction route -----------------------------------

def fraction_detect(values: Sequence[Fraction], max_order: int) -> list[Fraction] | None:
    """Berlekamp-Massey over Q, a gcd on every operation: the detector's
    route before it ran over the integers, kept as its slow reference."""
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


def _outcome(route, values, max_order):
    """A route's return value, or the class and text of its usage error."""
    try:
        return route(values, max_order)
    except (ValueError, InsufficientDataError) as exc:
        return type(exc), str(exc)


SMALL_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9)
SCALARS = st.one_of(SMALL_RATIONALS, st.integers(-10**6, 10**6),
                    st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**9))
SEED_FAMILIES = {"unit": (1, 1), "integer": (10, 1), "rational": (10, 10)}


@st.composite
def _recurrent_cases(draw, beyond_max_order=False):
    """Terms of a random recurrence of order <= max_order, or of a higher one."""
    max_order = draw(st.integers(1, 8))
    low, high = (max_order + 1, max_order + 3) if beyond_max_order else (1, max_order)
    order = draw(st.integers(low, high))
    coeffs = draw(st.lists(SMALL_RATIONALS, min_size=order, max_size=order))
    init = draw(st.lists(SMALL_RATIONALS, min_size=order, max_size=order))
    count = 2 * max_order + 2 + draw(st.integers(0, 6))
    return _recurrent(coeffs, init, count), max_order


@st.composite
def _nearly_zero_cases(draw):
    """All zeros, or zeros with one or two nonzero terms anywhere."""
    max_order = draw(st.integers(1, 6))
    values = [0] * draw(st.integers(2 * max_order + 2, 2 * max_order + 8))
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, len(values) - 1))] = draw(SMALL_RATIONALS.filter(bool))
    return values, max_order


@st.composite
def _trial_window_cases(draw):
    """The window _check_detect reads, for a unit, integer or rational seed, k = 1..3."""
    k = draw(st.integers(1, 3))
    numerator_bound, denominator_bound = SEED_FAMILIES[draw(st.sampled_from(sorted(SEED_FAMILIES)))]
    cfg = TrialConfig(k=k, seed=draw(st.integers(0, 2**64 - 1)),
                      numerator_bound=numerator_bound, denominator_bound=denominator_bound)
    w = random_spec(cfg, 0).window().extend(0, 14 * k)
    return [w[n] for n in range(0, 14 * k + 1)], 6 * k


DETECT_STRATEGIES = {
    "random-rationals": st.tuples(st.lists(SCALARS, max_size=24), st.integers(-1, 10)),
    "recurrent": _recurrent_cases(),
    "beyond-max-order": _recurrent_cases(beyond_max_order=True),
    "nearly-zero": _nearly_zero_cases(),
    "trial-windows": _trial_window_cases(),
}


@pytest.mark.parametrize("kind", DETECT_STRATEGIES)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_integer_route_agrees_with_fraction_route(kind, data):
    values, max_order = data.draw(DETECT_STRATEGIES[kind])
    assert _outcome(detect_linear_recurrence, values, max_order) == \
        _outcome(fraction_detect, values, max_order)


def test_k10_rational_window_matches_the_fraction_route():
    k = 10
    spec = random_spec(TrialConfig(k=k, seed=41), 0)
    w = spec.window().extend(0, 14 * k)
    values = [w[n] for n in range(0, 14 * k + 1)]
    found = detect_linear_recurrence(values, 6 * k)
    assert len(found) - 1 == 6 * k
    assert found == fraction_detect(values, 6 * k)
    assert poly_divides(found, target_characteristic_poly(k, spec.K))


def test_massey_connection_polynomial_stays_primitive():
    """Each update divides out the content, so the integers stay small."""
    for k in (1, 2, 3):
        for trial in range(3):
            w = random_spec(TrialConfig(k=k, seed=41), trial).window().extend(0, 14 * k)
            _, ys = scale_row([w[n] for n in range(0, 14 * k + 1)])
            conn = _integer_massey(ys, 6 * k)
            assert len(conn) > 1 and math.gcd(*conn) == 1


def test_detect_rejects_a_candidate_that_fails_the_residual_pass(monkeypatch):
    fib = _recurrent([1, 1], [1, 1], 14)
    found = _integer_massey(scale_row(fib)[1], 3)
    assert found == [1, -1, -1]
    monkeypatch.setattr(verifier, "_integer_massey", lambda ys, max_order: [1, -1, -2])
    assert detect_linear_recurrence(fib, 3) is None


@pytest.mark.parametrize("bad", [Decimal(2), 0.5, "1/2"])
def test_detect_refuses_a_value_that_is_not_a_fraction_or_int(bad):
    with pytest.raises(TypeError, match=r"Fraction window of spec\.window\(\)\.extend\(lo, hi\)"):
        detect_linear_recurrence([Fraction(1)] * 5 + [bad], 2)


def test_detect_refuses_an_exported_decimal_window():
    spec = RecurrenceSpec.numeric(1, 1, [1, 1, 1])
    exported = export_window(spec, 0, 40).values
    assert all(isinstance(v, Decimal) for v in exported[6:])
    with pytest.raises(TypeError, match="Decimal"):
        detect_linear_recurrence(list(exported), 6)
    assert detect_linear_recurrence(list(spec.window().extend(0, 40).values), 6) == \
        [1, 0, -14, 0, 14, 0, -1]


def test_target_charpoly_factorization():
    assert target_characteristic_poly(1, Fraction(14)) == [1, 0, -14, 0, 14, 0, -1]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("K", [Fraction(-2), Fraction(1), Fraction(3), Fraction(7, 2)])
def test_target_charpoly_is_the_product_of_its_factors(k, K):
    left = [1] + [0] * (2 * k - 1) + [-1]  # S^{2k} - 1
    right = [1] + [0] * (2 * k - 1) + [1 - K] + [0] * (2 * k - 1) + [1]  # S^{4k} - (K-1) S^{2k} + 1
    product = [0] * (len(left) + len(right) - 1)
    for i, u in enumerate(left):
        for j, v in enumerate(right):
            product[i + j] += u * v
    assert target_characteristic_poly(k, K) == product


def test_poly_divides():
    assert poly_divides([1, -1], [1, 0, -1])            # S-1 | S^2-1
    assert not poly_divides([1, -2], [1, 0, -1])
    assert poly_divides([1, 0, -14, 0, 14, 0, -1], target_characteristic_poly(1, Fraction(14)))


# -- campaigns ------------------------------------------------------------------------

def test_expand_checks():
    assert expand_checks({"all"}, False) == list(NUMERIC_CHECKS)
    assert expand_checks({"first-integral", "laurent"}, True) == ["laurent", "first_integral"]
    with pytest.raises(ValueError):
        expand_checks({"nope"}, False)
    with pytest.raises(ValueError):
        expand_checks({"laurent"}, False)  # symbolic-only id


def test_campaign_all_numeric_checks_pass():
    report = run_campaign(TrialConfig(k=1, trials=25, seed=7))
    counts = report.counts
    assert counts["fail"] == 0
    assert len(report.records) == 25 * len(NUMERIC_CHECKS)


def test_campaign_k2_smoke():
    report = run_campaign(TrialConfig(k=2, trials=5, seed=11))
    assert report.counts["fail"] == 0


def test_campaign_k3_all_numeric_checks_pass():
    report = run_campaign(TrialConfig(k=3, trials=2, seed=0))
    assert report.counts == {"pass": 2 * len(NUMERIC_CHECKS), "fail": 0, "skipped-degenerate": 0}


def test_a_zero_pivot_seed_resamples_only_the_checks_that_divide_by_an_iterate():
    # x_3 = 0: the nonlinear step, K of the shifted seed and the maps' round
    # trips divide by it; the window and every other check go through it
    spec = RecurrenceSpec.numeric(1, -2, [-3, -2, 1])
    degenerate = {"linear_route", "first_integral", "reversibility"}
    for check, fn in NUMERIC_CHECKS.items():
        ctx = TrialContext(TrialConfig(k=1), spec, 0)
        if check in degenerate:
            with pytest.raises(ZeroPivotError):
                fn(ctx)
        else:
            assert fn(ctx), check
    assert len(NUMERIC_CHECKS) - len(degenerate) == 14


@pytest.mark.parametrize("k", [1, 2, 3])
def test_campaign_over_small_integer_seeds_has_no_fail(k):
    # about one draw in four meets a zero pivot
    report = run_campaign(TrialConfig(k=k, trials=30, seed=5, numerator_bound=3, denominator_bound=1))
    assert report.counts["fail"] == 0


def test_campaign_symbolic_pass():
    report = run_campaign(TrialConfig(k=1, trials=1, seed=1, symbolic=True))
    assert report.counts == {"pass": len(SYMBOLIC_CHECKS), "fail": 0, "skipped-degenerate": 0}


def test_campaign_records_unique_per_check_trial():
    report = run_campaign(TrialConfig(k=1, trials=4, seed=3,
                                      checks=frozenset({"linear_relation", "k_ratio"})))
    seen = {(r.check, r.trial) for r in report.records}
    assert len(seen) == len(report.records) == 8


def test_campaign_deterministic_modulo_timing():
    cfg = TrialConfig(k=1, trials=6, seed=99)
    def strip(report):
        data = json.loads(report.to_json())
        for r in data["results"]:
            r.pop("elapsed")
        return data
    assert strip(run_campaign(cfg)) == strip(run_campaign(cfg))


def test_campaign_fail_reproducible_from_seed_and_trial():
    cfg = TrialConfig(k=1, trials=2, seed=13, checks=frozenset({"wronskian4"}),
                      inject_fault="wronskian4")
    r1 = run_campaign(cfg).failures
    r2 = run_campaign(cfg).failures
    assert [f.witness for f in r1] == [f.witness for f in r2] and r1


def test_fault_injection_linear_relation_witness():
    cfg = TrialConfig(k=1, trials=1, seed=7, checks=frozenset({"linear_relation"}),
                      inject_fault="linear_relation")
    report = run_campaign(cfg)
    assert report.counts["fail"] == 1
    n = report.failures[0].witness["n"]
    corrupted = 2 * 1 + 1
    assert corrupted in {n, n + 2, n + 4, n + 6}


def test_fault_injection_wronskian_witness():
    cfg = TrialConfig(k=2, trials=1, seed=7, checks=frozenset({"wronskian4"}),
                      inject_fault="wronskian4")
    report = run_campaign(cfg)
    assert report.counts["fail"] == 1
    n = report.failures[0].witness["n"]
    corrupted = 2 * 2 + 1
    touched = {n + i + 4 * j for i in range(4) for j in range(4)}
    assert corrupted in touched


def test_a_tuple_residual_fails_when_any_entry_is_nonzero():
    result = _sweep((0, 1), lambda n: (Fraction(0), Fraction(n - 1, 2)), "second entry == n/2")
    assert not result.ok
    assert result.witness == {"n": 0, "identity": "second entry == n/2", "residual": ["0", "-1/2"]}
    assert _sweep((1,), lambda n: (Fraction(0), Fraction(0)), "both zero").ok


@pytest.mark.parametrize("check", ["k_cramer", "k_monodromy"])
def test_pair_residual_witness_is_a_list_of_canonical_rationals(check):
    report = run_campaign(TrialConfig(k=2, trials=1, checks=frozenset({check}),
                                      inject_fault=check))
    residual = report.failures[0].witness["residual"]
    assert isinstance(residual, list) and len(residual) == 2
    assert all(parse_rational(v) for v in residual)
    assert "Fraction(" not in report.to_json() + report.render_table()


def test_symbolic_explicit_witness_reports_the_difference():
    report = run_campaign(TrialConfig(k=1, trials=1, symbolic=True,
                                      checks=frozenset({"explicit"}), inject_fault="explicit"))
    # the fault raises x_3 by one, so formula minus iterate is -1
    assert report.failures[0].witness == {"n": 3, "identity": "closed formula == symbolic iterate",
                                          "residual": "-1"}


@pytest.mark.parametrize("piece", ["a", "b"])
def test_certificate_failure_is_a_laurent_fail_record(piece, monkeypatch):
    if piece == "a":
        honest = invariants.k_after_phi
        monkeypatch.setattr(invariants, "k_after_phi", lambda spec: honest(spec) + 1)
        n, residual = 0, "1"
    else:
        monkeypatch.setattr(RecurrenceSpec, "K",
                            property(lambda s: invariants.k_breakdown(s.init, s.a).K + 1))
        # the residual at -3k gains x_{-k} - x_k when K is raised by one
        w = RecurrenceSpec.symbolic(2).window().extend(-2, 2)
        n, residual = -6, str(w[-2] - w[2])
    report = run_campaign(TrialConfig(k=2, trials=1, symbolic=True))
    [record] = [r for r in report.records if r.check == "laurent"]
    assert record.status == "fail"
    assert record.witness["identity"].startswith(f"linear-route certificate ({piece})")
    assert (record.witness["n"], record.witness["residual"]) == (n, residual)


def test_a_laurent_violation_is_a_fail_record_with_no_residual(monkeypatch):
    def violated(ctx):
        raise LaurentViolationError(5)

    monkeypatch.setitem(SYMBOLIC_CHECKS, "laurent", violated)
    [record] = run_campaign(TrialConfig(k=1, trials=1, symbolic=True,
                                        checks=frozenset({"laurent"}))).records
    assert (record.status, record.witness) == (
        "fail", {"n": 5, "identity": "iterate stays a Laurent polynomial"})


@pytest.mark.parametrize("k", [1, 2, 3])
def test_symbolic_k_ratio_reads_only_the_nonlinear_step(k, monkeypatch):
    def refuse(spec):
        raise AssertionError("the certificate ran")

    monkeypatch.setattr(RecurrenceSpec, "block", property(refuse))
    ctx = TrialContext(TrialConfig(k=k, trials=1, symbolic=True), RecurrenceSpec.symbolic(k), 0)
    assert SYMBOLIC_CHECKS["k_ratio"](ctx).ok
    assert (ctx.window(0, 0).lo, ctx.window(0, 0).hi) == (-3 * k, 3 * k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_symbolic_trial_certifies_once(k, certificate_runs, monkeypatch):
    calls = []
    honest = invariants.k_after_phi
    monkeypatch.setattr(invariants, "k_after_phi", lambda spec: calls.append(1) or honest(spec))
    report = run_campaign(TrialConfig(k=k, trials=1, symbolic=True))
    assert report.counts["fail"] == 0
    # the certificate's piece (a) and the first_integral check
    assert (len(certificate_runs), len(calls)) == (1, 2)


def test_symbolic_trials_share_one_window(monkeypatch):
    extend = SequenceWindow.extend
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        return extend(self, *args, **kwargs)

    monkeypatch.setattr(SequenceWindow, "extend", counted)
    runs = {cid: 0 for cid in SYMBOLIC_CHECKS}
    for cid, fn in list(SYMBOLIC_CHECKS.items()):
        def check(ctx, cid=cid, fn=fn):
            runs[cid] += 1
            return fn(ctx)
        monkeypatch.setitem(SYMBOLIC_CHECKS, cid, check)

    def run(trials):
        calls.clear()
        for cid in runs:
            runs[cid] = 0
        report = run_campaign(TrialConfig(k=1, trials=trials, symbolic=True))
        results = json.loads(report.to_json())["results"]
        for r in results:
            r.pop("elapsed")
        return results, len(calls)

    once, extends_once = run(1)
    thrice, extends_thrice = run(3)
    assert extends_once > 0 and extends_thrice == extends_once
    assert thrice == [dict(r, trial=t) for t in range(3) for r in once]
    assert runs == {cid: 1 for cid in SYMBOLIC_CHECKS}


# the exact witness of every check that can see the injected fault: the
# first failing index, the identity text and the residual
FAULT_WITNESSES = {
    "xi_zero": {"n": 0, "identity": "xi_n = 0", "residual": "-2"},
    "linear_relation": {"n": -3, "identity": "x[n+6k] - K(x[n+4k]-x[n+2k]) - x[n] = 0",
                        "residual": "1"},
    "linear_route": {"n": 3, "identity": "linear route == nonlinear step", "residual": "1"},
    "k_cramer": {"n": 0, "identity": "Cramer pair == K",
                 "residual": ["-3029/2177", "1612039/587790"]},
    "k_monodromy": {"n": 0, "identity": "monodromy traces == K",
                    "residual": ["-3029/2177", "1081297477828501401931/1258136241543435438"]},
    "delta_invariance": {"n": -4, "identity": "delta[n+k] == delta[n]", "residual": "2104/1215"},
    "wronskian4": {"n": -4, "identity": "det of 4x4 Wronskian = 0", "residual": "40094/6075"},
    "abg_relation": {"n": 1, "identity": "3-term relation",
                     "residual": "-64946476242919/350683638564"},
    "explicit_iterates": {"n": 3, "identity": "closed formula == iterate", "residual": "-1"},
    "inhom": {"n": 1, "identity": "nu is a 2k-invariant", "residual": "-611/270"},
    "closed_form": {"n": -5, "identity": "closed form == iterate", "residual": "-611/270"},
    "detect": {"n": 0, "identity": "a linear recurrence of order <= 6k exists"},
    "first_integral": {"n": 1, "identity": "K after one map step == K", "residual": "-2233/20115"},
    "sigma_roundtrip": {"n": -4, "identity": "sigma image solves the recurrence",
                        "residual": "1929431/43740"},
    "sym:laurent": {"n": 0, "identity": "xi_n = 0 symbolically", "residual": "x0"},
    "sym:explicit": {"n": 3, "identity": "closed formula == symbolic iterate", "residual": "-1"},
    "sym:k_ratio": {"n": -1,
                    "identity": "(x[n+4k]-x[n-2k])/(x[n+2k]-x[n]) is a Laurent polynomial"},
}


@pytest.mark.parametrize("target", FAULT_WITNESSES)
def test_fault_witness_pinned(target):
    symbolic = target.startswith("sym:")
    cid = target.removeprefix("sym:")
    report = run_campaign(TrialConfig(k=1, trials=1, seed=0, symbolic=symbolic,
                                      checks=frozenset({cid}), inject_fault=cid))
    [record] = report.records
    assert (record.status, record.resamples) == ("fail", 0)
    assert record.witness == FAULT_WITNESSES[target]


# negative controls past k = 1: the numeric checks that criterion 12 leaves
# out at k = 2, and the symbolic laurent check at k = 3
CONTROLS_PAST_K1 = [(2, "delta_invariance"), (2, "detect"), (2, "k_monodromy"), (2, "inhom"),
                    (3, "sym:laurent")]


@pytest.mark.parametrize("k,target", [pytest.param(1, t, id=t) for t in FAULT_WITNESSES]
                         + [pytest.param(k, t, id=f"k{k}-{t}") for k, t in CONTROLS_PAST_K1])
def test_fail_witnesses_name_n_and_a_nonzero_residual(k, target):
    """Every fail witness has ``n`` and ``identity``; it has a ``residual``
    exactly where the pinned k = 1 witness has one, and that is never zero."""
    symbolic = target.startswith("sym:")
    cid = target.removeprefix("sym:")
    report = run_campaign(TrialConfig(k=k, trials=4, seed=11, symbolic=symbolic,
                                      checks=frozenset({cid}), inject_fault=cid))
    assert report.failures
    for record in report.failures:
        assert {"n", "identity"} <= set(record.witness)
        assert ("residual" in record.witness) == ("residual" in FAULT_WITNESSES[target])
        residual = record.witness.get("residual", [])
        assert residual != "0" and (not isinstance(residual, list) or set(residual) != {"0"})


def test_fault_witnesses_cover_every_fault_capable_check():
    capable = {cid for cid in NUMERIC_CHECKS if cid not in _fault_blind(1, False)}
    capable |= {f"sym:{cid}" for cid in SYMBOLIC_CHECKS if cid not in _fault_blind(1, True)}
    assert capable == set(FAULT_WITNESSES)


class _Reads(tuple):
    """Window values that add the index of every value read to ``log``."""

    def __new__(cls, values, lo, log):
        self = super().__new__(cls, values)
        self.lo, self.log = lo, log
        return self

    def __getitem__(self, i):
        picked = range(len(self))[i]
        self.log.update(self.lo + j for j in (picked if isinstance(i, slice) else [picked]))
        return super().__getitem__(i)

    def __iter__(self):
        self.log.update(range(self.lo, self.lo + len(self)))
        return super().__iter__()


def _clean_context(cfg: TrialConfig) -> TrialContext:
    """The context of the first candidate spec on which every check passes."""
    table = SYMBOLIC_CHECKS if cfg.symbolic else NUMERIC_CHECKS
    for attempt in range(cfg.max_resamples + 1):
        spec = RecurrenceSpec.symbolic(cfg.k) if cfg.symbolic else random_spec(cfg, 0, attempt)
        ctx = TrialContext(cfg, spec, 0)
        try:
            if all(check(ctx).ok for check in table.values()):
                return ctx
        except HHRecError:
            pass
    raise AssertionError("no clean spec")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fault_refusals_match_the_indices_each_check_reads(k, monkeypatch):
    """A check is accepted as a fault target exactly when, on its corrupted
    windows, it reads x_{2k+1}, the iterate fault injection raises."""
    reads = set()
    with_value = SequenceWindow.with_value

    def recorded(w, n, value):
        corrupted = with_value(w, n, value)
        return replace(corrupted, values=_Reads(corrupted.values, corrupted.lo, reads))

    monkeypatch.setattr(SequenceWindow, "with_value", recorded)
    reads_target, accepted = {}, {}
    for symbolic, table in ((False, NUMERIC_CHECKS), (True, SYMBOLIC_CHECKS)):
        ctx = _clean_context(TrialConfig(k=k, trials=1, symbolic=symbolic))
        ctx.corrupt = True
        for cid, check in table.items():
            reads.clear()
            try:
                check(ctx)
            except HHRecError:
                pass
            reads_target[symbolic, cid] = 2 * k + 1 in reads
            try:
                TrialConfig(k=k, trials=1, symbolic=symbolic, checks=frozenset({cid}),
                            inject_fault=cid)
                accepted[symbolic, cid] = True
            except ValueError:
                accepted[symbolic, cid] = False
    assert reads_target == accepted


def test_fault_target_must_be_requested():
    with pytest.raises(ValueError):
        run_campaign(TrialConfig(k=1, trials=1, seed=0,
                                 checks=frozenset({"k_ratio"}), inject_fault="wronskian4"))


def test_report_json_schema():
    report = run_campaign(TrialConfig(k=1, trials=2, seed=5,
                                      checks=frozenset({"k_ratio", "detect"})))
    data = json.loads(report.to_json())
    assert set(data) == {"config", "results", "summary"}
    assert data["summary"]["total"] == len(data["results"]) == 4
    for rec in data["results"]:
        assert set(rec) == {"check", "k", "seed", "trial", "status", "witness",
                            "detail", "resamples", "elapsed"}
    # the ratio check reports which form it used
    forms = {rec["detail"] for rec in data["results"] if rec["check"] == "k_ratio"}
    assert forms <= {"form=two-sided", "form=shifted"}


def test_render_table_contains_summary():
    report = run_campaign(TrialConfig(k=1, trials=1, seed=5, checks=frozenset({"xi_zero"})))
    table = report.render_table()
    assert "summary:" in table and "xi_zero" in table


def test_resampling_fires_and_is_reported():
    # unit bounds make x_0 = x_2k frequent, forcing the ratio route to
    # resample; with a zero budget the degeneracy is recorded, never passed
    cfg = TrialConfig(k=1, trials=20, seed=3, numerator_bound=1, denominator_bound=1,
                      checks=frozenset({"k_ratio"}))
    rep = run_campaign(cfg)
    assert rep.counts["fail"] == 0
    assert any(r.resamples > 0 for r in rep.records)

    starved = run_campaign(TrialConfig(k=1, trials=10, seed=0, numerator_bound=1,
                                       denominator_bound=1,
                                       checks=frozenset({"k_ratio"}), max_resamples=0))
    skipped = [r for r in starved.records if r.status == "skipped-degenerate"]
    assert skipped and all(r.witness["degeneracies"] for r in skipped)


def test_report_json_equals_the_asdict_text():
    # unit bounds make degenerate seeds common, and with no resample budget
    # they are recorded; the k_cramer fault leaves list residuals in its witnesses
    cfg = TrialConfig(k=1, trials=10, seed=0, numerator_bound=1, denominator_bound=1,
                      checks=frozenset({"xi_zero", "k_ratio", "k_cramer"}), max_resamples=0,
                      inject_fault="k_cramer")
    report = run_campaign(cfg)
    assert all(report.counts.values())
    want = json.dumps({
        "config": cfg.to_json_dict(),
        "results": [asdict(r) for r in report.records],
        "summary": {**report.counts, "total": len(report.records)},
    }, indent=2) + "\n"
    assert report.to_json() == want


def test_trial_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(k=0)
    with pytest.raises(ValueError):
        TrialConfig(k=1, trials=0)
    with pytest.raises(ValueError):
        TrialConfig(k=1, numerator_bound=0)
    with pytest.raises(ValueError):
        TrialConfig(k=1, checks=frozenset())


def test_campaign_k4_index_arithmetic():
    # larger k exercises every k-dependent index span in one sweep
    cfg = TrialConfig(k=4, trials=1, seed=77,
                      checks=frozenset({"linear_relation", "k_monodromy", "closed_form",
                                        "explicit_iterates", "inhom", "wronskian4"}))
    rep = run_campaign(cfg)
    assert rep.counts["fail"] == 0 and rep.counts["pass"] == 6
