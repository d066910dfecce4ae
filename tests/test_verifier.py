import json
import math
import random
from fractions import Fraction

import pytest

from hhrec.engine import RecurrenceSpec, SequenceWindow
from hhrec.errors import InsufficientDataError, ResampleBudgetExhaustedError, ZeroPivotError
from hhrec.matrix import solve_exact
from hhrec.rational import parse_rational
from hhrec.verifier import (
    NUMERIC_CHECKS,
    SYMBOLIC_CHECKS,
    SplitMix64,
    TrialConfig,
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


def test_random_spec_reject_budget():
    cfg = TrialConfig(k=1, trials=1, seed=0, max_resamples=3)
    with pytest.raises(ResampleBudgetExhaustedError):
        random_spec(cfg, 0, reject=lambda s: True)
    ok = random_spec(cfg, 0, reject=lambda s: s.a < 0)
    assert ok.a > 0


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
            try:
                w = random_spec(TrialConfig(k=k, seed=7), trial).window().extend(0, 14 * k)
            except ZeroPivotError:
                continue
            values = [w[n] for n in range(0, 14 * k + 1)]
            assert detect_linear_recurrence(values, 6 * k) == _reference_detect(values, 6 * k)


def test_target_charpoly_factorization():
    assert target_characteristic_poly(1, Fraction(14)) == [1, 0, -14, 0, 14, 0, -1]


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


def test_symbolic_trials_share_one_window(monkeypatch):
    extend = SequenceWindow.extend
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        return extend(self, *args, **kwargs)

    monkeypatch.setattr(SequenceWindow, "extend", counted)

    def run(trials):
        calls.clear()
        report = run_campaign(TrialConfig(k=1, trials=trials, symbolic=True))
        results = json.loads(report.to_json())["results"]
        for r in results:
            r.pop("elapsed")
        return results, len(calls)

    once, extends_once = run(1)
    thrice, extends_thrice = run(3)
    assert extends_once > 0 and extends_thrice == extends_once
    assert thrice == [dict(r, trial=t) for t in range(3) for r in once]


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
