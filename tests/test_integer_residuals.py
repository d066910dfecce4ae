"""The numeric sweeps' integer zero tests against the Fraction formulas.

``xi_zero``, the ``sigma_roundtrip`` image sweep, ``linear_relation``, the
``inhom`` nu sweep and ``closed_form`` test one integer numerator over a
positive denominator (``engine._xi_parts``, ``invariants._relation_parts``,
``closed_form._minus_window``) and build a Fraction only for a witness.
Here each identity is spelled out again in Fraction arithmetic, the slow
route, at every n of its sweep: the numerator is 0 exactly when the formula
is, and numerator/denominator is the formula's value.  The windows are
campaign seeds, the zero-pivot seeds of ``test_engine.py``, fault-injected
windows and random raw windows, for k = 1..3.  The difference sweeps, which
compare with ``!=``, are checked against subtraction on the same windows.
"""

from fractions import Fraction

import pytest

from hhrec import verifier
from hhrec.closed_form import _minus_window, chebyshev_tu, eval_closed_form, extract_coeffs
from hhrec.engine import RecurrenceSpec, _xi_parts, raw_window, xi_residual
from hhrec.errors import DegenerateTError
from hhrec.invariants import _relation_parts, linear_relation_residual
from hhrec.verifier import TrialConfig, TrialContext, random_rational, random_spec, trial_stream

# (k, a, init): the seeds of test_engine.py whose windows hold a zero iterate
ZERO_PIVOT_SEEDS = [
    (1, 1, [1, 2, -1]), (1, 1, [1, -1, 2]), (1, 1, [2, -1, 1]),
    (1, 2, [-3, 2, -1]), (1, 2, [-2, 2, -1]), (1, -2, [-3, -2, 1]),
    (1, Fraction(-4, 3), [1, Fraction(-3, 2), Fraction(1, 2)]),
    (1, Fraction(-4, 3), [Fraction(1, 2), Fraction(-3, 2), 1]),
    (2, 1, [-2, 1, 1, 1, 2]), (2, 1, [Fraction(-2, 3), 2, -2, -1, Fraction(2, 3)]),
]


def _span(k):
    """The closed_form check's window, which covers every other sweep's."""
    return -6 * k, 12 * k + 3


def _windows(k):
    """(label, window, K) for each kind of window the sweeps meet."""
    lo, hi = _span(k)
    for seed in (0, 41):
        cfg = TrialConfig(k=k, seed=seed)
        for trial in range(3):
            spec = random_spec(cfg, trial)
            yield f"campaign {seed}/{trial}", spec.window().extend(lo, hi), spec.K
            ctx = TrialContext(cfg, spec, trial, corrupt=True)
            yield f"fault {seed}/{trial}", ctx.window(lo, hi), spec.K
            rng = trial_stream(seed, trial, salt=0x0B5E_21)
            vals = [random_rational(rng, 10, 10) for _ in range(hi - lo + 1)]
            yield f"raw {seed}/{trial}", raw_window(spec, lo, vals), random_rational(rng, 10, 10)
    for kk, a, init in ZERO_PIVOT_SEEDS:
        if kk == k:
            spec = RecurrenceSpec.numeric(k, a, init)
            w = spec.window().extend(-17, hi)  # the pivots lie in [-12, 9]
            assert 0 in w.values
            yield f"zero pivot {a} {init}", w, spec.K


def _xi_slow(w, n):
    k, a = w.spec.k, w.spec.a
    return w[n] * w[n + 2 * k + 1] - w[n + 1] * w[n + 2 * k] - a * (w[n + k] + w[n + k + 1])


def _relation_slow(w, n, K):
    k = w.spec.k
    return w[n + 6 * k] - K * (w[n + 4 * k] - w[n + 2 * k]) - w[n]


def _nu_slow(w, n, K):
    k = w.spec.k
    return w[n + 4 * k] - (K - 1) * w[n + 2 * k] + w[n]


def _closed_form_slow(c, n):
    period = 2 * c.k
    j, m = n % period, n // period
    T, U = chebyshev_tu(c.t, m)
    return c.q[j] + c.r[j] * T + c.s[j] * U


def _agrees(parts, slow):
    """The integer test says zero exactly when the formula does, and
    numerator/denominator is the formula's value; returns whether it is 0."""
    num, den = parts
    assert den > 0 and (num == 0) == (slow == 0)
    assert Fraction(num, den) == slow
    return num == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_integer_zero_tests_equal_the_fraction_formulas(k):
    seen = set()  # (identity, whether it was 0)
    for label, w, K in _windows(k):
        for n in range(w.lo, w.hi - 2 * k):
            slow = _xi_slow(w, n)
            seen.add(("xi", _agrees(_xi_parts(w, n), slow)))
            assert xi_residual(w, n) == slow, (label, n)
        for n in range(w.lo, w.hi - 6 * k + 1):
            slow = _relation_slow(w, n, K)
            assert _nu_slow(w, n + 2 * k, K) - _nu_slow(w, n, K) == slow
            seen.add(("relation", _agrees(_relation_parts(w, n, K), slow)))
            assert linear_relation_residual(w, n, K) == slow, (label, n)
        try:
            c = extract_coeffs(w, K)
        except DegenerateTError:
            continue
        for n in range(-6 * k, 12 * k + 1):
            slow = _closed_form_slow(c, n)
            assert eval_closed_form(c, n) == slow, (label, n)
            seen.add(("closed form", _agrees(_minus_window(c, w, n), slow - w[n])))
    # both outcomes of every test were reached
    names = ("xi", "relation", "closed form")
    assert seen == {(name, zero) for name in names for zero in (True, False)}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_raised_value_fails_first_where_it_is_read(k):
    """x_m raised by one: xi fails first at n = m - 2k - 1, which reads it as
    x_{n+2k+1}, the relation at n = m - 6k, and the closed form at n = m."""
    lo, hi = _span(k)
    spec = random_spec(TrialConfig(k=k, seed=5), 0)
    w = spec.window().extend(lo, hi)
    c = extract_coeffs(w, spec.K)
    m = 6 * k + 1
    raised = w.with_value(m, w[m] + 1)
    assert w[m - 2 * k - 1]  # the factor of x_m in xi at m - 2k - 1

    def first(parts, ns):
        return next(n for n in ns if parts(n)[0])

    assert first(lambda n: _xi_parts(raised, n), range(lo, hi - 2 * k)) == m - 2 * k - 1
    relation = first(lambda n: _relation_parts(raised, n, spec.K), range(lo, hi - 6 * k + 1))
    assert relation == m - 6 * k
    assert first(lambda n: _minus_window(c, raised, n), range(-6 * k, 12 * k + 1)) == m
    assert Fraction(*_minus_window(c, raised, m)) == -1


def _slow_equal_sweep(triples, what):
    """``verifier._equal_sweep`` by subtraction at every n, each ``!=`` checked."""
    diffs = {}
    for n, left, right in triples:
        assert (left != right) == bool(left - right)
        diffs[n] = left - right
    return verifier._sweep(diffs, diffs.__getitem__, what)


@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "fault"])
@pytest.mark.parametrize("check", ["linear_route", "explicit_iterates", "sigma_roundtrip"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_difference_sweeps_equal_subtraction(k, check, corrupt, monkeypatch):
    cfg = TrialConfig(k=k, seed=41)
    results = []
    for sweep in (verifier._equal_sweep, _slow_equal_sweep):
        monkeypatch.setattr(verifier, "_equal_sweep", sweep)
        ctx = TrialContext(cfg, random_spec(cfg, 0), 0, corrupt=corrupt)
        results.append(verifier.NUMERIC_CHECKS[check](ctx))
    assert results[0] == results[1] and results[0].ok is not corrupt
