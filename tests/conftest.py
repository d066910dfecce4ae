from dataclasses import replace
from decimal import Decimal

import pytest

import hhrec.engine as engine
import hhrec.invariants as invariants


@pytest.fixture
def certificate_runs(monkeypatch) -> list:
    """The specs whose linear-route certificate has started, in order.

    The certificate's first piece, (b), is the linear relation at n = -3k on
    a symbolic window; nothing else evaluates that residual symbolically.
    """
    runs = []
    residual = invariants.linear_relation_residual

    def counted(w, n, K):
        if w.spec.symbolic_mode and n == -3 * w.spec.k:
            runs.append(w.spec)
        return residual(w, n, K)

    monkeypatch.setattr(invariants, "linear_relation_residual", counted)
    return runs


_GENERIC_WINDOWS = {}  # k -> the generic seed's window, extended as requests need


@pytest.fixture
def laurent_route():
    """Call with a numeric spec and a range [lo, hi] with |n| <= 6k + 6: the
    tuple x_lo..x_hi of the generic seed's Laurent polynomials evaluated at
    the spec's seed and a.  It divides by seed values only, so it gives the
    iterates through every zero pivot."""
    def route(spec, lo, hi):
        k = spec.k
        w = _GENERIC_WINDOWS.get(k) or engine.RecurrenceSpec.symbolic(k).window()
        w = _GENERIC_WINDOWS[k] = w.extend(lo, hi)
        point = [*spec.init, spec.a]
        return tuple(w[n].substitute(point) for n in range(lo, hi + 1))
    return route


@pytest.fixture
def corrupt_decimal_at(monkeypatch):
    """Call with an index n: from then on, each x_n that the relation builds
    on the Decimal route, an integer or a reduced quotient, has a numerator
    one too large, a fault the route's residue check must catch."""
    iterate = engine._iterate

    def arm(target: int) -> None:
        def corrupted(seq, spec, count, index, linear):
            first = len(seq)
            iterate(seq, spec, count, index, linear)
            for j in range(first, len(seq)):
                if index(j) != target:
                    continue
                if isinstance(seq[j], Decimal):
                    seq[j] += 1
                elif isinstance(seq[j], engine._Quotient):
                    seq[j] = replace(seq[j], numerator=seq[j].numerator + 1)

        monkeypatch.setattr(engine, "_iterate", corrupted)
    return arm
