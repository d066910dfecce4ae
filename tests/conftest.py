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
