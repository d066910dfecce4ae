import pytest

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
