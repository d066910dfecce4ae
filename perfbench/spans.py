"""Spans around the public functions of each ``hhrec`` module.

The tracer wraps functions and methods from outside the package: it swaps
each traced attribute for a wrapper in every ``hhrec`` module (and class)
that holds it, and puts the originals back on ``uninstall``.  A span is
(name, start, end, parent); spans live in memory and are written out once,
when the run ends.  A layer's self time is its spans' durations minus the
parts covered by their child spans, so the layers' self times plus the time
spent outside every span (the benchmark's own time) add up to the round.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("cli", "rational", "laurent", "matrix", "engine", "invariants",
          "closed_form", "verifier")

# module -> {attribute or Class.method: span name}; unlisted spans of a
# module count toward its layer's self time only
TRACED = {
    "cli": {"main": "cli.main"},
    "rational": {"format_rational": "rational.format", "parse_rational": "rational.parse"},
    "laurent": {
        "LaurentPolynomial.__mul__": "laurent.mul", "LaurentPolynomial.__rmul__": "laurent.mul",
        "LaurentPolynomial.exact_div": "laurent.div",
        "LaurentPolynomial.__add__": "laurent.add", "LaurentPolynomial.__radd__": "laurent.add",
        "LaurentPolynomial.__sub__": "laurent.add", "LaurentPolynomial.__rsub__": "laurent.add",
        "LaurentPolynomial.__neg__": "laurent.add", "LaurentPolynomial.__pow__": "laurent.pow",
        "LaurentPolynomial.substitute": "laurent.substitute",
        "LaurentPolynomial.sigma_pullback": "laurent.sigma",
        "format_laurent": "laurent.format", "parse_laurent": "laurent.parse",
        "RationalFunction.__add__": "laurent.rf", "RationalFunction.__radd__": "laurent.rf",
        "RationalFunction.__sub__": "laurent.rf", "RationalFunction.__mul__": "laurent.rf",
        "RationalFunction.__rmul__": "laurent.rf", "RationalFunction.__truediv__": "laurent.rf",
        "RationalFunction.__rtruediv__": "laurent.rf", "RationalFunction.__eq__": "laurent.rf",
        "RationalFunction.as_laurent": "laurent.rf",
    },
    "matrix": {"matrix_det": "matrix.det", "det_cofactor": "matrix.det_cofactor",
               "det_bareiss": "matrix.det_bareiss", "det_dodgson": "matrix.det_dodgson",
               "solve_exact": "matrix.solve"},
    "engine": {
        "SequenceWindow.extend": "engine.extend", "SequenceWindow.with_value": "engine.window",
        "RecurrenceSpec.window": "engine.window", "raw_window": "engine.window",
        "apply_sigma": "engine.window", "xi_residual": "engine.xi",
        "phi": "engine.phi", "phi_inverse": "engine.phi", "check_reversibility": "engine.phi",
        "window_rows": "engine.render", "render_csv": "engine.render",
        "render_json": "engine.render", "render_bfile": "engine.render",
        "parse_sequence": "engine.parse", "contiguous_values": "engine.parse",
    },
    "invariants": {
        "k_formula": "invariants.k_formula", "k_breakdown": "invariants.k_formula",
        "k_ratio": "invariants.routes", "k_cramer": "invariants.routes",
        "abg_coeffs": "invariants.routes", "periodic_coeffs": "invariants.routes",
        "monodromy_k": "invariants.routes",
        "wronskian3": "invariants.wronskian", "delta": "invariants.wronskian",
        "wronskian4_det": "invariants.wronskian",
        "explicit_iterates": "invariants.other", "nu_invariant": "invariants.other",
        "k_prime": "invariants.other", "inhom_coeffs": "invariants.other",
        "linear_relation_residual": "invariants.other",
        "operator_identity_residual": "invariants.other", "k_after_phi": "invariants.other",
        "first_integral_proof_residuals": "invariants.other",
        "p_vs_iterates_residuals": "invariants.other",
    },
    "closed_form": {"chebyshev_tu": "closed_form.chebyshev",
                    "extract_coeffs": "closed_form.extract",
                    "eval_closed_form": "closed_form.eval"},
    "verifier": {
        "run_campaign": "verifier.campaign", "random_spec": "verifier.campaign",
        "TrialContext.window": "verifier.window",
        "detect_linear_recurrence": "verifier.detect",
        "poly_divides": "verifier.campaign", "target_characteristic_poly": "verifier.campaign",
        "VerificationReport.to_json": "verifier.report",
        "VerificationReport.render_table": "verifier.report",
    },
}


def _value_bits(values) -> int:
    best = 0
    for v in values:
        if isinstance(v, Fraction):
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


class Tracer:
    """Records spans and counters while installed; one instance per run."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._restore: list[tuple] = []
        self.enabled = True   # False: wrappers call straight through

    # -- spans ---------------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, name: str, start: float, parent: int) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, name, start, parent)
                if hook is not None:
                    self._hook(hook, args, None, exc)
                raise
            self._close(idx, name, start, parent)
            if hook is not None:
                self._hook(hook, args, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _hook(self, hook, args, result, exc) -> None:
        # counting work is the benchmark's own time: give it a span of its own
        idx, parent = self._open()
        start = perf_counter()
        try:
            hook(self, args, result, exc)
        finally:
            self._close(idx, "bench.count", start, parent)

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        for modname, table in TRACED.items():
            mod = sys.modules[f"{package.__name__}.{modname}"]
            for attr, span in table.items():
                hook = _HOOKS.get(attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self.wrap(span, orig, hook))
                else:
                    orig = getattr(mod, attr)
                    wrapped = self.wrap(span, orig, hook)
                    for m in modules:
                        for key, val in list(vars(m).items()):
                            if val is orig:
                                self._set(m, key, wrapped)
        verifier = sys.modules[f"{package.__name__}.verifier"]
        degenerate = sys.modules[f"{package.__name__}.errors"].DegenerateInputError

        def count_check(tr, args, result, exc):
            tr.counts["verifier.checks_run"] += 1
            if isinstance(exc, degenerate):
                tr.counts["verifier.resamples"] += 1

        for table in (verifier.NUMERIC_CHECKS, verifier.SYMBOLIC_CHECKS):
            for cid, fn in list(table.items()):
                self._restore.append((table, cid, fn, True))
                table[cid] = self.wrap("verifier.check", fn, count_check)

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, getattr(owner, key) if not isinstance(owner, type)
                              else owner.__dict__[key], False))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig, is_item in reversed(self._restore):
            if is_item:
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def self_times(self, wall: float) -> dict[str, float]:
        """Self time per span name, plus ``bench`` for time outside every span."""
        covered = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
            else:
                top += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        out["bench.outside"] += wall - top
        return out

    def dump(self, path, meta: dict) -> None:
        """Write every span recorded so far, one JSON array per line."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(meta) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- counters kept at the same boundaries as the spans ----------------------------

def _count_mul(tr, args, result, exc):
    self, other = args
    if not hasattr(result, "_terms"):  # raised, or NotImplemented for the other operand
        return
    n_other = len(other) if hasattr(other, "_terms") else 1
    tr.counts["laurent.mul_calls"] += 1
    tr.counts["laurent.mul_terms"] += len(self) * n_other
    tr.maxima["laurent.max_terms"] = max(tr.maxima["laurent.max_terms"], len(self),
                                         n_other, len(result))


def _count_div(tr, args, result, exc):
    self, divisor = args
    tr.counts["laurent.div_calls"] += 1
    n_div = len(divisor) if hasattr(divisor, "_terms") else 1
    if n_div > 1:
        tr.counts["laurent.div_general_calls"] += 1
    sizes = [len(self), n_div] + ([len(result)] if result is not None else [])
    tr.maxima["laurent.max_terms"] = max(tr.maxima["laurent.max_terms"], *sizes)


def _count_extend(tr, args, result, exc):
    tr.counts["engine.extend_calls"] += 1
    if result is not None:
        tr.counts["engine.iterates"] += len(result.values) - len(args[0].values)
        tr.maxima["engine.max_value_bits"] = max(tr.maxima["engine.max_value_bits"],
                                                 _value_bits(result.values))


def _counter(key):
    def count(tr, args, result, exc):
        tr.counts[key] += 1
    return count


_HOOKS = {
    "LaurentPolynomial.__mul__": _count_mul, "LaurentPolynomial.__rmul__": _count_mul,
    "LaurentPolynomial.exact_div": _count_div,
    "SequenceWindow.extend": _count_extend,
    "format_rational": _counter("rational.format_calls"),
    "solve_exact": _counter("matrix.solve_calls"),
    "matrix_det": _counter("matrix.det_calls"),
    "k_breakdown": _counter("invariants.k_formula_calls"),
    "chebyshev_tu": _counter("closed_form.chebyshev_calls"),
    "detect_linear_recurrence": _counter("verifier.detect_calls"),
}
