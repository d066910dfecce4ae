"""Benchmark for hhrec: drive the CLI and library the way users do, time it, check it.

    python3 perfbench/run.py --workload sequence --seed 1 --seconds 30 --trace 0

One process, one client, a closed loop: each operation starts when the one
before it has returned.  A run sets up (imports ``hhrec`` from ``src/`` and
draws the workload's inputs from ``--seed``) several times, then repeats
whole rounds of the same operations until ``--seconds`` is spent.  The first
round's outputs are checked against ``oracle.py``; later rounds must
reproduce them exactly.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, timed in reference seconds (speed.py);
``--trace 1`` alternates untraced and traced rounds and reports per-layer
metrics from the traced ones (see README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5

import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from speed import Speedometer  # noqa: E402


def load_package():
    """Import ``hhrec`` afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "hhrec" or n.startswith("hhrec.")]:
        del sys.modules[name]
    pkg = importlib.import_module("hhrec")
    importlib.import_module("hhrec.cli")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hhrec was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def setup(workload: str, seed: int, reports: str, speedo: Speedometer):
    times = []
    for _ in range(SETUP_REPEATS):
        speedo.sample()
        t0 = time.perf_counter()
        pkg = load_package()
        ops = workloads.build(workload, seed, reports)
        times.append(speedo.reference_seconds(t0, time.perf_counter(), "numeric"))
    speedo.sample()
    return pkg, ops, times


def execute(op, pkg, state) -> workloads.Outcome:
    if op.argv is None:
        try:
            return workloads.Outcome(0, "", value=op.call(pkg, state))
        except Exception as exc:
            return workloads.Outcome(None, "", exc)
    out, err = io.StringIO(), io.StringIO()
    rc, exc = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = pkg.cli.main(op.argv)
        except SystemExit as stop:
            rc = stop.code
        except Exception as caught:
            exc = caught
    return workloads.Outcome(rc, out.getvalue(), exc)


def run_round(ops, pkg, speedo: Speedometer | None, observe):
    """One pass over the operations.

    ``observe(i, outcome)`` sees each operation's outcome as soon as it
    returns, outside its timing, so that no output outlives the check that
    reads it.  Returns the wall time spent in the operations and each
    operation's time.  With a speedometer, the machine's speed is sampled
    between operations and the times are reference seconds (see speed.py).
    """
    state: dict = {}
    spans = []
    for i, op in enumerate(ops):
        if speedo is not None:
            speedo.sample()
        t0 = time.perf_counter()
        outcome = execute(op, pkg, state)
        spans.append((t0, time.perf_counter()))
        observe(i, outcome)
    if speedo is None:
        times = [b - a for a, b in spans]
        return sum(times), times
    speedo.sample()
    wall = sum(b - a - speedo.kernel_seconds(a, b) for a, b in spans)
    return wall, [speedo.reference_seconds(a, b, op.domain) for op, (a, b) in zip(ops, spans)]


def known_fault(op, o) -> bool:
    if op.fault == "digit-limit":
        # the value escapes str(int) as a ValueError; a refusal up front still
        # delivers no value
        return o.rc == 2 or (isinstance(o.exc, ValueError) and "digits" in str(o.exc))
    if op.fault == "negative-control":
        return o.rc == 0
    return False


def judge(op, o) -> tuple[bool, str | None]:
    """(failed, problem): problem is set when the outcome is wrong or unexpected."""
    if known_fault(op, o):
        return True, None
    if o.exc is not None:
        return True, f"raised {type(o.exc).__name__}: {o.exc}"
    if op.report is None and o.rc != 0:
        return True, f"exit code {o.rc}"
    try:
        return False, op.check(o)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return False, f"output unreadable: {type(exc).__name__}: {exc}"


def digest(o) -> str:
    text = o.out if o.value is None else repr(o.value)
    text += "" if o.exc is None else f"{type(o.exc).__name__}: {o.exc}"
    return hashlib.sha256(f"{o.rc}\n{text}".encode()).hexdigest()


class Checker:
    """Oracle checks on the first round; later rounds must repeat its outputs."""

    def __init__(self, ops):
        self.ops = ops
        self.digests: list[str] = []
        self.failed_per_round = 0
        self.problems: list[str] = []

    def observe(self, i: int, outcome) -> None:
        op = self.ops[i]
        if len(self.digests) < len(self.ops):
            self.digests.append(digest(outcome))
            failed, problem = judge(op, outcome)
            self.failed_per_round += failed
            if problem:
                self.problems.append(f"{op.label}: {problem}")
        elif digest(outcome) != self.digests[i]:
            self.problems.append(f"{op.label}: output changed between rounds")


def round_figures(ops, times) -> dict:
    fig = {"run_s": sum(times)}
    for kind in ("gen", "closed_form", "verify", "identity"):
        fig[kind] = sum(t for op, t in zip(ops, times) if op.kind == kind)
    fig["terms"] = sum(op.terms for op in ops)
    fig["trials"] = sum(op.trials for op in ops)
    return fig


def end_to_end(setup_times, rounds) -> dict:
    med = statistics.median
    metrics = {
        "setup_s": (med(setup_times), "s"),
        "run_s": (med(f["run_s"] for f in rounds), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "gen_terms_per_s": (med(f["terms"] / f["gen"] for f in rounds), "terms/s"),
        "closed_form_s": (med(f["closed_form"] for f in rounds), "s"),
        "verify_trials_per_s": (med(f["trials"] / f["verify"] for f in rounds), "trials/s"),
        "identity_s": (med(f["identity"] for f in rounds), "s"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


# per-layer metric -> span names whose self time it sums
SELF_GROUPS = {
    "rational.format_s": ("rational.format",),
    "laurent.mul_s": ("laurent.mul",),
    "laurent.div_s": ("laurent.div",),
    "matrix.solve_s": ("matrix.solve",),
    "matrix.det_s": ("matrix.det", "matrix.det_cofactor", "matrix.det_bareiss",
                     "matrix.det_dodgson"),
    "engine.extend_s": ("engine.extend",),
    "engine.render_s": ("engine.render",),
    "invariants.k_formula_s": ("invariants.k_formula",),
    "invariants.routes_s": ("invariants.routes",),
    "invariants.wronskian_s": ("invariants.wronskian",),
    "closed_form.chebyshev_s": ("closed_form.chebyshev",),
    "closed_form.extract_s": ("closed_form.extract",),
    "verifier.detect_s": ("verifier.detect",),
}
COUNTS = ("rational.format_calls", "laurent.mul_calls", "laurent.mul_terms",
          "laurent.div_calls", "laurent.div_general_calls", "matrix.solve_calls",
          "matrix.det_calls", "engine.extend_calls", "engine.iterates",
          "invariants.k_formula_calls", "closed_form.chebyshev_calls",
          "verifier.detect_calls", "verifier.checks_run", "verifier.resamples")
MAXIMA = ("laurent.max_terms", "engine.max_value_bits")


def per_layer(tracer: Tracer, traced_walls, untraced_walls) -> dict:
    n = len(traced_walls)
    wall = sum(traced_walls)
    selfs = tracer.self_times(wall)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (sum(v for k, v in selfs.items()
                                          if k.startswith(layer + ".")) / n, "s")
    metrics["bench.self_s"] = (sum(v for k, v in selfs.items() if k.startswith("bench.")) / n, "s")
    for name, span_names in SELF_GROUPS.items():
        metrics[name] = (sum(selfs.get(s, 0.0) for s in span_names) / n, "s")
    spans = tracer.spans
    metrics["verifier.window_build_s"] = (
        sum(e - s for name, s, e, _ in spans if name == "verifier.window") / n, "s")
    metrics["matrix.bareiss_fallbacks"] = (sum(
        1 for name, _, _, p in spans
        if name == "matrix.det_bareiss" and p >= 0 and spans[p][0] == "matrix.det") / n, "count")
    for name in COUNTS:
        metrics[name] = (tracer.counts[name] / n, "count")
    for name in MAXIMA:
        metrics[name] = (tracer.maxima[name], "bits" if name.endswith("bits") else "count")
    traced, untraced = wall / n, statistics.mean(untraced_walls)
    metrics["trace.run_s"] = (traced, "s")
    metrics["trace.untraced_run_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans"] = (len(spans) / n, "count")
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hhrec", "__init__.py")):
        print(f"error: no hhrec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    reports = tempfile.mkdtemp(prefix="reports-", dir=OUT)
    try:
        return measure(args, reports)
    finally:
        shutil.rmtree(reports)


def untraced(tracer: Tracer, fn, *args):
    """Call ``fn`` with the tracer's wrappers passing straight through."""
    tracer.enabled = False
    try:
        return fn(*args)
    finally:
        tracer.enabled = True


def measure(args, reports: str) -> int:
    speedo = Speedometer()
    speedo.start()
    try:
        pkg, ops, setup_times = setup(args.workload, args.seed, reports, speedo)
    finally:
        speedo.stop()
    checker = Checker(ops)
    tracer = Tracer()
    rounds, traced_walls, untraced_walls = [], [], []
    started = time.perf_counter()
    last = 0.0
    while True:
        # a traced run compares raw wall times of alternate rounds, so it
        # samples no speed: the kernels would run inside spans
        traced = bool(args.trace) and len(untraced_walls) > len(traced_walls)
        if traced:
            tracer.install(pkg)
        elif not args.trace:
            speedo.start()
        try:
            wall, times = run_round(ops, pkg, None if args.trace else speedo,
                                    lambda i, o: untraced(tracer, checker.observe, i, o))
        finally:
            if traced:
                tracer.uninstall()
            elif not args.trace:
                speedo.stop()
        (traced_walls if traced else untraced_walls).append(wall)
        if not traced:
            rounds.append(round_figures(ops, times))
        elapsed = time.perf_counter() - started
        last = max(last, wall)
        pending_trace = bool(args.trace) and len(untraced_walls) > len(traced_walls)
        if not pending_trace and elapsed + last > args.seconds:
            break

    attempted = len(ops) * (len(untraced_walls) + len(traced_walls))
    failed = checker.failed_per_round * (len(untraced_walls) + len(traced_walls))
    if args.trace:
        metrics = per_layer(tracer, traced_walls, untraced_walls)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl.gz"),
                    {"workload": args.workload, "seed": args.seed, "rounds": len(traced_walls)})
    else:
        metrics = end_to_end(setup_times, rounds)
    for problem in checker.problems:
        print(f"# CHECK FAILED {problem}")
    kernels = " ".join(f"{domain}_kernel_ms={statistics.median(d) * 1e3:.3f}"
                       for domain, d in speedo.durations.items())
    print(f"# workload={args.workload} seed={args.seed} ops_per_round={len(ops)} "
          f"untraced_rounds={len(untraced_walls)} traced_rounds={len(traced_walls)} "
          f"setup_repeats={SETUP_REPEATS} known_failures_per_round={checker.failed_per_round} "
          f"wall_round_s={statistics.median(untraced_walls):.4f} {kernels}")
    print(json.dumps({"correct": not checker.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
