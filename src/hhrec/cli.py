"""Command-line interface.

Subcommands: ``gen`` (iterate and export), ``invariant`` (the conserved
quantity, optionally via all four routes), ``verify`` (randomized identity
campaigns), ``closed-form`` (Chebyshev coefficients / evaluation), and
``detect`` (minimal linear recurrence of a sequence).

Exit codes: 0 success, 1 check failure, 2 usage error, 3 degenerate input.
All numbers in JSON output are canonical rational strings, never floats.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import closed_form as cf
from . import invariants as inv
from .engine import (
    RecurrenceSpec,
    contiguous_values,
    parse_sequence,
    render_bfile,
    render_csv,
    render_json,
    window_rows,
)
from .errors import (
    DegenerateInputError,
    HHRecError,
    InsufficientDataError,
    NonIntegerValueError,
)
from .rational import format_rational, parse_rational
from .verifier import (
    TrialConfig,
    detect_linear_recurrence,
    run_campaign,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


class UsageError(Exception):
    pass


def _parse_init(text: str, k: int) -> tuple[Fraction, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    try:
        values = tuple(parse_rational(p) for p in parts)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if len(values) != 2 * k + 1:
        raise UsageError(f"--init needs exactly 2k+1 = {2 * k + 1} values, got {len(values)}")
    return values


def _numeric_spec(args) -> RecurrenceSpec:
    if args.init is None:
        raise UsageError("--init is required in numeric mode")
    init = _parse_init(args.init, args.k)
    try:
        a = parse_rational(args.a)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        return RecurrenceSpec(args.k, a, init)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _generated_rows(args) -> list:
    """(n, x_n) for n in [--from, --to] of the numeric spec in the arguments."""
    spec = _numeric_spec(args)
    lo, hi = args.from_, args.to
    if lo > hi:
        raise UsageError(f"--from {lo} exceeds --to {hi}")
    w = spec.window().extend(min(lo, 0), max(hi, 2 * args.k))
    return window_rows(w, lo, hi)


def cmd_gen(args) -> int:
    rows = _generated_rows(args)
    if args.format == "csv":
        sys.stdout.write(render_csv(rows))
    elif args.format == "json":
        sys.stdout.write(render_json(rows))
    else:
        sys.stdout.write(render_bfile(rows))
    return EXIT_OK


def cmd_invariant(args) -> int:
    if args.symbolic:
        if args.k < 1:
            raise UsageError(f"--k must be >= 1, got {args.k}")
        if args.init is not None:
            raise UsageError("--symbolic computes the generic breakdown; drop --init")
        if args.all_routes:
            raise UsageError("--all-routes is numeric-only")
        spec = RecurrenceSpec.symbolic(args.k)
        out = {"k": args.k, "symbolic": True, **inv.k_formula(spec).to_json_dict()}
        print(json.dumps(out, indent=2))
        return EXIT_OK
    spec = _numeric_spec(args)
    kb = inv.k_formula(spec)
    out = {
        "k": args.k,
        "a": format_rational(spec.a),
        "init": [format_rational(v) for v in spec.init],
        **kb.to_json_dict(),
    }
    if args.all_routes:
        k = args.k
        w = spec.window().extend(-2 * k, 6 * k + 2)
        routes: dict = {"formula": format_rational(kb.K)}
        ratio, form = inv.k_ratio_route(w)  # may raise -> exit 3
        routes["ratio"] = {"value": format_rational(ratio), "form": form}
        c1, c2 = inv.k_cramer(w, 0)
        routes["cramer"] = [format_rational(c1), format_rational(c2)]
        m1, m2 = inv.monodromy_k(inv.periodic_coeffs(w))
        routes["monodromy"] = [format_rational(m1), format_rational(m2)]
        values = {ratio, c1, c2, m1, m2, kb.K}
        out["routes"] = routes
        out["agreement"] = len(values) == 1
        print(json.dumps(out, indent=2))
        return EXIT_OK if out["agreement"] else EXIT_CHECK_FAILED
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    cap = args.max_symbolic_k
    env_cap = os.environ.get("HH_MAX_SYMBOLIC_K")
    if env_cap is not None:
        try:
            cap = int(env_cap)
        except ValueError as exc:
            raise UsageError(f"HH_MAX_SYMBOLIC_K must be an integer: {env_cap!r}") from exc
    if args.symbolic and args.k > cap:
        raise UsageError(f"symbolic campaigns are capped at k <= {cap} "
                         "(raise with --max-symbolic-k or HH_MAX_SYMBOLIC_K)")
    checks = frozenset(c for c in args.checks.split(",") if c.strip())
    try:
        cfg = TrialConfig(
            k=args.k, trials=args.trials, seed=args.seed,
            numerator_bound=args.numerator_bound,
            denominator_bound=args.denominator_bound,
            checks=checks, symbolic=args.symbolic,
            max_resamples=args.max_resamples,
            inject_fault=args.inject_fault,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = run_campaign(cfg)
    sys.stdout.write(report.render_table())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    return EXIT_OK if not report.failures else EXIT_CHECK_FAILED


def cmd_closed_form(args) -> int:
    spec = _numeric_spec(args)
    k = args.k
    K = inv.k_formula(spec).K
    w = spec.window().extend(-2 * k, 4 * k - 1)
    coeffs = cf.extract_coeffs(w, K)  # DegenerateTError -> exit 3
    if args.coeffs:
        print(json.dumps(coeffs.to_json_dict(), indent=2))
    else:
        value = cf.eval_closed_form(coeffs, args.eval)
        print(json.dumps({"n": args.eval, "value": format_rational(value)}))
    return EXIT_OK


def cmd_detect(args) -> int:
    if args.input is not None and args.gen:
        raise UsageError("choose one of --input or --gen")
    if args.input is not None:
        try:
            with open(args.input) as fh:
                rows = parse_sequence(fh.read())
            _, values = contiguous_values(rows)
        except (ValueError, OSError) as exc:
            raise UsageError(str(exc)) from exc
    elif args.gen:
        if args.k is None or args.to is None:
            raise UsageError("--gen needs --k, --init and --to")
        values = [v for _, v in _generated_rows(args)]
    else:
        raise UsageError("detect needs --input FILE or --gen")
    try:
        charpoly = detect_linear_recurrence(values, args.max_order)
    except (InsufficientDataError, ValueError) as exc:  # too few terms, --max-order < 1
        raise UsageError(str(exc)) from exc
    if charpoly is None:
        print(json.dumps({"order": None, "charpoly": None}))
    else:
        print(json.dumps({"order": len(charpoly) - 1,
                          "charpoly": [format_rational(c) for c in charpoly]}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhrec",
        description="Exact iteration and verification of an odd-order family "
                    "of linearizable rational recurrences.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p, init_required=True):
        p.add_argument("--k", type=int, required=True, help="order parameter (order is 2k+1)")
        p.add_argument("--a", default="1", help="nonzero rational coefficient, p/q form")
        p.add_argument("--init", default=None,
                       help="comma-separated 2k+1 rationals for x0..x2k")

    p = sub.add_parser("gen", help="iterate and export a window of the sequence")
    add_spec_args(p)
    p.add_argument("--from", dest="from_", type=int, default=0, help="first index to emit")
    p.add_argument("--to", type=int, required=True, help="last index to emit")
    p.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("invariant", help="the conserved quantity K and its breakdown")
    add_spec_args(p)
    p.add_argument("--symbolic", action="store_true",
                   help="generic initial data; emits Laurent-polynomial pieces")
    p.add_argument("--all-routes", action="store_true",
                   help="also compute K via ratio, Cramer and monodromy routes")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("verify", help="run a randomized identity campaign")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", default="all", help="comma-separated check ids or 'all'")
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--numerator-bound", type=int, default=10)
    p.add_argument("--denominator-bound", type=int, default=10)
    p.add_argument("--max-resamples", type=int, default=8)
    p.add_argument("--max-symbolic-k", type=int, default=2,
                   help="symbolic campaigns refuse larger k (env HH_MAX_SYMBOLIC_K overrides)")
    p.add_argument("--inject-fault", default=None, metavar="CHECK",
                   help="corrupt one window value for this check (negative control)")
    p.add_argument("--json", default=None, metavar="FILE", help="also write the JSON report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("closed-form", help="Chebyshev closed-form coefficients / evaluation")
    add_spec_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--coeffs", action="store_true", help="emit the 2k coefficient triples")
    group.add_argument("--eval", type=int, metavar="N", help="evaluate x_N from the closed form")
    p.set_defaults(func=cmd_closed_form)

    p = sub.add_parser("detect", help="minimal linear recurrence of a sequence")
    p.add_argument("--input", default=None, metavar="FILE",
                   help="sequence file in csv, json or b-file form")
    p.add_argument("--gen", action="store_true",
                   help="generate the sequence from --k/--a/--init/--from/--to instead")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--a", default="1")
    p.add_argument("--init", default=None)
    p.add_argument("--from", dest="from_", type=int, default=0)
    p.add_argument("--to", type=int, default=None)
    p.add_argument("--max-order", type=int, required=True)
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonIntegerValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except DegenerateInputError as exc:
        print(f"degenerate input: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except HHRecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
