"""Command-line interface.

Subcommands: ``gen`` (iterate and export), ``invariant`` (the conserved
quantity, optionally via all four routes), ``verify`` (randomized identity
campaigns), ``closed-form`` (Chebyshev coefficients / evaluation), and
``detect`` (minimal linear recurrence of a sequence).

Exit codes: 0 success, 1 check failure, 2 usage error, 3 degenerate input,
141 (128 + SIGPIPE) when the reader of stdout closes it early.
All numbers in JSON output are canonical rational strings, never floats.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import closed_form as cf
from . import invariants as inv
from .engine import (
    RecurrenceSpec,
    contiguous_values,
    export_window,
    parse_sequence,
    render_pieces,
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
EXIT_BROKEN_PIPE = 128 + 13  # SIGPIPE, as a shell reports `yes | head`

# closed-form --eval refuses |m| * (bits(p) + bits(q)) past this, t = p/q and
# m = n // 2k: about the bit size of the integers the Lucas chain builds.
# At the bound, k = 1 with the seed 1, 2, 3 (t = 29/6) to n = 8388608 takes
# about 1.0 s with 51 MiB peak memory, and the seed 2^61 - 1, 1, 1 to
# n = 360801 1.2 s with 58 MiB (Python 3.11.7, 2-core Intel Xeon VM)
EVAL_BIT_BUDGET = 2 ** 25

# gen refuses a window [lo, hi] whose sum of |n // 2k| * (bits(p) + bits(q))
# passes this, t = (K-1)/2 = p/q: about the total bits of the iterates it
# would build.  k = 1 with the all-ones seed to n = 16000 estimates 3.8e8.
# At the bound, the all-ones seed to n = 26754 (t = 13/2) takes about 1.3 s
# and the seed 1, 2, 3 to n = 23170 (t = 29/6, K = 32/3) about 2.4 s, with
# 103 and 130 MiB peak memory, and the seed 2^61 - 1, 1, 1 to n = 4805 5.0 s
# and 156 MiB (csv and json alike, output read from a pipe, Python 3.11.7,
# 2-core Intel Xeon VM)
GEN_BIT_BUDGET = 2 ** 30


class UsageError(Exception):
    pass


def _numeric_spec(args) -> RecurrenceSpec:
    if args.init is None:
        raise UsageError("--init is required in numeric mode")
    try:
        init = [parse_rational(p) for p in args.init.split(",") if p.strip()]
        return RecurrenceSpec(args.k, parse_rational("1" if args.a is None else args.a), init)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _quotient_sum(lo: int, hi: int, m: int) -> int:
    """The sum of |n // m| over n in [lo, hi], lo <= 0 <= hi, in closed form."""
    def below(n):  # the sum of j // m over j in [0, n)
        q, r = divmod(n, m)
        return m * q * (q - 1) // 2 + r * q
    # n >= 0 adds n // m; n = -1 - j < 0 adds j // m + 1
    return below(hi + 1) + below(-lo) - lo


def _generated_rows(args, printed: bool = False) -> list:
    """(n, x_n) for n in [--from, --to] of the numeric spec in the arguments;
    ``printed`` builds them by ``export_window``: Decimals print in linear
    time but turn back into ints in quadratic time, so detect reads Fractions."""
    spec = _numeric_spec(args)
    lo, hi = args.from_, args.to
    if lo > hi:
        raise UsageError(f"--from {lo} exceeds --to {hi}")
    w_lo, w_hi = min(lo, 0), max(hi, 2 * args.k)
    if all(spec.init):  # a zero seed value raises ZeroPivotError in the block build
        t = (spec.K - 1) / 2
        height = t.numerator.bit_length() + t.denominator.bit_length()
        estimate = _quotient_sum(w_lo, w_hi, 2 * args.k) * height
        if estimate > GEN_BIT_BUDGET:
            raise UsageError(f"the window [{w_lo}, {w_hi}] needs about {estimate} bits of "
                             f"iterates, past the budget of {GEN_BIT_BUDGET}")
    w = export_window(spec, w_lo, w_hi) if printed else spec.window().extend(w_lo, w_hi)
    return window_rows(w, lo, hi)


def cmd_gen(args) -> int:
    # row by row, so the whole text is never held at once
    sys.stdout.writelines(render_pieces(_generated_rows(args, printed=True), args.format))
    return EXIT_OK


def cmd_invariant(args) -> int:
    if args.symbolic:
        if args.init is not None:
            raise UsageError("--symbolic computes the generic breakdown; drop --init")
        if args.a is not None:
            raise UsageError("--symbolic keeps a as a variable; drop --a")
        if args.all_routes:
            raise UsageError("--all-routes is numeric-only")
        try:
            spec = RecurrenceSpec.symbolic(args.k)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
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
    if args.symbolic and args.k > args.max_symbolic_k:
        raise UsageError(f"symbolic campaigns are capped at k <= {args.max_symbolic_k} "
                         "(raise with --max-symbolic-k)")
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
    try:  # refuse an unwritable path before the campaign runs
        report_file = open(args.json, "a") if args.json else None
    except OSError as exc:
        raise UsageError(str(exc)) from exc
    with report_file or contextlib.nullcontext():
        report = run_campaign(cfg)
        sys.stdout.write(report.render_table())
        if report_file:
            # tell() is the old report's length: 0 for /dev/null, which refuses truncate
            if report_file.seekable() and report_file.tell():
                report_file.truncate(0)  # opened to append: an aborted run keeps the old report
            report_file.write(report.to_json())
    return EXIT_OK if not report.failures else EXIT_CHECK_FAILED


def cmd_closed_form(args) -> int:
    spec = _numeric_spec(args)
    k = args.k
    w = spec.window().extend(-2 * k, 4 * k - 1)
    coeffs = cf.extract_coeffs(w, spec.K)  # DegenerateTError -> exit 3
    if args.coeffs:
        print(json.dumps(coeffs.to_json_dict(), indent=2))
    else:
        t = coeffs.t
        height = t.numerator.bit_length() + t.denominator.bit_length()
        estimate = abs(args.eval // (2 * k)) * height
        if estimate > EVAL_BIT_BUDGET:
            raise UsageError(f"--eval {args.eval} needs about {estimate} bits of Chebyshev "
                             f"powers, past the budget of {EVAL_BIT_BUDGET}")
        value = cf.printable_value(w, coeffs, args.eval)  # ResidueMismatchError -> exit 1
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


def _spec_args(p) -> None:
    p.add_argument("--k", type=int, required=True, help="order parameter (order is 2k+1)")
    p.add_argument("--a", default=None, help="nonzero rational coefficient, p/q form")
    p.add_argument("--init", default=None, help="comma-separated 2k+1 rationals for x0..x2k")


def _gen_args(p) -> None:
    _spec_args(p)
    p.add_argument("--from", dest="from_", type=int, default=0, help="first index to emit")
    p.add_argument("--to", type=int, required=True, help="last index to emit")
    p.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")


def _invariant_args(p) -> None:
    _spec_args(p)
    p.add_argument("--symbolic", action="store_true",
                   help="generic initial data; emits Laurent-polynomial pieces")
    p.add_argument("--all-routes", action="store_true",
                   help="also compute K via ratio, Cramer and monodromy routes")


def _verify_args(p) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", default="all", help="comma-separated check ids or 'all'")
    p.add_argument("--symbolic", action="store_true")
    p.add_argument("--numerator-bound", type=int, default=10)
    p.add_argument("--denominator-bound", type=int, default=10)
    p.add_argument("--max-resamples", type=int, default=8)
    p.add_argument("--max-symbolic-k", type=int, default=2,
                   help="symbolic campaigns refuse larger k")
    p.add_argument("--inject-fault", default=None, metavar="CHECK",
                   help="corrupt one window value for this check (negative control)")
    p.add_argument("--json", default=None, metavar="FILE", help="also write the JSON report")


def _closed_form_args(p) -> None:
    _spec_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--coeffs", action="store_true", help="emit the 2k coefficient triples")
    group.add_argument("--eval", type=int, metavar="N", help="evaluate x_N from the closed form")


def _detect_args(p) -> None:
    p.add_argument("--input", default=None, metavar="FILE",
                   help="sequence file in csv, json or b-file form")
    p.add_argument("--gen", action="store_true",
                   help="generate the sequence from --k/--a/--init/--from/--to instead")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--a", default=None)
    p.add_argument("--init", default=None)
    p.add_argument("--from", dest="from_", type=int, default=0)
    p.add_argument("--to", type=int, default=None)
    p.add_argument("--max-order", type=int, required=True)


# name -> (help, the function adding its arguments, the function running it)
_SUBCOMMANDS = {
    "gen": ("iterate and export a window of the sequence", _gen_args, cmd_gen),
    "invariant": ("the conserved quantity K and its breakdown", _invariant_args, cmd_invariant),
    "verify": ("run a randomized identity campaign", _verify_args, cmd_verify),
    "closed-form": ("Chebyshev closed-form coefficients / evaluation", _closed_form_args,
                    cmd_closed_form),
    "detect": ("minimal linear recurrence of a sequence", _detect_args, cmd_detect),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.  The usage line
    of the one-command parser names every subcommand, as the full parser's
    does; the full parser keeps argparse's own metavar, which its "required"
    and "invalid choice" errors print."""
    parser = argparse.ArgumentParser(
        prog="hhrec",
        description="Exact iteration and verification of an odd-order family "
                    "of linearizable rational recurrences.")
    sub = parser.add_subparsers(dest="command", required=True, metavar=None if command is None
                                else "{" + ",".join(_SUBCOMMANDS) + "}")
    for name, (help_, add_args, func) in _SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_)
            add_args(p)
            p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command line naming a subcommand needs that subcommand's parser only
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader raises here, not at the interpreter's exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit: let that go to /dev/null
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
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
