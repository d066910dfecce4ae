import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from hhrec import cli
from hhrec import closed_form as cf
from hhrec import engine
from hhrec.cli import main
from hhrec.errors import ResidueMismatchError
from hhrec.rational import format_rational
from hhrec.verifier import NUMERIC_CHECKS, SYMBOLIC_CHECKS
from test_closed_form import EVAL_GRID, chebyshev_by_matrix_power, seed_coeffs


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


# -- gen ---------------------------------------------------------------------------

def test_gen_csv_golden(run):
    code, out, _ = run("gen", "--k", "1", "--a", "1", "--init", "1,1,1",
                       "--from", "0", "--to", "8", "--format", "csv")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n,value"
    assert lines[-2:] == ["7,393", "8,1093"]


def test_gen_bfile_golden(run):
    code, out, _ = run("gen", "--k", "2", "--a", "1", "--init", "1,1,1,1,1",
                       "--to", "12", "--format", "bfile")
    assert code == 0
    assert out.strip().splitlines()[-1] == "12 449"


def test_gen_window_auto_covers_init(run):
    code, out, _ = run("gen", "--k", "1", "--a", "1", "--init", "1,1,1",
                       "--from", "4", "--to", "6", "--format", "csv")
    assert code == 0
    assert [l.split(",")[0] for l in out.strip().splitlines()[1:]] == ["4", "5", "6"]


def test_gen_arity_error(run):
    code, _, err = run("gen", "--k", "1", "--init", "1,2", "--to", "5")
    assert code == 2 and "2k+1" in err


def test_gen_malformed_rational(run):
    code, _, err = run("gen", "--k", "1", "--init", "1,2,x", "--to", "5")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--init", "1,1,1", "--a", "1/0"),
    ("--init", "1/0,1,1"),
], ids=["a", "init"])
def test_gen_zero_denominator_exits_2(run, argv):
    code, _, err = run("gen", "--k", "1", "--to", "5", *argv)
    assert code == 2 and "zero denominator" in err


def test_gen_zero_pivot_exits_0(run, laurent_route):
    # x_6 = 0, which the recurrence's step to x_9 would divide by
    code, out, err = run("gen", "--k", "1", "--a", "1", "--init", "1,2,-1", "--to", "9")
    spec = engine.RecurrenceSpec.numeric(1, 1, [1, 2, -1])
    assert (code, err) == (0, "") and "\n6,0\n" in out
    assert engine.parse_sequence(out) == list(zip(range(0, 10), laurent_route(spec, 0, 9)))


def test_commands_go_through_a_zero_pivot(run):
    # x_3 = 0 divides the recurrence's steps to x_7 and x_-1
    seed = ("--k", "1", "--a=-2", "--init=-3,-2,1")
    code, out, err = run("gen", *seed, "--from", "-5", "--to", "10")
    assert (code, err) == (0, "") and out.endswith("\n3,0\n4,1\n5,-2\n6,-3\n7,16\n8,37\n9,-162\n10,-359\n")
    for n, value in engine.parse_sequence(out):
        code, text, _ = run("closed-form", *seed, "--eval", str(n))
        assert (code, json.loads(text)) == (0, {"n": n, "value": format_rational(value)})
    code, out, _ = run("invariant", *seed, "--all-routes")
    assert (code, json.loads(out)["K"], json.loads(out)["agreement"]) == (0, "-9", True)
    code, out, _ = run("detect", "--gen", *seed, "--to", "30", "--max-order", "6")
    assert (code, json.loads(out)) == (0, {"order": 6, "charpoly": ["1", "0", "9", "0", "-9", "0", "-1"]})


@pytest.mark.parametrize("init,window,pivot", [
    ("1,-1,2", ("--to", "9"), 6),            # x_6 = 0 comes from the linear relation
    ("2,-1,1", ("--from", "-7", "--to", "2"), -4),
    ("0,1,1", ("--to", "3"), 0),             # a zero seed value skips the size budget
])
def test_gen_zero_pivot_names_its_index(run, laurent_route, init, window, pivot):
    """A zero seed value exits 3 naming it; a zero iterate x_pivot, which
    the recurrence would divide by, prints as 0 among the Laurent values."""
    code, out, err = run("gen", "--k", "1", "--a", "1", "--init", init, *window)
    if pivot in range(3):
        assert (code, out, err) == (3, "", f"degenerate input: zero iterate x_{pivot} used as a divisor\n")
        return
    spec = engine.RecurrenceSpec.numeric(1, 1, [int(v) for v in init.split(",")])
    rows = engine.parse_sequence(out)
    assert (code, err) == (0, "") and f"\n{pivot},0\n" in out
    assert rows == list(zip(range(rows[0][0], rows[-1][0] + 1), laurent_route(spec, rows[0][0], rows[-1][0])))


# (k, a, init, --from, --to): windows whose K and 6k start values are integers
DECIMAL_ROUTE = {
    "two-sided": (1, "1", "1,1,1", -30, 40),
    "forward": (2, "-2", "1,-1,1,1,-1", 0, 60),
    "backward": (3, "3", "1,1,-1,1,1,1,-1", -70, 6),
    "integer-seed": (1, "1", "3,7,31", -25, 25),           # x_3..x_5 of the all-ones seed
    "zero-value": (1, "2", "-2,2,-1", -7, 5),              # x_-5 = 0
    "shorter-than-6k": (3, "1", "1,1,1,1,1,1,1", -2, 10),
    "from-100": (2, "1", "1,1,1,1,1", 100, 130),
    "past-digit-limit": (1, "1000000", "1,1,1", -720, 720),
    # seeds whose windows hold zero pivots, once refused: each zero prints as 0
    "zero-pivots": (1, "2", "-3,2,-1", -40, 60),
    "zero-pivots-backward": (1, "2", "-2,2,-1", -60, 2),
    "zero-pivots-k2": (2, "1", "-2,1,1,1,2", -40, 60),
    "zero-pivots-closed-form": (1, "-2", "-3,-2,1", -40, 60),
}


@pytest.mark.parametrize("form", ["csv", "json", "bfile"])
@pytest.mark.parametrize("case", DECIMAL_ROUTE)
def test_gen_decimal_route_prints_the_binary_window(run, case, form):
    k, a, init, lo, hi = DECIMAL_ROUTE[case]
    code, out, err = run("gen", "--k", str(k), f"--a={a}", f"--init={init}",
                         f"--from={lo}", f"--to={hi}", "--format", form)
    spec = engine.RecurrenceSpec.numeric(k, int(a), [int(v) for v in init.split(",")])
    binary = spec.window().extend(min(lo, 0), max(hi, 2 * k))
    render = {"csv": engine.render_csv, "json": engine.render_json, "bfile": engine.render_bfile}
    assert (code, err) == (0, "")
    assert out == render[form](engine.window_rows(binary, lo, hi))


@pytest.mark.parametrize("k,a,init,window,pivot", [
    (1, "2", "-3,2,-1", ("--from", "-3", "--to", "6"), 3),
    (1, "2", "-2,2,-1", ("--from", "-8", "--to", "2"), -5),
    (2, "1", "-2,1,1,1,2", ("--from", "-3", "--to", "14"), 9),
    (2, "1", "-2,1,1,1,2", ("--from", "-6", "--to", "11"), -1),
])
def test_gen_zero_pivot_on_the_decimal_route_names_its_index(run, laurent_route, k, a, init, window, pivot):
    # x_pivot = 0 divides the recurrence's step to --from when pivot < 0, else to --to
    code, out, err = run("gen", "--k", str(k), "--a", a, f"--init={init}", *window)
    spec = engine.RecurrenceSpec.numeric(k, int(a), [int(v) for v in init.split(",")])
    lo, hi = int(window[1]), int(window[3])
    assert (code, err) == (0, "") and f"\n{pivot},0\n" in out
    assert engine.parse_sequence(out) == list(zip(range(lo, hi + 1), laurent_route(spec, lo, hi)))


@pytest.mark.parametrize("init,n", [("1,1,1", n) for n in (-30, 6, 40)]
                         + [("1,2,3", n) for n in (-30, 6, 40)],  # quotients, K = 32/3
                         ids=["-30", "6", "40", "quotient--30", "quotient-6", "quotient-40"])
def test_gen_corrupted_decimal_value_exits_1_and_prints_nothing(run, corrupt_decimal_at, init, n):
    argv = ["gen", "--k", "1", "--init", init, "--from", "-30", "--to", "40"]
    corrupt_decimal_at(n)
    args = cli.build_parser().parse_args(argv)
    with pytest.raises(ResidueMismatchError) as exc:
        cli.cmd_gen(args)
    assert exc.value.n == n
    code, out, err = run(*argv)
    assert (code, out) == (1, "")
    assert err == (f"error: x_{n} of the decimal route differs from the linear relation "
                   f"modulo {engine.GUARD_PRIME}\n")


def test_gen_refuses_past_the_size_budget(run):
    # t = 13/2: the window [0, 10**6] estimates 1.5 * 10**12 bits of iterates
    code, out, err = run("gen", "--k", "1", "--init", "1,1,1", "--to", "1000000")
    assert code == 2 and out == "" and "budget" in err


def test_gen_budget_sums_the_quotients_in_closed_form():
    for lo, hi, m in [(-7, 9, 2), (0, 5, 4), (-13, 0, 6), (-1, 1, 2), (0, 0, 2)]:
        assert cli._quotient_sum(lo, hi, m) == sum(abs(n // m) for n in range(lo, hi + 1))


def test_gen_accepts_the_largest_documented_window(run):
    # k = 1, all-ones seed, to n = 16000: 3.8 * 10**8 bits, under the budget;
    # detect --gen builds the same window without rendering 16001 values
    assert cli._quotient_sum(0, 16000, 2) * 6 == 384_000_000 <= cli.GEN_BIT_BUDGET
    code, out, err = run("detect", "--gen", "--k", "1", "--init", "1,1,1", "--to", "16000",
                         "--max-order", "1")
    assert (code, err) == (0, "") and json.loads(out) == {"order": None, "charpoly": None}


def test_gen_bfile_non_integer_exits_3(run):
    code, _, err = run("gen", "--k", "1", "--a", "1", "--init", "1,2,3",
                       "--to", "6", "--format", "bfile")
    assert code == 3


def test_gen_bfile_checks_every_value_before_the_first_piece(run, monkeypatch):
    # the one non-integer value is the last of 5,001 rows
    rows = [(n, Fraction(n)) for n in range(5000)] + [(5000, Fraction(1, 2))]
    monkeypatch.setattr(cli, "_generated_rows", lambda args, printed=False: rows)
    code, out, err = run("gen", "--k", "1", "--init", "1,1,1", "--to", "5000", "--format", "bfile")
    assert (code, out) == (3, "") and "n=5000" in err


def _one_piece(rows, form: str) -> str:
    """The whole text rendered at once, with json.dumps for JSON."""
    if form == "json":
        return json.dumps([{"n": n, "value": format_rational(v)} for n, v in rows]) + "\n"
    sep = "," if form == "csv" else " "
    lines = [f"{n}{sep}{format_rational(v)}" for n, v in rows]
    return "\n".join((["n,value"] if form == "csv" else []) + lines) + "\n"


# the Decimal route over 6,001 rows of integers, over 4,201 rows whose
# values are no integers and so have no b-file, and over 601 rows of a
# rational a and seed
@pytest.mark.parametrize("k,a,init,lo,hi,form", [
    *((3, 1, "1,1,1,1,1,1,1", -3000, 3000, form) for form in ("csv", "json", "bfile")),
    *((2, 1, "2,-3,5,7,1", -2100, 2100, form) for form in ("csv", "json")),
    *((2, "3/2", "2,-3/4,4/5,-5,6/7", -200, 400, form) for form in ("csv", "json")),
])
def test_gen_writes_the_one_piece_text_in_pieces(run, k, a, init, lo, hi, form):
    code, out, err = run("gen", "--k", str(k), f"--a={a}", f"--init={init}",
                         f"--from={lo}", f"--to={hi}", "--format", form)
    spec = engine.RecurrenceSpec.numeric(k, Fraction(a), [Fraction(v) for v in init.split(",")])
    rows = engine.window_rows(spec.window().extend(lo, hi))
    assert (code, err) == (0, "")
    same = out == _one_piece(rows, form)  # a bool: pytest's diff of megabytes takes minutes
    assert same
    # the head, then one string per row holding that row's text alone, then
    # for JSON the closing bracket
    pieces = list(engine.render_pieces(rows, form))
    head, tail = {"csv": ("n,value\n", []), "json": ("[", ["]\n"]), "bfile": ("", [])}[form]
    assert pieces[0] == head and pieces[len(rows) + 1:] == tail
    sep = "," if form == "csv" else " "
    for i, ((n, v), piece) in enumerate(zip(rows, pieces[1:len(rows) + 1])):
        text = format_rational(v)
        if form == "json":
            assert piece == (", " if i else "") + json.dumps({"n": n, "value": text})
        else:
            assert piece == f"{n}{sep}{text}\n"


def test_gen_bfile_rows_satisfy_the_defining_recurrence(run):
    # an oracle in plain ints that shares no code with the Decimal route or the
    # Fraction window: every row of a two-sided b-file, values up to 1,072
    # digits, solves x_{n+2k+1} x_n = x_{n+2k} x_{n+1} + a (x_{n+k} + x_{n+k+1})
    k, a, lo, hi = 2, 1, -1500, 3000
    code, out, err = run("gen", "--k", str(k), "--init", "1,1,1,1,1",
                         f"--from={lo}", f"--to={hi}", "--format", "bfile")
    assert (code, err) == (0, "")
    rows = [line.split() for line in out.splitlines()]
    assert [int(n) for n, _ in rows] == list(range(lo, hi + 1))
    x = [int(v) for _, v in rows]
    assert x[-lo:-lo + 2 * k + 1] == [1] * (2 * k + 1)
    bad = [i + lo for i in range(len(x) - 2 * k - 1)
           if x[i + 2 * k + 1] * x[i] != x[i + 2 * k] * x[i + 1] + a * (x[i + k] + x[i + k + 1])]
    assert bad == []


# (k, a, init, --from, --to) whose printed window holds Fractions, reduced
# Decimal quotients whose residue check falls back from the guard prime,
# which divides a denominator, or quotients past the 4,300-digit int-to-str
# limit
JSON_WINDOWS = {
    "inside-the-6k-block": (3, "3/2", "1/2,-4/3,5,2/7,3,-5/6,2", -2, 12),
    "guard-prime-fallback": (1, "1", f"{engine.GUARD_PRIME},1,1", -10, 20),
    "past-digit-limit": (1, "1000000/7", "1,1,1", -720, 720),
}


@pytest.mark.parametrize("case", JSON_WINDOWS)
def test_gen_json_is_the_json_dumps_text(run, case):
    k, a, init, lo, hi = JSON_WINDOWS[case]
    code, out, err = run("gen", "--k", str(k), f"--a={a}", f"--init={init}",
                         f"--from={lo}", f"--to={hi}", "--format", "json")
    spec = engine.RecurrenceSpec.numeric(k, Fraction(a), [Fraction(v) for v in init.split(",")])
    printed = engine.export_window(spec, lo, hi)
    if case == "past-digit-limit":
        assert type(printed[hi]) is engine._Quotient and len(str(printed[hi])) > 4300
    elif case == "guard-prime-fallback":
        fractions = spec.window().extend(lo, hi).values
        assert all(type(v) in (Decimal, engine._Quotient) for v in printed.values)
        assert ([tuple(map(int, engine._parts(v))) for v in printed.values]
                == [(v.numerator, v.denominator) for v in fractions])
    else:
        assert all(type(v) is Fraction for v in printed.values)
    assert (code, err) == (0, "")
    same = out == _one_piece(engine.window_rows(spec.window().extend(lo, hi)), "json")
    assert same


# command lines that argparse answers itself, each with an exit code and a
# usage, help or error text
ARGV_CORPUS = {
    "no-arguments": [],
    "help": ["--help"],
    **{f"{name}-help": [name, "--help"] for name in ("gen", "invariant", "verify",
                                                      "closed-form", "detect")},
    "missing-required": ["gen", "--k", "1"],
    "bad-format": ["gen", "--k", "1", "--to", "3", "--format", "xml"],
    "eval-and-coeffs": ["closed-form", "--k", "1", "--init", "1,1,1", "--eval", "3", "--coeffs"],
    "unknown-subcommand": ["bogus", "--k", "1"],
    "unrecognized-argument": ["invariant", "--k", "1", "--bogus"],
}


@pytest.mark.parametrize("case", ARGV_CORPUS)
def test_one_subcommand_parser_answers_as_the_full_parser(capsys, monkeypatch, case):
    argv = ARGV_CORPUS[case]
    built = []
    build_parser = cli.build_parser

    def answer(command_of):
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command)
                            or build_parser(command_of(command)))
        with pytest.raises(SystemExit) as stop:
            main(list(argv))
        return (stop.value.code, *capsys.readouterr())

    fast = answer(lambda command: command)
    full = case in ("no-arguments", "help", "unknown-subcommand")
    assert built == [None if full else argv[0]]
    assert fast == answer(lambda command: None)


# -- invariant ----------------------------------------------------------------------

def test_invariant_ones(run):
    code, out, _ = run("invariant", "--k", "1", "--a", "1", "--init", "1,1,1")
    data = json.loads(out)
    assert code == 0 and data["K"] == "14"


def test_invariant_all_routes_agree(run):
    code, out, _ = run("invariant", "--k", "1", "--a", "1", "--init", "1,2,3", "--all-routes")
    data = json.loads(out)
    assert code == 0 and data["agreement"] is True
    assert data["routes"]["ratio"]["value"] == "32/3"
    assert data["routes"]["cramer"] == ["32/3", "32/3"]
    assert data["routes"]["monodromy"] == ["32/3", "32/3"]


def test_invariant_all_routes_uses_shifted_ratio_on_ones(run):
    code, out, _ = run("invariant", "--k", "1", "--a", "1", "--init", "1,1,1", "--all-routes")
    data = json.loads(out)
    assert code == 0 and data["routes"]["ratio"] == {"value": "14", "form": "shifted"}


def test_invariant_symbolic(run):
    code, out, _ = run("invariant", "--k", "1", "--symbolic")
    data = json.loads(out)
    assert code == 0
    assert data["P0"] == "x0*x2^-1 + 1 + x0^-1*x2"
    assert "a^2" in data["K"] and "a" not in data["P2"]


@pytest.mark.parametrize("k", ["0", "-1"])
def test_invariant_symbolic_k_below_1_exits_2(run, k):
    code, out, err = run("invariant", f"--k={k}", "--symbolic")
    assert code == 2 and err.startswith("error: ") and out == ""


@pytest.mark.parametrize("flag", [("--init", "1,1,1"), ("--a", "5"), ("--a", "1")])
def test_invariant_symbolic_refuses_numeric_data(run, flag):
    # the generic breakdown keeps the seed and a as variables: a value for
    # either is refused, not silently ignored
    code, out, err = run("invariant", "--k", "1", "--symbolic", *flag)
    assert (code, out) == (2, "") and f"drop {flag[0]}" in err


def test_invariant_numeric_a_defaults_to_1(run):
    code, out, _ = run("invariant", "--k", "1", "--init", "1,1,1")
    assert code == 0 and out == run("invariant", "--k", "1", "--a", "1", "--init", "1,1,1")[1]
    assert json.loads(out)["a"] == "1"


def test_invariant_zero_init_exits_3(run):
    code, _, err = run("invariant", "--k", "1", "--a", "1", "--init", "1,0,1")
    assert code == 3


# -- verify -------------------------------------------------------------------------

def test_verify_numeric_pass(run):
    code, out, _ = run("verify", "--k", "2", "--trials", "3", "--seed", "1", "--checks", "all")
    assert code == 0 and "0 fail" in out


def test_verify_symbolic_subset(run):
    code, out, _ = run("verify", "--k", "1", "--symbolic", "--trials", "1",
                       "--checks", "laurent,explicit,first-integral")
    assert code == 0 and "0 fail" in out


def test_verify_fault_injection_fails_with_witness(run):
    code, out, _ = run("verify", "--k", "1", "--trials", "1", "--seed", "7",
                       "--checks", "linear_relation", "--inject-fault", "linear_relation")
    assert code == 1 and '"n"' in out


# fault injection raises x_{2k+1}; these checks never read it and are refused
# (the symbolic k_ratio reads x_{3k}, which is x_{2k+1} at k = 1 only)
FAULT_BLIND = {
    False: lambda k: {"k_ratio", "reversibility", "operator_identity"},
    True: lambda k: {"first_integral", "proof_identities", "reversal_covariance",
                     "p_from_iterates"} | ({"k_ratio"} if k > 1 else set()),
}


@pytest.mark.parametrize("symbolic,target", [(False, cid) for cid in NUMERIC_CHECKS]
                         + [(True, cid) for cid in SYMBOLIC_CHECKS])
def test_every_injected_fault_fails_its_target_only_or_is_refused(run, tmp_path, symbolic, target):
    path = tmp_path / "report.json"
    code, _, err = run("verify", "--k", "1", "--trials", "1", "--checks", "all",
                       "--inject-fault", target, "--json", str(path),
                       *(["--symbolic"] if symbolic else []))
    if target in FAULT_BLIND[symbolic](1):
        assert code == 2 and "negative control" in err and not path.exists()
        return
    results = json.loads(path.read_text())["results"]
    assert code == 1
    assert {r["check"] for r in results if r["status"] == "fail"} == {target}
    assert all(r["status"] == "pass" for r in results if r["check"] != target)


@pytest.mark.parametrize("k", [2, 3])
def test_symbolic_k_ratio_fault_is_refused_past_k_1(run, k):
    code, out, err = run("verify", "--k", str(k), "--symbolic", "--max-symbolic-k", "3",
                         "--trials", "1", "--checks", "k_ratio", "--inject-fault", "k_ratio")
    assert (code, out) == (2, "") and "never reads the corrupted iterate x_{2k+1}" in err


@pytest.mark.parametrize("argv", [
    ("--checks", "k_ratio", "--inject-fault", "wronskian4"),   # target not requested
    ("--checks", "all", "--inject-fault", "no_such_check"),
], ids=["unrequested-target", "unknown-target"])
def test_verify_misuse_exits_2(run, argv):
    code, out, err = run("verify", "--k", "1", "--trials", "1", *argv)
    assert code == 2 and err.startswith("error: ") and out == ""


def test_verify_json_report(run, tmp_path):
    path = tmp_path / "report.json"
    path.write_text("an older, longer report\n" * 1000)  # replaced, not appended to
    # /dev/null is seekable but refuses truncate
    for target in (str(path), os.devnull):
        code, _, _ = run("verify", "--k", "1", "--trials", "2", "--seed", "3",
                         "--checks", "k_ratio,detect", "--json", target)
        assert code == 0, target
    data = json.loads(path.read_text())
    assert data["summary"]["fail"] == 0 and data["summary"]["total"] == 4


# SHA-256 of the numeric `verify --checks all --json` report with every
# "elapsed" field cut out, taken while the numeric sweeps still subtracted
# Fractions: integer zero tests must leave every byte as it was
REPORT_DIGESTS = {
    (1, 8, 41): "152c51885386338ed99a583f8f7182a176e6dd500669976cbf0b66832e8672b6",
    (2, 4, 42): "f07e3e70863f909a9945d37c2bd000be7a7fc5aceca41a8cfdc63b5346af460a",
    (3, 3, 43): "dd5a75edd5b4acb546ea22dd7249f4736aed5e6dcb46f886472159fe62d92cfc",
}


@pytest.mark.parametrize("k,trials,seed", REPORT_DIGESTS)
def test_verify_report_bytes_pinned(run, tmp_path, k, trials, seed):
    path = tmp_path / "report.json"
    code, _, _ = run("verify", "--k", str(k), "--trials", str(trials), "--seed", str(seed),
                     "--checks", "all", "--json", str(path))
    data = path.read_bytes()
    stripped = re.sub(rb',\n *"elapsed": [^\n]*', b"", data)
    assert code == 0 and data.count(b'"elapsed"') == len(json.loads(data)["results"])
    assert hashlib.sha256(stripped).hexdigest() == REPORT_DIGESTS[k, trials, seed]


# SHA-256 of `verify --checks T --inject-fault T --json` with every "elapsed"
# field cut out, for the Wronskian-family and inhom controls, taken while these
# checks compared Fractions: their witnesses must keep every byte
FAULT_REPORT_DIGESTS = {
    (1, "delta_invariance"): "4f096b36e36ae911ceb8e8c95229ce4eca785614d6605cacb7705eb2075a6293",
    (1, "wronskian4"): "306e70138508a05ebd473c7aafed80d161b47aad6a2dd850f01a85f574320a63",
    (1, "k_cramer"): "7622694e5b888945b30170763543418ad79748b9229f0c20c1b3828260269116",
    (1, "k_monodromy"): "a10d9e9ccd8a045d227ce5a3cccf061b37242c01b12ca20093842f25bab43d0f",
    (1, "abg_relation"): "650fff89ed554c5044b200eb4becdf214ee2aef09b6a7156215928e3d0a5c96a",
    (1, "inhom"): "42a144bbd54a3224e2107b2d4703d2361d92e4e23dc81ac220cf9c7620cecc65",
    (2, "delta_invariance"): "2fd6c19b4706dd2f372c2f5e900facdbb63ce2902306cbd9fd0124fbe10209a1",
    (2, "wronskian4"): "58a34c29cd925a59a20910a593a55d79febf314523b366090b5bc00afb2e712c",
    (2, "k_cramer"): "d9fa2bfe255097a783ec7c4a61c45c75ec4360b3e8a415a937562667ec11de13",
    (2, "k_monodromy"): "23220db90f3448907b7308ca3f1d817d4a92fbcc106359cb6bf7e38e6af146d4",
    (2, "abg_relation"): "f01d6bec38d7e30a403779f48b5b574ad8ab76a0239a393ca24b9af038259b56",
    (2, "inhom"): "f6e7f215afd4a9a049fbfbce6a2737b4d8ea77ddfffbc1bf91c09076a96cba67",
    (3, "delta_invariance"): "9d2faf0094075af41544974f0d7e7f47b54635e0fde5896ce9757d5618d0ba92",
    (3, "wronskian4"): "64a392dad4d9467228c495256017bcdf2209a87f5d89c1a0815b96327e8ae651",
    (3, "k_cramer"): "0d5465ec630a34115f9d8e7f70673478a1090daf126c0cc660cc5972cb062612",
    (3, "k_monodromy"): "a03fd1ab3c45a15c04c30eb7f5c4a5d0d43602a35a498c54b0e273542c724788",
    (3, "abg_relation"): "3c999855b856531f276582bb9e7f42fa6f07d6eac5c97ca6a68525b16f1cc885",
    (3, "inhom"): "159446beebb1b5ea75d546164d2ad7de0566a3111f5a34504cf6f17914a2554a",
}


@pytest.mark.parametrize("k,target", FAULT_REPORT_DIGESTS)
def test_fault_report_bytes_pinned(run, tmp_path, k, target):
    path = tmp_path / "report.json"
    code, _, _ = run("verify", "--k", str(k), "--trials", "3", "--seed", "7",
                     "--checks", target, "--inject-fault", target, "--json", str(path))
    data = path.read_bytes()
    stripped = re.sub(rb',\n *"elapsed": [^\n]*', b"", data)
    assert code == 1 and json.loads(data)["summary"]["fail"] == 3
    assert hashlib.sha256(stripped).hexdigest() == FAULT_REPORT_DIGESTS[k, target]


# SHA-256 of `invariant --all-routes` stdout on each EVAL_GRID seed, taken while
# the Cramer and monodromy routes divided Fraction determinants
ALL_ROUTES_DIGESTS = {
    "k1-unit": "55a8e611e2c92336cafe83d812b06ca74ccae5bb3e3733af00ddd550b394e5f2",
    "k1-integer": "cf543e08588ca059ad06231d65fede5522f00dd0d4310858174c3b1dd8c05c0d",
    "k1-rational": "503768dc23b45d668452a5fb9f7ae1e95e3b2a7fd86e978e50208110cc6f2cc6",
    "k1-t-minus-one": "0016b1535cea52abf33bc80bde9b877de0599bff4a34d6d44352875676305c4a",
    "k2-unit": "8b96d333e07120155b672067d6546252700020365b640e950beeb3ff709c3493",
    "k2-integer": "26c42bdd2e3157e20214b7d2f50482f638eac610a61b15385754574f780c098a",
    "k2-rational": "c6612c79bf1b841ed68cb01cc53bb0538a8f6642b9883c21906453c6253a80dc",
    "k3-unit": "40b1bbcd0277817b1c7e36e53aadc90b5f6b27a75c4d428f8ac6842e1dd001a2",
    "k3-integer": "262a2dd1aa9db4c8429f02b54d71bace94d3084637ae10287842e29a6d657d29",
    "k3-rational": "3ee0e1433f2f485ff1be1d5ca2063832e256556f404bce056e712d17b8a4569e",
}


@pytest.mark.parametrize("case", EVAL_GRID)
def test_all_routes_bytes_pinned(run, case):
    k, a, init = EVAL_GRID[case]
    code, out, err = run("invariant", "--k", str(k), f"--a={a}", f"--init={init}", "--all-routes")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ALL_ROUTES_DIGESTS[case]


def test_verify_json_report_to_a_pipe(run, tmp_path):
    fifo = tmp_path / "report"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    code, _, _ = run("verify", "--k", "1", "--trials", "1", "--checks", "k_ratio",
                     "--json", str(fifo))
    reader.join(timeout=60)
    assert not reader.is_alive() and code == 0
    summary = json.loads(received[0])["summary"]
    assert (summary["pass"], summary["total"]) == (1, 1)


def test_verify_json_unwritable_path_exits_2(run, tmp_path):
    code, out, err = run("verify", "--k", "1", "--trials", "1", "--checks", "k_ratio",
                         "--json", str(tmp_path))
    assert code == 2 and err.startswith("error: ") and str(tmp_path) in err
    assert out == ""  # refused before the campaign runs


def test_verify_symbolic_cap(run):
    code, _, err = run("verify", "--k", "3", "--symbolic", "--trials", "1")
    assert code == 2 and "capped" in err
    code, out, _ = run("verify", "--k", "3", "--symbolic", "--trials", "1",
                       "--checks", "first_integral", "--max-symbolic-k", "3")
    assert code == 0


def test_verify_unknown_check(run):
    code, _, err = run("verify", "--k", "1", "--checks", "bogus")
    assert code == 2


# -- closed-form ----------------------------------------------------------------------

def test_closed_form_coeffs_golden(run):
    code, out, _ = run("closed-form", "--k", "1", "--a", "1", "--init", "1,1,1", "--coeffs")
    data = json.loads(out)
    assert code == 0
    assert data["triples"][0] == {"j": 0, "q": "5/11", "r": "144/143", "s": "-6/13"}


def test_closed_form_eval(run):
    code, out, _ = run("closed-form", "--k", "1", "--a", "1", "--init", "1,1,1", "--eval", "4")
    assert code == 0 and json.loads(out) == {"n": 4, "value": "7"}


def test_closed_form_degenerate_exits_3(run):
    # a = -8/3 with the all-ones seed gives K = 3, i.e. t = 1
    code, _, err = run("closed-form", "--k", "1", "--a=-8/3", "--init", "1,1,1", "--coeffs")
    assert code == 3


def test_closed_form_eval_refuses_past_the_size_budget(run):
    # t = 29/6: m = 5 * 10**6 estimates 4 * 10**7 bits of Chebyshev powers
    code, out, err = run("closed-form", "--k", "1", "--init", "1,2,3", "--eval", "10000000")
    assert code == 2 and out == "" and "budget" in err


def test_closed_form_eval_within_the_size_budget(run):
    code, out, _ = run("closed-form", "--k", "1", "--init", "1,2,3", "--eval", "100000")
    assert code == 0 and json.loads(out)["n"] == 100000


# (k, a, init, n): single requests past the grid; the guard prime divides a
# denominator of the "guard-prime-fallback" seed, so its check takes another modulus
EVAL_CASES = {
    "zero": (1, "-4", "2,-1,-1", -5),                                # x_-5 = 0
    "guard-prime-fallback": (1, "1", f"{engine.GUARD_PRIME},1,1", 7),
    "guard-prime-fallback-negative": (1, "1", f"{engine.GUARD_PRIME},1,1", -9),
    "digit-limit-k1": (1, "1", "1,2,3", 10000),
    "digit-limit-k2": (2, "1", "1,2,3,4,5", 10000),
}


def _eval_text(n, value):
    """The line json.dumps gives for x_n = value, with the int-to-str digit
    limit lifted for this comparison alone."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps({"n": n, "value": format_rational(value)}) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("case", EVAL_GRID)
def test_closed_form_eval_prints_the_fraction_value(run, case):
    k, a, init = EVAL_GRID[case]
    spec, _ = seed_coeffs(k, a, init)
    if case == "k1-t-minus-one":
        assert spec.K == -1
    w = spec.window().extend(-200, 200)
    for n in range(-200, 201):
        code, out, err = run("closed-form", "--k", str(k), f"--a={a}", f"--init={init}", "--eval", str(n))
        assert (code, out, err) == (0, _eval_text(n, w[n]), ""), n


@pytest.mark.parametrize("case", EVAL_CASES)
def test_closed_form_eval_single_requests_print_the_fraction_value(run, case):
    """Each value against q + r T_m + s U_m, T and U from the matrix power."""
    k, a, init, n = EVAL_CASES[case]
    _, c = seed_coeffs(k, a, init)
    j, m = n % (2 * k), n // (2 * k)
    T, U = chebyshev_by_matrix_power(c.t, m)
    code, out, err = run("closed-form", "--k", str(k), f"--a={a}", "--init", init, "--eval", str(n))
    assert (code, out, err) == (0, _eval_text(n, c.q[j] + c.r[j] * T + c.s[j] * U), "")
    if case == "zero":  # never 0/s or -0
        assert out == '{"n": -5, "value": "0"}\n'


EVAL_AT_SIZE = [("1,2,3", 262000, "59583800849bb6bb40fc9686ac4a3a61"),
                ("1,2,3", -262001, "cfc09abb78815a9e9f42016540c8de44"),
                # the guard prime divides a denominator: 186 bits of t per m
                (f"{engine.GUARD_PRIME},1,1", 45096, "0d84f21f3c06408988c8d076a0939d88")]


@pytest.mark.parametrize("init,n,md5", EVAL_AT_SIZE, ids=[f"{n}-{md5}" for _, n, md5 in EVAL_AT_SIZE])
def test_closed_form_eval_at_size_keeps_its_bytes(run, init, n, md5):
    code, out, _ = run("closed-form", "--k", "1", "--init", init, "--eval", str(n))
    assert code == 0 and hashlib.md5(out.encode()).hexdigest() == md5


@pytest.mark.parametrize("init,n,modulus", [
    *(("1,1,1", n, engine.GUARD_PRIME) for n in (-30, 6, 40)),
    *(("1,2,3", n, engine.GUARD_PRIME) for n in (-30, 6, 40)),  # quotients, K = 32/3
    # quotients whose denominators the guard prime divides: the first odd
    # number below it that is coprime to them and passes the base-2 test
    *((f"{engine.GUARD_PRIME},1,1", n, engine.GUARD_PRIME - 30) for n in (-30, 6, 40)),
], ids=["-30", "6", "40", "quotient--30", "quotient-6", "quotient-40",
        "guard-prime--30", "guard-prime-6", "guard-prime-40"])
def test_closed_form_corrupted_decimal_value_exits_1_and_prints_nothing(run, monkeypatch, init, n,
                                                                        modulus):
    value = cf._decimal_value
    kind = Decimal if init == "1,1,1" else engine._Quotient

    def corrupted(c, m):
        v = value(c, m)
        assert type(v) is kind
        with localcontext(engine._EXACT):
            return v + 1 if kind is Decimal else replace(v, numerator=v.numerator + 1)

    monkeypatch.setattr(cf, "_decimal_value", corrupted)
    argv = ["closed-form", "--k", "1", "--init", init, "--eval", str(n)]
    with pytest.raises(ResidueMismatchError) as exc:
        cli.cmd_closed_form(cli.build_parser().parse_args(argv))
    assert (exc.value.n, exc.value.modulus) == (n, modulus)
    code, out, err = run(*argv)
    assert (code, out) == (1, "")
    assert err == f"error: x_{n} of the decimal route differs from the linear relation modulo {modulus}\n"


def test_closed_form_requires_mode_flag(run):
    with pytest.raises(SystemExit) as exc:
        run("closed-form", "--k", "1", "--a", "1", "--init", "1,1,1")
    assert exc.value.code == 2


# -- detect -----------------------------------------------------------------------------

def test_detect_generated_golden(run):
    code, out, _ = run("detect", "--gen", "--k", "1", "--a", "1", "--init", "1,1,1",
                       "--to", "19", "--max-order", "6")
    data = json.loads(out)
    assert code == 0
    assert data == {"order": 6, "charpoly": ["1", "0", "-14", "0", "14", "0", "-1"]}


def test_detect_round_trip_from_gen_json(run, tmp_path):
    code, out, _ = run("gen", "--k", "1", "--a", "1", "--init", "1,1,1",
                       "--to", "19", "--format", "json")
    assert code == 0
    path = tmp_path / "seq.json"
    path.write_text(out)
    code, out2, _ = run("detect", "--input", str(path), "--max-order", "6")
    assert code == 0 and json.loads(out2)["order"] == 6


def test_detect_constant_input(run, tmp_path):
    path = tmp_path / "seq.bfile"
    path.write_text("\n".join(f"{i} 5" for i in range(12)) + "\n")
    code, out, _ = run("detect", "--input", str(path), "--max-order", "3")
    assert code == 0 and json.loads(out)["charpoly"] == ["1", "-1"]


def test_detect_zero_denominator_exits_2(run, tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("0,1\n1,1/0\n")
    code, _, err = run("detect", "--input", str(path), "--max-order", "1")
    assert code == 2 and "zero denominator" in err


def test_detect_too_short_exits_2(run, tmp_path):
    path = tmp_path / "short.bfile"
    path.write_text("0 1\n1 2\n2 3\n")
    code, _, err = run("detect", "--input", str(path), "--max-order", "4")
    assert code == 2


# four items, enough for --max-order 1, so only the malformed item can refuse them
@pytest.mark.parametrize("bad, message", [
    (7, '"n" and "value"'),
    ({"x": 1, "value": "1"}, '"n" and "value"'),
    ({"n": 3}, '"n" and "value"'),
    ({"n": 3.5, "value": "1"}, "must be an integer, got 3.5"),
    ({"n": True, "value": "1"}, "must be an integer, got true"),
], ids=["non-object", "missing-n", "missing-value", "float-n", "bool-n"])
def test_detect_malformed_json_item_exits_2(run, tmp_path, bad, message):
    items = [{"n": n, "value": "1"} for n in range(3)] + [bad]
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(items))
    code, out, err = run("detect", "--input", str(path), "--max-order", "1")
    assert (code, out) == (2, "") and err.startswith("error: ") and message in err


@pytest.mark.parametrize("max_order", ["0", "-3"])
def test_detect_max_order_below_1_exits_2(run, max_order):
    code, out, err = run("detect", "--gen", "--k", "1", "--init", "1,1,1", "--to", "19",
                         "--max-order", max_order)
    assert code == 2 and out == "" and err == "error: max_order must be >= 1\n"


def test_detect_reads_gen_output_past_the_digit_limit(run, tmp_path):
    # a = 10^400 makes x_19 about 6,800 digits long, past the 4,300-digit limit
    spec = ("--k", "1", "--a", "1" + "0" * 400, "--init", "1,1,1", "--to", "19")
    code, out, _ = run("gen", *spec, "--format", "csv")
    assert code == 0 and max(len(line) for line in out.splitlines()) > 4400
    path = tmp_path / "big.csv"
    path.write_text(out)
    code, from_file, _ = run("detect", "--input", str(path), "--max-order", "6")
    assert code == 0 and json.loads(from_file)["order"] == 6
    assert (code, from_file) == run("detect", "--gen", *spec, "--max-order", "6")[:2]


def test_detect_gen_agrees_with_detect_on_the_printed_integer_window(run, tmp_path):
    # [-20, 60] leaves the start block [0, 11], so gen prints it through the Decimal route
    spec = ("--k", "2", "--init", "1,1,1,1,1", "--from", "-20", "--to", "60")
    code, out, _ = run("gen", *spec, "--format", "bfile")
    path = tmp_path / "seq.bfile"
    path.write_text(out)
    from_file = run("detect", "--input", str(path), "--max-order", "12")
    assert code == 0 and from_file[0] == 0
    assert from_file == run("detect", "--gen", *spec, "--max-order", "12")


def test_detect_requires_a_source(run):
    code, _, err = run("detect", "--max-order", "4")
    assert code == 2


def test_gen_invalid_k_exits_2(run):
    code, _, err = run("gen", "--k", "0", "--a", "1", "--init", "1", "--to", "3")
    assert code == 2 and "k must be >= 1" in err
    # a negative k is refused as such, not as a count of --init values
    for command in (("gen", "--to", "3"), ("invariant",), ("closed-form", "--coeffs"),
                    ("detect", "--gen", "--to", "3", "--max-order", "4")):
        code, _, err = run(*command, "--k", "-1", "--init", "1")
        assert code == 2 and "k must be >= 1" in err, command
    # RecurrenceSpec's own texts: a seed of the wrong length, and a symbolic k < 1
    for argv, text in ((("gen", "--k", "1", "--init", "1,2", "--to", "3"),
                        "error: need 2k+1 = 3 initial values, got 2\n"),
                       (("invariant", "--symbolic", "--k", "0"), "error: k must be >= 1\n")):
        assert run(*argv)[::2] == (2, text), argv


def test_gen_into_a_reader_that_closes_early_exits_141():
    # about 2.5 MB of csv, far more than a pipe buffer holds
    src = os.path.dirname(os.path.dirname(cli.__file__))
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; from hhrec.cli import main; sys.exit(main())",
         "gen", "--k", "1", "--init", "1,1,1", "--to", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
    assert child.stdout.read(100).startswith(b"n,value\n0,1\n1,1\n2,1\n3,")
    child.stdout.close()
    err = child.stderr.read()
    assert (child.wait(timeout=60), err) == (141, b"")


def test_gen_from_after_to_exits_2(run):
    code, _, err = run("gen", "--k", "1", "--a", "1", "--init", "1,1,1",
                       "--from", "5", "--to", "2")
    assert code == 2


def test_gen_zero_coefficient_exits_2(run):
    code, _, err = run("gen", "--k", "1", "--a", "0", "--init", "1,1,1", "--to", "5")
    assert code == 2


def test_init_tolerates_spaces(run):
    code, out, _ = run("invariant", "--k", "1", "--a", "1", "--init", "1, 2, 3")
    assert code == 0 and json.loads(out)["K"] == "32/3"
