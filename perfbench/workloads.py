"""The benchmark's workloads: operations, inputs drawn from the seed, checks.

An operation is either an ``hhrec`` command line, run through
``hhrec.cli.main`` in this process, or a library call the command line does
not reach.  Inputs come from ``random.Random`` seeded with the workload name
and the benchmark seed; draws that would hit a degeneracy (a zero iterate, a
vanishing ratio denominator or Wronskian) are rejected by the oracle before
anything is timed, so no operation fails on one seed and passes on another.
Every check runs outside the timed section and compares against
``oracle.py``, never against stored output.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

# Python refuses int <-> str conversions beyond this many digits by default
DIGIT_LIMIT = 4300
LIMIT_BITS = int(DIGIT_LIMIT * math.log2(10))
# a prime far above every numerator and denominator the draws produce
PRIME = (1 << 61) - 1

WORKLOADS = ("sequence", "campaign_numeric", "campaign_symbolic")

NUMERIC_CHECK_IDS = (
    "xi_zero", "linear_relation", "k_ratio", "k_cramer", "k_monodromy",
    "delta_invariance", "wronskian4", "abg_relation", "explicit_iterates", "inhom",
    "closed_form", "detect", "first_integral", "reversibility", "sigma_roundtrip",
    "operator_identity")
SYMBOLIC_CHECK_IDS = (
    "laurent", "explicit", "first_integral", "k_ratio", "proof_identities",
    "reversal_covariance", "p_from_iterates")


@dataclass
class Outcome:
    rc: int | None          # exit code, None when an exception escaped
    out: str                # captured standard output
    exc: BaseException | None = None
    value: object = None    # a library call's result


@dataclass
class Op:
    kind: str               # gen | closed_form | verify | identity | other
    label: str
    argv: list[str] | None = None
    call: Callable | None = None       # call(hhrec, state) for library operations
    check: Callable[[Outcome], str | None] | None = None
    fault: str | None = None           # the known fault this operation carries
    terms: int = 0
    trials: int = 0
    report: str | None = None          # where a verify op writes its --json report
    domain: str = "numeric"            # the arithmetic it does: numeric or symbolic


# -- drawing inputs ------------------------------------------------------------------

def _rat(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.choice([v for v in range(-bound, bound + 1) if v]), rng.randint(1, bound))


def draw_spec(rng: random.Random, family: str, k: int):
    """(a, init) of one family.

    ``unit``: init in {1, -1}, a a small nonzero integer; every iterate is an
    integer (the Laurent property), so b-files work.
    ``integer``: init integers in [1, 9], a a random rational.
    ``rational``: init and a random rationals p/q, |p|, q <= 9.
    """
    if family == "unit":
        return Fraction(rng.choice((1, -1, 2, -2, 3, -3))), [Fraction(rng.choice((1, -1)))
                                                              for _ in range(2 * k + 1)]
    if family == "integer":
        return _rat(rng, 9), [Fraction(rng.randint(1, 9)) for _ in range(2 * k + 1)]
    return _rat(rng, 9), [_rat(rng, 9) for _ in range(2 * k + 1)]


def spec_args(k: int, a, init) -> list[str]:
    return ["--k", str(k), f"--a={a}", f"--init={','.join(map(str, init))}"]


@dataclass
class Solution:
    """One drawn instance with its oracle data over [-2k, 6k+2]."""

    k: int
    a: Fraction
    init: list
    x: dict
    K: Fraction

    def at(self, n: int) -> Fraction:
        return oracle.x_at(self.k, self.K, self.x, n)

    def nonzero_mod_p(self, lo: int, hi: int) -> bool:
        """No iterate in [lo, hi] vanishes: checked by the linear relation mod a prime.

        A zero x_n is zero modulo every prime, so nonzero residues prove the
        program's divisions over that range never meet a zero pivot.
        """
        k, p = self.k, PRIME
        K = self.K.numerator * pow(self.K.denominator, -1, p) % p
        res = {n: v.numerator * pow(v.denominator, -1, p) % p
               for n, v in self.x.items() if -2 * k <= n <= 4 * k}
        for n in range(4 * k + 1, hi + 1):
            res[n] = (K * (res[n - 2 * k] - res[n - 4 * k]) + res[n - 6 * k]) % p
        for n in range(-2 * k - 1, lo - 1, -1):
            res[n] = (res[n + 6 * k] - K * (res[n + 4 * k] - res[n + 2 * k])) % p
        return all(res[n] for n in range(lo, hi + 1))


def solution(k: int, a, init) -> Solution | None:
    """Oracle data for a draw, or None when it is degenerate.

    Rejects a zero iterate in [-2k, 6k+2], a ratio with both denominators 0,
    t = (K-1)/2 in {0, 1}, and a vanishing 3x3 Wronskian at n = 0..2k (the
    Cramer and monodromy routes divide by it).
    """
    try:
        x = oracle.iterate(k, a, init, -2 * k, 6 * k + 2)
        K = oracle.k_ratio(k, x)
    except ZeroDivisionError:
        return None
    if K in (1, 3):
        return None
    for n in range(0, 2 * k + 1):
        if oracle.det([[x[n + i + 2 * k * j] for j in range(3)] for i in range(3)]) == 0:
            return None
    return Solution(k, Fraction(a), list(init), x, K)


def size_bits(v: Fraction) -> int:
    return max(v.numerator.bit_length(), v.denominator.bit_length())


def growth(sol: Solution, probe: int) -> tuple[float, float]:
    """Bits per index of the iterates' size, forward and backward."""
    return size_bits(sol.at(probe)) / probe, size_bits(sol.at(-probe)) / probe


# median growth (bits per index at n = 60k) of 60 draws of each family from
# random.Random(f"ref/{family}/{k}"), skipping bounded solutions
REFERENCE_GROWTH = {
    ("unit", 1): 1.23, ("unit", 2): 0.93, ("unit", 3): 0.56,
    ("integer", 1): 4.04, ("integer", 2): 2.77, ("integer", 3): 2.02,
    ("rational", 1): 5.13, ("rational", 2): 3.98, ("rational", 3): 3.15,
}
CANDIDATES = 12


def typical_draw(rng, family: str, k: int, window) -> tuple[Solution, float, float]:
    """Of CANDIDATES draws, the one growing closest to its family's reference rate.

    Iterates grow in size about linearly in |n|, at a rate that varies from
    draw to draw; holding it near one value per family keeps the work of an
    operation alike across benchmark seeds, and drawing a fixed number of
    candidates keeps the set-up's work alike too.  ``window(f, b)`` gives the
    range, for forward and backward rates f and b, that must be free of
    zero iterates.  Returns the draw and its rates.
    """
    ref = REFERENCE_GROWTH[family, k]
    pool = []
    while len(pool) < CANDIDATES:
        sol = solution(k, *draw_spec(rng, family, k))
        if sol is None:
            continue
        f, b = growth(sol, 60 * k)
        if min(f, b) >= 0.2 * ref:  # skip bounded solutions
            pool.append((max(abs(f / ref - 1), abs(b / ref - 1)), len(pool), sol, f, b))
    for *_, sol, f, b in sorted(pool):
        if sol.nonzero_mod_p(*window(f, b)):
            return sol, f, b
    raise ValueError(f"every {family} draw at k={k} has a zero iterate in its window")


# -- output checks ----------------------------------------------------------------------

def check_rows(sol: Solution, lo: int, hi: int, form: str):
    def check(o: Outcome) -> str | None:
        rows = oracle.parse_rows(o.out, form)
        if [n for n, _, _ in rows] != list(range(lo, hi + 1)):
            return "rows are not the contiguous range requested"
        x = {n: (p, q) for n, p, q in rows}
        k = sol.k
        if any(Fraction(*x[n]) != sol.init[n] for n in range(max(lo, 0), min(hi, 2 * k) + 1)):
            return "rows do not reproduce the seed"
        for n in range(lo, hi - 2 * k):
            if not oracle.relation_holds(k, sol.a, x, n):
                return f"defining relation fails at n={n}"
        return None
    return check


def check_value(expected: Callable[[], Fraction]):
    """The printed value must equal ``expected()``, computed when the check runs."""
    def check(o: Outcome) -> str | None:
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # the check only; ops run under the default
        try:
            got = Fraction(json.loads(o.out)["value"])
        finally:
            sys.set_int_max_str_digits(previous)
        return None if got == expected() else "closed-form value differs from the oracle"
    return check


def check_routes(sol: Solution):
    def check(o: Outcome) -> str | None:
        out = json.loads(o.out)
        if out.get("agreement") is not True:
            return "routes disagree"
        if Fraction(out["K"]) != sol.K:
            return "K differs from the oracle's ratio route"
        return None
    return check


def check_detect(sol: Solution, lo: int, hi: int):
    def check(o: Outcome) -> str | None:
        out = json.loads(o.out)
        if out["charpoly"] is None:
            return "no recurrence found"
        c = [Fraction(v) for v in out["charpoly"]]
        values = [sol.at(n) for n in range(lo, hi + 1)]
        if not oracle.annihilates(c, values):
            return "charpoly does not annihilate the sequence"
        if not oracle.poly_divides(c, oracle.target_charpoly(sol.k, sol.K)):
            return "charpoly does not divide the factored one"
        return None
    return check


def check_report(op: Op, expected_ids):
    def check(o: Outcome) -> str | None:
        with open(op.report) as fh:
            report = json.load(fh)
        ids = report["config"]["checks"]
        if not set(expected_ids) <= set(ids):
            return "report omits checks"
        s = report["summary"]
        if s["fail"] or o.rc != 0:
            return f"{s['fail']} checks failed"
        if s["pass"] + s["skipped-degenerate"] != s["total"] or s["total"] != op.trials * len(ids):
            return "pass plus skipped does not cover every trial and check"
        return None
    return check


def check_control(op: Op, target: str):
    """A negative control must end non-zero: a fail on the target, or exit 2."""
    def check(o: Outcome) -> str | None:
        if o.rc == 2:
            return None
        with open(op.report) as fh:
            results = json.load(fh)["results"]
        failed = {r["check"] for r in results if r["status"] == "fail"}
        if o.rc == 1 and failed == {target}:
            return None
        return f"exit {o.rc} with failures on {sorted(failed)}"
    return check


# -- operation builders ---------------------------------------------------------------------

class Builder:
    def __init__(self, workload: str, seed: int, outdir: str):
        self.rng = random.Random(f"{workload}/{seed}")
        self.outdir = outdir
        self.groups: list[tuple[str, list[Op]]] = []
        self.count = 0

    def add(self, *ops: Op, lane: str | None = None) -> None:
        """Add operations that must run back to back, in this order.

        ``lane`` (by default the first operation's kind) says which kind's
        share of the round the group is spread with.
        """
        self.groups.append((lane or ops[0].kind, list(ops)))
        self.count += len(ops)

    def interleave(self) -> list[Op]:
        """Spread each kind of operation evenly over the round.

        The machine's speed drifts over seconds, so a kind whose operations
        all ran in one stretch of the round would see one speed only.
        """
        lanes: dict[str, list[list[Op]]] = {}
        for lane, group in self.groups:
            lanes.setdefault(lane, []).append(group)
        placed = [((i + 0.5) / len(lane), group)
                  for lane in lanes.values() for i, group in enumerate(lane)]
        placed.sort(key=lambda p: p[0])
        return [op for _, group in placed for op in group]

    def gen(self, family: str, k: int, form: str, end_bits: int):
        """``gen`` over a two-sided window whose end iterates reach about end_bits.

        Sizes grow about linearly in |n|, so fixing the end size rather than
        the length keeps the cost per term alike across draws.
        """
        def window(f, b):
            return -int(end_bits / (2 * b)), int(end_bits / f)

        sol, f, b = typical_draw(self.rng, family, k, window)
        lo, hi = window(f, b)
        if max(size_bits(sol.at(lo)), size_bits(sol.at(hi))) > LIMIT_BITS * 0.8:
            raise ValueError(f"gen window [{lo}, {hi}] would pass the digit limit")
        argv = ["gen", *spec_args(k, sol.a, sol.init), f"--from={lo}", f"--to={hi}",
                "--format", form]
        self.add(Op("gen", f"gen k={k} {family} {form} [{lo},{hi}]", argv,
                           check=check_rows(sol, lo, hi, form), terms=hi - lo + 1))

    def closed_form(self, family: str, k: int, end_bits: int):
        """``closed-form --eval n``, n in [1000, 10000] chosen so x_n has about end_bits."""
        while True:
            sol, f, _ = typical_draw(self.rng, family, k, lambda f, b: (-2 * k, 6 * k))
            n = min(max(int(end_bits / f), 1000), 10000)
            if size_bits(sol.at(n)) < LIMIT_BITS * 0.8:
                break
        argv = ["closed-form", *spec_args(k, sol.a, sol.init), "--eval", str(n)]
        self.add(Op("closed_form", f"closed-form k={k} {family} n={n}", argv,
                           check=check_value(lambda: sol.at(n))))

    def digit_limit(self, k: int, init: list[int], n: int):
        """A fixed closed-form request whose value passes the digit limit."""
        sol = solution(k, Fraction(1), [Fraction(v) for v in init])
        argv = ["closed-form", "--k", str(k), "--init", ",".join(map(str, init)), "--eval", str(n)]
        self.add(Op("closed_form", f"closed-form k={k} init={init} n={n} (digit limit)",
                           argv, check=check_value(lambda: sol.at(n)), fault="digit-limit"))

    def routes(self, family: str, k: int):
        sol, _, _ = typical_draw(self.rng, family, k, lambda f, b: (-2 * k, 6 * k + 2))
        argv = ["invariant", *spec_args(k, sol.a, sol.init), "--all-routes"]
        self.add(Op("other", f"invariant --all-routes k={k}", argv, check=check_routes(sol)))

    def detect(self, family: str, k: int):
        lo, hi = -2 * k, 14 * k
        sol, _, _ = typical_draw(self.rng, family, k, lambda f, b: (lo, hi))
        argv = ["detect", "--gen", *spec_args(k, sol.a, sol.init), f"--from={lo}", f"--to={hi}",
                "--max-order", str(6 * k)]
        self.add(Op("other", f"detect --gen k={k}", argv, check=check_detect(sol, lo, hi)))

    def _report_path(self) -> str:
        return os.path.join(self.outdir, f"report-{self.count}.json")

    def verify(self, k: int, trials: int, symbolic: bool = False, extra=()):
        seed = self.rng.randrange(1 << 31)
        path = self._report_path()
        argv = ["verify", "--k", str(k), "--trials", str(trials), "--seed", str(seed),
                "--checks", "all", "--json", path, *(["--symbolic"] if symbolic else []), *extra]
        op = Op("verify", f"verify k={k} trials={trials}{' symbolic' if symbolic else ''}",
                argv, trials=trials, report=path, domain="symbolic" if symbolic else "numeric")
        op.check = check_report(op, SYMBOLIC_CHECK_IDS if symbolic else NUMERIC_CHECK_IDS)
        self.add(op)

    def control(self, k: int, target: str, symbolic: bool = False, honoured: bool = True):
        """A fault-injection negative control on fixed inputs (seed 0, one trial)."""
        path = self._report_path()
        argv = ["verify", "--k", str(k), "--trials", "1", "--seed", "0", "--checks", target,
                "--inject-fault", target, "--json", path, *(["--symbolic"] if symbolic else [])]
        op = Op("verify", f"verify --inject-fault {target} k={k}", argv, trials=1, report=path,
                fault=None if honoured else "negative-control",
                domain="symbolic" if symbolic else "numeric")
        op.check = check_control(op, target)
        self.add(op)

    def wronskian_sweep(self, family: str, k: int, length: int):
        """Library: 4x4 and 3x3 Wronskian determinants over a numeric window."""
        lo, hi = -length // 4, length - length // 4
        sol, _, _ = typical_draw(self.rng, family, k, lambda f, b: (lo, hi))

        def call(pkg, state):
            spec = pkg.RecurrenceSpec.numeric(k, sol.a, sol.init)
            w = spec.window().extend(lo, hi)
            return ([pkg.wronskian4_det(w, n) for n in range(lo, hi - 6 * k - 2)],
                    [pkg.delta(w, n) for n in range(lo, hi - 4 * k - 1)])

        def check(o: Outcome) -> str | None:
            w4, d3 = o.value
            if any(w4):
                return "a 4x4 Wronskian determinant is not 0"
            if any(d3[i] != d3[i + k] for i in range(len(d3) - k)):
                return "delta is not a k-invariant"
            for i in range(0, len(d3), max(1, len(d3) // 4)):
                n = lo + i
                rows = [[sol.at(n + r + 2 * k * j) for j in range(3)] for r in range(3)]
                if oracle.det(rows) != d3[i]:
                    return f"delta at n={n} differs from the oracle's determinant"
            return None

        self.add(Op("identity", f"wronskians k={k} [{lo},{hi}]", call=call, check=check))


# -- symbolic operations --------------------------------------------------------------------

def random_point(rng, k: int) -> dict:
    """A point (x0..x2k, a) where the symbolic window [-6k, 8k+2] has no zero iterate."""
    while True:
        a, init = draw_spec(rng, "rational", k)
        sol = solution(k, a, init)
        if sol is not None and sol.nonzero_mod_p(-6 * k, 8 * k + 2):
            point = {f"x{i}": v for i, v in enumerate(init)}
            point["a"] = a
            return point, sol


def sym_invariant(b: Builder, k: int):
    point, sol = random_point(b.rng, k)

    def check(o: Outcome) -> str | None:
        out = json.loads(o.out)
        if "a" in out["P0"] + out["P1"] + out["P2"]:
            return "a piece depends on the parameter"
        p0, p1, p2, K = (oracle.eval_laurent(out[key], point) for key in ("P0", "P1", "P2", "K"))
        if K != sol.K or p0 + point["a"] * p1 + point["a"] ** 2 * p2 != sol.K:
            return "symbolic K differs from the oracle's K at a random point"
        return None

    b.add(Op("other", f"invariant --symbolic k={k}",
                    ["invariant", "--k", str(k), "--symbolic"], check=check, domain="symbolic"))


def sym_identities(b: Builder, k: int, lo: int, hi: int):
    """Library: build the symbolic window, then sweep both Wronskians over it."""
    point, sol = random_point(b.rng, k)

    def build(pkg, state):
        state["window"] = pkg.RecurrenceSpec.symbolic(k).window().extend(lo, hi)
        return state["window"]

    def check_window(o: Outcome) -> str | None:
        w = o.value
        for n in (lo, 0, hi):
            if oracle.eval_laurent(str(w[n]), point) != sol.at(n):
                return f"symbolic x_{n} differs from the oracle at a random point"
        return None

    def sweep4(pkg, state):
        w = state["window"]
        return [pkg.wronskian4_det(w, n) for n in range(lo, hi - 6 * k - 2)]

    def check4(o: Outcome) -> str | None:
        return None if all(str(d) == "0" for d in o.value) else "a 4x4 Wronskian is not 0"

    def sweep3(pkg, state):
        w = state["window"]
        return [pkg.delta(w, n) for n in range(lo, hi - 4 * k - 1)]

    def check3(o: Outcome) -> str | None:
        d3 = [str(d) for d in o.value]
        if any(d3[i] != d3[i + k] for i in range(len(d3) - k)):
            return "delta(n) differs from delta(n+k)"
        for i in range(len(d3)):
            n = lo + i
            rows = [[sol.at(n + r + 2 * k * j) for j in range(3)] for r in range(3)]
            if oracle.eval_laurent(d3[i], point) != oracle.det(rows):
                return f"delta at n={n} differs from the oracle's determinant"
        return None

    b.add(Op("other", f"symbolic window k={k} [{lo},{hi}]", call=build, check=check_window,
             domain="symbolic"),
          Op("identity", f"wronskian4_det sweep k={k}", call=sweep4, check=check4,
             domain="symbolic"),
          Op("identity", f"delta sweep k={k}", call=sweep3, check=check3, domain="symbolic"),
          lane="identity")


# -- the workloads ----------------------------------------------------------------------------

def build(workload: str, seed: int, outdir: str) -> list[Op]:
    b = Builder(workload, seed, outdir)
    # small operations of the kinds a workload is not about, so that every
    # end-to-end metric exists on every workload (see README.md)
    probe_ks = (1, 2, 3, 1, 2, 3, 1, 2)
    if workload == "sequence":
        forms = {"unit": ("csv", "json", "bfile"), "integer": ("csv", "json"),
                 "rational": ("json", "csv")}
        end_bits = {"unit": 4000, "integer": 3600, "rational": 4800}
        for k in (1, 2, 3):
            for family in ("unit", "integer", "rational"):
                form = forms[family][(k - 1) % len(forms[family])]
                b.gen(family, k, form, end_bits[family])
        b.digit_limit(1, [1, 2, 3], 10000)
        b.digit_limit(2, [1, 2, 3, 4, 5], 10000)
        for k in (1, 2, 3):
            b.closed_form("unit", k, 10000)
            b.routes("rational", k)
            b.detect("rational", k)
        for _ in range(6):
            b.verify(1, 4)
            b.wronskian_sweep("unit", 1, 300)
    elif workload == "campaign_numeric":
        for k in (3, 1, 2, 3, 1, 2, 3, 1, 2):
            b.verify(k, {1: 16, 2: 8, 3: 4}[k])
        b.control(1, "closed_form", honoured=False)
        for target in ("xi_zero", "linear_relation", "delta_invariance", "wronskian4"):
            b.control(2, target)
        for k in probe_ks:
            b.gen("rational", k, "json", 2500)
            b.closed_form("unit", k, 8000)
            b.wronskian_sweep("unit", 2, 400)
    elif workload == "campaign_symbolic":
        b.verify(1, 25, symbolic=True)
        b.verify(2, 2, symbolic=True)
        b.verify(3, 1, symbolic=True, extra=("--max-symbolic-k", "3"))
        b.control(1, "laurent", symbolic=True, honoured=False)
        for k in (1, 2, 3):
            sym_invariant(b, k)
        sym_identities(b, 2, -2 * 2 - 2, 6 * 2 + 4)
        for k in probe_ks:
            b.gen("rational", k, "csv", 2500)
            b.closed_form("unit", k, 8000)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return b.interleave()
