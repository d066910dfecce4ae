import json

import pytest

from hhrec.cli import main
from hhrec.verifier import NUMERIC_CHECKS, SYMBOLIC_CHECKS


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


def test_gen_zero_pivot_exits_3(run):
    code, _, err = run("gen", "--k", "1", "--a", "1", "--init", "1,2,-1", "--to", "9")
    assert code == 3


def test_gen_bfile_non_integer_exits_3(run):
    code, _, err = run("gen", "--k", "1", "--a", "1", "--init", "1,2,3",
                       "--to", "6", "--format", "bfile")
    assert code == 3


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
FAULT_BLIND = {
    False: {"k_ratio", "reversibility", "operator_identity"},
    True: {"k_ratio", "first_integral", "proof_identities", "reversal_covariance",
           "p_from_iterates"},
}


@pytest.mark.parametrize("symbolic,target", [(False, cid) for cid in NUMERIC_CHECKS]
                         + [(True, cid) for cid in SYMBOLIC_CHECKS])
def test_every_injected_fault_fails_its_target_only_or_is_refused(run, tmp_path, symbolic, target):
    path = tmp_path / "report.json"
    code, _, err = run("verify", "--k", "1", "--trials", "1", "--checks", "all",
                       "--inject-fault", target, "--json", str(path),
                       *(["--symbolic"] if symbolic else []))
    if target in FAULT_BLIND[symbolic]:
        assert code == 2 and "negative control" in err and not path.exists()
        return
    results = json.loads(path.read_text())["results"]
    assert code == 1
    assert {r["check"] for r in results if r["status"] == "fail"} == {target}
    assert all(r["status"] == "pass" for r in results if r["check"] != target)


@pytest.mark.parametrize("argv", [
    ("--checks", "k_ratio", "--inject-fault", "wronskian4"),   # target not requested
    ("--checks", "all", "--inject-fault", "no_such_check"),
], ids=["unrequested-target", "unknown-target"])
def test_verify_misuse_exits_2(run, argv):
    code, out, err = run("verify", "--k", "1", "--trials", "1", *argv)
    assert code == 2 and err.startswith("error: ") and out == ""


def test_verify_json_report(run, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run("verify", "--k", "1", "--trials", "2", "--seed", "3",
                     "--checks", "k_ratio,detect", "--json", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["summary"]["fail"] == 0 and data["summary"]["total"] == 4


def test_verify_symbolic_cap(run, monkeypatch):
    code, _, err = run("verify", "--k", "3", "--symbolic", "--trials", "1")
    assert code == 2 and "capped" in err
    monkeypatch.setenv("HH_MAX_SYMBOLIC_K", "3")
    code, out, _ = run("verify", "--k", "3", "--symbolic", "--trials", "1",
                       "--checks", "first_integral")
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


def test_detect_too_short_exits_2(run, tmp_path):
    path = tmp_path / "short.bfile"
    path.write_text("0 1\n1 2\n2 3\n")
    code, _, err = run("detect", "--input", str(path), "--max-order", "4")
    assert code == 2


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


def test_detect_requires_a_source(run):
    code, _, err = run("detect", "--max-order", "4")
    assert code == 2


def test_gen_invalid_k_exits_2(run):
    code, _, err = run("gen", "--k", "0", "--a", "1", "--init", "1", "--to", "3")
    assert code == 2 and "k must be >= 1" in err


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
