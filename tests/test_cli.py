"""End-to-end command behaviour: exit codes, goldens, and determinism."""

import argparse
import hashlib
import json
import random

import pytest

from medlog.cli import build_parser, main
from medlog.errors import SearchBudgetError, SelfCheckError
from medlog.formula import parse, render
from medlog.kpform import kp_normalize, verify_normal_form
from medlog.medvedev import frame
from oracles import witness_from_obj


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_echo(capsys):
    code, out, _ = run(capsys, "parse", "~p->~q|~r")
    assert code == 0
    assert out == "~p -> ~q | ~r\n"
    assert run(capsys, "parse", "--json", "~p->~q|~r") == (
        0, '{\n  "formula": "~p -> ~q | ~r"\n}\n', "")


def test_parse_syntax_error(capsys):
    code, out, err = run(capsys, "parse", "p &")
    assert code == 3
    assert "syntax error" in err
    assert out == ""


def test_rank_golden(capsys):
    code, out, _ = run(capsys, "rank", "(~p | ~q) -> (~r | ~s | ~t)")
    assert (code, out) == (0, "9\n")
    code, out, _ = run(capsys, "rank", "p | ~p")
    assert (code, out) == (0, "inf\n")


def test_rank_json(capsys):
    code, out, _ = run(capsys, "rank", "--json", "~p | ~q")
    assert code == 0
    assert json.loads(out) == {"formula": "~p | ~q", "rank": 2}


def test_rank_overflow_exits_3(capsys):
    big = " | ".join(f"~a{i}" for i in range(21))
    code, _, err = run(capsys, "rank", f"({big}) -> (~x | ~y)")
    assert code == 3
    assert err.startswith("error: rank of")
    assert "cap" in err


def test_normalize_infinite_rank_exits_3(capsys):
    code, _, err = run(capsys, "normalize", "p | q")
    assert code == 3
    assert "finite rank" in err


def test_normalize_names_the_first_infinite_skeleton_leaf(capsys):
    assert run(capsys, "normalize", "~p | q | p") == (
        3, "", "error: q has no finite rank; cannot normalize\n")


def test_normalize_golden(capsys):
    code, out, _ = run(capsys, "normalize", "~p -> ~q | ~r")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "~(~p & q)"
    assert lines[1] == "~(~p & r)"
    assert "disjuncts: 2 (rank matches)" in lines[2]
    assert any("weak Kreisel-Putnam" in line for line in lines)


def test_prove_ipc_exit_codes(capsys):
    assert run(capsys, "prove-ipc", "p -> p")[0] == 0
    assert run(capsys, "prove-ipc", "p | ~p")[0] == 1
    code, out, _ = run(capsys, "prove-ipc", "--budget", "2",
                       "((((p -> q) -> r) -> s) -> t) -> t | (s -> p)")
    assert code == 2
    assert "unknown" in out


def test_prove_ipc_negative_budget_is_a_usage_error(capsys):
    assert run(capsys, "prove-ipc", "p -> p", "--budget", "-1") == (
        3, "", "error: search budget must be non-negative, got -1\n")
    assert run(capsys, "prove-ipc", "p -> p", "--budget", "0") == (
        2, "unknown (budget exhausted)\n", "")


def test_prove_ipc_refutes_on_m1_before_the_search(capsys):
    # a classical countermodel answers without spending budget; the 4-cycle
    # de Bruijn formula takes the search 255 expansions to refute
    assert run(capsys, "prove-ipc", "--budget", "0", "p -> q") == (1, "unprovable\n", "")
    c = "(p0 & p1 & p2 & p3)"
    cycle = " & ".join(f"((p{i} -> p{(i + 1) % 4}) & (p{(i + 1) % 4} -> p{i}) -> {c})"
                       for i in range(4))
    for budget in ("200", "1000000"):
        assert run(capsys, "prove-ipc", "--budget", budget, f"{cycle} -> {c}") == (
            1, "unprovable\n", "")


def test_prove_ipc_on_a_3000_member_disjunction(tmp_path, capsys):
    path = tmp_path / "chain.txt"
    path.write_text("(" + " | ".join(["F"] * 2999 + ["p"]) + ") -> p\n")
    assert run(capsys, "prove-ipc", "--file", str(path)) == (0, "provable\n", "")


def test_normalize_proves_a_3000_member_disjunction_equivalent(tmp_path, capsys):
    # its normal form is itself, and without the identity axiom the prover
    # ran out of budget on f <-> f and printed no verdict
    path = tmp_path / "negs.txt"
    path.write_text(" | ".join(f"~p{i}" for i in range(3000)) + "\n")
    code, out, _ = run(capsys, "normalize", "--file", str(path), "--verify-bound", "1")
    assert code == 0
    assert out.splitlines()[-1] == "intuitionistically equivalent: True"


def test_deep_negation_chains_parse_and_prove(capsys):
    deep = "~" * 3000 + "p"
    assert run(capsys, "parse", deep) == (0, deep + "\n", "")
    assert run(capsys, "prove-ipc", f"{deep} -> {deep}") == (0, "provable\n", "")


def test_deep_left_implications_parse_from_file(tmp_path, capsys):
    # the recursive-descent parser raised RecursionError here (exit 3)
    text = "(" * 199 + "p -> q" + ") -> q" * 199
    path = tmp_path / "left.txt"
    path.write_text(text + "\n")
    assert run(capsys, "parse", "--file", str(path)) == (0, text + "\n", "")


def test_prove_cl(capsys):
    assert run(capsys, "prove-cl", "p | ~p")[0] == 0
    code, out, _ = run(capsys, "prove-cl", "p -> q")
    assert code == 1
    assert "p=true" in out and "q=false" in out
    assert run(capsys, "prove-cl", "--json", "p -> q") == (1, (
        '{\n  "countermodel": {\n    "p": true,\n    "q": false\n  },\n'
        '  "formula": "p -> q"\n}\n'), "")
    wide = " | ".join(f"p{i}" for i in range(21))
    assert run(capsys, "prove-cl", wide) == (
        3, "", "error: 21 atoms exceeds the classical limit 20\n")


def test_check_witness_json(capsys):
    code, out, _ = run(capsys, "check", "p | ~p", "--n", "2")
    assert code == 1
    obj = json.loads(out)
    assert obj == {
        "formula": "p | ~p",
        "n": 2,
        "valuation": {"p": [[1]]},
        "world": [1, 2],
    }
    wit = witness_from_obj(obj)
    assert wit.world == frame(2).bottom()


def test_check_valid_exit_0(capsys):
    code, out, _ = run(capsys, "check", "p -> p", "--n", "2")
    assert code == 0
    assert "valid on M_2" in out


def test_check_sampled_inconclusive_exit_2(capsys):
    code, out, _ = run(capsys, "check", "p -> p", "--n", "3",
                       "--mode", "sample", "--count", "40")
    assert code == 2
    assert "40 sampled" in out


def test_check_negative_count_exits_3(capsys):
    # a negative sample count is a usage error, not an inconclusive sweep
    code, out, err = run(capsys, "check", "p | ~p", "--n", "1",
                         "--mode", "sample", "--count", "-5")
    assert (code, out) == (3, "")
    assert "non-negative" in err


def test_check_rejects_oversized_frame(capsys):
    code, _, err = run(capsys, "check", "p -> p", "--n", "9")
    assert code == 3
    assert err == "error: exhaustive sweeps support n <= 6, got M_9\n"


def test_refute_exit_codes(capsys):
    code, out, _ = run(capsys, "refute", "~~p -> p", "--max-n", "3")
    assert code == 1
    assert json.loads(out)["n"] == 2
    code, out, _ = run(capsys, "refute", "p -> p", "--max-n", "2")
    assert code == 2
    assert "no refutation" in out


@pytest.mark.parametrize("argv, digest, n, bits", [
    (["check", "p | q | r | s", "--n", "5", "--mode", "sample", "--count", "300",
      "--seed", "3"],
     "0de553aaef9d5f78be9dd2a4c4acc0a3251c86b82eb828f211435a413d9c7caa", 5,
     {"p": 0x19ffffff, "q": 0x3fffffff, "r": 0x1bffbbff, "s": 0x2bafafff}),
    (["refute", "(p -> q) | (q -> p) | (r -> s)", "--strategy", "sample", "--max-n", "4",
      "--count", "50", "--seed", "1"],
     "7c8839f3a99f21a6060576fc3b37c2f217178ba367f0becc51f3b6e84759f2dd", 3,
     {"p": 0x1f, "q": 0x2f, "r": 0x3b, "s": 0x3}),
], ids=["check", "refute"])
def test_sampled_witness_bytes(capsys, argv, digest, n, bits):
    # the first failing seeded draw, at the bottom world; stdout pinned by sha256
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    wit = witness_from_obj(json.loads(out))
    assert (wit.n, wit.world, wit.valuation.map) == (n, frame(n).bottom(), bits)


@pytest.mark.parametrize("argv", [
    ["refute", "p -> p", "--max-n"],
    ["levin", "p -> p", "--max-n"],
    ["dp", "--left", "p", "--right", "q", "--max-n"],
    ["normalize", "~p -> ~q | ~r", "--verify-bound"],
    ["witness", "--premise", "p", "--conclusion", "q", "--validity-bound"],
], ids=lambda argv: argv[0])
def test_frame_bounds_outside_1_to_20_exit_3_before_any_work(capsys, argv):
    # these printed "... up to M_0" (exit 2), an unchecked "established"
    # (exit 0) or evidence-free certificates, or swept M_1..M_20 first
    for bound in ("-1", "0", "21"):
        assert run(capsys, *argv, bound) == (
            3, "", f"error: frame parameter must be in 1..20, got {bound}\n")
    if argv[0] == "witness":
        assert run(capsys, *argv[:-1], "--max-n", "0") == (
            3, "", "error: frame parameter must be in 1..20, got 0\n")


def test_alpha_text_golden(capsys):
    code, out, _ = run(capsys, "alpha", "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "alpha_1: p1",
        "alpha_2: ~p1",
        "u(p1): {1}",
        "validation: separation checked, membership law checked",
    ]


def test_alpha_json_round_trip(capsys):
    code, out, _ = run(capsys, "alpha", "--n", "3", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3 and obj["m"] == 2
    assert obj["formulas"][0] == "p1 & p2"
    assert set(obj["valuation"]) == {"p1", "p2"}
    assert obj["validation"] == {"separation": "checked", "membership_law": "checked"}


def test_subst_command(tmp_path, capsys):
    path = tmp_path / "val.json"
    path.write_text(json.dumps({"p": [[1]]}))
    code, out, _ = run(capsys, "subst", "p | ~p", "--n", "2",
                       "--valuation", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sigma(p) = ~~p1"
    assert lines[1] == "image: ~~p1 | ~~~p1"
    assert run(capsys, "subst", "--json", "p | ~p", "--n", "2", "--valuation", str(path)) == (
        0, '{\n  "image": "~~p1 | ~~~p1",\n  "n": 2,\n  "sigma": {\n    "p": "~~p1"\n  }\n}\n',
        "")


def test_subst_on_a_wide_universal_substitution(tmp_path, capsys):
    # sigma(p) is a 511-member disjunction on M_9
    path = tmp_path / "val.json"
    path.write_text(json.dumps({"p": [[1, 2, 3, 4, 5, 6, 7, 8, 9]]}))
    code, out, err = run(capsys, "subst", "p", "--n", "9", "--valuation", str(path))
    assert (code, err) == (0, "")
    last = out.splitlines()[-1]
    assert last.startswith("image: ")
    image = last.removeprefix("image: ")
    assert render(parse(image)) == image


def test_commands_on_a_wide_universal_substitution_image(tmp_path, capsys):
    # formula hashing recursed once per member of this 511-member image
    val = tmp_path / "val.json"
    val.write_text(json.dumps({"p": [[1, 2, 3, 4, 5, 6, 7, 8, 9]]}))
    _, out, _ = run(capsys, "subst", "p", "--n", "9", "--valuation", str(val))
    img = tmp_path / "image.txt"
    img.write_text(out.splitlines()[-1].removeprefix("image: "))
    assert run(capsys, "check", "--file", str(img), "--n", "1") == (
        0, "valid on M_1 (16 valuations)\n", "")
    assert run(capsys, "refute", "--file", str(img), "--max-n", "1") == (
        2, "no refutation found up to M_1\n", "")
    assert run(capsys, "rank", "--file", str(img)) == (0, "511\n", "")


def test_rank_on_a_deep_disjunction(tmp_path, capsys):
    # the recursive skeleton walk raised RecursionError here (exit 3)
    path = tmp_path / "or.txt"
    path.write_text(" | ".join(f"~p{i}" for i in range(3000)))
    assert run(capsys, "rank", "--file", str(path)) == (0, "3000\n", "")


def test_subst_missing_file_exits_3(capsys):
    code, _, err = run(capsys, "subst", "p", "--n", "2",
                       "--valuation", "/nonexistent.json")
    assert code == 3
    assert err


def test_formula_from_file(tmp_path, capsys):
    path = tmp_path / "f.txt"
    path.write_text("~p -> ~q | ~r\n")
    code, out, _ = run(capsys, "parse", "--file", str(path))
    assert (code, out) == (0, "~p -> ~q | ~r\n")
    code, out, _ = run(capsys, "rank", "--file", str(path))
    assert (code, out) == (0, "2\n")


def test_formula_arg_and_file_are_exclusive(capsys):
    code, _, err = run(capsys, "rank", "p", "--file", "whatever.txt")
    assert code == 3
    assert "not both" in err
    code, _, err = run(capsys, "rank")
    assert code == 3


def test_normalize_verify_bound_flag(capsys):
    code, out, _ = run(capsys, "normalize", "~p | ~q", "--verify-bound", "1")
    assert code == 0
    assert "equivalence on M_1" in out
    assert "equivalence on M_2" not in out


def test_normalize_notes_constant_identification(capsys):
    code, out, _ = run(capsys, "normalize", "F | ~p")
    assert code == 0
    assert "constants ranked as negations (F as ~T, T as ~F)" in out
    code, out, _ = run(capsys, "normalize", "F | ~p", "--json")
    assert code == 0
    assert json.loads(out)["constants_as_negations"] is True
    code, out, _ = run(capsys, "normalize", "~p | ~q")
    assert "constants ranked" not in out


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness", "--premise", "p | q",
                       "--conclusion", "p", "--max-n", "2")
    assert code == 1
    obj = json.loads(out)
    assert obj["k"] == 1
    assert obj["sigma"] == {"p": "~T", "q": "~~T"}
    assert all(e["valid"] for e in obj["validity_evidence"])
    code, out, _ = run(capsys, "witness", "--premise", "p",
                       "--conclusion", "p", "--max-n", "2")
    assert code == 2


def test_levin_command(capsys):
    code, out, _ = run(capsys, "levin", "p | ~p", "--max-n", "2")
    assert code == 1
    obj = json.loads(out)
    assert obj["bodies"] == ["~p1", "~~p1"]
    assert obj["countermodels"] == [{"p1": False}, {"p1": True}]
    assert run(capsys, "levin", "p -> p", "--max-n", "2")[0] == 2


def test_levin_checks_countermodels_of_deep_bodies(capsys):
    # the countermodel self-check recursed once per level (RecursionError, exit 3)
    code, out, err = run(capsys, "levin", "T & " * 1200 + "(p | ~p)", "--max-n", "2")
    assert (code, err) == (1, "")
    obj = json.loads(out)
    assert [b.rsplit(" | ", 1)[1] for b in obj["bodies"]] == ["~p1", "~~p1"]
    assert obj["countermodels"] == [{"p1": False}, {"p1": True}]


def test_dp_command(capsys):
    code, out, _ = run(capsys, "dp", "--left", "~p", "--right", "~~p",
                       "--max-n", "1")
    assert code == 1
    obj = json.loads(out)
    assert obj["n"] == 2
    assert obj["formula"] == "~p | ~~p"
    code, _, _ = run(capsys, "dp", "--left", "p -> p", "--right", "~p",
                     "--max-n", "2")
    assert code == 2


def test_pmorphism_point_map_file(tmp_path, capsys):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps({"m": 2, "n": 3, "point_map": {"1": 2, "2": 3}}))
    code, out, _ = run(capsys, "pmorphism", "--check", str(path))
    assert (code, out) == (0, "pass\n")


def test_pmorphism_dense_map_violations(tmp_path, capsys):
    path = tmp_path / "pm.json"
    dense = {"m": 2, "n": 2,
             "map": [[[1], [1]], [[2], [2]], [[1, 2], [1]]]}
    path.write_text(json.dumps(dense))
    code, out, _ = run(capsys, "pmorphism", "--check", str(path))
    assert code == 1
    assert "monotone violation" in out


def test_pmorphism_incomplete_map_exits_3(tmp_path, capsys):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "map": [[[1], [1]]]}))
    code, _, err = run(capsys, "pmorphism", "--check", str(path))
    assert code == 3
    assert "misses world" in err


@pytest.mark.parametrize("obj, named", [
    ({"m": 1, "n": 2, "map": [[[1], [1]], [[1], [2]]]}, "map names source world (1,) twice"),
    ({"m": 2, "n": 2, "map": [[[1], [1]], [[2], [2]], [[1, 2], [1, 2]], [[2, 2], [1]]]},
     "map names source world (2,) twice"),
    ({"m": 1, "n": 1, "point_map": {"1": 1, "01": 1}}, "point_map names generator 1 twice"),
])
def test_pmorphism_source_named_twice_exits_3(tmp_path, capsys, obj, named):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "pmorphism", "--check", str(path))
    assert (code, out, err) == (3, "", f"error: {named}\n")


def test_usage_errors_exit_3(capsys):
    assert run(capsys, "no-such-command")[0] == 3
    assert run(capsys, "check", "p")[0] == 3  # --n is required
    assert run(capsys)[0] == 3


def test_json_output_deterministic(capsys):
    a = run(capsys, "witness", "--premise", "p | q", "--conclusion", "q",
            "--max-n", "2", "--seed", "7")
    b = run(capsys, "witness", "--premise", "p | q", "--conclusion", "q",
            "--max-n", "2", "--seed", "7")
    assert a == b


def test_pmorphism_image_outside_target_frame_exits_3(tmp_path, capsys):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps({"m": 1, "n": 1, "map": [[[1], [3]]]}))
    code, out, err = run(capsys, "pmorphism", "--check", str(path))
    assert (code, out) == (3, "")
    assert "outside M_1" in err


def test_pmorphism_source_outside_frame_exits_3(tmp_path, capsys):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps({"m": 1, "n": 1, "map": [[[2], [1]]]}))
    code, out, err = run(capsys, "pmorphism", "--check", str(path))
    assert (code, out) == (3, "")
    assert "outside M_1" in err


@pytest.mark.parametrize("obj", [
    [1, 2],
    {"m": "2", "n": 2, "map": []},
    {"m": 1, "n": 1, "map": [[[1], ["a"]]]},
    {"m": 1, "n": 1, "map": [[[1]]]},
    {"m": 2, "n": 1, "point_map": [1, 1]},
])
def test_pmorphism_malformed_file_exits_3(tmp_path, capsys, obj):
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "pmorphism", "--check", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("obj", [["p"], {"p": [1]}, {"p": [["1"]]}])
def test_subst_malformed_valuation_exits_3(tmp_path, capsys, obj):
    path = tmp_path / "val.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "subst", "p", "--n", "2", "--valuation", str(path))
    assert (code, out) == (3, "")
    assert "lists of generator lists" in err


def test_unexpected_exception_exits_3_not_1(capsys, monkeypatch):
    def crash(text):
        raise RuntimeError("boom")

    monkeypatch.setattr("medlog.cli.parse", crash)
    code, out, err = run(capsys, "parse", "p")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: RuntimeError")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("error, expected", [
    (SelfCheckError("bad certificate"), (3, "", "internal check failed: bad certificate\n")),
    (SearchBudgetError("out"), (2, "unknown (budget exhausted)\n", "")),
])
def test_main_turns_library_errors_into_exit_codes(capsys, monkeypatch, error, expected):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("medlog.cli.levin_decomposition", fail)
    assert run(capsys, "levin", "p | ~p") == expected


def test_normalize_without_a_prover_verdict_still_passes(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise SearchBudgetError("out")

    monkeypatch.setattr("medlog.kpform.ipc_provable", exhausted)
    f = parse("~p | ~q")
    report = verify_normal_form(f, kp_normalize(f))
    assert report.ipc_equivalent is None and report.ok
    code, out, _ = run(capsys, "normalize", "~p | ~q")
    assert code == 0
    assert "disjuncts: 2 (rank matches)" in out
    assert "intuitionistically equivalent" not in out


# (option strings, dest, default, choices, required) of each subcommand's
# actions in order; --help's layout varies across Python versions, this does not
_H = (("-h", "--help"), "help", argparse.SUPPRESS, None, False)
_FORMULA = [((), "formula", None, None, False), (("--file",), "file", None, None, False)]
_JSON = (("--json",), "json", False, None, False)
_SAMPLED = [(("--count",), "count", 1000, None, False), (("--seed",), "seed", 0, None, False)]
PARSERS = {
    "parse": [_H, *_FORMULA, _JSON],
    "rank": [_H, *_FORMULA, _JSON],
    "normalize": [_H, *_FORMULA, (("--verify-bound",), "verify_bound", 3, None, False),
                  (("--seed",), "seed", 0, None, False), _JSON],
    "prove-ipc": [_H, *_FORMULA, (("--budget",), "budget", 1_000_000, None, False)],
    "prove-cl": [_H, *_FORMULA, _JSON],
    "check": [_H, *_FORMULA, (("--n",), "n", None, None, True),
              (("--mode",), "mode", "exhaustive", ("exhaustive", "sample"), False), *_SAMPLED],
    "refute": [_H, *_FORMULA, (("--max-n",), "max_n", 4, None, False),
               (("--strategy",), "strategy", "auto", ("auto", "exhaustive", "sample"), False),
               *_SAMPLED],
    "alpha": [_H, (("--n",), "n", None, None, True), _JSON],
    "subst": [_H, *_FORMULA, (("--n",), "n", None, None, True),
              (("--valuation",), "valuation", None, None, True), _JSON],
    "witness": [_H, (("--premise",), "premise", None, None, True),
                (("--conclusion",), "conclusion", None, None, True),
                (("--max-n",), "max_n", 3, None, False),
                (("--validity-bound",), "validity_bound", 4, None, False), *_SAMPLED],
    "levin": [_H, *_FORMULA, (("--max-n",), "max_n", 4, None, False), *_SAMPLED],
    "dp": [_H, (("--left",), "left", None, None, True), (("--right",), "right", None, None, True),
           (("--max-n",), "max_n", 4, None, False), *_SAMPLED],
    "pmorphism": [_H, (("--check",), "check", None, None, True)],
}


def test_each_subcommand_parser_is_pinned():
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    got = {name: [(tuple(a.option_strings), a.dest, a.default, a.choices, a.required)
                  for a in parser._actions] for name, parser in commands.items()}
    assert list(got.items()) == list(PARSERS.items())


_FUZZ_COMMANDS = [
    ["parse"],
    ["rank"],
    ["prove-cl"],
    ["prove-ipc", "--budget", "200"],
    ["check", "--n", "2"],
    ["normalize", "--verify-bound", "1"],
    ["refute", "--max-n", "2"],
    ["levin", "--max-n", "2"],
]

# frame-size and count options, each run at -1, 0 and 21
_FUZZ_BOUNDS = [
    ["check", "p | ~p", "--n"], ["check", "p | ~p", "--n", "2", "--mode", "sample", "--count"],
    ["alpha", "--n"], ["subst", "p", "--valuation", "{valuation}", "--n"],
    ["refute", "p | ~p", "--max-n"], ["refute", "p | ~p", "--count"],
    ["levin", "p | ~p", "--max-n"], ["levin", "p | ~p", "--count"],
    ["normalize", "~p | ~q", "--verify-bound"],
    ["witness", "--premise", "p | q", "--conclusion", "p", "--max-n"],
    ["witness", "--premise", "p | q", "--conclusion", "p", "--validity-bound"],
    ["witness", "--premise", "p | q", "--conclusion", "p", "--count"],
    ["dp", "--left", "~p", "--right", "~~p", "--max-n"],
    ["dp", "--left", "~p", "--right", "~~p", "--count"],
]

_FUZZ_TOKENS = ["p", "q", "r", "F", "T", "~", "(", ")", "&", "|", "->", " ", "-", "P", "$"]


def _fuzz_texts(rng):
    from medlog.randgen import random_formula

    texts = [render(random_formula(rng, ["p", "q", "r"], rng.randrange(5)))
             for _ in range(400)]
    for _ in range(400):
        body = "".join(rng.choice(_FUZZ_TOKENS) for _ in range(rng.randrange(16)))
        texts.append("(" * rng.choice([0, 1, 3, 300]) + body
                     + ")" * rng.choice([0, 1, 3, 300]))
    return texts


def _fuzz_json(rng, depth=0):
    roll = rng.randrange(8 if depth < 4 else 4)
    if roll < 4:
        return rng.choice([0, 1, 2, 3, 9, -1, "1", "p", None, True, 1.5])
    if roll < 6:
        return [_fuzz_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    keys = ["m", "n", "map", "point_map", "p", "q", "1", "2"]
    return {rng.choice(keys): _fuzz_json(rng, depth + 1) for _ in range(rng.randrange(4))}


def _fuzz_files(rng):
    deep = "[" * 100000 + "]" * 100000  # past the decoder's nesting limit
    files = ["", "{", "[[1]", "nul", deep, '{"p": ' + deep + "}",
             json.dumps({"p": [[1]]})[:-1], json.dumps({"m": 2, "n": 1, "map": [[[1]]]}),
             json.dumps({"m": 1, "n": 2, "map": [[[1], [1]], [[1], [2]]]}),
             json.dumps({"m": 1, "n": 1, "point_map": {"1": 1, "01": 1}})]
    files += [json.dumps(_fuzz_json(rng)) for _ in range(30)]

    def worlds():  # near-valid lists of generator lists
        return [[rng.randrange(-1, 4) for _ in range(rng.randrange(3))]
                for _ in range(rng.randrange(4))]

    for _ in range(35):
        m, n = rng.randrange(-1, 4), rng.randrange(-1, 4)
        files.append(json.dumps({"m": m, "n": n, "map": [[w, w] for w in worlds()]}))
        files.append(json.dumps({"m": m, "n": n, "point_map": {
            str(rng.randrange(4)): rng.choice([rng.randrange(-1, 4), _fuzz_json(rng)])
            for _ in range(rng.randrange(4))}}))
        files.append(json.dumps({rng.choice("pqr"): worlds() for _ in range(2)}))
    return files


def test_cli_fuzz_exits_cleanly(tmp_path, capsys):
    # every input ends with an exit code of the contract and no crash report
    rng = random.Random(1961)
    texts = _fuzz_texts(rng)
    runs = [_FUZZ_COMMANDS[i % len(_FUZZ_COMMANDS)] + ["--", text]
            for i, text in enumerate(texts)]
    for text, other in zip(texts, texts[1:] + texts[:1]):
        runs.append(["witness", "--max-n", "2", "--validity-bound", "2",
                     f"--premise={text}", f"--conclusion={other}"])
        runs.append(["dp", "--max-n", "2", f"--left={text}", f"--right={other}"])
    valuation = tmp_path / "valuation.json"
    valuation.write_text(json.dumps({"p": [[1]]}))
    for argv in _FUZZ_BOUNDS:
        runs += [[a.format(valuation=valuation) for a in argv] + [bound]
                 for bound in ("-1", "0", "21")]
    for i, content in enumerate(_fuzz_files(rng)):
        path = tmp_path / f"{i}.json"
        path.write_text(content)
        runs.append(["subst", "p", "--n", "2", "--valuation", str(path)])
        runs.append(["pmorphism", "--check", str(path)])
    for argv in runs:
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 3), argv
        assert "internal error" not in err and "Traceback" not in err, argv
