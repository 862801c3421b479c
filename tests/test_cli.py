"""End-to-end command behaviour: exit codes, goldens, and determinism."""

import json

import pytest

from medlog.cli import main
from medlog.formula import parse, render
from medlog.medvedev import frame, witness_from_obj


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_echo(capsys):
    code, out, _ = run(capsys, "parse", "~p->~q|~r")
    assert code == 0
    assert out == "~p -> ~q | ~r\n"


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


def test_prove_cl(capsys):
    assert run(capsys, "prove-cl", "p | ~p")[0] == 0
    code, out, _ = run(capsys, "prove-cl", "p -> q")
    assert code == 1
    assert "p=true" in out and "q=false" in out


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
    assert err


def test_refute_exit_codes(capsys):
    code, out, _ = run(capsys, "refute", "~~p -> p", "--max-n", "3")
    assert code == 1
    assert json.loads(out)["n"] == 2
    code, out, _ = run(capsys, "refute", "p -> p", "--max-n", "2")
    assert code == 2
    assert "no refutation" in out


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


def test_unexpected_exception_exits_3_not_1(capsys):
    code, out, err = run(capsys, "parse", "~" * 3000 + "p")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: RecursionError")
    assert len(err.splitlines()) == 1
