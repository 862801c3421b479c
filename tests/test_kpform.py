"""Rank arithmetic and the disjunction-of-negations normal form."""

import random

import pytest

from medlog.errors import InfiniteRankError, RankOverflowError
from medlog.formula import And, Atom, Imp, Neg, big_or, parse, render
from medlog.kpform import (
    INFINITE_RANK,
    FrameCheck,
    NegDisjunction,
    Rank,
    kp_normalize,
    kp_rank,
    verify_normal_form,
)
from medlog.medvedev import UPSET_COUNTS
from medlog.randgen import random_finite_rank_formula


def rank_of(text):
    return kp_rank(parse(text))


def test_rank_base_cases():
    assert rank_of("~p") == Rank(1)
    assert rank_of("~(p & q -> r)") == Rank(1)
    assert rank_of("F") == Rank(1)
    assert rank_of("T") == Rank(1)
    assert rank_of("p") == INFINITE_RANK
    assert str(rank_of("p")) == "inf"
    assert str(rank_of("~p | ~q")) == "2"


def test_rank_connective_rules():
    assert rank_of("~p | ~q") == Rank(2)
    assert rank_of("~p & ~q") == Rank(1)
    assert rank_of("~p -> ~q") == Rank(1)
    assert rank_of("~p -> ~q | ~r") == Rank(2)
    assert rank_of("(~p | ~q) -> ~r") == Rank(1)
    assert rank_of("(~p | ~q) -> (~r | ~s | ~t)") == Rank(9)
    assert rank_of("(~p | ~q) & (~r | ~s | ~t)") == Rank(6)
    assert rank_of("(~p -> ~q | ~r) | ~s") == Rank(3)
    assert rank_of("((~p | ~q) -> (~r | ~s)) -> (~a | ~b)") == Rank(16)


def test_rank_infinite_absorbs():
    assert rank_of("p | ~q") == INFINITE_RANK
    assert rank_of("~q & p") == INFINITE_RANK
    assert rank_of("p -> ~q") == INFINITE_RANK
    assert rank_of("~q -> p") == INFINITE_RANK
    assert rank_of("~p | (q -> q)") == INFINITE_RANK


def test_rank_overflow_names_subformula():
    antecedent = big_or([Neg(Atom(f"p{i}")) for i in range(21)])
    f = Imp(antecedent, parse("~q | ~r"))  # 2 ** 21 choice functions
    with pytest.raises(RankOverflowError) as exc:
        kp_rank(f)
    assert exc.value.subformula == f
    # the cap is inclusive: 2 ** 20 exactly still fits
    at_cap = Imp(big_or([Neg(Atom(f"p{i}")) for i in range(20)]), parse("~q | ~r"))
    assert kp_rank(at_cap) == Rank(1 << 20)


def test_normalize_golden_bodies():
    cases = {
        "~p": ["p"],
        "F": ["T"],
        "T": ["F"],
        "~p | ~q": ["p", "q"],
        "~p & ~q": ["p | q"],
        "~p -> ~q": ["~p & q"],
        "~p -> ~q | ~r": ["~p & q", "~p & r"],
        "(~p | ~q) -> ~r": ["~p & r | ~q & r"],
    }
    for text, bodies in cases.items():
        nd = kp_normalize(parse(text))
        assert [render(b) for b in nd.bodies] == bodies, text


def test_normalize_implication_body_uses_conjunction():
    # ~x -> ~y contributes the body ~x & y, not an implication
    nd = kp_normalize(parse("~p -> ~q"))
    assert nd.bodies == (And(Neg(Atom("p")), Atom("q")),)


def test_normalize_choice_function_order():
    nd = kp_normalize(parse("(~a | ~b) -> (~c | ~d)"))
    assert [render(b) for b in nd.bodies] == [
        "~a & c | ~b & c",
        "~a & c | ~b & d",
        "~a & d | ~b & c",
        "~a & d | ~b & d",
    ]


def test_normalize_rejects_infinite_rank():
    for text in ["p", "p | ~p", "~p -> p", "~(~p) -> q"]:
        with pytest.raises(InfiniteRankError):
            kp_normalize(parse(text))


def test_normalize_names_the_first_infinite_skeleton_leaf():
    # the skeleton walk meets q before the second p; a walk over all
    # subformulas would list p (inside ~p) first
    with pytest.raises(InfiniteRankError, match="^q has no finite rank"):
        kp_normalize(parse("~p | q | p"))


def test_normalize_count_always_matches_rank():
    rng = random.Random(41)
    for _ in range(100):
        f = random_finite_rank_formula(rng, ["p", "q", "r"], max_rank=64)
        r = kp_rank(f)
        assert r.finite
        nd = kp_normalize(f)
        assert len(nd) == r.value, render(f)


def test_to_formula_shape():
    nd = NegDisjunction((Atom("p"), Atom("q")))
    assert render(nd.to_formula()) == "~p | ~q"
    assert render(NegDisjunction((Atom("p"),)).to_formula()) == "~p"


def test_verify_pure_disjunction_is_intuitionistic():
    f = parse("~p & (~q | ~r)")
    report = verify_normal_form(f, kp_normalize(f), bound=2)
    assert report.ok
    assert not report.needs_weak_kp
    assert report.ipc_equivalent is True
    assert report.rank_matches
    assert all(fc.valid and fc.mode == "exhaustive" for fc in report.frame_checks)


def test_verify_implication_flags_weak_kp():
    f = parse("~p -> ~q | ~r")
    report = verify_normal_form(f, kp_normalize(f), bound=3)
    assert report.ok
    assert report.needs_weak_kp
    assert report.ipc_equivalent is None
    assert [fc.n for fc in report.frame_checks] == [1, 2, 3]


def test_verify_detects_wrong_normal_form():
    f = parse("~p | ~q")
    wrong = NegDisjunction((Atom("p"),))
    report = verify_normal_form(f, wrong, bound=2)
    assert not report.ok
    assert not report.rank_matches
    assert not all(fc.valid for fc in report.frame_checks)


def test_verify_samples_large_frames():
    f = parse("~p -> ~q | ~r")
    report = verify_normal_form(f, kp_normalize(f), bound=4,
                                max_exhaustive=10**4, sample_count=50, seed=3)
    modes = {fc.n: fc.mode for fc in report.frame_checks}
    assert modes[1] == "exhaustive"
    assert modes[4] == "sample"
    assert report.ok


def test_verify_reports_constant_identification():
    # F and T only rank finitely through F == ~T and T == ~F; the report
    # says so whenever that identification was used
    for text in ("F", "F | ~p", "~p -> T", "~p & (T | ~q)"):
        f = parse(text)
        report = verify_normal_form(f, kp_normalize(f), bound=2)
        assert report.ok and report.constants_as_negations, text
    for text in ("~p", "~(p -> F)", "~p -> ~q | ~T"):
        f = parse(text)
        report = verify_normal_form(f, kp_normalize(f), bound=2)
        assert report.ok and not report.constants_as_negations, text


def test_verify_exhaustive_exactly_up_to_max_exhaustive_valuations():
    f = parse("~p | ~q")  # the equivalence has two atoms: 5**2 valuations on M_2
    nd = kp_normalize(f)
    valuations = UPSET_COUNTS[2] ** 2
    at = verify_normal_form(f, nd, bound=2, max_exhaustive=valuations, sample_count=9)
    assert at.frame_checks == (FrameCheck(1, "exhaustive", True, UPSET_COUNTS[1] ** 2),
                               FrameCheck(2, "exhaustive", True, valuations))
    below = verify_normal_form(f, nd, bound=2, max_exhaustive=valuations - 1,
                               sample_count=9)
    assert below.frame_checks[1] == FrameCheck(2, "sample", True, 9)
    assert below.frame_checks[1].to_obj() == {"n": 2, "mode": "sample", "valid": True,
                                              "checked": 9}
