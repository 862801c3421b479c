"""Intuitionistic prover and classical truth-table checks."""

import random

import pytest

from medlog.errors import SearchBudgetError
from medlog.formula import Neg, Substitution, apply_subst, atoms, parse, render
from medlog.ipc import (
    _truth,
    classical_countermodel,
    classically_valid,
    ipc_provable,
)
from medlog.randgen import random_formula

THEOREMS = [
    "p -> p",
    "p -> q -> p",
    "(p -> q -> r) -> (p -> q) -> p -> r",
    "p & q -> p",
    "p & q -> q",
    "p -> q -> p & q",
    "p -> p | q",
    "q -> p | q",
    "(p -> r) -> (q -> r) -> p | q -> r",
    "F -> p",
    "~~(p | ~p)",
    "~(p & ~p)",
    "(p -> q) -> ~q -> ~p",
    "~~~p -> ~p",
    "p -> ~~p",
    "(~p | q) -> p -> q",
    "~(p | q) -> ~p & ~q",
    "~p & ~q -> ~(p | q)",
    "((p -> q) -> p) -> ~~p",
]

NON_THEOREMS = [
    "p | ~p",
    "~~p -> p",
    "((p -> q) -> p) -> p",  # Peirce
    "(p -> q) | (q -> p)",
    "(~p -> q | r) -> (~p -> q) | (~p -> r)",  # Kreisel-Putnam
    # splitting over negated disjuncts is weaker but still beyond IPC
    "(~p -> ~q | ~r) -> (~p -> ~q) | (~p -> ~r)",
    "~(p & q) -> ~p | ~q",
    "p -> q",
    "F",
]


def test_theorems_provable():
    for text in THEOREMS:
        assert ipc_provable(parse(text)), text


def test_non_theorems_unprovable():
    for text in NON_THEOREMS:
        assert not ipc_provable(parse(text)), text


def test_negated_implication_between_negations_collapses_to_conjunction():
    # ~x -> ~y is equivalent to ~(~x & y); the implication variant
    # ~(~x -> y) is NOT equivalent and already fails classically.
    good = parse("(~p -> ~q) -> ~(~p & q)")
    good_back = parse("~(~p & q) -> (~p -> ~q)")
    assert ipc_provable(good)
    assert ipc_provable(good_back)
    bad = parse("(~p -> ~q) -> ~(~p -> q)")
    assert classical_countermodel(bad) is not None
    assert not ipc_provable(bad)


def test_glivenko_double_negation_agrees_with_classical():
    rng = random.Random(11)
    names = ["p", "q", "r"]
    checked = 0
    for _ in range(500):
        f = random_formula(rng, names, depth=6)
        assert ipc_provable(Neg(Neg(f))) == classically_valid(f), render(f)
        checked += 1
    assert checked == 500


def test_provability_closed_under_substitution():
    rng = random.Random(14)
    names = ["p", "q"]
    substituted = 0
    for text in THEOREMS:
        f = parse(text)
        for _ in range(5):
            s = Substitution({n: random_formula(rng, names, depth=3) for n in names})
            assert ipc_provable(apply_subst(s, f)), text
            substituted += 1
    assert substituted == 5 * len(THEOREMS)


def test_ipc_provable_implies_classically_valid():
    rng = random.Random(12)
    for _ in range(300):
        f = random_formula(rng, ["p", "q"], depth=5)
        if ipc_provable(f):
            assert classically_valid(f), render(f)


def test_classical_countermodel_first_in_counting_order():
    cm = classical_countermodel(parse("p | q"))
    assert cm == {"p": False, "q": False}
    cm = classical_countermodel(parse("~p | q"))
    assert cm == {"p": True, "q": False}
    assert classical_countermodel(parse("p | ~p")) is None
    assert classical_countermodel(parse("T")) is None
    assert classical_countermodel(parse("F")) == {}


def test_classical_countermodel_matches_assignment_loop():
    # the M_1 sweep against a truth table walked in binary counting order
    rng = random.Random(31)
    found = 0
    for _ in range(600):
        f = random_formula(rng, list("abcdef")[:rng.randrange(7)], rng.randrange(1, 6))
        names = atoms(f)
        expected = None
        for bits in range(1 << len(names)):
            assign = {nm: bool(bits >> i & 1) for i, nm in enumerate(names)}
            if not _truth(f, assign):
                expected = assign
                break
        got = classical_countermodel(f)
        assert got == expected, render(f)
        assert got is None or list(got) == names
        found += got is not None
    assert 0 < found < 600


def test_countermodel_falsifies():
    rng = random.Random(13)
    names = ["p", "q", "r"]
    from medlog.ipc import _truth

    for _ in range(200):
        f = random_formula(rng, names, depth=5)
        cm = classical_countermodel(f)
        if cm is None:
            assert classically_valid(f)
        else:
            assert _truth(f, {n: cm.get(n, False) for n in names}) is False


def test_budget_error_on_tiny_budget():
    hard = parse("((((p1 -> p2) -> p3) -> p4) -> p5) -> p5 | (p4 -> p1)")
    with pytest.raises(SearchBudgetError):
        ipc_provable(hard, budget=3)
