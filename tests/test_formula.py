"""Parser, renderer, and substitution tests."""

import random

import pytest

from medlog.errors import ParseError
from medlog.formula import (
    And,
    Atom,
    BOT,
    Bot,
    Imp,
    NEG_BOT,
    NEG_TOP,
    Neg,
    Or,
    Substitution,
    TOP,
    Top,
    apply_subst,
    atoms,
    big_and,
    big_or,
    compose,
    iff,
    parse,
    render,
    subformulas,
)


def test_parse_atoms_and_constants():
    assert parse("p") == Atom("p")
    assert parse("abc_12") == Atom("abc_12")
    assert parse("F") == Bot()
    assert parse("T") == Top()
    assert parse("F") is not None


def test_precedence_goldens():
    assert parse("~p & q") == And(Neg(Atom("p")), Atom("q"))
    assert parse("p & q | r") == Or(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse("p | q -> r") == Imp(Or(Atom("p"), Atom("q")), Atom("r"))
    assert parse("~p -> ~q | ~r") == Imp(
        Neg(Atom("p")), Or(Neg(Atom("q")), Neg(Atom("r")))
    )
    assert parse("~~p") == Neg(Neg(Atom("p")))


def test_binary_connectives_right_associative():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert parse("p -> q -> r") == Imp(p, Imp(q, r))
    assert parse("p | q | r") == Or(p, Or(q, r))
    assert parse("p & q & r") == And(p, And(q, r))


def test_parens_override():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert parse("(p | q) & r") == And(Or(p, q), r)
    assert parse("(p -> q) -> r") == Imp(Imp(p, q), r)
    assert parse("~(p & q)") == Neg(And(p, q))


def test_render_inverse_of_parse_goldens():
    for text in [
        "p",
        "~p",
        "~~p",
        "p & q | r",
        "(p | q) & r",
        "p -> q -> r",
        "(p -> q) -> r",
        "~(p & q)",
        "p | (q | r) & s",
        "F -> T",
        "~p1 & p2 | ~p1 & ~p2 -> F",
    ]:
        assert render(parse(text)) == text


def test_render_parenthesizes_left_nesting_only_when_needed():
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert render(Or(Or(p, q), r)) == "(p | q) | r"
    assert render(Or(p, Or(q, r))) == "p | q | r"
    assert render(Imp(Imp(p, q), r)) == "(p -> q) -> r"
    assert render(And(And(p, q), r)) == "(p & q) & r"


def test_parse_render_round_trip_random():
    # render . parse . render must be the identity on render's image
    from medlog.randgen import random_formula

    rng = random.Random(31)
    names = ["p", "q", "r", "s"]
    for _ in range(400):
        f = random_formula(rng, names, depth=6)
        text = render(f)
        assert parse(text) == f, text


def test_render_long_chains_without_recursion():
    names = [f"a{i}" for i in range(2000)]
    text = render(big_or([Atom(a) for a in names]))
    assert text == " | ".join(names)
    assert render(parse(text)) == text
    # a chain nested on the left of its own connective keeps its parens
    assert render(Or(parse(text), BOT)) == f"({text}) | F"


def test_parse_error_reports_offset_and_expected():
    with pytest.raises(ParseError) as exc:
        parse("p & ")
    assert exc.value.offset == 4
    with pytest.raises(ParseError) as exc:
        parse("p q")
    assert exc.value.offset == 2
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("(p | q")
    with pytest.raises(ParseError):
        parse("p -> -> q")
    with pytest.raises(ParseError):
        parse("P")  # uppercase idents are reserved for constants


def test_atoms_first_occurrence_order():
    assert atoms(parse("q & p | q -> r")) == ["q", "p", "r"]
    assert atoms(TOP) == []


def test_subformulas_children_first_distinct():
    f = parse("p & p | ~p")
    subs = list(subformulas(f))
    assert subs.count(Atom("p")) == 1
    assert subs.index(Atom("p")) < subs.index(Neg(Atom("p")))
    assert subs[-1] == f


def test_big_or_and_empty_cases():
    assert big_or([]) == NEG_TOP
    assert big_and([]) == NEG_BOT
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    assert big_or([p]) == p
    assert big_or([p, q, r]) == parse("p | q | r")
    assert big_and([p, q, r]) == parse("p & q & r")


def test_iff_shape():
    f = iff(Atom("p"), Atom("q"))
    assert f == And(Imp(Atom("p"), Atom("q")), Imp(Atom("q"), Atom("p")))


def test_substitution_application():
    sigma = Substitution({"p": parse("~a"), "q": BOT})
    assert apply_subst(sigma, parse("p -> q")) == parse("~a -> F")
    assert apply_subst(sigma, parse("p & p")) == parse("~a & ~a")
    # constants pass through untouched
    assert apply_subst(sigma, parse("T | F")) == parse("T | F")


def test_substitution_default_for_unmapped_atoms():
    sigma = Substitution({"p": TOP})
    assert apply_subst(sigma, parse("p | r")) == Or(TOP, NEG_TOP)
    sigma2 = Substitution({}, default=BOT)
    assert apply_subst(sigma2, Atom("z")) == BOT


def test_substitution_composition_agrees_with_sequential_application():
    rng = random.Random(7)
    from medlog.randgen import random_formula

    names = ["p", "q", "r"]
    for _ in range(50):
        inner = Substitution({n: random_formula(rng, names, 3) for n in names})
        outer = Substitution({n: random_formula(rng, names, 3) for n in names})
        comp = compose(outer, inner)
        f = random_formula(rng, names, 4)
        assert apply_subst(comp, f) == apply_subst(outer, apply_subst(inner, f))
