"""Parser, renderer, and substitution tests."""

import random
import time

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
    _ATOM_START,
    _tokenize,
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


def test_repr_is_the_rendered_text():
    for text in ["p", "F", "T", "~p", "p & q", "p | q", "(p -> q) -> r"]:
        f = parse(text)
        assert repr(f) == render(f) == text


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


def test_negation_chains_without_recursion():
    # compared as text: ``==`` on a 3,000-deep formula recurses
    for body in ("p", "F", "(p -> q)", "(p & ~q)"):
        text = "~" * 3000 + body
        f = parse(text)
        depth = 0
        while type(f) is Neg:
            f, depth = f.body, depth + 1
        assert depth == 3000 and render(f) == body.strip("()")
        assert render(parse(text)) == text
        assert render(parse(f"{text} -> {text} | q")) == f"{text} -> {text} | q"


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


# --- the shared DAG walk against the recursive memoized passes it replaced ---

def _ref_compile(f):
    from medlog.formula import _AND, _ATOM, _CONST, _IMP, _NEG, _OR

    slots, prog = {}, []

    def go(g):
        idx = slots.get(g)
        if idx is not None:
            return idx
        match g:
            case Atom(name):
                ins = (_ATOM, name, 0)
            case Bot():
                ins = (_CONST, 0, 0)
            case Top():
                ins = (_CONST, 1, 0)
            case Neg(body):
                ins = (_NEG, go(body), 0)
            case And(a, b):
                ins = (_AND, go(a), go(b))
            case Or(a, b):
                ins = (_OR, go(a), go(b))
            case Imp(a, b):
                ins = (_IMP, go(a), go(b))
        prog.append(ins)
        slots[g] = len(prog) - 1
        return slots[g]

    go(f)
    return prog


def _ref_atoms(f):
    seen = {}

    def walk(g):
        match g:
            case Atom(name):
                seen.setdefault(name, None)
            case Neg(body):
                walk(body)
            case And(a, b) | Or(a, b) | Imp(a, b):
                walk(a)
                walk(b)

    walk(f)
    return list(seen)


def _ref_subformulas(f):
    seen = set()

    def walk(g):
        if g in seen:
            return
        seen.add(g)
        match g:
            case Neg(body):
                yield from walk(body)
            case And(a, b) | Or(a, b) | Imp(a, b):
                yield from walk(a)
                yield from walk(b)
        yield g

    yield from walk(f)


def _ref_rebuild(f, leaf, neg):
    """Recursive memoized rebuild: ``apply_subst`` maps atoms by lookup and
    keeps ``Neg``; the prover's interning keeps atoms and reads ``~x`` as ``x -> F``."""
    memo = {}

    def go(g):
        out = memo.get(g)
        if out is not None:
            return out
        match g:
            case Atom():
                out = leaf(g)
            case Neg(body):
                out = neg(go(body))
            case And(a, b):
                out = And(go(a), go(b))
            case Or(a, b):
                out = Or(go(a), go(b))
            case Imp(a, b):
                out = Imp(go(a), go(b))
            case _:
                out = g
        memo[g] = out
        return out

    return go(f)


def _dag_corpus():
    from medlog.alpha import universal_subst
    from medlog.medvedev import frame, sample_valuation
    from medlog.randgen import random_formula

    rng = random.Random(2006)
    names = ["p", "q", "r", "s"]
    corpus = []
    for i in range(300):
        f = random_formula(rng, names[:i % 5], depth=5)
        copy = parse(render(f))  # equal to f, but a distinct object
        corpus += [f, copy, Or(f, copy), Imp(copy, And(f, Neg(copy)))]
    for n in (1, 2, 3, 4):
        for _ in range(15):
            sigma = universal_subst(n, sample_valuation(frame(n), ["p", "q"], rng))
            corpus.append(apply_subst(sigma, random_formula(rng, ["p", "q"], depth=4)))
    return corpus


def test_structural_passes_match_recursive_references():
    from medlog.ipc import _Prover
    from medlog.medvedev import compile_formula

    sigma = Substitution({"p": parse("q -> ~r"), "q": parse("p | T"), "r": parse("~~s")},
                         default=parse("~~p"))
    for f in _dag_corpus():
        assert compile_formula(f) == _ref_compile(f), render(f)
        assert atoms(f) == _ref_atoms(f)
        assert list(map(id, subformulas(f))) == list(map(id, _ref_subformulas(f)))
        image = apply_subst(sigma, f)
        assert image == _ref_rebuild(f, lambda g: sigma.lookup(g.name), Neg)
        assert compile_formula(image) == _ref_compile(image)
        ref, prover = _ref_rebuild(f, lambda g: g, lambda b: Imp(b, BOT)), _Prover(0)
        assert prover.intern(f) == prover.intern(ref)
        assert len(prover.node) == len(list(subformulas(ref)))


def test_structural_passes_on_deep_chains():
    from medlog.medvedev import compile_formula, frame, truth_set, valuation, world

    p, q = Atom("p"), Atom("q")
    negs = p
    for _ in range(5000):
        negs = Neg(negs)
    ands = p
    for i in range(5000):
        ands = And(ands, q if i % 2 == 0 else p)
    fr = frame(2)
    val = valuation(fr, {"p": [world(1)], "q": [world(1), world(2)]})
    sigma = Substitution({"p": q, "q": p})
    for f, short in ((negs, parse("~~p")), (ands, parse("p & q"))):
        prog = compile_formula(f)
        assert len(prog) == 5001 + (f is ands)
        assert atoms(f) == _ref_atoms(short)
        subs = list(subformulas(f))
        assert len(subs) == len(prog) and subs[-1] is f
        swapped = compile_formula(apply_subst(sigma, f))
        assert swapped == [(op, {"p": "q", "q": "p"}.get(a, a), b) for op, a, b in prog]
        assert truth_set(fr, val, f) == truth_set(fr, val, short)


# --- the recursive text layer, kept as the reference for parse and render -----

class _RefParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def advance(self):
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def fail(self, expected):
        tok, off = self.tokens[self.i]
        shown = repr(tok) if tok else "end of input"
        raise ParseError(f"unexpected {shown}", offset=off, expected=expected)

    def imp(self):
        lhs = self.disj()
        if self.peek() == "->":
            self.advance()
            return Imp(lhs, self.imp())
        return lhs

    def disj(self):
        parts = [self.conj()]
        while self.peek() == "|":
            self.advance()
            parts.append(self.conj())
        return big_or(parts)

    def conj(self):
        parts = [self.neg()]
        while self.peek() == "&":
            self.advance()
            parts.append(self.neg())
        return big_and(parts)

    def neg(self):
        depth = 0
        while self.peek() == "~":
            self.advance()
            depth += 1
        f = self.atom()
        for _ in range(depth):
            f = Neg(f)
        return f

    def atom(self):
        tok = self.peek()
        if tok == "F":
            self.advance()
            return BOT
        if tok == "T":
            self.advance()
            return TOP
        if tok == "(":
            self.advance()
            inner = self.imp()
            if self.peek() != ")":
                self.fail(("')'",))
            self.advance()
            return inner
        if tok and tok[0].islower():
            self.advance()
            return Atom(tok)
        self.fail(_ATOM_START)


def _ref_parse(text):
    p = _RefParser(_tokenize(text))
    f = p.imp()
    if p.peek() != "":
        p.fail(("'->'", "'|'", "'&'", "end of input"))
    return f


def _ref_prec(f):
    match f:
        case Imp():
            return 1
        case Or():
            return 2
        case And():
            return 3
        case Neg():
            return 4
        case _:
            return 5


_REF_INFIX = {And: (" & ", 3), Or: (" | ", 2), Imp: (" -> ", 1)}


def _ref_render(f):
    depth = 0
    while type(f) is Neg:
        f = f.body
        depth += 1
    if depth:
        s = _ref_render(f)
        return "~" * depth + (s if _ref_prec(f) >= 4 else f"({s})")
    match f:
        case Atom(name):
            return name
        case Bot():
            return "F"
        case Top():
            return "T"
        case And() | Or() | Imp():
            kind = type(f)
            sep, level = _REF_INFIX[kind]
            parts = []
            while type(f) is kind:
                parts.append(_ref_child(f.lhs, level, True))
                f = f.rhs
            parts.append(_ref_child(f, level, False))
            return sep.join(parts)
    raise TypeError(f"not a formula: {f!r}")


def _ref_child(f, level, is_left):
    s = _ref_render(f)
    p = _ref_prec(f)
    if p < level or (is_left and p == level):
        return f"({s})"
    return s


def _parse_outcome(parser, text):
    try:
        return parser(text)
    except ParseError as exc:
        return (str(exc), exc.offset, exc.expected)


def test_text_layer_matches_recursive_reference():
    from medlog.randgen import random_formula

    rng = random.Random(1961)
    names = ["p", "q", "r", "s"]
    texts = []
    for i in range(20000):
        f = random_formula(rng, names, depth=1 + i % 6)
        text = render(f)
        assert text == _ref_render(f)
        texts.append(text)
    # mutated and truncated renders, and random token strings
    alphabet = ["p", "q", "F", "T", "~", "(", ")", "&", "|", "->", "P", "-"]
    for text in list(texts):
        toks = [tok for tok, _ in _tokenize(text)[:-1]]
        i = rng.randrange(len(toks))
        edit = rng.randrange(4)
        if edit == 0:
            del toks[i]
        elif edit == 1:
            toks.insert(i, rng.choice(alphabet))
        elif edit == 2:
            toks = toks[:i]
        else:
            toks[i] = rng.choice(alphabet)
        texts.append(" ".join(toks))
    for _ in range(12000):
        texts.append(" ".join(rng.choice(alphabet) for _ in range(rng.randrange(12))))
    errors = 0
    for text in texts:
        got = _parse_outcome(parse, text)
        assert got == _parse_outcome(_ref_parse, text), text
        errors += type(got) is tuple
    assert len(texts) >= 50000 and errors >= 20000


def test_deep_nesting_without_recursion():
    # compared as text: ``==`` on a deep formula recurses
    assert render(parse("(" * 100000 + "p" + ")" * 100000)) == "p"
    f = Atom("p")
    for _ in range(5000):
        f = Imp(f, Atom("q"))
    text = render(f)
    assert text == "(" * 4999 + "p -> q" + ") -> q" * 4999
    assert render(parse(text)) == text
    # open brackets are counted, not searched for on the operator stack
    start = time.perf_counter()
    f = parse("p -> " * 20000 + "(" * 20000 + "q" + ")" * 20000)
    assert time.perf_counter() - start < 2
    assert render(f) == "p -> " * 20000 + "q"
