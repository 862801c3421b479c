"""Rank arithmetic and the disjunction-of-negations normal form."""

import random

import pytest

from medlog.errors import InfiniteRankError, RankOverflowError, SearchBudgetError
import itertools
from functools import reduce

from medlog import kpform
from medlog.formula import (
    BOT,
    TOP,
    And,
    Atom,
    Bot,
    Imp,
    Neg,
    Or,
    Top,
    big_or,
    iff,
    parse,
    render,
)
from medlog.kpform import (
    INFINITE_RANK,
    RANK_CAP,
    FrameCheck,
    NegDisjunction,
    Rank,
    _checked,
    kp_normalize,
    kp_rank,
    verify_normal_form,
)
from medlog.ipc import ipc_provable
from medlog.medvedev import UPSET_COUNTS
from medlog.randgen import random_formula

from oracles import random_finite_rank_formula


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


def test_finite_rank_sampler_rejects_draws_over_the_rank_cap():
    # draws 91 and 261 build skeletons whose rank passes RANK_CAP
    rng = random.Random(0)
    for i in range(300):
        f = random_finite_rank_formula(rng, ["p", "q", "r"], max_rank=64, skeleton_depth=5)
        assert kp_rank(f).value <= 64, i


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


def test_verify_samples_large_frames(monkeypatch):
    monkeypatch.setattr(kpform, "_EXHAUSTIVE_VALUATIONS", 10**4)
    f = parse("~p -> ~q | ~r")
    report = verify_normal_form(f, kp_normalize(f), bound=4, seed=3)
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


def test_verify_exhaustive_exactly_up_to_max_exhaustive_valuations(monkeypatch):
    f = parse("~p | ~q")  # the equivalence has two atoms: 5**2 valuations on M_2
    nd = kp_normalize(f)
    valuations = UPSET_COUNTS[2] ** 2
    monkeypatch.setattr(kpform, "_EXHAUSTIVE_VALUATIONS", valuations)
    at = verify_normal_form(f, nd, bound=2)
    assert at.frame_checks == (FrameCheck(1, "exhaustive", True, UPSET_COUNTS[1] ** 2),
                               FrameCheck(2, "exhaustive", True, valuations))
    monkeypatch.setattr(kpform, "_EXHAUSTIVE_VALUATIONS", valuations - 1)
    below = verify_normal_form(f, nd, bound=2)
    assert below.frame_checks[1] == FrameCheck(2, "sample", True, 1000)
    assert below.frame_checks[1].to_obj() == {"n": 2, "mode": "sample", "valid": True,
                                              "checked": 1000}


# --- the skeleton walk against the recursive passes it replaced ---------------

def _ref_rank(f, cap):
    memo = {}

    def go(g):
        if id(g) in memo:
            return memo[id(g)]
        match g:
            case Neg(_) | Bot() | Top():
                r = 1
            case Atom(_):
                r = None
            case Or(a, b):
                x, y = go(a), go(b)
                r = None if x is None or y is None else _checked(x + y, g, cap)
            case And(a, b):
                x, y = go(a), go(b)
                r = None if x is None or y is None else _checked(x * y, g, cap)
            case Imp(a, b):
                x, y = go(a), go(b)
                if x is None or y is None:
                    r = None
                elif y == 1:
                    r = 1
                else:
                    r = 1
                    for _ in range(x):
                        r = _checked(r * y, g, cap)
        memo[id(g)] = r
        return r

    return Rank(go(f))


def _ref_normalize(f, cap):
    memo = {}

    def go(g):
        if id(g) in memo:
            return memo[id(g)]
        match g:
            case Neg(a):
                out = (a,)
            case Bot():
                out = (TOP,)
            case Top():
                out = (BOT,)
            case Or(a, b):
                xs, ys = go(a), go(b)
                _checked(len(xs) + len(ys), g, cap)
                out = xs + ys
            case And(a, b):
                xs, ys = go(a), go(b)
                _checked(len(xs) * len(ys), g, cap)
                out = tuple(Or(x, y) for x in xs for y in ys)
            case Imp(a, b):
                xs, ys = go(a), go(b)
                _checked(len(ys) ** len(xs), g, cap)
                out = tuple(
                    big_or([And(Neg(x), ys[j]) for x, j in zip(xs, choice)])
                    for choice in itertools.product(range(len(ys)), repeat=len(xs))
                )
            case _:
                raise InfiniteRankError(f"{render(g)} has no finite rank; cannot normalize")
        memo[id(g)] = out
        return out

    return NegDisjunction(go(f))


def _ref_has_imp(f):
    match f:
        case Imp(_, _):
            return True
        case And(a, b) | Or(a, b):
            return _ref_has_imp(a) or _ref_has_imp(b)
    return False


def _ref_has_constant(f):
    match f:
        case Bot() | Top():
            return True
        case And(a, b) | Or(a, b) | Imp(a, b):
            return _ref_has_constant(a) or _ref_has_constant(b)
    return False


def _outcome(fn, f, *cap):
    """(value, None) or (None, (error type, message, id of its subformula))."""
    try:
        return fn(f, *cap), None
    except (InfiniteRankError, RankOverflowError) as e:
        return None, (type(e), str(e), id(getattr(e, "subformula", None)))


def _skeleton_corpus():
    rng = random.Random(1963)
    names = ["p", "q", "r", "s"]
    corpus = []
    for i in range(200):
        f = random_formula(rng, names[:1 + i % 4], depth=1 + i % 5)
        g = random_finite_rank_formula(rng, names[:1 + i % 3], max_rank=256,
                                       skeleton_depth=1 + i % 3)
        for h in (f, g):
            corpus += [h, Or(h, h), parse(render(h)), And(h, parse(render(h)))]
    return corpus


def test_skeleton_passes_match_recursive_references(monkeypatch):
    reports = 0
    for f in _skeleton_corpus():
        for cap in (RANK_CAP, 7, 2):
            with monkeypatch.context() as m:
                m.setattr(kpform, "RANK_CAP", cap)
                assert _outcome(kp_rank, f) == _outcome(_ref_rank, f, cap), render(f)
                got, want = _outcome(kp_normalize, f), _outcome(_ref_normalize, f, cap)
            assert got[1] == want[1], render(f)
            assert got[0] is None or got[0].bodies == want[0].bodies, render(f)
        nd = _outcome(kp_normalize, f)[0]
        if nd is not None and reports < 150:
            report = verify_normal_form(f, nd, bound=1)
            assert report.needs_weak_kp == _ref_has_imp(f), render(f)
            assert report.constants_as_negations == _ref_has_constant(f), render(f)
            reports += 1
    assert reports == 150


def test_rank_and_normal_form_on_deep_skeletons():
    # the recursive passes raised RecursionError on all three
    negs = [Neg(Atom(f"p{i}")) for i in range(3000)]
    or_chain = big_or(negs)
    and_chain = reduce(And, negs)  # left-nested
    imp_chain = reduce(lambda acc, x: Imp(x, acc),  # right-nested, over 7 atoms
                       [Neg(Atom(f"p{i % 7}")) for i in range(3000)][::-1])
    for f, rank in ((or_chain, 3000), (and_chain, 1), (imp_chain, 1)):
        assert kp_rank(f) == Rank(rank)
        assert len(kp_normalize(f)) == rank
    report = verify_normal_form(imp_chain, kp_normalize(imp_chain), bound=2)
    assert report.ok and report.needs_weak_kp and not report.constants_as_negations
    assert report.frame_checks == (FrameCheck(1, "exhaustive", True, 2 ** 7),
                                   FrameCheck(2, "exhaustive", True, 5 ** 7))


def test_normalize_builds_implication_bodies_from_shared_tails():
    # 4,096 bodies of 12 disjuncts each; bodies that agree on the later
    # choices share one tail, so they hold about two new objects apiece
    k = 12
    f = parse("(" + " | ".join(f"~p{i}" for i in range(k)) + ") -> (~q | ~r)")
    bodies = kp_normalize(f).bodies
    assert len(bodies) == 2 ** k
    seen = set()
    stack = list(bodies)
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            stack.extend(getattr(g, a) for a in ("body", "lhs", "rhs") if hasattr(g, a))
    assert len(seen) <= 3 * len(bodies)


# --- the equivalence proved from per-step lemmas ------------------------------

def _whole_search(f, nd):
    """The verdict of the one search of ``f <-> nd`` that the lemmas replace,
    or None where it runs out of budget."""
    try:
        return ipc_provable(iff(f, nd.to_formula()))
    except SearchBudgetError:
        return None


def test_every_step_lemma_up_to_four_by_four_is_proved():
    for kind, m, k in itertools.product((Or, And), range(1, 5), range(1, 5)):
        assert kpform._step_lemma(kind, m, k), (kind.__name__, m, k)
    assert kpform._step_lemma(Bot, 0, 0) and kpform._step_lemma(Top, 0, 0)


def test_lemma_path_declines_what_it_cannot_construct(monkeypatch):
    # (formula, claimed bodies, ipc_equivalent, whether the whole equivalence
    # was searched); each report equals the one made without the lemma path
    g = parse("~p | ~q")
    cases = [
        (parse("p | ~q"), (Atom("q"),), False, True),  # infinite rank: an atom leaf
        (g, (Atom("p"),), False, True),  # a wrong normal form
        (g, (Atom("q"), Atom("p")), True, True),  # a reordered one
        (And(g, g), None, True, False),  # one object twice in the skeleton
        (parse("(~p | ~q) & T | F"), None, True, False),  # constants
    ]
    searched = []
    real = kpform.ipc_provable

    def spy(h, *args, **kwargs):
        searched.append(h)
        return real(h, *args, **kwargs)

    for f, bodies, verdict, whole in cases:
        nd = kp_normalize(f) if bodies is None else NegDisjunction(bodies)
        both = iff(f, nd.to_formula())
        with monkeypatch.context() as m:
            m.setattr(kpform, "ipc_provable", spy)
            searched.clear()
            report = verify_normal_form(f, nd, bound=2)
            assert (both in searched) == whole, render(f)
            m.setattr(kpform, "_lemma_bodies", lambda skeleton, size: None)
            assert verify_normal_form(f, nd, bound=2) == report, render(f)
        assert report.ipc_equivalent is verdict, render(f)


def test_lemma_path_declines_when_its_lemmas_outgrow_the_equivalence(monkeypatch):
    # a left-nested chain needs a new, larger | lemma at every step; past the
    # equivalence's own size the whole search runs instead, once
    negs = [Neg(Atom(f"p{i}")) for i in range(40)]
    f = reduce(Or, negs)
    nd = kp_normalize(f)
    calls = []
    monkeypatch.setattr(kpform, "_step_lemma", lambda *shape: calls.append(shape) or True)
    assert verify_normal_form(f, nd, bound=1).ipc_equivalent is True
    assert calls == []
    g = reduce(Or, negs[:4])
    assert verify_normal_form(g, kp_normalize(g), bound=1).ipc_equivalent is True
    assert calls == [(Or, 1, 1), (Or, 2, 1), (Or, 3, 1)]


def _with_constants(f, rng):
    """``f`` with some skeleton leaves replaced by ``F`` or ``T``."""
    if isinstance(f, (Or, And)):
        return type(f)(_with_constants(f.lhs, rng), _with_constants(f.rhs, rng))
    return rng.choice((BOT, TOP)) if rng.random() < 0.3 else f


def test_lemma_proofs_agree_with_the_whole_formula_search():
    # where the one search of f <-> NF(f) finishes, verify_normal_form says
    # the same; the lemma path builds kp_normalize's bodies on each of these
    from test_ipc import _differential_corpus

    fs = [h.lhs.lhs for h in _differential_corpus()[-300:]]
    rng = random.Random(2404)
    drawn = []
    while len(drawn) < 1000:
        f = random_finite_rank_formula(rng, ["p", "q", "r"], max_rank=16)
        if Imp not in {type(g) for g in kpform._skeleton(f)}:
            drawn.append(_with_constants(f, rng) if len(drawn) % 2 else f)
    fs += drawn
    compared = built = 0
    for f in fs:
        nd = kp_normalize(f)
        skeleton = kpform._skeleton(f)
        report = verify_normal_form(f, nd, bound=1)
        if Imp in {type(g) for g in skeleton}:
            assert report.ipc_equivalent is None, render(f)
            continue
        built += kpform._lemma_bodies(skeleton, 10**9) == nd.bodies
        # a reordered or shortened claim takes the whole search
        for claim in (nd, NegDisjunction(nd.bodies[::-1]), NegDisjunction(nd.bodies[1:])):
            want = _whole_search(f, claim)
            if want is not None:
                assert verify_normal_form(f, claim, bound=1).ipc_equivalent is want, render(f)
                compared += 1
    assert built >= 1000 and compared >= 3000, (built, compared)
