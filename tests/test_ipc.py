"""Intuitionistic prover and classical truth-table checks."""

import random

import pytest

from medlog import ipc, medvedev
from medlog.errors import LimitError, SearchBudgetError
from medlog.formula import (
    BOT,
    And,
    Atom,
    Bot,
    Imp,
    Neg,
    Or,
    Substitution,
    Top,
    _dag,
    apply_subst,
    atoms,
    big_or,
    iff,
    parse,
    render,
)
from medlog.ipc import (
    _Prover,
    _run,
    classical_countermodel,
    classically_valid,
    ipc_provable,
)
from medlog.kpform import kp_normalize
from medlog.medvedev import frame, valid_on
from medlog.randgen import random_formula

from oracles import random_finite_rank_formula


def _truth(f, assign):
    """Classical truth of ``f`` under ``assign``, by recursion on the tree."""
    match f:
        case Atom(name):
            return assign[name]
        case Bot():
            return False
        case Top():
            return True
        case Neg(body):
            return not _truth(body, assign)
        case And(a, b):
            return _truth(a, assign) and _truth(b, assign)
        case Or(a, b):
            return _truth(a, assign) or _truth(b, assign)
        case Imp(a, b):
            return (not _truth(a, assign)) or _truth(b, assign)
    raise TypeError(f"not a formula: {f!r}")


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


def test_classical_countermodel_atom_limit():
    # 20 atoms sweep M_1; 21 are a LimitError before any sweep
    assert classical_countermodel(big_or([Atom(f"p{i}") for i in range(20)])) == {
        f"p{i}": False for i in range(20)}
    with pytest.raises(LimitError, match="21 atoms exceeds the classical limit 20"):
        classical_countermodel(big_or([Atom(f"p{i}") for i in range(21)]))


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


# --- differential reference: the recursive prover on desugared formulas ------

def _ref_desugar(f):
    nodes, prog = _dag(f)[:2]
    out = []
    for g, (_, a, b) in zip(nodes, prog):
        if type(g) is Neg:
            out.append(Imp(out[a], BOT))
        elif type(g) in (And, Or, Imp):
            out.append(type(g)(out[a], out[b]))
        else:
            out.append(g)
    return out[-1]


class _RefProver:
    """G4ip on ``Formula`` trees with a hashed sequent memo, recursing on the
    Python stack; the rule order the interned prover must keep."""

    identity = True  # close G, A => A before decomposing anything

    def __init__(self, budget):
        self.left = budget
        self.memo = {}

    def _tick(self):
        self.left -= 1
        if self.left < 0:
            raise SearchBudgetError("proof search budget exhausted; answer unknown")

    def prove(self, pending, atoms_, imps, goal):
        self._tick()
        if self.identity and (goal in pending or goal in imps):
            return True
        pending = list(pending)
        atom_set = set(atoms_)
        imp_list = list(imps)

        while pending:
            f = pending.pop()
            match f:
                case Bot():
                    return True
                case Top():
                    pass
                case Atom(name):
                    if name not in atom_set:
                        atom_set.add(name)
                        fired = [g for g in imp_list
                                 if isinstance(g.lhs, Atom) and g.lhs.name == name]
                        if fired:
                            imp_list = [g for g in imp_list if g not in fired]
                            pending.extend(g.rhs for g in fired)
                case And(a, b):
                    pending.append(a)
                    pending.append(b)
                case Or(a, b):
                    rest = frozenset(atom_set)
                    kept = tuple(imp_list)
                    return (self.prove(pending + [a], rest, kept, goal)
                            and self.prove(pending + [b], rest, kept, goal))
                case Imp(a, b):
                    match a:
                        case Top():
                            pending.append(b)
                        case Bot():
                            pass
                        case Atom(name):
                            if name in atom_set:
                                pending.append(b)
                            elif f not in imp_list:
                                imp_list.append(f)
                        case And(x, y):
                            pending.append(Imp(x, Imp(y, b)))
                        case Or(x, y):
                            pending.append(Imp(x, b))
                            pending.append(Imp(y, b))
                        case Imp(_, _):
                            if f not in imp_list:
                                imp_list.append(f)

        return self._saturated(frozenset(atom_set), tuple(imp_list), goal)

    def _saturated(self, atom_set, imps, goal):
        key = (atom_set, frozenset(imps), goal)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        result = self._choices(atom_set, imps, goal)
        self.memo[key] = result
        return result

    def _choices(self, atom_set, imps, goal):
        match goal:
            case Top():
                return True
            case Atom(name) if name in atom_set:
                return True
            case And(a, b):
                return (self.prove([], atom_set, imps, a)
                        and self.prove([], atom_set, imps, b))
            case Imp(a, b):
                return self.prove([a], atom_set, imps, b)

        if isinstance(goal, Or):
            if self.prove([], atom_set, imps, goal.lhs):
                return True
            if self.prove([], atom_set, imps, goal.rhs):
                return True

        for i, g in enumerate(imps):
            if not isinstance(g.lhs, Imp):
                continue
            c, d = g.lhs.lhs, g.lhs.rhs
            others = imps[:i] + imps[i + 1:]
            if (self.prove([c, Imp(d, g.rhs)], atom_set, others, d)
                    and self.prove([g.rhs], atom_set, others, goal)):
                return True
        return False


def _differential_corpus():
    rng = random.Random(1992)
    corpus = [parse(t) for t in THEOREMS + NON_THEOREMS]
    corpus += [Neg(Neg(random_formula(rng, ["p", "q", "r"], depth=5))) for _ in range(500)]
    names = ["p", "q", "r", "s"]
    corpus += [random_formula(rng, names[:1 + i % 4], depth=5) for i in range(1500)]
    for _ in range(300):
        f = random_finite_rank_formula(rng, ["p", "q", "r"])
        corpus.append(iff(f, kp_normalize(f).to_formula()))
    return corpus


def _outcome(prover, search, budget):
    try:
        verdict = search()
    except SearchBudgetError:
        verdict = "budget"
    return verdict, budget - prover.left, len(prover.memo)


def test_interned_prover_matches_recursive_reference():
    corpus = _differential_corpus()
    assert len(corpus) == 2328
    for budget in (10**6, 50, 7):
        exhausted = 0
        for f in corpus:
            ref = _RefProver(budget)
            want = _outcome(ref, lambda: ref.prove([], frozenset(), (), _ref_desugar(f)),
                            budget)
            new = _Prover(budget)
            got = _outcome(new, lambda: _run(
                new.prove([], frozenset(), (), new.intern(f))), budget)
            assert got == want, (budget, render(f))
            exhausted += want[0] == "budget"
        assert (exhausted == 0) == (budget == 10**6), budget


def test_classical_precheck_agrees_with_the_search_it_precedes():
    # where the search finishes, the same verdict; where it runs out, False
    # exactly when M_1 has a countermodel
    corpus = _differential_corpus()
    for budget in (10**6, 50, 7):
        outcomes = {"search": 0, "precheck": 0, "budget": 0}
        for f in corpus:
            p = _Prover(budget)
            try:
                want = _run(p.prove([], frozenset(), (), p.intern(f)))
            except SearchBudgetError:
                want = None
            try:
                got = ipc_provable(f, budget)
            except SearchBudgetError:
                got = "budget"
            if want is not None:
                assert got == want, (budget, render(f))
                outcomes["search"] += 1
            elif classical_countermodel(f) is not None:
                assert got is False, (budget, render(f))
                outcomes["precheck"] += 1
            else:
                assert got == "budget", (budget, render(f))
                outcomes["budget"] += 1
        assert outcomes["search"] > 0, budget
        assert (outcomes["precheck"] > 0 and outcomes["budget"] > 0) == (budget != 10**6), (
            budget, outcomes)


def test_classical_precheck_sweeps_only_unsettled_formulas_within_its_bound(monkeypatch):
    real, sweeps = medvedev.run_program, []

    def spy(fr, *args, **kwargs):
        sweeps.append(fr.n)
        return real(fr, *args, **kwargs)
    monkeypatch.setattr(medvedev, "run_program", spy)

    # settled on M_3 by an exhaustive valid_on sweep: no M_1 sweep
    settled = parse("(p -> q) -> ~q -> ~p")
    assert valid_on(frame(3), settled).valid
    sweeps.clear()
    assert ipc_provable(settled) is True
    assert sweeps == []

    # at the bound the sweep answers before the search spends any budget,
    # and its witness checks itself (a second M_1 evaluation)
    k = ipc._PRECHECK_ATOMS
    assert ipc_provable(big_or([Atom(f"p{i}") for i in range(k)]), budget=0) is False
    assert sweeps == [1, 1]

    # one atom past it the search runs alone, as it does at 21 atoms, one
    # past the classical limit, where no LimitError is raised
    sweeps.clear()
    past = big_or([Atom(f"p{i}") for i in range(k + 1)])
    with pytest.raises(SearchBudgetError):
        ipc_provable(past, budget=0)
    assert ipc_provable(past) is False
    assert ipc_provable(big_or([Atom(f"p{i}") for i in range(21)])) is False
    assert sweeps == []

    # a classically valid formula is swept once, then left to the search
    assert ipc_provable(parse("((p -> q) -> p) -> p")) is False
    assert sweeps == [1]


class _RefProverWithoutIdentity(_RefProver):
    """The reference without the identity shortcut: it decomposes ``A`` on
    both sides, so it spends more expansions for the same verdict."""

    identity = False


def test_verdicts_match_the_reference_without_identity_shortcut():
    for f in _differential_corpus():
        ref = _RefProverWithoutIdentity(10**6)
        assert ipc_provable(f) == ref.prove([], frozenset(), (), _ref_desugar(f)), render(f)


def test_deep_inputs_prove_without_recursion():
    depth = 3000
    p = Atom("p")
    falsum_chain = Imp(big_or([BOT] * (depth - 1) + [p]), p)
    names = [Atom(f"p{i}") for i in range(1, depth + 1)]
    pick_last = Imp(names[-1], big_or(names))
    negs = p
    for _ in range(depth):
        negs = Neg(negs)
    for f in (falsum_chain, pick_last, Imp(negs, negs)):
        assert ipc_provable(f) is True
