"""Decision procedures for propositional logic.

``ipc_provable`` runs a terminating contraction-free sequent search in the
style of Dyckhoff's G4ip: invertible rules saturate first, and the left rule
for an implication splits four ways on the shape of its antecedent.  The only
backtracking points are right disjunction and nested-implication antecedents,
tried in that order, so the search is reproducible.  A budget bounds the
number of sequent expansions; exhausting it raises ``SearchBudgetError``
rather than returning a wrong answer.

``classically_valid`` / ``classical_countermodel`` sweep truth tables on ``M_1``.
"""

from __future__ import annotations

from .errors import LimitError, SearchBudgetError
from .formula import (
    BOT,
    And,
    Atom,
    Bot,
    Formula,
    Imp,
    Neg,
    Or,
    Top,
    _dag,
)
from .medvedev import _program_atoms, _sweep, _valuation_chunks, compile_formula, frame

DEFAULT_BUDGET = 10**6

MAX_CLASSICAL_ATOMS = 20


def _desugar(f: Formula) -> Formula:
    """Replace ~x by x -> F for the prover's internal use."""
    nodes, kids = _dag(f)
    out: list[Formula] = []
    for g, k in zip(nodes, kids):
        args = [out[i] for i in k]
        if type(g) is Neg:
            out.append(Imp(args[0], BOT))
        else:
            out.append(type(g)(*args) if k else g)
    return out[-1]


class _Prover:
    def __init__(self, budget: int):
        self.left = budget
        self.memo: dict[tuple, bool] = {}

    def _tick(self):
        self.left -= 1
        if self.left < 0:
            raise SearchBudgetError("proof search budget exhausted; answer unknown")

    def prove(self, pending: list[Formula], atoms_: frozenset[str],
              imps: tuple[Formula, ...], goal: Formula) -> bool:
        """Decide ``pending + atoms + imps  =>  goal``.

        ``atoms_`` holds atomic facts; ``imps`` holds implications whose
        antecedent is an unavailable atom or another implication.
        """
        self._tick()
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

    def _saturated(self, atom_set: frozenset[str], imps: tuple[Formula, ...],
                   goal: Formula) -> bool:
        key = (atom_set, frozenset(imps), goal)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        result = self._choices(atom_set, imps, goal)
        self.memo[key] = result
        return result

    def _choices(self, atom_set: frozenset[str], imps: tuple[Formula, ...],
                 goal: Formula) -> bool:
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

        # goal is now an unavailable atom, F, or a disjunction
        if isinstance(goal, Or):
            if self.prove([], atom_set, imps, goal.lhs):
                return True
            if self.prove([], atom_set, imps, goal.rhs):
                return True

        # nested-implication splits come last
        for i, g in enumerate(imps):
            if not isinstance(g.lhs, Imp):
                continue
            c, d = g.lhs.lhs, g.lhs.rhs
            others = imps[:i] + imps[i + 1:]
            if (self.prove([c, Imp(d, g.rhs)], atom_set, others, d)
                    and self.prove([g.rhs], atom_set, others, goal)):
                return True
        return False


def ipc_provable(f: Formula, budget: int = DEFAULT_BUDGET) -> bool:
    """Intuitionistic provability of ``f``; raises SearchBudgetError if unsure."""
    return _Prover(budget).prove([], frozenset(), (), _desugar(f))


def _truth(f: Formula, assign: dict[str, bool]) -> bool:
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


def classical_countermodel(f: Formula,
                           max_atoms: int = MAX_CLASSICAL_ATOMS) -> dict[str, bool] | None:
    """First falsifying assignment in binary counting order, or None.

    ``M_1`` is classical logic (one world; up-sets empty and full), and its
    sweep varies the last atom fastest, so the atoms go in reversed.
    """
    prog = compile_formula(f)
    names = _program_atoms(prog)
    if len(names) > max_atoms:
        raise LimitError(f"{len(names)} atoms exceeds the classical limit {max_atoms}")
    fr = frame(1)
    _, wit = _sweep(fr, f, prog, _valuation_chunks(fr, names[::-1]))
    if wit is None:
        return None
    return {nm: bool(wit.valuation.map[nm]) for nm in names}


def classically_valid(f: Formula, max_atoms: int = MAX_CLASSICAL_ATOMS) -> bool:
    return classical_countermodel(f, max_atoms) is None
