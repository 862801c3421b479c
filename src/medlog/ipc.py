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
from .formula import _AND, _ATOM, _CONST, _IMP, _NEG, _OR, Formula, _program_atoms
from .medvedev import _sweep, _valuation_chunks, compile_formula, frame

DEFAULT_BUDGET = 10**6

MAX_CLASSICAL_ATOMS = 20


def _run(search) -> bool:
    """Drive a generator search: each yielded sub-search runs to its result,
    which is sent back, so the nesting lives on this list, not the Python stack."""
    stack, value = [search], None
    while stack:
        try:
            value = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(value)
            value = None
    return value


class _Prover:
    """G4ip over one table of interned ``compile_formula`` instructions: a
    formula is an int id keyed by ``(op, a, b)``, with ``~x`` as ``x -> F``."""

    def __init__(self, budget: int):
        self.left = budget
        self.memo: dict[tuple, bool] = {}
        self.node: list[tuple] = []
        self.index: dict[tuple, int] = {}

    def _id(self, op: int, a, b) -> int:
        i = self.index.setdefault((op, a, b), len(self.node))
        if i == len(self.node):
            self.node.append((op, a, b))
        return i

    def intern(self, f: Formula) -> int:
        ids: list[int] = []
        for op, a, b in compile_formula(f):
            if op == _NEG:
                op, a, b = _IMP, ids[a], self._id(_CONST, 0, 0)
            elif op != _ATOM and op != _CONST:
                a, b = ids[a], ids[b]
            ids.append(self._id(op, a, b))
        return ids[-1]

    def prove(self, pending: list[int], atoms_: frozenset[str],
              imps: tuple[int, ...], goal: int):
        """Decide ``pending + atoms + imps  =>  goal``; ``imps`` holds implications
        whose antecedent is an unavailable atom or another implication."""
        self.left -= 1
        if self.left < 0:
            raise SearchBudgetError("proof search budget exhausted; answer unknown")
        if goal in pending or goal in imps:  # identity: G, A => A
            return True
        node = self.node
        pending = list(pending)
        atom_set = set(atoms_)
        imp_list = list(imps)

        while pending:
            f = pending.pop()
            op, a, b = node[f]
            if op == _CONST:
                if not a:
                    return True
            elif op == _ATOM:
                if a not in atom_set:
                    atom_set.add(a)
                    fired = [g for g in imp_list if node[g][1] == f]
                    if fired:
                        imp_list = [g for g in imp_list if g not in fired]
                        pending.extend(node[g][2] for g in fired)
            elif op == _AND:
                pending += (a, b)
            elif op == _OR:
                rest, kept = frozenset(atom_set), tuple(imp_list)
                return ((yield self.prove(pending + [a], rest, kept, goal))
                        and (yield self.prove(pending + [b], rest, kept, goal)))
            else:
                lop, x, y = node[a]
                if (lop == _CONST and x) or (lop == _ATOM and x in atom_set):
                    pending.append(b)
                elif lop == _AND:
                    pending.append(self._id(_IMP, x, self._id(_IMP, y, b)))
                elif lop == _OR:
                    pending.append(self._id(_IMP, x, b))
                    pending.append(self._id(_IMP, y, b))
                elif lop != _CONST and f not in imp_list:
                    imp_list.append(f)

        key = (frozenset(atom_set), frozenset(imp_list), goal)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = yield self._choices(key[0], tuple(imp_list), goal)
        return hit

    def _choices(self, atom_set: frozenset[str], imps: tuple[int, ...], goal: int):
        op, a, b = self.node[goal]
        if (op == _CONST and a) or (op == _ATOM and a in atom_set):
            return True
        if op == _AND:
            return ((yield self.prove([], atom_set, imps, a))
                    and (yield self.prove([], atom_set, imps, b)))
        if op == _IMP:
            return (yield self.prove([a], atom_set, imps, b))

        # goal is now an unavailable atom, F, or a disjunction
        if op == _OR and ((yield self.prove([], atom_set, imps, a))
                          or (yield self.prove([], atom_set, imps, b))):
            return True

        # nested-implication splits come last
        for i, g in enumerate(imps):
            _, lhs, rhs = self.node[g]
            lop, c, d = self.node[lhs]
            if lop != _IMP:
                continue
            others = imps[:i] + imps[i + 1:]
            if ((yield self.prove([c, self._id(_IMP, d, rhs)], atom_set, others, d))
                    and (yield self.prove([rhs], atom_set, others, goal))):
                return True
        return False


def ipc_provable(f: Formula, budget: int = DEFAULT_BUDGET) -> bool:
    """Intuitionistic provability of ``f``; raises SearchBudgetError if unsure
    and ValueError for a negative budget."""
    if budget < 0:
        raise ValueError(f"search budget must be non-negative, got {budget}")
    p = _Prover(budget)
    return _run(p.prove([], frozenset(), (), p.intern(f)))


def classical_countermodel(f: Formula) -> dict[str, bool] | None:
    """First falsifying assignment in binary counting order, or None.

    ``M_1`` is classical logic (one world; up-sets empty and full), and its
    sweep varies the last atom fastest, so the atoms go in reversed.
    """
    prog = compile_formula(f)
    names = _program_atoms(prog)
    if len(names) > MAX_CLASSICAL_ATOMS:
        raise LimitError(f"{len(names)} atoms exceeds the classical limit "
                         f"{MAX_CLASSICAL_ATOMS}")
    fr = frame(1)
    _, wit = _sweep(fr, f, prog, _valuation_chunks(fr, names[::-1], len(prog)))
    if wit is None:
        return None
    return {nm: bool(wit.valuation.map[nm]) for nm in names}


def classically_valid(f: Formula) -> bool:
    return classical_countermodel(f) is None
