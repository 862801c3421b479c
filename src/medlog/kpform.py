"""Rank and normal form for disjunctions of negations.

A formula built from negations by ``|``, ``&``, ``->`` is equivalent, over
any logic containing the weak Kreisel-Putnam axiom
``(~p -> ~q | ~r) -> ((~p -> ~q) | (~p -> ~r))``, to a disjunction of
negations ``~b1 | ... | ~bk``.  The rank counts those disjuncts without
building them: 1 for a negation, sums across ``|``, products across ``&``,
and ``rank(rhs) ** rank(lhs)`` across ``->`` (one disjunct per choice
function).  Everything else has infinite rank; the constants count as rank 1
through ``F == ~T`` and ``T == ~F``.

``kp_normalize`` materializes the bodies ``b1..bk`` in a deterministic
order, one skeleton node at a time, and ``verify_normal_form`` checks the
claimed equivalence on small frames.  When no ``->`` is involved it also
proves it intuitionistically: by construction, from one G4ip proof per
step shape (``_step_lemma``, kept across calls), when the steps rebuild the
claimed bodies, and otherwise by one search of the whole equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import InfiniteRankError, RankOverflowError, SearchBudgetError
from .formula import (
    BOT,
    TOP,
    And,
    Atom,
    Bot,
    Formula,
    Imp,
    Neg,
    Or,
    Top,
    big_or,
    iff,
    render,
)
from .ipc import ipc_provable
from .medvedev import FrameCheck, _compile_entry, frame, valid_on

RANK_CAP = 1 << 20
# valuations per frame up to which ``verify_normal_form`` sweeps exhaustively
_EXHAUSTIVE_VALUATIONS = 10**7


@dataclass(frozen=True, slots=True)
class Rank:
    value: int | None  # None encodes infinity

    @property
    def finite(self) -> bool:
        return self.value is not None

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


INFINITE_RANK = Rank(None)


def _checked(v: int, g: Formula, cap: int) -> int:
    if v > cap:
        raise RankOverflowError(
            f"rank of {render(g)} exceeds the cap {cap}", subformula=g
        )
    return v


def _skeleton(f: Formula) -> list[Formula]:
    """The ``|``/``&``/``->`` nodes of ``f`` and the leaves below them
    (negations, atoms, constants), children before parents and left before
    right, each object once by ``id`` (``f`` keeps every node alive).  The
    walk keeps its own stack and never enters a negation."""
    out: list[Formula] = []
    done: set[int] = set()
    stack = [(f, False)]  # (node, children already pushed)
    while stack:
        g, expanded = stack.pop()
        if id(g) in done:
            continue
        t = type(g)
        if t is Or or t is And or t is Imp:
            if not expanded:
                stack += ((g, True), (g.rhs, False), (g.lhs, False))
                continue
        elif t not in (Neg, Atom, Bot, Top):
            raise TypeError(f"not a formula: {g!r}")
        done.add(id(g))
        out.append(g)
    return out


def kp_rank(f: Formula) -> Rank:
    """Disjunct count of the normal form, or infinity; never wraps past ``RANK_CAP``."""
    rank: dict[int, int | None] = {}
    for g in _skeleton(f):
        r: int | None
        match g:
            case Neg(_) | Bot() | Top():
                r = 1
            case Atom(_):
                r = None
            case Or(a, b):
                x, y = rank[id(a)], rank[id(b)]
                r = None if x is None or y is None else _checked(x + y, g, RANK_CAP)
            case And(a, b):
                x, y = rank[id(a)], rank[id(b)]
                r = None if x is None or y is None else _checked(x * y, g, RANK_CAP)
            case Imp(a, b):
                x, y = rank[id(a)], rank[id(b)]
                if x is None or y is None:
                    r = None
                elif y == 1:
                    r = 1
                else:
                    r = 1
                    for _ in range(x):
                        r = _checked(r * y, g, RANK_CAP)
        rank[id(g)] = r
    return Rank(rank[id(f)])


@dataclass(frozen=True)
class NegDisjunction:
    """Bodies ``b1..bk`` standing for the formula ``~b1 | ... | ~bk``."""

    bodies: tuple[Formula, ...]

    def to_formula(self) -> Formula:
        return big_or([Neg(b) for b in self.bodies])

    def __len__(self) -> int:
        return len(self.bodies)


def _node_bodies(g: Formula, bodies: dict[int, tuple[Formula, ...]]) -> tuple[Formula, ...]:
    """The bodies of skeleton node ``g``, given those of its children in
    ``bodies`` by ``id``.  It only applies constructors, so renaming the
    children's bodies renames the result."""
    match g:
        case Neg(a):
            return (a,)
        case Bot():
            return (TOP,)
        case Top():
            return (BOT,)
        case Or(a, b):
            xs, ys = bodies[id(a)], bodies[id(b)]
            _checked(len(xs) + len(ys), g, RANK_CAP)
            return xs + ys
        case And(a, b):
            xs, ys = bodies[id(a)], bodies[id(b)]
            _checked(len(xs) * len(ys), g, RANK_CAP)
            return tuple(Or(x, y) for x in xs for y in ys)
        case Imp(a, b):
            xs, ys = bodies[id(a)], bodies[id(b)]
            _checked(len(ys) ** len(xs), g, RANK_CAP)
            # choices for the last antecedent body vary fastest; each body
            # shares its tail with the bodies that agree on the later choices
            out = tuple(And(Neg(xs[-1]), y) for y in ys)
            for x in reversed(xs[:-1]):
                heads = [And(Neg(x), y) for y in ys]
                out = tuple(Or(head, rest) for head in heads for rest in out)
            return out
    raise InfiniteRankError(f"{render(g)} has no finite rank; cannot normalize")


def kp_normalize(f: Formula) -> NegDisjunction:
    """Bodies of the normal form, in a fixed construction order.

    ``|`` concatenates, ``&`` pairs row-major via ``~x & ~y == ~(x | y)``,
    and ``->`` walks choice functions lexicographically: with antecedent
    bodies ``x1..xm`` and consequent bodies ``y1..yn``, the body for choice
    ``g`` is ``(~x1 & y_g(1)) | ... | (~xm & y_g(m))``, using the
    intuitionistic equivalence of ``~x -> ~y`` with ``~(~x & y)``.
    """
    bodies: dict[int, tuple[Formula, ...]] = {}
    for g in _skeleton(f):
        bodies[id(g)] = _node_bodies(g, bodies)
    return NegDisjunction(bodies[id(f)])


@lru_cache(maxsize=256)
def _step_lemma(kind: type, m: int, k: int) -> bool:
    """Whether ``ipc_provable`` proves, within its default budget, one
    ``->``-free step of ``kp_normalize`` over fresh atoms: for ``|`` and
    ``&``, ``N(xs) op N(ys) <-> N(bodies)`` with ``xs = x1..xm`` and
    ``ys = y1..yk`` standing for the sides' bodies, where ``N(bs)`` is
    ``~b1 | ... | ~bj``; for a constant (``m == k == 0``), ``F <-> ~T`` or
    ``T <-> ~F``.  A search that runs out of budget is False, and kept."""
    xs = tuple(Atom(f"x{i}") for i in range(1, m + 1))
    ys = tuple(Atom(f"y{j}") for j in range(1, k + 1))
    if kind is Or or kind is And:
        g = kind(NegDisjunction(xs).to_formula(), NegDisjunction(ys).to_formula())
        sides = {id(g.lhs): xs, id(g.rhs): ys}
    else:
        g, sides = kind(), {}
    try:
        return ipc_provable(iff(g, NegDisjunction(_node_bodies(g, sides)).to_formula()))
    except SearchBudgetError:
        return False


def _lemma_bodies(skeleton: list[Formula], size: int) -> tuple[Formula, ...] | None:
    """The root's bodies of a ``->``-free, finite-rank ``skeleton``, built
    by ``_node_bodies`` node by node, when every step's lemma is proved, or
    None.  Each step is its lemma with the atoms renamed to the sides'
    bodies; IPC is closed under that substitution, under congruence and
    under transitivity of ``<->``, so the root is IPC-equivalent to the
    disjunction of negations of the result.  None also when the distinct
    lemmas hold more bodies in all than ``size``, the subformula count of
    the equivalence they would prove: there (say, a long left-nested chain,
    each step a new and larger shape) one search of the whole equivalence
    is the cheaper proof."""
    bodies: dict[int, tuple[Formula, ...]] = {}
    shapes: dict[tuple, int] = {}  # (kind, m, k) -> its lemma's bodies, first use first
    for g in skeleton:
        t = type(g)
        if t is Or or t is And:
            m, k = len(bodies[id(g.lhs)]), len(bodies[id(g.rhs)])
            shapes[t, m, k] = m + k if t is Or else m * k
        elif t is not Neg:
            shapes[t, 0, 0] = 1
        bodies[id(g)] = _node_bodies(g, bodies)
    if sum(shapes.values()) > size or not all(_step_lemma(*s) for s in shapes):
        return None
    return bodies[id(skeleton[-1])]


@dataclass(frozen=True)
class NormalFormReport:
    formula: Formula
    rank_matches: bool
    frame_checks: tuple[FrameCheck, ...]
    needs_weak_kp: bool
    ipc_equivalent: bool | None  # None: not attempted / search gave up
    constants_as_negations: bool = False  # a constant was ranked as ~T / ~F

    @property
    def ok(self) -> bool:
        return (self.rank_matches
                and all(fc.valid for fc in self.frame_checks)
                and self.ipc_equivalent is not False)


def verify_normal_form(f: Formula, nd: NegDisjunction, bound: int = 3, *,
                       seed: int = 0) -> NormalFormReport:
    """Check ``f`` against its claimed normal form on frames 1..bound.

    Frames small enough for an exhaustive sweep (valuation count at most
    ``_EXHAUSTIVE_VALUATIONS``) are checked exhaustively, the rest with
    ``valid_on``'s default count of seeded samples.  When the skeleton of
    ``f`` is free of ``->`` the equivalence is already intuitionistic.  If
    ``f`` has finite rank ``len(nd)``, every step's lemma (``_step_lemma``)
    is proved and the steps rebuild ``nd``'s bodies, it is proved by
    construction and ``ipc_equivalent`` is True without a search; otherwise
    the prover searches ``f <-> nd`` itself, so a False only ever comes from
    that search.  A ``bound`` outside the frame range is a ``ValueError``
    before any check runs.
    """
    frame(bound)
    both = iff(f, nd.to_formula())
    # a sweep costs valuations * world_count; largest frame first, as a valid
    # exhaustive sweep settles the smaller ones
    checks = tuple([valid_on(frame(n), both, "auto", seed=seed + n,
                             budget=_EXHAUSTIVE_VALUATIONS * frame(n).world_count)
                    for n in range(bound, 0, -1)][::-1])

    skeleton = _skeleton(f)
    skeleton_types = {type(g) for g in skeleton}
    needs_weak_kp = Imp in skeleton_types
    rank_matches = kp_rank(f).value == len(nd)  # and so finite: no atom leaf
    ipc_equivalent: bool | None = None
    if not needs_weak_kp:
        size = len(_compile_entry(both)[1])  # compiled by the sweeps, no second walk
        if rank_matches and _lemma_bodies(skeleton, size) == nd.bodies:
            ipc_equivalent = True
        else:
            try:
                ipc_equivalent = ipc_provable(both)
            except SearchBudgetError:
                ipc_equivalent = None

    return NormalFormReport(
        formula=f,
        rank_matches=rank_matches,
        frame_checks=checks,
        needs_weak_kp=needs_weak_kp,
        ipc_equivalent=ipc_equivalent,
        constants_as_negations=Bot in skeleton_types or Top in skeleton_types,
    )
