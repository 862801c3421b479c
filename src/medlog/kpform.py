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
order, and ``verify_normal_form`` checks the claimed equivalence on small
frames (plus a full intuitionistic proof when no ``->`` is involved).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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
from .medvedev import ValidityResult, frame, valid_on

RANK_CAP = 1 << 20


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


def kp_rank(f: Formula, cap: int = RANK_CAP) -> Rank:
    """Disjunct count of the normal form, or infinity; never wraps past ``cap``."""
    memo: dict[int, int | None] = {}  # by id: f keeps every node alive

    def go(g: Formula) -> int | None:
        if id(g) in memo:
            return memo[id(g)]
        r: int | None
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


@dataclass(frozen=True)
class NegDisjunction:
    """Bodies ``b1..bk`` standing for the formula ``~b1 | ... | ~bk``."""

    bodies: tuple[Formula, ...]

    def to_formula(self) -> Formula:
        return big_or([Neg(b) for b in self.bodies])

    def __len__(self) -> int:
        return len(self.bodies)


def kp_normalize(f: Formula, cap: int = RANK_CAP) -> NegDisjunction:
    """Bodies of the normal form, in a fixed construction order.

    ``|`` concatenates, ``&`` pairs row-major via ``~x & ~y == ~(x | y)``,
    and ``->`` walks choice functions lexicographically: with antecedent
    bodies ``x1..xm`` and consequent bodies ``y1..yn``, the body for choice
    ``g`` is ``(~x1 & y_g(1)) | ... | (~xm & y_g(m))``, using the
    intuitionistic equivalence of ``~x -> ~y`` with ``~(~x & y)``.
    """
    memo: dict[int, tuple[Formula, ...]] = {}  # by id: f keeps every node alive

    def check_len(k: int, g: Formula) -> None:
        _checked(k, g, cap)

    def go(g: Formula) -> tuple[Formula, ...]:
        if id(g) in memo:
            return memo[id(g)]
        out: tuple[Formula, ...]
        match g:
            case Neg(a):
                out = (a,)
            case Bot():
                out = (TOP,)
            case Top():
                out = (BOT,)
            case Or(a, b):
                xs, ys = go(a), go(b)
                check_len(len(xs) + len(ys), g)
                out = xs + ys
            case And(a, b):
                xs, ys = go(a), go(b)
                check_len(len(xs) * len(ys), g)
                out = tuple(Or(x, y) for x in xs for y in ys)
            case Imp(a, b):
                xs, ys = go(a), go(b)
                check_len(len(ys) ** len(xs), g)
                out = tuple(
                    big_or([And(Neg(x), ys[j]) for x, j in zip(xs, choice)])
                    for choice in itertools.product(range(len(ys)), repeat=len(xs))
                )
            case _:
                raise InfiniteRankError(
                    f"{render(g)} has no finite rank; cannot normalize"
                )
        memo[id(g)] = out
        return out

    return NegDisjunction(go(f))


def _skeleton_has_imp(f: Formula) -> bool:
    """Does an implication occur above the negations?"""
    match f:
        case Imp(_, _):
            return True
        case And(a, b) | Or(a, b):
            return _skeleton_has_imp(a) or _skeleton_has_imp(b)
        case _:
            return False


def _skeleton_has_constant(f: Formula) -> bool:
    """Is a constant ranked through ``F == ~T`` / ``T == ~F`` somewhere?"""
    match f:
        case Bot() | Top():
            return True
        case And(a, b) | Or(a, b) | Imp(a, b):
            return _skeleton_has_constant(a) or _skeleton_has_constant(b)
        case _:
            return False


@dataclass(frozen=True)
class FrameCheck:
    n: int
    mode: str  # "exhaustive" | "sample"
    valid: bool
    checked: int

    @classmethod
    def of(cls, n: int, res: ValidityResult) -> "FrameCheck":
        return cls(n, "exhaustive" if res.exhaustive else "sample", res.valid, res.checked)

    def to_obj(self) -> dict:
        return {"n": self.n, "mode": self.mode, "valid": self.valid, "checked": self.checked}


@dataclass(frozen=True)
class NormalFormReport:
    formula: Formula
    disjunct_count: int
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
                       max_exhaustive: int = 10**7, sample_count: int = 1000,
                       seed: int = 0) -> NormalFormReport:
    """Check ``f`` against its claimed normal form on frames 1..bound.

    Frames small enough for an exhaustive sweep (valuation count at most
    ``max_exhaustive``) are checked exhaustively, the rest with
    ``sample_count`` seeded samples.  When the skeleton of ``f`` is free of
    ``->`` the equivalence is already intuitionistic and is additionally
    fed to the prover in both directions.
    """
    both = iff(f, nd.to_formula())
    checks = []
    for n in range(1, bound + 1):
        fr = frame(n)
        # a sweep costs valuations * world_count, and max_exhaustive caps valuations
        res = valid_on(fr, both, "auto", count=sample_count, seed=seed + n,
                       budget=max_exhaustive * fr.world_count)
        checks.append(FrameCheck.of(n, res))

    needs_weak_kp = _skeleton_has_imp(f)
    ipc_equivalent: bool | None = None
    if not needs_weak_kp:
        try:
            ipc_equivalent = ipc_provable(both)
        except SearchBudgetError:
            ipc_equivalent = None

    rank = kp_rank(f)
    return NormalFormReport(
        formula=f,
        disjunct_count=len(nd),
        rank_matches=rank.value == len(nd),
        frame_checks=tuple(checks),
        needs_weak_kp=needs_weak_kp,
        ipc_equivalent=ipc_equivalent,
        constants_as_negations=_skeleton_has_constant(f),
    )
