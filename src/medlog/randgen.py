"""Seeded random formula generators for property tests and probe sets."""

from __future__ import annotations

import random
from typing import Sequence

from .errors import RankOverflowError
from .formula import BOT, TOP, And, Atom, Formula, Imp, Neg, Or
from .kpform import kp_rank


def random_formula(rng: random.Random, atom_names: Sequence[str], depth: int) -> Formula:
    """Arbitrary formula of at most the given connective depth."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.8 and atom_names:
            return Atom(atom_names[rng.randrange(len(atom_names))])
        return TOP if roll < 0.9 else BOT
    k = rng.randrange(4)
    if k == 0:
        return Neg(random_formula(rng, atom_names, depth - 1))
    a = random_formula(rng, atom_names, depth - 1)
    b = random_formula(rng, atom_names, depth - 1)
    return (And, Or, Imp)[k - 1](a, b)


def random_finite_rank_formula(rng: random.Random, atom_names: Sequence[str],
                               max_rank: int = 64, skeleton_depth: int = 3,
                               body_depth: int = 3) -> Formula:
    """Negations composed by ``|``/``&``/``->``, rejection-sampled to the rank cap."""

    def skeleton(depth: int) -> Formula:
        if depth == 0 or rng.random() < 0.4:
            return Neg(random_formula(rng, atom_names, body_depth))
        roll = rng.random()
        a = skeleton(depth - 1)
        b = skeleton(depth - 1)
        if roll < 0.45:
            return Or(a, b)
        if roll < 0.8:
            return And(a, b)
        return Imp(a, b)

    for _ in range(100):
        f = skeleton(skeleton_depth)
        try:
            r = kp_rank(f)
        except RankOverflowError:
            continue
        if r.value is not None and r.value <= max_rank:
            return f
    return Neg(random_formula(rng, atom_names, body_depth))
