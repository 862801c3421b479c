"""Oracles the tests check the library against: definitions no library path
needs, kept here so that ``src/medlog`` holds only code it runs.

Test modules import it as ``oracles``; pytest puts this directory on
``sys.path``, and so does running a script from it.
"""

import random
from typing import Mapping, Sequence

from medlog import medvedev
from medlog.alpha import AlphaFamily
from medlog.errors import RankOverflowError
from medlog.formula import And, Formula, Imp, Neg, Or, parse
from medlog.kpform import kp_rank
from medlog.medvedev import (MedvedevFrame, RefutationWitness, UpSet, Valuation,
                             World, frame, is_upset, truth_set, valuation_from_obj, world)
from medlog.randgen import random_formula


def family_atoms(family: AlphaFamily) -> list[str]:
    """The atoms ``p1..pm`` the family's members are built from."""
    return [f"p{j}" for j in range(1, family.m + 1)]


def is_maximal(w: World) -> bool:
    """Whether ``w`` is a maximal world: a singleton generator set."""
    return w.bit_count() == 1


def down_bits(fr: MedvedevFrame, w: World) -> UpSet:
    """Worlds <= w: the supersets of w."""
    free = fr.world_count & ~w  # world_count doubles as the full mask
    bits = 0
    s = free
    while True:
        bits |= 1 << ((w | s) - 1)
        if s == 0:
            break
        s = (s - 1) & free
    return bits


def le(a: World, b: World) -> bool:
    """a <= b in a Medvedev frame: the generator set of b is contained in that of a."""
    return a | b == a


def monotone_violations(pm: medvedev.PMorphism) -> list[tuple]:
    """``("monotone", x, y)`` for every pair of worlds ``x <= y`` of ``M_m``
    whose images are not ordered, over all pairs in ascending order."""
    fr = frame(pm.m)
    return [("monotone", x, y) for x in fr.worlds() for y in fr.worlds()
            if le(x, y) and not le(pm.apply(x), pm.apply(y))]


def persistence_check(fr: MedvedevFrame, val: Valuation, f: Formula) -> bool:
    """Whether the truth set of ``f`` is upward closed under ``val``."""
    return is_upset(fr, truth_set(fr, val, f))


def witness_from_obj(obj: Mapping) -> RefutationWitness:
    """The witness ``RefutationWitness.to_obj`` wrote, re-checked on construction."""
    n = int(obj["n"])
    fr = frame(n)
    val = valuation_from_obj(fr, obj["valuation"])
    w = world(*obj["world"])
    f = parse(obj["formula"])
    return RefutationWitness(n, val, w, f)


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


def full_order_chunks(fr: MedvedevFrame, names: list[str], instructions: int):
    """Every valuation over ``names`` in ``iter_valuations`` order, cut into
    chunks as an exhaustive sweep cuts its lex-leaders: the unreduced stream
    that a sweep of leaders must agree with."""
    u, k = len(medvedev._upset_list(fr.n)), len(names)
    cap = medvedev._chunk_cap(fr, instructions, medvedev._CHUNK_VALUATIONS)
    for start, length, values in medvedev._packed_chunks(fr.n, k, cap, [(0, 1, u**k)]):
        yield start, length, dict(zip(names, values))
