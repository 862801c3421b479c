"""Seeded random formula generators for property tests and probe sets."""

from __future__ import annotations

import random
from typing import Sequence

from .formula import (_AND, _ATOM, _BINARY, _CONST, _IMP, _NEG, _OR, BOT, TOP, Atom,
                      Formula, Neg)

_CONNECTIVES = (_NEG, _AND, _OR, _IMP)  # by ``rng.randrange(4)``
_BINARY_CLASSES = {op: cls for cls, op in _BINARY.items()}


def _draw(rng: random.Random, atom_names: Sequence[str], depth: int,
          nodes: list[Formula], prog: list[tuple], index: dict[tuple, int]) -> int:
    """Draw one formula, appending the instruction of each node to the
    ``_dag`` table ``(nodes, prog, index)`` as it is drawn, and return its
    position.  A ``Formula`` is built only for an instruction new to the
    table.

    The draw is the recursive one, a node at depth ``d`` being a leaf when
    ``d == 0`` or with probability 1/4, a leaf an atom with probability 4/5,
    and a connective's children drawn left first, but it runs as one loop
    over an explicit stack: ``waiting`` holds each connective still missing
    a child, with its children's depth and its left child's position once
    known, and a finished node is combined into the connectives it completes
    at once.  Each ``rng.randrange(k)`` is the ``getrandbits(k.bit_length())``
    rejection loop that ``random.Random`` runs for it, so the generator makes
    the same calls and ends in the same state.  Nothing is kept between
    calls.
    """
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    rand, bits = rng.random, rng.getrandbits
    names = len(atom_names)
    width = names.bit_length()
    waiting: list[tuple[int, int, int]] = []  # (op, children's depth, left child or -1)
    d = depth
    while True:
        if d and rand() >= 0.25:
            r = bits(3)
            while r >= 4:
                r = bits(3)
            d -= 1
            waiting.append((_CONNECTIVES[r], d, -1))
            continue
        roll = rand()
        if roll < 0.8 and names:
            r = bits(width)
            while r >= names:
                r = bits(width)
            ins = (_ATOM, atom_names[r], 0)
        else:
            ins = (_CONST, int(roll < 0.9), 0)
        while True:  # intern the node, then each connective it completes
            i = index.get(ins)
            if i is None:
                i = index[ins] = len(prog)
                prog.append(ins)
                op, a, b = ins
                nodes.append(Atom(a) if op == _ATOM else (TOP if a else BOT) if op == _CONST
                             else Neg(nodes[a]) if op == _NEG
                             else _BINARY_CLASSES[op](nodes[a], nodes[b]))
            if not waiting:
                return i
            op, d, a = waiting.pop()
            if op == _NEG:
                ins = (op, i, 0)
            elif a < 0:  # the right child is next, at depth d
                waiting.append((op, d, i))
                break
            else:
                ins = (op, a, i)


def random_formula(rng: random.Random, atom_names: Sequence[str], depth: int) -> Formula:
    """Arbitrary formula of at most the given connective depth: the draw into
    a fresh table, so equal subformulas are one object."""
    nodes: list[Formula] = []
    return nodes[_draw(rng, atom_names, depth, nodes, [], {})]
