"""Seeded random formula generators for property tests and probe sets."""

from __future__ import annotations

import random
from typing import Sequence

from .formula import (_ATOM, _BINARY, _CONST, _NEG, BOT, TOP, And, Atom, Formula, Imp,
                      Neg, Or)

_CONNECTIVES = (Neg, And, Or, Imp)  # by ``rng.randrange(4)``


def _draw(rng: random.Random, atom_names: Sequence[str], depth: int,
          nodes: list[Formula], prog: list[tuple], index: dict[tuple, int]) -> int:
    """Draw one formula, appending the instruction of each node to the
    ``_dag`` table ``(nodes, prog, index)`` as it is drawn, and return its
    position.  A ``Formula`` is built only for an instruction new to the
    table."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.8 and atom_names:
            ins = (_ATOM, atom_names[rng.randrange(len(atom_names))], 0)
        else:
            ins = (_CONST, int(roll < 0.9), 0)
    else:
        cls = _CONNECTIVES[rng.randrange(4)]
        a = _draw(rng, atom_names, depth - 1, nodes, prog, index)
        ins = ((_NEG, a, 0) if cls is Neg
               else (_BINARY[cls], a, _draw(rng, atom_names, depth - 1, nodes, prog, index)))
    i = index.get(ins)
    if i is None:
        i = index[ins] = len(prog)
        prog.append(ins)
        op, a, b = ins
        nodes.append(Atom(a) if op == _ATOM else (TOP if a else BOT) if op == _CONST
                     else Neg(nodes[a]) if op == _NEG else cls(nodes[a], nodes[b]))
    return i


def random_formula(rng: random.Random, atom_names: Sequence[str], depth: int) -> Formula:
    """Arbitrary formula of at most the given connective depth: the draw into
    a fresh table, so equal subformulas are one object."""
    nodes: list[Formula] = []
    return nodes[_draw(rng, atom_names, depth, nodes, [], {})]
