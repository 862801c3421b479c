"""Independent re-check of refutation witnesses printed by ``medlog refute``.

Worlds are frozensets of generators and forcing is the textbook recursion,
world by world over the up-cone, so nothing here shares code or encoding with
medlog's bitset evaluator.
"""

from __future__ import annotations

from itertools import combinations

import gen


def _above(w: frozenset) -> list[frozenset]:
    """The worlds at or above ``w``: its non-empty subsets."""
    items = sorted(w)
    return [frozenset(c) for r in range(1, len(items) + 1) for c in combinations(items, r)]


def forces(val: dict[str, set[frozenset]], w: frozenset, f: tuple) -> bool:
    memo: dict[tuple, bool] = {}

    def go(x: frozenset, g: tuple) -> bool:
        key = (x, id(g))
        hit = memo.get(key)
        if hit is not None:
            return hit
        kind = g[0]
        if kind == "atom":
            out = x in val[g[1]]
        elif kind in ("bot", "top"):
            out = kind == "top"
        elif kind == "and":
            out = go(x, g[1]) and go(x, g[2])
        elif kind == "or":
            out = go(x, g[1]) or go(x, g[2])
        elif kind == "neg":
            out = not any(go(y, g[1]) for y in _above(x))
        else:
            out = all(not go(y, g[1]) or go(y, g[2]) for y in _above(x))
        memo[key] = out
        return out

    return go(w, f)


def witness_problem(obj: dict, f: tuple) -> str | None:
    """Why ``obj`` (a witness as printed by ``medlog refute``) does not refute
    ``f``, or None when it does."""
    n = obj.get("n")
    if not isinstance(n, int) or not 1 <= n <= 20:
        return f"bad frame size {n!r}"
    if obj.get("formula") != gen.render(f):
        return f"witness formula {obj.get('formula')!r} is not the input"
    everything = frozenset(range(1, n + 1))

    def as_world(gs) -> frozenset | None:
        w = frozenset(gs)
        return w if w and w <= everything and len(w) == len(gs) else None

    val = {}
    for name in gen.atoms(f):
        if name not in obj.get("valuation", {}):
            return f"atom {name} not interpreted"
        worlds = {as_world(gs) for gs in obj["valuation"][name]}
        if None in worlds:
            return f"valuation of {name} names a world outside M_{n}"
        if any(y not in worlds for w in worlds for y in _above(w)):
            return f"valuation of {name} is not upward closed"
        val[name] = worlds
    w = as_world(obj.get("world", []))
    if w is None:
        return "witness world outside the frame"
    if forces(val, w, f):
        return "witness world forces the formula"
    return None
