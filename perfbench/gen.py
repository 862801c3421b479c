"""Seeded benchmark inputs: a formula syntax tree of the benchmark's own.

Nothing here imports medlog, so a change to the library (its random formula
generator in particular) cannot change what a workload feeds it.  Formulas
are nested tuples::

    ("atom", name) | ("bot",) | ("top",) | ("neg", f) | (op, lhs, rhs)

with ``op`` one of ``"and"``, ``"or"``, ``"imp"``.  ``render`` produces
medlog's surface syntax with its minimal parenthesisation, so a formula's
text is also the text medlog prints back for it.
"""

from __future__ import annotations

import itertools
import random

BOT = ("bot",)
TOP = ("top",)
BINARY = ("and", "or", "imp")

_PREC = {"imp": 1, "or": 2, "and": 3, "neg": 4}
_OP_TEXT = {"and": "&", "or": "|", "imp": "->"}


def atom(name: str) -> tuple:
    return ("atom", name)


def neg(f: tuple) -> tuple:
    return ("neg", f)


def big(op: str, parts: list) -> tuple:
    """Right fold, as medlog's parser groups ``a | b | c``."""
    out = parts[-1]
    for g in reversed(parts[:-1]):
        out = (op, g, out)
    return out


def iff(a: tuple, b: tuple) -> tuple:
    return ("and", ("imp", a, b), ("imp", b, a))


def render(f: tuple) -> str:
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "bot":
        return "F"
    if kind == "top":
        return "T"
    if kind == "neg":
        s = render(f[1])
        return "~" + (s if _PREC.get(f[1][0], 5) >= 4 else f"({s})")
    level = _PREC[kind]
    return (f"{_child(f[1], level, True)} {_OP_TEXT[kind]} "
            f"{_child(f[2], level, False)}")


def _child(f: tuple, level: int, is_left: bool) -> str:
    s = render(f)
    p = _PREC.get(f[0], 5)
    if p < level or (is_left and p == level):  # binary connectives group right
        return f"({s})"
    return s


def atoms(f: tuple) -> list[str]:
    """Atom names in first-occurrence order."""
    seen: dict[str, None] = {}
    todo = [f]
    while todo:
        g = todo.pop()
        if g[0] == "atom":
            seen.setdefault(g[1], None)
        else:
            todo.extend(reversed(g[1:]))
    return list(seen)


def size(f: tuple) -> int:
    return 1 + sum(size(g) for g in f[1:] if isinstance(g, tuple))


def rank(f: tuple, cap: int) -> int | None:
    """Disjunct count of the negation normal form, None if infinite or over ``cap``.

    A negation or constant counts 1; ``|`` adds, ``&`` multiplies, ``->``
    raises the consequent's count to the antecedent's.
    """
    kind = f[0]
    if kind in ("neg", "bot", "top"):
        return 1
    if kind == "atom":
        return None
    x, y = rank(f[1], cap), rank(f[2], cap)
    if x is None or y is None:
        return None
    r = x + y if kind == "or" else x * y if kind == "and" else y ** x
    return r if r <= cap else None


def truth(f: tuple, assign: dict[str, bool]) -> bool:
    kind = f[0]
    if kind == "atom":
        return assign[f[1]]
    if kind == "bot":
        return False
    if kind == "top":
        return True
    if kind == "neg":
        return not truth(f[1], assign)
    a = truth(f[1], assign)
    if kind == "and":
        return a and truth(f[2], assign)
    if kind == "or":
        return a or truth(f[2], assign)
    return (not a) or truth(f[2], assign)


def classically_valid(f: tuple) -> bool:
    names = atoms(f)
    return all(truth(f, dict(zip(names, row)))
               for row in itertools.product((False, True), repeat=len(names)))


def random_formula(rng: random.Random, names: list[str], depth: int,
                   leaf_p: float = 0.3) -> tuple:
    if depth == 0 or rng.random() < leaf_p:
        roll = rng.random()
        if roll < 0.9:
            return atom(rng.choice(names))
        return TOP if roll < 0.95 else BOT
    k = rng.randrange(4)
    if k == 0:
        return neg(random_formula(rng, names, depth - 1, leaf_p))
    return (BINARY[k - 1], random_formula(rng, names, depth - 1, leaf_p),
            random_formula(rng, names, depth - 1, leaf_p))


def random_finite_rank(rng: random.Random, names: list[str], *, skeleton_depth: int,
                       body_depth: int, ranks: range, sizes: range) -> tuple:
    """Negations combined by ``|``/``&``/``->``, using every name, with rank
    and node count in the given ranges; rejection sampled."""

    def skeleton(depth: int) -> tuple:
        if depth == 0 or rng.random() < 0.35:
            return neg(random_formula(rng, names, body_depth))
        roll = rng.random()
        op = "or" if roll < 0.45 else "and" if roll < 0.75 else "imp"
        return (op, skeleton(depth - 1), skeleton(depth - 1))

    while True:
        f = skeleton(skeleton_depth)
        if (size(f) in sizes and rank(f, ranks[-1]) in ranks
                and len(atoms(f)) == len(names)):
            return f


# --- Medvedev frames, in the benchmark's own terms ----------------------------
# A world of M_n is the bitmask of a non-empty subset of {1..n}; a world lies
# above another when its subset is smaller.  medlog encodes a set of worlds
# as an integer with bit (mask - 1) set for each member world.


def up_closure(n: int, worlds: set[int]) -> set[int]:
    out = set()
    for w in worlds:
        s = w
        while s:
            out.add(s)
            s = (s - 1) & w
    return out


def random_upset(rng: random.Random, n: int) -> set[int]:
    """Up-closure of a random world set; sparse picks so that the sets vary."""
    count = (1 << n) - 1
    picks = {w for w in range(1, count + 1) if rng.random() < 1.0 / (n + 1)}
    return up_closure(n, picks)


def to_bits(worlds: set[int]) -> int:
    bits = 0
    for w in worlds:
        bits |= 1 << (w - 1)
    return bits


# --- formula families with known status -----------------------------------------


def pigeonhole(holes: int, prefix: str, rng: random.Random) -> tuple:
    """``~(every pigeon in a hole & no hole shared)`` for holes + 1 pigeons: an
    intuitionistic theorem (Glivenko), conjuncts in seeded order."""
    p = {(i, j): atom(f"{prefix}{i}_{j}") for i in range(holes + 1) for j in range(holes)}
    clauses = [big("or", [p[i, j] for j in range(holes)]) for i in range(holes + 1)]
    clauses += [neg(("and", p[i, j], p[k, j]))
                for j in range(holes) for i in range(holes + 1)
                for k in range(i + 1, holes + 1)]
    rng.shuffle(clauses)
    return neg(big("and", clauses))


def de_bruijn(k: int, prefix: str, rng: random.Random) -> tuple:
    """``/\\_i ((p_i <-> p_i+1) -> c) -> c`` around a cycle of k atoms, with
    ``c`` their conjunction: a theorem for odd k, classically false for even k."""
    ps = [atom(f"{prefix}{i}") for i in range(k)]
    c = big("and", ps)
    hyps = [("imp", iff(ps[i], ps[(i + 1) % k]), c) for i in range(k)]
    rng.shuffle(hyps)
    return ("imp", big("and", hyps), c)


def kreisel_putnam(a: tuple, disjuncts: list[tuple]) -> tuple:
    """``(~a -> b1 | .. | bk) -> (~a -> b1) | .. | (~a -> bk)``: valid on every
    Medvedev frame for any substitution, in general not intuitionistic."""
    na = neg(a)
    return ("imp", ("imp", na, big("or", disjuncts)),
            big("or", [("imp", na, b) for b in disjuncts]))
