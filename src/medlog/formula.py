"""Propositional formula AST, text syntax, and substitutions.

Surface syntax: atoms are lowercase identifiers, ``F``/``T`` are falsum and
verum, ``~`` negation, ``&`` conjunction, ``|`` disjunction, ``->``
implication.  Precedence ``~`` > ``&`` > ``|`` > ``->``; every binary
connective associates to the right, so ``a | b | c`` reads ``a | (b | c)``
and matches the fold used by :func:`big_or`.

Negation is a distinct constructor rather than sugar for ``Imp(x, BOT)``:
the rank rules dispatch on the ``~`` shape and must see it.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import ParseError

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True, repr=False)
class Atom:
    name: str


@dataclass(frozen=True, slots=True, repr=False)
class Bot:
    pass


@dataclass(frozen=True, slots=True, repr=False)
class Top:
    pass


@dataclass(frozen=True, slots=True, repr=False)
class Neg:
    body: "Formula"


@dataclass(frozen=True, slots=True, repr=False)
class And:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, slots=True, repr=False)
class Or:
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, slots=True, repr=False)
class Imp:
    lhs: "Formula"
    rhs: "Formula"


Formula = Atom | Bot | Top | Neg | And | Or | Imp

BOT = Bot()
TOP = Top()
NEG_TOP = Neg(TOP)  # canonical empty disjunction
NEG_BOT = Neg(BOT)  # canonical empty conjunction


def _formula_repr(self) -> str:
    return render(self)


for _cls in (Atom, Bot, Top, Neg, And, Or, Imp):
    _cls.__repr__ = _formula_repr


# --- parsing ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"->|[~&|()]|[a-z][a-zA-Z0-9_]*|[FT]")

_ATOM_START = ("identifier", "'F'", "'T'", "'~'", "'('")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", offset=pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    tokens.append(("", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> str:
        return self.tokens[self.i][0]

    def advance(self) -> str:
        tok = self.tokens[self.i][0]
        self.i += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        tok, off = self.tokens[self.i]
        shown = repr(tok) if tok else "end of input"
        raise ParseError(f"unexpected {shown}", offset=off, expected=expected)

    def imp(self) -> Formula:
        lhs = self.disj()
        if self.peek() == "->":
            self.advance()
            return Imp(lhs, self.imp())
        return lhs

    def disj(self) -> Formula:
        parts = [self.conj()]
        while self.peek() == "|":
            self.advance()
            parts.append(self.conj())
        return big_or(parts)

    def conj(self) -> Formula:
        parts = [self.neg()]
        while self.peek() == "&":
            self.advance()
            parts.append(self.neg())
        return big_and(parts)

    def neg(self) -> Formula:
        if self.peek() == "~":
            self.advance()
            return Neg(self.neg())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok == "F":
            self.advance()
            return BOT
        if tok == "T":
            self.advance()
            return TOP
        if tok == "(":
            self.advance()
            inner = self.imp()
            if self.peek() != ")":
                self.fail(("')'",))
            self.advance()
            return inner
        if tok and tok[0].islower():
            self.advance()
            return Atom(tok)
        self.fail(_ATOM_START)


def parse(text: str) -> Formula:
    """Parse surface syntax; raises ParseError with offset and expected tokens."""
    p = _Parser(_tokenize(text))
    f = p.imp()
    if p.peek() != "":
        p.fail(("'->'", "'|'", "'&'", "end of input"))
    return f


# --- rendering -------------------------------------------------------------

def _prec(f: Formula) -> int:
    match f:
        case Imp():
            return 1
        case Or():
            return 2
        case And():
            return 3
        case Neg():
            return 4
        case _:
            return 5


_INFIX = {And: (" & ", 3), Or: (" | ", 2), Imp: (" -> ", 1)}


def render(f: Formula) -> str:
    """Minimal-parenthesization text form; ``parse(render(f)) == f``.

    A right-nested chain of one binary connective (``big_or`` of many
    members) is walked in a loop, so its length does not deepen recursion.
    """
    match f:
        case Atom(name):
            return name
        case Bot():
            return "F"
        case Top():
            return "T"
        case Neg(body):
            s = render(body)
            return "~" + (s if _prec(body) >= 4 else f"({s})")
        case And() | Or() | Imp():
            kind = type(f)
            sep, level = _INFIX[kind]
            parts = []
            while type(f) is kind:
                parts.append(_child(f.lhs, level, True))
                f = f.rhs
            parts.append(_child(f, level, False))
            return sep.join(parts)
    raise TypeError(f"not a formula: {f!r}")


def _child(f: Formula, level: int, is_left: bool) -> str:
    s = render(f)
    p = _prec(f)
    # right-associative rendering: an equal-precedence left child needs parens
    if p < level or (is_left and p == level):
        return f"({s})"
    return s


# --- structure helpers -------------------------------------------------------

def _dag(f: Formula) -> tuple[list[Formula], list[tuple[int, ...]]]:
    """Structurally distinct subformulas of ``f``, children before parents and
    left before right, with the positions of each node's children.

    The walk keeps its own stack and hashes no formula: a node's key is
    ``(type, name)`` for an atom and ``(type, child positions)`` otherwise,
    and objects map to positions by ``id``, which is safe because ``f`` keeps
    every node alive for the call.
    """
    nodes: list[Formula] = []
    kids: list[tuple[int, ...]] = []
    index: dict[tuple, int] = {}
    pos: dict[int, int] = {}
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in pos:
            stack.pop()
            continue
        t = type(g)
        if t is And or t is Or or t is Imp:
            a, b = pos.get(id(g.lhs)), pos.get(id(g.rhs))
            if a is None or b is None:
                if b is None:
                    stack.append(g.rhs)
                if a is None:
                    stack.append(g.lhs)
                continue
            key = (t, a, b)
        elif t is Neg:
            a = pos.get(id(g.body))
            if a is None:
                stack.append(g.body)
                continue
            key = (t, a)
        elif t is Atom:
            key = (t, g.name)
        elif t is Bot or t is Top:
            key = (t,)
        else:
            raise TypeError(f"not a formula: {g!r}")
        stack.pop()
        i = index.setdefault(key, len(nodes))
        if i == len(nodes):
            nodes.append(g)
            kids.append(() if t is Atom else key[1:])
        pos[id(g)] = i
    return nodes, kids


def atoms(f: Formula) -> list[str]:
    """Atom identifiers in first-occurrence order."""
    return [g.name for g in _dag(f)[0] if type(g) is Atom]


def subformulas(f: Formula) -> Iterator[Formula]:
    """All distinct subformulas, children before parents."""
    yield from _dag(f)[0]


def big_or(parts: Iterable[Formula]) -> Formula:
    """Right-folded disjunction; empty input gives ``~T``."""
    items = list(parts)
    if not items:
        return NEG_TOP
    out = items[-1]
    for g in reversed(items[:-1]):
        out = Or(g, out)
    return out


def big_and(parts: Iterable[Formula]) -> Formula:
    """Right-folded conjunction; empty input gives ``~F``."""
    items = list(parts)
    if not items:
        return NEG_BOT
    out = items[-1]
    for g in reversed(items[:-1]):
        out = And(g, out)
    return out


def iff(a: Formula, b: Formula) -> Formula:
    return And(Imp(a, b), Imp(b, a))


# --- substitution ------------------------------------------------------------

@dataclass(frozen=True)
class Substitution:
    """Simultaneous atom replacement; unmapped atoms default to ``~T``."""

    mapping: Mapping[str, Formula]
    default: Formula = NEG_TOP

    def lookup(self, name: str) -> Formula:
        f = self.mapping.get(name)
        if f is None:
            logger.warning(
                "atom %r is not mapped; substituting %s", name, render(self.default)
            )
            return self.default
        return f


def apply_subst(s: Substitution, f: Formula) -> Formula:
    nodes, kids = _dag(f)
    out: list[Formula] = []
    for g, k in zip(nodes, kids):
        if type(g) is Atom:
            out.append(s.lookup(g.name))
        else:
            out.append(type(g)(*[out[i] for i in k]) if k else g)
    return out[-1]


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """``apply_subst(compose(outer, inner), f) == apply_subst(outer, apply_subst(inner, f))``."""
    mapping = {p: apply_subst(outer, g) for p, g in inner.mapping.items()}
    return Substitution(mapping, default=apply_subst(outer, inner.default))
