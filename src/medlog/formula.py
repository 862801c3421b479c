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


_BIN = {"->": (1, Imp), "|": (2, Or), "&": (3, And)}

_AFTER_OPERAND = ("'->'", "'|'", "'&'", "end of input")


def _unexpected(tok: str, off: int, expected: tuple[str, ...]) -> ParseError:
    shown = repr(tok) if tok else "end of input"
    return ParseError(f"unexpected {shown}", offset=off, expected=expected)


def parse(text: str) -> Formula:
    """Parse surface syntax; raises ParseError with offset and expected tokens.

    Operator precedence over explicit stacks: ``args`` holds finished
    operands and ``ops`` the pending ``~``, ``(`` and binary operators.  The
    binary operators associate to the right, so an incoming one reduces only
    the operators that bind strictly tighter.
    """
    args: list[Formula] = []
    ops: list[str] = []
    opened = 0  # '(' on ops, counted so that no check scans the stack
    operand = True  # an operand is due next
    for tok, off in _tokenize(text):
        if operand:
            if tok == "~" or tok == "(":
                ops.append(tok)
                opened += tok == "("
                continue
            if tok == "F":
                args.append(BOT)
            elif tok == "T":
                args.append(TOP)
            elif tok[:1].islower():
                args.append(Atom(tok))
            else:
                raise _unexpected(tok, off, _ATOM_START)
            operand = False
        else:
            bind = _BIN[tok][0] if tok in _BIN else 0
            if not bind and not (tok == ")" and opened or tok == "" and not opened):
                raise _unexpected(tok, off, ("')'",) if opened else _AFTER_OPERAND)
            while ops and ops[-1] in _BIN and _BIN[ops[-1]][0] > bind:
                rhs = args.pop()
                args[-1] = _BIN[ops.pop()][1](args[-1], rhs)
            if bind:
                ops.append(tok)
                operand = True
                continue
            if not tok:
                return args[0]
            ops.pop()  # the matching '('
            opened -= 1
        while ops and ops[-1] == "~":
            ops.pop()
            args[-1] = Neg(args[-1])


# --- rendering -------------------------------------------------------------

_INFIX = {And: (" & ", 3), Or: (" | ", 2), Imp: (" -> ", 1)}


def render(f: Formula) -> str:
    """Minimal-parenthesization text form; ``parse(render(f)) == f``.

    One explicit stack holds literal text and ``(formula, need)`` pairs,
    where ``need`` is the least precedence printed without brackets: a left
    child needs one more than its connective, a right child the same, and
    a ``~`` body 4, so only binary nodes are ever bracketed.
    """
    out: list[str] = []
    stack: list = [(f, 0)]
    while stack:
        top = stack.pop()
        if type(top) is str:
            out.append(top)
            continue
        g, need = top
        t = type(g)
        if t is Atom:
            out.append(g.name)
        elif t is Bot or t is Top:
            out.append("F" if t is Bot else "T")
        elif t is Neg:
            out.append("~")
            stack.append((g.body, 4))
        elif t in _INFIX:
            sep, level = _INFIX[t]
            if level < need:
                out.append("(")
                stack.append(")")
            stack += ((g.rhs, level), sep, (g.lhs, level + 1))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


# --- structure helpers -------------------------------------------------------

# Forcing instructions: ``(op, a, b)`` with ``a``/``b`` the positions of the
# children, ``(_ATOM, name, 0)`` for an atom and ``(_CONST, 1 or 0, 0)`` for
# ``T`` or ``F``.
_ATOM, _CONST, _AND, _OR, _NEG, _IMP = range(6)
_BINARY = {And: _AND, Or: _OR, Imp: _IMP}


def _dag(*roots: Formula) -> tuple[list[Formula], list[tuple], dict[tuple, int], list[int]]:
    """One table of the structurally distinct subformulas of ``roots``,
    children before parents, left before right and root after root, with the
    forcing instruction of each: ``(nodes, prog, index, at)``, where ``index``
    maps an instruction to its position and ``at`` lists each root's position.
    For one root the root comes last.

    The walk keeps its own stack and hashes no formula: a node's instruction
    is also its key, and objects map to positions by ``id``, which is safe
    because the roots keep every node alive for the call.
    """
    nodes: list[Formula] = []
    prog: list[tuple] = []
    index: dict[tuple, int] = {}
    pos: dict[int, int] = {}
    at: list[int] = []
    for f in roots:
        stack = [f]
        while stack:
            g = stack[-1]
            if id(g) in pos:
                stack.pop()
                continue
            t = type(g)
            op = _BINARY.get(t)
            if op is not None:
                a, b = pos.get(id(g.lhs)), pos.get(id(g.rhs))
                if a is None or b is None:
                    if b is None:
                        stack.append(g.rhs)
                    if a is None:
                        stack.append(g.lhs)
                    continue
                ins = (op, a, b)
            elif t is Neg:
                a = pos.get(id(g.body))
                if a is None:
                    stack.append(g.body)
                    continue
                ins = (_NEG, a, 0)
            elif t is Atom:
                ins = (_ATOM, g.name, 0)
            elif t is Bot or t is Top:
                ins = (_CONST, int(t is Top), 0)
            else:
                raise TypeError(f"not a formula: {g!r}")
            stack.pop()
            i = index.setdefault(ins, len(nodes))
            if i == len(nodes):
                nodes.append(g)
                prog.append(ins)
            pos[id(g)] = i
        at.append(pos[id(f)])
    return nodes, prog, index, at


def _program_atoms(prog: list[tuple]) -> list[str]:
    """Atom names of a program in first-occurrence order."""
    return [a for op, a, _ in prog if op == _ATOM]


def atoms(f: Formula) -> list[str]:
    """Atom identifiers in first-occurrence order."""
    return _program_atoms(_dag(f)[1])


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
    nodes, prog = _dag(f)[:2]
    out: list[Formula] = []
    for g, (op, a, b) in zip(nodes, prog):
        if op == _ATOM:
            out.append(s.lookup(a))
        elif op == _CONST:
            out.append(g)
        elif op == _NEG:
            out.append(Neg(out[a]))
        else:
            out.append(type(g)(out[a], out[b]))
    return out[-1]


def compose(outer: Substitution, inner: Substitution) -> Substitution:
    """``apply_subst(compose(outer, inner), f) == apply_subst(outer, apply_subst(inner, f))``."""
    mapping = {p: apply_subst(outer, g) for p, g in inner.mapping.items()}
    return Substitution(mapping, default=apply_subst(outer, inner.default))
