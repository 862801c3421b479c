"""Medvedev frames and Kripke forcing over them.

The frame for parameter ``n`` has one world per non-empty subset of
``{1..n}``, ordered so that the world for ``I`` lies below the world for
``J`` exactly when ``J`` is a subset of ``I``.  The full set is the single
bottom world and the singletons are the maximal worlds.

Encoding: a world is the ``n``-bit mask of its generator set (so masks run
``1 .. 2**n - 1``), and a set of worlds is an integer bitset whose bit
``mask - 1`` stands for the world ``mask``.  Moving *up* in the order means
shrinking the generator set, so an upward-closed set of worlds is one closed
under non-empty submasks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterable, Iterator, Mapping

from .errors import LimitError, SelfCheckError, UnknownAtomError
from .formula import (
    And,
    Atom,
    Formula,
    Imp,
    Neg,
    Or,
    Top,
    _dag,
    atoms,
    parse,
    render,
)

World = int  # non-zero generator bitmask
UpSet = int  # bitset over worlds, bit (mask - 1)

MAX_N = 20
MAX_EXHAUSTIVE_N = 6
DEFAULT_VALUATION_BUDGET = 10**9

# number of up-sets of the frame, for budget arithmetic (one less than the
# count of antichain-generated monotone set families on n points)
UPSET_COUNTS = {1: 2, 2: 5, 3: 19, 4: 167, 5: 7580, 6: 7828353}


def world(*gens: int) -> World:
    """World mask from generator numbers, e.g. ``world(1, 3) == 0b101``."""
    mask = 0
    for g in gens:
        if g < 1:
            raise ValueError(f"generators are 1-based, got {g}")
        mask |= 1 << (g - 1)
    if mask == 0:
        raise ValueError("a world needs at least one generator")
    return mask


def gens(w: World) -> tuple[int, ...]:
    """Sorted generator numbers of a world mask."""
    out = []
    i = 1
    while w:
        if w & 1:
            out.append(i)
        w >>= 1
        i += 1
    return tuple(out)


class MedvedevFrame:
    """Frame tables; obtain instances through :func:`frame`."""

    __slots__ = ("n", "world_count", "all_worlds", "_up", "_down", "_covers")

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"frame parameter must be in 1..{MAX_N}, got {n}")
        self.n = n
        self.world_count = (1 << n) - 1
        self.all_worlds: UpSet = (1 << self.world_count) - 1
        self._up: list[int | None] = [None] * (self.world_count + 1)
        self._down: list[int | None] = [None] * (self.world_count + 1)
        self._covers: list[int | None] = [None] * (self.world_count + 1)

    def __repr__(self) -> str:
        return f"M_{self.n}"

    def worlds(self) -> range:
        return range(1, self.world_count + 1)

    def le(self, a: World, b: World) -> bool:
        """a <= b: the generator set of b is contained in that of a."""
        return a | b == a

    def bottom(self) -> World:
        return self.world_count

    def is_maximal(self, w: World) -> bool:
        return w.bit_count() == 1

    def up_bits(self, w: World) -> UpSet:
        """Worlds >= w: the non-empty submasks of w."""
        cached = self._up[w]
        if cached is None:
            bits = 0
            s = w
            while s:
                bits |= 1 << (s - 1)
                s = (s - 1) & w
            self._up[w] = cached = bits
        return cached

    def down_bits(self, w: World) -> UpSet:
        """Worlds <= w: the supersets of w."""
        cached = self._down[w]
        if cached is None:
            free = self.world_count & ~w  # world_count doubles as the full mask
            bits = 0
            s = free
            while True:
                bits |= 1 << ((w | s) - 1)
                if s == 0:
                    break
                s = (s - 1) & free
            self._down[w] = cached = bits
        return cached

    def covers_bits(self, w: World) -> UpSet:
        """Worlds immediately above w: one generator removed."""
        cached = self._covers[w]
        if cached is None:
            bits = 0
            s = w
            while s:
                lsb = s & -s
                if w != lsb:
                    bits |= 1 << ((w ^ lsb) - 1)
                s ^= lsb
            self._covers[w] = cached = bits
        return cached


@lru_cache(maxsize=None)
def frame(n: int) -> MedvedevFrame:
    return MedvedevFrame(n)


# --- packed world sets ----------------------------------------------------------
#
# Several valuations are evaluated at once by packing their world sets into
# one int: valuation ``v`` owns block ``v`` of ``max(8, 2**n)`` bits, and world
# ``mask`` is bit ``mask - 1`` of its block.  Blocks are byte-aligned, and a
# single block is an ordinary world bitset.  Adding generator ``i`` to a world
# moves its bit ``2**i`` places up within the block, so closing a set up or
# down the order takes one shift-and-mask step per generator (the superset
# zeta transform).

def _block_bits(n: int) -> int:
    return max(8, 1 << n)


def _repeat(pattern: int, width: int, times: int) -> int:
    """``pattern`` of ``width`` bits repeated ``times`` times, lowest first."""
    return pattern * (((1 << width * times) - 1) // ((1 << width) - 1))


@lru_cache(maxsize=64)
def _layout(n: int, count: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """For ``count`` packed blocks of ``M_n``: the bits of all worlds, and per
    generator ``i`` the shift ``2**i`` with the bits of the worlds that hold
    generator ``i`` and at least one other."""
    block = _block_bits(n)
    steps = []
    for i in range(n):
        shift = 1 << i
        # bit m set for the masks m < 2**n holding generator i
        holders = _repeat(((1 << shift) - 1) << shift, 2 * shift, 1 << (n - 1 - i))
        mask = (holders >> 1) & ~(1 << (shift - 1))  # to bit m - 1; drop m == 2**i
        steps.append((shift, _repeat(mask, block, count)))
    return _repeat(frame(n).all_worlds, block, count), tuple(steps)


def _down(bits: int, steps) -> int:
    """Worlds below some world of ``bits``: generators added one at a time."""
    for shift, mask in steps:
        bits |= (bits << shift) & mask
    return bits


# --- up-sets ----------------------------------------------------------------

def close_up(fr: MedvedevFrame, bits: int) -> UpSet:
    """Upward closure of any set of worlds: generators removed one at a time."""
    for shift, mask in _layout(fr.n, 1)[1]:
        bits |= (bits & mask) >> shift
    return bits


def down_closure(fr: MedvedevFrame, bits: int) -> int:
    """Downward closure of any set of worlds."""
    return _down(bits, _layout(fr.n, 1)[1])


def is_upset(fr: MedvedevFrame, bits: int) -> bool:
    return close_up(fr, bits) == bits


def upset_from_worlds(fr: MedvedevFrame, worlds: Iterable[World]) -> UpSet:
    bits = 0
    for w in worlds:
        if not 1 <= w <= fr.world_count:
            raise ValueError(f"world mask {w} outside {fr!r}")
        bits |= 1 << (w - 1)
    return bits


def upset_worlds(bits: UpSet) -> Iterator[World]:
    """Worlds of a bitset in ascending mask order."""
    while bits:
        lsb = bits & -bits
        bits ^= lsb
        yield lsb.bit_length()


def enumerate_upsets(fr: MedvedevFrame) -> Iterator[UpSet]:
    """Every upward-closed world set exactly once, ascending as bitset integers.

    Worlds are decided bottom-up; a world already required as the cover of an
    included world cannot be excluded, which prunes non-closed sets without
    filtering.
    """
    if fr.n > MAX_EXHAUSTIVE_N:
        raise LimitError(f"up-set enumeration supports n <= {MAX_EXHAUSTIVE_N}")

    def rec(mask: int, bits: int, needed: int) -> Iterator[UpSet]:
        if mask == 0:
            yield bits
            return
        bit = 1 << (mask - 1)
        if not needed & bit:
            yield from rec(mask - 1, bits, needed)
        yield from rec(mask - 1, bits | bit, needed | fr.covers_bits(mask))

    yield from rec(fr.world_count, 0, 0)


@lru_cache(maxsize=8)
def _upset_list(n: int) -> tuple[UpSet, ...]:
    return tuple(enumerate_upsets(frame(n)))


# --- valuations ---------------------------------------------------------------

@dataclass(frozen=True)
class Valuation:
    """Atom identifiers mapped to upward-closed world bitsets."""

    frame: MedvedevFrame
    map: Mapping[str, UpSet]

    def check(self) -> None:
        for atom, bits in self.map.items():
            if bits >> self.frame.world_count:
                raise ValueError(f"valuation of {atom!r} mentions foreign worlds")
            if not is_upset(self.frame, bits):
                raise ValueError(f"valuation of {atom!r} is not upward closed")

    def to_obj(self) -> dict:
        return {
            atom: [list(gens(w)) for w in upset_worlds(bits)]
            for atom, bits in sorted(self.map.items())
        }


def valuation(fr: MedvedevFrame, worlds_by_atom: Mapping[str, Iterable[World]]) -> Valuation:
    """Build a valuation from world masks per atom, closing each upward."""
    v = Valuation(
        fr,
        {a: close_up(fr, upset_from_worlds(fr, ws)) for a, ws in worlds_by_atom.items()},
    )
    v.check()
    return v


def valuation_from_obj(fr: MedvedevFrame, obj: Mapping[str, Iterable[Iterable[int]]]) -> Valuation:
    return valuation(fr, {a: [world(*gs) for gs in ws] for a, ws in obj.items()})


# --- forcing -----------------------------------------------------------------

_ATOM, _CONST, _AND, _OR, _NEG, _IMP = range(6)
_BINARY = {And: _AND, Or: _OR, Imp: _IMP}


def compile_formula(f: Formula) -> list[tuple]:
    """Postorder program over structurally distinct subformulas."""
    nodes, kids = _dag(f)
    prog: list[tuple] = []
    for g, k in zip(nodes, kids):
        t = type(g)
        if t is Atom:
            prog.append((_ATOM, g.name, 0))
        elif t is Neg:
            prog.append((_NEG, k[0], 0))
        elif k:
            prog.append((_BINARY[t], *k))
        else:
            prog.append((_CONST, 1 if t is Top else 0, 0))
    return prog


def run_program(fr: MedvedevFrame, prog: list[tuple], atom_bits: Mapping[str, UpSet],
                strict: bool = True, count: int = 1) -> int:
    """Worlds forcing the last instruction of ``prog`` under ``count`` packed
    valuations; ``atom_bits`` holds each atom's packed world sets.  With
    ``count == 1`` atoms and result are plain world bitsets."""
    all_w, steps = _layout(fr.n, count)
    out: list[int] = []
    for op, a, b in prog:
        if op == _AND:
            v = out[a] & out[b]
        elif op == _OR:
            v = out[a] | out[b]
        elif op == _ATOM:
            v = atom_bits.get(a)
            if v is None:
                if strict:
                    raise UnknownAtomError(f"valuation does not interpret atom {a!r}")
                v = 0
        elif op == _NEG:
            v = all_w ^ _down(out[a], steps)
        elif op == _IMP:
            bad = out[a] & (all_w ^ out[b])
            v = all_w ^ _down(bad, steps) if bad else all_w
        else:
            v = all_w if a else 0
        out.append(v)
    return out[-1]


def truth_set(fr: MedvedevFrame, val: Valuation, f: Formula, strict: bool = True) -> int:
    """Bitset of worlds forcing ``f``; compiles ``f`` once per call."""
    return run_program(fr, compile_formula(f), val.map, strict)


def forces(fr: MedvedevFrame, val: Valuation, w: World, f: Formula,
           strict: bool = True) -> bool:
    if not 1 <= w <= fr.world_count:
        raise ValueError(f"world mask {w} outside {fr!r}")
    return bool(truth_set(fr, val, f, strict) >> (w - 1) & 1)


def persistence_check(fr: MedvedevFrame, val: Valuation, f: Formula) -> bool:
    """Whether the truth set of ``f`` is upward closed under ``val``."""
    return is_upset(fr, truth_set(fr, val, f))


# --- witnesses and validity ------------------------------------------------

@dataclass(frozen=True)
class RefutationWitness:
    """A frame size, valuation, and world at which ``formula`` fails.

    Construction re-evaluates the claim and refuses to build a bogus witness.
    """

    n: int
    valuation: Valuation
    world: World
    formula: Formula

    def __post_init__(self):
        fr = frame(self.n)
        if self.valuation.frame.n != self.n:
            raise SelfCheckError("witness valuation lives on the wrong frame")
        self.valuation.check()
        if not 1 <= self.world <= fr.world_count:
            raise SelfCheckError(f"world mask {self.world} outside {fr!r}")
        if forces(fr, self.valuation, self.world, self.formula):
            raise SelfCheckError(
                f"claimed witness world {gens(self.world)} forces {render(self.formula)}"
            )

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "valuation": self.valuation.to_obj(),
            "world": list(gens(self.world)),
            "formula": render(self.formula),
        }


def witness_from_obj(obj: Mapping) -> RefutationWitness:
    n = int(obj["n"])
    fr = frame(n)
    val = valuation_from_obj(fr, obj["valuation"])
    w = world(*obj["world"])
    f = parse(obj["formula"])
    return RefutationWitness(n, val, w, f)


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    exhaustive: bool
    checked: int
    witness: RefutationWitness | None = None


def iter_valuations(fr: MedvedevFrame, names: list[str]) -> Iterator[Valuation]:
    """All valuations over ``names``; the last atom varies fastest."""
    ups = _upset_list(fr.n)
    if not names:
        yield Valuation(fr, {})
        return

    def rec(prefix: dict[str, UpSet], i: int) -> Iterator[Valuation]:
        if i == len(names):
            yield Valuation(fr, dict(prefix))
            return
        for bits in ups:
            prefix[names[i]] = bits
            yield from rec(prefix, i + 1)

    yield from rec({}, 0)


def sample_valuation(fr: MedvedevFrame, names: list[str], rng: random.Random) -> Valuation:
    return Valuation(
        fr, {nm: close_up(fr, rng.getrandbits(fr.world_count)) for nm in names}
    )


def exhaustive_cost(fr: MedvedevFrame, atom_count: int) -> int | None:
    """Evaluation-step estimate for an exhaustive sweep; None when unsupported."""
    count = UPSET_COUNTS.get(fr.n)
    if count is None:
        return None
    return count**atom_count * fr.world_count


# --- sweeps -------------------------------------------------------------------
#
# A sweep evaluates a chunk of valuations in one packed ``run_program`` call.
# The lowest failing bit of a chunk names its first failing valuation and,
# within that valuation's block, the failing world of smallest mask.

# Valuations per chunk of an exhaustive sweep; bounds the width of every packed
# value, hence the memory of a sweep on M_4 and beyond.
_CHUNK_VALUATIONS = 1 << 16


def _chunks(u: int, atom_count: int) -> Iterator[tuple[int, int]]:
    """(start, length) of each chunk of the valuation axis, in order.

    A chunk holds all combinations of the innermost atoms that fit under
    ``_CHUNK_VALUATIONS`` together, times a range of up-sets of the next atom
    out, whose up-sets are split across chunks; the outer atoms are fixed.
    """
    inner, fitted = 1, 0
    while fitted < atom_count and inner * u <= _CHUNK_VALUATIONS:
        inner *= u
        fitted += 1
    if fitted == atom_count:
        yield 0, inner
        return
    piece = _CHUNK_VALUATIONS // inner
    for base in range(0, u ** (atom_count - fitted), u):
        for first in range(0, u, piece):
            yield (base + first) * inner, min(piece, u - first) * inner


@lru_cache(maxsize=16)
def _upset_runs(n: int, first: int, count: int, run: int, reps: int) -> int:
    """Up-sets ``first .. first+count-1`` of ``M_n``, packed, each over ``run``
    consecutive valuations, the whole repeated ``reps`` times."""
    ups = _upset_list(n)
    size = _block_bits(n) // 8
    blocks = b"".join(ups[j].to_bytes(size, "little") * run
                      for j in range(first, first + count))
    return int.from_bytes(blocks * reps, "little")


def _valuation_chunks(fr: MedvedevFrame, names: list[str]) -> Iterator[tuple]:
    """Every valuation over ``names`` in ``iter_valuations`` order, by chunks:
    (start, length, packed atom values, valuation at an offset in the chunk)."""
    ups = _upset_list(fr.n)
    u = len(ups)
    # an atom with ``stride`` valuations per up-set has up-set index
    # ``v // stride % u`` at valuation ``v``
    strides = {nm: u ** (len(names) - 1 - i) for i, nm in enumerate(names)}

    def at(start: int, offset: int) -> Valuation:
        index = start + offset
        return Valuation(fr, {nm: ups[index // s % u] for nm, s in strides.items()})

    for start, length in _chunks(u, len(names)):
        atom_bits = {}
        for nm, stride in strides.items():
            run = min(stride, length)  # the whole chunk when the atom is fixed in it
            count = min(u, length // run)
            atom_bits[nm] = _upset_runs(fr.n, start // stride % u, count, run,
                                        length // (count * run))
        yield start, length, atom_bits, partial(at, start)


def _sample_chunks(fr: MedvedevFrame, names: list[str], count: int,
                   seed: int) -> Iterator[tuple]:
    """``count`` seeded ``sample_valuation`` draws, by chunks of doubling length:
    (start, length, packed atom values, valuation at an offset in the chunk)."""
    rng = random.Random(seed)
    size = _block_bits(fr.n) // 8
    cap = max(1, _CHUNK_VALUATIONS // fr.world_count)
    start, length = 0, 1
    while start < count:
        length = min(length, count - start)
        drawn = [sample_valuation(fr, names, rng) for _ in range(length)]
        atom_bits = {nm: int.from_bytes(b"".join(v.map[nm].to_bytes(size, "little")
                                                 for v in drawn), "little")
                     for nm in names}
        yield start, length, atom_bits, drawn.__getitem__
        start += length
        length = min(2 * length, cap)


def _sweep(fr: MedvedevFrame, f: Formula,
           chunks: Iterator[tuple]) -> tuple[int, RefutationWitness | None]:
    """(valuations checked, witness) of ``f`` over ``chunks``, stopping at the
    first failing valuation; the witness is None when every valuation passed."""
    prog = compile_formula(f)
    block = _block_bits(fr.n)
    checked = 0
    for start, length, atom_bits, at in chunks:
        fails = _layout(fr.n, length)[0] ^ run_program(fr, prog, atom_bits, count=length)
        if fails:
            bit = (fails & -fails).bit_length() - 1
            offset, w = divmod(bit, block)
            return start + offset + 1, RefutationWitness(fr.n, at(offset), w + 1, f)
        checked = start + length
    return checked, None


def valid_on(fr: MedvedevFrame, f: Formula, mode: str = "exhaustive", *,
             count: int = 1000, seed: int = 0,
             budget: int = DEFAULT_VALUATION_BUDGET) -> ValidityResult:
    """Check ``f`` at every world under every (or ``count`` sampled) valuations.

    ``mode``: "exhaustive" (``LimitError`` when the sweep's
    ``exhaustive_cost`` is unsupported or over ``budget``), "sample", or
    "auto" (exhaustive when the cost is within ``budget``, sampled
    otherwise); ``ValidityResult.exhaustive`` reports which ran.  A negative
    ``count`` is a ``ValueError`` in every mode.

    Valuations run in enumeration order (``iter_valuations``) or in the order
    sampled, deterministically in ``seed``; the witness is the first failing
    one, at its failing world of smallest mask.  Both modes evaluate chunks
    of valuations packed into one ``run_program`` call.
    """
    if mode not in ("exhaustive", "sample", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    if count < 0:
        raise ValueError(f"sample count must be non-negative, got {count}")
    names = atoms(f)
    cost = exhaustive_cost(fr, len(names))
    exhaustive = mode != "sample" and cost is not None and cost <= budget
    if mode == "exhaustive" and not exhaustive:
        raise LimitError(
            f"exhaustive sweep over {fr!r} with {len(names)} atoms exceeds budget"
        )
    chunks = (_valuation_chunks(fr, names) if exhaustive
              else _sample_chunks(fr, names, count, seed))
    checked, wit = _sweep(fr, f, chunks)
    return ValidityResult(wit is None, exhaustive, checked, wit)


def refute(f: Formula, max_n: int, strategy: str = "auto", *,
           count: int = 1000, seed: int = 0,
           budget: int = DEFAULT_VALUATION_BUDGET) -> RefutationWitness | None:
    """Scan frames of size 1..max_n for a refuting valuation and world.

    ``strategy`` is the ``valid_on`` mode used on every frame; frame ``n``
    samples with seed ``seed + n``.  A None return from sampled frames is
    inconclusive.
    """
    for n in range(1, max_n + 1):
        res = valid_on(frame(n), f, strategy, count=count, seed=seed + n, budget=budget)
        if res.witness is not None:
            return res.witness
    return None


# --- subframes and the disjunction property ----------------------------------

@dataclass(frozen=True)
class GeneratedSubframe:
    """The cone above ``root`` in ``source``, renumbered as a frame in its own right."""

    source: MedvedevFrame
    root: World
    frame: MedvedevFrame
    gen_map: Mapping[int, int]  # source generator -> subframe generator

    def compress(self, w: World) -> World:
        if w | self.root != self.root:
            raise ValueError(f"world {gens(w)} is not above {gens(self.root)}")
        out = 0
        for g in gens(w):
            out |= 1 << (self.gen_map[g] - 1)
        return out

    def expand(self, w: World) -> World:
        inv = {v: k for k, v in self.gen_map.items()}
        out = 0
        for g in gens(w):
            out |= 1 << (inv[g] - 1)
        return out

    def restrict_valuation(self, val: Valuation) -> Valuation:
        out = {}
        for atom, bits in val.map.items():
            new_bits = 0
            for w in upset_worlds(bits):
                if w | self.root == self.root:
                    new_bits |= 1 << (self.compress(w) - 1)
            out[atom] = new_bits
        return Valuation(self.frame, out)


def generated_subframe(fr: MedvedevFrame, w: World) -> GeneratedSubframe:
    """The worlds above ``w`` form a Medvedev frame on ``popcount(w)`` generators."""
    if not 1 <= w <= fr.world_count:
        raise ValueError(f"world mask {w} outside {fr!r}")
    gen_map = {g: i + 1 for i, g in enumerate(gens(w))}
    return GeneratedSubframe(fr, w, frame(w.bit_count()), gen_map)


@dataclass(frozen=True)
class BlockEmbedding:
    """A generated-subframe copy of a smaller frame on a generator block."""

    source: MedvedevFrame
    target: MedvedevFrame
    shift: int

    def embed_world(self, w: World) -> World:
        return w << self.shift

    def embed_upset(self, bits: UpSet) -> UpSet:
        out = 0
        for w in upset_worlds(bits):
            out |= 1 << ((w << self.shift) - 1)
        return out


def disjoint_embed(m: int, n: int) -> tuple[BlockEmbedding, BlockEmbedding]:
    """Embed the frames for m and n on disjoint generator blocks of m + n."""
    target = frame(m + n)
    return BlockEmbedding(frame(m), target, 0), BlockEmbedding(frame(n), target, m)


def dp_countermodel(wit_left: RefutationWitness,
                    wit_right: RefutationWitness) -> RefutationWitness:
    """Combine refutations of two formulas into one for their disjunction.

    Both witnesses transport onto disjoint blocks of the combined frame; the
    disjunction then fails at the meet of the two transported worlds (truth
    persists upward, so a world below both failures forces neither disjunct).
    """
    m, n = wit_left.n, wit_right.n
    emb_left, emb_right = disjoint_embed(m, n)
    target = emb_left.target
    combined: dict[str, UpSet] = {}
    for atom in sorted(set(wit_left.valuation.map) | set(wit_right.valuation.map)):
        bits = (emb_left.embed_upset(wit_left.valuation.map.get(atom, 0))
                | emb_right.embed_upset(wit_right.valuation.map.get(atom, 0)))
        combined[atom] = close_up(target, bits)
    val = Valuation(target, combined)
    w = emb_left.embed_world(wit_left.world) | emb_right.embed_world(wit_right.world)
    return RefutationWitness(m + n, val, w, Or(wit_left.formula, wit_right.formula))
