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
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from .errors import LimitError, SelfCheckError, UnknownAtomError
from .formula import (_AND, _ATOM, _IMP, _NEG, _OR, Formula, Or, _dag, _program_atoms,
                      render)

World = int  # non-zero generator bitmask
UpSet = int  # bitset over worlds, bit (mask - 1)

MAX_N = 20
MAX_EXHAUSTIVE_N = 6
# in valuations x worlds, the unit of ``exhaustive_cost``
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

    __slots__ = ("n", "world_count", "all_worlds")

    def __init__(self, n: int):
        if not 1 <= n <= MAX_N:
            raise ValueError(f"frame parameter must be in 1..{MAX_N}, got {n}")
        self.n = n
        self.world_count = (1 << n) - 1
        self.all_worlds: UpSet = (1 << self.world_count) - 1

    def __repr__(self) -> str:
        return f"M_{self.n}"

    def worlds(self) -> range:
        return range(1, self.world_count + 1)

    def bottom(self) -> World:
        return self.world_count

    def up_bits(self, w: World) -> UpSet:
        """Worlds >= w: the non-empty submasks of w."""
        bits = 0
        s = w
        while s:
            bits |= 1 << (s - 1)
            s = (s - 1) & w
        return bits


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


def _up(bits: int, steps) -> int:
    """Worlds above some world of ``bits``: generators removed one at a time."""
    for shift, mask in steps:
        bits |= (bits & mask) >> shift
    return bits


# --- up-sets ----------------------------------------------------------------

def close_up(fr: MedvedevFrame, bits: int) -> UpSet:
    """Upward closure of any set of worlds."""
    return _up(bits, _layout(fr.n, 1)[1])


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

    Split on generator ``n``: with ``h = 2**(n-1)``, a world set of ``M_n`` is
    ``lo | c << (h - 1) | hi << h``, where ``lo`` holds the worlds without
    ``n``, ``c`` the world ``{n}``, and ``hi`` the worlds ``S + {n}`` by their
    non-empty part ``S``.  The set is upward closed exactly when ``lo`` and
    ``hi`` are up-sets of ``M_{n-1}``, ``hi`` is a subset of ``lo``, and ``c``
    is set whenever ``hi`` is non-empty.  Looping ``hi``, then ``c``, then
    ``lo`` ascending, each over lower bits than the one before, yields the
    sets in ascending order.
    """
    if fr.n > MAX_EXHAUSTIVE_N:
        raise LimitError(f"up-set enumeration supports n <= {MAX_EXHAUSTIVE_N}")
    h = 1 << (fr.n - 1)
    # a list, as the inner loop reads it once per ``hi`` and an array boxes every int it yields
    prev = _upset_list(fr.n - 1).tolist() if fr.n > 1 else [0]  # no worlds: the empty set
    for hi in prev:
        for c in range(bool(hi), 2):
            base = c << (h - 1) | hi << h
            yield from (lo | base for lo in prev if lo & hi == hi)


@lru_cache(maxsize=8)
def _upset_list(n: int) -> array:
    """``enumerate_upsets`` as unsigned ints one block wide, the frame's one
    up-set table: the sweep order, the index to bisect, ``_period(n, 1)``'s bytes."""
    # no typecode fits a block past M_6, whose enumeration raises LimitError instead
    code = next((c for c in "BHILQ" if array(c).itemsize == _block_bits(n) // 8), "B")
    return array(code, enumerate_upsets(frame(n)))


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

# the last formula compiled: [formula, program, the largest n of an exhaustive
# sweep that found the program valid, or 0]
_compiled: list | None = None


def _compile_entry(f: Formula) -> list:
    """``f``'s entry in ``_compiled``, made afresh unless ``f`` was compiled last."""
    global _compiled
    if _compiled is None or _compiled[0] is not f:
        _compiled = [f, _dag(f)[1], 0]
    return _compiled


def compile_formula(f: Formula) -> list[tuple]:
    """Postorder program over structurally distinct subformulas: the
    instructions of the ``_dag`` numbering.  The last formula object compiled
    is remembered by identity in one entry, which keeps it alive with its
    program and the frames ``valid_on`` settled for it, so checking it on
    several frames, or checking and then proving it, walks it once; the
    returned list is shared and must not be mutated."""
    return _compile_entry(f)[1]


def run_program(fr: MedvedevFrame, prog: list[tuple], atom_bits: Mapping[str, UpSet],
                count: int = 1) -> list[int]:
    """The worlds forcing each instruction of ``prog``, by position, under
    ``count`` packed valuations; ``atom_bits`` holds each atom's packed world
    sets, and the last entry is the truth set of the whole program.  With
    ``count == 1`` atoms and results are plain world bitsets."""
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
                raise UnknownAtomError(f"valuation does not interpret atom {a!r}")
        elif op == _NEG:
            v = all_w ^ _down(out[a], steps)
        elif op == _IMP:
            bad = out[a] & (all_w ^ out[b])
            v = all_w ^ _down(bad, steps) if bad else all_w
        else:
            v = all_w if a else 0
        out.append(v)
    return out


def truth_set(fr: MedvedevFrame, val: Valuation, f: Formula) -> int:
    """Bitset of worlds forcing ``f``."""
    if val.frame.n != fr.n:
        raise ValueError(f"valuation lives on {val.frame!r}, not {fr!r}")
    return run_program(fr, compile_formula(f), val.map)[-1]


def forces(fr: MedvedevFrame, val: Valuation, w: World, f: Formula) -> bool:
    if not 1 <= w <= fr.world_count:
        raise ValueError(f"world mask {w} outside {fr!r}")
    return bool(truth_set(fr, val, f) >> (w - 1) & 1)


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


@dataclass(frozen=True)
class FrameCheck:
    """A sweep on ``M_n``: the ``mode`` that ran, whether ``f`` held under all
    ``checked`` valuations, and otherwise the first refutation."""

    n: int
    mode: str
    valid: bool
    checked: int
    witness: RefutationWitness | None = None

    @property
    def exhaustive(self) -> bool:
        return self.mode == "exhaustive"

    def to_obj(self) -> dict:
        return {"n": self.n, "mode": self.mode, "valid": self.valid, "checked": self.checked}


def iter_valuations(fr: MedvedevFrame, names: list[str]) -> Iterator[Valuation]:
    """All valuations over ``names``; the last atom varies fastest.  An
    odometer of up-set indices reads the table in place, where
    ``itertools.product`` would copy it into a tuple of ints."""
    ups = _upset_list(fr.n)
    last = len(ups) - 1
    digits = [0] * len(names)
    while True:
        yield Valuation(fr, {nm: ups[d] for nm, d in zip(names, digits)})
        i = len(digits) - 1
        while i >= 0 and digits[i] == last:
            digits[i] = 0
            i -= 1
        if i < 0:
            return
        digits[i] += 1


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


# --- symmetry ------------------------------------------------------------------
#
# Permuting the generators is an automorphism of ``M_n``, and forcing commutes
# with it, so a valuation fails exactly when each of its images fails.  Up-set
# indices follow the integer order of the up-sets, so ``iter_valuations``
# order is the lexicographic order on tuples of indices, and the first failing
# valuation is the least of its orbit, its lex-leader (Crawford, Ginsberg,
# Luks & Roy, KR 1996).  An exhaustive sweep therefore evaluates the
# lex-leaders only.  They are generated orderly (McKay, J. Algorithms 26,
# 1998): an atom's up-set is the least of its orbit under the permutations
# that fix the up-sets of the atoms before it, and once no permutation but the
# identity fixes them, every choice for the remaining atoms is a leader.

# the largest frame whose permutations are tabulated: M_6 would need 720
# tables over 7.8 M up-sets, so its sweeps run unreduced
_MAX_SYMMETRY_N = 5


def _swap_table(n: int, i: int) -> tuple[int, ...]:
    """Up-set indices of ``M_n`` under swapping generators ``i`` and
    ``i + 1`` (0-based): a world holding just one of the two moves up or
    down by ``2**i`` masks; images are bisected in ``_upset_list(n)``."""
    ups, lo = _upset_list(n), 1 << i
    # the worlds holding i and not i + 1, by bit ``mask - 1``; ``rise << lo`` the reverse
    rise = sum(1 << (m - 1) for m in range(1, 1 << n) if m >> i & 3 == 1)
    stay = ~(rise | rise << lo)
    return tuple(bisect_left(ups, b & stay | (b & rise) << lo | b >> lo & rise) for b in ups)


@lru_cache(maxsize=8)
def _perm_tables(n: int) -> tuple[tuple[int, ...], ...]:
    """Every generator permutation of ``M_n`` but the identity, as a table of
    up-set indices, built from the adjacent transpositions; none when ``n`` is
    1 or past ``_MAX_SYMMETRY_N``."""
    if n > _MAX_SYMMETRY_N:
        return ()
    swaps = [_swap_table(n, i) for i in range(n - 1)]
    identity = tuple(range(len(_upset_list(n))))
    seen, frontier = {identity}, [identity]
    while frontier:
        frontier = [t for t in {itemgetter(*s)(g) for g in frontier for s in swaps}
                    if t not in seen]
        seen.update(frontier)
    seen.remove(identity)
    return tuple(sorted(seen))


@lru_cache(maxsize=256)
def _orbit_minima(n: int, group: tuple[int, ...], last: bool) -> tuple[tuple, ...]:
    """The up-set indices of ``M_n`` least in their orbits under ``group``
    (positions in ``_perm_tables(n)``), as runs ``(lo, hi, stabilizer)``: a
    minimum fixed by some permutation of ``group`` stands alone with the
    positions of those, and consecutive minima fixed by none share a run with
    an empty stabilizer.  For the ``last`` atom stabilizers do not matter and
    every run is maximal."""
    tables = _perm_tables(n)
    images = [tables[g] for g in group]
    runs: list[tuple] = []
    for c, low in enumerate(map(min, zip(range(len(_upset_list(n))), *images))):
        if low == c:
            fixers = () if last else tuple(g for g in group if tables[g][c] == c)
            if not fixers and runs and runs[-1][1] == c and not runs[-1][2]:
                runs[-1] = (runs[-1][0], c + 1, ())
            else:
                runs.append((c, c + 1, fixers))
    return tuple(runs)


def _leader_pieces(n: int, k: int) -> Iterator[tuple[int, int, int]]:
    """The lex-leaders of ``k`` atoms on ``M_n``, ascending, as aligned pieces
    ``(start, count, size)`` of the valuation axis: ``count`` consecutive
    blocks of ``size`` valuations, ``size`` a power of the up-set count, all
    inside one block of the next power."""
    u = len(_upset_list(n))
    tables = _perm_tables(n)
    if not (k and tables):
        yield 0, 1, u**k
        return

    def walk(base: int, depth: int, group: tuple[int, ...]) -> Iterator[tuple[int, int, int]]:
        size = u ** (k - depth - 1)
        for lo, hi, fixers in _orbit_minima(n, group, depth + 1 == k):
            if fixers:
                yield from walk(base + lo * size, depth + 1, fixers)
            else:
                yield base + lo * size, hi - lo, size

    yield from walk(0, 0, tuple(range(len(tables))))


# --- sweeps -------------------------------------------------------------------
#
# A sweep evaluates a chunk of valuations, (start, length, packed value of each
# atom), in one ``run_program`` call.  The lowest failing bit of a chunk names
# its first failing valuation, whose block of each atom's value is the witness,
# and, within that block, the failing world of smallest mask.  An exhaustive
# sweep counts the valuations its leaders cover: all of them, or those up to
# the witness in enumeration order.

# Valuations per chunk of an exhaustive sweep; bounds the width of every packed
# value, hence the memory of a sweep on M_4 and beyond.
_CHUNK_VALUATIONS = 1 << 16
# Bits per chunk of all the packed values ``run_program`` keeps, one per
# instruction; narrows the chunks of long programs.
_CHUNK_BITS = 1 << 28


def _chunk_cap(fr: MedvedevFrame, instructions: int, valuations: int) -> int:
    """``valuations`` per chunk, at least 1 and lowered to fit ``_CHUNK_BITS``."""
    return max(1, min(valuations, _CHUNK_BITS // (instructions * _block_bits(fr.n))))


def _chunks(pieces: Iterable[tuple[int, int, int]], u: int, cap: int,
            grow: bool = False) -> Iterator[list[tuple[int, int]]]:
    """Aligned pieces ``(start, count, size)`` over ``u`` up-sets regrouped
    into chunks of ``cap`` valuations, the last one possibly fewer, each a
    list of aligned runs ``(start, length)``; with ``grow`` the chunks hold
    1, 2, 4, … valuations up to ``cap``.  A chunk fills up across piece and
    atom boundaries: a block too big for the room left is split into its
    ``u`` blocks of the next size down."""
    chunk: list[tuple[int, int]] = []
    room = full = 1 if grow else cap
    for piece in pieces:
        todo = [piece]
        while todo:
            start, count, size = todo.pop()
            take = min(count, room // size)
            if take:
                chunk.append((start, take * size))
                room -= take * size
                start += take * size
                count -= take
            if not room:
                yield chunk
                full = min(2 * full, cap)
                chunk, room = [], full
            if count and size <= room:
                todo.append((start, count, size))
            elif count:
                if count > 1:
                    todo.append((start + size, count - 1, size))
                todo.append((start, u, size // u))
    if chunk:
        yield chunk


@lru_cache(maxsize=16)
def _period(n: int, stride: int) -> bytes | memoryview:
    """Every up-set of ``M_n`` in order, each over ``stride`` valuations, in
    little-endian bytes: for ``stride`` 1 a view of ``_upset_list(n)``'s
    own bytes (a byteswapped copy on a big-endian host).  A view cannot be
    repeated with ``*``, so a slice of it is made ``bytes`` first."""
    if stride > 1:
        ups, size = _period(n, 1), _block_bits(n) // 8
        return b"".join([bytes(ups[j:j + size]) * stride for j in range(0, len(ups), size)])
    table = _upset_list(n)
    if sys.byteorder == "big":
        table = array(table.typecode, table)
        table.byteswap()
        return table.tobytes()
    return memoryview(table).cast("B")


def _atom_value(n: int, stride: int, runs: list[tuple[int, int]]) -> int:
    """The packed up-sets, over the aligned ``runs`` of a chunk, of the atom
    with ``stride`` valuations per up-set, as slices of ``_period(n, 1)``.  A
    run holds one up-set of the atom throughout, a range of them, or whole
    periods; one up-set held over consecutive runs is written once."""
    ups, u = _period(n, 1), len(_upset_list(n))
    size = len(ups) // u
    parts = []
    held, span = 0, 0  # the up-set held over the runs so far, by offset, and for how many
    for start, length in runs:
        first, count = start // stride % u * size, length // stride
        if span and (first != held or length > stride):
            parts.append(bytes(ups[held:held + size]) * span)
            span = 0
        if length <= stride:
            held, span = first, span + length
        elif count > u:
            parts.append(bytes(_period(n, stride)) * (count // u))
        elif stride == 1:
            parts.append(ups[first:first + count * size])
        else:
            parts.extend([bytes(ups[j:j + size]) * stride
                          for j in range(first, first + count * size, size)])
    if span:
        parts.append(bytes(ups[held:held + size]) * span)
    return int.from_bytes(b"".join(parts), "little")


def _packed_chunks(n: int, k: int, cap: int, pieces: Iterable[tuple[int, int, int]],
                   grow: bool = False) -> Iterator[tuple]:
    """``(start, length, values)`` per chunk of ``pieces``, cut as ``_chunks``
    cuts them: the chunk's first position among the valuations of
    ``pieces``, its length, and per atom, the last varying fastest, the
    packed up-sets."""
    u = len(_upset_list(n))
    strides = [u ** (k - 1 - i) for i in range(k)]
    start = 0
    for runs in _chunks(pieces, u, cap, grow):
        length = sum(length for _, length in runs)
        yield start, length, [_atom_value(n, s, runs) for s in strides]
        start += length


@lru_cache(maxsize=32)
def _leader_plan(n: int, k: int, cap: int) -> tuple[tuple, ...]:
    return tuple(_packed_chunks(n, k, cap, _leader_pieces(n, k)))


def _valuation_chunks(fr: MedvedevFrame, names: list[str], instructions: int) -> Iterator[tuple]:
    """The lex-leaders of the valuations over ``names``, in ``iter_valuations``
    order, by chunks sized for a program of ``instructions`` instructions.
    Chunks of sweeps within ``_CHUNK_VALUATIONS`` valuations are built once and
    kept; those of larger sweeps are built as the sweep goes, in chunks that
    double from one valuation, so that an early witness does not wait for a
    full chunk to be packed.  Without symmetry, on ``M_1`` and ``M_6``, the
    leaders are every valuation in one run."""
    u, k = len(_upset_list(fr.n)), len(names)
    cap = _chunk_cap(fr, instructions, _CHUNK_VALUATIONS)
    if u**k <= _CHUNK_VALUATIONS:
        chunks = _leader_plan(fr.n, k, cap)
    else:
        chunks = _packed_chunks(fr.n, k, cap, _leader_pieces(fr.n, k), grow=True)
    for start, length, values in chunks:
        yield start, length, dict(zip(names, values))


def _sample_chunks(fr: MedvedevFrame, names: list[str], count: int, seed: int,
                   instructions: int) -> Iterator[tuple]:
    """``count`` seeded ``sample_valuation`` draws, by chunks that double from
    one draw as ``_chunks`` cuts them, sized for ``instructions``: the raw
    draws, taken valuation by valuation and atom by atom as
    ``sample_valuation`` takes them, packed per atom and closed up per
    chunk."""
    rng = random.Random(seed)
    size = _block_bits(fr.n) // 8
    cap = _chunk_cap(fr, instructions, _CHUNK_VALUATIONS // fr.world_count)
    for [(start, length)] in _chunks([(0, count, 1)], 1, cap, grow=True):
        raw = [rng.getrandbits(fr.world_count).to_bytes(size, "little")
               for _ in range(length * len(names))]
        steps = _layout(fr.n, length)[1]
        atom_bits = {nm: _up(int.from_bytes(b"".join(raw[i::len(names)]), "little"), steps)
                     for i, nm in enumerate(names)}
        yield start, length, atom_bits


def _sweep(fr: MedvedevFrame, f: Formula, prog: list[tuple],
           chunks: Iterator[tuple]) -> tuple[int, RefutationWitness | None]:
    """(valuations checked, witness) of ``f``, compiled to ``prog``, over
    ``chunks``, stopping at the first failing valuation; the witness is None
    when every valuation passed."""
    block = _block_bits(fr.n)
    checked = 0
    for start, length, atom_bits in chunks:
        fails = _layout(fr.n, length)[0] ^ run_program(fr, prog, atom_bits, count=length)[-1]
        if fails:
            bit = (fails & -fails).bit_length() - 1
            offset, w = divmod(bit, block)
            val = Valuation(fr, {nm: bits >> offset * block & fr.all_worlds
                                 for nm, bits in atom_bits.items()})
            return start + offset + 1, RefutationWitness(fr.n, val, w + 1, f)
        checked = start + length
    return checked, None


def _covered(fr: MedvedevFrame, names: list[str], wit: RefutationWitness | None) -> int:
    """Valuations up to and including the witness in ``iter_valuations``
    order, or all of them without one, bisecting ``_upset_list``."""
    ups = _upset_list(fr.n)
    if wit is None:
        return len(ups) ** len(names)
    index = 0
    for nm in names:
        index = index * len(ups) + bisect_left(ups, wit.valuation.map[nm])
    return index + 1


def valid_on(fr: MedvedevFrame, f: Formula, mode: str = "exhaustive", *,
             count: int = 1000, seed: int = 0,
             budget: int = DEFAULT_VALUATION_BUDGET) -> FrameCheck:
    """Check ``f`` at every world under every (or ``count`` sampled) valuations.

    ``mode``: "exhaustive" (``LimitError`` when the sweep's
    ``exhaustive_cost`` is unsupported or over ``budget``), "sample", or
    "auto" (exhaustive when the cost is within ``budget``, sampled
    otherwise); ``FrameCheck.mode`` reports which ran.  A negative
    ``count`` is a ``ValueError`` in every mode.

    Valuations run in enumeration order (``iter_valuations``) or in the order
    sampled, deterministically in ``seed``; the witness is the first failing
    one, at its failing world of smallest mask.  Both modes evaluate chunks
    of valuations packed into one ``run_program`` call, and an exhaustive
    sweep evaluates only the lex-leaders, which hold that witness; its
    ``checked`` counts the valuations covered.  A program an exhaustive
    sweep found valid on ``M_m`` is valid on every ``M_n`` with ``n <= m``,
    the subframe above an ``n``-generator world: the compile entry of the
    last formula keeps the largest such ``m``, and a frame within it is
    answered without a sweep once the mode is planned.
    """
    if mode not in ("exhaustive", "sample", "auto"):
        raise ValueError(f"unknown mode {mode!r}")
    if count < 0:
        raise ValueError(f"sample count must be non-negative, got {count}")
    prog = compile_formula(f)
    entry = _compile_entry(f)  # the entry compile_formula just made or found
    names = _program_atoms(prog)
    cost = exhaustive_cost(fr, len(names))
    exhaustive = mode != "sample" and cost is not None and cost <= budget
    if mode == "exhaustive" and cost is None:
        raise LimitError(f"exhaustive sweeps support n <= {MAX_EXHAUSTIVE_N}, got {fr!r}")
    if mode == "exhaustive" and not exhaustive:
        raise LimitError(
            f"exhaustive sweep over {fr!r} with {len(names)} atoms exceeds budget"
        )
    mode = "exhaustive" if exhaustive else "sample"
    if fr.n <= entry[2]:
        return FrameCheck(fr.n, mode, True, _covered(fr, names, None) if exhaustive else count)
    chunks = (_valuation_chunks(fr, names, len(prog)) if exhaustive
              else _sample_chunks(fr, names, count, seed, len(prog)))
    checked, wit = _sweep(fr, f, prog, chunks)
    if exhaustive:
        checked = _covered(fr, names, wit)
        if wit is None:
            entry[2] = fr.n
    return FrameCheck(fr.n, mode, wit is None, checked, wit)


def refute(f: Formula, max_n: int, strategy: str = "auto", *,
           count: int = 1000, seed: int = 0) -> RefutationWitness | None:
    """Scan frames of size 1..max_n for a refuting valuation and world.

    ``strategy`` is the ``valid_on`` mode used on every frame, under its
    default budget; frame ``n`` samples with seed ``seed + n``.  A None
    return from sampled frames is inconclusive.  A ``max_n`` outside
    ``1..MAX_N`` is a ``ValueError`` before any frame is swept.
    """
    frame(max_n)
    for n in range(1, max_n + 1):
        res = valid_on(frame(n), f, strategy, count=count, seed=seed + n)
        if res.witness is not None:
            return res.witness
    return None


# --- frame maps and the disjunction property ---------------------------------

@dataclass(frozen=True)
class PMorphism:
    """A world map from ``M_m`` to ``M_n``, stored as a dense tuple by source mask."""

    m: int
    n: int
    mapping: tuple[int, ...]

    @classmethod
    def from_max_map(cls, m: int, n: int, point_map: Mapping[int, int]) -> "PMorphism":
        """Extend a map on maximal worlds (generator i -> generator j) by meets."""
        if set(point_map) != set(range(1, m + 1)):
            raise ValueError(f"point map must cover generators 1..{m}")
        if not all(1 <= j <= n for j in point_map.values()):
            raise ValueError(f"point map targets must lie in 1..{n}")
        images = []
        for w in frame(m).worlds():
            out = 0
            for g in gens(w):
                out |= 1 << (point_map[g] - 1)
            images.append(out)
        return cls(m, n, tuple(images))

    def apply(self, w: World) -> World:
        return self.mapping[w - 1]

    def pullback(self, bits: int) -> int:
        """Source worlds whose image lies in ``bits``; a monotone map pulls
        up-sets back to up-sets."""
        out = 0
        for i, y in enumerate(self.mapping):
            if bits >> (y - 1) & 1:
                out |= 1 << i
        return out


def generated_subframe(fr: MedvedevFrame, w: World) -> PMorphism:
    """The worlds above ``w`` as the frame on ``popcount(w)`` generators:
    generator ``i`` maps to the ``i``-th generator of ``w``."""
    if not 1 <= w <= fr.world_count:
        raise ValueError(f"world mask {w} outside {fr!r}")
    return PMorphism.from_max_map(w.bit_count(), fr.n, dict(enumerate(gens(w), 1)))


def disjoint_embed(m: int, n: int) -> tuple[PMorphism, PMorphism]:
    """Map the frames for m and n onto disjoint generator blocks of m + n."""
    frame(m + n)
    return (PMorphism.from_max_map(m, m + n, {i: i for i in range(1, m + 1)}),
            PMorphism.from_max_map(n, m + n, {i: m + i for i in range(1, n + 1)}))


def dp_countermodel(wit_left: RefutationWitness,
                    wit_right: RefutationWitness) -> RefutationWitness:
    """Combine refutations of two formulas into one for their disjunction.

    Both witnesses transport onto disjoint blocks of the combined frame; the
    disjunction then fails at the meet of the two transported worlds (truth
    persists upward, so a world below both failures forces neither disjunct).
    """
    m, n = wit_left.n, wit_right.n
    left, right = disjoint_embed(m, n)
    target = frame(m + n)
    combined: dict[str, UpSet] = {}
    for atom in sorted(set(wit_left.valuation.map) | set(wit_right.valuation.map)):
        bits = 0
        for emb, wit in ((left, wit_left), (right, wit_right)):
            for w in upset_worlds(wit.valuation.map.get(atom, 0)):
                bits |= 1 << (emb.apply(w) - 1)
        combined[atom] = close_up(target, bits)
    val = Valuation(target, combined)
    w = left.apply(wit_left.world) | right.apply(wit_right.world)
    return RefutationWitness(m + n, val, w, Or(wit_left.formula, wit_right.formula))
