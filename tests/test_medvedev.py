"""Frame construction, forcing, enumeration, and refutation search.

The enumeration and forcing tests cross-check against deliberately naive
reference implementations that quantify over whole powersets.
"""

import itertools
import random
import tracemalloc
from array import array
from bisect import bisect_left

import pytest

from medlog import medvedev
from medlog.errors import LimitError, SelfCheckError
from medlog.formula import And, Atom, Imp, Neg, Or, atoms, iff, parse, render
from medlog.kpform import kp_normalize
from medlog.medvedev import (
    FrameCheck,
    MedvedevFrame,
    RefutationWitness,
    UPSET_COUNTS,
    Valuation,
    close_up,
    compile_formula,
    disjoint_embed,
    down_closure,
    dp_countermodel,
    enumerate_upsets,
    exhaustive_cost,
    forces,
    frame,
    generated_subframe,
    gens,
    is_upset,
    iter_valuations,
    refute,
    run_program,
    sample_valuation,
    truth_set,
    upset_from_worlds,
    upset_worlds,
    valid_on,
    valuation,
    valuation_from_obj,
    world,
)
from medlog.randgen import random_formula

from oracles import (down_bits, full_order_chunks, is_maximal, le, persistence_check,
                     witness_from_obj)


# --- naive reference implementations -----------------------------------

def naive_upsets(n):
    """All up-closed world sets by powerset filtering.  Exponential twice
    over, usable only for n <= 4."""
    fr = frame(n)
    worlds = list(fr.worlds())
    found = []
    for r in range(len(worlds) + 1):
        for combo in itertools.combinations(worlds, r):
            ws = set(combo)
            if all(v in ws for w in ws for v in worlds if le(w, v)):
                found.append(upset_from_worlds(fr, ws))
    return sorted(found)


def ref_enumerate_upsets(fr):
    """Up-sets in ascending order by the recursive enumerator that the split
    on the last generator replaced: worlds are decided from the bottom up,
    and a world required as the cover of an included world cannot be left out."""
    covers = [0]
    for w in fr.worlds():
        bits = 0
        s = w
        while s:
            lsb = s & -s
            if w != lsb:
                bits |= 1 << ((w ^ lsb) - 1)
            s ^= lsb
        covers.append(bits)

    def rec(mask, bits, needed):
        if mask == 0:
            yield bits
            return
        bit = 1 << (mask - 1)
        if not needed & bit:
            yield from rec(mask - 1, bits, needed)
        yield from rec(mask - 1, bits | bit, needed | covers[mask])

    yield from rec(fr.world_count, 0, 0)


def naive_forces(fr, val, w, f):
    """Textbook forcing clauses with explicit successor quantification."""
    succ = [v for v in fr.worlds() if le(w, v)]
    match f:
        case Atom(name):
            return bool(val.map[name] >> (w - 1) & 1)
        case _ if f == parse("F"):
            return False
        case _ if f == parse("T"):
            return True
        case Neg(body):
            return all(not naive_forces(fr, val, v, body) for v in succ)
        case And(a, b):
            return naive_forces(fr, val, w, a) and naive_forces(fr, val, w, b)
        case Or(a, b):
            return naive_forces(fr, val, w, a) or naive_forces(fr, val, w, b)
        case Imp(a, b):
            return all(
                naive_forces(fr, val, v, b)
                for v in succ
                if naive_forces(fr, val, v, a)
            )
    raise AssertionError(f)


# --- worlds and order ---------------------------------------------------

def test_world_encoding():
    assert world(1) == 1
    assert world(1, 2) == 3
    assert world(3) == 4
    assert gens(world(2, 3)) == (2, 3)
    with pytest.raises(ValueError):
        world()
    with pytest.raises(ValueError):
        world(0)


def test_order_is_reverse_inclusion():
    fr = frame(3)
    assert le(world(1, 2, 3), world(1))
    assert le(world(1, 2), world(2))
    assert not le(world(1), world(1, 2))
    assert not le(world(1, 2), world(3))
    assert fr.bottom() == world(1, 2, 3)
    assert all(le(fr.bottom(), w) for w in fr.worlds())


def test_maximal_worlds_are_singletons():
    fr = frame(4)
    maxes = [w for w in fr.worlds() if is_maximal(w)]
    assert maxes == [world(i) for i in range(1, 5)]


def test_up_down_covers_bits():
    fr = frame(3)
    w = world(1, 2)
    assert sorted(upset_worlds(fr.up_bits(w))) == [world(1), world(2), world(1, 2)]
    assert sorted(upset_worlds(down_bits(fr, w))) == [world(1, 2), world(1, 2, 3)]


def test_frames_hold_no_per_world_table():
    # M_20 has about a million worlds; no operation keeps a table over them
    tracemalloc.start()
    try:
        fr = MedvedevFrame(20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fr.world_count == (1 << 20) - 1
    assert peak < 1 << 20


def test_close_up_down_closure_roundtrip():
    fr = frame(4)
    rng = random.Random(5)
    for _ in range(50):
        bits = rng.getrandbits(fr.world_count)
        up = close_up(fr, bits)
        assert is_upset(fr, up)
        assert up & bits == bits
        dn = down_closure(fr, bits)
        assert dn & bits == bits
        # down closure of an up-set together with it covers the cone ends
        assert close_up(fr, up) == up


@pytest.mark.parametrize("n", range(1, 11))
def test_closures_match_unions_of_cones(n):
    # the shift-and-mask closures against the per-world cone definitions
    fr = frame(n)
    rng = random.Random(90 + n)
    for k in (0, 1, 2, 3, 5, 8, 20):
        for _ in range(4):
            ws = rng.sample(range(1, fr.world_count + 1), min(k, fr.world_count))
            up = down = 0
            for w in ws:
                up |= fr.up_bits(w)
                down |= down_bits(fr, w)
            bits = upset_from_worlds(fr, ws)
            assert close_up(fr, bits) == up, (n, ws)
            assert down_closure(fr, bits) == down, (n, ws)
    assert close_up(fr, fr.all_worlds) == down_closure(fr, fr.all_worlds) == fr.all_worlds


# --- up-set enumeration -------------------------------------------------

def test_upset_counts_small():
    for n in (1, 2, 3, 4):
        got = list(enumerate_upsets(frame(n)))
        assert len(got) == UPSET_COUNTS[n]
        assert got == naive_upsets(n)


def test_enumeration_matches_recursive_reference():
    # the split on the last generator against the cover-table recursion it
    # replaced; tests/upsets_n6.py runs the same comparison on M_6
    for n in range(1, 6):
        assert tuple(enumerate_upsets(frame(n))) == tuple(ref_enumerate_upsets(frame(n))), n


def test_upset_count_n5():
    assert sum(1 for _ in enumerate_upsets(frame(5))) == UPSET_COUNTS[5]


def test_enumeration_ascending_and_valid():
    fr = frame(3)
    prev = -1
    for bits in enumerate_upsets(fr):
        assert bits > prev
        assert is_upset(fr, bits)
        prev = bits


@pytest.mark.parametrize("n", range(1, 6))
def test_upset_table_is_the_sequence_the_index_and_the_bytes(n):
    table, size = medvedev._upset_list(n), medvedev._block_bits(n) // 8
    assert isinstance(table, array) and table.itemsize == size
    assert tuple(table) == tuple(enumerate_upsets(frame(n)))
    for stride in (1, 2, 3):
        assert medvedev._period(n, stride) == b"".join(
            x.to_bytes(size, "little") * stride for x in table), stride
    assert all(bisect_left(table, x) == j for j, x in enumerate(table))


def test_enumeration_rejects_large_n():
    with pytest.raises(LimitError):
        list(enumerate_upsets(frame(7)))
    with pytest.raises(LimitError):
        next(iter_valuations(frame(7), ["p"]))


# --- forcing ------------------------------------------------------------

def test_truth_set_matches_naive_forcing():
    rng = random.Random(17)
    fr = frame(3)
    names = ["p", "q"]
    for _ in range(60):
        val = sample_valuation(fr, names, rng)
        f = random_formula(rng, names, depth=4)
        ts = truth_set(fr, val, f)
        for w in fr.worlds():
            assert bool(ts >> (w - 1) & 1) == naive_forces(fr, val, w, f), (f, w)


def test_forces_entry_point():
    fr = frame(2)
    val = valuation(fr, {"p": [world(1)]})
    f = parse("p | ~p")
    assert forces(fr, val, world(1), f)
    assert forces(fr, val, world(2), f)
    assert not forces(fr, val, world(1, 2), f)


def test_persistence_holds_for_valuations():
    rng = random.Random(23)
    fr = frame(4)
    for _ in range(30):
        val = sample_valuation(fr, ["p", "q", "r"], rng)
        f = random_formula(rng, ["p", "q", "r"], depth=5)
        assert persistence_check(fr, val, f)


def test_persistence_fails_on_corrupted_valuation():
    # {⋀{1,2}} alone is not up-closed, so the atom itself violates
    # persistence; the checker must notice.
    fr = frame(2)
    bad = Valuation(fr, {"p": 1 << (world(1, 2) - 1)})
    assert not persistence_check(fr, bad, Atom("p"))
    with pytest.raises(ValueError):
        bad.check()


def test_valuation_check_rejects_out_of_range_bits():
    fr = frame(2)
    with pytest.raises(ValueError):
        Valuation(fr, {"p": 1 << 3}).check()


# --- validity and refutation --------------------------------------------

def test_excluded_middle_fails_first_at_singleton_valuation():
    fr = frame(2)
    res = valid_on(fr, parse("p | ~p"), "exhaustive")
    assert not res.valid and res.exhaustive
    wit = res.witness
    assert wit.n == 2
    assert wit.world == world(1, 2)
    assert wit.valuation.map["p"] == 1 << (world(1) - 1)


def test_valid_on_tautology():
    fr = frame(3)
    res = valid_on(fr, parse("p -> p"), "exhaustive")
    assert res.valid and res.exhaustive
    assert res.checked == UPSET_COUNTS[3]
    assert res.witness is None


def test_exhaustive_cost_and_budget():
    fr = frame(3)
    assert exhaustive_cost(fr, 2) == UPSET_COUNTS[3] ** 2 * fr.world_count
    assert exhaustive_cost(frame(7), 1) is None
    with pytest.raises(LimitError):
        valid_on(fr, parse("p & q -> p"), "exhaustive", budget=10)


def test_sample_mode_is_deterministic():
    fr = frame(4)
    f = parse("(p -> q) | (q -> p)")
    a = valid_on(fr, f, "sample", count=200, seed=9)
    b = valid_on(fr, f, "sample", count=200, seed=9)
    assert a.witness is not None and b.witness is not None
    assert a.witness.to_obj() == b.witness.to_obj()
    assert not a.exhaustive


def test_refute_scans_frames_in_order():
    wit = refute(parse("p | ~p"), 3)
    assert wit.n == 2  # valid on the one-generator frame, fails on two
    assert wit.world == world(1, 2)
    assert refute(parse("p -> p"), 3) is None
    assert refute(parse("~~p -> p"), 3).n == 2


def test_auto_mode_is_exhaustive_exactly_within_budget():
    fr = frame(2)
    f = parse("p & q -> p")
    cost = exhaustive_cost(fr, 2)
    at = valid_on(fr, f, "auto", count=7, budget=cost)
    assert (at.valid, at.exhaustive, at.checked) == (True, True, UPSET_COUNTS[2] ** 2)
    below = valid_on(fr, f, "auto", count=7, budget=cost - 1)
    assert (below.valid, below.exhaustive, below.checked) == (True, False, 7)
    # a refutation is the one its mode finds on its own
    g = parse("p -> q")
    assert (valid_on(fr, g, "auto", budget=cost).witness.to_obj()
            == valid_on(fr, g, "exhaustive").witness.to_obj())
    assert (valid_on(fr, g, "auto", count=7, seed=3, budget=cost - 1).witness.to_obj()
            == valid_on(fr, g, "sample", count=7, seed=3).witness.to_obj())
    with pytest.raises(LimitError):
        valid_on(fr, f, "exhaustive", budget=cost - 1)
    # no up-set table beyond M_6: auto samples, exhaustive refuses
    big = valid_on(frame(7), parse("p -> p"), "auto", count=5)
    assert (big.valid, big.exhaustive, big.checked) == (True, False, 5)
    with pytest.raises(LimitError):
        valid_on(frame(7), parse("p -> p"), "exhaustive")


def test_unknown_mode_is_rejected_before_any_work():
    # M_7 would raise LimitError in exhaustive mode; the mode check comes first
    for fr in (frame(1), frame(7)):
        with pytest.raises(ValueError, match="unknown mode"):
            valid_on(fr, parse("p"), "guess")
    with pytest.raises(ValueError, match="unknown mode"):
        refute(parse("p"), 1, "guess")


def test_refute_honours_intuitionistic_theorems():
    for text in ["p -> p", "~~(p | ~p)", "p & q -> q", "F -> p"]:
        assert refute(parse(text), 3) is None, text


def test_iter_valuations_count_and_coverage():
    fr = frame(2)
    vals = list(iter_valuations(fr, ["p"]))
    assert len(vals) == UPSET_COUNTS[2]
    seen = {v.map["p"] for v in vals}
    assert len(seen) == UPSET_COUNTS[2]
    empty = list(iter_valuations(fr, []))
    assert len(empty) == 1 and empty[0].map == {}


def test_iter_valuations_runs_in_product_order():
    # the odometer over the up-set table against the product it replaced
    for n in (1, 2, 3):
        fr = frame(n)
        for k in range(4):
            names = ["p", "q", "r"][:k]
            want = [dict(zip(names, ups))
                    for ups in itertools.product(medvedev._upset_list(n), repeat=k)]
            assert [v.map for v in iter_valuations(fr, names)] == want, (n, k)


def decode_chunks(fr, chunks):
    """Every valuation of a chunk stream, block by block off the packed values;
    also checks that the chunks are contiguous and hold nothing past their
    last block."""
    block = max(8, 1 << fr.n)
    decoded = []
    for start, length, atom_bits in chunks:
        assert start == len(decoded)
        assert all(bits >> length * block == 0 for bits in atom_bits.values())
        decoded += [Valuation(fr, {nm: bits >> i * block & (1 << block) - 1
                                   for nm, bits in atom_bits.items()})
                    for i in range(length)]
    return decoded


@pytest.mark.parametrize("bound", [3, 7])
def test_iter_valuations_matches_packed_sweep_decoding(monkeypatch, bound):
    # bound 3 splits an atom's range on M_2 (5 up-sets), both split it on M_3
    # (19); M_4 and M_5 pack blocks of 2 and 4 bytes
    monkeypatch.setattr(medvedev, "_CHUNK_VALUATIONS", bound)
    for n, atom_count in ((1, 3), (2, 3), (3, 3), (4, 2), (5, 1)):
        fr = frame(n)
        for names in ([], ["p"], ["p", "q"], ["p", "q", "r"])[:atom_count + 1]:
            decoded = decode_chunks(fr, full_order_chunks(fr, names, 1))
            assert list(iter_valuations(fr, names)) == decoded, (n, names)


@pytest.mark.parametrize("n", range(1, 9))
def test_sample_valuation_draws_match_packed_sample_decoding(n):
    fr = frame(n)
    for names in ([], ["p"], ["p", "q"], ["p", "q", "r"]):
        for count in (0, 1, 2, 3, 7, 300, 1000):
            for seed in (0, 11):
                rng = random.Random(seed)
                draws = [sample_valuation(fr, names, rng) for _ in range(count)]
                chunks = list(medvedev._sample_chunks(fr, names, count, seed, 1))
                assert decode_chunks(fr, chunks) == draws, (names, count, seed)
    if n == 8:  # chunks double up to the cap, 65536 // 255 = 257 draws
        assert [length for _, length, _ in chunks] == [1 << i for i in range(9)] + [257, 232]


def test_packed_up_matches_close_up_per_block():
    rng = random.Random(73)
    for n in range(1, 9):
        fr = frame(n)
        block = max(8, 1 << n)
        for k in (1, 2, 7, 20):
            raw = [rng.getrandbits(fr.world_count) for _ in range(k)]
            packed = medvedev._up(sum(b << i * block for i, b in enumerate(raw)),
                                  medvedev._layout(n, k)[1])
            for i, b in enumerate(raw):
                cones = 0
                for w in upset_worlds(b):
                    cones |= fr.up_bits(w)
                assert packed >> i * block & (1 << block) - 1 == close_up(fr, b) == cones
            assert packed >> k * block == 0


def test_witness_self_check_rejects_forced_world():
    fr = frame(2)
    val = valuation(fr, {"p": [world(1)]})
    with pytest.raises(SelfCheckError):
        RefutationWitness(2, val, world(1), Atom("p"))


def test_witness_self_check_rejects_foreign_frame_and_world():
    val = valuation(frame(2), {"p": []})
    with pytest.raises(SelfCheckError, match="wrong frame"):
        RefutationWitness(3, val, world(1), Atom("p"))
    for w in (0, 4):
        with pytest.raises(SelfCheckError, match=f"world mask {w} outside M_2"):
            RefutationWitness(2, val, w, Atom("p"))


def test_forces_rejects_a_world_outside_the_frame():
    fr = frame(2)
    val = valuation(fr, {"p": [world(1)]})
    assert forces(fr, val, world(1), Atom("p")) and not forces(fr, val, 3, Atom("p"))
    for w in (0, 4):
        with pytest.raises(ValueError, match=f"world mask {w} outside M_2"):
            forces(fr, val, w, Atom("p"))


def test_truth_set_and_forces_reject_a_valuation_of_another_frame():
    val = valuation(frame(2), {"p": [world(1)]})
    with pytest.raises(ValueError, match="valuation lives on M_2, not M_3"):
        truth_set(frame(3), val, parse("~p"))
    with pytest.raises(ValueError, match="valuation lives on M_2, not M_3"):
        forces(frame(3), val, world(1), parse("~p"))
    assert truth_set(frame(2), val, parse("~p")) == 0b010


def test_witness_json_round_trip():
    wit = refute(parse("~~p -> p"), 2)
    obj = wit.to_obj()
    back = witness_from_obj(obj)
    assert back.n == wit.n
    assert back.world == wit.world
    assert back.valuation.map == wit.valuation.map
    assert back.to_obj() == obj


def test_valuation_json_round_trip():
    fr = frame(3)
    val = valuation(fr, {"p": [world(1), world(2, 3)], "q": []})
    obj = val.to_obj()
    assert obj == {"p": [[1], [2], [3], [2, 3]], "q": []}
    assert valuation_from_obj(fr, obj).map == val.map


# --- exhaustive sweep against the per-valuation loop ---------------------

def reference_sweep(fr, f):
    """(valid, checked, witness valuation, witness world) by one
    ``run_program`` call per valuation in enumeration order."""
    prog = compile_formula(f)
    checked = 0
    for val in iter_valuations(fr, atoms(f)):
        checked += 1
        bad = fr.all_worlds ^ run_program(fr, prog, val.map)[-1]
        if bad:
            return False, checked, val.map, (bad & -bad).bit_length()
    return True, checked, None, None


def sweep(fr, f):
    res = valid_on(fr, f, "exhaustive")
    assert res.exhaustive
    if res.witness is None:
        return res.valid, res.checked, None, None
    return res.valid, res.checked, res.witness.valuation.map, res.witness.world


def sweep_corpus(seed, count):
    """Seeded formulas over 0-3 atoms, constants included."""
    rng = random.Random(seed)
    return [random_formula(rng, ["p", "q", "r"][:rng.randrange(4)], rng.randrange(1, 6))
            for _ in range(count)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_sweep_matches_per_valuation_loop(n):
    fr = frame(n)
    outcomes = set()
    for f in sweep_corpus(40 + n, 150):
        got = sweep(fr, f)
        assert got == reference_sweep(fr, f), render(f)
        outcomes.add(got[0])
    assert outcomes == {True, False}


def test_sweep_chunks_split_an_atom_with_more_upsets_than_the_bound():
    def chunks(u, atom_count, cap):
        return list(medvedev._chunks([(0, 1, u**atom_count)], u, cap))

    # M_3 has 19 up-sets: one atom's range is split 7 + 7 + 5
    assert chunks(19, 1, 7) == [[(0, 7)], [(7, 7)], [(14, 5)]]
    # a chunk fills up across the up-sets of the outer atom
    assert chunks(19, 2, 7)[2:4] == [[(14, 5), (19, 2)], [(21, 7)]]
    # M_2 has 5: whole blocks of the inner atom, then the next block split
    assert chunks(5, 2, 7)[:2] == [[(0, 5), (5, 2)], [(7, 3), (10, 4)]]
    assert chunks(5, 0, 7) == [[(0, 1)]]
    # 2**18 valuations of M_1 under a cap of 127: every chunk but the last is full
    assert [sum(k for _, k in runs) for runs in chunks(2, 18, 127)] == [127] * 2064 + [16]


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 7, 19, 20, 40, 400])
def test_exhaustive_sweep_small_chunks_match_per_valuation_loop(monkeypatch, bound):
    # bounds below 5 (M_2) or 19 (M_3) up-sets split an atom's range
    monkeypatch.setattr(medvedev, "_CHUNK_VALUATIONS", bound)
    at_start = at_end = 0
    # the last fails first at the second valuation of 3-atom M_3, which opens
    # the second chunk of a sweep that builds its leader chunks as it goes
    extra = ["p -> q", "(q -> p) | r", "(~p -> q | r) -> (~p -> q) | (~p -> r)", "p | q | ~r"]
    for f in sweep_corpus(7, 120) + [parse(text) for text in extra]:
        for n in (1, 2, 3):
            fr = frame(n)
            got = sweep(fr, f)
            assert got == reference_sweep(fr, f), (n, render(f))
            if not got[0]:
                index = got[1] - 1
                # the sweep runs lex-leaders: the refutation's position among
                # them, and the chunk of the sweep's stream that holds it
                pos = sum(min(max(index - s, 0), count * size)
                          for s, count, size in medvedev._leader_pieces(n, len(atoms(f))))
                chunks = medvedev._valuation_chunks(fr, atoms(f), len(compile_formula(f)))
                start, length, _ = next(c for c in chunks if pos < c[0] + c[1])
                at_start += 0 < start == pos
                at_end += 1 < length == pos - start + 1
    # some refutations open a later chunk, some close a chunk of several
    assert at_start and (at_end or bound == 1)


# --- packed sampling against one valuation at a time -------------------

def reference_sample(fr, f, count, seed):
    """(valid, checked, witness valuation, witness world) by one
    ``run_program`` call per seeded ``sample_valuation`` draw."""
    rng = random.Random(seed)
    prog = compile_formula(f)
    names = atoms(f)
    for i in range(count):
        val = sample_valuation(fr, names, rng)
        bad = fr.all_worlds ^ run_program(fr, prog, val.map, count=1)[-1]
        if bad:
            return False, i + 1, val.map, (bad & -bad).bit_length()
    return True, count, None, None


@pytest.mark.parametrize("n", range(1, 9))
def test_sampling_matches_per_sample_loop(n):
    fr = frame(n)
    rng = random.Random(60 + n)
    # a disjunction of k atoms fails under a draw about once in 2**k, so its
    # first failure lands in later chunks of the doubling sequence
    rare = [(parse(" | ".join("pqrstu"[:k])), seed)
            for k in (2, 3, 4, 5, 6) for seed in range(4)]
    refuted_at = set()
    for count in (1, 2, 3, 7, 100, 300):
        corpus = rare + [(random_formula(rng, ["p", "q", "r"][:rng.randrange(4)],
                                         rng.randrange(1, 6)), seed) for seed in range(10)]
        for f, seed in corpus:
            res = valid_on(fr, f, "sample", count=count, seed=seed)
            assert not res.exhaustive
            got = (res.valid, res.checked,
                   res.witness and res.witness.valuation.map, res.witness and res.witness.world)
            assert got == reference_sample(fr, f, count, seed), (count, seed, render(f))
            if not res.valid:
                refuted_at.add(res.checked)
    # chunk k holds draws 2**k .. 2**(k+1) - 1: refutations in chunks 0 to 3 at least
    assert {c.bit_length() for c in refuted_at} >= {1, 2, 3, 4}


# --- the bit cap on a chunk -------------------------------------------------

def spy_run_program(monkeypatch):
    """Record (count, bits held) of every ``run_program`` call, which keeps
    one packed value of ``count`` blocks per instruction."""
    real, seen = medvedev.run_program, []

    def spy(fr, prog, atom_bits, count=1):
        seen.append((count, len(prog) * count * max(8, 1 << fr.n)))
        return real(fr, prog, atom_bits, count)
    monkeypatch.setattr(medvedev, "run_program", spy)
    return seen


def test_long_program_sweep_stays_under_the_chunk_bit_cap(monkeypatch):
    # 16,447 instructions over 14 atoms: the 16,384 valuations of M_1 in one
    # chunk would hold 2**31 bits
    f = parse("(" + " | ".join(f"~p{i}" for i in range(12)) + ") -> (~q | ~r)")
    both = iff(f, kp_normalize(f).to_formula())
    seen = spy_run_program(monkeypatch)
    res = valid_on(frame(1), both, "auto", budget=10**7)
    assert (res.valid, res.exhaustive, res.checked) == (True, True, 2 ** 14)
    assert len(seen) > 1 and all(bits <= medvedev._CHUNK_BITS for _, bits in seen)


def test_streamed_sweep_without_symmetry_starts_from_one_valuation(monkeypatch):
    # 17 atoms: 2**17 valuations of M_1, past one kept chunk, so streamed
    wide = parse(" | ".join(f"p{i}" for i in range(17)))
    seen = spy_run_program(monkeypatch)
    res = valid_on(frame(1), wide)
    # one call of one valuation, then the witness's self-check
    assert (res.valid, res.checked, [count for count, _ in seen]) == (False, 1, [1, 1])
    seen.clear()
    res = valid_on(frame(1), Imp(wide, wide))
    counts = [count for count, _ in seen]
    assert (res.valid, res.checked, sum(counts)) == (True, 2 ** 17, 2 ** 17)
    assert counts == [1 << i for i in range(17)] + [1]


@pytest.mark.parametrize("mode", ["exhaustive", "sample"])
def test_capped_chunks_match_uncapped_sweeps(monkeypatch, mode):
    frames = (1, 2, 3) if mode == "exhaustive" else (2, 5, 8)
    corpus = sweep_corpus(17, 60)
    want = [valid_on(frame(n), f, mode, count=100, seed=5) for n in frames for f in corpus]
    monkeypatch.setattr(medvedev, "_CHUNK_BITS", 1 << 12)
    seen = spy_run_program(monkeypatch)
    got = [valid_on(frame(n), f, mode, count=100, seed=5) for n in frames for f in corpus]
    assert got == want
    assert all(count == 1 or bits <= 1 << 12 for count, bits in seen)
    assert {res.valid for res in got} == {True, False}


def test_packed_run_program_matches_single_calls():
    rng = random.Random(71)
    names = ["p", "q", "r"]
    for n in range(1, 9):
        fr = frame(n)
        block = max(8, 1 << n)
        for k in (1, 2, 3, 7, 20):
            vals = [sample_valuation(fr, names, rng) for _ in range(k)]
            packed = {nm: sum(v.map[nm] << i * block for i, v in enumerate(vals))
                      for nm in names}
            prog = compile_formula(random_formula(rng, names, 5))
            got = run_program(fr, prog, packed, count=k)[-1]
            for i, v in enumerate(vals):
                assert got >> i * block & (1 << block) - 1 == run_program(fr, prog, v.map)[-1]
            assert got >> k * block == 0


# --- the one-entry compile memo -----------------------------------------

def test_compile_memo_matches_a_fresh_walk():
    """Repeats, equal copies, alternation and non-formulas, interleaved: every
    program equals a fresh ``_dag`` walk, and only a repeat of the last
    object returns the stored list itself."""
    from medlog.formula import _dag

    rng = random.Random(83)
    pool = [random_formula(rng, ["p", "q", "r"], rng.randrange(1, 6)) for _ in range(12)]
    last, hits = None, 0
    for _ in range(400):
        case = rng.randrange(4)
        if case == 0 and last is not None:
            f = last  # the same object again
        elif case == 1:
            f = parse(render(rng.choice(pool)))  # equal to a pool member, distinct
        elif case == 2:
            f = pool[len(pool) // 2 if last is pool[0] else 0]  # two formulas in turn
        else:
            stored = medvedev._compiled
            with pytest.raises(TypeError):
                compile_formula(rng.choice(["p", None, 3, ("p",)]))
            assert medvedev._compiled is stored
            continue
        prev = medvedev._compiled
        prog = compile_formula(f)
        assert prog == _dag(f)[1], render(f)
        if prev is not None and prev[0] is f:
            assert prog is prev[1]
            hits += 1
        else:
            assert prev is None or prog is not prev[1]
        assert medvedev._compiled[0] is f and medvedev._compiled[1] is prog
        last = f
    assert hits > 50


def _count_walks(monkeypatch):
    walks = []
    real = medvedev._dag

    def counted(f):
        walks.append(f)
        return real(f)

    monkeypatch.setattr(medvedev, "_dag", counted)
    return walks


def test_normal_form_check_and_proof_walk_the_equivalence_once(monkeypatch):
    from medlog.kpform import kp_normalize, verify_normal_form

    f = parse("(~p | ~q) & ~r")
    nd = kp_normalize(f)
    verify_normal_form(f, nd, bound=1)  # proves its step lemmas, which are kept
    walks = _count_walks(monkeypatch)
    rep = verify_normal_form(f, nd, bound=3)
    assert rep.ipc_equivalent is True and len(rep.frame_checks) == 3
    assert len(walks) == 1


def test_refute_and_its_witness_walk_the_formula_once(monkeypatch):
    f = parse("((p -> q) -> p) -> p")
    walks = _count_walks(monkeypatch)
    wit = refute(f, max_n=3)
    assert wit is not None and wit.n == 2
    assert walks == [f]


# --- sweeps reduced by symmetry ------------------------------------------

def outcome(res):
    return res.valid, res.mode, res.checked, res.witness and res.witness.to_obj()


def full_sweep(fr, f):
    """The exhaustive sweep of every valuation in enumeration order, the
    reference for the sweep of lex-leaders."""
    prog = compile_formula(f)
    chunks = full_order_chunks(fr, atoms(f), len(prog))
    checked, wit = medvedev._sweep(fr, f, prog, chunks)
    return outcome(FrameCheck(fr.n, "exhaustive", wit is None, checked, wit))


def reduced_sweep(monkeypatch, fr, f):
    monkeypatch.setattr(medvedev, "_compiled", None)  # compile afresh and sweep
    return outcome(valid_on(fr, f, "exhaustive"))


# theorems, a formula valid on M_2 but not on M_3 (width at most 2), and two
# refuted late in the order
THREE_ATOMS = [parse(text) for text in (
    "(p -> q) -> (q -> r) -> p -> r",
    "(~p -> q | r) -> (~p -> q) | (~p -> r)",
    "(p -> q | r) | (q -> p | r) | (r -> p | q)",
    "p -> ~q | q",
    "(~(p & q) -> p) -> (q -> r | ~q) | (r -> p) | ~r",
)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reduced_sweep_matches_full_enumeration(monkeypatch, n):
    fr = frame(n)
    seen = set()
    for f in sweep_corpus(90 + n, 80) + THREE_ATOMS:
        got = reduced_sweep(monkeypatch, fr, f)
        assert got == full_sweep(fr, f), render(f)
        seen.add((len(atoms(f)), got[0]))
    assert seen >= {(0, True), (0, False), (1, True), (1, False), (2, False), (3, True)}
    assert n == 1 or (3, False) in seen


# blocks of 2 and 4 bytes, on as many atoms as a full sweep covers in well
# under a second: theorems, and non-theorems refuted past the 500th valuation
WIDE_BLOCKS = [(n, parse(text)) for n, text in (
    (4, "p -> q -> p"), (4, "(~p -> q | ~q) -> (~p -> q) | (~p -> ~q)"),
    (4, "((p -> q) -> p) -> p"), (4, "p -> ~q | q"), (5, "~~(p | ~p)"), (5, "~~p -> p"))]


@pytest.mark.parametrize("bound, bits", [(3, None), (7, None), (50, None), (1 << 16, 1 << 12)])
def test_reduced_sweep_in_small_chunks_matches_full_enumeration(monkeypatch, bound, bits):
    monkeypatch.setattr(medvedev, "_CHUNK_VALUATIONS", bound)
    if bits:
        monkeypatch.setattr(medvedev, "_CHUNK_BITS", bits)
    calls = spy_run_program(monkeypatch)
    crossed = set()
    cases = [(n, f) for f in sweep_corpus(31, 40) + THREE_ATOMS for n in (1, 2, 3)]
    for n, f in cases + WIDE_BLOCKS:
        before = len(calls)
        got = reduced_sweep(monkeypatch, frame(n), f)
        if len(calls) - before > 1:  # the sweep ran past its first chunk
            crossed.add((n > 3, got[0]))
        assert got == full_sweep(frame(n), f), (n, bound, render(f))
    assert crossed == {(False, True), (False, False), (True, True), (True, False)}
    assert all(count <= bound and (count == 1 or held <= medvedev._CHUNK_BITS)
               for count, held in calls)


def burnside(n, k):
    """Orbits of k-tuples of up-sets of ``M_n`` under generator permutations:
    the mean over the permutations of the tuples they fix, counted once per
    cycle type."""
    ups = list(enumerate_upsets(frame(n)))
    fixed_by_type, total = {}, 0
    for perm in itertools.permutations(range(1, n + 1)):
        cycles, left = [], set(perm)
        while left:
            i, size = left.pop(), 1
            while perm[i - 1] in left:
                left.remove(perm[i - 1])
                i, size = perm[i - 1], size + 1
            cycles.append(size)
        kind = tuple(sorted(cycles))
        if kind not in fixed_by_type:
            pm = medvedev.PMorphism.from_max_map(n, n, dict(enumerate(perm, 1)))
            fixed_by_type[kind] = sum(pm.pullback(u) == u for u in ups)
        total += fixed_by_type[kind] ** k
    return total // len(list(itertools.permutations(range(n))))


@pytest.mark.parametrize("n, k, orbits", [(1, 1, 2), (2, 1, 4), (3, 1, 9), (4, 1, 29),
                                          (5, 1, 209), (3, 3, 1529), (3, 2, 106),
                                          (2, 3, 76)])
def test_lex_leaders_count_the_orbits(n, k, orbits):
    leaders = sum(count * size for _, count, size in medvedev._leader_pieces(n, k))
    assert leaders == orbits == burnside(n, k)


@pytest.mark.parametrize("n, k", [(2, 3), (3, 2), (4, 1)])
def test_lex_leaders_are_the_least_valuations_of_their_orbits(n, k):
    ups = list(enumerate_upsets(frame(n)))
    index = {u: i for i, u in enumerate(ups)}
    maps = [medvedev.PMorphism.from_max_map(n, n, dict(enumerate(perm, 1)))
            for perm in itertools.permutations(range(1, n + 1))]
    least = set()
    for pos, v in enumerate(itertools.product(range(len(ups)), repeat=k)):
        if all(tuple(index[pm.pullback(ups[i])] for i in v) >= v for pm in maps):
            least.add(pos)
    got = [start + i for start, count, size in medvedev._leader_pieces(n, k)
           for i in range(count * size)]
    assert got == sorted(least)


def test_no_permutation_tables_past_the_largest_symmetric_frame():
    assert len(medvedev._perm_tables(3)) == 5  # 3! permutations but the identity
    assert medvedev._perm_tables(6) == ()


SETTLE_MODES = [("exhaustive", {}), ("sample", {"count": 37, "seed": 4}), ("auto", {}),
                ("auto", {"budget": 10, "count": 12})]


def test_settled_programs_match_fresh_sweeps(monkeypatch):
    calls = spy_run_program(monkeypatch)

    def fresh(fr, f, mode, **kwargs):
        monkeypatch.setattr(medvedev, "_compiled", None)
        return valid_on(fr, f, mode, **kwargs)

    theorem, width2 = THREE_ATOMS[1], THREE_ATOMS[2]
    for f, top in ((theorem, 3), (width2, 2)):
        cases = [(n, mode, kw) for n in (1, 3, 2) for mode, kw in SETTLE_MODES]
        want = [fresh(frame(n), f, mode, **kw) for n, mode, kw in cases]
        assert valid_on(frame(top), f, "exhaustive").valid  # settles M_1 .. M_top
        for (n, mode, kw), res in zip(cases, want):
            before = len(calls)
            assert valid_on(frame(n), f, mode, **kw) == res, (render(f), n, mode, kw)
            assert (len(calls) == before) == (n <= top), (render(f), n, mode, kw)
            if mode == "sample":
                assert res.checked == kw["count"] or not res.valid
        # the mode is planned first: over budget stays a LimitError
        with pytest.raises(LimitError):
            valid_on(frame(1), f, "exhaustive", budget=1)
    # the width-2 formula is refuted on M_3, settled or not
    assert not [res for res in want if res.n == 3][0].valid
    # another program in between: the memo does not answer for it, nor after it
    other = parse("p | ~p")
    assert outcome(valid_on(frame(2), other, "exhaustive")) == full_sweep(frame(2), other)
    before = len(calls)
    assert valid_on(frame(1), width2, "exhaustive") == fresh(frame(1), width2, "exhaustive")
    assert len(calls) > before


# --- subframes and block embeddings ------------------------------------

def test_generated_subframe_compress_expand():
    fr = frame(3)
    sub = generated_subframe(fr, world(1, 3))
    assert sub.m == 2

    def compress(w):  # the one subframe world mapped onto w
        (x,) = upset_worlds(sub.pullback(1 << (w - 1)))
        return x

    assert sub.apply(compress(world(1, 3))) == world(1, 3)
    assert compress(world(1, 3)) == frame(sub.m).bottom()
    assert compress(world(1)) == world(1)
    assert compress(world(3)) == world(2)


def test_generated_subframe_preserves_truth():
    # the cone above a world is itself a frame on the world's generators
    rng = random.Random(29)
    fr = frame(4)
    root = world(1, 3, 4)
    sub = generated_subframe(fr, root)
    assert sub.m == 3
    small_fr = frame(sub.m)
    for _ in range(30):
        val = sample_valuation(fr, ["p", "q"], rng)
        restricted = Valuation(small_fr, {a: sub.pullback(bits) for a, bits in val.map.items()})
        f = random_formula(rng, ["p", "q"], depth=4)
        big = truth_set(fr, val, f)
        small = truth_set(small_fr, restricted, f)
        for w in small_fr.worlds():
            assert bool(small >> (w - 1) & 1) == bool(
                big >> (sub.apply(w) - 1) & 1), (f, w)


def test_disjoint_embed_blocks():
    left, right = disjoint_embed(2, 3)
    assert left.apply(world(1, 2)) == world(1, 2)
    assert right.apply(world(1)) == world(3)
    assert right.apply(world(1, 2, 3)) == world(3, 4, 5)


def test_dp_countermodel_combines_witnesses():
    wl = refute(parse("~p"), 1)
    wr = refute(parse("~~p"), 1)
    combined = dp_countermodel(wl, wr)
    assert combined.n == 2
    assert combined.world == world(1, 2)
    assert combined.formula == Or(wl.formula, wr.formula)


def test_dp_countermodel_disjoint_atoms():
    wl = refute(parse("p | ~p"), 2)
    wr = refute(parse("q | ~q"), 2)
    combined = dp_countermodel(wl, wr)
    assert combined.n == 4
    assert combined.world == frame(4).bottom()
    # self-check in the constructor already verified failure; re-verify
    assert not forces(frame(4), combined.valuation, combined.world,
                      combined.formula)
