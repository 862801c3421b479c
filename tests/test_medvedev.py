"""Frame construction, forcing, enumeration, and refutation search.

The enumeration and forcing tests cross-check against deliberately naive
reference implementations that quantify over whole powersets.
"""

import itertools
import random

import pytest

from medlog import medvedev
from medlog.errors import LimitError, SelfCheckError
from medlog.formula import And, Atom, Imp, Neg, Or, atoms, parse, render
from medlog.medvedev import (
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
    persistence_check,
    refute,
    run_program,
    sample_valuation,
    truth_set,
    upset_from_worlds,
    upset_worlds,
    valid_on,
    valuation,
    valuation_from_obj,
    witness_from_obj,
    world,
)
from medlog.randgen import random_formula


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
            if all(v in ws for w in ws for v in worlds if fr.le(w, v)):
                found.append(upset_from_worlds(fr, ws))
    return sorted(found)


def naive_forces(fr, val, w, f):
    """Textbook forcing clauses with explicit successor quantification."""
    succ = [v for v in fr.worlds() if fr.le(w, v)]
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
    assert fr.le(world(1, 2, 3), world(1))
    assert fr.le(world(1, 2), world(2))
    assert not fr.le(world(1), world(1, 2))
    assert not fr.le(world(1, 2), world(3))
    assert fr.bottom() == world(1, 2, 3)
    assert all(fr.le(fr.bottom(), w) for w in fr.worlds())


def test_maximal_worlds_are_singletons():
    fr = frame(4)
    maxes = [w for w in fr.worlds() if fr.is_maximal(w)]
    assert maxes == [world(i) for i in range(1, 5)]


def test_up_down_covers_bits():
    fr = frame(3)
    w = world(1, 2)
    assert sorted(upset_worlds(fr.up_bits(w))) == [world(1), world(2), world(1, 2)]
    assert sorted(upset_worlds(fr.down_bits(w))) == [world(1, 2), world(1, 2, 3)]
    assert sorted(upset_worlds(fr.covers_bits(w))) == [world(1), world(2)]
    # covers of bottom drop exactly one generator each
    bot = fr.bottom()
    assert sorted(upset_worlds(fr.covers_bits(bot))) == [
        world(1, 2), world(1, 3), world(2, 3)]


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
                down |= fr.down_bits(w)
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


def test_upset_count_n5():
    assert sum(1 for _ in enumerate_upsets(frame(5))) == UPSET_COUNTS[5]


def test_enumeration_ascending_and_valid():
    fr = frame(3)
    prev = -1
    for bits in enumerate_upsets(fr):
        assert bits > prev
        assert is_upset(fr, bits)
        prev = bits


def test_enumeration_rejects_large_n():
    with pytest.raises(LimitError):
        list(enumerate_upsets(frame(7)))


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


def test_witness_self_check_rejects_forced_world():
    fr = frame(2)
    val = valuation(fr, {"p": [world(1)]})
    with pytest.raises(SelfCheckError):
        RefutationWitness(2, val, world(1), Atom("p"))


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
        bad = fr.all_worlds ^ run_program(fr, prog, val.map)
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


def test_sweep_chunks_split_an_atom_with_more_upsets_than_the_bound(monkeypatch):
    monkeypatch.setattr(medvedev, "_CHUNK_VALUATIONS", 7)
    # M_3 has 19 up-sets: one atom's range is split 7 + 7 + 5
    assert list(medvedev._chunks(19, 1)) == [(0, 7), (7, 7), (14, 5)]
    # the outer atom is fixed per chunk, the inner one split as above
    assert list(medvedev._chunks(19, 2))[3:6] == [(19, 7), (26, 7), (33, 5)]
    # M_2 has 5: a whole atom fits, and the next one out takes one up-set per chunk
    assert list(medvedev._chunks(5, 2))[:2] == [(0, 5), (5, 5)]
    assert list(medvedev._chunks(5, 0)) == [(0, 1)]


@pytest.mark.parametrize("bound", [1, 2, 3, 4, 5, 7, 19, 20, 40, 400])
def test_exhaustive_sweep_small_chunks_match_per_valuation_loop(monkeypatch, bound):
    # bounds below 5 (M_2) or 19 (M_3) up-sets split an atom's range
    monkeypatch.setattr(medvedev, "_CHUNK_VALUATIONS", bound)
    at_start = at_end = 0
    extra = ["p -> q", "(q -> p) | r", "(~p -> q | r) -> (~p -> q) | (~p -> r)"]
    for f in sweep_corpus(7, 120) + [parse(text) for text in extra]:
        for n in (1, 2, 3):
            fr = frame(n)
            got = sweep(fr, f)
            assert got == reference_sweep(fr, f), (n, render(f))
            if not got[0]:
                index = got[1] - 1
                chunks = medvedev._chunks(UPSET_COUNTS[n], len(atoms(f)))
                start, length = next((s, k) for s, k in chunks if index < s + k)
                at_start += 0 < start == index
                at_end += 1 < length == index - start + 1
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
        bad = fr.all_worlds ^ run_program(fr, prog, val.map, count=1)
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
            got = run_program(fr, prog, packed, count=k)
            for i, v in enumerate(vals):
                assert got >> i * block & (1 << block) - 1 == run_program(fr, prog, v.map)
            assert got >> k * block == 0


# --- subframes and block embeddings ------------------------------------

def test_generated_subframe_compress_expand():
    fr = frame(3)
    sub = generated_subframe(fr, world(1, 3))
    assert sub.frame.n == 2
    assert sub.expand(sub.compress(world(1, 3))) == world(1, 3)
    assert sub.compress(world(1, 3)) == sub.frame.bottom()
    assert sub.compress(world(1)) == world(1)
    assert sub.compress(world(3)) == world(2)


def test_generated_subframe_preserves_truth():
    # the cone above a world is itself a frame on the world's generators
    rng = random.Random(29)
    fr = frame(4)
    root = world(1, 3, 4)
    sub = generated_subframe(fr, root)
    assert sub.frame.n == 3
    for _ in range(30):
        val = sample_valuation(fr, ["p", "q"], rng)
        restricted = sub.restrict_valuation(val)
        f = random_formula(rng, ["p", "q"], depth=4)
        big = truth_set(fr, val, f)
        small = truth_set(sub.frame, restricted, f)
        for w in sub.frame.worlds():
            assert bool(small >> (w - 1) & 1) == bool(
                big >> (sub.expand(w) - 1) & 1), (f, w)


def test_disjoint_embed_blocks():
    left, right = disjoint_embed(2, 3)
    assert left.embed_world(world(1, 2)) == world(1, 2)
    assert right.embed_world(world(1)) == world(3)
    assert right.embed_world(world(1, 2, 3)) == world(3, 4, 5)


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
