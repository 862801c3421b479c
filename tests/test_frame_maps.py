"""Frame maps: generated subframes and block embeddings as p-morphisms.

The references below are the per-world loops that restricted valuations,
embedded up-sets and compared forcing before every frame map became a
``PMorphism``; the library's pullbacks and images must agree with them.
"""

import random

import pytest

from medlog.alpha import u_valuation, universal_subst
from medlog.errors import SelfCheckError
from medlog.formula import Atom, Imp, Neg, Or, Substitution, apply_subst, render
from medlog.medvedev import (
    PMorphism,
    RefutationWitness,
    Valuation,
    close_up,
    compile_formula,
    disjoint_embed,
    dp_countermodel,
    frame,
    generated_subframe,
    gens,
    is_upset,
    refute,
    run_program,
    sample_valuation,
    upset_worlds,
    valid_on,
)
from medlog.randgen import random_formula
from medlog.structural import (
    AdmissibilityWitness,
    admissibility_witness,
    check_pmorphism,
    transfer_check,
)

# --- references ------------------------------------------------------------


def ref_restrict_valuation(fr, root, val):
    """The valuation on the cone above ``root``, world by world, generators
    of ``root`` renumbered ``1..popcount(root)`` in ascending order."""
    gen_map = {g: i + 1 for i, g in enumerate(gens(root))}
    out = {}
    for atom, bits in val.map.items():
        new_bits = 0
        for w in upset_worlds(bits):
            if w | root == root:
                compressed = 0
                for g in gens(w):
                    compressed |= 1 << (gen_map[g] - 1)
                new_bits |= 1 << (compressed - 1)
        out[atom] = new_bits
    return Valuation(frame(root.bit_count()), out)


def ref_embed_upset(shift, bits):
    out = 0
    for w in upset_worlds(bits):
        out |= 1 << ((w << shift) - 1)
    return out


def ref_admissibility_witness(premise, conclusion, max_n, *, validity_bound, count, seed):
    found = refute(Imp(premise, conclusion), max_n, count=count, seed=seed)
    if found is None:
        return None
    fr, val = frame(found.n), found.valuation
    prog_p, prog_c = compile_formula(premise), compile_formula(conclusion)
    separating = run_program(fr, prog_p, val.map) & ~run_program(fr, prog_c, val.map)
    w = min(upset_worlds(separating), key=lambda w: (-w.bit_count(), w))
    restricted = ref_restrict_valuation(fr, w, val)
    k = restricted.frame.n
    sigma = universal_subst(k, restricted)
    refutation = RefutationWitness(k, u_valuation(k), frame(k).bottom(),
                                   apply_subst(sigma, conclusion))
    image_premise = apply_subst(sigma, premise)
    evidence = []
    for n2 in range(1, validity_bound + 1):
        res = valid_on(frame(n2), image_premise, "auto", count=count, seed=seed + n2)
        if not res.valid:
            raise SelfCheckError("premise image refuted")
        evidence.append(res)
    return AdmissibilityWitness(premise, conclusion, k, restricted, sigma, refutation,
                                tuple(evidence))


def ref_dp_countermodel(wit_left, wit_right):
    m, n = wit_left.n, wit_right.n
    target = frame(m + n)
    combined = {}
    for atom in sorted(set(wit_left.valuation.map) | set(wit_right.valuation.map)):
        bits = (ref_embed_upset(0, wit_left.valuation.map.get(atom, 0))
                | ref_embed_upset(m, wit_right.valuation.map.get(atom, 0)))
        combined[atom] = close_up(target, bits)
    w = wit_left.world | wit_right.world << m
    return RefutationWitness(m + n, Valuation(target, combined), w,
                             Or(wit_left.formula, wit_right.formula))


def ref_transfer_case(pm, f, source, target):
    """(ok, least world where ``x`` and ``pm.apply(x)`` disagree on ``f``)."""
    fr_m, prog = frame(pm.m), compile_formula(f)
    ts_source = run_program(fr_m, prog, source.map)
    ts_target = run_program(frame(pm.n), prog, target.map)
    for x in fr_m.worlds():
        if bool(ts_source >> (x - 1) & 1) != bool(ts_target >> (pm.apply(x) - 1) & 1):
            return False, x
    return True, None


# --- differential tests -----------------------------------------------------


def test_admissibility_witness_matches_the_per_world_restriction():
    rng = random.Random(83)
    found = 0
    for i in range(40):
        names = ["p", "q", "r"][:rng.randrange(1, 4)]
        conclusion = random_formula(rng, names, rng.randrange(1, 4))
        other = random_formula(rng, names, rng.randrange(1, 3))
        # double negation and Peirce elimination are classically sound, so
        # they separate above M_1 when they separate at all
        premise = (random_formula(rng, names, rng.randrange(1, 4)), Neg(Neg(conclusion)),
                   Imp(Imp(conclusion, other), conclusion))[i % 3]
        max_n = rng.randrange(2, 4)
        kwargs = dict(validity_bound=2, count=20, seed=i)
        got = admissibility_witness(premise, conclusion, max_n, **kwargs)
        want = ref_admissibility_witness(premise, conclusion, max_n, **kwargs)
        assert (got and got.to_obj()) == (want and want.to_obj()), (
            render(premise), render(conclusion))
        found += got is not None
    assert 0 < found < 40


def test_dp_countermodel_matches_the_per_world_embedding():
    rng = random.Random(89)
    witnesses = []
    while len(witnesses) < 12:
        wit = refute(random_formula(rng, ["p", "q", "r"], 3), 3, count=20, seed=len(witnesses))
        if wit is not None:
            witnesses.append(wit)
    for left in witnesses:
        for right in witnesses:
            want = ref_dp_countermodel(left, right).to_obj()
            assert dp_countermodel(left, right).to_obj() == want


def test_transfer_case_matches_the_per_world_loop():
    """One explicit formula through ``transfer_check`` with the identity
    substitution: its case compares ``f`` under ``source`` with ``f`` under
    ``target`` along the map."""
    rng = random.Random(97)
    identity = Substitution({"p": Atom("p"), "q": Atom("q")})
    failed = held = 0
    for _ in range(300):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        if rng.random() < 0.5:  # any dense map, rarely a p-morphism
            pm = PMorphism(m, n, tuple(rng.randrange(1, 1 << n) for _ in range(2 ** m - 1)))
        else:
            pm = PMorphism.from_max_map(m, n, {i: rng.randrange(1, n + 1)
                                               for i in range(1, m + 1)})
        target = sample_valuation(frame(n), ["p", "q"], rng)
        if rng.random() < 0.5:  # pulled back along a p-morphism, forcing transfers
            source = Valuation(frame(m), {a: pm.pullback(b) for a, b in target.map.items()})
        else:
            source = sample_valuation(frame(m), ["p", "q"], rng)
        f = random_formula(rng, ["p", "q"], rng.randrange(1, 5))
        (case,) = transfer_check(pm, identity, target, source, [f]).cases
        want = ref_transfer_case(pm, f, source, target)
        assert (case.ok, case.world) == want, (pm, render(f))
        failed += not case.ok
        held += case.ok
    assert failed > 30 and held > 30


# --- properties ---------------------------------------------------------------


def test_generated_subframes_and_block_embeddings_are_pmorphisms():
    maps = [generated_subframe(frame(n), w) for n in range(1, 6) for w in frame(n).worlds()]
    maps += [emb for m in range(1, 8) for n in range(1, 9 - m) for emb in disjoint_embed(m, n)]
    assert len(maps) == 57 + 56
    for pm in maps:
        assert check_pmorphism(pm).ok, pm


def test_pullback_is_the_preimage_and_keeps_upsets():
    rng = random.Random(101)
    for _ in range(200):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        monotone = rng.random() < 0.5
        if monotone:
            pm = PMorphism.from_max_map(m, n, {i: rng.randrange(1, n + 1)
                                               for i in range(1, m + 1)})
        else:
            pm = PMorphism(m, n, tuple(rng.randrange(1, 1 << n) for _ in range(2 ** m - 1)))
        bits = rng.getrandbits(frame(n).world_count)
        for b in (bits, close_up(frame(n), bits)):
            preimage = sum(1 << (x - 1) for x in frame(m).worlds() if b >> (pm.apply(x) - 1) & 1)
            assert pm.pullback(b) == preimage
            if monotone and is_upset(frame(n), b):
                assert is_upset(frame(m), pm.pullback(b))


def test_frame_maps_reject_frames_and_worlds_out_of_range():
    with pytest.raises(ValueError):
        disjoint_embed(15, 10)
    with pytest.raises(ValueError):
        generated_subframe(frame(2), 4)
    with pytest.raises(ValueError):
        generated_subframe(frame(2), 0)
