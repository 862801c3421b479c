"""The pairwise-contradictory family and the universal valuation."""

import hashlib
import json
import random

import pytest

from medlog.errors import UnknownAtomError
from medlog.formula import (
    NEG_TOP,
    Neg,
    TOP,
    apply_subst,
    big_or,
    parse,
    render,
)
from medlog.alpha import (
    alpha_I,
    alpha_formulas,
    u_valuation,
    universal_subst,
    verify_lemma,
)
from medlog.ipc import classically_valid, ipc_provable
from medlog.medvedev import (
    frame,
    gens,
    sample_valuation,
    truth_set,
    valuation,
    world,
)
from medlog.randgen import random_formula
from oracles import family_atoms


def family_texts(n):
    return [render(a) for a in alpha_formulas(n).formulas]


def test_family_goldens():
    assert family_texts(1) == ["T"]
    assert family_texts(2) == ["p1", "~p1"]
    assert family_texts(3) == [
        "p1 & p2",
        "p1 & ~p2",
        "~p1 & p2 | ~p1 & ~p2",
    ]
    assert family_texts(4) == [
        "p1 & p2",
        "p1 & ~p2",
        "~p1 & p2",
        "~p1 & ~p2",
    ]


def test_family_n5_merges_tail():
    texts = family_texts(5)
    assert texts[:4] == [
        "p1 & p2 & p3",
        "p1 & p2 & ~p3",
        "p1 & ~p2 & p3",
        "p1 & ~p2 & ~p3",
    ]
    assert texts[4] == (
        "~p1 & p2 & p3 | ~p1 & p2 & ~p3 | ~p1 & ~p2 & p3 | ~p1 & ~p2 & ~p3"
    )


def test_family_sizes_and_atom_counts():
    for n in range(1, 12):
        fam = alpha_formulas(n)
        assert len(fam.formulas) == n
        assert fam.m == (0 if n == 1 else (n - 1).bit_length())
        assert family_atoms(fam) == [f"p{j}" for j in range(1, fam.m + 1)]


def test_members_pairwise_contradictory_intuitionistically():
    for n in (2, 3, 4, 5):
        fam = alpha_formulas(n).formulas
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                claim = Neg(parse(f"({render(fam[i])}) & ({render(fam[j])})"))
                assert ipc_provable(claim), (n, i, j)


def test_family_jointly_exhaustive():
    for n in (2, 3, 4, 5):
        joined = big_or(list(alpha_formulas(n).formulas))
        assert classically_valid(joined)
        assert ipc_provable(Neg(Neg(joined)))


def test_alpha_I_shape_and_validation():
    fam = alpha_formulas(3)
    f = alpha_I(fam, [2, 1])
    assert render(f) == "~~(p1 & p2 | p1 & ~p2)"
    with pytest.raises(ValueError):
        alpha_I(fam, [])
    with pytest.raises(ValueError):
        alpha_I(fam, [4])
    with pytest.raises(ValueError):
        alpha_I(fam, [0, 1])


def test_universal_valuation_atom_cones():
    u = u_valuation(3)
    fr = frame(3)
    # p1 marks the maximal worlds with a positive first literal: 1 and 2
    assert u.map["p1"] == fr.up_bits(world(1, 2))
    assert u.map["p2"] == fr.up_bits(world(1, 3))


def test_universal_valuations_are_pinned():
    # the atom cones of M_1..M_12, pinned so that any change to the construction shows
    text = json.dumps([u_valuation(n).to_obj() for n in range(1, 13)], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0818d0d8be08c9cb0498f58ea57918ef35cecc981141b49f82fa4a34ef4955ae")


def test_maximal_worlds_force_exactly_their_member():
    for n in (2, 3, 4, 5, 6):
        u = u_valuation(n)
        fr = frame(n)
        for i in range(1, n + 1):
            for j, a in enumerate(alpha_formulas(n).formulas, start=1):
                forced = bool(truth_set(fr, u, a) >> (world(i) - 1) & 1)
                assert forced == (i == j), (n, i, j)


def test_membership_law_explicit():
    # the truth set of ~~(disjunction over I) is the submask cone of I
    for n in (2, 3, 4):
        u = u_valuation(n)
        fr = frame(n)
        for mask in fr.worlds():
            f = alpha_I(alpha_formulas(n), gens(mask))
            assert truth_set(fr, u, f) == fr.up_bits(mask), (n, mask)


def test_universal_subst_goldens():
    fr1 = frame(1)
    v = valuation(fr1, {"p": [], "q": [world(1)]})
    sigma = universal_subst(1, v)
    assert sigma.mapping["p"] == NEG_TOP
    assert render(sigma.mapping["q"]) == "~~T"

    fr2 = frame(2)
    v2 = valuation(fr2, {"p": [world(1)]})
    sigma2 = universal_subst(2, v2)
    assert render(sigma2.mapping["p"]) == "~~p1"

    v3 = valuation(fr2, {"p": [world(1, 2)]})
    sigma3 = universal_subst(2, v3)
    # the bottom world closes upward to everything, ascending mask order
    assert render(sigma3.mapping["p"]) == "~~p1 | ~~~p1 | ~~(p1 | ~p1)"


def test_universal_subst_rejects_foreign_frame():
    v = valuation(frame(2), {"p": [world(1)]})
    with pytest.raises(ValueError):
        universal_subst(3, v)


def test_lemma_on_random_formulas():
    rng = random.Random(53)
    for n in (1, 2, 3):
        fr = frame(n)
        for _ in range(20):
            v = sample_valuation(fr, ["p", "q"], rng)
            fs = [random_formula(rng, ["p", "q"], depth=4) for _ in range(5)]
            report = verify_lemma(n, v, fs)
            assert report.ok, (n, report.cases)


def test_lemma_case_records_disagreeing_world():
    # feed a formula over an atom the valuation does not cover
    fr = frame(2)
    v = valuation(fr, {"p": [world(1)]})
    with pytest.raises(UnknownAtomError):
        verify_lemma(2, v, [parse("z")])


def test_substitution_image_uses_only_family_atoms():
    fr = frame(3)
    v = valuation(fr, {"p": [world(2)], "q": [world(1, 3)]})
    sigma = universal_subst(3, v)
    image = apply_subst(sigma, parse("p -> q"))
    from medlog.formula import atoms

    assert set(atoms(image)) <= {"p1", "p2"}


def test_family_size_bounds():
    from medlog.alpha import MAX_FAMILY

    for bad in (0, -1, MAX_FAMILY + 1):
        with pytest.raises(ValueError):
            alpha_formulas(bad)
    assert len(alpha_formulas(MAX_FAMILY).formulas) == MAX_FAMILY


def test_exactly_one_member_under_any_valuation():
    # at a maximal world the members split the classical assignments, so any
    # valuation whatsoever forces exactly one of them there
    from medlog.medvedev import iter_valuations

    for n in (1, 2, 3, 4):
        fam = alpha_formulas(n)
        for k in (1, 2, 3):
            fr = frame(k)
            for v in iter_valuations(fr, family_atoms(fam)):
                for i in range(1, k + 1):
                    bit = world(i) - 1
                    forced = [
                        j
                        for j, a in enumerate(fam.formulas, start=1)
                        if truth_set(fr, v, a) >> bit & 1
                    ]
                    assert len(forced) == 1, (n, k, i, forced)


def test_substitution_image_always_finite_rank():
    from medlog.kpform import kp_rank
    from medlog.medvedev import iter_valuations

    for n in (1, 2, 3):
        fr = frame(n)
        for v in iter_valuations(fr, ["p"]):
            r = kp_rank(universal_subst(n, v).mapping["p"])
            assert r.finite, (n, v.to_obj())


def test_alpha_I_has_rank_one():
    from medlog.kpform import kp_rank

    for n, sets in ((3, ([1], [2, 3], [1, 2, 3])), (5, ([4], [1, 3, 5]))):
        fam = alpha_formulas(n)
        for idx in sets:
            r = kp_rank(alpha_I(fam, idx))
            assert r.finite and r.value == 1, (n, idx)
