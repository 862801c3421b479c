"""Decomposition, admissibility witnesses, and point maps between frames."""

import dataclasses
import json
import random

import pytest

from medlog.alpha import alpha_formulas, u_valuation, universal_subst
from medlog.errors import SelfCheckError
from medlog.formula import (
    Substitution,
    apply_subst,
    atoms,
    parse,
    render,
)
from medlog.ipc import ipc_provable
from medlog.medvedev import (
    Valuation,
    compile_formula,
    frame,
    gens,
    iter_valuations,
    run_program,
    sample_valuation,
    truth_set,
    upset_worlds,
    valid_on,
    valuation,
    world,
)
from medlog.randgen import random_formula
from medlog.structural import (
    PMorphism,
    admissibility_witness,
    alpha_pmorphism,
    check_alpha_transfer,
    check_pmorphism,
    levin_decomposition,
    transfer_check,
)
from oracles import monotone_violations


def pullback_valuation(m, n, point_map):
    """Interpret the family atoms on M_m so that maximal world i behaves
    like the point_map[i]-th member's literal pattern."""
    fam = alpha_formulas(n)
    fr = frame(m)
    mapping = {}
    for j in range(1, fam.m + 1):
        s_mask = 0
        for i in range(1, m + 1):
            pattern = (1 << fam.m) - point_map[i]
            if pattern >> (fam.m - j) & 1:
                s_mask |= 1 << (i - 1)
        mapping[f"p{j}"] = fr.up_bits(s_mask) if s_mask else 0
    return Valuation(fr, mapping)


# --- decomposition ------------------------------------------------------


def test_levin_excluded_middle():
    dec = levin_decomposition(parse("p | ~p"), 2)
    assert dec.n == 2
    assert [render(b) for b in dec.bodies] == ["~p1", "~~p1"]
    assert dec.countermodels == ({"p1": False}, {"p1": True})
    assert render(dec.image) == "~~p1 | ~~~p1"
    assert render(dec.sigma.mapping["p"]) == "~~p1"
    json.dumps(dec.to_obj())  # must be serializable as-is


def test_levin_image_equivalent_to_negated_bodies():
    from medlog.formula import Neg, big_or, iff

    dec = levin_decomposition(parse("p | ~p"), 2)
    rebuilt = big_or([Neg(b) for b in dec.bodies])
    for n in (1, 2, 3):
        res = valid_on(frame(n), iff(dec.image, rebuilt), "exhaustive")
        assert res.valid, n


def test_levin_double_negation_shift():
    dec = levin_decomposition(parse("~~p -> p"), 2)
    assert dec is not None
    assert dec.n == 2
    # every body has a classical model, rechecked by the constructor
    assert len(dec.countermodels) == len(dec.bodies)


def test_levin_decomposition_checks_its_countermodels():
    dec = levin_decomposition(parse("p | ~p"), 2)
    with pytest.raises(SelfCheckError, match="one countermodel per body"):
        dataclasses.replace(dec, countermodels=dec.countermodels[:-1])
    # the bodies are ~p1 and ~~p1, so each one's countermodel falsifies the other
    with pytest.raises(SelfCheckError, match="does not satisfy body"):
        dataclasses.replace(dec, countermodels=dec.countermodels[::-1])


def test_levin_none_for_theorems():
    assert levin_decomposition(parse("p -> p"), 3) is None
    assert levin_decomposition(parse("~~(p | ~p)"), 3) is None
    # valid on these frames despite being intuitionistically unprovable
    wkp = parse("(~p -> ~q | ~r) -> (~p -> ~q) | (~p -> ~r)")
    assert levin_decomposition(wkp, 3) is None


def test_levin_deterministic():
    a = levin_decomposition(parse("(p -> q) | (q -> p)"), 3)
    b = levin_decomposition(parse("(p -> q) | (q -> p)"), 3)
    assert a is not None
    assert a.to_obj() == b.to_obj()


# --- admissibility ------------------------------------------------------


def test_admissibility_disjunction_premise():
    wit = admissibility_witness(parse("p | q"), parse("p"), 2)
    assert wit is not None
    assert wit.k == 1
    assert render(wit.sigma.mapping["p"]) == "~T"
    assert render(wit.sigma.mapping["q"]) == "~~T"
    assert wit.refutation.n == 1
    assert wit.refutation.world == world(1)
    assert [e.n for e in wit.validity_evidence] == [1, 2, 3, 4]
    assert all(e.valid for e in wit.validity_evidence)
    json.dumps(wit.to_obj())


def test_admissibility_double_negation():
    # the classic non-derivable admissible-rule shape: ~~p over p
    wit = admissibility_witness(parse("~~p"), parse("p"), 2)
    assert wit is not None
    assert wit.k == 2
    assert render(wit.sigma.mapping["p"]) == "~~p1 | ~~~p1"
    # sigma premise is provable outright, sigma conclusion refuted
    assert ipc_provable(apply_subst(wit.sigma, parse("~~p")))
    assert wit.refutation.world == frame(2).bottom()


def test_admissibility_none_when_conclusion_follows():
    assert admissibility_witness(parse("p"), parse("p"), 2) is None
    assert admissibility_witness(parse("p & (p -> q)"), parse("q"), 2) is None
    kp_premise = parse("~p -> q | r")
    kp_conclusion = parse("(~p -> q) | (~p -> r)")
    assert admissibility_witness(kp_premise, kp_conclusion, 2) is None


def reference_separation(premise, conclusion, max_n):
    """(k, restricted valuation) of the first separating valuation, by one
    ``run_program`` call per formula and valuation: valuations in enumeration
    order, then the separating world with the most generators and the
    smallest mask."""
    names = list(dict.fromkeys(atoms(premise) + atoms(conclusion)))
    prog_p, prog_c = compile_formula(premise), compile_formula(conclusion)
    for n in range(1, max_n + 1):
        fr = frame(n)
        # up to three atoms on M_1..M_3 fit the default budget, so the search sweeps
        for val in iter_valuations(fr, names):
            sep = (run_program(fr, prog_p, val.map)[-1]
                   & (fr.all_worlds ^ run_program(fr, prog_c, val.map)[-1]))
            if sep:
                w = max((w for w in fr.worlds() if sep >> (w - 1) & 1),
                        key=lambda w: (w.bit_count(), -w))
                # the cone above w, generator g of w renumbered to its rank in w
                rank = {g: i for i, g in enumerate(gens(w), 1)}
                restricted = {}
                for atom, bits in val.map.items():
                    cone = 0
                    for x in upset_worlds(bits):
                        if x | w == w:
                            cone |= 1 << (world(*(rank[g] for g in gens(x))) - 1)
                    restricted[atom] = cone
                return w.bit_count(), Valuation(frame(w.bit_count()), restricted).to_obj()
    return None


def test_admissibility_search_matches_per_valuation_loop():
    rng = random.Random(61)
    found = 0
    for i in range(60):
        names = ["p", "q", "r"][:rng.randrange(1, 4)]
        premise = random_formula(rng, names, rng.randrange(1, 4))
        conclusion = random_formula(rng, names, rng.randrange(1, 4))
        max_n = rng.randrange(2, 4)
        wit = admissibility_witness(premise, conclusion, max_n, validity_bound=2,
                                    count=30, seed=i)
        expected = reference_separation(premise, conclusion, max_n)
        if wit is None:
            assert expected is None, (render(premise), render(conclusion))
            continue
        obj = wit.to_obj()
        assert (obj["premise"], obj["conclusion"]) == (render(premise), render(conclusion))
        assert (obj["k"], obj["valuation"]) == expected, (render(premise), render(conclusion))
        found += 1
    assert 0 < found < 60


# --- point maps ---------------------------------------------------------


def test_from_max_map_meet_extension():
    pm = PMorphism.from_max_map(2, 3, {1: 2, 2: 3})
    assert pm.apply(world(1)) == world(2)
    assert pm.apply(world(2)) == world(3)
    assert pm.apply(world(1, 2)) == world(2, 3)
    assert check_pmorphism(pm).ok


def test_from_max_map_validates_input():
    with pytest.raises(ValueError):
        PMorphism.from_max_map(2, 2, {1: 1})
    with pytest.raises(ValueError):
        PMorphism.from_max_map(2, 2, {1: 1, 2: 3})


def test_check_pmorphism_flags_non_monotone_map():
    pm = PMorphism(2, 2, (1, 2, 1))  # bottom maps above the image of {2}
    report = check_pmorphism(pm)
    assert not report.ok
    assert ("monotone", world(1, 2), world(2)) in report.violations


def test_check_pmorphism_flags_back_condition():
    pm = PMorphism(2, 2, (3, 3, 3))  # constant onto the target bottom
    report = check_pmorphism(pm)
    assert not report.ok
    kinds = {v[0] for v in report.violations}
    assert kinds == {"back"}


def test_monotonicity_matches_the_all_pairs_loop():
    """The worlds above ``x`` as its submasks: the same violations, in the
    same order, as comparing every pair of worlds."""
    rng = random.Random(1934)
    monotone = 0
    for trial in range(2000):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        if trial % 4 == 0:
            pm = PMorphism.from_max_map(m, n, {i: rng.randrange(1, n + 1)
                                               for i in range(1, m + 1)})
        else:
            pm = PMorphism(m, n, tuple(rng.randrange(1, 1 << n) for _ in range(2 ** m - 1)))
        report = check_pmorphism(pm)
        want = monotone_violations(pm)
        assert [v for v in report.violations if v[0] == "monotone"] == want, pm
        monotone += not want
        assert report.ok == (not report.violations)
    assert 500 < monotone < 1500, monotone


def test_check_pmorphism_rejects_maps_outside_the_frames():
    with pytest.raises(ValueError, match="outside M_1"):
        check_pmorphism(PMorphism(1, 1, (3,)))  # image {1,2} is not a world of M_1
    with pytest.raises(ValueError, match="outside M_2"):
        check_pmorphism(PMorphism(2, 2, (1, 2, 0)))
    with pytest.raises(ValueError, match="source worlds"):
        check_pmorphism(PMorphism(1, 1, (1, 1)))


def test_identity_map_passes():
    fr = frame(3)
    pm = PMorphism(3, 3, tuple(fr.worlds()))
    assert check_pmorphism(pm).ok


def test_alpha_pmorphism_constant_valuation():
    fr = frame(2)
    w = valuation(fr, {"p1": [world(1), world(2), world(1, 2)]})
    pm = alpha_pmorphism(2, 2, w)
    assert pm.mapping == (1, 1, 1)


def test_alpha_pmorphism_identity_case():
    w = pullback_valuation(2, 2, {1: 1, 2: 2})
    pm = alpha_pmorphism(2, 2, w)
    assert pm.mapping == (1, 2, 3)


def test_alpha_pmorphism_random_point_maps():
    rng = random.Random(71)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        point_map = {i: rng.randint(1, n) for i in range(1, m + 1)}
        w = pullback_valuation(m, n, point_map)
        pm = alpha_pmorphism(m, n, w)
        for i in range(1, m + 1):
            assert pm.apply(world(i)) == world(point_map[i])
        assert check_pmorphism(pm).ok


def test_alpha_pmorphism_frame_mismatch():
    w = pullback_valuation(2, 2, {1: 1, 2: 2})
    with pytest.raises(ValueError):
        alpha_pmorphism(3, 2, w)


def test_alpha_transfer_law():
    rng = random.Random(73)
    for _ in range(10):
        m = rng.randint(1, 4)
        n = rng.randint(2, 4)
        point_map = {i: rng.randint(1, n) for i in range(1, m + 1)}
        w = pullback_valuation(m, n, point_map)
        pm = alpha_pmorphism(m, n, w)
        report = check_alpha_transfer(pm, u_valuation(n), w)
        assert report.ok, (m, n, point_map, [c for c in report.cases if not c.ok])
        assert len(report.cases) == frame(n).world_count


def test_transfer_check_on_substitution_images():
    rng = random.Random(79)
    m, n = 3, 2
    point_map = {1: 1, 2: 2, 3: 1}
    w = pullback_valuation(m, n, point_map)
    pm = alpha_pmorphism(m, n, w)
    u = u_valuation(n)
    for val in iter_valuations(frame(n), ["p", "q"]):
        sigma = universal_subst(n, val)
        report = transfer_check(pm, sigma, u, w, count=20, seed=5)
        assert report.ok, val.to_obj()
    del rng


def test_transfer_check_reads_atoms_outside_the_domain_as_the_default(caplog):
    # z is not in sigma's domain: apply_subst puts ~T for it, with a warning
    w = valuation(frame(2), {"p1": [world(1)]})
    pm = alpha_pmorphism(2, 2, w)
    u = u_valuation(2)
    sigma = universal_subst(2, valuation(frame(2), {"p": [world(1)]}))
    tests = [parse(text) for text in ("p -> z", "z", "~z | p", "(z -> p) -> z")]
    report = transfer_check(pm, sigma, u, w, tests)
    assert "'z' is not mapped" in caplog.text
    for chi, case in zip(tests, report.cases):
        image = apply_subst(sigma, chi)
        source = truth_set(frame(2), w, image)
        target = pm.pullback(truth_set(frame(2), u, image))
        assert case.ok == (source == target), render(chi)
    assert report.ok


def test_composed_valuation_matches_direct_substitution():
    # evaluating chi over per-atom image truth sets must agree with
    # evaluating the substituted formula outright
    rng = random.Random(83)
    fr = frame(3)
    base_names = ["a", "b"]
    for _ in range(40):
        val = sample_valuation(fr, base_names, rng)
        sigma = Substitution({
            "p": random_formula(rng, base_names, 3),
            "q": random_formula(rng, base_names, 3),
        })
        composed = Valuation(fr, {
            name: truth_set(fr, val, sigma.lookup(name)) for name in ("p", "q")
        })
        chi = random_formula(rng, ["p", "q"], 4)
        assert truth_set(fr, composed, chi) == truth_set(
            fr, val, apply_subst(sigma, chi))


def test_transfer_check_explicit_formulas():
    w = pullback_valuation(2, 2, {1: 2, 2: 2})
    pm = alpha_pmorphism(2, 2, w)
    u = u_valuation(2)
    v = valuation(frame(2), {"p": [world(1)]})
    sigma = universal_subst(2, v)
    report = transfer_check(pm, sigma, u, w,
                            test_formulas=[parse("p"), parse("~p"), parse("p -> p")])
    assert report.ok
    assert [render(c.formula) for c in report.cases] == ["p", "~p", "p -> p"]


def test_transfer_checks_reject_valuations_on_the_wrong_frame():
    pm = alpha_pmorphism(3, 2, pullback_valuation(3, 2, {1: 1, 2: 2, 3: 1}))
    on_m2 = pullback_valuation(2, 2, {1: 1, 2: 2})
    sigma = universal_subst(2, valuation(frame(2), {"p": [world(1)]}))
    with pytest.raises(ValueError, match="lives on M_2, not M_3"):
        check_alpha_transfer(pm, u_valuation(2), on_m2)
    with pytest.raises(ValueError, match="lives on M_2, not M_3"):
        transfer_check(pm, sigma, u_valuation(2), on_m2)
    w = pullback_valuation(3, 2, {1: 1, 2: 2, 3: 1})
    with pytest.raises(ValueError, match="is for M_3, not M_2"):
        check_alpha_transfer(pm, u_valuation(3), w)
    with pytest.raises(ValueError, match="is for M_3, not M_2"):
        transfer_check(pm, universal_subst(3, valuation(frame(3), {"p": [world(1)]})),
                       u_valuation(3), w)
    assert check_alpha_transfer(pm, u_valuation(2), w).ok


def test_transfer_check_rejects_a_negative_count():
    w = pullback_valuation(2, 2, {1: 2, 2: 2})
    pm = alpha_pmorphism(2, 2, w)
    sigma = universal_subst(2, valuation(frame(2), {"p": [world(1)]}))
    with pytest.raises(ValueError, match="non-negative, got -5"):
        transfer_check(pm, sigma, u_valuation(2), w, count=-5)
    assert len(transfer_check(pm, sigma, u_valuation(2), w, count=0).cases) == 3
