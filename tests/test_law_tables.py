"""One table per law family: the random draw and the transfer checks.

``random_formula`` draws straight into a ``_dag`` table, and the law checks
walk and evaluate each family's formulas as one program per frame.  The
references below are the recursive draw and the per-formula loops they
replaced: one compile and one evaluation per formula and frame.  What
depends only on the frame size is built once and kept; the memo tests
compare it with a construction made afresh for the call.
"""

import random

import pytest

from medlog import alpha, structural
from medlog.alpha import (
    TransferCase,
    TransferReport,
    alpha_I,
    alpha_formulas,
    u_valuation,
    universal_subst,
    verify_lemma,
)
from medlog.formula import (BOT, TOP, And, Atom, Imp, Neg, Or, Substitution, _dag, apply_subst,
                            big_or, parse, render)
from medlog.medvedev import (
    PMorphism,
    Valuation,
    compile_formula,
    frame,
    gens,
    run_program,
    sample_valuation,
    truth_set,
    upset_worlds,
)
from medlog.randgen import _draw, random_formula
from medlog.structural import alpha_pmorphism, check_alpha_transfer, transfer_check
from oracles import family_atoms

NAMES = ["p", "q", "r", "s"]

# --- references ---------------------------------------------------------------


def ref_random_formula(rng, atom_names, depth):
    """The recursive draw: one tree, a new object per node."""
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.8 and atom_names:
            return Atom(atom_names[rng.randrange(len(atom_names))])
        return TOP if roll < 0.9 else BOT
    k = rng.randrange(4)
    if k == 0:
        return Neg(ref_random_formula(rng, atom_names, depth - 1))
    a = ref_random_formula(rng, atom_names, depth - 1)
    b = ref_random_formula(rng, atom_names, depth - 1)
    return (And, Or, Imp)[k - 1](a, b)


def ref_transfer_case(pm, f, source, target):
    """One formula compiled and run once per frame, compared along the map."""
    prog = compile_formula(f)
    ts_source = run_program(frame(pm.m), prog, source.map)
    ts_target = run_program(frame(pm.n), prog, target.map)
    diff = ts_source ^ pm.pullback(ts_target)
    return TransferCase(f, not diff, (diff & -diff).bit_length() or None)


def fresh_family(n):
    """``alpha_formulas(n)`` built for this call, not taken from the memo."""
    return alpha_formulas.__wrapped__(n)


def ref_universal_subst(n, v):
    fam = fresh_family(n)
    return Substitution({a: big_or([alpha_I(fam, gens(w)) for w in upset_worlds(bits)])
                         for a, bits in v.map.items()})


def ref_check_alpha_transfer(pm, u, w):
    fam = fresh_family(pm.n)
    return TransferReport(tuple(
        ref_transfer_case(pm, alpha_I(fam, gens(mask)), w, u)
        for mask in frame(pm.n).worlds()))


def ref_transfer_check(pm, sigma, u, w, test_formulas=None, *, count=100, seed=0):
    domain = sorted(sigma.mapping)
    if test_formulas is None:
        rng = random.Random(seed)
        test_formulas = ([Atom(p) for p in domain] + [TOP, BOT]
                         + [ref_random_formula(rng, domain, 4) for _ in range(count)])
    fr_m, fr_n = frame(pm.m), frame(pm.n)
    images = {p: compile_formula(sigma.lookup(p)) for p in domain}
    side_u = Valuation(fr_n, {p: run_program(fr_n, prog, u.map)
                              for p, prog in images.items()})
    side_w = Valuation(fr_m, {p: run_program(fr_m, prog, w.map)
                              for p, prog in images.items()})
    return TransferReport(tuple(ref_transfer_case(pm, chi, side_w, side_u)
                                for chi in test_formulas))


def ref_verify_lemma(n, v, test_formulas):
    fr = frame(n)
    sigma = ref_universal_subst(n, v)
    u = u_valuation(n)
    cases = []
    for f in test_formulas:
        diff = truth_set(fr, v, f) ^ truth_set(fr, u, apply_subst(sigma, f))
        cases.append(TransferCase(f, not diff, (diff & -diff).bit_length() or None))
    return TransferReport(tuple(cases))


def ref_point_map(m, n, w):
    """Maximal world ``i`` to the one family member it forces, each member's
    truth set evaluated on its own."""
    member_ts = [truth_set(frame(m), w, a) for a in fresh_family(n).formulas]
    point_map = {}
    for i in range(1, m + 1):
        bit = 1 << ((1 << (i - 1)) - 1)
        (point_map[i],) = [j for j in range(1, n + 1) if member_ts[j - 1] & bit]
    return point_map


def cases(report):
    return [(c.formula, render(c.formula), c.ok, c.world) for c in report.cases]


# --- the draw -------------------------------------------------------------------


@pytest.mark.parametrize("depth", range(7))
def test_random_formula_matches_the_recursive_draw(depth):
    """Same formulas from the same rng calls: the states agree after each
    draw.  Zero to eight names cover ``randrange`` bit widths 1 to 4, a
    single name drawing one bit per atom leaf."""
    names = NAMES + ["t", "u", "v", "w"]
    for k in range(9):
        for seed in range(40):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert random_formula(rng, names[:k], depth) == ref_random_formula(
                    ref_rng, names[:k], depth)
                assert rng.getstate() == ref_rng.getstate()


def test_a_negative_depth_is_rejected():
    with pytest.raises(ValueError, match="depth"):
        random_formula(random.Random(0), NAMES, -1)


def test_a_table_filled_by_drawing_equals_a_dag_walk():
    rng = random.Random(5)
    for trial in range(60):
        names = NAMES[:trial % 5]
        seeds = [Atom(p) for p in names] + [TOP, BOT]
        nodes, prog, index, at = _dag(*seeds)
        at += [_draw(rng, names, rng.randrange(7), nodes, prog, index)
               for _ in range(rng.randrange(1, 30))]
        walked = _dag(*[nodes[i] for i in at])
        assert walked[1] == prog and walked[2] == index and walked[3] == at
        assert all(a is b for a, b in zip(walked[0], nodes)) and len(walked[0]) == len(nodes)
        assert index == {ins: i for i, ins in enumerate(prog)}


# --- the law checks -----------------------------------------------------------


def random_map(rng, m, n):
    """Half p-morphisms from a point map, half arbitrary dense maps (rarely
    p-morphisms, often not monotone)."""
    if rng.random() < 0.5:
        return PMorphism.from_max_map(m, n, {i: rng.randrange(1, n + 1)
                                            for i in range(1, m + 1)})
    return PMorphism(m, n, tuple(rng.randrange(1, 1 << n) for _ in range(2 ** m - 1)))


def test_law_checks_match_the_per_formula_loops():
    rng = random.Random(2024)
    failing = {"alpha": 0, "default": 0, "explicit": 0}
    holding = dict.fromkeys(failing, 0)
    for trial in range(160):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        pm = random_map(rng, m, n)
        u = u_valuation(n)
        if rng.random() < 0.3:  # pulled back along the map, forcing transfers
            w = Valuation(frame(m), {a: pm.pullback(b) for a, b in u.map.items()})
        else:
            w = sample_valuation(frame(m), family_atoms(alpha_formulas(n)), rng)
        v = sample_valuation(frame(n), ["p", "q", "r"][:rng.randrange(4)], rng)
        sigma = universal_subst(n, v)
        names = sorted(v.map)
        explicit = [random_formula(rng, names, rng.randrange(5)) for _ in range(6)]
        explicit += [explicit[0], parse(render(explicit[1]))]  # a repeat, an equal copy
        count, seed = rng.randrange(0, 40), rng.randrange(1 << 16)

        got = {
            "alpha": check_alpha_transfer(pm, u, w),
            "default": transfer_check(pm, sigma, u, w, count=count, seed=seed),
            "explicit": transfer_check(pm, sigma, u, w, explicit),
        }
        want = {
            "alpha": ref_check_alpha_transfer(pm, u, w),
            "default": ref_transfer_check(pm, sigma, u, w, count=count, seed=seed),
            "explicit": ref_transfer_check(pm, sigma, u, w, explicit),
        }
        for key in got:
            assert cases(got[key]) == cases(want[key]), (trial, key, pm)
            failing[key] += sum(not c.ok for c in got[key].cases)
            holding[key] += sum(c.ok for c in got[key].cases)
        assert got["explicit"].cases[6].formula is explicit[6]

        lemma = verify_lemma(n, v, explicit)
        assert cases(lemma) == cases(ref_verify_lemma(n, v, explicit))
        assert all(c.formula is f for c, f in zip(lemma.cases, explicit))

        assert alpha_pmorphism(m, n, w) == PMorphism.from_max_map(
            m, n, ref_point_map(m, n, w))
    for key in failing:
        assert failing[key] > 50 and holding[key] > 50, (key, failing, holding)



# --- the memos ------------------------------------------------------------------

MEMOS = (alpha.alpha_formulas, alpha._alpha_I, alpha._image, structural._family_program,
         structural._membership_program)


def test_memoized_constructions_match_fresh_ones():
    """Kept tables against tables built for the call, for n = 1..6, with the
    universal valuation and with an arbitrary one in its place (the memos
    must not remember a caller's valuation), in either order."""
    rng = random.Random(22)
    for trial in range(90):
        n, m = trial % 6 + 1, rng.randrange(1, 4)
        names = family_atoms(fresh_family(n))
        v = sample_valuation(frame(n), ["p", "q", "r"][:rng.randrange(4)], rng)
        sigma = universal_subst(n, v)
        assert sigma == ref_universal_subst(n, v)
        assert [render(g) for g in sigma.mapping.values()] == [
            render(g) for g in ref_universal_subst(n, v).mapping.values()]
        w = sample_valuation(frame(m), names, rng)
        pm = alpha_pmorphism(m, n, w)
        assert pm == PMorphism.from_max_map(m, n, ref_point_map(m, n, w))
        arbitrary = sample_valuation(frame(n), names, rng)
        for u in (u_valuation(n), arbitrary)[::rng.choice((1, -1))]:
            assert cases(check_alpha_transfer(pm, u, w)) == cases(
                ref_check_alpha_transfer(pm, u, w)), (trial, u)
            count, seed = rng.randrange(20), rng.randrange(1 << 16)
            assert cases(transfer_check(pm, sigma, u, w, count=count, seed=seed)) == cases(
                ref_transfer_check(pm, ref_universal_subst(n, v), u, w, count=count, seed=seed))


def test_memos_stay_bounded_and_rejected_sizes_raise():
    rng = random.Random(23)
    for n in range(1, 11):
        universal_subst(n, sample_valuation(frame(n), ["p", "q"], rng))
        w = sample_valuation(frame(1), family_atoms(alpha_formulas(n)), rng)
        assert check_alpha_transfer(alpha_pmorphism(1, n, w), u_valuation(n), w).ok
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize is not None and 0 < info.currsize <= info.maxsize, memo
    w = sample_valuation(frame(1), ["p1"], rng)
    for bad in (0, 1025):
        for _ in range(2):
            with pytest.raises(ValueError, match="family size"):
                alpha_formulas(bad)
            with pytest.raises(ValueError, match="family size"):
                alpha_pmorphism(1, bad, w)
            with pytest.raises(ValueError):
                u_valuation(bad)
            with pytest.raises(ValueError):
                universal_subst(bad, w)
