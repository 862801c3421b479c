"""Acceptance suite: ten numbered criteria, one reported line each.

Each criterion prints ``criterion NN: PASS/FAIL - detail`` through the
unbuffered real stdout so the line survives pytest capture.  Time limits
are asserted where the criterion carries one.
"""

import functools
import itertools
import random
import sys
import time

from medlog.alpha import alpha_formulas, u_valuation, universal_subst, verify_lemma
from medlog.formula import Neg, big_and, big_or, iff, parse, render
from medlog.ipc import classically_valid, ipc_provable
from medlog.kpform import kp_normalize, kp_rank, verify_normal_form
from medlog.medvedev import (
    UPSET_COUNTS,
    enumerate_upsets,
    forces,
    frame,
    gens,
    refute,
    sample_valuation,
    truth_set,
    valid_on,
    dp_countermodel,
)
from medlog.randgen import random_formula
from medlog.structural import (
    admissibility_witness,
    alpha_pmorphism,
    check_alpha_transfer,
    check_pmorphism,
    levin_decomposition,
    transfer_check,
)

import conftest
from oracles import family_atoms, le, random_finite_rank_formula
from test_ipc import THEOREMS, _truth


def _report(num: int, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d}: {state} - {detail}"
    conftest.CRITERION_LINES.append(line)
    if sys.stdout is sys.__stdout__:  # running outside capture
        print(line)


def criterion(num: int, description: str, limit: float | None = None):
    """Wrap a test body: report one line, enforce the time limit."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            t0 = time.monotonic()
            try:
                extra = fn()
            except BaseException as exc:
                _report(num, False, f"{description}: {exc!r:.200}")
                raise
            elapsed = time.monotonic() - t0
            detail = description if extra is None else f"{description}; {extra}"
            if limit is not None and elapsed >= limit:
                _report(num, False,
                        f"{detail} took {elapsed:.1f}s, over the {limit:.0f}s limit")
                raise AssertionError(
                    f"criterion {num} exceeded its {limit:.0f}s time limit")
            _report(num, True, f"{detail} ({elapsed:.2f}s)")

        return run

    return wrap


# fifty hand-computed cases: negations and constants count 1, disjunction
# adds, conjunction multiplies, implication raises rhs to the lhs power
RANK_TABLE = [
    ("~p", 1),
    ("~~p", 1),
    ("~(p & q)", 1),
    ("~(p -> q)", 1),
    ("~(p | q | r)", 1),
    ("F", 1),
    ("T", 1),
    ("~F", 1),
    ("~T", 1),
    ("~p | ~q", 2),
    ("~p | ~p", 2),
    ("~p | ~q | ~r", 3),
    ("~p | ~q | ~r | ~s", 4),
    ("(~p | ~q) | (~r | ~s)", 4),
    ("F | T", 2),
    ("~(p | q) | ~~r", 2),
    ("~p & ~q", 1),
    ("~p & ~q & ~r", 1),
    ("(~p | ~q) & ~r", 2),
    ("(~p | ~q) & (~r | ~s)", 4),
    ("(~p | ~q | ~r) & (~s | ~t)", 6),
    ("(~p | ~q) & (~r | ~s) & ~t", 4),
    ("(~p | ~q) & (~p | ~q)", 4),
    ("(~p | ~q | ~r) & (~p | ~q | ~r)", 9),
    ("T & T", 1),
    ("~p -> ~q", 1),
    ("~p -> ~q | ~r", 2),
    ("~p -> ~q | ~r | ~s", 3),
    ("(~p | ~q) -> ~r", 1),
    ("(~p | ~q) -> (~r | ~s)", 4),
    ("(~p | ~q) -> (~r | ~s | ~t)", 9),
    ("(~p | ~q | ~r) -> (~s | ~t)", 8),
    ("(~p | ~q | ~r) -> (~s | ~t | ~u)", 27),
    ("(~p | ~q | ~r | ~s) -> (~t | ~u)", 16),
    ("(~p | ~q | ~r | ~s | ~t) -> (~u | ~v)", 32),
    ("(~p | ~q) -> (~r | ~s | ~t | ~u)", 16),
    ("T -> ~p | ~q", 2),
    ("(~p | ~q) -> T", 1),
    ("F -> ~p | ~q", 2),
    ("(~p -> ~q | ~r) | ~s", 3),
    ("(~p -> ~q | ~r) & (~s | ~t)", 4),
    ("((~p | ~q) -> (~r | ~s)) -> ~a | ~b", 16),
    ("~p -> (~q -> ~r | ~s)", 2),
    ("((~p -> ~q | ~r) | ~s) -> ~t", 1),
    ("(~p & ~q) | (~r & ~s)", 2),
    ("((~p | ~q) & (~r | ~s)) -> (~t | ~u)", 16),
    ("(~p | ~q) -> ((~r | ~s) -> (~t | ~u))", 16),
    ("~~(p | q) | (~p & ~q)", 2),
    ("(~p | ~q | ~r) -> ~s & ~t", 1),
    ("((~a | ~b) -> (~c | ~d)) & ((~e | ~f) -> (~g | ~h))", 16),
]


@criterion(1, "rank conformance on the 50-case golden table", limit=1.0)
def test_criterion_01_rank_conformance():
    assert len(RANK_TABLE) == 50
    for text, expected in RANK_TABLE:
        got = kp_rank(parse(text))
        assert got.value == expected, f"{text}: expected {expected}, got {got}"
    # atoms stay infinite under every connective
    for text in ("p", "p | ~q", "~p -> p"):
        assert not kp_rank(parse(text)).finite, text
    return "50 exact matches"


@criterion(2, "normal form verified for 100 random finite-rank formulas",
           limit=120.0)
def test_criterion_02_normal_form_verification():
    rng = random.Random(2024)
    top_rank = 0
    for i in range(100):
        f = random_finite_rank_formula(rng, ["p", "q", "r"], max_rank=64,
                                       skeleton_depth=5)
        r = kp_rank(f)
        assert r.finite and r.value <= 64
        nd = kp_normalize(f)
        assert len(nd) == r.value, render(f)
        report = verify_normal_form(f, nd, bound=3, seed=0)
        assert report.rank_matches, render(f)
        assert all(fc.valid for fc in report.frame_checks), render(f)
        assert report.ok, render(f)
        top_rank = max(top_rank, r.value)
    return f"disjunct count = rank throughout, largest rank {top_rank}"


@criterion(3, "family conditions for n <= 8, separation and membership for n <= 5",
           limit=60.0)
def test_criterion_03_alpha_family_conditions():
    for n in range(1, 9):
        fam = alpha_formulas(n).formulas
        for i in range(len(fam)):
            for j in range(i + 1, len(fam)):
                claim = Neg(big_and([fam[i], fam[j]]))
                assert ipc_provable(claim), (n, i + 1, j + 1)
                assert classically_valid(claim), (n, i + 1, j + 1)
        weakly_exhaustive = Neg(Neg(big_or(list(fam))))
        assert ipc_provable(weakly_exhaustive), n
        assert classically_valid(weakly_exhaustive), n

    for n in range(1, 6):
        u = u_valuation(n)
        fr = frame(n)
        member_ts = [truth_set(fr, u, a) for a in alpha_formulas(n).formulas]
        for i in range(1, n + 1):
            w = 1 << (i - 1)
            for j in range(1, n + 1):
                assert bool(member_ts[j - 1] >> (w - 1) & 1) == (i == j), (n, i, j)
        # membership: world I lands in the truth set of the J-guarded
        # disjunction exactly when I's generators sit inside J
        from medlog.alpha import alpha_I

        for j_mask in fr.worlds():
            ts = truth_set(fr, u, alpha_I(alpha_formulas(n), gens(j_mask)))
            for i_mask in fr.worlds():
                member = bool(ts >> (i_mask - 1) & 1)
                assert member == (i_mask & j_mask == i_mask), (n, i_mask, j_mask)
    return "conditions (i)/(ii) for n=1..8 via both provers, (iii)+membership n=1..5"


@criterion(4, "substitution lemma on 200 random valuation/formula pairs",
           limit=60.0)
def test_criterion_04_universal_substitution_lemma():
    rng = random.Random(7)
    sizes = []
    for _ in range(200):
        n = rng.randint(1, 4)
        v = sample_valuation(frame(n), ["p", "q", "r"], rng)
        f = random_formula(rng, ["p", "q", "r"], depth=6)
        report = verify_lemma(n, v, [f])
        assert report.ok, (n, render(f), report.cases)
        sizes.append(n)
    return f"200 exact truth-set matches, frame sizes 1..{max(sizes)}"


@criterion(5, "both splitting axioms valid exhaustively (M_2, M_3) and on samples (M_4, M_5)",
           limit=120.0)
def test_criterion_05_axiom_validity():
    wkp = parse("(~p -> ~q | ~r) -> (~p -> ~q) | (~p -> ~r)")
    kp = parse("(~p -> q | r) -> (~p -> q) | (~p -> r)")
    checked = 0
    for axiom in (wkp, kp):
        for n in (2, 3):
            res = valid_on(frame(n), axiom, "exhaustive")
            assert res.valid and res.exhaustive, n
            checked += res.checked
        for n in (4, 5):
            res = valid_on(frame(n), axiom, "sample", count=10**4, seed=42)
            assert res.witness is None and res.checked == 10**4, n
            checked += res.checked
    assert valid_on(frame(3), kp, "exhaustive").checked == UPSET_COUNTS[3] ** 3
    return f"no counterexample in {checked} valuations"


@criterion(6, "combined countermodel for the disjunction of two refuted negations")
def test_criterion_06_disjunction_property_construction():
    wl = refute(parse("~p"), 1)
    wr = refute(parse("~~p"), 1)
    assert wl is not None and wl.n == 1
    assert wr is not None and wr.n == 1
    combined = dp_countermodel(wl, wr)
    assert combined.n == 2
    assert combined.world == frame(2).bottom()
    assert render(combined.formula) == "~p | ~~p"
    assert not forces(frame(2), combined.valuation, combined.world,
                      combined.formula)
    return "~p | ~~p fails at the bottom of the doubled frame"


@criterion(7, "admissibility pipeline: witness found, none where the rule holds")
def test_criterion_07_admissibility_pipeline():
    wit = admissibility_witness(parse("p | q"), parse("p"), 2)
    assert wit is not None and wit.k == 1
    ref = wit.refutation
    assert not forces(frame(ref.n), ref.valuation, ref.world, ref.formula)
    assert [e.n for e in wit.validity_evidence] == [1, 2, 3, 4]
    assert all(e.valid for e in wit.validity_evidence)
    sigma_premise = render(wit.sigma.mapping["p"]) + " | " + render(
        wit.sigma.mapping["q"])
    assert valid_on(frame(3), parse(sigma_premise), "exhaustive").valid

    assert admissibility_witness(parse("p"), parse("p"), 3) is None
    assert admissibility_witness(parse("~p -> q | r"),
                                 parse("(~p -> q) | (~p -> r)"), 3) is None
    return "witness on M_1 with evidence on M_1..M_4; degenerate rules yield none"


@criterion(8, "point-map laws for m,n <= 4 with 50 random valuations each",
           limit=180.0)
def test_criterion_08_pmorphism_laws():
    rng = random.Random(88)
    maps = 0
    for m in range(1, 5):
        for n in range(1, 5):
            names = family_atoms(alpha_formulas(n))
            fr_m, fr_n = frame(m), frame(n)
            u = u_valuation(n)
            for _ in range(50):
                w = sample_valuation(fr_m, names, rng)
                pm = alpha_pmorphism(m, n, w)
                assert check_pmorphism(pm).ok, (m, n)
                assert check_alpha_transfer(pm, u, w).ok, (m, n)
                v = sample_valuation(fr_n, ["p", "q"], rng)
                sigma = universal_subst(n, v)
                report = transfer_check(pm, sigma, u, w, count=100, seed=9)
                assert report.ok, (m, n)
                assert len(report.cases) >= 100
                maps += 1
    return f"{maps} maps, all three law families hold"


@criterion(9, "oracle cross-checks: enumeration counts, negated-formula agreement, corpus validity")
def test_criterion_09_oracle_cross_checks():
    monotone_counts = {2: 6, 3: 20, 4: 168}
    for n, expected in ((2, 5), (3, 19), (4, 167)):
        fr = frame(n)
        worlds = list(fr.worlds())
        naive = 0
        for r in range(len(worlds) + 1):
            for combo in itertools.combinations(worlds, r):
                ws = set(combo)
                if all(v in ws for w in ws for v in worlds if le(w, v)):
                    naive += 1
        fast = sum(1 for _ in enumerate_upsets(fr))
        assert fast == naive == expected == UPSET_COUNTS[n], n
        assert expected + 1 == monotone_counts[n], n

    rng = random.Random(19)
    for _ in range(500):
        f = Neg(random_formula(rng, ["p", "q", "r"], depth=5))
        assert ipc_provable(f) == classically_valid(f), render(f)

    for text in THEOREMS:
        f = parse(text)
        assert ipc_provable(f), text
        assert valid_on(frame(3), f, "exhaustive").valid, text
    return (f"counts 5/19/167 against the subset filter, 500 negated formulas, "
            f"{len(THEOREMS)} corpus theorems valid on M_3")


@criterion(10, "decomposition of the excluded middle with classical certificates")
def test_criterion_10_levin_decomposition():
    dec = levin_decomposition(parse("p | ~p"), 2)
    assert dec is not None and len(dec.bodies) == 2
    for body, cm in zip(dec.bodies, dec.countermodels):
        assert _truth(body, dict(cm)), render(body)
    rebuilt = big_or([Neg(b) for b in dec.bodies])
    for n in (1, 2, 3):
        res = valid_on(frame(n), iff(dec.image, rebuilt), "exhaustive")
        assert res.valid and res.exhaustive, n
    return "2 bodies with verifying countermodels, image equivalence on M_1..M_3"
