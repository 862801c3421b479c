"""Certificate pipelines: decomposition and admissibility witnesses.

``levin_decomposition`` turns a frame refutation of a formula into a list of
classically refutable negation bodies: the refuting valuation induces a
substitution into the alpha fragment, the image has finite rank, and each
normal-form body gets a classical countermodel.  Every step is re-checked.

``admissibility_witness`` certifies that a rule premise does not force its
conclusion: a world forcing the premise but not the conclusion generates a
subframe on which the induced substitution keeps the premise valid while the
universal valuation refutes the conclusion's image at the bottom.

``alpha_pmorphism`` reads a surjection-on-points off a valuation (each
maximal world forces exactly one family member) and extends it by meets;
``check_pmorphism`` and ``transfer_check`` verify the order-theoretic laws
and the forcing transfer along the map.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .alpha import (
    TransferCase,
    TransferReport,
    _alpha_I,
    alpha_formulas,
    u_valuation,
    universal_subst,
)
from .errors import SelfCheckError
from .formula import (
    BOT,
    TOP,
    Atom,
    Formula,
    Imp,
    Neg,
    Substitution,
    _dag,
    _program_atoms,
    apply_subst,
    render,
)
from .ipc import classical_countermodel
from .kpform import kp_normalize
from .medvedev import (
    FrameCheck,
    PMorphism,
    RefutationWitness,
    Valuation,
    _run,
    compile_formula,
    frame,
    gens,
    generated_subframe,
    refute,
    run_program,
    upset_worlds,
    valid_on,
)
from .randgen import _draw

# --- decomposition ------------------------------------------------------------


@dataclass(frozen=True)
class LevinDecomposition:
    """A refuted formula, its alpha-fragment image, and per-body countermodels."""

    source: Formula
    n: int
    valuation: Valuation
    sigma: Substitution
    image: Formula
    bodies: tuple[Formula, ...]
    countermodels: tuple[Mapping[str, bool], ...]

    def __post_init__(self):
        if len(self.countermodels) != len(self.bodies):
            raise SelfCheckError("one countermodel per body required")
        for body, cm in zip(self.bodies, self.countermodels):
            if not run_program(frame(1), compile_formula(body),
                               {a: int(v) for a, v in cm.items()}):
                raise SelfCheckError(
                    f"assignment {cm} does not satisfy body {render(body)}"
                )

    def to_obj(self) -> dict:
        return {
            "formula": render(self.source),
            "n": self.n,
            "valuation": self.valuation.to_obj(),
            "sigma": {a: render(f) for a, f in sorted(self.sigma.mapping.items())},
            "image": render(self.image),
            "bodies": [render(b) for b in self.bodies],
            "countermodels": [dict(sorted(cm.items())) for cm in self.countermodels],
        }


def levin_decomposition(phi: Formula, max_n: int = 4, *, count: int = 1000,
                        seed: int = 0) -> LevinDecomposition | None:
    """Refute ``phi`` on a small frame and decompose the image of the witness.

    Returns None when no refutation is found up to ``max_n`` (inconclusive
    unless every frame was swept exhaustively and ``phi`` was valid on all).
    """
    wit = refute(phi, max_n, count=count, seed=seed)
    if wit is None:
        return None
    sigma = universal_subst(wit.n, wit.valuation)
    image = apply_subst(sigma, phi)
    nd = kp_normalize(image)
    countermodels = []
    for body in nd.bodies:
        cm = classical_countermodel(Neg(body))
        if cm is None:
            raise SelfCheckError(
                f"body {render(body)} is classically unsatisfiable; "
                "the refutation pipeline is broken"
            )
        countermodels.append(cm)
    return LevinDecomposition(
        source=phi,
        n=wit.n,
        valuation=wit.valuation,
        sigma=sigma,
        image=image,
        bodies=nd.bodies,
        countermodels=tuple(countermodels),
    )


# --- admissibility ------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityWitness:
    """A substitution keeping the premise valid while refuting the conclusion.

    ``valuation`` lives on the generated subframe (size ``k``) of the world
    that separated premise from conclusion; ``refutation`` pins the failure
    of the conclusion's image at that frame's bottom under the universal
    valuation, and ``validity_evidence`` records checks of the premise's
    image on ``M_1..M_validity_bound`` only, each exhaustive or sampled as
    its ``mode`` says.
    """

    premise: Formula
    conclusion: Formula
    k: int
    valuation: Valuation
    sigma: Substitution
    refutation: RefutationWitness
    validity_evidence: tuple[FrameCheck, ...]

    def to_obj(self) -> dict:
        return {
            "premise": render(self.premise),
            "conclusion": render(self.conclusion),
            "k": self.k,
            "valuation": self.valuation.to_obj(),
            "sigma": {a: render(f) for a, f in sorted(self.sigma.mapping.items())},
            "refutation": self.refutation.to_obj(),
            "validity_evidence": [e.to_obj() for e in self.validity_evidence],
        }


def admissibility_witness(premise: Formula, conclusion: Formula, max_n: int = 3, *,
                          validity_bound: int = 4, count: int = 1000,
                          seed: int = 0) -> AdmissibilityWitness | None:
    """Search frames 1..max_n for a valuation and world separating the rule.

    A valuation separates the rule exactly when it refutes
    ``premise -> conclusion`` somewhere, so the search is ``refute`` of that
    implication in its ``"auto"`` strategy: ascending frame size, valuation
    enumeration order (``count`` samples seeded ``seed + n`` on a frame too
    large to sweep), then the least separating world (most generators, then
    smallest mask).  The premise's image is checked the same way on
    ``M_1..M_validity_bound``.  Returns
    None when no separation shows up within the bound (which does not prove
    the conclusion follows).  A ``max_n`` or ``validity_bound`` outside the
    frame range is a ``ValueError`` before any search.
    """
    frame(validity_bound)
    found = refute(Imp(premise, conclusion), max_n, count=count, seed=seed)
    if found is None:
        return None
    fr, val = frame(found.n), found.valuation
    prog_p, prog_c = compile_formula(premise), compile_formula(conclusion)
    separating = run_program(fr, prog_p, val.map) & ~run_program(fr, prog_c, val.map)
    w = min(upset_worlds(separating), key=lambda w: (-w.bit_count(), w))
    emb = generated_subframe(fr, w)
    k = emb.m
    sub = frame(k)
    restricted = Valuation(sub, {a: emb.pullback(bits) for a, bits in val.map.items()})

    # premise forced at w persists to the whole cone; conclusion fails at its root
    if run_program(sub, prog_p, restricted.map) != sub.all_worlds:
        raise SelfCheckError("premise is not globally forced on the generated subframe")
    if run_program(sub, prog_c, restricted.map) >> (sub.bottom() - 1) & 1:
        raise SelfCheckError("conclusion did not fail at the subframe bottom")

    sigma = universal_subst(k, restricted)
    refutation = RefutationWitness(
        k, u_valuation(k), sub.bottom(), apply_subst(sigma, conclusion)
    )

    image_premise = apply_subst(sigma, premise)
    # largest frame first, as a valid exhaustive sweep settles the smaller ones
    evidence = [valid_on(frame(n2), image_premise, "auto", count=count, seed=seed + n2)
                for n2 in range(validity_bound, 0, -1)][::-1]
    for res in evidence:
        if not res.valid:
            raise SelfCheckError(
                f"premise image unexpectedly refuted on M_{res.n}; "
                "the substitution construction is broken"
            )

    return AdmissibilityWitness(
        premise=premise,
        conclusion=conclusion,
        k=k,
        valuation=restricted,
        sigma=sigma,
        refutation=refutation,
        validity_evidence=tuple(evidence),
    )


# --- point maps between frames -------------------------------------------------


@dataclass(frozen=True)
class PMorphismReport:
    violations: tuple[tuple, ...]  # ("monotone", x, y) | ("back", x, y_prime)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_pmorphism(pm: PMorphism) -> PMorphismReport:
    """Exhaustive monotonicity and back-condition check.

    Monotonicity compares each world with the worlds above it only, the
    submasks of its generator set, so ``M_m`` costs ``3**m`` pairs.
    The back condition uses the canonical candidate: for ``y`` above the
    image of ``x``, keep exactly the generators of ``x`` whose point images
    lie in ``y``; that world must sit above ``x`` and map onto ``y``.
    A map that is not a total map from ``M_m`` into ``M_n`` is rejected with
    ``ValueError``.
    """
    fr_m, fr_n = frame(pm.m), frame(pm.n)
    if len(pm.mapping) != fr_m.world_count:
        raise ValueError(f"map has {len(pm.mapping)} source worlds, {fr_m!r} has "
                         f"{fr_m.world_count}")
    for x in fr_m.worlds():
        if not 1 <= pm.apply(x) <= fr_n.world_count:
            raise ValueError(f"world {gens(x)} maps outside {fr_n!r}")
    violations = []
    for x in fr_m.worlds():
        fx = pm.apply(x)
        y = x & -x  # iterate submasks of x ascending: exactly the worlds above it
        while y:
            if fx | pm.apply(y) != fx:
                violations.append(("monotone", x, y))
            y = (y - x) & x

    point_images = [pm.apply(1 << i) for i in range(pm.m)]
    for x in fr_m.worlds():
        fx = pm.apply(x)
        y = fx  # iterate submasks of fx: exactly the worlds above it
        while True:
            candidate = 0
            for g in gens(x):
                img = point_images[g - 1]
                if img & y == img:
                    candidate |= 1 << (g - 1)
            if candidate == 0 or not fr_m.le(x, candidate) or pm.apply(candidate) != y:
                violations.append(("back", x, y))
            y = (y - 1) & fx
            if y == 0:
                break
    return PMorphismReport(tuple(violations))


@lru_cache(maxsize=16)
def _family_program(n: int) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """The members of ``alpha_formulas(n)`` as one program and their
    positions in it, built once per family size."""
    _, prog, _, at = _dag(*alpha_formulas(n).formulas)
    return tuple(prog), tuple(at)


def alpha_pmorphism(m: int, n: int, w: Valuation) -> PMorphism:
    """Map each maximal world to the index of the unique family member it
    forces under ``w``, extended to all worlds by meets; validated before
    returning."""
    if w.frame.n != m:
        raise ValueError(f"valuation lives on {w.frame!r}, not M_{m}")
    prog, at = _family_program(n)
    ts = _run(frame(m), prog, w.map)
    member_ts = [ts[i] for i in at]
    point_map = {}
    for i in range(1, m + 1):
        bit = 1 << ((1 << (i - 1)) - 1)
        js = [j for j in range(1, n + 1) if member_ts[j - 1] & bit]
        if len(js) != 1:
            raise SelfCheckError(
                f"maximal world {i} forces {len(js)} family members; expected exactly one"
            )
        point_map[i] = js[0]
    pm = PMorphism.from_max_map(m, n, point_map)
    report = check_pmorphism(pm)
    if not report.ok:
        raise SelfCheckError(f"constructed map fails: {report.violations[0]}")
    return pm


def _check_frames(pm: PMorphism, u: Valuation, w: Valuation) -> None:
    if w.frame.n != pm.m:
        raise ValueError(f"valuation lives on {w.frame!r}, not M_{pm.m}")
    if u.frame.n != pm.n:
        raise ValueError(f"universal valuation is for M_{u.frame.n}, not M_{pm.n}")


def _transfer(pm: PMorphism, formulas: Sequence[Formula], prog: list[tuple],
              at: Sequence[int], source: Mapping[str, int],
              target: Mapping[str, int]) -> TransferReport:
    """Compare ``x`` forcing each formula under ``source`` with ``pm.apply(x)``
    forcing it under ``target``, reporting the least world where they differ;
    formula ``i`` sits at ``at[i]`` of ``prog``, which runs once per frame."""
    ts_source = _run(frame(pm.m), prog, source)
    ts_target = _run(frame(pm.n), prog, target)
    pulled: dict[int, int] = {}
    cases = []
    for f, i in zip(formulas, at):
        back = pulled.get(ts_target[i])
        if back is None:
            back = pulled[ts_target[i]] = pm.pullback(ts_target[i])
        diff = ts_source[i] ^ back
        cases.append(TransferCase(f, not diff, (diff & -diff).bit_length() or None))
    return TransferReport(tuple(cases))


def check_alpha_transfer(pm: PMorphism, u: Valuation, w: Valuation) -> TransferReport:
    """The membership transfer: ``f(x)`` lands in the truth set of
    ``alpha_I`` under the universal valuation exactly when ``x`` is in its
    truth set under ``w``, for every index set ``I``.  The ``alpha_I``, the
    one program holding them and their positions in it are built once per
    frame size; each call runs that program on both frames.  ``w`` must live
    on ``M_{pm.m}`` and ``u`` on ``M_{pm.n}`` (``ValueError`` otherwise)."""
    _check_frames(pm, u, w)
    return _transfer(pm, *_membership_program(pm.n), w.map, u.map)


@lru_cache(maxsize=8)
def _membership_program(n: int) -> tuple[tuple[Formula, ...], tuple[tuple, ...],
                                         tuple[int, ...]]:
    """Every ``alpha_I`` of ``M_n``'s index sets in ascending mask order, the
    one program that holds them, and their positions in it, built once per
    frame size."""
    formulas = tuple(_alpha_I(n, mask) for mask in frame(n).worlds())
    _, prog, _, at = _dag(*formulas)
    return formulas, tuple(prog), tuple(at)


def transfer_check(pm: PMorphism, sigma: Substitution, u: Valuation,
                   w: Valuation, test_formulas: Sequence[Formula] | None = None, *,
                   count: int = 100, seed: int = 0) -> TransferReport:
    """Forcing of substitution images transfers along the map: for each test
    formula ``chi``, ``x`` forces ``sigma(chi)`` under ``w`` exactly when
    ``f(x)`` forces it under the universal valuation.

    Defaults probe the atoms of ``sigma``'s domain, the constants, and
    ``count`` seeded random formulas of depth 4; a negative ``count``, a
    ``w`` off ``M_{pm.m}`` or a ``u`` off ``M_{pm.n}`` is a ``ValueError``.
    Image truth sets are evaluated compositionally, which agrees with
    evaluating ``apply_subst(sigma, chi)`` directly: the atoms' images form
    one program and the test formulas another, each run once per side, the
    test formulas over the images' truth sets.  The random formulas are drawn
    straight into the program that holds the atoms and constants, so none is
    walked again, and each distinct target truth set is pulled back once.
    """
    if count < 0:
        raise ValueError(f"test formula count must be non-negative, got {count}")
    _check_frames(pm, u, w)
    names = domain = sorted(sigma.mapping)
    if test_formulas is None:
        rng = random.Random(seed)
        nodes, prog, index, at = _dag(*[Atom(p) for p in domain], TOP, BOT)
        at += [_draw(rng, domain, 4, nodes, prog, index) for _ in range(count)]
        test_formulas = [nodes[i] for i in at]
    else:
        _, prog, _, at = _dag(*test_formulas)
        # an atom outside the domain stands for ``sigma.lookup``'s default, as in apply_subst
        names = sorted(set(domain).union(_program_atoms(prog)))
    _, images, _, image_at = _dag(*[sigma.lookup(p) for p in names])
    ts_w = _run(frame(pm.m), images, w.map)
    ts_u = _run(frame(pm.n), images, u.map)
    side_w = {p: ts_w[i] for p, i in zip(names, image_at)}
    side_u = {p: ts_u[i] for p, i in zip(names, image_at)}
    return _transfer(pm, test_formulas, prog, at, side_w, side_u)
