"""Pairwise-contradictory formula families and the universal valuation.

For ``n`` targets over atoms ``p1..pm`` (``m = ceil(log2 n)``), the family
``alpha_1..alpha_n`` consists of the full conjunctions of literals taken in
descending bit-pattern order (``alpha_1`` all positive), except that when
``n`` is not a power of two the tail patterns are merged into one final
disjunction; for ``n = 1`` the family is just ``T``.  The members are
pairwise contradictory, their disjunction is valid in the double-negation
sense, and under the universal valuation the ``i``-th maximal world forces
exactly ``alpha_i``.

The universal valuation makes an atom true exactly on the worlds whose
generators all carry that atom positively, so membership of a world in the
truth set of ``alpha_I := ~~(alpha_i | ...)`` is containment of its
generator set in ``I``.  That law is model-checked at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import SelfCheckError
from .formula import (
    TOP,
    Atom,
    Formula,
    Neg,
    Substitution,
    _dag,
    apply_subst,
    big_and,
    big_or,
)
from .medvedev import (
    Valuation,
    frame,
    gens,
    run_program,
    truth_set,
    upset_worlds,
)

MAX_FAMILY = 1 << 10

# full membership validation is quadratic in the world count; beyond this the
# constructor still verifies the maximal-world condition
FULL_VALIDATION_N = 10


@dataclass(frozen=True)
class AlphaFamily:
    n: int
    m: int  # number of atoms p1..pm
    formulas: tuple[Formula, ...]


def _literal_conjunction(pattern: int, m: int) -> Formula:
    lits = [
        Atom(f"p{j}") if pattern >> (m - j) & 1 else Neg(Atom(f"p{j}"))
        for j in range(1, m + 1)
    ]
    return big_and(lits)


@lru_cache(maxsize=16)
def alpha_formulas(n: int) -> AlphaFamily:
    """The n-member family; patterns descend so that ``alpha_1`` is all-positive.

    Built once per family size and kept for the 16 sizes used last, so the
    callers of one size share one immutable family.
    """
    if not 1 <= n <= MAX_FAMILY:
        raise ValueError(f"family size must be in 1..{MAX_FAMILY}, got {n}")
    if n == 1:
        return AlphaFamily(1, 0, (TOP,))
    m = (n - 1).bit_length()
    full = 1 << m
    base = [_literal_conjunction(full - i, m) for i in range(1, full + 1)]
    if n == full:
        formulas = base
    else:
        formulas = base[: n - 1] + [big_or(base[n - 1:])]
    return AlphaFamily(n, m, tuple(formulas))


def alpha_I(family: AlphaFamily, indices: Iterable[int]) -> Formula:
    """``~~(alpha_i | ...)`` over the given index set, ascending."""
    idx = sorted(set(indices))
    if not idx:
        raise ValueError("index set must be non-empty")
    if idx[0] < 1 or idx[-1] > family.n:
        raise ValueError(f"indices must lie in 1..{family.n}")
    return Neg(Neg(big_or([family.formulas[i - 1] for i in idx])))


@lru_cache(maxsize=1 << 10)
def _alpha_I(n: int, mask: int) -> Formula:
    """``alpha_I`` of ``alpha_formulas(n)`` over the generators of ``mask``,
    built on first use and kept per frame size and index set."""
    return alpha_I(alpha_formulas(n), gens(mask))


def _effective_pattern(i: int, m: int) -> int:
    # the merged tail member answers atoms like its first merged pattern
    return (1 << m) - i


@lru_cache(maxsize=None)
def u_valuation(n: int) -> Valuation:
    """The valuation on ``M_n`` under which ``alpha_formulas(n)`` separates
    the maximal worlds.

    Atom ``pj`` holds at a world exactly when every generator's pattern sets
    ``pj``; equivalently its truth set is the submask cone of ``S_j``, the
    set of maximal worlds whose pattern carries ``pj``.  Construction
    validates the maximal-world condition and (for ``n`` up to
    ``FULL_VALIDATION_N``) the membership law for every index set.
    """
    fam = alpha_formulas(n)
    fr = frame(n)
    mapping: dict[str, int] = {}
    for j in range(1, fam.m + 1):
        s_mask = 0
        for i in range(1, n + 1):
            if _effective_pattern(i, fam.m) >> (fam.m - j) & 1:
                s_mask |= 1 << (i - 1)
        mapping[f"p{j}"] = fr.up_bits(s_mask) if s_mask else 0
    u = Valuation(fr, mapping)
    _validate(u, full=n <= FULL_VALIDATION_N)
    return u


def _validate(u: Valuation, full: bool) -> None:
    fr, fam = u.frame, alpha_formulas(u.frame.n)
    # each maximal world forces its own family member and no other
    member_ts = [truth_set(fr, u, a) for a in fam.formulas]
    for i in range(1, fr.n + 1):
        w = 1 << (i - 1)
        for j in range(1, fr.n + 1):
            forced = bool(member_ts[j - 1] >> (w - 1) & 1)
            if forced != (i == j):
                raise SelfCheckError(
                    f"maximal world {i} and member {j} disagree in the family for n={fr.n}"
                )
    if not full:
        return
    # membership law: the truth set of alpha_I is exactly the submask cone of I
    for mask in fr.worlds():
        f = alpha_I(fam, gens(mask))
        if truth_set(fr, u, f) != fr.up_bits(mask):
            raise SelfCheckError(
                f"membership law fails for index set {gens(mask)} at n={fr.n}"
            )


def universal_subst(n: int, v: Valuation) -> Substitution:
    """Replace each atom by the disjunction of ``alpha_I`` over its truth set.

    Worlds contribute in ascending mask order; an atom true nowhere maps to
    the empty disjunction ``~T``.  Only the ``Substitution`` is built per
    call: each image is kept per frame size and truth set (the 256 used
    last), and each ``alpha_I`` in it per frame size and index set, so equal
    truth sets, within a call or across calls, share one image object.
    """
    if v.frame.n != n:
        raise ValueError(f"valuation lives on {v.frame!r}, not M_{n}")
    return Substitution({atom: _image(n, bits) for atom, bits in v.map.items()})


@lru_cache(maxsize=256)
def _image(n: int, bits: int) -> Formula:
    """The disjunction of ``alpha_I`` over the worlds of ``bits``, kept per
    frame size and world set."""
    return big_or([_alpha_I(n, w) for w in upset_worlds(bits)])


class TransferCase(NamedTuple):
    formula: Formula
    ok: bool
    world: int | None  # least world mask where the two sides disagree


@dataclass(frozen=True)
class TransferReport:
    cases: tuple[TransferCase, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)


def _report(formulas: Sequence[Formula], diffs: Iterable[int]) -> TransferReport:
    """One case per formula from the worlds where its two sides differ."""
    return TransferReport(tuple(TransferCase(f, not d, (d & -d).bit_length() or None)
                                for f, d in zip(formulas, diffs)))


def verify_lemma(n: int, v: Valuation, test_formulas: Sequence[Formula]) -> TransferReport:
    """Compare each formula's truth set under ``v`` with its substitution
    image's truth set under the universal valuation, world by world.  The
    formulas form one program and their images another, each run once."""
    fr = frame(n)
    sigma = universal_subst(n, v)
    u = u_valuation(n)
    _, prog, _, at = _dag(*test_formulas)
    left = run_program(fr, prog, v.map)
    _, image_prog, _, image_at = _dag(*[apply_subst(sigma, f) for f in test_formulas])
    right = run_program(fr, image_prog, u.map)
    return _report(test_formulas, [left[i] ^ right[j] for i, j in zip(at, image_at)])
