"""The benchmark's workloads: seeded tasks, the library calls one task makes,
and the checks on what comes back.

Each workload cycles through a fixed mix of task shapes (``i % len(mix)``)
so that every run, whatever its seed, holds the same shares of cheap and
expensive tasks; the seed only varies the formulas and valuations inside each
shape.  Task ``i`` is drawn from its own generator, seeded by workload name,
seed and ``i``, so it does not depend on how many tasks came before it.

A workload's ``run`` is the only code that touches medlog on the timed path,
and it reaches every function through the module objects in ``lib`` so that
the tracer's wrappers, when installed, see each call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

import gen
import oracle

# up-sets of M_1..M_3, counted by brute force in the benchmark's self-test
UPSET_COUNTS = {1: 2, 2: 5, 3: 19}


@dataclass
class Outcome:
    ok: bool
    inconclusive: bool
    record: str  # canonical output: hashed into the run digest
    # work read off the output, named as the per-layer count it must equal
    counts: Counter = field(default_factory=Counter)
    problem: str = ""


def to_medlog(lib, f: tuple):
    """Build the medlog syntax tree for a benchmark formula."""
    F = lib.formula
    kind = f[0]
    if kind == "atom":
        return F.Atom(f[1])
    if kind == "bot":
        return F.BOT
    if kind == "top":
        return F.TOP
    if kind == "neg":
        return F.Neg(to_medlog(lib, f[1]))
    ctor = {"and": F.And, "or": F.Or, "imp": F.Imp}[kind]
    return ctor(to_medlog(lib, f[1]), to_medlog(lib, f[2]))


def from_medlog(g) -> tuple:
    """Read a medlog formula back into the benchmark's own tuples."""
    kind = type(g).__name__
    if kind == "Atom":
        return gen.atom(g.name)
    if kind in ("Bot", "Top"):
        return gen.BOT if kind == "Bot" else gen.TOP
    if kind == "Neg":
        return gen.neg(from_medlog(g.body))
    return (kind.lower(), from_medlog(g.lhs), from_medlog(g.rhs))


def text(g) -> str:
    return gen.render(from_medlog(g))


class Workload:
    name: str
    mix: tuple  # task shapes, cycled by task index
    prefix: int  # tasks every run completes; their digest is comparable across runs
    # the highest of p90/p95/p99 with ten tasks beyond it in a baseline run of
    # BENCHMARK.json's run_seconds; fixed, so that a faster commit, which runs
    # more tasks, still reports the same percentile
    tail_pct: int

    def task(self, seed: int, i: int):
        rng = random.Random(f"{self.name}/{seed}/{i}")
        return self.generate(rng, i // len(self.mix), self.mix[i % len(self.mix)])

    def generate(self, rng: random.Random, block: int, shape):
        raise NotImplementedError

    def build(self, lib, task):
        raise NotImplementedError

    def run(self, lib, inputs):
        raise NotImplementedError

    def check(self, task, out) -> Outcome:
        raise NotImplementedError


class NfVerify(Workload):
    """Criterion 02 as a user runs it: normalize, then verify on M_1..M_3.

    The exhaustive sweeps dominate (19**k valuations on M_3 for k atoms), so
    one task in four uses two atoms and the rest three.
    """

    name = "nf-verify"
    mix = (2, 3, 3, 3)
    prefix = 16
    tail_pct = 95
    NAMES = ("p", "q", "r")
    # sweep time grows with the compiled program, so formula size and rank
    # are held to a band: seeds then differ in formulas, not in task cost
    RANKS = range(2, 17)
    SIZES = range(24, 41)

    def generate(self, rng, block, shape):
        names = rng.sample(self.NAMES, shape)
        return gen.random_finite_rank(rng, names, skeleton_depth=4, body_depth=3,
                                      ranks=self.RANKS, sizes=self.SIZES)

    def build(self, lib, task):
        return to_medlog(lib, task)

    def run(self, lib, f):
        nd = lib.kpform.kp_normalize(f)
        return nd, lib.kpform.verify_normal_form(f, nd, bound=3)

    def check(self, task, out):
        nd, report = out
        bodies = [from_medlog(b) for b in nd.bodies]
        k = len(gen.atoms(task))
        checks = [(c.n, c.mode, c.valid, c.checked) for c in report.frame_checks]
        record = " ; ".join([gen.render(task), " | ".join(gen.render(b) for b in bodies),
                             repr(checks), repr(report.ipc_equivalent)])
        counts = Counter({
            "kpform.bodies": len(bodies),
            "medvedev.valuations_checked": sum(c[3] for c in checks),
            "medvedev.valuation_worlds": sum(c[3] * ((1 << c[0]) - 1) for c in checks)})
        problem = ""
        if not report.ok:
            problem = "report not ok"
        elif len(bodies) != gen.rank(task, 1 << 20):
            problem = f"{len(bodies)} bodies for rank {gen.rank(task, 1 << 20)}"
        elif checks != [(n, "exhaustive", True, UPSET_COUNTS[n] ** k) for n in (1, 2, 3)]:
            problem = f"frame checks {checks}"
        else:
            normal_form = gen.big("or", [gen.neg(b) for b in bodies])
            if not gen.classically_valid(gen.iff(task, normal_form)):
                problem = "normal form not classically equivalent"
        inconclusive = not report.needs_weak_kp and report.ipc_equivalent is None
        return Outcome(not problem, inconclusive, record, counts, problem)


class AlphaTransfer(Workload):
    """Criteria 04 and 08: the point map of a valuation, its three law
    families, and the substitution lemma, for every pair m, n <= 4."""

    name = "alpha-transfer"
    mix = tuple(itertools.product(range(1, 5), repeat=2))
    prefix = 64
    tail_pct = 99
    TRANSFER_COUNT = 100  # random formulas transfer_check draws itself
    LEMMA_FORMULAS = 3

    def generate(self, rng, block, shape):
        src, dst = shape
        family_atoms = [f"p{j}" for j in range(1, (dst - 1).bit_length() + 1)]
        return SimpleNamespace(
            src=src, dst=dst,
            w={a: gen.random_upset(rng, src) for a in family_atoms},
            v={a: gen.random_upset(rng, dst) for a in ("p", "q", "r")},
            formulas=[gen.random_formula(rng, ["p", "q", "r"], 6)
                      for _ in range(self.LEMMA_FORMULAS)],
            seed=rng.randrange(1 << 16))

    def build(self, lib, t):
        M = lib.medvedev
        return SimpleNamespace(
            src=t.src, dst=t.dst, seed=t.seed,
            w=M.Valuation(M.frame(t.src), {a: gen.to_bits(s) for a, s in t.w.items()}),
            v=M.Valuation(M.frame(t.dst), {a: gen.to_bits(s) for a, s in t.v.items()}),
            formulas=[to_medlog(lib, f) for f in t.formulas])

    def run(self, lib, x):
        A, S = lib.alpha, lib.structural
        u = A.u_valuation(x.dst)
        pm = S.alpha_pmorphism(x.src, x.dst, x.w)
        laws = S.check_pmorphism(pm)
        membership = S.check_alpha_transfer(pm, u, x.w)
        sigma = A.universal_subst(x.dst, x.v)
        images = S.transfer_check(pm, sigma, u, x.w, count=self.TRANSFER_COUNT,
                                  seed=x.seed)
        lemma = A.verify_lemma(x.dst, x.v, x.formulas)
        return pm, laws, membership, sigma, images, lemma

    def check(self, t, out):
        pm, laws, membership, sigma, images, lemma = out
        sigma_text = ";".join(f"{a}={text(g)}" for a, g in sorted(sigma.mapping.items()))
        sizes = (len(membership.cases), len(images.cases), len(lemma.cases))
        record = f"{t.src} {t.dst} {pm.mapping} {sizes} {sigma_text}"
        counts = Counter(law_cases=sum(sizes))
        dst_worlds = (1 << t.dst) - 1
        problem = ""
        if not (laws.ok and membership.ok and images.ok and lemma.ok):
            problem = "a law report is not ok"
        elif sizes != (dst_worlds, len(sigma.mapping) + 2 + self.TRANSFER_COUNT,
                       self.LEMMA_FORMULAS):
            problem = f"case counts {sizes}"
        elif (len(pm.mapping) != (1 << t.src) - 1
              or not all(1 <= y <= dst_worlds for y in pm.mapping)):
            problem = "point map outside its frames"
        return Outcome(not problem, False, record, counts, problem)


def _cli(lib, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = lib.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class DecideCli(Workload):
    """Formula text through ``medlog.cli.main``: ``prove-ipc``, then a sampled
    check on M_8 when proved, else ``refute --max-n 3``.

    Shapes per block of eight: a pigeonhole theorem, a de Bruijn formula
    (theorem for odd cycles, classically false for even ones), two
    Kreisel-Putnam instances (valid on every Medvedev frame), and four random
    classical tautologies.
    """

    name = "decide-cli"
    mix = ("pigeonhole", "de-bruijn", "kp", "kp-subst", "tautology", "tautology",
           "tautology", "tautology")
    prefix = 32
    tail_pct = 95
    SAMPLES = 100
    POOL = ("p", "q", "r", "s", "a", "b", "c", "x", "y", "z")

    def generate(self, rng, block, shape):
        names = rng.sample(self.POOL, 3)
        if shape == "pigeonhole":
            f, status = gen.pigeonhole(2, rng.choice(self.POOL), rng), "theorem"
        elif shape == "de-bruijn":
            k = (3, 4, 5)[block % 3]
            f = gen.de_bruijn(k, rng.choice(self.POOL), rng)
            status = "theorem" if k % 2 else "classically-false"
        elif shape == "kp":
            a, b, c = map(gen.atom, names)
            negated = rng.random() < 0.5
            disjuncts = [gen.neg(b), gen.neg(c)] if negated else [b, c]
            f, status = gen.kreisel_putnam(a, disjuncts), "medvedev-valid"
        elif shape == "kp-subst":
            parts = [gen.random_formula(rng, names, 2) for _ in range(3)]
            f, status = gen.kreisel_putnam(parts[0], parts[1:]), "medvedev-valid"
        else:
            k = rng.choice((2, 3))
            while True:
                f = gen.random_formula(rng, names[:k], 5)
                if gen.size(f) >= 8 and gen.classically_valid(f):
                    break
            status = "tautology"
        return SimpleNamespace(shape=shape, status=status, formula=f, text=gen.render(f))

    def build(self, lib, t):
        return t.text

    def run(self, lib, text):
        first = _cli(lib, ["prove-ipc", text])
        if first[0] == 0:
            second = _cli(lib, ["check", text, "--n", "8", "--mode", "sample",
                                "--count", str(self.SAMPLES)])
        else:
            second = _cli(lib, ["refute", text, "--max-n", "3"])
        return first, second

    def check(self, t, out):
        (rc1, out1, _), (rc2, out2, _) = out
        record = json.dumps([t.text, rc1, out1, rc2, out2])
        counts = Counter([f"cli.exit_{rc1}", f"cli.exit_{rc2}"])
        valid = gen.classically_valid(t.formula)
        problem = ""
        verdict = None
        if (rc1, out1) not in ((0, "provable\n"), (1, "unprovable\n"),
                               (2, "unknown (budget exhausted)\n")):
            problem = f"prove-ipc exit {rc1}: {out1!r}"
        elif rc1 == 0 and not valid:
            problem = "proved a formula that is classically false"
        elif rc1 == 1 and t.status == "theorem":
            problem = "theorem reported unprovable"
        elif rc1 == 0:
            verdict = "proved"
            expected = f"no counterexample found on M_8 ({self.SAMPLES} sampled valuations)\n"
            if (rc2, out2) != (2, expected):
                problem = f"sampled check of a theorem: exit {rc2}: {out2[:200]!r}"
        elif rc2 == 1:
            verdict = "refuted"
            try:
                witness = json.loads(out2)
            except ValueError:
                witness = None
            if not isinstance(witness, dict):
                problem = f"refute printed no witness: {out2[:200]!r}"
            else:
                problem = oracle.witness_problem(witness, t.formula) or ""
                if not problem and t.status in ("theorem", "medvedev-valid"):
                    problem = f"refuted a formula valid on every Medvedev frame ({t.status})"
                elif not problem and (witness["n"] == 1) == valid:
                    problem = f"refuted first on M_{witness['n']}, classically valid: {valid}"
        elif (rc2, out2) == (2, "no refutation found up to M_3\n"):
            if not valid:
                problem = "missed the classical countermodel on M_1"
        else:
            problem = f"refute exit {rc2}: {out2[:200]!r}"
        return Outcome(not problem, verdict is None and not problem, record, counts, problem)


WORKLOADS = {w.name: w for w in (NfVerify(), AlphaTransfer(), DecideCli())}
