"""Sweeps of lex-leaders against full enumeration on large frames, outside tier-1.

A full sweep of 4-atom M_4 takes about half a minute, so this script has no
``test_`` prefix and pytest does not collect it.  Run it from the repository
root:

    PYTHONPATH=src python tests/symmetry_large.py

For 2-atom M_5 and 3- and 4-atom M_4 it sweeps a few valid and refuted
formulas, fixed and seeded, both ways, prints the valuations each sweep
evaluated and its time, and exits 0 when every reduced ``FrameCheck`` equals
the full one.
"""

import random
import sys
import time

from medlog import medvedev
from medlog.formula import atoms, parse, render
from medlog.medvedev import FrameCheck, compile_formula, frame, valid_on
from medlog.randgen import random_formula
from oracles import full_order_chunks

BUDGET = 10**12
# two theorems and one non-theorem per atom count; over three atoms the
# non-theorem is the width-2 formula, which holds on M_2 and fails late in the
# order of M_4
FIXED = {2: ["a -> b -> a", "~~(a | ~a) & (b -> b)", "(a -> b) | (b -> a)"],
         3: ["(a -> b) -> (b -> c) -> a -> c", "(~a -> b | c) -> (~a -> b) | (~a -> c)",
             "(a -> b | c) | (b -> a | c) | (c -> a | b)"],
         4: ["(a -> b) -> (b -> c) -> (c -> d) -> a -> d",
             "(~a -> b | c | d) -> (~a -> b) | (~a -> c) | (~a -> d)",
             "(a -> b | c) | (b -> a | c) | (c -> a | d)"]}


def evaluated(run):
    """Call ``run`` and count the valuations ``run_program`` evaluated."""
    real, seen = medvedev.run_program, [0]

    def spy(fr, prog, atom_bits, count=1):
        seen[0] += count
        return real(fr, prog, atom_bits, count)
    medvedev.run_program = spy
    try:
        t0 = time.perf_counter()
        res = run()
        return res, seen[0], time.perf_counter() - t0
    finally:
        medvedev.run_program = real


def outcome(res):
    return res.valid, res.mode, res.checked, res.witness and res.witness.to_obj()


def full(fr, f):
    prog = compile_formula(f)
    chunks = full_order_chunks(fr, atoms(f), len(prog))
    checked, wit = medvedev._sweep(fr, f, prog, chunks)
    return FrameCheck(fr.n, "exhaustive", wit is None, checked, wit)


def reduced(fr, f):
    medvedev._compiled = None  # compile afresh and sweep, whatever came before
    return valid_on(fr, f, "exhaustive", budget=BUDGET)


def corpus(fr, rng, names, refuted):
    """The fixed formulas over ``names`` in a seeded order of the atoms, then
    ``refuted`` seeded random formulas over all of ``names`` refuted on
    ``fr``."""
    letters = "abcd"[:len(names)]
    order = "".join(rng.sample(names, len(names)))
    out = [parse(text.translate(str.maketrans(letters, order))) for text in FIXED[len(names)]]
    while len(out) < len(FIXED[len(names)]) + refuted:
        f = random_formula(rng, names, rng.randrange(3, 6))
        if len(atoms(f)) == len(names) and not reduced(fr, f).valid:
            out.append(f)
    return out


def main() -> int:
    bad = 0
    for n, names, seed in ((5, ["p", "q"], 51), (4, ["p", "q", "r"], 43),
                           (4, ["p", "q", "r", "s"], 44)):
        fr = frame(n)
        for f in corpus(fr, random.Random(seed), names, 2):
            want, full_count, full_s = evaluated(lambda: full(fr, f))
            got, count, s = evaluated(lambda: reduced(fr, f))
            same = outcome(got) == outcome(want)
            bad += not same
            print(f"M_{n} {len(names)} atoms {'valid  ' if got.valid else 'refuted'} "
                  f"checked {got.checked:>11,}: full {full_count:>11,} valuations "
                  f"{full_s:6.2f} s, leaders {count:>10,} {s:6.2f} s"
                  f"{'' if same else '  DIFFERS'}  {render(f)}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
