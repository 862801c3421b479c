"""Up-sets of M_6 against the recursive reference, outside tier-1.

The reference takes about a minute on M_6, so this script has no ``test_``
prefix and pytest does not collect it.  Run it from the repository root:

    PYTHONPATH=src python tests/upsets_n6.py

It first runs ``medlog check p --n 6`` and ``next(iter_valuations(frame(6),
["p"]))`` in child processes and fails when either child's peak resident set
is above ``MAX_CHILD_RSS_MB``: the frame's one up-set table of 8-byte ints
takes 62.6 MB, and neither copies it.  Then it compares ``enumerate_upsets``,
the stored table ``_upset_list(6)`` and its bytes ``_period(6, 1)`` with the
reference, and exits 0 when all three hold the same up-sets in the same
order.
"""

import subprocess
import sys
import time
from itertools import zip_longest

from medlog.medvedev import UPSET_COUNTS, _period, _upset_list, enumerate_upsets, frame
from test_medvedev import ref_enumerate_upsets

MAX_CHILD_RSS_MB = 120

# appended to each child's code: its own peak resident set, last on stderr
_PEAK = ("import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "
         "file=sys.stderr)")
CHILDREN = {
    # p is refuted on every frame: exit 1
    "medlog check p --n {n}": (
        "import sys; from medlog.cli import main; code = main(sys.argv[1:]); "
        f"{_PEAK}; sys.exit(code)", ["check", "p", "--n"], 1),
    "next(iter_valuations(frame({n}), ['p']))": (
        "import sys; from medlog.medvedev import frame, iter_valuations; "
        "next(iter_valuations(frame(int(sys.argv[1])), ['p'])); "
        f"{_PEAK}", [], 0),
}


def check_rss(n: int) -> int:
    """1 when a child of ``CHILDREN`` run on ``M_n`` exits with another code
    than its own or peaks above ``MAX_CHILD_RSS_MB``, after printing each
    child's peak resident set; else 0."""
    for label, (code, args, want) in CHILDREN.items():
        label = label.format(n=n)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code, *args, str(n)],
                              capture_output=True, text=True)
        lines = proc.stderr.splitlines()
        peak = int(lines[-1]) if lines and lines[-1].isdigit() else 0
        peak_mb = peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes / KiB
        print(f"{label}: exit {proc.returncode}, peak {peak_mb:.0f} MB "
              f"({time.perf_counter() - t0:.1f} s)")
        if proc.returncode != want or not peak:
            print(proc.stdout + proc.stderr)
            return 1
        if peak_mb > MAX_CHILD_RSS_MB:
            print(f"M_{n}: peak {peak_mb:.0f} MB is over {MAX_CHILD_RSS_MB} MB")
            return 1
    return 0


def main(n: int = 6) -> int:
    if check_rss(n):
        return 1
    fr = frame(n)
    t0 = time.perf_counter()
    table, period, size = _upset_list(n), _period(n, 1), _upset_list(n).itemsize
    if len(period) != len(table) * size:
        print(f"M_{n}: {len(period)} bytes for {len(table)} up-sets of {size} bytes")
        return 1
    count = 0
    for got, stored, want in zip_longest(enumerate_upsets(fr), table,
                                         ref_enumerate_upsets(fr)):
        if not got == stored == want:
            print(f"M_{n}: up-set {count} differs: enumerated {got}, stored {stored}, "
                  f"against {want}")
            return 1
        if period[count * size:(count + 1) * size] != want.to_bytes(size, "little"):
            print(f"M_{n}: the bytes of up-set {count} differ from {want}")
            return 1
        count += 1
    if count != UPSET_COUNTS[n]:
        print(f"M_{n}: {count} up-sets, expected {UPSET_COUNTS[n]}")
        return 1
    print(f"M_{n}: {count} up-sets, enumerated, stored and packed identically to the "
          f"reference ({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
