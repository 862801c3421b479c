"""Up-sets of M_6 against the recursive reference, outside tier-1.

The reference takes about a minute on M_6, so this script has no ``test_``
prefix and pytest does not collect it.  Run it from the repository root:

    PYTHONPATH=src python tests/upsets_n6.py

It first runs ``medlog check p --n 6`` in a child process and fails when the
child's peak resident set is above ``MAX_CHECK_RSS_MB``: the frame's one
up-set table of 8-byte ints and its bytes take about 125 MB.  Then it
compares ``enumerate_upsets``, the stored table ``_upset_list(6)`` and its
bytes ``_period(6, 1)`` with the reference, and exits 0 when all three hold
the same up-sets in the same order.
"""

import resource
import subprocess
import sys
import time
from itertools import zip_longest

from medlog.medvedev import UPSET_COUNTS, _period, _upset_list, enumerate_upsets, frame
from test_medvedev import ref_enumerate_upsets

MAX_CHECK_RSS_MB = 300


def check_rss(n: int) -> int:
    """Exit code of ``medlog check p --n n`` run in a child, after printing
    its peak resident set; 1 when that is over ``MAX_CHECK_RSS_MB``."""
    main = "import sys; from medlog.cli import main; sys.exit(main(sys.argv[1:]))"
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", main, "check", "p", "--n", str(n)],
                          capture_output=True, text=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_mb = peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes / KiB
    print(f"medlog check p --n {n}: exit {proc.returncode}, peak {peak_mb:.0f} MB "
          f"({time.perf_counter() - t0:.1f} s)")
    if proc.returncode != 1:  # p is refuted on every frame
        print(proc.stdout + proc.stderr)
        return 1
    if peak_mb > MAX_CHECK_RSS_MB:
        print(f"M_{n}: peak {peak_mb:.0f} MB is over {MAX_CHECK_RSS_MB} MB")
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
