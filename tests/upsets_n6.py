"""Up-set enumeration on M_6 against the recursive reference, outside tier-1.

The reference takes about a minute on M_6, so this script has no ``test_``
prefix and pytest does not collect it.  Run it from the repository root:

    PYTHONPATH=src python tests/upsets_n6.py

It exits 0 when both enumerators yield the same up-sets in the same order.
"""

import sys
import time
from itertools import zip_longest

from medlog.medvedev import UPSET_COUNTS, enumerate_upsets, frame
from test_medvedev import ref_enumerate_upsets


def main(n: int = 6) -> int:
    fr = frame(n)
    t0 = time.perf_counter()
    count = 0
    for got, want in zip_longest(enumerate_upsets(fr), ref_enumerate_upsets(fr)):
        if got != want:
            print(f"M_{n}: up-set {count} differs: {got} against {want}")
            return 1
        count += 1
    if count != UPSET_COUNTS[n]:
        print(f"M_{n}: {count} up-sets, expected {UPSET_COUNTS[n]}")
        return 1
    print(f"M_{n}: {count} up-sets, identical to the reference "
          f"({time.perf_counter() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
