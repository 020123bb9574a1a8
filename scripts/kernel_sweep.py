#!/usr/bin/env python3
"""Time the exact kernel at several block budgets (the sweep behind rng.BLOCK_BYTES).

For each shape, times ``exact_max_batch`` at every budget in --budgets
(powers of two, in bytes: the value of ``rng.BLOCK_BYTES``, the block of
every stack), in interleaved rounds, and prints the median in ms per shape
and budget with column totals.
Single boards cover m = 2..5 with 2^10 to 2^--max-bits visited
assignments; stacks cover small shapes, with enough seeded boards for
about 2^--max-bits visited assignments in all. Outputs are the same at
every budget; the script checks that too. It runs in about a minute.

Usage:
    python scripts/kernel_sweep.py [--budgets 18,19,20,21] [--max-bits 19] [--rounds 7]
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # the kernel of this checkout
from gbswitch import exact_max_batch, generator, rng

STACKS = ((2, 3), (2, 5), (2, 7), (2, 9), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2), (5, 3))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--budgets", default="18,19,20,21", help="log2 of each budget in bytes")
    parser.add_argument("--max-bits", type=int, default=19)
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    budgets = [int(b) for b in args.budgets.split(",")]

    cases = []  # (label, m, n, boards)
    for m in range(2, 6):
        for n in range(2, 64):
            bits = (n - 1) * (m - 1)  # visited assignments per board
            if 10 <= bits <= args.max_bits:
                cases.append((f"({m}, {n}) x1", m, n, 1))
    cases += [(f"({m}, {n}) x{1 << args.max_bits - (n - 1) * (m - 1)}", m, n, 1 << args.max_bits - (n - 1) * (m - 1))
              for m, n in STACKS]
    stacks = {label: generator(1, m, n).integers(0, 2, (count, n ** m), dtype="i1") * 2 - 1
              for label, m, n, count in cases}

    times = {(label, b): [] for label, *_ in cases for b in budgets}
    outputs = {}
    for _ in range(args.rounds):
        for label, m, n, _count in cases:
            for b in budgets:
                rng.BLOCK_BYTES = 1 << b
                t0 = time.perf_counter()
                values, witnesses = exact_max_batch(m, n, stacks[label])
                times[label, b].append(time.perf_counter() - t0)
                digest = (values.tobytes(), witnesses.tobytes())
                if outputs.setdefault(label, digest) != digest:
                    raise AssertionError(f"{label}: the output at 2**{b} bytes differs")

    print(f"median ms over {args.rounds} rounds; columns: budget in bytes")
    print(f"{'shape x boards':<18}" + "".join(f"{'2^' + str(b):>10}" for b in budgets))
    for kind in (" x1", ""):
        rows = [label for label, *_ in cases if label.endswith(" x1") == bool(kind)]
        for label in rows:
            print(f"{label:<18}" + "".join(f"{statistics.median(times[label, b]) * 1e3:>10.2f}" for b in budgets))
        totals = [sum(statistics.median(times[label, b]) for label in rows) * 1e3 for b in budgets]
        print(f"{'total' + (' (single)' if kind else ' (stacks)'):<18}" + "".join(f"{t:>10.2f}" for t in totals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
