#!/usr/bin/env python3
"""Exhaustive census of exact game values over all n x n sign boards.

Counts every +/-1 board for n up to --max-n (default 4, i.e. 2^16 boards;
6, the most the census budget admits, takes about 12 s) through the
2^((n-1)^2) switching normal forms, each standing for the 2^(2n-1) boards
of its class, all of one value. Prints the value histogram, the minimum
against the proven lower bound n**1.5 / (1.3 * 2**0.365), and the count of
boards attaining the floor 2**(-1/2) n**(3/2) (eight at n = 2, none beyond).

Usage:
    python scripts/value_census.py [--max-n 4]
"""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))  # the census of this checkout's code
from gbswitch import BudgetExceeded, g_lower_bound_formula, value_census


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=4)
    args = parser.parse_args()

    try:  # the largest n first, so that one over the budget is refused before any census runs
        if args.max_n < 2:
            raise ValueError("must be >= 2")
        hists = {n: value_census(2, n) for n in range(args.max_n, 1, -1)}
    except (BudgetExceeded, ValueError) as exc:  # ValueError: also the SizeOverflow of a huge n
        print(f"{parser.prog}: error: --max-n {args.max_n}: {exc}", file=sys.stderr)
        return 2
    width = max([7] + [len(str(count)) for hist in hists.values() for count in hist.values()])  # one column for all n
    for n, hist in sorted(hists.items()):
        total = sum(hist.values())
        floor = 2 ** (-0.5) * n ** 1.5
        bound = g_lower_bound_formula(2, n, math.inf)
        print(f"n = {n}: {total} boards")
        for value, count in hist.items():  # ascending, as value_census returns them
            print(f"  value {value:>3}: {count:>{width}} boards ({count / total:7.2%})")
        print(f"  minimum {min(hist)} vs proven bound {bound:.4f}")
        at_floor = sum(cnt for v, cnt in hist.items() if abs(v - floor) < 1e-9)
        print(f"  boards at the floor 2^(-1/2) n^(3/2) = {floor:.4f}: {at_floor}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
