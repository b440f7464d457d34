"""Exhaustively compare the three embeddability deciders beyond the test range.

The default test run sweeps n <= 6, and ``pytest -m slow`` adds n = 7.
This script prints a per-size table of graph counts, pattern-free counts,
and any decider mismatches.  On one core of a 2-vCPU KVM guest with
Python 3.11, n = 6 took 1.2-1.5 s and n = 7 (2,097,152 graphs) 67 s; n = 8
has 128 times as many graphs and is an overnight job.

Usage:
    python scripts/extended_crosscheck.py --max-n 7
"""

import argparse
import time

from raagv import cross_check


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--max-n",
        type=int,
        default=6,
        help="largest vertex count to sweep (default 6, hard cap 8)",
    )
    args = ap.parse_args()

    header = f"{'n':>2}  {'graphs':>10}  {'pattern-free':>12}  {'mismatches':>10}  {'seconds':>8}"
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_n + 1):
        start = time.perf_counter()
        report = cross_check(n)
        elapsed = time.perf_counter() - start
        print(
            f"{n:>2}  {report.total_graphs:>10}  {report.nb_count:>12}  "
            f"{len(report.mismatches):>10}  {elapsed:>8.2f}"
        )
        for m in report.mismatches:
            print(
                f"    code {m.code}: triple_free={m.triple_free} "
                f"greedy={m.greedy_ok} multipartite={m.multipartite_ok}"
            )


if __name__ == "__main__":
    main()
