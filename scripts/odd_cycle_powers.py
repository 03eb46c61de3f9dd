#!/usr/bin/env python3
"""First power where symbolic and ordinary powers of an oriented odd cycle split.

Unweighted odd cycles have all heavy-vertex conditions satisfied vacuously,
so the only obstruction to power equality is the odd cycle itself; the
split is expected at n = (length + 1) / 2.  The table prints the observed
first failing power next to that prediction.

    python3 scripts/odd_cycle_powers.py --lengths 3 5 7
"""

import argparse
import sys

from monideal.cli import _positive
from monideal.graphs import WeightedOrientedGraph, edge_ideal
from monideal.ideals import format_monomial
from monideal.symbolic import compare_powers_up_to


def oriented_cycle(length: int) -> WeightedOrientedGraph:
    edges = [(i, i % length + 1) for i in range(1, length + 1)]
    return WeightedOrientedGraph.build(length, edges)


def first_failure(length: int, max_n: int):
    I = edge_ideal(oriented_cycle(length))
    for report in compare_powers_up_to(I, max_n):
        if not report.equal_min:
            return report.n, report.witnesses
    return None, ()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lengths", type=_positive, nargs="+", default=[3, 5, 7])
    parser.add_argument("--max-n", type=_positive, default=6)
    args = parser.parse_args(argv)

    failures = 0
    print(f"{'cycle':>6} {'predicted':>10} {'observed':>9}  witness")
    for length in args.lengths:
        if length < 3 or length % 2 == 0:
            print(f"{length:>6} {'-':>10} {'-':>9}  skipped (need an odd length >= 3)")
            continue
        predicted = (length + 1) // 2
        observed, witnesses = first_failure(length, args.max_n)
        witness = format_monomial(witnesses[0]) if witnesses else "-"
        shown = observed if observed is not None else f"> {args.max_n}"
        print(f"{length:>6} {predicted:>10} {shown:>9}  {witness}")
        if observed != predicted:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
