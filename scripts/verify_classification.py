#!/usr/bin/env python3
"""Random sweep checking the power classifications against direct computation.

For each sampled weighted oriented graph the combinatorial predictions
(square: heavy vertices all sinks and no triangle; all powers: heavy
vertices all sinks and bipartite) are compared with the symbolic-ordinary
power comparisons computed from the decompositions.  Any disagreement is
printed and the script exits nonzero.  A graph predicted to split whose
observed powers all agree is undecided, not a mismatch, when its first
split lies past --max-n: n = 2 unless the square is predicted equal, and
otherwise (odd girth + 1) / 2.  The undecided count is printed when nonzero.

    python3 scripts/verify_classification.py --count 500 --max-vertices 6
"""

import argparse
import random
import sys

from monideal.cli import _at_least, _positive
from monideal.graphs import classify, edge_ideal, format_graph
from monideal.random_instances import random_graph
from monideal.symbolic import compare_powers_up_to


def sweep(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    mismatches = undecided = 0
    square_true = all_true = 0
    for index in range(args.count):
        g = random_graph(
            rng,
            rng.randint(2, args.max_vertices),
            max_weight=args.max_weight,
        )
        I = edge_ideal(g)
        cls = classify(g)
        equal = [r.equal_min for r in compare_powers_up_to(I, args.max_n)]

        square_observed = equal[1] if args.max_n >= 2 else None
        all_observed = all(equal)
        square_true += bool(cls.square)
        all_true += bool(cls.all_powers)

        bad_square = square_observed is not None and square_observed != cls.square
        bad_all = all_observed != cls.all_powers
        if bad_all and all_observed and (
            (cls.odd_girth + 1) // 2 if cls.square else 2
        ) > args.max_n:
            undecided += 1
        elif bad_square or bad_all:
            mismatches += 1
            print(f"--- mismatch at sample {index}")
            print(format_graph(g))
            print(f"predicted square={cls.square} all_powers={cls.all_powers}")
            print(f"observed  square={square_observed} powers equal to {args.max_n}={all_observed}")
    print(
        f"{args.count} graphs checked: {square_true} with equal squares, "
        f"{all_true} with all powers equal (to n={args.max_n}), "
        f"{mismatches} mismatches"
        + (f", {undecided} undecided" if undecided else "")
    )
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=_positive, default=200)
    parser.add_argument("--max-vertices", type=_at_least(2), default=6)
    parser.add_argument("--max-weight", type=_positive, default=3)
    parser.add_argument("--max-n", type=_positive, default=3)
    parser.add_argument("--seed", type=int, default=20260823)
    return sweep(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
