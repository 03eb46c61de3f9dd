#!/usr/bin/env python3
"""Random sweep checking the power classifications against direct computation.

For each sampled weighted oriented graph the combinatorial predictions
(square: heavy vertices all sinks and no triangle; all powers: heavy
vertices all sinks and bipartite) are compared with the symbolic-ordinary
power comparisons computed from the decompositions.  Any disagreement is
printed and the script exits nonzero.

    python3 scripts/verify_classification.py --count 500 --max-vertices 6
"""

import argparse
import random
import sys
from dataclasses import dataclass

from monideal.cli import _at_least, _positive
from monideal.graphs import classify, edge_ideal, format_graph
from monideal.random_instances import random_graph
from monideal.symbolic import compare_powers_up_to


@dataclass(frozen=True)
class SweepConfig:
    count: int = 200
    max_vertices: int = 6
    max_weight: int = 3
    max_n: int = 3
    seed: int = 20260823


def sweep(config: SweepConfig) -> int:
    rng = random.Random(config.seed)
    mismatches = 0
    square_true = all_true = 0
    for index in range(config.count):
        g = random_graph(
            rng,
            rng.randint(2, config.max_vertices),
            max_weight=config.max_weight,
        )
        I = edge_ideal(g)
        cls = classify(g)
        equal = [r.equal_min for r in compare_powers_up_to(I, config.max_n)]

        square_observed = equal[1] if config.max_n >= 2 else None
        all_observed = all(equal)
        square_true += bool(cls.square)
        all_true += bool(cls.all_powers)

        bad_square = square_observed is not None and square_observed != cls.square
        bad_all = all_observed != cls.all_powers
        if bad_square or bad_all:
            mismatches += 1
            print(f"--- mismatch at sample {index}")
            print(format_graph(g))
            print(f"predicted square={cls.square} all_powers={cls.all_powers}")
            print(f"observed  square={square_observed} powers equal to {config.max_n}={all_observed}")
    print(
        f"{config.count} graphs checked: {square_true} with equal squares, "
        f"{all_true} with all powers equal (to n={config.max_n}), "
        f"{mismatches} mismatches"
    )
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=_positive, default=200)
    parser.add_argument("--max-vertices", type=_at_least(2), default=6)
    parser.add_argument("--max-weight", type=_positive, default=3)
    parser.add_argument("--max-n", type=_positive, default=3)
    parser.add_argument("--seed", type=int, default=20260823)
    args = parser.parse_args(argv)
    config = SweepConfig(
        count=args.count,
        max_vertices=args.max_vertices,
        max_weight=args.max_weight,
        max_n=args.max_n,
        seed=args.seed,
    )
    return sweep(config)


if __name__ == "__main__":
    sys.exit(main())
