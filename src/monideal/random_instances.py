"""Seeded random monomial ideals and weighted oriented graphs.

The property tests and the sweep scripts draw from the same generators so
that a failure seen in one place can be replayed in the other with the
seed alone.
"""

from __future__ import annotations

from random import Random

from .graphs import WeightedOrientedGraph
from .ideals import MonomialIdeal


def random_ideal(
    rng: Random,
    num_vars: int,
    max_gens: int = 6,
    max_exp: int = 3,
) -> MonomialIdeal:
    """A proper nonzero monomial ideal with exponents in 0..max_exp."""
    count = rng.randint(1, max_gens)
    gens = []
    while len(gens) < count:
        v = tuple(rng.randint(0, max_exp) for _ in range(num_vars))
        if any(v):
            gens.append(v)
    return MonomialIdeal.from_gens(gens, num_vars)


def random_graph(
    rng: Random,
    num_vertices: int,
    max_weight: int = 3,
) -> WeightedOrientedGraph:
    """A weighted oriented graph; each underlying pair appears with
    probability 0.45 and gets a random orientation.  With two or more
    vertices and no pair drawn, one random pair becomes the edge."""
    edges = []
    for i in range(1, num_vertices + 1):
        for j in range(i + 1, num_vertices + 1):
            if rng.random() < 0.45:
                edges.append((i, j) if rng.random() < 0.5 else (j, i))
    if not edges and num_vertices >= 2:
        i = rng.randint(1, num_vertices - 1)
        j = rng.randint(i + 1, num_vertices)
        edges.append((i, j) if rng.random() < 0.5 else (j, i))
    weights = tuple(rng.randint(1, max_weight) for _ in range(num_vertices))
    return WeightedOrientedGraph.build(num_vertices, edges, weights)
