"""Seeded random weighted oriented graphs.

The property tests, the sweep scripts and the benchmark draw from the same
generator, so that a failure seen in one place can be replayed in the
other with the seed alone.
"""

from __future__ import annotations

from random import Random

from .graphs import WeightedOrientedGraph


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
