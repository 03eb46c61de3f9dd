"""The three parts of the benchmark's workloads: inputs made from a seed,
the ops of one timed pass, and the checks run on their outputs after the
pass.  ``sweep`` is a workload of its own; ``cycles`` and ``polyhedra``
make up ``large`` (see run.py).

A part is built by ``build(name, seed, workdir, tracer)``, which returns
a list of :class:`Op`.  Building is set-up: it writes input files and
constructs input objects but calls nothing that fills a ``monideal`` cache.
Each op's ``run`` is timed; its ``check`` runs after the whole pass, outside
the timed region, and raises :class:`CheckFailed` on a wrong output.

Why each part exists is written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from monideal import cli
from monideal.graphs import (
    WeightedOrientedGraph,
    alexander_dual,
    classify,
    decomposition_via_covers,
    edge_ideal,
)
from monideal.polyhedra import (
    closure_member_by_power_scan,
    covering_polyhedron,
    enumerate_vertices,
    integral_closure_power,
    polyhedral_conditions_check,
)
from monideal.symbolic import compare_powers

PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())

# The sweep of scripts/verify_classification.py at its default seed.
REFERENCE_SWEEP_SEED = 20260823
SWEEP_COUNT = 200
SWEEP_MAX_VERTICES = 6
SWEEP_MAX_WEIGHT = 3
SWEEP_MAX_N = 3


class CheckFailed(Exception):
    """An op's output is not the one the workload expects."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------ graphs


def oriented_cycle(length: int, weights=None) -> WeightedOrientedGraph:
    edges = [(i, i % length + 1) for i in range(1, length + 1)]
    return WeightedOrientedGraph.build(length, edges, weights or {})


def reference_graph_data(seed: int, count: int):
    """(num_vertices, edges, weights) triples drawn exactly as
    ``monideal.random_instances.random_graph`` draws them inside the
    classification sweep, so the reference set does not move when the
    program's own generator changes."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        s = rng.randint(2, SWEEP_MAX_VERTICES)
        edges = []
        for i in range(1, s + 1):
            for j in range(i + 1, s + 1):
                if rng.random() < 0.45:
                    edges.append((i, j) if rng.random() < 0.5 else (j, i))
        if not edges:
            i = rng.randint(1, s - 1)
            j = rng.randint(i + 1, s)
            edges.append((i, j) if rng.random() < 0.5 else (j, i))
        weights = tuple(rng.randint(1, SWEEP_MAX_WEIGHT) for _ in range(s))
        out.append((s, edges, weights))
    return out


def relabel(s: int, edges, weights, perm):
    """The same graph with vertex v renamed perm[v - 1]."""
    new_edges = [(perm[i - 1], perm[j - 1]) for i, j in edges]
    new_weights = [0] * s
    for v, w in enumerate(weights, start=1):
        new_weights[perm[v - 1] - 1] = w
    return new_edges, tuple(new_weights)


def predicted_classes(s: int, edges, weights) -> tuple[bool, bool]:
    """The paper's prediction, computed here without the library.

    I^2 == I^(2) iff every heavy vertex is a sink and there is no
    triangle; I^n == I^(n) for all n iff every heavy vertex is a sink and
    the underlying graph is bipartite.  A source's weight never enters the
    edge ideal, so only edge targets can be heavy.
    """
    targets = {j for _, j in edges}
    sources_of_edges = {i for i, _ in edges}
    heavy = {v for v in targets if weights[v - 1] >= 2}
    heavy_are_sinks = not (heavy & sources_of_edges)
    adjacency = {v: set() for v in range(1, s + 1)}
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    triangle = any(adjacency[i] & adjacency[j] for i, j in edges)
    color = {}
    bipartite = True
    for root in adjacency:
        if root in color:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u in adjacency[v]:
                if u not in color:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    bipartite = False
    return heavy_are_sinks and not triangle, heavy_are_sinks and bipartite


# ------------------------------------------------------------------ sweep


def build_sweep(seed: int, workdir: Path, tracer) -> list[Op]:
    """The reference classification sweep, in an order set by ``seed``.

    The 200 graphs are those of the sweep at its reference seed, with
    their own vertex labels: renaming the vertices changes the cost of one
    graph by up to a factor of three, which made the pass time depend on
    the seed.  The seed shuffles the order of the graphs, which decides
    which of two equal ideals meets the caches first.
    """
    data = reference_graph_data(REFERENCE_SWEEP_SEED, SWEEP_COUNT)
    random.Random(seed).shuffle(data)
    ops = []
    for index, (s, edges, weights) in enumerate(data):
        graph = WeightedOrientedGraph.build(s, edges, weights)
        square, all_powers = predicted_classes(s, edges, weights)

        def run(graph=graph):
            ideal = edge_ideal(graph)
            cls = classify(graph)
            equal = [compare_powers(ideal, n).equal_min for n in range(1, SWEEP_MAX_N + 1)]
            return cls, equal

        def check(out, square=square, all_powers=all_powers):
            cls, equal = out
            expect(cls.square == square and cls.all_powers == all_powers,
                   f"classify says square={cls.square} all={cls.all_powers}, "
                   f"expected {square}/{all_powers}")
            expect(equal[1] == square, f"I^2 == I^(2) is {equal[1]}, predicted {square}")
            expect(all(equal) == all_powers,
                   f"powers equal to n={SWEEP_MAX_N}: {equal}, predicted {all_powers}")

        ops.append(Op(f"graph{index}", run, check))
    return ops


# ------------------------------------------------------------------ cycles


def _ideal_text(graph: WeightedOrientedGraph) -> str:
    """The edge ideal of an unweighted graph, in the CLI's ideal format."""
    return ", ".join(f"t{i}*t{j}" for i, j in graph.sorted_edges()) + "\n"


def _graph_text(graph: WeightedOrientedGraph) -> str:
    lines = [f"vertices {graph.num_vertices}"]
    lines.append("weights " + " ".join(str(w) for w in graph.weights))
    lines += [f"edge {i} {j}" for i, j in graph.sorted_edges()]
    return "\n".join(lines) + "\n"


def run_cli(argv, tracer):
    """One CLI invocation in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if tracer is not None:
        tracer.add("cli.main.output_bytes", len(text.encode("utf-8")))
    return code, text, err.getvalue()


def build_cycles(seed: int, workdir: Path, tracer) -> list[Op]:
    """A few very large ideals through the CLI, in text and --json.

    The inputs are fixed, so ``seed`` is not used: every stdout is pinned
    by its SHA-256.
    """
    c5, c7, c9 = oriented_cycle(5), oriented_cycle(7), oriented_cycle(9)
    files = {}
    for name, text in (
        ("c5.ideal", _ideal_text(c5)),
        ("c7.ideal", _ideal_text(c7)),
        ("c9.ideal", _ideal_text(c9)),
        ("c9.graph", _graph_text(c9)),
    ):
        path = workdir / name
        path.write_text(text)
        files[name] = str(path)

    commands = [(f"compare-c7-n{n}", ["compare", files["c7.ideal"], "--n", str(n)])
                for n in range(1, 5)]
    commands += [
        ("decompose-c9", ["decompose", files["c9.ideal"]]),
        ("ass-c9", ["ass", files["c9.ideal"]]),
        ("wog-covers-c9", ["wog-covers", files["c9.graph"]]),
        ("ntf-c5", ["ntf", files["c5.ideal"], "--max-n", "3"]),
    ]
    ones = (1,) * 7
    ops = []
    for base, argv in commands:
        for mode in ("text", "json"):
            name = f"{base}-{mode}"
            full = argv + (["--json"] if mode == "json" else [])

            def run(full=full):
                return run_cli(full, tracer)

            def check(out, name=name, base=base, mode=mode):
                code, text, err = out
                expect(code == 0 and not err, f"exit code {code}, stderr {err!r}")
                expect(sha256(text) == PINNED["cycles_stdout_sha256"][name],
                       "stdout differs from the pinned output")
                if base.startswith("compare"):
                    n = int(base[-1])
                    if mode == "json":
                        report = json.loads(text)
                        equal, witnesses = report["equal_min"], report["witnesses"]
                    else:
                        equal = "equal_min: true" in text.splitlines()
                        witnesses = [ones] if "  t1*t2*t3*t4*t5*t6*t7" in text else []
                    expect(equal == (n < 4), f"equal_min is {equal} at n={n}")
                    expect([tuple(w) for w in witnesses] == ([] if n < 4 else [ones]),
                           f"witnesses {witnesses} at n={n}")
                if base == "decompose-c9":
                    via_covers = decomposition_via_covers(c9)
                    if mode == "json":
                        alphas = tuple(tuple(c["alpha"]) for c in json.loads(text)["components"])
                        expect(alphas == via_covers.alphas(),
                               "decomposition differs from decomposition_via_covers")
                    else:
                        expect(text.splitlines() == [str(c) for c in via_covers.components],
                               "decomposition differs from decomposition_via_covers")

            ops.append(Op(name, run, check))
    return ops


# ------------------------------------------------------------------ polyhedra

# The six fixture graphs of monideal/fixtures.py, copied so that the inputs
# belong to the benchmark: (name, vertices, edges, weights).
FIXTURE_GRAPHS = (
    ("four_cycle_sinks", 4, [(1, 2), (3, 2), (3, 4), (1, 4)], {2: 2, 4: 2}),
    ("triangle_cycle", 3, [(1, 2), (2, 3), (3, 1)], {1: 2, 2: 2, 3: 2}),
    ("triangle_nonsink", 3, [(1, 2), (2, 3), (1, 3)], {2: 2}),
    ("triangle_sink", 3, [(2, 1), (3, 1), (2, 3)], {1: 2}),
    ("path_middle", 3, [(1, 2), (2, 3)], {2: 2}),
    ("seven_cycle", 7, [(i, i % 7 + 1) for i in range(1, 8)], {}),
)

# Base polyhedra for vertex enumeration: covering polyhedra of the edge
# ideals of two random weighted oriented graphs (6 vertices, 8 edges, 18
# vertices of Q; 7 vertices, 7 edges, 8 vertices of Q).
VERTEX_BASES = (
    ("q6", 6, [(1, 2), (1, 6), (2, 5), (3, 6), (4, 3), (5, 1), (6, 4), (6, 5)],
     (2, 1, 3, 1, 1, 2)),
    ("q7", 7, [(1, 5), (1, 6), (2, 5), (3, 6), (5, 6), (7, 1), (7, 5)],
     (3, 3, 3, 2, 1, 3, 1)),
)

CLOSURE_POWERS = (1, 2, 3, 4)


def _vectors_text(vectors) -> str:
    return ";".join(",".join(str(x) for x in v) for v in vectors)


def _rank(rows) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def check_is_vertex(point, columns, s: int):
    """Feasible, and s linearly independent constraints are tight there."""
    expect(all(x >= 0 for x in point), f"{point} has a negative entry")
    dots = [sum(Fraction(x) * Fraction(c) for x, c in zip(point, col)) for col in columns]
    expect(all(d >= 1 for d in dots), f"{point} violates a covering row")
    tight = [col for col, d in zip(columns, dots) if d == 1]
    tight += [tuple(int(k == i) for k in range(s)) for i in range(s) if point[i] == 0]
    expect(_rank(tight) == s, f"{point} is not a vertex")


def build_polyhedra(seed: int, workdir: Path, tracer) -> list[Op]:
    """Covering, Newton and irreducible polyhedra queried through the library.

    ``seed`` renames the coordinates of the two vertex-enumeration
    polyhedra; the fixtures and the weighted 6-cycle are fixed.
    """
    rng = random.Random(seed)
    pins = PINNED["polyhedra"]
    ops = []

    fixture_ideals = {}
    for name, s, edges, weights in FIXTURE_GRAPHS:
        graph = WeightedOrientedGraph.build(s, edges, weights)
        ideal = edge_ideal(graph)
        fixture_ideals[name] = ideal
        # The report's implication needs equality for every n, which the
        # paper's criterion decides; equality up to the bound is not enough.
        powers_equal = predicted_classes(s, edges, graph.weights)[1]

        def run(ideal=ideal, powers_equal=powers_equal):
            return polyhedral_conditions_check(ideal, 2, powers_equal=powers_equal)

        def check(report, expected=pins["conditions"][name]):
            expect(report.consistent is not False, "consistent is False")
            got = {k: getattr(report, k) for k in expected}
            expect(got == expected, f"report {got} differs from the pinned {expected}")

        ops.append(Op(f"conditions-{name}", run, check))

    four = fixture_ideals["four_cycle_sinks"]
    four_dual = alexander_dual(WeightedOrientedGraph.build(*FIXTURE_GRAPHS[0][1:])).ideal
    for name, ideal in (("q-four", four), ("q-four-dual", four_dual)):
        def run(ideal=ideal):
            return enumerate_vertices(covering_polyhedron(ideal))

        def check(vertices, name=name):
            expect(_vectors_text(vertices) == pins["fixture_vertices"][name],
                   f"vertices {vertices} differ from the fixture")

        ops.append(Op(name, run, check))

    def run_four_closure():
        return integral_closure_power(four, 1)

    def check_four_closure(closure):
        expect(_vectors_text(closure.gens) == pins["fixture_vertices"]["closure-four"],
               "closure generators differ from the fixture")

    ops.append(Op("closure-four", run_four_closure, check_four_closure))

    hexagon = edge_ideal(oriented_cycle(6, {2: 2, 4: 2, 6: 2}))
    for n in CLOSURE_POWERS:
        def run(n=n):
            return integral_closure_power(hexagon, n)

        def check(closure, n=n):
            expect(sha256(_vectors_text(closure.gens)) == pins["closure_sha256"][str(n)],
                   f"closure of I^{n} differs from the pinned generators")
            for g in closure.gens:
                expect(closure_member_by_power_scan(hexagon, g, n) is not None,
                       f"{g} is not in the closure of I^{n} by the power scan")

        ops.append(Op(f"closure-c6-n{n}", run, check))

    for name, s, edges, weights in VERTEX_BASES:
        perm = rng.sample(range(1, s + 1), s)
        new_edges, new_weights = relabel(s, edges, weights, perm)
        ideal = edge_ideal(WeightedOrientedGraph.build(s, new_edges, new_weights))

        def run(ideal=ideal):
            return enumerate_vertices(covering_polyhedron(ideal))

        def check(vertices, ideal=ideal, perm=perm, name=name, s=s):
            for v in vertices:
                check_is_vertex(v, ideal.gens, s)
            base = sorted(tuple(v[p - 1] for p in perm) for v in vertices)
            expect(sha256(_vectors_text(base)) == pins["vertices_sha256"][name],
                   f"vertex set of {name} differs from the pinned one")

        ops.append(Op(f"vertices-{name}", run, check))
    return ops


WORKLOADS = {
    "sweep": build_sweep,
    "cycles": build_cycles,
    "polyhedra": build_polyhedra,
}


def build(name: str, seed: int, workdir: Path, tracer=None) -> list[Op]:
    return WORKLOADS[name](seed, workdir, tracer)
