"""Weighted oriented graphs and their edge ideals.

A weighted oriented graph D has vertex set {1..s}, a set of directed edges
(i, j) whose underlying undirected graph is simple, and a positive integer
weight per vertex.  Its edge ideal is

    I(D) = ( t_i * t_j^{w_j}  :  (i, j) an edge of D ),

which only ever sees the weight of edge *targets*.  A graph therefore
stores weight 1 on every other vertex (every source, isolated vertices
included) from construction on, and the predicates below read the stored
weights as they are.

The combinatorial side of the irreducible decomposition of I(D) is the
notion of a strong vertex cover; see :func:`is_strong_cover`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import (
    IrreducibleDecomposition,
    IrreducibleIdeal,
    MonomialPrime,
    associated_primes,
    embedded_primes,
    irredundant_subset,
)
from .errors import (
    ConsistencyError,
    DomainError,
    FormatError,
    ResourceLimitExceeded,
)
from .ideals import Exponent, MonomialIdeal

DEFAULT_COVER_VERTEX_LIMIT = 22


@dataclass(frozen=True)
class WeightedOrientedGraph:
    """Directed edges over vertices 1..num_vertices with vertex weights.

    A vertex that is no edge's target is stored with weight 1, whatever
    weight was passed: I(D) never reads it, so two graphs that differ only
    there are equal.
    """

    num_vertices: int
    edges: frozenset[tuple[int, int]]
    weights: tuple[int, ...]

    def __post_init__(self):
        s = self.num_vertices
        if s < 1:
            raise ValueError(f"need at least one vertex, got {s}")
        if len(self.weights) != s:
            raise ValueError(
                f"got {len(self.weights)} weights for {s} vertices"
            )
        for w in self.weights:
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"weights must be positive integers, got {w!r}")
        for i, j in self.edges:
            if not (1 <= i <= s and 1 <= j <= s):
                raise ValueError(f"edge ({i}, {j}) out of range 1..{s}")
            if i == j:
                raise ValueError(f"self loop at vertex {i}")
            if (j, i) in self.edges:
                raise ValueError(
                    f"edges ({i}, {j}) and ({j}, {i}) orient the same underlying edge twice"
                )
        targets = {j for _, j in self.edges}
        object.__setattr__(self, "weights", tuple(
            w if v in targets else 1 for v, w in enumerate(self.weights, start=1)
        ))

    @staticmethod
    def build(num_vertices, edges, weights=None) -> "WeightedOrientedGraph":
        """Construct from an edge list and either a full weight sequence or
        a {vertex: weight} mapping (unmentioned vertices get weight 1)."""
        if weights is None:
            weights = (1,) * num_vertices
        elif isinstance(weights, dict):
            weights = tuple(weights.get(v, 1) for v in range(1, num_vertices + 1))
        else:
            weights = tuple(weights)
        return WeightedOrientedGraph(
            num_vertices, frozenset((int(i), int(j)) for i, j in edges), weights
        )

    def weight(self, v: int) -> int:
        return self.weights[v - 1]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def out_neighbors(self, v: int) -> set[int]:
        return {j for i, j in self.edges if i == v}

    def in_neighbors(self, v: int) -> set[int]:
        return {i for i, j in self.edges if j == v}

    def underlying_neighbors(self, v: int) -> set[int]:
        return self.out_neighbors(v) | self.in_neighbors(v)


@dataclass(frozen=True)
class VertexRoles:
    sources: frozenset[int]
    sinks: frozenset[int]
    heavy: frozenset[int]  # vertices of weight >= 2, all of them edge targets
    all_heavy_are_sinks: bool


def vertex_roles(graph: WeightedOrientedGraph) -> VertexRoles:
    """Sources, sinks and heavy (weight >= 2) vertices.

    A vertex with no edges at all is both a source and a sink.  Sources
    carry weight 1, so every heavy vertex is an edge target.
    """
    sources = frozenset(
        v for v in range(1, graph.num_vertices + 1) if not graph.in_neighbors(v)
    )
    sinks = frozenset(
        v for v in range(1, graph.num_vertices + 1) if not graph.out_neighbors(v)
    )
    heavy = frozenset(
        v for v in range(1, graph.num_vertices + 1) if graph.weight(v) >= 2
    )
    return VertexRoles(sources, sinks, heavy, heavy <= sinks)


@dataclass(frozen=True)
class UnderlyingProps:
    is_bipartite: bool
    has_triangle: bool
    odd_girth: int | None  # None when bipartite


def underlying_props(graph: WeightedOrientedGraph) -> UnderlyingProps:
    """Bipartiteness, triangles and odd girth of the underlying simple graph.

    All three come from the odd girth: a breadth-first search per root,
    where an edge between two vertices at distance d closes an odd walk of
    length 2d + 1.  No odd cycle means bipartite; odd girth 3, a triangle.
    """
    adjacency = {
        v: graph.underlying_neighbors(v) for v in range(1, graph.num_vertices + 1)
    }
    odd_girth = None
    for root in adjacency:
        dist = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adjacency[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        for i, j in graph.edges:
            if i in dist and j in dist and dist[i] == dist[j]:
                length = 2 * dist[i] + 1
                if odd_girth is None or length < odd_girth:
                    odd_girth = length
    return UnderlyingProps(odd_girth is None, odd_girth == 3, odd_girth)


def edge_ideal(graph: WeightedOrientedGraph) -> MonomialIdeal:
    """I(D) = (t_i * t_j^{w_j} per edge (i, j)); zero ideal if edgeless."""
    s = graph.num_vertices
    gens = []
    for i, j in graph.sorted_edges():
        v = [0] * s
        v[i - 1] = 1
        v[j - 1] = graph.weight(j)
        gens.append(tuple(v))
    return MonomialIdeal.from_gens(gens, s)


@dataclass(frozen=True)
class AlexanderDual:
    """The dual edge ideal: one irreducible component (t_i, t_j^{w_j}) per edge."""

    decomposition: IrreducibleDecomposition
    ideal: MonomialIdeal


def alexander_dual(graph: WeightedOrientedGraph) -> AlexanderDual:
    if not graph.edges:
        raise DomainError("the dual edge ideal needs at least one edge")
    s = graph.num_vertices
    components = []
    for i, j in graph.sorted_edges():
        alpha = [0] * s
        alpha[i - 1] = 1
        alpha[j - 1] = graph.weight(j)
        components.append(IrreducibleIdeal(s, tuple(alpha)))
    dec = IrreducibleDecomposition(
        s, tuple(sorted(components, key=lambda c: (sum(c.alpha), c.alpha)))
    )
    return AlexanderDual(dec, dec.intersection())


# ------------------------------------------------------------ vertex covers


@dataclass(frozen=True)
class CoverPartition:
    """The L1/L2/L3 partition of a vertex cover C.

    L1: members with a directed edge leaving the cover.
    L3: members whose whole underlying neighborhood lies inside the cover.
    L2: the rest.
    """

    cover: frozenset[int]
    l1: frozenset[int]
    l2: frozenset[int]
    l3: frozenset[int]


def cover_partition(graph: WeightedOrientedGraph, cover) -> CoverPartition:
    cover = frozenset(cover)
    if not cover <= set(range(1, graph.num_vertices + 1)):
        raise DomainError(f"cover {sorted(cover)} uses vertices outside the graph")
    for i, j in graph.sorted_edges():
        if i not in cover and j not in cover:
            raise DomainError(f"cover {sorted(cover)} misses edge ({i}, {j})")
    l1 = frozenset(
        x for x in cover if any(y not in cover for y in graph.out_neighbors(x))
    )
    l3 = frozenset(
        x for x in cover if graph.underlying_neighbors(x) <= cover
    )
    l2 = cover - l1 - l3
    return CoverPartition(cover, l1, l2, l3)


def _is_strong(graph: WeightedOrientedGraph, part: CoverPartition) -> bool:
    others = part.l2 | part.l3
    return all(
        any(y in others and graph.weight(y) >= 2 for y in graph.in_neighbors(x))
        for x in part.l3
    )


def is_strong_cover(graph: WeightedOrientedGraph, cover) -> bool:
    """Every x in L3 needs a directed in-edge (y, x) with y in L2 u L3 and
    weight(y) >= 2.  A cover is minimal iff L3 is empty (x can leave C iff
    all its neighbors lie in C), so minimal covers are strong."""
    return _is_strong(graph, cover_partition(graph, cover))


def strong_covers(
    graph: WeightedOrientedGraph,
    max_vertices: int = DEFAULT_COVER_VERTEX_LIMIT,
) -> tuple[frozenset[int], ...]:
    """All nonempty strong vertex covers, sorted by size then contents.

    Enumerates covers by a depth-first include/exclude sweep that abandons
    a branch as soon as two endpoints of an edge are both excluded.  The
    subset scan is exponential, hence the vertex limit.
    """
    s = graph.num_vertices
    if s > max_vertices:
        raise ResourceLimitExceeded(
            f"cover enumeration over {s} vertices exceeds the limit {max_vertices}; "
            "pass a larger max_vertices (CLI: --max-covers) to proceed"
        )
    earlier = {
        v: [u for u in graph.underlying_neighbors(v) if u < v]
        for v in range(1, s + 1)
    }
    covers: list[frozenset[int]] = []

    def sweep(v: int, chosen: list[int], excluded: set[int]):
        if v > s:
            if chosen:
                covers.append(frozenset(chosen))
            return
        chosen.append(v)
        sweep(v + 1, chosen, excluded)
        chosen.pop()
        if all(u not in excluded for u in earlier[v]):
            excluded.add(v)
            sweep(v + 1, chosen, excluded)
            excluded.remove(v)

    sweep(1, [], set())
    strong = [c for c in covers if is_strong_cover(graph, c)]
    return tuple(sorted(strong, key=lambda c: (len(c), tuple(sorted(c)))))


def cover_ideal(graph: WeightedOrientedGraph, cover) -> IrreducibleIdeal:
    """I_C for a strong cover C: exponent 1 on L1, the weight on L2 u L3."""
    part = cover_partition(graph, cover)
    if not _is_strong(graph, part):
        raise DomainError(f"{sorted(part.cover)} is not a strong vertex cover")
    return _partition_ideal(graph, part)


def _partition_ideal(
    graph: WeightedOrientedGraph, part: CoverPartition
) -> IrreducibleIdeal:
    """I_C read off the partition of a cover the caller knows is strong."""
    alpha = [0] * graph.num_vertices
    for x in part.l1:
        alpha[x - 1] = 1
    for x in part.l2 | part.l3:
        alpha[x - 1] = graph.weight(x)
    return IrreducibleIdeal(graph.num_vertices, tuple(alpha))


def decomposition_via_covers(
    graph: WeightedOrientedGraph,
    max_vertices: int = DEFAULT_COVER_VERTEX_LIMIT,
) -> IrreducibleDecomposition:
    """Irreducible decomposition of I(D) assembled from strong covers.

    The cover ideals of all strong covers must intersect to I(D), which
    :func:`irredundant_subset` checks on the components it keeps; the result
    has to match :func:`irreducible_decomposition`, which the test-suite
    checks graph by graph.
    """
    if not graph.edges:
        raise DomainError("the edgeless graph has the zero edge ideal; no decomposition")
    ideal = edge_ideal(graph)
    components = [
        cover_ideal(graph, c) for c in strong_covers(graph, max_vertices)
    ]
    kept = irredundant_subset(components, ideal)
    return IrreducibleDecomposition(graph.num_vertices, kept)


# ------------------------------------------------------- graph-level checks


def irrelevant_in_ass(graph: WeightedOrientedGraph) -> bool:
    """Is the full prime (t_1..t_s) an associated prime of I(D)?

    Three equivalent criteria are evaluated: membership in Ass, V(D) being
    a strong cover, and every vertex having a heavy in-neighbor (the whole
    vertex set equals the out-neighborhood of the heavy vertices).  They
    must agree; disagreement raises.
    """
    s = graph.num_vertices
    everything = frozenset(range(1, s + 1))
    if not graph.edges:
        return False
    by_cover = is_strong_cover(graph, everything)
    heavy = {v for v in everything if graph.weight(v) >= 2}
    out_of_heavy = {j for i, j in graph.edges if i in heavy}
    by_neighborhood = out_of_heavy == everything
    by_ass = MonomialPrime(s, everything) in associated_primes(edge_ideal(graph))
    if not by_cover == by_neighborhood == by_ass:
        raise ConsistencyError(
            f"criteria for the full prime disagree: cover={by_cover}, "
            f"neighborhood={by_neighborhood}, ass={by_ass}"
        )
    return by_ass


@dataclass(frozen=True)
class ClassifyReport:
    """Combinatorial classification of the powers of I(D).

    `square` predicts I^2 == I^(2) (heavy vertices all sinks, no
    triangle); `all_powers` predicts I^n == I^(n) for every n (heavy
    vertices all sinks, bipartite).  `ntf` reports whether Ass(I^n) stays
    put for all n, which equals `all_powers` when I(D) has no embedded
    primes and is left None otherwise.  The edgeless graph has the zero
    ideal, so its `has_embedded_primes` is None.  The CLI prints the
    fields in this order.
    """

    square: bool
    all_powers: bool
    ntf: bool | None
    all_heavy_are_sinks: bool
    heavy_non_sinks: tuple[int, ...]
    has_triangle: bool
    is_bipartite: bool
    odd_girth: int | None
    has_embedded_primes: bool | None


def classify(graph: WeightedOrientedGraph) -> ClassifyReport:
    roles = vertex_roles(graph)
    props = underlying_props(graph)
    heavy_non_sinks = tuple(sorted(roles.heavy - roles.sinks))
    square = roles.all_heavy_are_sinks and not props.has_triangle
    all_powers = roles.all_heavy_are_sinks and props.is_bipartite
    embedded = bool(embedded_primes(edge_ideal(graph))) if graph.edges else None
    return ClassifyReport(
        square=square,
        all_powers=all_powers,
        ntf=None if embedded else all_powers,
        all_heavy_are_sinks=roles.all_heavy_are_sinks,
        heavy_non_sinks=heavy_non_sinks,
        has_triangle=props.has_triangle,
        is_bipartite=props.is_bipartite,
        odd_girth=props.odd_girth,
        has_embedded_primes=embedded,
    )


def non_sink_witness(graph: WeightedOrientedGraph) -> Exponent | None:
    """A monomial in every squared component of I(D) but outside I(D)^2.

    Exists whenever some heavy vertex v is neither a source nor a sink:
    pick edges (u, v) and (v, x) and return the exponent vector of
    t_u * t_v^{w_v} * t_x^{w_x}, choosing the least v, then least u and x.
    """
    for v in range(1, graph.num_vertices + 1):
        if graph.weight(v) < 2:
            continue
        preds = graph.in_neighbors(v)
        succs = graph.out_neighbors(v)
        if not preds or not succs:
            continue
        u, x = min(preds), min(succs)
        f = [0] * graph.num_vertices
        f[u - 1] += 1
        f[v - 1] += graph.weight(v)
        f[x - 1] += graph.weight(x)
        return tuple(f)
    return None


# ------------------------------------------------------------- text format


def parse_graph(text: str) -> WeightedOrientedGraph:
    """Parse the line-oriented graph format.

        vertices 4
        weights 1 2 1 2
        edge 1 2
        edge 3 2

    `weights` is optional (default all 1) but must precede any `edge`
    line it should apply to; `#` starts a comment.  Errors carry the
    offending line number.
    """
    num_vertices = None
    weights = None
    edges: list[tuple[int, int]] = []

    def fail(lineno: int, message: str):
        raise FormatError(f"line {lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword, args = fields[0], fields[1:]
        if keyword == "vertices":
            if num_vertices is not None:
                fail(lineno, "duplicate 'vertices' line")
            if len(args) != 1 or not args[0].isdigit():
                fail(lineno, "expected: vertices <count>")
            num_vertices = int(args[0])
            if num_vertices < 1:
                fail(lineno, "vertex count must be >= 1")
        elif keyword == "weights":
            if num_vertices is None:
                fail(lineno, "'weights' before 'vertices'")
            if weights is not None:
                fail(lineno, "duplicate 'weights' line")
            if edges:
                fail(lineno, "'weights' must come before the edges")
            if len(args) != num_vertices:
                fail(lineno, f"expected {num_vertices} weights, got {len(args)}")
            try:
                weights = tuple(int(a) for a in args)
            except ValueError:
                fail(lineno, "weights must be integers")
            if any(w < 1 for w in weights):
                fail(lineno, "weights must be >= 1")
        elif keyword == "edge":
            if num_vertices is None:
                fail(lineno, "'edge' before 'vertices'")
            try:
                i, j = (int(a) for a in args)
            except ValueError:
                fail(lineno, "expected: edge <from> <to>")
            for v in (i, j):
                if not 1 <= v <= num_vertices:
                    fail(lineno, f"vertex index {v} out of range (vertices={num_vertices})")
            if i == j:
                fail(lineno, f"self loop at vertex {i}")
            if (i, j) in edges:
                fail(lineno, f"duplicate edge ({i}, {j})")
            if (j, i) in edges:
                fail(lineno, f"edge ({i}, {j}) reorients the earlier edge ({j}, {i})")
            edges.append((i, j))
        else:
            fail(lineno, f"unknown directive {keyword!r}")
    if num_vertices is None:
        raise FormatError("missing 'vertices' line")
    if weights is None:
        weights = (1,) * num_vertices
    return WeightedOrientedGraph(num_vertices, frozenset(edges), weights)


def format_graph(graph: WeightedOrientedGraph) -> str:
    lines = [f"vertices {graph.num_vertices}"]
    lines.append("weights " + " ".join(str(w) for w in graph.weights))
    lines.extend(f"edge {i} {j}" for i, j in graph.sorted_edges())
    return "\n".join(lines) + "\n"
