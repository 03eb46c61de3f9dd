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
from .ideals import PARSE_VARIABLE_LIMIT, Exponent, MonomialIdeal, _directives, _fail, _read_int

DEFAULT_COVER_VERTEX_LIMIT = 22
_NONE: frozenset[int] = frozenset()


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
        if not isinstance(s, int) or s < 1:
            raise ValueError(f"need an int count of at least one vertex, got {s!r}")
        if len(self.weights) != s:
            raise ValueError(
                f"got {len(self.weights)} weights for {s} vertices"
            )
        for w in self.weights:
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"weights must be positive integers, got {w!r}")
        edges = tuple(self.edges)
        for e in edges:
            if not isinstance(e, (tuple, list)) or len(e) != 2:
                raise ValueError(f"edge {e!r} is not a pair of vertices")
        object.__setattr__(self, "edges", frozenset(map(tuple, edges)))
        out: dict[int, set[int]] = {}
        into: dict[int, set[int]] = {}
        for i, j in self.edges:
            if not (isinstance(i, int) and isinstance(j, int)):
                raise ValueError(f"edge ({i!r}, {j!r}) needs integer endpoints")
            if not (1 <= i <= s and 1 <= j <= s):
                raise ValueError(f"edge ({i}, {j}) out of range 1..{s}")
            if i == j:
                raise ValueError(f"self loop at vertex {i}")
            if (j, i) in self.edges:
                raise ValueError(
                    f"edges ({i}, {j}) and ({j}, {i}) orient the same underlying edge twice"
                )
            out.setdefault(i, set()).add(j)
            into.setdefault(j, set()).add(i)
        object.__setattr__(self, "weights", tuple(
            w if v in into else 1 for v, w in enumerate(self.weights, start=1)
        ))
        # Not dataclass fields, so equality, hashing, repr and asdict see only
        # the fields above.  A vertex on no edge has no entry.
        near = {v: out.get(v, set()) | into.get(v, set()) for v in out.keys() | into.keys()}
        for name, sets in (("_out", out), ("_in", into), ("_underlying", near)):
            object.__setattr__(self, name, {v: frozenset(n) for v, n in sets.items()})

    @staticmethod
    def build(num_vertices, edges, weights=None) -> "WeightedOrientedGraph":
        """Construct from an edge list and either a full weight sequence or
        a {vertex: weight} mapping (unmentioned vertices get weight 1)."""
        if weights is None:
            weights = (1,) * num_vertices
        elif isinstance(weights, dict):
            stray = sorted(map(repr, weights.keys() - range(1, num_vertices + 1)))
            if stray:
                raise ValueError(f"weight of vertex {stray[0]} out of range 1..{num_vertices}")
            weights = tuple(weights.get(v, 1) for v in range(1, num_vertices + 1))
        else:
            weights = tuple(weights)
        return WeightedOrientedGraph(num_vertices, edges, weights)

    def weight(self, v: int) -> int:
        return self.weights[v - 1]

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def out_neighbors(self, v: int) -> frozenset[int]:
        return self._out.get(v, _NONE)

    def in_neighbors(self, v: int) -> frozenset[int]:
        return self._in.get(v, _NONE)

    def underlying_neighbors(self, v: int) -> frozenset[int]:
        return self._underlying.get(v, _NONE)


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
    # Two edges never share a support, so no generator of I(D) divides
    # another: each is a component, and they come graded-lex sorted.
    s = graph.num_vertices
    dec = IrreducibleDecomposition(
        s, tuple(IrreducibleIdeal(s, g) for g in edge_ideal(graph).gens)
    )
    return AlexanderDual(dec, dec.intersection())


# ------------------------------------------------------------ vertex covers


@dataclass(frozen=True)
class CoverPartition:
    """The L1/L2/L3 partition of a vertex cover C, with the exponent vector
    of its cover ideal I_C.

    L1: members with a directed edge leaving the cover.
    L3: members whose whole underlying neighborhood lies inside the cover.
    L2: the rest.
    alpha: 1 on L1, the weight on L2 u L3, 0 off the cover.
    """

    cover: frozenset[int]
    l1: frozenset[int]
    l2: frozenset[int]
    l3: frozenset[int]
    alpha: Exponent


def cover_partition(graph: WeightedOrientedGraph, cover) -> CoverPartition:
    cover = frozenset(cover)
    if not cover <= set(range(1, graph.num_vertices + 1)):
        raise DomainError(f"cover {sorted(cover)} uses vertices outside the graph")
    for i, j in graph.sorted_edges():
        if i not in cover and j not in cover:
            raise DomainError(f"cover {sorted(cover)} misses edge ({i}, {j})")
    return _partition(graph, cover)


def _partition(graph: WeightedOrientedGraph, cover: frozenset[int]) -> CoverPartition:
    """The partition of a set the caller knows is a vertex cover."""
    l1 = frozenset(
        x for x in cover if any(y not in cover for y in graph.out_neighbors(x))
    )
    l3 = frozenset(
        x for x in cover if graph.underlying_neighbors(x) <= cover
    )
    alpha = tuple(
        (1 if v in l1 else w) if v in cover else 0
        for v, w in enumerate(graph.weights, start=1)
    )
    return CoverPartition(cover, l1, cover - l1 - l3, l3, alpha)


def is_strong_cover(graph: WeightedOrientedGraph, cover) -> bool:
    """Every x in L3 needs a directed in-edge (y, x) with y in L2 u L3 and
    weight(y) >= 2.  A cover is minimal iff L3 is empty (x can leave C iff
    all its neighbors lie in C), so minimal covers are strong."""
    part = cover_partition(graph, cover)
    others = part.l2 | part.l3
    return all(
        any(y in others and graph.weight(y) >= 2 for y in graph.in_neighbors(x))
        for x in part.l3
    )


def strong_covers(
    graph: WeightedOrientedGraph, max_vertices: int = DEFAULT_COVER_VERTEX_LIMIT
) -> tuple[CoverPartition, ...]:
    """The partitions of all nonempty strong vertex covers, sorted by size
    then contents; each carries its cover ideal's exponent vector.

    After vertex v the list holds the vertex covers of the edges among 1..v:
    each cover takes v, and also leaves it out if it holds v's earlier
    neighbours.  A vertex on no edge is skipped: in a cover it would lie in
    L3 with no in-neighbour.  A cover holding x's closed neighbourhood N[x]
    has x in L3, and a heavy in-neighbour y of x (in the cover, being in
    N[x]) lies in L2 u L3 iff all its out-neighbours do.  Decisions are
    final, so a cover is dropped at the first step where it holds N[x] and
    each such y has an out-neighbour left out: at max N[x], or at a later
    out-neighbour of such a y.  The covers left are exactly the strong
    ones, each partitioned once without checking its edges.  The number of
    covers is still exponential, so a graph with more than `max_vertices`
    vertices is refused (CLI: ``wog-covers --max-covers``)."""
    s = graph.num_vertices
    if s > max_vertices:
        raise ResourceLimitExceeded(
            f"cover enumeration over {s} vertices exceeds the limit {max_vertices}; "
            "pass a larger max_vertices (CLI: --max-covers) to proceed"
        )
    # checks[v]: per x checked at v, N[x] and, per heavy in-neighbour y of
    # x, the out-neighbours of y among 1..v.
    checks: dict[int, list] = {}
    for x in range(1, s + 1):
        near = graph.underlying_neighbors(x)
        if not near:
            continue
        closed = near | {x}
        heavy = [graph.out_neighbors(y) for y in graph.in_neighbors(x) if graph.weight(y) >= 2]
        first = max(closed)
        for v in {first, *(u for outs in heavy for u in outs if u > first)}:
            decided = [frozenset(u for u in outs if u <= v) for outs in heavy]
            checks.setdefault(v, []).append((closed, decided))
    covers = [_NONE]
    for v in range(1, s + 1):
        neighbors = graph.underlying_neighbors(v)
        if not neighbors:
            continue
        earlier, added = {u for u in neighbors if u < v}, {v}
        covers = [c | added for c in covers] + [c for c in covers if earlier <= c]
        for closed, decided in checks.get(v, ()):
            covers = [c for c in covers if not closed <= c or any(d <= c for d in decided)]
    strong = [_partition(graph, c) for c in covers if c]
    strong.sort(key=lambda p: (len(p.cover), tuple(sorted(p.cover))))
    return tuple(strong)


def decomposition_via_covers(
    graph: WeightedOrientedGraph,
    max_vertices: int = DEFAULT_COVER_VERTEX_LIMIT,
) -> IrreducibleDecomposition:
    """Irreducible decomposition of I(D) assembled from strong covers.

    The strong covers index the irredundant decomposition (Pitones-Reyes-
    Toledo 2019), so the cover ideals I_C of :func:`strong_covers`, swept
    under `max_vertices`, are taken as they are:
    :func:`irredundant_subset` sorts them and checks that they intersect to
    I(D), and drops none.  A missing cover fails that check; a cover that
    is not strong adds a redundant component, so the result then differs
    from :func:`irreducible_decomposition`, which the tests and
    ``scripts/verify_classification.py`` compare graph by graph.
    """
    if not graph.edges:
        raise DomainError("the edgeless graph has the zero edge ideal; no decomposition")
    s = graph.num_vertices
    components = [IrreducibleIdeal(s, p.alpha) for p in strong_covers(graph, max_vertices)]
    return IrreducibleDecomposition(s, irredundant_subset(components, edge_ideal(graph)))


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
    by_neighborhood = all(
        any(graph.weight(u) >= 2 for u in graph.in_neighbors(v)) for v in everything
    )
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
    # A vertex of weight >= 2 is a sink iff no edge leaves it.  The odd
    # girth decides the rest: None means bipartite, 3 a triangle.
    heavy_non_sinks = tuple(
        v for v, w in enumerate(graph.weights, start=1) if w >= 2 and graph.out_neighbors(v)
    )
    odd_girth = _odd_girth(graph)
    all_heavy_are_sinks = not heavy_non_sinks
    all_powers = all_heavy_are_sinks and odd_girth is None
    embedded = bool(embedded_primes(edge_ideal(graph))) if graph.edges else None
    return ClassifyReport(
        square=all_heavy_are_sinks and odd_girth != 3,
        all_powers=all_powers,
        ntf=None if embedded else all_powers,
        all_heavy_are_sinks=all_heavy_are_sinks,
        heavy_non_sinks=heavy_non_sinks,
        has_triangle=odd_girth == 3,
        is_bipartite=odd_girth is None,
        odd_girth=odd_girth,
        has_embedded_primes=embedded,
    )


def _odd_girth(graph: WeightedOrientedGraph) -> int | None:
    """Odd girth of the underlying simple graph, None when it is bipartite.

    A breadth-first search per root, where an edge between two vertices at
    distance d closes an odd walk of length 2d + 1.  A vertex on no edge
    closes no walk, so the roots are the vertices the edges reach.
    """
    odd_girth = None
    for root in range(1, graph.num_vertices + 1):
        if not graph.underlying_neighbors(root):
            continue
        dist = {root: 0}
        queue = [root]  # grows while it is read, in order of distance
        for v in queue:
            for u in graph.underlying_neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        for i, j in graph.edges:
            if i in dist and j in dist and dist[i] == dist[j]:
                length = 2 * dist[i] + 1
                if odd_girth is None or length < odd_girth:
                    odd_girth = length
    return odd_girth


def non_sink_witness(graph: WeightedOrientedGraph) -> Exponent | None:
    """A monomial in every squared component of I(D) but outside I(D)^2.

    Exists whenever some heavy vertex v is neither a source nor a sink:
    pick edges (u, v) and (v, x) and return the exponent vector of
    t_u * t_v^{w_v} * t_x^{w_x}, choosing the least v, then least u and x.
    """
    for v in range(1, graph.num_vertices + 1):
        succs = graph.out_neighbors(v)
        if graph.weight(v) < 2 or not succs:
            continue
        # Weights are canonical, so a heavy vertex is an edge's target.
        u, x = min(graph.in_neighbors(v)), min(succs)
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
    edges: set[tuple[int, int]] = set()
    for lineno, fields in _directives(text):
        keyword, args = fields[0], fields[1:]
        if keyword == "vertices":
            if num_vertices is not None:
                _fail(lineno, "duplicate 'vertices' line")
            if len(args) != 1 or not args[0].isdigit():
                _fail(lineno, "expected: vertices <count>")
            num_vertices = _read_int(args[0], lineno)
            if num_vertices < 1:
                _fail(lineno, "vertex count must be >= 1")
            if num_vertices > PARSE_VARIABLE_LIMIT:  # a variable of I(D) per vertex
                raise ResourceLimitExceeded(
                    f"line {lineno}: {num_vertices} vertices exceed the parser's limit "
                    f"{PARSE_VARIABLE_LIMIT}"
                )
        elif keyword == "weights":
            if num_vertices is None:
                _fail(lineno, "'weights' before 'vertices'")
            if weights is not None:
                _fail(lineno, "duplicate 'weights' line")
            if edges:
                _fail(lineno, "'weights' must come before the edges")
            if len(args) != num_vertices:
                _fail(lineno, f"expected {num_vertices} weights, got {len(args)}")
            try:
                weights = tuple(int(a) for a in args)
            except ValueError:
                _fail(lineno, "weights must be integers")
            if any(w < 1 for w in weights):
                _fail(lineno, "weights must be >= 1")
        elif keyword == "edge":
            if num_vertices is None:
                _fail(lineno, "'edge' before 'vertices'")
            try:
                i, j = (int(a) for a in args)
            except ValueError:
                _fail(lineno, "expected: edge <from> <to>")
            for v in (i, j):
                if not 1 <= v <= num_vertices:
                    _fail(lineno, f"vertex index {v} out of range (vertices={num_vertices})")
            if i == j:
                _fail(lineno, f"self loop at vertex {i}")
            if (i, j) in edges:
                _fail(lineno, f"duplicate edge ({i}, {j})")
            if (j, i) in edges:
                _fail(lineno, f"edge ({i}, {j}) reorients the earlier edge ({j}, {i})")
            edges.add((i, j))
        else:
            _fail(lineno, f"unknown directive {keyword!r}")
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
