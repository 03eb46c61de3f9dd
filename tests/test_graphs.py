"""Weighted oriented graphs: covers, edge ideals, duality, classification."""

import re
from dataclasses import asdict
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monideal.errors import ConsistencyError, DomainError, FormatError, ResourceLimitExceeded
from monideal.fixtures import (
    FOUR_CYCLE_DUAL_COMPONENT_ALPHAS,
    FOUR_CYCLE_DUAL_GENS,
    FOUR_CYCLE_IDEAL_GENS,
    FOUR_CYCLE_SINKS,
    FOUR_CYCLE_STRONG_COVERS,
    PATH_MIDDLE,
    SEVEN_CYCLE,
    SEVEN_CYCLE_COVER_COUNT,
    TRIANGLE_CYCLE,
    TRIANGLE_CYCLE_STRONG_COVERS,
    TRIANGLE_NONSINK,
    TRIANGLE_SINK,
    fixture,
)
from monideal.graphs import (
    WeightedOrientedGraph,
    alexander_dual,
    classify,
    cover_partition,
    decomposition_via_covers,
    edge_ideal,
    format_graph,
    irrelevant_in_ass,
    is_strong_cover,
    non_sink_witness,
    parse_graph,
    strong_covers,
)
from monideal.decomposition import irreducible_decomposition
from monideal.ideals import PARSE_VARIABLE_LIMIT

from conftest import graphs
from oracles import is_minimal_cover, is_vertex_cover


def test_build_rejects_bad_graphs():
    with pytest.raises(ValueError, match="self loop"):
        WeightedOrientedGraph.build(2, [(1, 1)])
    with pytest.raises(ValueError, match="orient the same underlying edge twice"):
        WeightedOrientedGraph.build(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match="out of range"):
        WeightedOrientedGraph.build(2, [(1, 3)])
    with pytest.raises(ValueError, match="positive integers"):
        WeightedOrientedGraph.build(1, [], weights=(0,))


def test_build_accepts_weight_mapping():
    g = WeightedOrientedGraph.build(3, [(1, 2)], weights={2: 4})
    assert g.weights == (1, 4, 1)


def test_build_refuses_a_weight_mapping_past_the_vertices():
    """A weight for a vertex the graph does not have is refused, not dropped."""
    with pytest.raises(ValueError, match="vertex 5 out of range 1..3"):
        WeightedOrientedGraph.build(3, [(1, 2)], {5: 2, 2: 3})


def test_constructor_refuses_non_integer_endpoints():
    """A float endpoint would index no exponent vector in edge_ideal."""
    with pytest.raises(ValueError, match=r"edge \(1.0, 2\) needs integer endpoints"):
        WeightedOrientedGraph(3, frozenset({(1.0, 2)}), (1, 1, 1))


@pytest.mark.parametrize("edge", [(1.5, 2), ("1", 2)], ids=["float", "str"])
def test_build_passes_edges_through_uncoerced(edge):
    """build hands its edges to the constructor as given, so an endpoint
    that is no int is refused there, not rounded or parsed into one."""
    message = f"edge ({edge[0]!r}, {edge[1]!r}) needs integer endpoints"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WeightedOrientedGraph.build(3, [edge])


@pytest.mark.parametrize(
    "num_vertices, edges, message",
    [
        (3.0, [(1, 2)], "need an int count of at least one vertex, got 3.0"),
        (3, [1], "edge 1 is not a pair of vertices"),
    ],
    ids=["float-count", "bare-edge"],
)
def test_constructor_refuses_untyped_input(num_vertices, edges, message):
    """A vertex count that is no int, or an edge that is no pair, is a
    ValueError naming it, not a TypeError from deeper in the graph."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WeightedOrientedGraph(num_vertices, edges, (1, 2, 1))


def test_constructor_freezes_an_edge_list():
    """Edges passed as a list of tuples or lists are stored as a frozenset
    of tuples, so the graph hashes and equals the one build makes."""
    g = WeightedOrientedGraph(3, [[1, 2]], (1, 2, 1))
    assert g.edges == frozenset({(1, 2)})
    assert g == WeightedOrientedGraph.build(3, [(1, 2)], (1, 2, 1))
    assert hash(g) == hash(WeightedOrientedGraph.build(3, [(1, 2)], (1, 2, 1)))


def test_construction_clears_source_and_isolated_weights():
    g = WeightedOrientedGraph.build(3, [(1, 2)], weights=(3, 2, 5))
    assert g.weights == (1, 2, 1)  # vertex 1 is a source, vertex 3 isolated
    assert parse_graph("vertices 3\nweights 3 2 5\nedge 1 2\n") == g
    assert [v for v, w in enumerate(g.weights, start=1) if w >= 2] == [2]


@given(graphs(), st.lists(st.integers(min_value=1, max_value=9), min_size=5, max_size=5))
def test_graphs_differing_off_the_targets_are_equal(g, other):
    """Weights on vertices that are no edge's target never reach I(D)."""
    targets = {j for _, j in g.edges}
    reweighted = WeightedOrientedGraph(g.num_vertices, g.edges, tuple(
        g.weight(v) if v in targets else other[v - 1]
        for v in range(1, g.num_vertices + 1)
    ))
    assert reweighted == g
    assert edge_ideal(reweighted) == edge_ideal(g)


@given(graphs())
def test_neighbour_lookups_match_an_edge_scan(g):
    """The neighbour sets stored at construction are the edge-scan
    definitions, and are no dataclass fields."""
    for v in range(1, g.num_vertices + 1):
        out = {j for i, j in g.edges if i == v}
        into = {i for i, j in g.edges if j == v}
        assert g.out_neighbors(v) == out
        assert g.in_neighbors(v) == into
        assert g.underlying_neighbors(v) == out | into
    assert set(asdict(g)) == {"num_vertices", "edges", "weights"}


def test_vertex_roles_on_triangles():
    g = TRIANGLE_SINK.graph
    assert g.weights == (2, 1, 1)
    assert [v for v in range(1, 4) if not g.out_neighbors(v)] == [1]
    report = classify(g)
    assert report.all_heavy_are_sinks and report.heavy_non_sinks == ()
    report = classify(TRIANGLE_NONSINK.graph)
    assert not report.all_heavy_are_sinks and report.heavy_non_sinks == (2,)


def test_edge_ideal_generators():
    assert edge_ideal(FOUR_CYCLE_SINKS.graph).gens == FOUR_CYCLE_IDEAL_GENS
    assert edge_ideal(PATH_MIDDLE.graph).gens == ((0, 1, 1), (1, 2, 0))


def test_cover_predicates():
    g = PATH_MIDDLE.graph
    assert is_vertex_cover(g, {2})
    assert is_vertex_cover(g, {1, 2, 3})
    assert not is_vertex_cover(g, {1})
    assert is_minimal_cover(g, {2})
    assert is_minimal_cover(g, {1, 3})
    assert not is_minimal_cover(g, {2, 3})


def test_cover_partition_on_path():
    part = cover_partition(PATH_MIDDLE.graph, {2, 3})
    assert (part.l1, part.l2, part.l3) == (
        frozenset(),
        frozenset({2}),
        frozenset({3}),
    )
    with pytest.raises(DomainError, match="misses edge"):
        cover_partition(PATH_MIDDLE.graph, {3})


def _covers(g, *limit):
    return tuple(p.cover for p in strong_covers(g, *limit))


def test_strong_covers_on_fixtures():
    assert _covers(FOUR_CYCLE_SINKS.graph) == tuple(
        frozenset(c) for c in FOUR_CYCLE_STRONG_COVERS
    )
    assert _covers(TRIANGLE_CYCLE.graph) == tuple(
        frozenset(c) for c in TRIANGLE_CYCLE_STRONG_COVERS
    )
    assert len(strong_covers(SEVEN_CYCLE.graph)) == SEVEN_CYCLE_COVER_COUNT


def test_strong_covers_of_a_long_vertex_range_need_no_recursion():
    """1,200 vertices, one edge, at the limit `wog-covers --max-covers 1200`
    passes: the other vertices lie on no edge, so no strong cover holds
    them and the loop skips them."""
    g = WeightedOrientedGraph.build(1200, [(1, 2)])
    assert _covers(g, 1200) == (frozenset({1}), frozenset({2}))


def test_vertices_on_no_edge_are_never_swept(monkeypatch):
    """At the default limit, 20 isolated vertices leave two covers of the
    one edge to partition, not 3 * 2^20: the third, {1, 2}, holds vertex 1
    and its neighbour, and vertex 1 has no heavy in-neighbour."""
    import monideal.graphs as graphs_module

    calls = []
    partition = graphs_module._partition
    monkeypatch.setattr(
        graphs_module, "_partition", lambda g, c: calls.append(c) or partition(g, c)
    )
    assert _covers(parse_graph("vertices 22\nedge 1 2\n")) == (
        frozenset({1}), frozenset({2})
    )
    assert len(calls) == 2


def test_strong_cover_enumeration_has_a_vertex_limit():
    big = WeightedOrientedGraph.build(30, [(i, i + 1) for i in range(1, 30)])
    with pytest.raises(ResourceLimitExceeded, match="--max-covers"):
        strong_covers(big)


def test_strong_covers_take_the_vertex_limit_they_name():
    """The refusal asks for a larger max_vertices, which strong_covers
    takes: one edge on 23 vertices passes at a limit of 23, and the default
    limit refuses it in the words of the golden entry error-covers-limit."""
    g = WeightedOrientedGraph.build(23, [(1, 2)])
    assert _covers(g, 23) == (frozenset({1}), frozenset({2}))
    with pytest.raises(ResourceLimitExceeded) as refused:
        strong_covers(g)
    assert str(refused.value) == (
        "cover enumeration over 23 vertices exceeds the limit 22; "
        "pass a larger max_vertices (CLI: --max-covers) to proceed"
    )


@given(graphs())
@settings(max_examples=30)
def test_minimal_covers_are_strong_with_empty_l3(g):
    """Minimality forces strongness, and a minimal cover has no L3 part."""
    vertices = range(1, g.num_vertices + 1)
    for r in range(1, g.num_vertices + 1):
        for cover in combinations(vertices, r):
            if not is_vertex_cover(g, cover):
                continue
            if is_minimal_cover(g, cover):
                assert is_strong_cover(g, cover)
                assert cover_partition(g, cover).l3 == frozenset()


@given(graphs())
@settings(max_examples=30)
def test_strong_cover_enumeration_matches_definition(g):
    vertices = range(1, g.num_vertices + 1)
    brute = {
        frozenset(c)
        for r in range(1, g.num_vertices + 1)
        for c in combinations(vertices, r)
        if is_vertex_cover(g, c) and is_strong_cover(g, c)
    }
    assert set(_covers(g)) == brute


def _unpruned_strong_covers(g):
    """The cover sweep with no pruning: every vertex cover of the edges,
    built vertex by vertex, then kept if strong."""
    covers = [frozenset()]
    for v in range(1, g.num_vertices + 1):
        near = g.underlying_neighbors(v)
        if near:
            earlier = {u for u in near if u < v}
            covers = [c | {v} for c in covers] + [c for c in covers if earlier <= c]
    strong = [c for c in covers if c and is_strong_cover(g, c)]
    return tuple(sorted(strong, key=lambda c: (len(c), tuple(sorted(c)))))


@given(graphs(max_vertices=9))
@settings(max_examples=50)
def test_pruned_cover_sweep_matches_the_unpruned_one(g):
    assert _covers(g) == _unpruned_strong_covers(g)


def test_a_star_partitions_only_its_strong_covers(monkeypatch):
    """The 21-leaf star with centre 1 has 2^21 + 1 vertex covers.  No
    vertex has a heavy in-neighbour, so none lies in L3 of a strong cover,
    and the sweep drops each cover that holds a vertex and all its
    neighbours: only the two minimal covers are left to partition."""
    import monideal.graphs as graphs_module

    calls = []
    partition = graphs_module._partition
    monkeypatch.setattr(
        graphs_module, "_partition", lambda g, c: calls.append(c) or partition(g, c)
    )
    star = WeightedOrientedGraph.build(22, [(1, leaf) for leaf in range(2, 23)])
    assert _covers(star) == (frozenset({1}), frozenset(range(2, 23)))
    assert len(calls) == 2


def test_a_hub_with_a_heavy_in_neighbour_partitions_only_its_strong_covers(monkeypatch):
    """Vertex 1 feeds the heavy hub 2, which feeds 20 leaves.  A leaf in a
    cover with the hub lies in L3, so the cover is strong there only while
    every leaf is in it: the sweep drops a cover that holds the hub and a
    leaf as soon as a later leaf is left out, and one that holds 1 and the
    hub at once.  Only the three strong covers are left to partition."""
    import monideal.graphs as graphs_module

    calls = []
    partition = graphs_module._partition
    monkeypatch.setattr(
        graphs_module, "_partition", lambda g, c: calls.append(c) or partition(g, c)
    )
    hub = WeightedOrientedGraph.build(22, [(1, 2)] + [(2, j) for j in range(3, 23)], {2: 2})
    assert _covers(hub) == (
        frozenset({2}), frozenset({1, *range(3, 23)}), frozenset(range(2, 23))
    )
    assert len(calls) == 3


def test_cover_ideal_uses_weights_on_l2_and_l3():
    g = PATH_MIDDLE.graph
    assert cover_partition(g, {2, 3}).alpha == (0, 2, 1)
    assert cover_partition(g, {1, 3}).alpha == (1, 0, 1)
    assert cover_partition(g, {2}).alpha == (0, 1, 0)


@given(graphs(max_vertices=8))
@settings(max_examples=30)
def test_cover_decomposition_agrees_with_generic_route(g):
    assert decomposition_via_covers(g) == irreducible_decomposition(edge_ideal(g))


def test_cover_decomposition_refuses_missing_covers(monkeypatch):
    """Covers that do not intersect back to I(D) are caught by the one
    re-intersection in irredundant_subset."""
    import monideal.graphs as graphs_module

    parts = graphs_module.strong_covers(PATH_MIDDLE.graph)
    monkeypatch.setattr(graphs_module, "strong_covers", lambda g, limit: parts[:1])
    with pytest.raises(ConsistencyError):
        decomposition_via_covers(PATH_MIDDLE.graph)


def test_cover_decomposition_shows_extra_covers(monkeypatch):
    """A cover that is not strong still intersects back to I(D), but its
    redundant component is kept, so the cover route no longer matches."""
    import monideal.graphs as graphs_module

    g = PATH_MIDDLE.graph
    extra = frozenset({1, 2, 3})
    assert not is_strong_cover(g, extra)
    parts = graphs_module.strong_covers(g) + (graphs_module._partition(g, extra),)
    monkeypatch.setattr(graphs_module, "strong_covers", lambda g, limit: parts)
    assert decomposition_via_covers(g) != irreducible_decomposition(edge_ideal(g))


def test_irrelevant_prime_membership():
    assert irrelevant_in_ass(TRIANGLE_CYCLE.graph)
    assert not irrelevant_in_ass(FOUR_CYCLE_SINKS.graph)
    assert not irrelevant_in_ass(PATH_MIDDLE.graph)


def test_alexander_dual_of_four_cycle():
    dual = alexander_dual(FOUR_CYCLE_SINKS.graph)
    assert dual.ideal.gens == FOUR_CYCLE_DUAL_GENS
    assert dual.decomposition.alphas() == FOUR_CYCLE_DUAL_COMPONENT_ALPHAS


@given(graphs())
def test_alexander_dual_has_one_component_per_edge(g):
    """The components are (t_i, t_j^{w_j}) per edge (i, j), graded-lex sorted."""
    alphas = []
    for i, j in g.sorted_edges():
        alpha = [0] * g.num_vertices
        alpha[i - 1], alpha[j - 1] = 1, g.weight(j)
        alphas.append(tuple(alpha))
    alphas.sort(key=lambda a: (sum(a), a))
    assert alexander_dual(g).decomposition.alphas() == tuple(alphas)


def test_classify_fixture_table():
    four = classify(FOUR_CYCLE_SINKS.graph)
    assert (four.square, four.all_powers, four.ntf) == (True, True, True)
    assert four.heavy_non_sinks == ()

    cycle = classify(TRIANGLE_CYCLE.graph)
    assert (cycle.square, cycle.all_powers, cycle.ntf) == (False, False, None)
    assert cycle.has_embedded_primes
    assert cycle.odd_girth == 3

    nonsink = classify(TRIANGLE_NONSINK.graph)
    assert nonsink.heavy_non_sinks == (2,)
    assert not nonsink.square
    assert nonsink.ntf is False

    sink = classify(TRIANGLE_SINK.graph)
    assert sink.all_heavy_are_sinks and sink.has_triangle and not sink.square

    seven = classify(SEVEN_CYCLE.graph)
    assert seven.square and not seven.all_powers
    assert seven.odd_girth == 7


# Independent routes for the invariants that classify reads off the odd girth.


def _underlying_adjacency(g):
    adjacency = {v: set() for v in range(1, g.num_vertices + 1)}
    for i, j in g.edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    return adjacency


def _two_colourable(g) -> bool:
    adjacency = _underlying_adjacency(g)
    colour = {}
    for root in adjacency:
        if root in colour:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u in adjacency[v]:
                if u not in colour:
                    colour[u] = 1 - colour[v]
                    stack.append(u)
                elif colour[u] == colour[v]:
                    return False
    return True


def _has_triangle(g) -> bool:
    adjacency = _underlying_adjacency(g)
    return any(adjacency[i] & adjacency[j] for i, j in g.edges)


@given(graphs(max_vertices=7))
def test_classify_invariants_match_colouring_and_triangle_scan(g):
    report = classify(g)
    assert report.is_bipartite == _two_colourable(g)
    assert report.has_triangle == _has_triangle(g)


@pytest.mark.parametrize("length", range(3, 10))
def test_odd_girth_of_oriented_cycles(length):
    edges = [(i, i % length + 1) for i in range(1, length + 1)]
    report = classify(WeightedOrientedGraph.build(length, edges))
    assert report.odd_girth == (length if length % 2 else None)


def test_odd_girth_of_an_edgeless_graph():
    report = classify(WeightedOrientedGraph.build(3, []))
    assert (report.odd_girth, report.is_bipartite, report.has_triangle) == (None, True, False)


def test_non_sink_witness_selection():
    assert non_sink_witness(TRIANGLE_CYCLE.graph) == (2, 2, 1)
    assert non_sink_witness(TRIANGLE_NONSINK.graph) == (1, 2, 1)
    assert non_sink_witness(TRIANGLE_SINK.graph) is None
    assert non_sink_witness(FOUR_CYCLE_SINKS.graph) is None


def test_fixture_lookup():
    assert fixture("path_middle") is PATH_MIDDLE
    with pytest.raises(KeyError, match="seven_cycle"):
        fixture("no_such_graph")


# ------------------------------------------------------------- text format


def test_parse_graph_round_trip():
    text = format_graph(FOUR_CYCLE_SINKS.graph)
    assert parse_graph(text) == FOUR_CYCLE_SINKS.graph


@given(graphs())
def test_format_parse_round_trip(g):
    assert parse_graph(format_graph(g)) == g


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("vertices 2\nvertices 2\n", FormatError, "line 2: duplicate 'vertices' line"),
        ("vertices two\n", FormatError, "line 1: expected: vertices <count>"),
        ("vertices 1 2\n", FormatError, "line 1: expected: vertices <count>"),
        pytest.param(
            "vertices " + "9" * 5000 + "\n",
            FormatError,
            "line 1: an integer of 5000 digits is too long",
            id="vertices-5000-digits",
        ),
        ("vertices 0\n", FormatError, "line 1: vertex count must be >= 1"),
        (
            "vertices 100001\nedge 1 2\n",
            ResourceLimitExceeded,
            "line 1: 100001 vertices exceed the parser's limit 100000",
        ),
        ("weights 1\n", FormatError, "line 1: 'weights' before 'vertices'"),
        ("vertices 1\nweights 1\nweights 1\n", FormatError, "line 3: duplicate 'weights' line"),
        (
            "vertices 2\nedge 1 2\nweights 1 1\n",
            FormatError,
            "line 3: 'weights' must come before the edges",
        ),
        ("vertices 2\nweights 1\nedge 1 2\n", FormatError, "line 2: expected 2 weights, got 1"),
        ("vertices 1\nweights one\n", FormatError, "line 2: weights must be integers"),
        ("vertices 1\nweights 0\n", FormatError, "line 2: weights must be >= 1"),
        ("edge 1 2\n", FormatError, "line 1: 'edge' before 'vertices'"),
        ("vertices 2\nedge 1\n", FormatError, "line 2: expected: edge <from> <to>"),
        ("vertices 2\nedge 1 b\n", FormatError, "line 2: expected: edge <from> <to>"),
        ("vertices 2\nedge 1 3\n", FormatError, "line 2: vertex index 3 out of range (vertices=2)"),
        ("vertices 2\nedge 0 1\n", FormatError, "line 2: vertex index 0 out of range (vertices=2)"),
        ("vertices 2\nedge 1 1\n", FormatError, "line 2: self loop at vertex 1"),
        (
            "vertices 3\nedge 1 2\nedge 2 3\nedge 1 2\n",
            FormatError,
            "line 4: duplicate edge (1, 2)",
        ),
        (
            "vertices 3\nedge 1 2\nedge 2 1\n",
            FormatError,
            "line 3: edge (2, 1) reorients the earlier edge (1, 2)",
        ),
        ("edges 2\n", FormatError, "line 1: unknown directive 'edges'"),
        ("# no graph\n", FormatError, "missing 'vertices' line"),
    ],
)
def test_parse_graph_refusals(text, error, message):
    """Every refusal of the graph format, with its exact message."""
    with pytest.raises(error) as info:
        parse_graph(text)
    assert str(info.value) == message


def test_parse_graph_skips_blank_and_comment_lines():
    """Blank and whitespace-only lines, whole-line comments and trailing
    comments hold no field, so the graph parses as its clean form; error
    messages still count every line."""
    clean = "vertices 3\nweights 1 2 1\nedge 1 2\nedge 2 3\n"
    noisy = (
        "# a weighted path\n\n   \n\t\n"
        "vertices 3   # three vertices\n"
        "  # the weights come before the edges\n"
        "weights 1 2 1#no space before this comment\n"
        "\n"
        "edge 1 2\n"
        "edge 2 3 # the last edge\n"
        "   \n"
    )
    assert parse_graph(noisy) == parse_graph(clean)
    with pytest.raises(FormatError, match="^line 4: self loop at vertex 1$"):
        parse_graph("# a loop\n\nvertices 3\nedge 1 1  # here\n")


def test_parse_graph_reads_a_long_path():
    """Duplicate and reoriented edges are looked up in a set, so 20,000
    edges parse at once, to the graph built directly."""
    edges = [(i, i + 1) for i in range(1, 20001)]
    text = "vertices 20001\n" + "".join(f"edge {i} {j}\n" for i, j in edges)
    assert parse_graph(text) == WeightedOrientedGraph.build(20001, edges)


def test_parse_graph_refuses_repeated_edges_by_line():
    with pytest.raises(FormatError, match="line 4: duplicate edge \\(1, 2\\)"):
        parse_graph("vertices 3\nedge 1 2\nedge 2 3\nedge 1 2\n")
    with pytest.raises(FormatError, match="line 3: edge \\(2, 1\\) reorients the earlier edge \\(1, 2\\)"):
        parse_graph("vertices 3\nedge 1 2\nedge 2 1\n")


def test_parse_graph_refuses_more_vertices_than_variables():
    """Each vertex is a variable of I(D), so the parser's variable limit
    caps the count, before a weight per vertex is built."""
    assert parse_graph(f"vertices {PARSE_VARIABLE_LIMIT}\n").num_vertices == PARSE_VARIABLE_LIMIT
    with pytest.raises(ResourceLimitExceeded, match="line 1: 100001 vertices exceed"):
        parse_graph(f"vertices {PARSE_VARIABLE_LIMIT + 1}\nedge 1 2\n")
