"""Weighted oriented graphs: covers, edge ideals, duality, classification."""

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
    cover_ideal,
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


def test_strong_covers_on_fixtures():
    assert strong_covers(FOUR_CYCLE_SINKS.graph) == tuple(
        frozenset(c) for c in FOUR_CYCLE_STRONG_COVERS
    )
    assert strong_covers(TRIANGLE_CYCLE.graph) == tuple(
        frozenset(c) for c in TRIANGLE_CYCLE_STRONG_COVERS
    )
    assert len(strong_covers(SEVEN_CYCLE.graph)) == SEVEN_CYCLE_COVER_COUNT


def test_strong_cover_enumeration_has_a_vertex_limit():
    big = WeightedOrientedGraph.build(30, [(i, i + 1) for i in range(1, 30)])
    with pytest.raises(ResourceLimitExceeded, match="--max-covers"):
        strong_covers(big)


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
    assert set(strong_covers(g)) == brute


def test_cover_ideal_uses_weights_on_l2_and_l3():
    assert cover_ideal(PATH_MIDDLE.graph, {2, 3}).alpha == (0, 2, 1)
    assert cover_ideal(PATH_MIDDLE.graph, {1, 3}).alpha == (1, 0, 1)
    assert cover_ideal(PATH_MIDDLE.graph, {2}).alpha == (0, 1, 0)


@given(graphs())
@settings(max_examples=30)
def test_cover_decomposition_agrees_with_generic_route(g):
    assert decomposition_via_covers(g) == irreducible_decomposition(edge_ideal(g))


def test_cover_decomposition_refuses_missing_covers(monkeypatch):
    """Covers that do not intersect back to I(D) are caught by the one
    re-intersection in irredundant_subset."""
    import monideal.graphs as graphs_module

    parts = graphs_module._strong_partitions(
        PATH_MIDDLE.graph, graphs_module.DEFAULT_COVER_VERTEX_LIMIT
    )
    monkeypatch.setattr(graphs_module, "_strong_partitions", lambda g, limit: parts[:1])
    with pytest.raises(ConsistencyError):
        decomposition_via_covers(PATH_MIDDLE.graph)


def test_irrelevant_prime_membership():
    assert irrelevant_in_ass(TRIANGLE_CYCLE.graph)
    assert not irrelevant_in_ass(FOUR_CYCLE_SINKS.graph)
    assert not irrelevant_in_ass(PATH_MIDDLE.graph)


def test_alexander_dual_of_four_cycle():
    dual = alexander_dual(FOUR_CYCLE_SINKS.graph)
    assert dual.ideal.gens == FOUR_CYCLE_DUAL_GENS
    assert dual.decomposition.alphas() == FOUR_CYCLE_DUAL_COMPONENT_ALPHAS


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


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(FormatError, match="line 2: vertex index 3 out of range"):
        parse_graph("vertices 2\nedge 1 3\n")
    with pytest.raises(FormatError, match="line 1: unknown directive 'edges'"):
        parse_graph("edges 2\n")
    with pytest.raises(FormatError, match="line 2: expected 2 weights, got 1"):
        parse_graph("vertices 2\nweights 1\nedge 1 2\n")
    with pytest.raises(FormatError, match="line 2: self loop at vertex 1"):
        parse_graph("vertices 2\nedge 1 1\n")


def test_parse_graph_refuses_more_vertices_than_variables():
    """Each vertex is a variable of I(D), so the parser's variable limit
    caps the count, before a weight per vertex is built."""
    assert parse_graph(f"vertices {PARSE_VARIABLE_LIMIT}\n").num_vertices == PARSE_VARIABLE_LIMIT
    with pytest.raises(ResourceLimitExceeded, match="line 1: 100001 vertices exceed"):
        parse_graph(f"vertices {PARSE_VARIABLE_LIMIT + 1}\nedge 1 2\n")
