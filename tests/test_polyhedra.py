"""Covering polyhedra, Newton polyhedra, integral closures, and the
constraint-block exchange format."""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, reject, settings
import hypothesis.strategies as st

from monideal.errors import (
    DimensionMismatch,
    DomainError,
    FormatError,
    ResourceLimitExceeded,
)
from monideal.decomposition import irreducible_decomposition
from monideal.fixtures import (
    FOUR_CYCLE_CLOSURE_GENS,
    FOUR_CYCLE_DUAL_Q_VERTICES,
    FOUR_CYCLE_Q_VERTICES,
    FOUR_CYCLE_SINKS,
    PATH_MIDDLE,
    SEVEN_CYCLE,
    TRIANGLE_CYCLE,
)
from monideal.graphs import WeightedOrientedGraph, alexander_dual, edge_ideal
from monideal.ideals import MonomialIdeal, intersect_all, parse_ideal, power_contains
from monideal.polyhedra import (
    _closure_box_scan,
    _generators_at_vertices,
    _vertex_certificates,
    closure_gaps,
    closure_member_by_power_scan,
    CoveringFormPolyhedron,
    covering_polyhedron,
    emit_constraint_block,
    enumerate_vertices,
    format_fraction_vector,
    integral_closure_power,
    irreducible_polyhedron,
    is_normal_up_to,
    newton_hrep,
    parse_constraint_block,
    polyhedral_conditions_check,
)
from monideal.symbolic import powers_equal_up_to

from conftest import graphs, ideals
from oracles import component_ideal, contains_point, polyhedra_equal


# ------------------------------------------------- basic-solution oracle


def _solve_square(rows, rhs):
    """Solve an s x s system of Fraction rows exactly; None when singular."""
    n = len(rows)
    m = [list(row) + [Fraction(r)] for row, r in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        pv = m[col][col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col] / pv
                for c2 in range(col, n + 1):
                    m[r][c2] -= factor * m[col][c2]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def _rank(rows) -> int:
    m = [list(row) for row in rows]
    rank, col_count = 0, len(m[0]) if m else 0
    for col in range(col_count):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col] / pv
                for c2 in range(col, col_count):
                    m[r][c2] -= factor * m[rank][c2]
        rank += 1
    return rank


def scan_vertices(poly: CoveringFormPolyhedron):
    """The vertices by the exhaustive basic-solution scan: every choice of
    s of the s + k constraints that meets in one feasible point."""
    s = poly.num_vars
    rows = [(c, 1) for c in poly.columns]
    rows += [(tuple(Fraction(int(k == i)) for k in range(s)), 0) for i in range(s)]
    found = set()
    for subset in combinations(rows, s):
        point = _solve_square([r[0] for r in subset], [r[1] for r in subset])
        if point is not None and contains_point(poly, point):
            found.add(point)
    return tuple(sorted(found))


# Covering polyhedra of ideals, edge ideals and duals, and irreducible
# polyhedra (fractional columns) of the same ideals.
_polyhedron_ideals = st.one_of(
    ideals(),
    graphs().map(edge_ideal),
    graphs().map(lambda g: alexander_dual(g).ideal),
)
covering_forms = st.one_of(
    _polyhedron_ideals.map(covering_polyhedron),
    _polyhedron_ideals.map(lambda I: irreducible_polyhedron(irreducible_decomposition(I))),
)


@given(covering_forms)
@settings(max_examples=60)
def test_vertices_match_the_basic_solution_scan(poly):
    if len(poly.columns) > 12:
        reject()  # the scan solves C(s + k, s) systems
    assert enumerate_vertices(poly) == scan_vertices(poly)


def test_a_zero_column_leaves_no_vertices():
    poly = CoveringFormPolyhedron(2, [(1, 1), (0, 0)])
    assert enumerate_vertices(poly) == () == scan_vertices(poly)


def test_one_variable_polyhedron():
    poly = CoveringFormPolyhedron(1, [(2,), (Fraction(1, 3),)])
    assert enumerate_vertices(poly) == ((3,),)
    assert scan_vertices(poly) == ((3,),)


def test_direct_construction_coerces_columns_to_fractions():
    I = edge_ideal(FOUR_CYCLE_SINKS.graph)
    direct = CoveringFormPolyhedron(I.num_vars, I.gens)
    assert direct == covering_polyhedron(I)
    assert all(type(x) is Fraction for c in direct.columns for x in c)
    vertices = _vertex_certificates(direct)
    assert vertices == enumerate_vertices(direct)
    assert vertices == FOUR_CYCLE_Q_VERTICES
    assert all(type(x) is Fraction for v in vertices for x in v)


def test_containment_in_a_half_plane_intersection():
    poly = CoveringFormPolyhedron(2, [(1, 0), (0, 2)])
    assert contains_point(poly, (1, Fraction(1, 2)))
    assert contains_point(poly, (2, 3))
    assert not contains_point(poly, (1, 0))
    assert not contains_point(poly, (-1, 5))


def test_single_vertex_polyhedron():
    poly = CoveringFormPolyhedron(2, [(1, 0), (0, 2)])
    assert enumerate_vertices(poly) == ((1, Fraction(1, 2)),)


def test_four_cycle_covering_vertices():
    I = edge_ideal(FOUR_CYCLE_SINKS.graph)
    assert enumerate_vertices(covering_polyhedron(I)) == FOUR_CYCLE_Q_VERTICES
    J = alexander_dual(FOUR_CYCLE_SINKS.graph).ideal
    assert enumerate_vertices(covering_polyhedron(J)) == FOUR_CYCLE_DUAL_Q_VERTICES


def test_covering_polyhedron_rejects_degenerate_ideals():
    with pytest.raises(DomainError):
        covering_polyhedron(MonomialIdeal.zero(2))
    with pytest.raises(DomainError):
        covering_polyhedron(MonomialIdeal.unit(2))


def test_enumeration_limits_are_enforced():
    wide = CoveringFormPolyhedron(9, [tuple(1 for _ in range(9))])
    with pytest.raises(ResourceLimitExceeded, match="--max-vars"):
        enumerate_vertices(wide)
    many = CoveringFormPolyhedron(2, [(i, 1) for i in range(1, 26)])
    with pytest.raises(ResourceLimitExceeded, match="--max-constraints"):
        enumerate_vertices(many)
    assert enumerate_vertices(wide, max_dim=9)  # override works


@given(ideals(max_vars=4, max_gens=5))
@settings(max_examples=30)
def test_vertex_certificates_are_basic_and_feasible(I):
    """Every reported vertex satisfies s independent constraints with equality."""
    poly = covering_polyhedron(I)
    s = poly.num_vars
    enumerate_vertices(poly)  # within the limits
    for point in _vertex_certificates(poly):
        assert contains_point(poly, point)
        tight = [c for c in poly.columns if sum(x * y for x, y in zip(point, c)) == 1]
        tight += [tuple(int(k == i) for k in range(s)) for i in range(s) if point[i] == 0]
        assert _rank(tight) == s


@given(ideals(max_vars=4, max_gens=5))
@settings(max_examples=25)
def test_vertices_are_permutation_equivariant(I):
    poly = covering_polyhedron(I)
    flipped = CoveringFormPolyhedron(I.num_vars, [c[::-1] for c in poly.columns])
    assert {v[::-1] for v in enumerate_vertices(flipped)} == set(
        enumerate_vertices(poly)
    )


@given(ideals(max_vars=4, max_gens=5))
@settings(max_examples=30)
def test_newton_vertices_are_generators(I):
    assert set(_generators_at_vertices(I, newton_hrep(I))) <= set(I.gens)


@given(st.one_of(_polyhedron_ideals, ideals(max_vars=3, max_gens=8, max_exp=5)))
@example(parse_ideal("t1^2, t1*t2, t2^2"))
@settings(max_examples=60)
def test_newton_vertices_match_the_rank_test(I):
    """A generator is a vertex iff the rows of the Newton description that
    are tight at it span the whole space."""
    hrep = newton_hrep(I)
    s = I.num_vars
    unit = [tuple(int(k == i) for k in range(s)) for i in range(s)]
    expected = tuple(
        g for g in I.gens
        if _rank([c for c in hrep.columns if sum(x * y for x, y in zip(g, c)) == 1]
                 + [unit[i] for i in range(s) if g[i] == 0]) == s
    )
    assert _generators_at_vertices(I, hrep) == expected


def test_newton_polyhedron_of_four_cycle():
    I = edge_ideal(FOUR_CYCLE_SINKS.graph)
    np = newton_hrep(I)
    assert _generators_at_vertices(I, np) == I.gens
    ip = irreducible_polyhedron(irreducible_decomposition(I))
    assert polyhedra_equal(np, ip)
    assert set(ip.columns) == {
        (1, 0, 1, 0),
        (0, Fraction(1, 2), 0, Fraction(1, 2)),
    }


def test_construction_refuses_bad_columns():
    with pytest.raises(DimensionMismatch, match="^column .* has length 3"):
        CoveringFormPolyhedron(2, [(1, 0, 0)])
    with pytest.raises(ValueError, match="^column .* negative"):
        CoveringFormPolyhedron(2, [(1, Fraction(-1, 2))])


def test_polyhedra_equal_checks_dimensions():
    with pytest.raises(DimensionMismatch):
        polyhedra_equal(
            CoveringFormPolyhedron(2, [(1, 0)]), CoveringFormPolyhedron(3, [(1, 0, 0)])
        )


# --------------------------------------------------------- integral closure


def _box_scan_oracle(ideal, rows, n):
    """`_closure_box_scan` by visiting every point of the box."""
    scaled = []
    for u in rows:
        d = math.lcm(*(x.denominator for x in u))
        scaled.append((tuple(int(x * d) for x in u), n * d))
    bounds = [n * max(g[k] for g in ideal.gens) for k in range(ideal.num_vars)]
    members = [
        a
        for a in product(*(range(b + 1) for b in bounds))
        if all(
            sum(x * y for x, y in zip(a, row)) >= rhs for row, rhs in scaled
        )
    ]
    return MonomialIdeal._from_trusted(members, ideal.num_vars)


@given(_polyhedron_ideals, st.booleans(), st.integers(min_value=1, max_value=3))
@settings(max_examples=60)
def test_closure_search_matches_the_box_scan(I, component_rows, n):
    """Rows V (vertices of Q(I)) and the fractional rows C alike."""
    if math.prod(n * max(g[k] for g in I.gens) + 1 for k in range(I.num_vars)) > 20_000:
        reject()
    if component_rows:
        rows = irreducible_polyhedron(irreducible_decomposition(I)).columns
    else:
        rows = _vertex_certificates(covering_polyhedron(I))
    assert _closure_box_scan(I, rows, n) == _box_scan_oracle(I, rows, n)


WEIGHTED_HEXAGON = WeightedOrientedGraph.build(
    6, [(i, i % 6 + 1) for i in range(1, 7)], {2: 2, 4: 2, 6: 2}
)
SKEWED_SQUARE = "t1*t2, t2*t3^2, t3*t4, t4*t1^3"


@pytest.mark.parametrize(
    "ideal, n, component_rows",
    [
        pytest.param(edge_ideal(WEIGHTED_HEXAGON), n, False, id=f"hexagon-n{n}-V")
        for n in (1, 2, 3)
    ] + [
        pytest.param(parse_ideal(SKEWED_SQUARE), n, c, id=f"skewed-n{n}-{'C' if c else 'V'}")
        for n in (1, 2)
        for c in (False, True)
    ],
)
def test_closure_search_drops_met_rows_and_caps_coordinates(ideal, n, component_rows):
    """The search carries only the rows still short, and raises a coordinate
    whose short rows include one it does not touch at most to sat, the
    least value that meets every short row it touches.  Capping one below
    sat loses members of the skewed 4-cycle's closures at n = 1 and 2,
    though not of the weighted 6-cycle's."""
    if component_rows:
        rows = irreducible_polyhedron(irreducible_decomposition(ideal)).columns
    else:
        rows = _vertex_certificates(covering_polyhedron(ideal))
    assert _closure_box_scan(ideal, rows, n) == _box_scan_oracle(ideal, rows, n)


def test_closure_search_without_members_or_rows():
    I = parse_ideal("(t1, t2)")
    unmet = [(Fraction(0), Fraction(0))]
    assert _closure_box_scan(I, unmet, 1).is_zero()
    assert _closure_box_scan(I, [], 2).is_unit()


def test_nine_cycle_closure_matches_both_oracles():
    """A 19,683-point box at n = 2; each generator has a power witness."""
    I = parse_ideal(", ".join(f"t{i}*t{i % 9 + 1}" for i in range(1, 10)))
    vertices = enumerate_vertices(covering_polyhedron(I), max_dim=9)
    closure = integral_closure_power(I, 2, max_dim=9)
    assert closure == _box_scan_oracle(I, vertices, 2)
    # Nine variables exceed the power scan's default dimension limit, so the
    # scan runs here on the scale of the vertices enumerated above.
    scale = math.lcm(*(x.denominator for v in vertices for x in v))
    for g in closure.gens:
        assert any(
            power_contains(I, tuple(p * x for x in g), 2 * p) for p in range(1, scale + 1)
        )


def test_four_cycle_closure():
    I = edge_ideal(FOUR_CYCLE_SINKS.graph)
    closure = integral_closure_power(I, 1)
    assert closure.gens == FOUR_CYCLE_CLOSURE_GENS
    assert closure.contains((1, 1, 0, 1)) and not I.contains((1, 1, 0, 1))
    assert closure_member_by_power_scan(I, (1, 1, 0, 1), 1) == 2
    assert not is_normal_up_to(I, 1)


def test_closure_gaps_are_the_closure_generators_outside_the_power():
    gaps = list(closure_gaps(edge_ideal(FOUR_CYCLE_SINKS.graph), 1))
    assert gaps == [((0, 1, 1, 1), (1, 1, 0, 1))]


@given(ideals(max_vars=3, max_gens=4, max_exp=2))
@settings(max_examples=25)
def test_closure_gaps_are_empty_iff_the_power_is_closed(I):
    for n, gaps in enumerate(closure_gaps(I, 2), start=1):
        closure, power = integral_closure_power(I, n), I ** n
        assert (not gaps) == (closure == power)
        assert gaps == tuple(g for g in closure.gens if not power.contains(g))


def test_is_normal_up_to_stops_at_the_first_open_power(monkeypatch):
    import monideal.polyhedra as polyhedra

    calls = []
    original = polyhedra._closure_box_scan

    def counted(ideal, rows, n):
        calls.append(n)
        return original(ideal, rows, n)

    monkeypatch.setattr(polyhedra, "_closure_box_scan", counted)
    ex51 = parse_ideal("t1*t2^2, t3*t2^2, t3*t4^2, t1*t4^2")
    assert not is_normal_up_to(ex51, 3)
    assert calls == [1]


def test_closure_gaps_need_a_positive_bound():
    I = parse_ideal("(t1*t2, t2*t3)")
    with pytest.raises(DomainError):
        list(closure_gaps(I, 0))
    with pytest.raises(DomainError):
        is_normal_up_to(I, 0)


def test_principal_ideals_are_normal():
    I = parse_ideal("(t1^2*t2)")
    assert integral_closure_power(I, 1) == I
    assert is_normal_up_to(I, 3)
    assert is_normal_up_to(parse_ideal("(t1, t2^2)"), 3)


@given(ideals(max_vars=3, max_gens=4, max_exp=2), st.integers(min_value=1, max_value=2))
@settings(max_examples=25)
def test_powers_lie_in_their_closure(I, n):
    assert (I ** n) <= integral_closure_power(I, n)


@given(ideals(max_vars=3, max_gens=3, max_exp=2))
@settings(max_examples=20)
def test_closure_membership_matches_the_power_scan(I):
    """t^a is in the closure of I iff some multiple p*a lands in I^p."""
    closure = integral_closure_power(I, 1)
    probes = set(closure.gens[:4]) | {(0,) * I.num_vars, I.gens[0]}
    for a in probes:
        expected = closure.contains(a)
        found = closure_member_by_power_scan(I, a, 1)
        assert (found is not None) == expected
        if found is not None:
            assert power_contains(I, tuple(found * x for x in a), found)


def test_decomposition_minimality_flag():
    I = edge_ideal(PATH_MIDDLE.graph)
    assert polyhedral_conditions_check(I, 1, powers_equal=False).minimal
    J = parse_ideal("(t1^3, t1*t2, t2^2)")
    report = polyhedral_conditions_check(J, 1, powers_equal=False)
    assert not report.minimal
    assert report.closure_intersections is None and report.closure_per_power is None
    assert report.consistent is None


def test_closure_intersection_check_reports():
    I = edge_ideal(FOUR_CYCLE_SINKS.graph)
    report = polyhedral_conditions_check(I, 2, powers_equal=False)
    assert report.minimal and report.closure_intersections
    assert report.closure_per_power == ((1, True), (2, True))

    J = parse_ideal("(t1^3, t1*t2, t2^2)")
    skipped = polyhedral_conditions_check(J, 2, powers_equal=False)
    assert not skipped.minimal
    assert skipped.closure_intersections is None


@given(
    st.one_of(
        ideals(),
        graphs().map(edge_ideal),
        graphs().map(lambda g: alexander_dual(g).ideal),
    ),
    st.integers(min_value=1, max_value=2),
)
@settings(max_examples=40)
def test_polyhedral_conditions_match_the_enumerating_oracle(I, bound):
    """(b) from V <= C and (a) from the box scan with rows C agree with
    enumerating both polyhedra and intersecting the component closures."""
    dec = irreducible_decomposition(I)
    try:
        np_eq_ip = polyhedra_equal(newton_hrep(I), irreducible_polyhedron(dec))
    except ResourceLimitExceeded:
        reject()
    report = polyhedral_conditions_check(I, bound, powers_equal=False)
    assert report.newton_equals_irreducible == np_eq_ip
    if report.minimal:
        assert report.closure_per_power == tuple(
            (n, integral_closure_power(I, n) == intersect_all(
                [integral_closure_power(component_ideal(c), n) for c in dec.components],
                I.num_vars,
            ))
            for n in range(1, bound + 1)
        )
    else:
        assert report.closure_per_power is None


def test_polyhedral_conditions_enumerate_only_q(monkeypatch):
    """The check enumerates the vertices of Q(I) once and nothing else."""
    import monideal.polyhedra as polyhedra

    I = edge_ideal(SEVEN_CYCLE.graph)
    calls = []
    original = polyhedra._vertex_certificates

    def counted(poly):
        calls.append(poly)
        return original(poly)

    monkeypatch.setattr(polyhedra, "_vertex_certificates", counted)
    polyhedral_conditions_check(I, 2, powers_equal=False)
    assert calls == [covering_polyhedron(I)]


def test_polyhedral_conditions_search_once_per_power(monkeypatch):
    """On a minimal decomposition, condition (a) runs one closure search
    per power, with the component rows C."""
    import monideal.polyhedra as polyhedra

    I = edge_ideal(FOUR_CYCLE_SINKS.graph)
    columns = irreducible_polyhedron(irreducible_decomposition(I)).columns
    calls = []
    original = polyhedra._closure_box_scan

    def counted(ideal, rows, n):
        calls.append((rows, n))
        return original(ideal, rows, n)

    monkeypatch.setattr(polyhedra, "_closure_box_scan", counted)
    assert polyhedral_conditions_check(I, 3, powers_equal=False).minimal
    assert calls == [(columns, 1), (columns, 2), (columns, 3)]


def test_polyhedral_conditions_consistency_logic():
    I = edge_ideal(FOUR_CYCLE_SINKS.graph)
    full = polyhedral_conditions_check(I, 2, powers_equal=True)
    assert full.closure_intersections
    assert full.newton_equals_irreducible
    assert full.vertices_are_component_inverses
    assert full.consistent is True

    C = edge_ideal(TRIANGLE_CYCLE.graph)
    vacuous = polyhedral_conditions_check(C, 2, powers_equal=False)
    assert vacuous.consistent is True  # nothing to contradict


def test_four_cycle_dual_has_equal_and_normal_powers_to_three():
    dual_ideal = alexander_dual(FOUR_CYCLE_SINKS.graph).ideal
    assert powers_equal_up_to(dual_ideal, 3)
    assert is_normal_up_to(dual_ideal, 3)


def test_closure_gaps_pass_their_limits_to_the_closure_scan():
    """Nine variables exceed the default limit of 8, which `is_normal_up_to`
    keeps; max_dim=9, as `monideal normal --max-vars 9` passes it, must
    reach the closure scan behind `closure_gaps`."""
    one_edge = WeightedOrientedGraph.build(9, [(1, 2)])
    dual_ideal = alexander_dual(one_edge).ideal
    with pytest.raises(ResourceLimitExceeded):
        is_normal_up_to(dual_ideal, 1)
    assert list(closure_gaps(dual_ideal, 2, max_dim=9)) == [(), ()]


# ------------------------------------------------------------- text format


def test_format_fraction_vector():
    assert format_fraction_vector((0, Fraction(1, 2), 0, Fraction(1, 2))) == "(0,1/2,0,1/2)"


def test_constraint_block_round_trip():
    I = edge_ideal(FOUR_CYCLE_SINKS.graph)
    poly = covering_polyhedron(I)
    block = emit_constraint_block(poly, enumerate_vertices(poly))
    assert "VerticesOfPolyhedron 2" in block
    assert parse_constraint_block(block) == poly


def test_parse_constraint_block_skips_blank_and_comment_lines():
    """Blank and whitespace-only lines, whole-line comments and trailing
    comments hold no field, so the block parses as its clean form."""
    clean = "amb_space 2\nconstraints 3\n1 0 >= 0\n1 2 >= 1\n2 1 >= 1\n"
    noisy = (
        "# a covering-form block\n\n  \n"
        "amb_space 2   # the dimension\n"
        "\t\n"
        "constraints 3\n"
        "   # the rows\n"
        "1 0 >= 0\n"
        "1 2 >= 1 # first column\n"
        "2 1 >= 1#second column\n"
        "\n"
    )
    assert parse_constraint_block(noisy) == parse_constraint_block(clean)


def test_constraint_block_skips_output_keywords():
    text = (
        "amb_space 2\n"
        "constraints 3\n"
        "1 0 >= 0\n"
        "0 1 >= 0\n"
        "1 2 >= 1\n"
        "SupportHyperplanes\n"
        "ExtremeRays\n"
    )
    poly = parse_constraint_block(text)
    assert poly.num_vars == 2
    assert poly.columns == ((1, 2),)


@pytest.mark.parametrize(
    "text, message",
    [
        ("amb_space 2\namb_space 2\n", "line 2: duplicate amb_space"),
        ("amb_space\n", "line 1: expected: amb_space <dimension>"),
        ("amb_space two\n", "line 1: expected: amb_space <dimension>"),
        ("amb_space 0\n", "line 1: expected: amb_space <dimension>"),
        pytest.param(
            "amb_space " + "9" * 5000 + "\n",
            "line 1: an integer of 5000 digits is too long",
            id="amb_space-5000-digits",
        ),
        ("constraints 1\n1 1 >= 1\n", "line 1: constraints before amb_space"),
        ("amb_space 2\nconstraints many\n", "line 2: expected: constraints <count>"),
        pytest.param(
            "amb_space 2\nconstraints " + "9" * 5000 + "\n",
            "line 2: an integer of 5000 digits is too long",
            id="constraints-5000-digits",
        ),
        ("1 1 >= 1\n", "line 1: constraint row before amb_space"),
        ("amb_space 2\n1 >= 1\n", "line 2: expected 2 coefficients, '>=' and a right-hand side"),
        ("amb_space 2\n1 1 <= 1\n", "line 2: expected 2 coefficients, '>=' and a right-hand side"),
        ("amb_space 2\n1 x >= 1\n", "line 2: coefficients must be integers or fractions p/q"),
        ("amb_space 2\n1/0 1 >= 1\n", "line 2: coefficients must be integers or fractions p/q"),
        ("amb_space 2\n-1 1 >= 1\n", "line 2: covering form needs nonnegative coefficients"),
        (
            "amb_space 2\n1 1 >= 0\n",
            "line 2: right-hand side 0 is only for coordinate rows x_i >= 0",
        ),
        (
            "amb_space 2\n2 0 >= 0\n",
            "line 2: right-hand side 0 is only for coordinate rows x_i >= 0",
        ),
        ("amb_space 2\n1 1 >= 2\n", "line 2: right-hand side must be 0 or 1, got 2"),
        ("# no block\n", "missing amb_space line"),
        ("amb_space 2\nconstraints 3\n1 0 >= 0\n", "declared 3 constraints but found 1"),
        ("amb_space 2\n1 0 >= 0\n", "no constraint rows with right-hand side 1"),
    ],
)
def test_constraint_block_refusals(text, message):
    """Every refusal of the constraint block format, with its exact message."""
    with pytest.raises(FormatError) as info:
        parse_constraint_block(text)
    assert str(info.value) == message
