"""Small weighted oriented graphs with worked-out expected results.

Each fixture is a graph whose edge ideal exercises one corner of the
power-equality story: both classification conditions holding, each one
failing separately, embedded primes, and the smallest odd cycle whose
powers only go wrong at n = 4.  The expected values recorded next to each
builder were computed by hand (decompositions by repeated generator
splitting, symbolic powers through the localizations, polyhedron vertices
from the tight-constraint systems) and the test suite holds the code to
them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomposition import (
    MonomialPrime,
    embedded_primes,
    irreducible_decomposition,
    minimal_primes,
)
from .errors import UnknownFixture
from .graphs import (
    WeightedOrientedGraph,
    alexander_dual,
    classify,
    decomposition_via_covers,
    edge_ideal,
    irrelevant_in_ass,
    non_sink_witness,
    strong_covers,
)
from .polyhedra import (
    covering_polyhedron,
    enumerate_vertices,
    integral_closure_power,
    irreducible_polyhedron,
    is_normal_up_to,
    polyhedral_conditions_check,
)
from .symbolic import compare_powers, compare_powers_up_to, localize, max_ass


@dataclass(frozen=True)
class NamedGraph:
    name: str
    summary: str
    graph: WeightedOrientedGraph


def _frac_tuple(*entries) -> tuple[Fraction, ...]:
    return tuple(Fraction(e) for e in entries)


# ---------------------------------------------------------------- fixtures

# Oriented 4-cycle with both heavy vertices sinks: edges 1->2, 3->2, 3->4,
# 1->4 with w(2) = w(4) = 2.  Bipartite, no triangle, so ordinary and
# symbolic powers agree for every n.
FOUR_CYCLE_SINKS = NamedGraph(
    "four_cycle_sinks",
    "oriented 4-cycle, heavy vertices are the two sinks; powers agree",
    WeightedOrientedGraph.build(4, [(1, 2), (3, 2), (3, 4), (1, 4)], {2: 2, 4: 2}),
)

FOUR_CYCLE_IDEAL_GENS = ((0, 0, 1, 2), (0, 2, 1, 0), (1, 0, 0, 2), (1, 2, 0, 0))
FOUR_CYCLE_DEC_ALPHAS = ((1, 0, 1, 0), (0, 2, 0, 2))
FOUR_CYCLE_STRONG_COVERS = ((1, 3), (2, 4))
FOUR_CYCLE_Q_VERTICES = (
    _frac_tuple(0, "1/2", 0, "1/2"),
    _frac_tuple(1, 0, 1, 0),
)
# The dual ideal (intersection of one prime-power component per edge).
FOUR_CYCLE_DUAL_GENS = ((1, 0, 1, 0), (0, 2, 0, 2))
FOUR_CYCLE_DUAL_COMPONENT_ALPHAS = (
    (0, 0, 1, 2),
    (0, 2, 1, 0),
    (1, 0, 0, 2),
    (1, 2, 0, 0),
)
FOUR_CYCLE_DUAL_Q_VERTICES = (
    _frac_tuple(0, 0, 1, "1/2"),
    _frac_tuple(0, "1/2", 1, 0),
    _frac_tuple(1, 0, 0, "1/2"),
    _frac_tuple(1, "1/2", 0, 0),
)
# The edge ideal is not integrally closed: two monomials join at n = 1.
FOUR_CYCLE_CLOSURE_GENS = (
    (0, 0, 1, 2),
    (0, 1, 1, 1),
    (0, 2, 1, 0),
    (1, 0, 0, 2),
    (1, 1, 0, 1),
    (1, 2, 0, 0),
)

# Oriented triangle 1->2->3->1 with every weight 2: no sinks at all, and
# the whole vertex set is a strong cover, so the irrelevant prime is
# associated already at n = 1.
TRIANGLE_CYCLE = NamedGraph(
    "triangle_cycle",
    "oriented 3-cycle, all weights 2; embedded irrelevant prime at n = 1",
    WeightedOrientedGraph.build(3, [(1, 2), (2, 3), (3, 1)], {1: 2, 2: 2, 3: 2}),
)

TRIANGLE_CYCLE_IDEAL_GENS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
TRIANGLE_CYCLE_DEC_ALPHAS = ((0, 2, 1), (1, 0, 2), (2, 1, 0), (2, 2, 2))
TRIANGLE_CYCLE_STRONG_COVERS = ((1, 2), (1, 3), (2, 3), (1, 2, 3))
TRIANGLE_CYCLE_MIN_SUPPORTS = frozenset(
    {frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})}
)
TRIANGLE_CYCLE_EMBEDDED_SUPPORTS = frozenset({frozenset({1, 2, 3})})
TRIANGLE_CYCLE_SYMBOLIC_SQUARE = (
    (1, 2, 2),
    (2, 1, 2),
    (2, 2, 1),
    (0, 2, 4),
    (2, 4, 0),
    (4, 0, 2),
)
TRIANGLE_CYCLE_SQUARE_WITNESSES = ((1, 2, 2), (2, 1, 2), (2, 2, 1))

# Triangle with a heavy non-sink: 1->2, 2->3, 1->3, w(2) = 2.  Vertex 2 is
# heavy but has an edge out, which alone forces symbolic != ordinary.
TRIANGLE_NONSINK = NamedGraph(
    "triangle_nonsink",
    "triangle with heavy vertex 2 not a sink; t1*t2^2*t3 splits the squares",
    WeightedOrientedGraph.build(3, [(1, 2), (2, 3), (1, 3)], {2: 2}),
)

TRIANGLE_NONSINK_IDEAL_GENS = ((0, 1, 1), (1, 0, 1), (1, 2, 0))
TRIANGLE_NONSINK_DEC_ALPHAS = ((1, 0, 1), (1, 1, 0), (0, 2, 1))
TRIANGLE_NONSINK_SQUARE_WITNESS = (1, 2, 1)

# Triangle with its only heavy vertex a sink: 2->1, 3->1, 2->3, w(1) = 2.
# The heavy-vertex condition holds, so the failure is the triangle's.
TRIANGLE_SINK = NamedGraph(
    "triangle_sink",
    "triangle whose heavy vertex is a sink; the odd cycle still breaks n = 2",
    WeightedOrientedGraph.build(3, [(2, 1), (3, 1), (2, 3)], {1: 2}),
)

TRIANGLE_SINK_IDEAL_GENS = ((0, 1, 1), (2, 0, 1), (2, 1, 0))
TRIANGLE_SINK_DEC_ALPHAS = ((0, 1, 1), (2, 0, 1), (2, 1, 0))
TRIANGLE_SINK_SQUARE_WITNESS = (2, 1, 1)

# Oriented path 1->2->3 with w(2) = 2.  The prime (t2, t3) is embedded, so
# the two symbolic-power candidates (minimal primes only, or all maximal
# associated primes) genuinely differ here.
PATH_MIDDLE = NamedGraph(
    "path_middle",
    "path 1->2->3 with heavy middle; embedded prime separates the two symbolic powers",
    WeightedOrientedGraph.build(3, [(1, 2), (2, 3)], {2: 2}),
)

PATH_MIDDLE_IDEAL_GENS = ((0, 1, 1), (1, 2, 0))
PATH_MIDDLE_DEC_ALPHAS = ((0, 1, 0), (1, 0, 1), (0, 2, 1))
PATH_MIDDLE_MIN_SUPPORTS = frozenset({frozenset({2}), frozenset({1, 3})})
PATH_MIDDLE_EMBEDDED_SUPPORTS = frozenset({frozenset({2, 3})})
PATH_MIDDLE_MAX_ASS_SUPPORTS = frozenset({frozenset({2, 3}), frozenset({1, 3})})
# localizations at the two maximal associated primes
PATH_MIDDLE_LOCALIZED_23 = ((0, 1, 1), (0, 2, 0))
PATH_MIDDLE_LOCALIZED_13 = ((0, 0, 1), (1, 0, 0))
PATH_MIDDLE_SYMBOLIC_SQUARE = ((0, 2, 2), (1, 2, 1), (2, 2, 0))
PATH_MIDDLE_SQUARE_WITNESSES = ((1, 2, 1), (2, 2, 0))

# Unweighted directed 7-cycle.  Bipartiteness is the only failing
# condition, and the first power where symbolic and ordinary separate is
# n = 4 with the product of all variables as witness.
SEVEN_CYCLE = NamedGraph(
    "seven_cycle",
    "unweighted oriented 7-cycle; powers agree up to 3 and split at 4",
    WeightedOrientedGraph.build(7, [(i, i % 7 + 1) for i in range(1, 8)], {}),
)

SEVEN_CYCLE_FIRST_FAILURE = 4
SEVEN_CYCLE_WITNESS = (1, 1, 1, 1, 1, 1, 1)
SEVEN_CYCLE_COVER_COUNT = 7

ALL_FIXTURES: tuple[NamedGraph, ...] = (
    FOUR_CYCLE_SINKS,
    TRIANGLE_CYCLE,
    TRIANGLE_NONSINK,
    TRIANGLE_SINK,
    PATH_MIDDLE,
    SEVEN_CYCLE,
)


def fixture(name: str) -> NamedGraph:
    for item in ALL_FIXTURES:
        if item.name == name:
            return item
    known = ", ".join(item.name for item in ALL_FIXTURES)
    raise UnknownFixture(f"no fixture named {name!r} (known: {known})")


# ------------------------------------------------------------ check lists
#
# Each fixture carries a list of (label, holds) assertions tying the code
# to the expected values above.  The CLI `examples` command prints them as
# PASS/FAIL lines and the acceptance tests require every one to hold.


def _four_cycle_checks():
    graph = FOUR_CYCLE_SINKS.graph
    ideal = edge_ideal(graph)
    dec = irreducible_decomposition(ideal)
    dual = alexander_dual(graph)
    dual_vertices = enumerate_vertices(covering_polyhedron(dual.ideal))
    closure = integral_closure_power(ideal, 1)
    report = classify(graph)
    checks = [
        ("edge ideal generators", ideal.gens == FOUR_CYCLE_IDEAL_GENS),
        ("two-component decomposition", dec.alphas() == FOUR_CYCLE_DEC_ALPHAS),
        (
            "strong covers",
            tuple(tuple(sorted(p.cover)) for p in strong_covers(graph))
            == FOUR_CYCLE_STRONG_COVERS,
        ),
        ("cover decomposition matches splitting", decomposition_via_covers(graph) == dec),
        (
            "covering polyhedron vertices",
            enumerate_vertices(covering_polyhedron(ideal)) == FOUR_CYCLE_Q_VERTICES,
        ),
        (
            "t1*t2*t4 joins the closure of I",
            closure.contains((1, 1, 0, 1)) and not ideal.contains((1, 1, 0, 1)),
        ),
        ("closure of I generators", closure.gens == FOUR_CYCLE_CLOSURE_GENS),
        ("dual ideal generators", dual.ideal.gens == FOUR_CYCLE_DUAL_GENS),
        (
            "dual has four components",
            dual.decomposition.alphas() == FOUR_CYCLE_DUAL_COMPONENT_ALPHAS,
        ),
        (
            "dual decomposition recomputed",
            irreducible_decomposition(dual.ideal) == dual.decomposition,
        ),
        (
            "dual covering polyhedron vertices",
            dual_vertices == FOUR_CYCLE_DUAL_Q_VERTICES,
        ),
        ("dual normal up to 3", is_normal_up_to(dual.ideal, 3)),
        (
            # NP(I) == IP(I) iff V <= C; see the polyhedra module docstring.
            "dual Newton equals irreducible polyhedron",
            set(dual_vertices) <= set(irreducible_polyhedron(dual.decomposition).columns),
        ),
        (
            "classified square/all-powers/ntf",
            report.square and report.all_powers and report.ntf is True,
        ),
    ]
    for rep in compare_powers_up_to(ideal, 4):
        checks.append((f"powers agree at n={rep.n}", rep.equal_min and rep.equal_ass))
    for label, target in (("I", ideal), ("J", dual.ideal)):
        cond = polyhedral_conditions_check(target, 2, powers_equal=True)
        checks.append(
            (
                f"polyhedral conditions (a)(b)(c) for {label}",
                bool(
                    cond.minimal
                    and cond.closure_intersections
                    and cond.newton_equals_irreducible
                    and cond.vertices_are_component_inverses
                    and cond.consistent
                ),
            )
        )
    return checks


def _triangle_cycle_checks():
    graph = TRIANGLE_CYCLE.graph
    ideal = edge_ideal(graph)
    dec = irreducible_decomposition(ideal)
    reps = list(compare_powers_up_to(ideal, 3))
    rep2 = reps[1]
    report = classify(graph)
    witness = non_sink_witness(graph)
    checks = [
        ("edge ideal generators", ideal.gens == TRIANGLE_CYCLE_IDEAL_GENS),
        ("four-component decomposition", dec.alphas() == TRIANGLE_CYCLE_DEC_ALPHAS),
        (
            "strong covers include the whole vertex set",
            tuple(tuple(sorted(p.cover)) for p in strong_covers(graph))
            == TRIANGLE_CYCLE_STRONG_COVERS,
        ),
        ("cover decomposition matches splitting", decomposition_via_covers(graph) == dec),
        (
            "minimal primes",
            {p.support for p in minimal_primes(ideal)} == TRIANGLE_CYCLE_MIN_SUPPORTS,
        ),
        (
            "embedded primes",
            {p.support for p in embedded_primes(ideal)}
            == TRIANGLE_CYCLE_EMBEDDED_SUPPORTS,
        ),
        ("full prime associated via all three criteria", irrelevant_in_ass(graph)),
        ("first symbolic power exceeds I", reps[0].symbolic_min != ideal),
        (
            "symbolic square generators",
            rep2.symbolic_min.gens == TRIANGLE_CYCLE_SYMBOLIC_SQUARE,
        ),
        (
            "square witnesses",
            not rep2.equal_min and rep2.witnesses == TRIANGLE_CYCLE_SQUARE_WITNESSES,
        ),
        (
            "non-sink witness monomial",
            witness == (2, 2, 1) and witness in rep2.witnesses,
        ),
        (
            "classified with embedded primes",
            not report.square
            and not report.all_powers
            and report.ntf is None
            and report.has_embedded_primes is True,
        ),
    ]
    for rep in reps:
        checks.append((f"I<{rep.n}> equals I^{rep.n}", rep.equal_ass))
    return checks


def _triangle_nonsink_checks():
    graph = TRIANGLE_NONSINK.graph
    ideal = edge_ideal(graph)
    dec = irreducible_decomposition(ideal)
    rep2 = compare_powers(ideal, 2)
    report = classify(graph)
    wit = TRIANGLE_NONSINK_SQUARE_WITNESS
    return [
        ("edge ideal generators", ideal.gens == TRIANGLE_NONSINK_IDEAL_GENS),
        ("decomposition", dec.alphas() == TRIANGLE_NONSINK_DEC_ALPHAS),
        ("cover decomposition matches splitting", decomposition_via_covers(graph) == dec),
        ("no embedded primes", not embedded_primes(ideal)),
        (
            "t1*t2^2*t3 separates the squares",
            not rep2.equal_min
            and wit in rep2.witnesses
            and not rep2.ordinary.contains(wit),
        ),
        ("witness from the heavy non-sink", non_sink_witness(graph) == wit),
        (
            "square fails with a heavy non-sink cause",
            not report.square and report.heavy_non_sinks == (2,),
        ),
        ("not torsion-free", report.ntf is False),
    ]


def _triangle_sink_checks():
    graph = TRIANGLE_SINK.graph
    ideal = edge_ideal(graph)
    dec = irreducible_decomposition(ideal)
    rep2 = compare_powers(ideal, 2)
    report = classify(graph)
    wit = TRIANGLE_SINK_SQUARE_WITNESS
    return [
        ("edge ideal generators", ideal.gens == TRIANGLE_SINK_IDEAL_GENS),
        ("decomposition", dec.alphas() == TRIANGLE_SINK_DEC_ALPHAS),
        ("cover decomposition matches splitting", decomposition_via_covers(graph) == dec),
        (
            "t1^2*t2*t3 separates the squares",
            not rep2.equal_min
            and wit in rep2.witnesses
            and not rep2.ordinary.contains(wit),
        ),
        (
            "heavy vertex is a sink",
            graph.weights == (2, 1, 1) and report.all_heavy_are_sinks,
        ),
        (
            "square fails through the triangle alone",
            not report.square and report.has_triangle and not report.heavy_non_sinks,
        ),
        ("no witness from non-sinks", non_sink_witness(graph) is None),
    ]


def _path_middle_checks():
    graph = PATH_MIDDLE.graph
    ideal = edge_ideal(graph)
    dec = irreducible_decomposition(ideal)
    reps = list(compare_powers_up_to(ideal, 3))
    rep2 = reps[1]
    report = classify(graph)
    p23 = MonomialPrime(3, frozenset({2, 3}))
    p13 = MonomialPrime(3, frozenset({1, 3}))
    checks = [
        ("edge ideal generators", ideal.gens == PATH_MIDDLE_IDEAL_GENS),
        ("three-component decomposition", dec.alphas() == PATH_MIDDLE_DEC_ALPHAS),
        ("cover decomposition matches splitting", decomposition_via_covers(graph) == dec),
        (
            "minimal primes",
            {p.support for p in minimal_primes(ideal)} == PATH_MIDDLE_MIN_SUPPORTS,
        ),
        (
            "embedded primes",
            {p.support for p in embedded_primes(ideal)} == PATH_MIDDLE_EMBEDDED_SUPPORTS,
        ),
        (
            "maximal associated primes",
            {p.support for p in max_ass(ideal)} == PATH_MIDDLE_MAX_ASS_SUPPORTS,
        ),
        (
            "localization at (t2, t3)",
            localize(ideal, p23).gens == PATH_MIDDLE_LOCALIZED_23,
        ),
        (
            "localization at (t1, t3)",
            localize(ideal, p13).gens == PATH_MIDDLE_LOCALIZED_13,
        ),
        (
            "symbolic square and witnesses",
            rep2.witnesses == PATH_MIDDLE_SQUARE_WITNESSES
            and rep2.symbolic_min.gens == PATH_MIDDLE_SYMBOLIC_SQUARE,
        ),
        (
            "t1*t2^2*t3 separates the squares",
            not rep2.equal_min and (1, 2, 1) in rep2.witnesses,
        ),
        (
            "classified with embedded primes",
            not report.square and report.ntf is None and report.has_embedded_primes,
        ),
    ]
    for rep in reps:
        checks.append((f"I<{rep.n}> equals I^{rep.n}", rep.equal_ass))
    return checks


def _seven_cycle_checks():
    graph = SEVEN_CYCLE.graph
    ideal = edge_ideal(graph)
    covers = strong_covers(graph)
    *agree, rep4 = compare_powers_up_to(ideal, SEVEN_CYCLE_FIRST_FAILURE)
    report = classify(graph)
    checks = [
        (
            "seven strong covers of size four",
            len(covers) == SEVEN_CYCLE_COVER_COUNT
            and all(len(p.cover) == 4 for p in covers),
        ),
        (
            "cover decomposition matches splitting",
            decomposition_via_covers(graph) == irreducible_decomposition(ideal),
        ),
        (
            "failure at n=4 with the all-ones witness",
            not rep4.equal_min and rep4.witnesses == (SEVEN_CYCLE_WITNESS,),
        ),
        (
            "triangle-free non-bipartite classification",
            report.square and not report.all_powers and report.odd_girth == 7,
        ),
    ]
    for rep in agree:
        checks.append((f"powers agree at n={rep.n}", rep.equal_min))
    return checks


_CHECKS = {
    "four_cycle_sinks": _four_cycle_checks,
    "triangle_cycle": _triangle_cycle_checks,
    "triangle_nonsink": _triangle_nonsink_checks,
    "triangle_sink": _triangle_sink_checks,
    "path_middle": _path_middle_checks,
    "seven_cycle": _seven_cycle_checks,
}


def fixture_checks(name: str) -> tuple[tuple[str, bool], ...]:
    """(label, holds) pairs tying one fixture to its expected values."""
    if name not in _CHECKS:
        fixture(name)  # raises with the known names
    return tuple((label, bool(ok)) for label, ok in _CHECKS[name]())
