"""Small weighted oriented graphs with worked-out expected results.

Each fixture is a graph whose edge ideal exercises one corner of the
power-equality story: both classification conditions holding, each one
failing separately, embedded primes, and the smallest odd cycle whose
powers only go wrong at n = 4.  The expected values recorded next to each
builder, or in its rows, were computed by hand (decompositions by repeated
generator splitting, symbolic powers through the localizations, polyhedron
vertices from the tight-constraint systems) and the test suite holds the
code to them exactly.

The checks are one table read by one evaluator.  `_TABLE` holds each
fixture's rows (label, probe, args, expected), and a row holds when the
probe, looked up in the shared `_PROBES`, returns the expected value.
`fixture_checks` evaluates a fixture's rows over its facts (edge ideal,
decomposition, `classify` report, dual, closure, one power walk), each
computed at most once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter

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
from .symbolic import compare_powers_up_to, localize, max_ass


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

TRIANGLE_NONSINK_DEC_ALPHAS = ((1, 0, 1), (1, 1, 0), (0, 2, 1))
TRIANGLE_NONSINK_SQUARE_WITNESS = (1, 2, 1)

# Triangle with its only heavy vertex a sink: 2->1, 3->1, 2->3, w(1) = 2.
# The heavy-vertex condition holds, so the failure is the triangle's.
TRIANGLE_SINK = NamedGraph(
    "triangle_sink",
    "triangle whose heavy vertex is a sink; the odd cycle still breaks n = 2",
    WeightedOrientedGraph.build(3, [(2, 1), (3, 1), (2, 3)], {1: 2}),
)

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

PATH_MIDDLE_DEC_ALPHAS = ((0, 1, 0), (1, 0, 1), (0, 2, 1))
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


# ------------------------------------------------------------- check table
#
# A row (label, probe, args, expected) of `_TABLE` holds when
# `_PROBES[probe](facts, *args) == expected`, where the facts are the
# objects a fixture's rows share (`_FACTS`).  The CLI `examples` command
# prints the rows as PASS/FAIL lines and the acceptance tests require every
# one to hold.

_FACTS = {
    "ideal": lambda f: edge_ideal(f.graph),
    "dec": lambda f: irreducible_decomposition(f.ideal),
    "report": lambda f: classify(f.graph),
    "dual": lambda f: alexander_dual(f.graph),
    "dual_vertices": lambda f: enumerate_vertices(covering_polyhedron(f.dual.ideal)),
    "closure": lambda f: integral_closure_power(f.ideal, 1),
    # the reports of one walk to the fixture's largest n, keyed by n
    "powers": lambda f: {rep.n: rep for rep in compare_powers_up_to(f.ideal, f.max_n)},
}


class _Facts:
    """One fixture's facts: each is computed on first read and then stored,
    so a `fixture_checks` call computes it at most once."""

    def __init__(self, graph: WeightedOrientedGraph, max_n: int):
        self.graph = graph
        self.max_n = max_n

    def __getattr__(self, name):
        if name not in _FACTS:
            raise AttributeError(name)
        value = self.__dict__[name] = _FACTS[name](self)
        return value


def _separates(facts, n, m):
    rep = facts.powers[n]
    return rep.equal_min, m in rep.witnesses, rep.ordinary.contains(m)


def _non_sink_witness(facts, n):
    w = non_sink_witness(facts.graph)
    return w, w in facts.powers[n].witnesses


_CONDITIONS = ("minimal", "closure_intersections", "newton_equals_irreducible",
               "vertices_are_component_inverses", "consistent")

# `read` takes dotted paths from the facts, `power` from the report at n:
# one path reads its value, several a tuple of their values.
_PROBES = {
    "read": lambda f, *paths: attrgetter(*paths)(f),
    "power": lambda f, n, *paths: attrgetter(*paths)(f.powers[n]),
    "alphas": lambda f, path: attrgetter(path)(f).alphas(),
    "covers": lambda f: tuple(tuple(sorted(p.cover)) for p in strong_covers(f.graph)),
    "cover sizes": lambda f: tuple(len(p.cover) for p in strong_covers(f.graph)),
    "cover route": lambda f: decomposition_via_covers(f.graph) == f.dec,
    "supports": lambda f, primes: {p.support for p in primes(f.ideal)},
    "localized": lambda f, *support: localize(
        f.ideal, MonomialPrime(f.graph.num_vertices, frozenset(support))
    ).gens,
    "vertices": lambda f: enumerate_vertices(covering_polyhedron(f.ideal)),
    # (m in the closure of I, m in I)
    "closure joins": lambda f, m: (f.closure.contains(m), f.ideal.contains(m)),
    "dual recomputed": lambda f: irreducible_decomposition(f.dual.ideal) == f.dual.decomposition,
    "dual normal": lambda f, n: is_normal_up_to(f.dual.ideal, n),
    # NP(J) == IP(J) iff V <= C; see the polyhedra module docstring.
    "dual newton": lambda f: set(f.dual_vertices) <= set(
        irreducible_polyhedron(f.dual.decomposition).columns
    ),
    "irrelevant prime": lambda f: irrelevant_in_ass(f.graph),
    "symbolic exceeds I": lambda f, n: f.powers[n].symbolic_min != f.ideal,
    # (equal_min at n, m a witness at n, m in I^n)
    "separates": _separates,
    # (the non-sink witness, whether it is a witness at n)
    "non-sink witness": _non_sink_witness,
    "conditions": lambda f, path: attrgetter(*_CONDITIONS)(
        polyhedral_conditions_check(attrgetter(path)(f), 2, powers_equal=True)
    ),
}

_ROUTE = ("cover decomposition matches splitting", "cover route", (), True)
_SEPARATED = (False, True, False)

# name -> (largest n of the power walk, rows in output order)
_TABLE = {
    "four_cycle_sinks": (4, (
        ("edge ideal generators", "read", ("ideal.gens",), FOUR_CYCLE_IDEAL_GENS),
        ("two-component decomposition", "alphas", ("dec",), FOUR_CYCLE_DEC_ALPHAS),
        ("strong covers", "covers", (), FOUR_CYCLE_STRONG_COVERS),
        _ROUTE,
        ("covering polyhedron vertices", "vertices", (), FOUR_CYCLE_Q_VERTICES),
        ("t1*t2*t4 joins the closure of I", "closure joins", ((1, 1, 0, 1),), (True, False)),
        ("closure of I generators", "read", ("closure.gens",), FOUR_CYCLE_CLOSURE_GENS),
        ("dual ideal generators", "read", ("dual.ideal.gens",), FOUR_CYCLE_DUAL_GENS),
        ("dual has four components", "alphas", ("dual.decomposition",),
         FOUR_CYCLE_DUAL_COMPONENT_ALPHAS),
        ("dual decomposition recomputed", "dual recomputed", (), True),
        ("dual covering polyhedron vertices", "read", ("dual_vertices",),
         FOUR_CYCLE_DUAL_Q_VERTICES),
        ("dual normal up to 3", "dual normal", (3,), True),
        ("dual Newton equals irreducible polyhedron", "dual newton", (), True),
        ("classified square/all-powers/ntf", "read",
         ("report.square", "report.all_powers", "report.ntf"), (True, True, True)),
        *((f"powers agree at n={n}", "power", (n, "equal_min", "equal_ass"), (True, True))
          for n in range(1, 5)),
        *((f"polyhedral conditions (a)(b)(c) for {label}", "conditions", (path,), (True,) * 5)
          for label, path in (("I", "ideal"), ("J", "dual.ideal"))),
    )),
    "triangle_cycle": (3, (
        ("edge ideal generators", "read", ("ideal.gens",), ((0, 1, 2), (1, 2, 0), (2, 0, 1))),
        ("four-component decomposition", "alphas", ("dec",), TRIANGLE_CYCLE_DEC_ALPHAS),
        ("strong covers include the whole vertex set", "covers", (),
         TRIANGLE_CYCLE_STRONG_COVERS),
        _ROUTE,
        ("minimal primes", "supports", (minimal_primes,), TRIANGLE_CYCLE_MIN_SUPPORTS),
        ("embedded primes", "supports", (embedded_primes,), TRIANGLE_CYCLE_EMBEDDED_SUPPORTS),
        ("full prime associated via all three criteria", "irrelevant prime", (), True),
        ("first symbolic power exceeds I", "symbolic exceeds I", (1,), True),
        ("symbolic square generators", "power", (2, "symbolic_min.gens"),
         TRIANGLE_CYCLE_SYMBOLIC_SQUARE),
        ("square witnesses", "power", (2, "equal_min", "witnesses"),
         (False, TRIANGLE_CYCLE_SQUARE_WITNESSES)),
        ("non-sink witness monomial", "non-sink witness", (2,), ((2, 2, 1), True)),
        ("classified with embedded primes", "read",
         ("report.square", "report.all_powers", "report.ntf", "report.has_embedded_primes"),
         (False, False, None, True)),
        *((f"I<{n}> equals I^{n}", "power", (n, "equal_ass"), True) for n in range(1, 4)),
    )),
    "triangle_nonsink": (2, (
        ("edge ideal generators", "read", ("ideal.gens",), ((0, 1, 1), (1, 0, 1), (1, 2, 0))),
        ("decomposition", "alphas", ("dec",), TRIANGLE_NONSINK_DEC_ALPHAS),
        _ROUTE,
        ("no embedded primes", "supports", (embedded_primes,), set()),
        ("t1*t2^2*t3 separates the squares", "separates",
         (2, TRIANGLE_NONSINK_SQUARE_WITNESS), _SEPARATED),
        ("witness from the heavy non-sink", "non-sink witness", (2,),
         (TRIANGLE_NONSINK_SQUARE_WITNESS, True)),
        ("square fails with a heavy non-sink cause", "read",
         ("report.square", "report.heavy_non_sinks"), (False, (2,))),
        ("not torsion-free", "read", ("report.ntf",), False),
    )),
    "triangle_sink": (2, (
        ("edge ideal generators", "read", ("ideal.gens",), ((0, 1, 1), (2, 0, 1), (2, 1, 0))),
        ("decomposition", "alphas", ("dec",), TRIANGLE_SINK_DEC_ALPHAS),
        _ROUTE,
        ("t1^2*t2*t3 separates the squares", "separates",
         (2, TRIANGLE_SINK_SQUARE_WITNESS), _SEPARATED),
        ("heavy vertex is a sink", "read",
         ("graph.weights", "report.all_heavy_are_sinks"), ((2, 1, 1), True)),
        ("square fails through the triangle alone", "read",
         ("report.square", "report.has_triangle", "report.heavy_non_sinks"), (False, True, ())),
        ("no witness from non-sinks", "non-sink witness", (2,), (None, False)),
    )),
    "path_middle": (3, (
        ("edge ideal generators", "read", ("ideal.gens",), ((0, 1, 1), (1, 2, 0))),
        ("three-component decomposition", "alphas", ("dec",), PATH_MIDDLE_DEC_ALPHAS),
        _ROUTE,
        ("minimal primes", "supports", (minimal_primes,), {frozenset({2}), frozenset({1, 3})}),
        ("embedded primes", "supports", (embedded_primes,), {frozenset({2, 3})}),
        ("maximal associated primes", "supports", (max_ass,), PATH_MIDDLE_MAX_ASS_SUPPORTS),
        ("localization at (t2, t3)", "localized", (2, 3), PATH_MIDDLE_LOCALIZED_23),
        ("localization at (t1, t3)", "localized", (1, 3), PATH_MIDDLE_LOCALIZED_13),
        ("symbolic square and witnesses", "power", (2, "witnesses", "symbolic_min.gens"),
         (PATH_MIDDLE_SQUARE_WITNESSES, PATH_MIDDLE_SYMBOLIC_SQUARE)),
        ("t1*t2^2*t3 separates the squares", "separates", (2, (1, 2, 1)), _SEPARATED),
        ("classified with embedded primes", "read",
         ("report.square", "report.ntf", "report.has_embedded_primes"), (False, None, True)),
        *((f"I<{n}> equals I^{n}", "power", (n, "equal_ass"), True) for n in range(1, 4)),
    )),
    "seven_cycle": (SEVEN_CYCLE_FIRST_FAILURE, (
        ("seven strong covers of size four", "cover sizes", (), (4,) * SEVEN_CYCLE_COVER_COUNT),
        _ROUTE,
        ("failure at n=4 with the all-ones witness", "power",
         (SEVEN_CYCLE_FIRST_FAILURE, "equal_min", "witnesses"), (False, (SEVEN_CYCLE_WITNESS,))),
        ("triangle-free non-bipartite classification", "read",
         ("report.square", "report.all_powers", "report.odd_girth"), (True, False, 7)),
        *((f"powers agree at n={n}", "power", (n, "equal_min"), True)
          for n in range(1, SEVEN_CYCLE_FIRST_FAILURE)),
    )),
}


def fixture_checks(name: str) -> tuple[tuple[str, bool], ...]:
    """(label, holds) pairs tying one fixture to its expected values."""
    named = fixture(name)
    max_n, rows = _TABLE[named.name]
    facts = _Facts(named.graph, max_n)
    return tuple(
        (label, bool(_PROBES[probe](facts, *args) == expected))
        for label, probe, args, expected in rows
    )
