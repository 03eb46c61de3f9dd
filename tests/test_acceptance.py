"""Acceptance gate: the worked examples, the power classifications on a
random population, the polyhedral characterization, and CLI parity.

Each test is one criterion; the conftest summary hook prints a PASS/FAIL
line per criterion at the end of the run.
"""

import random

import pytest

from monideal.cli import main
from monideal.decomposition import (
    MonomialPrime,
    associated_primes,
    irreducible_decomposition,
    minimal_primes,
)
from monideal.fixtures import (
    FOUR_CYCLE_CLOSURE_GENS,
    FOUR_CYCLE_DEC_ALPHAS,
    FOUR_CYCLE_DUAL_COMPONENT_ALPHAS,
    FOUR_CYCLE_DUAL_GENS,
    FOUR_CYCLE_DUAL_Q_VERTICES,
    FOUR_CYCLE_IDEAL_GENS,
    FOUR_CYCLE_Q_VERTICES,
    FOUR_CYCLE_SINKS,
    PATH_MIDDLE,
    PATH_MIDDLE_DEC_ALPHAS,
    PATH_MIDDLE_LOCALIZED_13,
    PATH_MIDDLE_LOCALIZED_23,
    SEVEN_CYCLE,
    SEVEN_CYCLE_FIRST_FAILURE,
    SEVEN_CYCLE_WITNESS,
    TRIANGLE_CYCLE,
    TRIANGLE_CYCLE_DEC_ALPHAS,
    TRIANGLE_CYCLE_SQUARE_WITNESSES,
    TRIANGLE_NONSINK,
    TRIANGLE_NONSINK_DEC_ALPHAS,
    TRIANGLE_NONSINK_SQUARE_WITNESS,
    TRIANGLE_SINK,
    TRIANGLE_SINK_DEC_ALPHAS,
    TRIANGLE_SINK_SQUARE_WITNESS,
)
from monideal.graphs import (
    alexander_dual,
    classify,
    decomposition_via_covers,
    edge_ideal,
    irrelevant_in_ass,
    non_sink_witness,
)
from monideal.polyhedra import (
    closure_member_by_power_scan,
    covering_polyhedron,
    enumerate_vertices,
    integral_closure_power,
    irreducible_polyhedron,
    is_normal_up_to,
    newton_hrep,
    polyhedral_conditions_check,
)
from monideal.random_instances import random_graph
from monideal.symbolic import compare_powers, localize, symbolic_power_ass, symbolic_power_min

from conftest import random_ideal
from oracles import ass_witness_oracle, colon_prime_scan, polyhedra_equal

POPULATION_SEED = 20260823
ORACLE_SEED = 414243


@pytest.fixture(scope="session")
def wog_population():
    """200 weighted oriented graphs on up to 6 vertices, weights up to 3,
    with their first three power comparisons and the classification."""
    rng = random.Random(POPULATION_SEED)
    rows = []
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 6))
        I = edge_ideal(g)
        reports = {n: compare_powers(I, n) for n in (1, 2, 3)}
        rows.append((g, reports, classify(g)))
    return rows


@pytest.fixture(scope="session")
def random_ideal_population():
    rng = random.Random(ORACLE_SEED)
    return [random_ideal(rng, rng.randint(1, 4)) for _ in range(100)]


def test_c01_four_cycle_worked_example():
    g = FOUR_CYCLE_SINKS.graph
    I = edge_ideal(g)
    assert I.gens == FOUR_CYCLE_IDEAL_GENS
    dec = irreducible_decomposition(I)
    assert dec.alphas() == FOUR_CYCLE_DEC_ALPHAS

    for n in range(1, 5):
        report = compare_powers(I, n)
        assert report.equal_min and report.equal_ass
        assert report.witnesses == ()

    closure = integral_closure_power(I, 1)
    assert closure.gens == FOUR_CYCLE_CLOSURE_GENS
    assert closure.contains((1, 1, 0, 1)) and not I.contains((1, 1, 0, 1))
    assert enumerate_vertices(covering_polyhedron(I)) == FOUR_CYCLE_Q_VERTICES

    dual = alexander_dual(g)
    assert dual.ideal.gens == FOUR_CYCLE_DUAL_GENS
    assert dual.decomposition.alphas() == FOUR_CYCLE_DUAL_COMPONENT_ALPHAS
    assert len(dual.decomposition.components) == 4
    assert is_normal_up_to(dual.ideal, 3)
    assert polyhedra_equal(
        newton_hrep(dual.ideal), irreducible_polyhedron(dual.decomposition)
    )
    assert enumerate_vertices(covering_polyhedron(dual.ideal)) == FOUR_CYCLE_DUAL_Q_VERTICES


def test_c02_triangle_cycle_embedded_prime():
    g = TRIANGLE_CYCLE.graph
    I = edge_ideal(g)
    assert irreducible_decomposition(I).alphas() == TRIANGLE_CYCLE_DEC_ALPHAS

    m = MonomialPrime(3, frozenset({1, 2, 3}))
    assert m in associated_primes(I)
    assert ass_witness_oracle(I, m, 2) is not None
    assert irrelevant_in_ass(g)

    assert symbolic_power_min(I, 1) != I
    for n in range(1, 4):
        assert symbolic_power_ass(I, n) == I ** n
    assert compare_powers(I, 2).witnesses == TRIANGLE_CYCLE_SQUARE_WITNESSES


def test_c03_triangle_non_sink_heavy():
    g = TRIANGLE_NONSINK.graph
    I = edge_ideal(g)
    assert irreducible_decomposition(I).alphas() == TRIANGLE_NONSINK_DEC_ALPHAS

    w = TRIANGLE_NONSINK_SQUARE_WITNESS
    assert symbolic_power_min(I, 2).contains(w)
    assert not (I ** 2).contains(w)

    report = classify(g)
    assert not report.square
    assert report.heavy_non_sinks == (2,)
    assert non_sink_witness(g) == w


def test_c04_triangle_sink_heavy():
    g = TRIANGLE_SINK.graph
    I = edge_ideal(g)
    assert irreducible_decomposition(I).alphas() == TRIANGLE_SINK_DEC_ALPHAS

    w = TRIANGLE_SINK_SQUARE_WITNESS
    assert symbolic_power_min(I, 2).contains(w)
    assert not (I ** 2).contains(w)

    report = classify(g)
    assert report.all_heavy_are_sinks
    assert report.has_triangle and not report.square


def test_c05_path_heavy_middle():
    g = PATH_MIDDLE.graph
    I = edge_ideal(g)
    assert irreducible_decomposition(I).alphas() == PATH_MIDDLE_DEC_ALPHAS

    assert localize(I, MonomialPrime(3, frozenset({2, 3}))).gens == PATH_MIDDLE_LOCALIZED_23
    assert localize(I, MonomialPrime(3, frozenset({1, 3}))).gens == PATH_MIDDLE_LOCALIZED_13

    assert symbolic_power_min(I, 2).contains((1, 2, 1))
    assert not (I ** 2).contains((1, 2, 1))
    for n in range(1, 4):
        assert symbolic_power_ass(I, n) == I ** n


def test_c06_square_classification_population(wog_population):
    for g, reports, cls in wog_population:
        predicted = cls.all_heavy_are_sinks and not cls.has_triangle
        assert cls.square == predicted
        assert reports[2].equal_min == predicted, f"exception at {g}"


def test_c07_all_powers_classification_population(wog_population):
    for g, reports, cls in wog_population:
        predicted = cls.all_heavy_are_sinks and cls.is_bipartite
        assert cls.all_powers == predicted
        observed = all(reports[n].equal_min for n in (1, 2, 3))
        assert observed == predicted, f"exception at {g}"

    I = edge_ideal(SEVEN_CYCLE.graph)
    for n in range(1, SEVEN_CYCLE_FIRST_FAILURE):
        assert compare_powers(I, n).equal_min
    failing = compare_powers(I, SEVEN_CYCLE_FIRST_FAILURE)
    assert not failing.equal_min
    assert SEVEN_CYCLE_WITNESS in failing.witnesses


def test_c08_polyhedral_conditions():
    g = FOUR_CYCLE_SINKS.graph
    for ideal in (edge_ideal(g), alexander_dual(g).ideal):
        report = polyhedral_conditions_check(ideal, 2, powers_equal=True)
        assert report.minimal
        assert report.closure_intersections
        assert report.newton_equals_irreducible
        assert report.vertices_are_component_inverses
        assert report.consistent is True


def test_c09_randomized_oracles(random_ideal_population):
    for I in random_ideal_population:
        dec = irreducible_decomposition(I)
        assert dec.intersection() == I
        assert associated_primes(I) == colon_prime_scan(I, 3)
        for p in minimal_primes(I):
            for n in (1, 2):
                assert localize(I ** n, p) == localize(I, p) ** n

        closure = integral_closure_power(I, 1)
        probes = set(closure.gens) | {(0,) * I.num_vars, (1,) * I.num_vars}
        for a in probes:
            found = closure_member_by_power_scan(I, a, 1)
            assert (found is not None) == closure.contains(a)

    rng = random.Random(ORACLE_SEED + 1)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 6))
        assert decomposition_via_covers(g) == irreducible_decomposition(edge_ideal(g))


SOLVER_VERTEX_BLOCK = (
    "amb_space 4\n"
    "constraints 8\n"
    "0 1 0 0 >= 0\n"
    "1 0 0 0 >= 0\n"
    "0 0 1 0 >= 0\n"
    "0 0 0 1 >= 0\n"
    "1 2 0 0 >= 1\n"
    "0 2 1 0 >= 1\n"
    "0 0 1 2 >= 1\n"
    "1 0 0 2 >= 1\n"
    "SupportHyperplanes\n"
    "ExtremeRays\n"
    "VerticesOfPolyhedron\n"
)


def test_c10_cli_parity(tmp_path, capsys):
    block = tmp_path / "quad.in"
    block.write_text(SOLVER_VERTEX_BLOCK)
    assert main(["poly-vertices", str(block), "--normaliz-format"]) == 0
    out = capsys.readouterr().out
    tail = out.strip().splitlines()
    assert tail[-3:] == ["VerticesOfPolyhedron 2", "0 1/2 0 1/2", "1 0 1 0"]

    ideal = tmp_path / "cycle.ideal"
    ideal.write_text("(t1*t2^2, t2*t3^2, t3*t1^2)\n")
    assert main(["compare", str(ideal), "--n", "2"]) == 0
    out = capsys.readouterr().out
    witness_lines = [l.strip() for l in out.splitlines()[out.splitlines().index("witnesses:") + 1:]]
    assert witness_lines == ["t1*t2^2*t3^2", "t1^2*t2*t3^2", "t1^2*t2^2*t3"]
