"""Symbolic powers, localizations, and the two power-comparison routes."""

from functools import reduce

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from monideal.errors import DomainError
from monideal.decomposition import (
    MonomialPrime,
    embedded_primes,
    irreducible_decomposition,
    minimal_primes,
)
from monideal.fixtures import (
    ALL_FIXTURES,
    PATH_MIDDLE,
    PATH_MIDDLE_LOCALIZED_13,
    PATH_MIDDLE_LOCALIZED_23,
    PATH_MIDDLE_MAX_ASS_SUPPORTS,
    PATH_MIDDLE_SQUARE_WITNESSES,
    PATH_MIDDLE_SYMBOLIC_SQUARE,
    TRIANGLE_CYCLE,
    TRIANGLE_CYCLE_SQUARE_WITNESSES,
    TRIANGLE_CYCLE_SYMBOLIC_SQUARE,
    TRIANGLE_NONSINK,
    TRIANGLE_NONSINK_SQUARE_WITNESS,
    TRIANGLE_SINK,
    TRIANGLE_SINK_SQUARE_WITNESS,
    FOUR_CYCLE_SINKS,
)
from monideal.graphs import edge_ideal
from monideal import symbolic
from monideal.ideals import MonomialIdeal, parse_ideal
from monideal.symbolic import (
    compare_powers,
    is_ntf_up_to,
    localize,
    max_ass,
    powers_equal_up_to,
    symbolic_power_ass,
    symbolic_power_min,
)

from conftest import graphs, ideals
from test_ideals import naive_intersection


def test_localize_drops_foreign_variables():
    I = edge_ideal(PATH_MIDDLE.graph)
    p23 = MonomialPrime(3, frozenset({2, 3}))
    p13 = MonomialPrime(3, frozenset({1, 3}))
    assert localize(I, p23).gens == PATH_MIDDLE_LOCALIZED_23
    assert localize(I, p13).gens == PATH_MIDDLE_LOCALIZED_13


def test_localize_at_non_ass_prime_can_blow_up():
    I = parse_ideal("(t1)", num_vars=2)
    assert localize(I, MonomialPrime(2, frozenset({2}))).is_unit()


def test_max_ass_on_path():
    I = edge_ideal(PATH_MIDDLE.graph)
    assert {p.support for p in max_ass(I)} == PATH_MIDDLE_MAX_ASS_SUPPORTS


def test_symbolic_square_of_path():
    I = edge_ideal(PATH_MIDDLE.graph)
    assert symbolic_power_min(I, 2).gens == PATH_MIDDLE_SYMBOLIC_SQUARE
    report = compare_powers(I, 2)
    assert not report.equal_min
    assert report.witnesses == PATH_MIDDLE_SQUARE_WITNESSES
    assert report.equal_ass


def test_compare_powers_builds_only_what_is_read(monkeypatch):
    """The embedded prime (t1, t2, t3) of the path makes I<2> differ from
    I^(2).  Reading `equal_min` alone never builds I<2>; reading
    `symbolic_ass` and then `equal_ass` twice builds it once."""
    I = edge_ideal(PATH_MIDDLE.graph)
    assert embedded_primes(I)
    real = symbolic.symbolic_power_ass
    calls = []

    def counting(ideal, n):
        calls.append(n)
        return real(ideal, n)

    monkeypatch.setattr(symbolic, "symbolic_power_ass", counting)
    assert not compare_powers(I, 2).equal_min
    assert calls == []

    report = compare_powers(I, 2)
    assert report.symbolic_ass != report.symbolic_min
    assert report.equal_ass and report.equal_ass
    assert calls == [2]


def _with_fixture_examples(test):
    """Pin each fixture graph's edge ideal at n = 2 and 3, so that ideals
    with embedded primes (the path and the weighted 3-cycle) are always
    drawn."""
    for item in ALL_FIXTURES:
        for n in (2, 3):
            test = example(edge_ideal(item.graph), n)(test)
    return test


@given(ideals(max_vars=3, max_gens=4), st.integers(min_value=1, max_value=3))
@_with_fixture_examples
@settings(max_examples=30)
def test_compare_powers_reports_both_symbolic_powers(I, n):
    """The shortcut for ideals without embedded primes changes no result."""
    report = compare_powers(I, n)
    assert report.symbolic_min == symbolic_power_min(I, n)
    assert report.witnesses == tuple(
        g for g in report.symbolic_min.gens if not report.ordinary.contains(g)
    )
    assert report.symbolic_ass == symbolic_power_ass(I, n)
    assert report.equal_ass == (report.ordinary == symbolic_power_ass(I, n))
    if not embedded_primes(I):
        assert report.symbolic_ass is report.symbolic_min


@given(graphs(), st.integers(min_value=1, max_value=3))
@settings(max_examples=60)
def test_symbolic_power_from_the_components_of_the_power(G, n):
    """I^(n) is the intersection of the irreducible components of I^n whose
    support is a minimal prime of I: localizing at p keeps q_a when
    supp(a) lies in p and sends it to the unit ideal otherwise."""
    I = edge_ideal(G)
    minimal = {p.support for p in minimal_primes(I)}
    components = [
        c.as_ideal()
        for c in irreducible_decomposition(I ** n).components
        if c.support() in minimal
    ]
    assert symbolic_power_min(I, n) == reduce(naive_intersection, components)


def test_symbolic_square_of_weighted_triangle():
    I = edge_ideal(TRIANGLE_CYCLE.graph)
    assert symbolic_power_min(I, 2).gens == TRIANGLE_CYCLE_SYMBOLIC_SQUARE
    assert compare_powers(I, 2).witnesses == TRIANGLE_CYCLE_SQUARE_WITNESSES


def test_single_square_witnesses_on_triangles():
    for named, witness in (
        (TRIANGLE_NONSINK, TRIANGLE_NONSINK_SQUARE_WITNESS),
        (TRIANGLE_SINK, TRIANGLE_SINK_SQUARE_WITNESS),
    ):
        I = edge_ideal(named.graph)
        assert symbolic_power_min(I, 2).contains(witness)
        assert not (I ** 2).contains(witness)


def test_symbolic_power_validates_n():
    I = parse_ideal("(t1)")
    with pytest.raises(DomainError):
        symbolic_power_min(I, 0)
    with pytest.raises(DomainError):
        symbolic_power_ass(I, -1)


@given(ideals(max_vars=3, max_gens=4), st.integers(min_value=1, max_value=3))
@settings(max_examples=25)
def test_power_chain_inclusions(I, n):
    """I^n is inside I<n> is inside I^(n), always."""
    ordinary = I ** n
    via_ass = symbolic_power_ass(I, n)
    via_min = symbolic_power_min(I, n)
    assert ordinary <= via_ass
    assert via_ass <= via_min


@given(ideals(max_vars=3, max_gens=4), st.integers(min_value=1, max_value=3))
@settings(max_examples=25)
def test_localization_commutes_with_powers(I, n):
    for p in minimal_primes(I):
        assert localize(I ** n, p) == localize(I, p) ** n


@given(ideals(max_vars=4, max_gens=5))
@settings(max_examples=30)
def test_first_symbolic_power_detects_embedded_primes(I):
    """I^(1) == I exactly when I has no embedded primes."""
    assert (symbolic_power_min(I, 1) == I) == (not embedded_primes(I))
    assert symbolic_power_ass(I, 1) == I


@given(ideals(max_vars=4, max_gens=5))
@example(edge_ideal(PATH_MIDDLE.graph))
@example(edge_ideal(TRIANGLE_CYCLE.graph))
@settings(max_examples=40)
def test_first_symbolic_power_matches_the_localized_fold(I):
    """symbolic_power_min(I, 1) returns I itself when Ass(I) = Min(I); on
    every ideal it must equal the intersection of the localizations at the
    minimal primes, formed pair by pair.  The path and the weighted
    3-cycle have embedded primes, so they take the fold."""
    localized = [localize(I, p) for p in minimal_primes(I)]
    assert symbolic_power_min(I, 1) == reduce(naive_intersection, localized)


@given(ideals(max_vars=3, max_gens=4), st.integers(min_value=1, max_value=2))
@settings(max_examples=25)
def test_max_ass_route_equals_full_ass_intersection(I, n):
    """Intersecting over all associated primes changes nothing: the
    localizations at non-maximal members are redundant."""
    from monideal.decomposition import associated_primes
    from monideal.ideals import intersect_all

    full = intersect_all(
        [localize(I ** n, p) for p in associated_primes(I)], I.num_vars
    )
    assert full == symbolic_power_ass(I, n)


@given(ideals(max_vars=3, max_gens=4))
@settings(max_examples=20)
def test_full_support_max_ass_makes_routes_agree(I):
    full = frozenset(range(1, I.num_vars + 1))
    if {p.support for p in max_ass(I)} == {full}:
        for n in (1, 2):
            assert symbolic_power_ass(I, n) == I ** n


def test_ntf_report_small_cases():
    I = edge_ideal(TRIANGLE_NONSINK.graph)
    report = is_ntf_up_to(I, 2)
    assert not report.holds
    assert report.bound == 2
    by_power = dict(report.ass_by_power)
    assert by_power[2] - by_power[1] == {MonomialPrime(3, frozenset({1, 2, 3}))}

    J = edge_ideal(FOUR_CYCLE_SINKS.graph)
    assert is_ntf_up_to(J, 3).holds
    with pytest.raises(DomainError):
        is_ntf_up_to(J, 0)


def test_powers_equal_up_to_on_the_five_cycle():
    """The 5-cycle's powers agree with its symbolic powers up to n = 2 and
    first differ at n = 3."""
    I = parse_ideal("t1*t2, t2*t3, t3*t4, t4*t5, t5*t1")
    assert powers_equal_up_to(I, 2)
    assert not powers_equal_up_to(I, 3)
    with pytest.raises(DomainError):
        powers_equal_up_to(I, 0)


def test_power_loops_extend_the_previous_power(monkeypatch):
    """powers_equal_up_to and is_ntf_up_to form I^n as I^(n-1) * I: with
    `**` disabled (and the symbolic powers, which use it, precomputed) both
    still give the same verdicts."""
    I = parse_ideal("t1*t2, t2*t3, t3*t4, t4*t5, t5*t1")
    known = {n: symbolic_power_min(I, n) for n in (1, 2, 3)}
    ntf = is_ntf_up_to(I, 3)

    def no_power(self, n):
        raise AssertionError(f"I^{n} formed from scratch")

    monkeypatch.setattr(symbolic, "symbolic_power_min", lambda ideal, n: known[n])
    monkeypatch.setattr(MonomialIdeal, "__pow__", no_power)
    assert powers_equal_up_to(I, 2)
    assert not powers_equal_up_to(I, 3)
    assert is_ntf_up_to(I, 3) == ntf


@given(ideals(max_vars=3, max_gens=3))
@settings(max_examples=15)
def test_ntf_at_bound_one_is_trivially_true(I):
    assert is_ntf_up_to(I, 1).holds
