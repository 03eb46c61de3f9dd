"""Symbolic powers, localizations, and the two power-comparison routes."""

from functools import reduce

import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from monideal.errors import DomainError
from monideal.decomposition import (
    IrreducibleIdeal,
    MonomialPrime,
    _meet_irreducible_power,
    associated_primes,
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
from monideal.polyhedra import closure_gaps, polyhedral_conditions_check
from monideal.symbolic import (
    compare_powers,
    compare_powers_up_to,
    is_ntf_up_to,
    localize,
    max_ass,
    powers_equal_up_to,
    symbolic_power_ass,
    symbolic_power_min,
)

from conftest import graphs, ideals
from oracles import component_ideal, naive_power, naive_symbolic_power, naive_symbolic_power_min
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
    I^(2).  Reading `equal_min` alone localizes nothing: both minimal
    primes are lone components.  Reading `symbolic_ass` and then
    `equal_ass` twice localizes I^2 once, at the one maximal associated
    prime (t2, t3) whose I_p is not one component."""
    I = edge_ideal(PATH_MIDDLE.graph)
    assert embedded_primes(I)
    real = symbolic.localize
    calls = []

    def counting(ideal, prime):
        calls.append(prime)
        return real(ideal, prime)

    monkeypatch.setattr(symbolic, "localize", counting)
    assert not compare_powers(I, 2).equal_min
    assert calls == []

    report = compare_powers(I, 2)
    assert report.symbolic_ass != report.symbolic_min
    assert report.equal_ass and report.equal_ass
    assert len(calls) == 1


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
        component_ideal(c)
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


FIVE_CYCLE = "t1*t2, t2*t3, t3*t4, t4*t5, t5*t1"


@given(ideals(max_vars=4, max_gens=5))
@example(edge_ideal(PATH_MIDDLE.graph))
@example(edge_ideal(TRIANGLE_CYCLE.graph))
@example(parse_ideal(FIVE_CYCLE))
@settings(max_examples=30)
def test_first_symbolic_powers_are_the_ideal_itself(I):
    """I<1> is I itself, and I^(1) is I itself iff I has no embedded
    primes: the localizations at a set of primes intersect to I exactly
    when every associated prime lies inside one of them."""
    assert symbolic_power_ass(I, 1) is I
    assert (symbolic_power_min(I, 1) is I) == (not embedded_primes(I))


def test_first_powers_localize_nothing(monkeypatch):
    """At n = 1, I<n> and, without embedded primes, I^(n) are answered
    without localizing, one-shot and on the first report of a walk."""
    path = edge_ideal(PATH_MIDDLE.graph)
    five_cycle, J = parse_ideal(FIVE_CYCLE), parse_ideal("t1^2*t2, t3*t4")

    def no_localization(*args):
        raise AssertionError("localized at n = 1")

    monkeypatch.setattr(symbolic, "localize", no_localization)
    assert symbolic_power_ass(path, 1) is path
    for I in (five_cycle, J):
        assert not embedded_primes(I)
        assert symbolic_power_ass(I, 1) is I
        report = compare_powers(I, 1)
        assert report.equal_min and report.equal_ass and report.symbolic_ass is I
        first = next(compare_powers_up_to(I, 3))
        assert first.equal_min and first.equal_ass and first.symbolic_min is I


@given(ideals(max_vars=3, max_gens=4))
@example(edge_ideal(PATH_MIDDLE.graph))
@example(edge_ideal(TRIANGLE_CYCLE.graph))
@settings(max_examples=30)
def test_compare_powers_up_to_matches_compare_powers(I):
    """Each report of the walk equals compare_powers at its n, in every
    attribute, the lazy ones included.  The path and the weighted 3-cycle
    have embedded primes, so their I^(1) is an intersection and their I<n>
    differs from I^(n)."""
    reports = list(compare_powers_up_to(I, 3))
    assert [r.n for r in reports] == [1, 2, 3]
    for r in reports:
        expected = compare_powers(I, r.n)
        assert r == expected and r.ideal == expected.ideal
        assert r.symbolic_ass == expected.symbolic_ass
        assert r.equal_ass == expected.equal_ass
        assert r.witnesses == expected.witnesses
    if not embedded_primes(I):
        assert reports[0].symbolic_min is I
        assert all(r.symbolic_ass is r.symbolic_min for r in reports)


def _count_products(monkeypatch):
    real = MonomialIdeal.__mul__
    products = []

    def counting(self, other):
        products.append(1)
        return real(self, other)

    monkeypatch.setattr(MonomialIdeal, "__mul__", counting)
    return products


@pytest.mark.parametrize("walk", [powers_equal_up_to, is_ntf_up_to])
def test_walks_form_each_power_once(monkeypatch, walk):
    """Walking n = 1..3 forms I^2 and I^3 and no other power: a lone
    component's powers are met from degrees, and every other (I_p)^n is
    read off I^n.  All 5 localizations of the 5-cycle are primes, and the
    4 of (t1^2*t2, t3*t4) are single components, two of them (t1^2, t3)
    and (t1^2, t4).  (t1^2, t1*t2, t2^2) = (t1^2, t2) ^ (t1, t2^2) has two
    components on its one prime, which is localized off I^n.  So each walk
    forms 2 products.  Their powers agree with their symbolic powers, so
    both walks go on to n = 3."""
    I = parse_ideal(FIVE_CYCLE)
    assert len(minimal_primes(I)) == 5
    products = _count_products(monkeypatch)
    walk(I, 3)
    assert len(products) == 2
    J = parse_ideal("t1^2*t2, t3*t4")
    assert len(minimal_primes(J)) == 4 and not embedded_primes(J)
    walk(J, 3)
    assert len(products) == 2 + 2
    K = parse_ideal("t1^2, t1*t2, t2^2")
    assert len(irreducible_decomposition(K).components) == 2 and len(minimal_primes(K)) == 1
    walk(K, 3)
    assert len(products) == 2 + 2 + 2


@given(graphs())
@settings(max_examples=25)
def test_edge_ideal_walks_localize_nothing(g):
    """The components of an edge ideal are indexed by the strong vertex
    covers, one for each support, so every minimal prime's I_p is a single
    component and its powers are met from degrees: the walk to 3 answers
    with `localize` unusable, and answers the same as with it."""
    I = edge_ideal(g)
    expected = powers_equal_up_to(I, 3)

    def no_localization(*args):
        raise AssertionError("an ideal was localized")

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(symbolic, "localize", no_localization)
        assert powers_equal_up_to(I, 3) == expected


def test_ntf_with_embedded_primes_builds_no_symbolic_power(monkeypatch):
    """With embedded primes Ass(I^n) is the whole verdict: the walk to 3
    forms I^2 and I^3 and localizes nothing."""
    I = edge_ideal(PATH_MIDDLE.graph)
    expected = is_ntf_up_to(I, 3)
    products = _count_products(monkeypatch)

    def no_symbolic_power(*args):
        raise AssertionError("a symbolic power was built")

    for name in ("localize", "symbolic_power_min", "symbolic_power_ass"):
        monkeypatch.setattr(symbolic, name, no_symbolic_power)
    assert is_ntf_up_to(I, 3) == expected
    assert len(products) == 2


@pytest.mark.parametrize("read_while_walking", [False, True])
def test_reading_equal_ass_along_a_walk_reuses_its_chains(monkeypatch, read_while_walking):
    """The path's walk to 4 forms 3 products, all on the chain of I: its
    minimal primes (t2) and (t1, t3) localize to themselves.  I<n>
    intersects over the maximal associated primes (t1, t3) and (t2, t3),
    whose localization (t2^2, t2*t3) is not prime, so each report reads
    it off its own I^n: reading `equal_ass` on the four reports, during
    the walk or after it and from the last report back, forms no power
    beyond those 3."""
    I = edge_ideal(PATH_MIDDLE.graph)
    assert minimal_primes(I) < associated_primes(I) and len(max_ass(I)) == 2
    products = _count_products(monkeypatch)
    if read_while_walking:
        verdicts = [r.equal_ass for r in compare_powers_up_to(I, 4)]
    else:
        reports = list(compare_powers_up_to(I, 4))
        assert len(products) == 3
        verdicts = [r.equal_ass for r in reversed(reports)]
    assert verdicts == [True, True, True, True]
    assert len(products) == 3


def test_far_localized_powers_match_the_oracle():
    """(t1^2*t3, t1*t2, t2^2*t3) localizes at (t1, t2) to (t1^2, t2) ^
    (t1, t2^2), two components, so that prime is localized; its other two
    minimal primes are lone components.  A one-shot I^(25) forms
    (I_p)^25, and the walk's reports read I<25> and I<3> off I^25 and
    I^3, the later one first."""
    I = parse_ideal("t1^2*t3, t1*t2, t2^2*t3")
    assert symbolic_power_min(I, 25) == naive_symbolic_power_min(I, 25)
    reports = list(compare_powers_up_to(I, 25))
    assert reports[24].symbolic_ass == naive_symbolic_power(I, 25, max_ass(I))
    assert reports[2].symbolic_ass == naive_symbolic_power(I, 3, max_ass(I))


BIG = 2**70


@given(
    ideals(max_vars=4),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
    st.integers(1, 4),
)
@example(parse_ideal("t1*t2, t2*t3"), [1, 0, 1], 2)
@example(parse_ideal("t1^2*t2, t2*t3^3, t1*t3"), [1, 1, 1], 3)
@example(parse_ideal("t1*t2, t2*t3, t3*t4, t4*t1"), [1, 1, 1, 1], 4)
@example(parse_ideal("t1^300*t2, t1*t2^5, t2^2*t3"), [256, 3, 0], 3)
@example(MonomialIdeal.from_gens([(3 * BIG - 1, 1), (BIG + 1, 4), (0, 7)], 2), [BIG, 2], 3)
def test_meet_irreducible_power_matches_the_pairwise_intersection(J, alpha, n):
    """J ^ q_a^n read from the depths of J's generators equals the lcms of
    all pairs with the generators of q_a^n, formed afresh.  The all-ones
    a give the primes p^n; entries of 256 and more and of 2^70 take the
    kernel's exact-int path."""
    alpha = tuple(alpha[: J.num_vars])
    assume(any(alpha))
    q = component_ideal(IrreducibleIdeal(J.num_vars, alpha))
    assert _meet_irreducible_power(J, alpha, n) == naive_intersection(J, naive_power(q, n))


@given(ideals(max_vars=3, max_gens=4), st.permutations([1, 2, 3]))
@example(parse_ideal("t1^2, t1*t2, t2^3"), [3, 1, 2])
@example(parse_ideal(FIVE_CYCLE), [2, 3, 1])
@example(edge_ideal(PATH_MIDDLE.graph), [2, 3, 1])
@example(edge_ideal(TRIANGLE_CYCLE.graph), [1, 3, 2])
@settings(max_examples=30)
def test_powers_match_the_chain_free_oracle(I, order):
    """Powers read from the chains equal those formed afresh by the oracle,
    whichever n is asked for first and through whichever route.  The walk's
    reports are read in a shuffled order, so their I<n> over the maximal
    associated primes (the path and the weighted 3-cycle have embedded
    primes) is read off a later power before an earlier one.
    The 5-cycle's localizations are all primes, so its I^(n) is met from
    degrees alone, and the oracle forms every (I_p)^n by products."""
    ordinary = {n: naive_power(I, n) for n in order}
    smin = {n: naive_symbolic_power_min(I, n) for n in order}
    sass = {n: naive_symbolic_power(I, n, max_ass(I)) for n in order}
    for n in order:
        assert I ** n == ordinary[n]
        report = compare_powers(I, n)
        assert (report.ordinary, report.symbolic_min) == (ordinary[n], smin[n])
        assert symbolic_power_ass(I, n) == report.symbolic_ass == sass[n]
    reports = list(compare_powers_up_to(I, len(order)))
    for n in order:
        report = reports[n - 1]
        assert (report.ordinary, report.symbolic_min) == (ordinary[n], smin[n])
        assert report.symbolic_ass == sass[n]


@pytest.mark.parametrize(
    "bound, message",
    [
        (2.5, "bound requires an integer n >= 1, got 2.5"),
        (0, "bound requires an integer n >= 1, got 0"),
        (True, "bound requires an integer n >= 1, got True"),
    ],
)
@pytest.mark.parametrize(
    "walk",
    [
        powers_equal_up_to,
        is_ntf_up_to,
        lambda I, bound: next(closure_gaps(I, bound)),
        lambda I, bound: polyhedral_conditions_check(I, bound, powers_equal=False),
    ],
    ids=["powers_equal_up_to", "is_ntf_up_to", "closure_gaps", "polyhedral_conditions_check"],
)
def test_bounds_are_checked_as_integers(walk, bound, message):
    with pytest.raises(DomainError, match=message):
        walk(parse_ideal(FIVE_CYCLE), bound)


@given(ideals(max_vars=3, max_gens=3))
@settings(max_examples=15)
def test_ntf_at_bound_one_is_trivially_true(I):
    assert is_ntf_up_to(I, 1).holds
