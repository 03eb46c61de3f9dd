"""Irreducible decompositions, associated primes, and their brute-force oracles."""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monideal.errors import ConsistencyError, DimensionMismatch, DomainError
from monideal.ideals import MonomialIdeal, _check_vectors, intersect_all, parse_ideal
from monideal.decomposition import (
    IrreducibleIdeal,
    MonomialPrime,
    _decomposition,
    associated_primes,
    embedded_primes,
    irreducible_decomposition,
    irredundant_subset,
    minimal_primes,
)
from monideal.fixtures import fixture
from monideal.graphs import edge_ideal
from monideal.symbolic import max_ass

from conftest import ideals
from oracles import (
    ass_witness_oracle,
    colon_prime_scan,
    component_ideal,
    drop_containing,
    exponent_duality,
)


def test_irreducible_ideal_expansion():
    c = IrreducibleIdeal(4, (0, 2, 0, 2))
    assert component_ideal(c) == parse_ideal("(t2^2, t4^2)", num_vars=4)
    assert c.support() == frozenset({2, 4})
    assert str(c) == "(t2^2, t4^2)"


def test_irreducible_ideal_refuses_bad_exponents():
    with pytest.raises(DimensionMismatch, match="^alpha .* has length 2"):
        IrreducibleIdeal(3, (1, 2))
    with pytest.raises(ValueError, match="^alpha .* negative"):
        IrreducibleIdeal(2, (1, -1))
    for num_vars, alpha in ((2, (0, 0)), (0, ())):
        with pytest.raises(DomainError, match="unit ideal"):
            IrreducibleIdeal(num_vars, alpha)


def test_prime_display_and_sorting():
    p = MonomialPrime(3, frozenset({1, 3}))
    q = MonomialPrime(3, frozenset({2}))
    assert str(p) == "(t1, t3)"
    assert sorted({p, q}, key=MonomialPrime.sort_key) == [q, p]


def test_decomposition_requires_proper_nonzero():
    with pytest.raises(DomainError):
        irreducible_decomposition(MonomialIdeal.zero(2))
    with pytest.raises(DomainError):
        irreducible_decomposition(MonomialIdeal.unit(2))


def test_path_middle_decomposition():
    from monideal.fixtures import PATH_MIDDLE_DEC_ALPHAS
    from monideal.graphs import edge_ideal

    I = edge_ideal(fixture("path_middle").graph)
    dec = irreducible_decomposition(I)
    assert dec.alphas() == PATH_MIDDLE_DEC_ALPHAS
    assert dec.intersection() == I


def _decompositions_short_of_one():
    """The decomposition of the 5-cycle, the path and the weighted 3-cycle
    with one component left out, each with its ideal: the intersection of
    the rest is strictly larger, since the decomposition is irredundant."""
    for name, I in (
        ("c5", parse_ideal("t1*t2, t2*t3, t3*t4, t4*t5, t5*t1")),
        ("path_middle", edge_ideal(fixture("path_middle").graph)),
        ("triangle_cycle", edge_ideal(fixture("triangle_cycle").graph)),
    ):
        comps = irreducible_decomposition(I).components
        for k in range(len(comps)):
            yield pytest.param(comps[:k] + comps[k + 1:], I, id=f"{name}-without-{k}")


@pytest.mark.parametrize(
    "comps, target",
    [
        pytest.param(
            [IrreducibleIdeal(2, (1, 0))], parse_ideal("(t2)", num_vars=2), id="other-prime"
        ),
        *_decompositions_short_of_one(),
    ],
)
def test_irredundant_subset_rejects_wrong_target(comps, target):
    with pytest.raises(ConsistencyError):
        irredundant_subset(comps, target)


@given(ideals())
def test_decomposition_reintersects_to_the_ideal(I):
    dec = irreducible_decomposition(I)
    assert intersect_all([component_ideal(c) for c in dec.components], I.num_vars) == I


@given(ideals(max_vars=3, max_gens=4))
@settings(max_examples=25)
def test_decomposition_is_irredundant(I):
    dec = irreducible_decomposition(I)
    comps = list(dec.components)
    if len(comps) == 1:
        return
    for dropped in comps:
        rest = [component_ideal(c) for c in comps if c is not dropped]
        assert intersect_all(rest, I.num_vars) != I


def splitting_leaves(ideal, split_last=False):
    """Leaves of the generator-splitting recursion (possibly redundant).

    While some minimal generator t^g mixes two variables, the ideal is the
    intersection of the two ideals that add t_i^{g_i} and t^g / t_i^{g_i};
    leaves have only pure-power generators and are irreducible.  The default
    schedule splits the canonically first mixed generator on its first
    variable, `split_last` the last one on its last variable.  Sub-ideals
    go through from_gens and nothing is cached: this is the slow, independent
    route the fold in `irreducible_decomposition` is checked against.
    """
    mixed = [g for g in ideal.gens if sum(1 for e in g if e) >= 2]
    if not mixed:
        return {tuple(max(col) for col in zip(*ideal.gens))}
    g = mixed[-1] if split_last else mixed[0]
    indices = [i for i, e in enumerate(g) if e]
    i = indices[-1] if split_last else indices[0]
    power = tuple(g[i] if j == i else 0 for j in range(ideal.num_vars))
    rest = tuple(0 if j == i else g[j] for j in range(ideal.num_vars))
    left, right = (
        MonomialIdeal.from_gens([*ideal.gens, extra], ideal.num_vars)
        for extra in (power, rest)
    )
    return splitting_leaves(left, split_last) | splitting_leaves(right, split_last)


@given(st.one_of(ideals(), ideals(max_vars=6, max_gens=8)))
@settings(max_examples=80)
def test_decomposition_matches_splitting_oracle(I):
    """Both splitting schedules, with every leaf that contains another one
    dropped, give the decomposition."""
    dec = irreducible_decomposition(I)
    for split_last in (False, True):
        leaves = [IrreducibleIdeal(I.num_vars, a) for a in splitting_leaves(I, split_last)]
        assert irredundant_subset(drop_containing(leaves), I) == dec.components


def test_star_ideal_decomposes_without_recursion():
    """t1*tj for j = 2..500: one generator per fold step, two components."""
    n = 500
    gens = [tuple(1 if k in (0, j) else 0 for k in range(n)) for j in range(1, n)]
    dec = irreducible_decomposition(MonomialIdeal.from_gens(gens, n))
    assert dec.alphas() == ((1,) + (0,) * (n - 1), (0,) + (1,) * (n - 1))


@given(ideals())
def test_exponent_duality_matches_component_generators(I):
    union = set()
    for c in irreducible_decomposition(I).components:
        for i, e in enumerate(c.alpha):
            if e:
                union.add(tuple(e if j == i else 0 for j in range(I.num_vars)))
    assert frozenset(union) == frozenset(exponent_duality(I))


def test_minimal_and_embedded_split():
    I = parse_ideal("(t2*t3, t1*t2^2)")
    mins = {p.support for p in minimal_primes(I)}
    embs = {p.support for p in embedded_primes(I)}
    assert mins == {frozenset({2}), frozenset({1, 3})}
    assert embs == {frozenset({2, 3})}
    assert associated_primes(I) == minimal_primes(I) | embedded_primes(I)


@given(ideals(max_vars=4, max_gens=5))
@settings(max_examples=25)
def test_maximal_primes_lie_in_no_other_associated_prime(I):
    """Read once per decomposition: `max_ass` returns the stored set."""
    dec = irreducible_decomposition(I)
    ass = dec.associated_primes
    assert dec.maximal_primes == {p for p in ass if not any(p <= q != p for q in ass)}
    assert max_ass(I) is dec.maximal_primes is irreducible_decomposition(I).maximal_primes


def test_witness_oracle_on_a_small_ideal():
    """(t1^2, t2) : t1 = (t1, t2), and the lex scan finds that witness first."""
    I = parse_ideal("(t1^2, t2)")
    m = MonomialPrime(2, frozenset({1, 2}))
    assert ass_witness_oracle(I, m, 2) == (1, 0)
    assert ass_witness_oracle(I, MonomialPrime(2, frozenset({1})), 2) is None


def test_colon_prime_scan_matches_ass():
    I = parse_ideal("(t2*t3, t1*t2^2)")
    assert colon_prime_scan(I, 2) == associated_primes(I)


@given(ideals(max_vars=3, max_gens=4, max_exp=2))
@settings(max_examples=25)
def test_ass_agrees_with_colon_scan(I):
    """Both directions: primes found by colons are exactly the associated ones."""
    assert colon_prime_scan(I, 2) == associated_primes(I)


@given(ideals(max_vars=3, max_gens=4))
@settings(max_examples=25)
def test_decomposition_supports_are_the_associated_primes(I):
    dec = irreducible_decomposition(I)
    assert {c.support() for c in dec.components} == {
        p.support for p in associated_primes(I)
    }


def test_decomposition_cache_is_bounded():
    """A long run over distinct ideals keeps a bounded number of results."""
    _decomposition.cache_clear()
    try:
        for k in range(1, 1001):
            irreducible_decomposition(MonomialIdeal.from_gens([(k, 0), (0, 1)], 2))
        assert _decomposition.cache_info().currsize < 1000
    finally:
        _decomposition.cache_clear()


@given(ideals())
def test_decomposition_matches_validated_rebuild(I):
    """With every trusted construction checked by _check_vectors first, the
    decomposition sees only valid vectors and ends in the same result."""
    trusted = irreducible_decomposition(I)
    original = MonomialIdeal._from_trusted

    def checked(vectors, num_vars):
        vectors = list(vectors)
        _check_vectors(vectors, num_vars)
        return original(vectors, num_vars)

    with patch.object(MonomialIdeal, "_from_trusted", staticmethod(checked)):
        _decomposition.cache_clear()
        validated = irreducible_decomposition(I)
        assert validated.intersection() == I
    _decomposition.cache_clear()
    assert validated == trusted
