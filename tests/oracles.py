"""Slow oracles for the tests, straight from the definitions.

They form sums and lcms of exponent vectors one pair at a time, as the
products and intersections of ideals did before they worked column by
column.  They recompute associated primes from the colon definition,
(I : t^f) = p, by scanning a box of exponent vectors, and the pure powers
that make up the generators of the irreducible components.  Vertex covers and their
minimality are read off the edges, and membership in a covering-form
polyhedron off its inequalities.  No product code calls them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import add

from monideal.decomposition import MonomialPrime
from monideal.errors import DimensionMismatch, DomainError
from monideal.graphs import WeightedOrientedGraph
from monideal.ideals import Exponent, MonomialIdeal, graded_lex_key, vec_sub_clamped
from monideal.polyhedra import CoveringFormPolyhedron


def vec_add(a: Exponent, b: Exponent) -> Exponent:
    """Exponent vector of t^a * t^b."""
    return tuple(map(add, a, b))


def vec_max(a: Exponent, b: Exponent) -> Exponent:
    """Exponent vector of lcm(t^a, t^b)."""
    return tuple(max(x, y) for x, y in zip(a, b))


def exponent_duality(ideal: MonomialIdeal) -> tuple[Exponent, ...]:
    """Pure powers t_j^{v_j} over all generators t^v and variables with v_j >= 1.

    This set equals the union of the minimal generators of the irreducible
    components, which is the duality the decomposition tests lean on.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise DomainError("exponent duality needs a proper nonzero ideal")
    powers = {
        tuple(e if j == i else 0 for j in range(ideal.num_vars))
        for v in ideal.gens
        for i, e in enumerate(v)
        if e
    }
    return tuple(sorted(powers, key=graded_lex_key))


def _colon_gives_prime(ideal: MonomialIdeal, f: Exponent) -> frozenset[int] | None:
    """Support of (ideal : t^f) when that colon is a monomial prime, else None.

    Avoids building the colon ideal: with C = {max(v - f, 0)}, the colon is
    the prime on U = {i : e_i in C} exactly when U is nonempty and every
    member of C has a positive entry inside U.
    """
    if ideal.contains(f):
        return None  # colon is the unit ideal
    cgens = [vec_sub_clamped(v, f) for v in ideal.gens]
    units = frozenset(
        i + 1 for c in cgens if sum(c) == 1 for i, e in enumerate(c) if e == 1
    )
    if not units:
        return None
    for c in cgens:
        if not any(c[i - 1] for i in units):
            return None
    return units


def ass_witness_oracle(
    ideal: MonomialIdeal, prime: MonomialPrime, degree_bound: int
) -> Exponent | None:
    """Brute-force search for f with (ideal : t^f) == prime.

    Scans all exponent vectors with entries <= degree_bound in
    lexicographic order and returns the first witness, or None.  Slow by
    design; it exists to cross-check `associated_primes` from the colon
    definition of an associated prime.
    """
    if prime.num_vars != ideal.num_vars:
        raise DomainError("prime and ideal live in different rings")
    for f in product(range(degree_bound + 1), repeat=ideal.num_vars):
        if _colon_gives_prime(ideal, f) == prime.support:
            return f
    return None


def colon_prime_scan(
    ideal: MonomialIdeal, degree_bound: int
) -> frozenset[MonomialPrime]:
    """All primes of the form (ideal : t^f) with entries of f <= degree_bound.

    Companion oracle to :func:`ass_witness_oracle` covering both directions
    of the agreement check in a single box scan.
    """
    found = set()
    for f in product(range(degree_bound + 1), repeat=ideal.num_vars):
        support = _colon_gives_prime(ideal, f)
        if support is not None:
            found.add(MonomialPrime(ideal.num_vars, support))
    return frozenset(found)


def is_vertex_cover(graph: WeightedOrientedGraph, cover) -> bool:
    cover = set(cover)
    return all(i in cover or j in cover for i, j in graph.edges)


def is_minimal_cover(graph: WeightedOrientedGraph, cover) -> bool:
    """A cover no proper subset of which still covers.

    Checked by dropping each member in turn and testing what is left.
    """
    cover = set(cover)
    return is_vertex_cover(graph, cover) and not any(
        is_vertex_cover(graph, cover - {x}) for x in cover
    )


def contains_point(poly: CoveringFormPolyhedron, point) -> bool:
    point = tuple(Fraction(x) for x in point)
    if len(point) != poly.num_vars:
        raise DimensionMismatch(
            f"point {point} has length {len(point)}, expected {poly.num_vars}"
        )
    return all(x >= 0 for x in point) and all(
        sum(x * y for x, y in zip(point, c)) >= 1 for c in poly.columns
    )
