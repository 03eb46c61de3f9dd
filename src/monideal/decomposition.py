"""Irreducible decomposition and associated primes of monomial ideals.

Every proper nonzero monomial ideal is a finite irredundant intersection of
irreducible ideals q_a = ({t_i^{a_i} : a_i >= 1}), and that irredundant
decomposition is unique.  We compute it by folding in one minimal generator
at a time, starting from q_0, the zero ideal.  Monomial ideals form a
distributive lattice, so (J ^ K) + L = (J + L) ^ (K + L): adding t^g to an
intersection adds it to each component.  A component that already contains
t^g stays; any other q_a becomes the intersection of the pieces
q_a + (t_i^{g_i}), i in supp(g), which is q_a with a_i set to g_i.
Redundant components are dropped by inclusion: irreducible monomial ideals
are meet-prime (if q contains J ^ K it contains J or K, since the lcm of two
witnesses outside q stays outside q), so a component is redundant exactly
when it contains another one (Miller-Sturmfels, Combinatorial Commutative
Algebra).  Only the new pieces need that test: the components that stay were
pairwise incomparable before, and each piece contains the component it came
from, so no kept component can contain a piece.  The 256 most recent
results are memoized per canonical generating set: a fixed bound keeps a
long sweep over many ideals from growing the cache without limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ConsistencyError, DomainError
from .ideals import (
    Exponent,
    MonomialIdeal,
    graded_lex_key,
    intersect_all,
    unit_vector,
)


@dataclass(frozen=True)
class IrreducibleIdeal:
    """The ideal ({t_i^{a_i} : a_i >= 1}) for a nonzero exponent vector a."""

    num_vars: int
    alpha: Exponent

    def __post_init__(self):
        if len(self.alpha) != self.num_vars:
            raise ValueError(
                f"alpha {self.alpha} has length {len(self.alpha)}, expected {self.num_vars}"
            )
        if any(e < 0 for e in self.alpha):
            raise ValueError(f"alpha {self.alpha} has a negative entry")
        if sum(self.alpha) == 0:
            raise DomainError("the unit ideal is not irreducible")

    def as_ideal(self) -> MonomialIdeal:
        gens = [
            tuple(e if j == i else 0 for j in range(self.num_vars))
            for i, e in enumerate(self.alpha)
            if e
        ]
        return MonomialIdeal._from_trusted(gens, self.num_vars)

    def support(self) -> frozenset[int]:
        """1-indexed variables appearing in alpha."""
        return frozenset(i + 1 for i, e in enumerate(self.alpha) if e)

    def __str__(self) -> str:
        # Pure powers read best in variable order: (t1^2, t2).
        parts = []
        for i, e in enumerate(self.alpha):
            if e == 1:
                parts.append(f"t{i + 1}")
            elif e > 1:
                parts.append(f"t{i + 1}^{e}")
        return "(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class MonomialPrime:
    """The prime ideal generated by a nonempty set of variables (1-indexed)."""

    num_vars: int
    support: frozenset[int]

    def __post_init__(self):
        if not self.support:
            raise DomainError("a monomial prime needs a nonempty variable set")
        bad = [i for i in self.support if not 1 <= i <= self.num_vars]
        if bad:
            raise ValueError(f"variable indices {bad} out of range 1..{self.num_vars}")

    def as_ideal(self) -> MonomialIdeal:
        return MonomialIdeal._from_trusted(
            [unit_vector(i, self.num_vars) for i in sorted(self.support)],
            self.num_vars,
        )

    def sort_key(self):
        return (len(self.support), tuple(sorted(self.support)))

    def __le__(self, other: "MonomialPrime") -> bool:
        return self.support <= other.support

    def __str__(self) -> str:
        return "(" + ", ".join(f"t{i}" for i in sorted(self.support)) + ")"


@dataclass(frozen=True)
class IrreducibleDecomposition:
    """An irredundant intersection of irreducible ideals, canonically sorted.

    Its primes are read off the components and stored on first read: the
    associated primes are the supports of the components, and the minimal
    primes are those that contain no other one.  A decomposition held by
    the cache of :func:`irreducible_decomposition` so builds each set once.
    """

    num_vars: int
    components: tuple[IrreducibleIdeal, ...]

    @cached_property
    def associated_primes(self) -> frozenset[MonomialPrime]:
        return frozenset(
            MonomialPrime(self.num_vars, c.support()) for c in self.components
        )

    @cached_property
    def minimal_primes(self) -> frozenset[MonomialPrime]:
        ass = self.associated_primes
        return frozenset(
            p for p in ass if not any(q.support < p.support for q in ass)
        )

    def intersection(self) -> MonomialIdeal:
        return intersect_all(
            [c.as_ideal() for c in self.components], self.num_vars
        )

    def alphas(self) -> tuple[Exponent, ...]:
        return tuple(c.alpha for c in self.components)

    def __str__(self) -> str:
        return " ^ ".join(str(c) for c in self.components)


def _contains_irreducible(a: Exponent, b: Exponent) -> bool:
    """q_a contains q_b: 0 < a_i <= b_i for every i in supp(b)."""
    return all(0 < x <= y for x, y in zip(a, b) if y)


def irredundant_subset(
    components, target: MonomialIdeal
) -> tuple[IrreducibleIdeal, ...]:
    """The components that contain no other component, canonically sorted.

    By meet-primality these are exactly the components of the unique
    irredundant decomposition of their intersection.  Raises if they do
    not intersect to `target`.
    """
    comps = sorted(set(components), key=lambda c: graded_lex_key(c.alpha))
    kept = [
        c
        for c in comps
        if not any(
            d is not c and _contains_irreducible(c.alpha, d.alpha) for d in comps
        )
    ]
    if intersect_all([c.as_ideal() for c in kept], target.num_vars) != target:
        raise ConsistencyError("components do not intersect to the expected ideal")
    return tuple(kept)


@lru_cache(maxsize=256)
def _decomposition(ideal: MonomialIdeal) -> IrreducibleDecomposition:
    if ideal.is_zero() or ideal.is_unit():
        raise DomainError("only proper nonzero ideals have an irreducible decomposition")
    comps = [(0,) * ideal.num_vars]
    for g in ideal.gens:
        support = [i for i, e in enumerate(g) if e]
        kept, pieces = [], set()
        for a in comps:
            if any(0 < a[i] <= g[i] for i in support):
                kept.append(a)
            else:
                # t^g lies outside q_a, so each a_i on supp(g) is 0 or above
                # g_i, and q_a + (t_i^{g_i}) sets a_i to g_i.
                pieces.update(a[:i] + (g[i],) + a[i + 1:] for i in support)
        # A piece contains its parent, so it never equals a kept component
        # (that would contain the parent too): `b != p` skips only p itself.
        survivors = kept + list(pieces)
        comps = kept + [
            p
            for p in pieces
            if not any(b != p and _contains_irreducible(p, b) for b in survivors)
        ]
    components = irredundant_subset(
        [IrreducibleIdeal(ideal.num_vars, a) for a in comps], ideal
    )
    return IrreducibleDecomposition(ideal.num_vars, components)


def irreducible_decomposition(ideal: MonomialIdeal) -> IrreducibleDecomposition:
    """The unique irredundant irreducible decomposition of a proper nonzero ideal."""
    return _decomposition(ideal)


def associated_primes(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Radicals of the irredundant irreducible components."""
    return irreducible_decomposition(ideal).associated_primes


def minimal_primes(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """The associated primes that contain no other associated prime."""
    return irreducible_decomposition(ideal).minimal_primes


def embedded_primes(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    return associated_primes(ideal) - minimal_primes(ideal)
