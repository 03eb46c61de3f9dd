"""Symbolic powers of monomial ideals, in two flavours.

For a proper nonzero monomial ideal I with minimal primes p_1..p_r we use

    I^(n)  =  (I_{p_1})^n  ^ ... ^  (I_{p_r})^n          (minimal-prime form)
    I<n>   =  intersection over the maximal associated primes instead

where I_p denotes the monomial localization: set every variable outside p
to 1 in each generator and minimalize.  Both agree with the usual
definitions through saturation, and the ordinary power always sits inside:
I^n <= I<n> <= I^(n).

When I_p is the prime p itself, generated by variables (every minimal
prime of a squarefree ideal, such as the edge ideal of a cycle), p^n is not
formed at all: t^a lies in p^n iff its degree in the variables of p is at
least n, so J ^ p^n comes straight from the generators of J
(:func:`_meet_prime_power`).  The other powers are read from the power
chain of `ideals`.  :func:`compare_powers_up_to` zips the chain of I with
one chain of I_p per other minimal prime p, so its walk to a bound forms
each power once: (bound - 1) * (1 + |those primes|) products.  Its reports
build I<n>, when read, on one chain per maximal associated prime whose
I_p is not prime, extended only as far as the reports read.  Nothing is
kept across calls; those powers live as long as the walk's reports do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations_with_replacement

from .decomposition import (
    MonomialPrime,
    associated_primes,
    embedded_primes,
    irreducible_decomposition,
    minimal_primes,
)
from .errors import ConsistencyError, DomainError
from .ideals import Exponent, MonomialIdeal, _last, _powers, _sums, intersect_all


def localize(ideal: MonomialIdeal, prime: MonomialPrime) -> MonomialIdeal:
    """Monomial localization I_p: kill exponents outside the prime's support."""
    if prime.num_vars != ideal.num_vars:
        raise DomainError("prime and ideal live in different rings")
    keep = [i in prime.support for i in range(1, ideal.num_vars + 1)]
    gens = [tuple(e if k else 0 for e, k in zip(g, keep)) for g in ideal.gens]
    return MonomialIdeal._from_trusted(gens, ideal.num_vars)


def _sorted_primes(primes):
    return sorted(primes, key=lambda p: p.sort_key())


def max_ass(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Associated primes that are maximal under inclusion."""
    ass = associated_primes(ideal)
    return frozenset(
        p for p in ass if not any(p.support < q.support for q in ass)
    )


def symbolic_power_min(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """I^(n): localized powers intersected over the minimal primes.

    Without embedded primes I^(1) is I itself, and no intersection is
    formed: every component of the decomposition of I has a minimal prime
    as support, and I_p is the intersection of the components with support
    p, so the I_p together intersect to all components, which the
    decomposition has already checked to intersect to I.
    """
    dec = irreducible_decomposition(ideal)
    if n == 1 and isinstance(n, int) and dec.minimal_primes == dec.associated_primes:
        return ideal
    return _localized_power_intersection(ideal, n, dec.minimal_primes)


def symbolic_power_ass(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """I<n>: localized powers intersected over the maximal associated primes."""
    return _localized_power_intersection(ideal, n, max_ass(ideal))


def _localized_power_intersection(ideal, n, primes):
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"symbolic power requires an integer n >= 1, got {n!r}")
    linear, other = _split_linear(ideal, primes)
    return _intersect(ideal.num_vars, [_last(_powers(q, n)) for q in other], linear, n)


def _split_linear(ideal, primes):
    """The sorted primes p with I_p = p, and the I_p of the other primes.

    I_p keeps p among its associated primes when p is associated to I, so
    it is p itself exactly when its generators are variables.
    """
    linear, other = [], []
    for p in _sorted_primes(primes):
        local = localize(ideal, p)
        if all(sum(g) == 1 for g in local.gens):
            linear.append(p)
        else:
            other.append(local)
    return linear, other


def _intersect(num_vars, powers, linear, n):
    """The intersection of the localized `powers` and of p^n for each p in
    `linear`."""
    out = intersect_all(powers, num_vars)
    for p in linear:
        out = _meet_prime_power(out, p, n)
    return out


def _meet_prime_power(ideal, prime, n):
    """`ideal` ^ p^n for the prime p generated by the variables of `prime`.

    t^a lies in p^n iff its degree d in those variables is at least n.  So
    a generator u of the ideal with d >= n lies in p^n, and the least
    multiples in p^n of one with d < n are the u * t^b for every monomial
    t^b of degree n - d in those variables.  The generators are grouped by
    n - d, each group summed with its monomials, and all minimalized once.
    """
    support = [i - 1 for i in sorted(prime.support)]
    groups = {}
    for u in ideal.gens:
        groups.setdefault(max(0, n - sum(u[i] for i in support)), []).append(u)
    vectors = groups.pop(0, [])
    for gap, us in groups.items():
        monomials = []
        for combo in combinations_with_replacement(support, gap):
            b = [0] * ideal.num_vars
            for i in combo:
                b[i] += 1
            monomials.append(b)
        vectors += _sums(us, monomials)
    return MonomialIdeal._from_trusted(vectors, ideal.num_vars)


@dataclass(frozen=True)
class SymbolicPowerReport:
    """Ordinary vs symbolic powers of one ideal at one exponent.

    `ordinary`, `symbolic_min` and `equal_min` are computed up front.
    `symbolic_ass`, `equal_ass` and `witnesses` are computed on first read
    and stored, so a caller that reads only `equal_min` never builds I<n>.
    """

    n: int
    ordinary: MonomialIdeal
    symbolic_min: MonomialIdeal
    equal_min: bool
    ideal: MonomialIdeal = field(compare=False, repr=False)
    # Builds I<n> from the chains of the walk that made this report.
    _ass_from_walk: object = field(default=None, compare=False, repr=False)

    @cached_property
    def symbolic_ass(self) -> MonomialIdeal:
        # Without embedded primes both symbolic powers intersect over the
        # same primes, so I^(n) serves for I<n>.
        if max_ass(self.ideal) == minimal_primes(self.ideal):
            return self.symbolic_min
        if self._ass_from_walk is not None:
            return self._ass_from_walk()
        return symbolic_power_ass(self.ideal, self.n)

    @cached_property
    def equal_ass(self) -> bool:
        return self.ordinary == self.symbolic_ass

    @cached_property
    def witnesses(self) -> tuple[Exponent, ...]:
        # I^n lies in I^(n), so equal powers leave no witness to look for.
        if self.equal_min:
            return ()
        return tuple(self.symbolic_min._split(self.ordinary)[1])


def compare_powers(ideal: MonomialIdeal, n: int) -> SymbolicPowerReport:
    """Compare I^n with both symbolic powers; witnesses live in I^(n) \\ I^n.

    Only I^n, I^(n) and `equal_min` are built here.  I<n>, `equal_ass` and
    the witnesses are built when the report's attribute is first read.
    When Ass(I) has no embedded primes, I<n> is the I^(n) already built.
    """
    return _report(ideal, n, ideal ** n, symbolic_power_min(ideal, n))


def compare_powers_up_to(ideal: MonomialIdeal, bound: int):
    """Yield the report of :func:`compare_powers` for n = 1..bound.

    I^n is read from the chain of I and I^(n) from one chain of I_p per
    minimal prime p with I_p not prime (I^(1) is I without embedded primes,
    as in :func:`symbolic_power_min`), so no power is formed twice.  With
    embedded primes, a report's I<n> is built when first read, on one
    chain per maximal associated prime with I_p not prime, which every
    report of the walk shares and extends only as far as they read.
    """
    chain = _powers(ideal, bound)
    dec = irreducible_decomposition(ideal)
    no_embedded = dec.minimal_primes == dec.associated_primes
    linear, other = _split_linear(ideal, dec.minimal_primes)
    local = [_powers(q, bound) for q in other]
    ass_at = None
    if not no_embedded:
        ass_linear, ass_other = _split_linear(ideal, max_ass(ideal))
        chains = [_Formed(q, bound) for q in ass_other]
        ass_at = partial(_ass_from_chains, ideal.num_vars, chains, ass_linear)
    for n, (power, *localized) in enumerate(zip(chain, *local), 1):
        smin = ideal if n == 1 and no_embedded else _intersect(ideal.num_vars, localized, linear, n)
        yield _report(ideal, n, power, smin, ass_at and partial(ass_at, n))


class _Formed:
    """The powers of one ideal formed so far, formed further on demand."""

    def __init__(self, ideal, bound):
        self.chain, self.formed = _powers(ideal, bound), []

    def power(self, n):
        while len(self.formed) < n:
            self.formed.append(next(self.chain))
        return self.formed[n - 1]


def _ass_from_chains(num_vars, chains, linear, n):
    return _intersect(num_vars, [c.power(n) for c in chains], linear, n)


def _report(ideal, n, ordinary, smin, ass_from_walk=None):
    return SymbolicPowerReport(n, ordinary, smin, ordinary == smin, ideal, ass_from_walk)


def powers_equal_up_to(ideal: MonomialIdeal, bound: int) -> bool:
    """Does I^n equal I^(n) for every n = 1..bound?"""
    return all(r.equal_min for r in compare_powers_up_to(ideal, bound))


@dataclass(frozen=True)
class NtfReport:
    """Does Ass(I^n) stay equal to Ass(I) for every checked power?"""

    bound: int
    holds: bool
    ass_by_power: tuple[tuple[int, frozenset[MonomialPrime]], ...]


def is_ntf_up_to(ideal: MonomialIdeal, bound: int) -> NtfReport:
    """Check Ass(I^n) == Ass(I) for n = 1..bound.

    When I has no embedded primes the per-power verdict must coincide with
    I^n == I^(n); both routes are computed on the same I^n and compared,
    and a mismatch raises, since it could only come from a bug.  With
    embedded primes only the powers of I are formed.
    """
    base = associated_primes(ideal)
    if embedded_primes(ideal):
        steps = ((power, None) for power in _powers(ideal, bound))
    else:
        steps = ((r.ordinary, r.equal_min) for r in compare_powers_up_to(ideal, bound))
    per_power = []
    for n, (power, equal_min) in enumerate(steps, 1):
        ass_n = associated_primes(power)
        if equal_min is not None and equal_min != (ass_n == base):
            raise ConsistencyError(
                f"Ass(I^{n}) vs symbolic-power routes disagree at n={n}"
            )
        per_power.append((n, ass_n))
    holds = all(ass == base for _, ass in per_power)
    return NtfReport(bound=bound, holds=holds, ass_by_power=tuple(per_power))
