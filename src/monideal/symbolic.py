"""Symbolic powers of monomial ideals, in two flavours.

For a proper nonzero monomial ideal I with minimal primes p_1..p_r we use

    I^(n)  =  (I_{p_1})^n  ^ ... ^  (I_{p_r})^n          (minimal-prime form)
    I<n>   =  intersection over the maximal associated primes instead

where I_p denotes the monomial localization: set every variable outside p
to 1 in each generator and minimalize.  Both agree with the usual
definitions through saturation, and the ordinary power always sits inside:
I^n <= I<n> <= I^(n).

Powers are read from the power chain of `ideals`.  :func:`compare_powers_up_to`
zips the chain of I with one chain of I_p per minimal prime p, so its walk to
a bound forms each power once: (bound - 1) * (1 + |Min(I)|) products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .decomposition import (
    MonomialPrime,
    associated_primes,
    embedded_primes,
    irreducible_decomposition,
    minimal_primes,
)
from .errors import ConsistencyError, DomainError
from .ideals import Exponent, MonomialIdeal, _last, _powers, intersect_all


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
    return intersect_all(
        [_last(_powers(localize(ideal, p), n)) for p in _sorted_primes(primes)],
        ideal.num_vars,
    )


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

    @cached_property
    def symbolic_ass(self) -> MonomialIdeal:
        # Without embedded primes both symbolic powers intersect over the
        # same primes, so I^(n) serves for I<n>.
        if max_ass(self.ideal) == minimal_primes(self.ideal):
            return self.symbolic_min
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
    minimal prime p (I^(1) is I without embedded primes, as in
    :func:`symbolic_power_min`), so no power is formed twice.
    """
    chain = _powers(ideal, bound)
    dec = irreducible_decomposition(ideal)
    no_embedded = dec.minimal_primes == dec.associated_primes
    local = [_powers(localize(ideal, p), bound) for p in _sorted_primes(dec.minimal_primes)]
    for n, (power, *localized) in enumerate(zip(chain, *local), 1):
        smin = ideal if n == 1 and no_embedded else intersect_all(localized, ideal.num_vars)
        yield _report(ideal, n, power, smin)


def _report(ideal, n, ordinary, smin):
    return SymbolicPowerReport(n, ordinary, smin, ordinary == smin, ideal)


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
