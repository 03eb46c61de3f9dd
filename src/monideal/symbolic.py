"""Symbolic powers of monomial ideals, in two flavours.

For a proper nonzero monomial ideal I with minimal primes p_1..p_r we use

    I^(n)  =  (I_{p_1})^n  ^ ... ^  (I_{p_r})^n          (minimal-prime form)
    I<n>   =  intersection over the maximal associated primes instead

where I_p denotes the monomial localization: set every variable outside p
to 1 in each generator and minimalize.  Both agree with the usual
definitions through saturation, and the ordinary power always sits inside:
I^n <= I<n> <= I^(n).

Every I^(n) and I<n> comes from one engine, :class:`_LocalizedPowers`,
built on I and a set of primes.  At n = 1 it returns I itself when every
associated prime of I lies inside one of the primes, so I^(1) is I iff I
has no embedded primes, and I<1> is always I.  For other n, I_p is the
intersection of the components of I with support in p, read once off the
decomposition.  A lone component q_a (at every minimal prime of an edge
ideal, whose components are indexed by its strong vertex covers) is met
as q_a^n from degrees, by ``decomposition._meet_irreducible_power``, and
no power of it is formed; every other I_p is localized and forms its
powers on a chain, which holds only its latest power unless the engine
must `keep` them all.  A one-shot call builds an engine for its one n;
:func:`compare_powers_up_to` builds one for I^(n) and one that keeps, for
I<n>, so its walk forms each power once: (bound - 1) * (1 + |minimal
primes p whose I_p is not one component|) products, and its reports' I<n>,
read in any order, only the powers they read.  Nothing outlives a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .decomposition import (
    MonomialPrime,
    _meet_irreducible_power,
    associated_primes,
    embedded_primes,
    irreducible_decomposition,
    minimal_primes,
)
from .errors import ConsistencyError, DomainError
from .ideals import Exponent, MonomialIdeal, _powers, intersect_all


def localize(ideal: MonomialIdeal, prime: MonomialPrime) -> MonomialIdeal:
    """Monomial localization I_p: kill exponents outside the prime's support."""
    if prime.num_vars != ideal.num_vars:
        raise DomainError("prime and ideal live in different rings")
    keep = [i in prime.support for i in range(1, ideal.num_vars + 1)]
    gens = [tuple(e if k else 0 for e, k in zip(g, keep)) for g in ideal.gens]
    return MonomialIdeal._from_trusted(gens, ideal.num_vars)


def max_ass(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Associated primes that are maximal under inclusion."""
    return irreducible_decomposition(ideal).maximal_primes


def symbolic_power_min(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """I^(n): localized powers intersected over the minimal primes."""
    return _LocalizedPowers(ideal, minimal_primes(ideal), n).at(n)


def symbolic_power_ass(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """I<n>: localized powers intersected over the maximal associated primes."""
    return _LocalizedPowers(ideal, max_ass(ideal), n).at(n)


class _LocalizedPowers:
    """The intersection of (I_p)^n over `primes`, at each n up to `bound`.

    I_p is the intersection of the components of I whose support lies in
    p, and the decomposition is irredundant.  So at n = 1 this is I itself
    iff every associated prime of I lies inside one of the primes.  Reads
    of an engine that does not `keep` must never go down in n.
    """

    def __init__(self, ideal, primes, bound, keep=False):
        self.ideal, self.primes, self.bound, self.keep = ideal, primes, bound, keep

    def at(self, n):
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"symbolic power requires an integer n >= 1, got {n!r}")
        if n == 1 and all(
            any(a <= p for p in self.primes) for a in associated_primes(self.ideal) - self.primes
        ):
            return self.ideal
        lone, chains = self._localized
        for chain, formed in chains:
            while len(formed) < n:
                if formed and not self.keep:
                    formed[-1] = None
                formed.append(next(chain))
        out = intersect_all([formed[n - 1] for _, formed in chains], self.ideal.num_vars)
        for alpha in lone:
            out = _meet_irreducible_power(out, alpha, n)
        return out

    @cached_property
    def _localized(self):
        # Each lone component's vector; each other I_p's chain and powers.
        dec = irreducible_decomposition(self.ideal)
        components = [(c.support(), c.alpha) for c in dec.components]
        lone, chains = [], []
        for p in sorted(self.primes, key=MonomialPrime.sort_key):
            inside = [alpha for support, alpha in components if support <= p.support]
            if len(inside) == 1:
                lone.append(inside[0])
            else:
                chains.append((_powers(localize(self.ideal, p), self.bound), []))
        return lone, chains


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
    # The I<n> engine of the walk that made this report, shared by its reports.
    _ass_powers: _LocalizedPowers | None = field(default=None, compare=False, repr=False)

    @cached_property
    def symbolic_ass(self) -> MonomialIdeal:
        # Without embedded primes both symbolic powers intersect over the
        # same primes, so I^(n) serves for I<n>.
        if not embedded_primes(self.ideal):
            return self.symbolic_min
        if self._ass_powers is None:
            return symbolic_power_ass(self.ideal, self.n)
        return self._ass_powers.at(self.n)

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

    I^n is read from the chain of I, and I^(n) and I<n> from one engine
    each, which every report of the walk shares, so no power is formed
    twice.  A report's I<n> is built when first read, with powers formed
    only as far as the reports read.
    """
    chain = _powers(ideal, bound)
    dec = irreducible_decomposition(ideal)
    smin = _LocalizedPowers(ideal, dec.minimal_primes, bound)
    sass = _LocalizedPowers(ideal, dec.maximal_primes, bound, keep=True)
    for n, power in enumerate(chain, 1):
        yield _report(ideal, n, power, smin.at(n), sass)


def _report(ideal, n, ordinary, smin, ass_powers=None):
    return SymbolicPowerReport(n, ordinary, smin, ordinary == smin, ideal, ass_powers)


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
