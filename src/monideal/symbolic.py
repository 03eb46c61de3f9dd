"""Symbolic powers of monomial ideals, in two flavours.

For a proper nonzero monomial ideal I with minimal primes p_1..p_r we use

    I^(n)  =  (I_{p_1})^n  ^ ... ^  (I_{p_r})^n          (minimal-prime form)
    I<n>   =  intersection over the maximal associated primes instead

where I_p denotes the monomial localization: set every variable outside p
to 1 in each generator and minimalize.  Both agree with the usual
definitions through saturation, and the ordinary power always sits inside:
I^n <= I<n> <= I^(n).

Every I^(n) and I<n> comes from one function, :func:`_localized_power`,
given I, a set of primes and n.  At n = 1 it returns I itself when every
associated prime of I lies inside one of the primes, so I^(1) is I iff I
has no embedded primes, and I<1> is always I.  For other n, I_p is the
intersection of the components of I with support in p, read off the
decomposition.  A lone component q_a (at every minimal prime of an edge
ideal, whose components are indexed by its strong vertex covers) is met
as q_a^n from degrees, by ``decomposition._meet_irreducible_power``, and
no power of it is formed.  Every other (I_p)^n is read off I^n where the
caller holds it, as localize(I^n, p): setting the variables outside p to
1 is a ring map, so (I^n)_p = (I_p)^n.  A one-shot call holds no I^n and
forms (I_p)^n from I_p.  So a walk of :func:`compare_powers_up_to` forms
only the chain of I, bound - 1 products, whatever its reports read.
Nothing outlives a call.
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
from .ideals import Exponent, MonomialIdeal, _check_power, _powers, _sift, intersect_all


def localize(ideal: MonomialIdeal, prime: MonomialPrime) -> MonomialIdeal:
    """Monomial localization I_p: kill exponents outside the prime's support."""
    if prime.num_vars != ideal.num_vars:
        raise DomainError("prime and ideal live in different rings")
    in_p = [i in prime.support for i in range(1, ideal.num_vars + 1)]
    gens = [tuple(e if k else 0 for e, k in zip(g, in_p)) for g in ideal.gens]
    return MonomialIdeal._from_trusted(gens, ideal.num_vars)


def max_ass(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Associated primes that are maximal under inclusion."""
    return irreducible_decomposition(ideal).maximal_primes


def symbolic_power_min(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """I^(n): localized powers intersected over the minimal primes."""
    return _localized_power(ideal, minimal_primes(ideal), n)


def symbolic_power_ass(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """I<n>: localized powers intersected over the maximal associated primes."""
    return _localized_power(ideal, max_ass(ideal), n)


def _localized_power(ideal, primes, n, power=None):
    """The intersection of (I_p)^n over `primes`; `power` is I^n if the
    caller holds it.

    I_p is the intersection of the components of I whose support lies in
    p, and the decomposition is irredundant.  So at n = 1 this is I itself
    iff every associated prime of I lies inside one of the primes.
    """
    _check_power(n, "symbolic power")
    if n == 1 and all(any(a <= p for p in primes) for a in associated_primes(ideal) - primes):
        return ideal
    components = [(c.support(), c.alpha) for c in irreducible_decomposition(ideal).components]
    lone, localized = [], []
    for p in sorted(primes, key=MonomialPrime.sort_key):
        inside = [alpha for support, alpha in components if support <= p.support]
        if len(inside) == 1:
            lone.append(inside[0])
        elif power is None:
            localized.append(localize(ideal, p) ** n)
        else:
            localized.append(localize(power, p))
    out = intersect_all(localized, ideal.num_vars)
    for alpha in lone:
        out = _meet_irreducible_power(out, alpha, n)
    return out


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
        if not embedded_primes(self.ideal):
            return self.symbolic_min
        return _localized_power(self.ideal, max_ass(self.ideal), self.n, self.ordinary)

    @cached_property
    def equal_ass(self) -> bool:
        return self.ordinary == self.symbolic_ass

    @cached_property
    def witnesses(self) -> tuple[Exponent, ...]:
        # I^n lies in I^(n), so equal powers leave no witness to look for.
        if self.equal_min:
            return ()
        return tuple(_sift(self.symbolic_min.gens, self.ordinary.gens)[1])


def compare_powers(ideal: MonomialIdeal, n: int) -> SymbolicPowerReport:
    """Compare I^n with both symbolic powers; witnesses live in I^(n) \\ I^n.

    Only I^n, I^(n) and `equal_min` are built here.  I<n>, read off this
    I^n, `equal_ass` and the witnesses are built when the report's
    attribute is first read.  When Ass(I) has no embedded primes, I<n> is
    the I^(n) already built.
    """
    return _report(ideal, n, ideal ** n, symbolic_power_min(ideal, n))


def compare_powers_up_to(ideal: MonomialIdeal, bound: int):
    """Yield the report of :func:`compare_powers` for n = 1..bound.

    I^n is read from the chain of I, and I^(n) and each report's I<n> are
    read off that I^n, so the walk forms no power but the chain's.  A
    report's I<n> is built when first read.
    """
    chain = _powers(ideal, bound)
    primes = minimal_primes(ideal)
    for n, power in enumerate(chain, 1):
        yield _report(ideal, n, power, _localized_power(ideal, primes, n, power))


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
