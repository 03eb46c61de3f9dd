"""Symbolic powers of monomial ideals, in two flavours.

For a proper nonzero monomial ideal I with minimal primes p_1..p_r we use

    I^(n)  =  (I_{p_1})^n  ^ ... ^  (I_{p_r})^n          (minimal-prime form)
    I<n>   =  intersection over the maximal associated primes instead

where I_p denotes the monomial localization: set every variable outside p
to 1 in each generator and minimalize.  Both agree with the usual
definitions through saturation, and the ordinary power always sits inside:
I^n <= I<n> <= I^(n).
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import (
    MonomialPrime,
    associated_primes,
    embedded_primes,
    minimal_primes,
)
from .errors import ConsistencyError, DomainError
from .ideals import Exponent, MonomialIdeal, intersect_all


def localize(ideal: MonomialIdeal, prime: MonomialPrime) -> MonomialIdeal:
    """Monomial localization I_p: kill exponents outside the prime's support."""
    if prime.num_vars != ideal.num_vars:
        raise DomainError("prime and ideal live in different rings")
    keep = prime.support
    return MonomialIdeal._from_trusted(
        [
            tuple(e if (i + 1) in keep else 0 for i, e in enumerate(g))
            for g in ideal.gens
        ],
        ideal.num_vars,
    )


def _sorted_primes(primes):
    return sorted(primes, key=lambda p: p.sort_key())


def max_ass(ideal: MonomialIdeal) -> frozenset[MonomialPrime]:
    """Associated primes that are maximal under inclusion."""
    ass = associated_primes(ideal)
    return frozenset(
        p for p in ass if not any(p.support < q.support for q in ass)
    )


def symbolic_power_min(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """I^(n): localized powers intersected over the minimal primes."""
    return _localized_power_intersection(ideal, n, minimal_primes(ideal))


def symbolic_power_ass(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """I<n>: localized powers intersected over the maximal associated primes."""
    return _localized_power_intersection(ideal, n, max_ass(ideal))


def _localized_power_intersection(ideal, n, primes):
    if ideal.is_zero() or ideal.is_unit():
        raise DomainError("symbolic powers need a proper nonzero ideal")
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"symbolic power requires an integer n >= 1, got {n!r}")
    return intersect_all(
        [localize(ideal, p) ** n for p in _sorted_primes(primes)],
        ideal.num_vars,
    )


@dataclass(frozen=True)
class SymbolicPowerReport:
    """Ordinary vs symbolic powers of one ideal at one exponent."""

    n: int
    ordinary: MonomialIdeal
    symbolic_min: MonomialIdeal
    symbolic_ass: MonomialIdeal
    equal_min: bool
    equal_ass: bool
    witnesses: tuple[Exponent, ...]


def compare_powers(ideal: MonomialIdeal, n: int) -> SymbolicPowerReport:
    """Compare I^n with both symbolic powers; witnesses live in I^(n) \\ I^n.

    When the minimal primes are also the maximal associated ones, Ass(I)
    has no embedded primes, both symbolic powers intersect over the same
    primes, and I^(n) is computed once.
    """
    ordinary = ideal ** n
    smin = symbolic_power_min(ideal, n)
    if max_ass(ideal) == minimal_primes(ideal):
        sass = smin
    else:
        sass = symbolic_power_ass(ideal, n)
    equal_min = ordinary == smin
    # I^n lies in I^(n), so equal powers leave no witness to look for.
    witnesses = () if equal_min else tuple(smin._split(ordinary)[1])
    return SymbolicPowerReport(
        n=n,
        ordinary=ordinary,
        symbolic_min=smin,
        symbolic_ass=sass,
        equal_min=equal_min,
        equal_ass=ordinary == sass,
        witnesses=witnesses,
    )


def powers_equal_up_to(ideal: MonomialIdeal, bound: int) -> bool:
    """Does I^n equal I^(n) for every n = 1..bound?"""
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    power = ideal
    for n in range(1, bound + 1):
        if n > 1:
            power = power * ideal
        if power != symbolic_power_min(ideal, n):
            return False
    return True


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
    and a mismatch raises, since it could only come from a bug.
    """
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    base = associated_primes(ideal)
    no_embedded = not embedded_primes(ideal)
    per_power = []
    holds = True
    power = ideal
    for n in range(1, bound + 1):
        if n > 1:
            power = power * ideal
        ass_n = associated_primes(power)
        same = ass_n == base
        if no_embedded and same != (power == symbolic_power_min(ideal, n)):
            raise ConsistencyError(
                f"Ass(I^{n}) vs symbolic-power routes disagree at n={n}"
            )
        per_power.append((n, ass_n))
        holds = holds and same
    return NtfReport(bound=bound, holds=holds, ass_by_power=tuple(per_power))
