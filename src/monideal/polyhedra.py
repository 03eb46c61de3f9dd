"""Covering, Newton and irreducible polyhedra with exact rational arithmetic.

Everything here works on polyhedra in covering form

    {x in R^s : x >= 0, x . c >= 1 for every column c},

with nonnegative rational columns.  Such a polyhedron is pointed with
recession cone R^s_{>=0}, so it is determined by its vertex set.  One
enumerator finds it: double description of the homogenized cone, in
integer arithmetic, adding one column at a time (`_vertex_certificates`).

The covering polyhedron of an ideal has the generators as columns; the
Newton polyhedron's inequality description has the covering polyhedron's
vertices as columns; the irreducible polyhedron has the entrywise inverses
of the irreducible components' exponent vectors.  Integral closures of
powers fall out of the Newton description by a finite box scan.

One enumeration, of the vertex set V of Q(I), decides the conditions of
`polyhedral_conditions_check`; C are the irreducible polyhedron's columns.
The Newton and irreducible polyhedra are the blockers of Q(I) = conv(V) +
R^s_{>=0} and of conv(C) + R^s_{>=0} (Fulkerson, "Blocking and anti-blocking
pairs of polyhedra", Math. Programming 1, 1971), so they are equal iff those
are.  Each c in C lies in Q(I): a generator g in q_a has g_i >= a_i > 0 for
some i, so g . c >= 1.  A vertex of Q(I) in conv(C) + R^s_{>=0}, being no
proper combination of points of Q(I), is a c; so NP(I) = IP(I) iff V <= C.
The closure of q_a^n is {t^x : sum x_i / a_i >= n}, so the component
closures intersect to the box scan with rows C, in the same box as the
closure of I^n, x_k <= n * max_g g_k: lowering a minimal x_k by one breaks
a row with a_k > 0, so x_k <= n * a_k, and a_k is a generator's exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .decomposition import (
    IrreducibleDecomposition,
    irreducible_decomposition,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    FormatError,
    ResourceLimitExceeded,
)
from .graphs import WeightedOrientedGraph, alexander_dual
from .ideals import (
    Exponent,
    MonomialIdeal,
    power_contains,
)
from .symbolic import powers_equal_up_to

FractionVector = tuple[Fraction, ...]

DEFAULT_DIMENSION_LIMIT = 8
DEFAULT_CONSTRAINT_LIMIT = 24


@dataclass(frozen=True)
class CoveringFormPolyhedron:
    """{x >= 0, x . c >= 1 per column c}; columns are nonnegative rationals."""

    num_vars: int
    columns: tuple[FractionVector, ...]

    def __post_init__(self):
        columns = tuple(tuple(Fraction(x) for x in c) for c in self.columns)
        object.__setattr__(self, "columns", columns)
        for c in columns:
            if len(c) != self.num_vars:
                raise DimensionMismatch(
                    f"column {c} has length {len(c)}, expected {self.num_vars}"
                )
            if any(x < 0 for x in c):
                raise ValueError(f"column {c} has a negative entry")


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def contains_point(poly: CoveringFormPolyhedron, point) -> bool:
    point = tuple(Fraction(x) for x in point)
    if len(point) != poly.num_vars:
        raise DimensionMismatch(
            f"point {point} has length {len(point)}, expected {poly.num_vars}"
        )
    return all(x >= 0 for x in point) and all(
        _dot(point, c) >= 1 for c in poly.columns
    )


# perfbench/spans.py reads this function by name.
def _vertex_certificates(poly: CoveringFormPolyhedron) -> tuple[FractionVector, ...]:
    """The vertices, by double description of the homogenized cone.

    With d clearing the denominators of column c, the cone {(x0, x) :
    x0 >= 0, x >= 0, d*c . x - d*x0 >= 0 per column c} has the extreme
    rays (1, v) for the vertices v and (0, e_i) for the recession
    directions.  Start from the orthant, whose rays are the unit vectors,
    and add one column row at a time (Motzkin et al. 1953): rays on its
    positive side stay, rays on its negative side go, and each adjacent
    positive-negative pair gives one new ray on its hyperplane.  Two rays
    are adjacent iff at least dim - 2 rows are tight at both and no third
    ray is tight on all of those rows (Fukuda and Prodon, "Double
    description method revisited", 1996).
    """
    dim = poly.num_vars + 1
    # Integer rays, each with the bitmask of its tight rows; row j < dim is
    # coordinate j >= 0, row dim + k is column k.
    everything = (1 << dim) - 1
    rays = [
        (tuple(int(i == j) for i in range(dim)), everything ^ (1 << j))
        for j in range(dim)
    ]
    for bit, c in enumerate(poly.columns, start=dim):
        d = math.lcm(*(x.denominator for x in c))
        row = (-d, *(int(x * d) for x in c))
        dots = [_dot(row, r) for r, _ in rays]
        kept = [
            (r, tight | (1 << bit) if v == 0 else tight)
            for v, (r, tight) in zip(dots, rays)
            if v >= 0
        ]
        for i, (vp, (p, tight_p)) in enumerate(zip(dots, rays)):
            if vp <= 0:
                continue
            for j, (vn, (n, tight_n)) in enumerate(zip(dots, rays)):
                common = tight_p & tight_n
                if vn >= 0 or common.bit_count() < dim - 2 or any(
                    tight & common == common
                    for k, (_, tight) in enumerate(rays)
                    if k != i and k != j
                ):
                    continue
                ray = tuple(vp * y - vn * x for x, y in zip(p, n))
                g = math.gcd(*ray)
                kept.append((tuple(x // g for x in ray), common | (1 << bit)))
        rays = kept
    return tuple(sorted(
        tuple(Fraction(x, r[0]) for x in r[1:]) for r, _ in rays if r[0]
    ))


def enumerate_vertices(
    poly: CoveringFormPolyhedron,
    max_dim: int = DEFAULT_DIMENSION_LIMIT,
    max_constraints: int = DEFAULT_CONSTRAINT_LIMIT,
) -> tuple[FractionVector, ...]:
    """All vertices, sorted lexicographically.

    The dimension and the column count are limited by default; pass larger
    limits to enumerate bigger polyhedra.
    """
    if not poly.columns:
        raise DomainError("vertex enumeration needs at least one column")
    if poly.num_vars > max_dim:
        raise ResourceLimitExceeded(
            f"dimension {poly.num_vars} exceeds the limit {max_dim}; "
            "pass a larger max_dim (CLI: --max-vars) to proceed"
        )
    if len(poly.columns) > max_constraints:
        raise ResourceLimitExceeded(
            f"{len(poly.columns)} columns exceed the limit {max_constraints}; "
            "pass a larger max_constraints (CLI: --max-constraints) to proceed"
        )
    return _vertex_certificates(poly)


def polyhedra_equal(
    a: CoveringFormPolyhedron, b: CoveringFormPolyhedron, **limits
) -> bool:
    """Equality of covering-form polyhedra via their vertex sets.

    Valid because both share the recession cone R^s_{>=0} and are the
    convex hulls of their vertices plus that cone.
    """
    if a.num_vars != b.num_vars:
        raise DimensionMismatch(
            f"polyhedra live in dimensions {a.num_vars} and {b.num_vars}"
        )
    return set(enumerate_vertices(a, **limits)) == set(enumerate_vertices(b, **limits))


# ------------------------------------------------------- ideal polyhedra


def covering_polyhedron(ideal: MonomialIdeal) -> CoveringFormPolyhedron:
    """Q(I): columns are the minimal generators of I."""
    if ideal.is_zero() or ideal.is_unit():
        raise DomainError("the covering polyhedron needs a proper nonzero ideal")
    return CoveringFormPolyhedron(ideal.num_vars, ideal.gens)


def newton_hrep(ideal: MonomialIdeal, **limits) -> CoveringFormPolyhedron:
    """Inequality description of the Newton polyhedron of I.

    Its columns are the vertices of Q(I): a point lies in the Newton
    polyhedron exactly when it is nonnegative and pairs to >= 1 with each
    of those vertices.
    """
    return CoveringFormPolyhedron(
        ideal.num_vars, enumerate_vertices(covering_polyhedron(ideal), **limits)
    )


def newton_vertices(ideal: MonomialIdeal, **limits) -> tuple[Exponent, ...]:
    """The generators of I that are vertices of its Newton polyhedron.

    The description `newton_hrep` is the blocker of Q(I), and the blocker
    of the blocker of NP(I) is NP(I) (Fulkerson 1971), so the vertices of
    that description are the vertices of NP(I), all of them generators.
    `limits` bound the enumeration of Q(I) only: the description has as
    many columns as Q(I) has vertices, which they do not bound.
    """
    vertices = set(_vertex_certificates(newton_hrep(ideal, **limits)))
    return tuple(g for g in ideal.gens if g in vertices)


def irreducible_polyhedron(dec: IrreducibleDecomposition) -> CoveringFormPolyhedron:
    """Columns are the entrywise inverses of the components' exponent vectors."""
    columns = [
        tuple(Fraction(1, e) if e else Fraction(0) for e in c.alpha)
        for c in dec.components
    ]
    return CoveringFormPolyhedron(dec.num_vars, columns)


# -------------------------------------------------------- integral closure


def _closure_box_scan(ideal: MonomialIdeal, rows, n: int) -> MonomialIdeal:
    """Minimal t^a in the box a_k <= n * max_g g_k with a . r >= n per row r."""
    scaled = []
    for u in rows:
        d = math.lcm(*(x.denominator for x in u))
        scaled.append((tuple(int(x * d) for x in u), n * d))
    bounds = [n * max(g[k] for g in ideal.gens) for k in range(ideal.num_vars)]
    members = [
        a
        for a in product(*(range(b + 1) for b in bounds))
        if all(
            sum(x * y for x, y in zip(a, row)) >= rhs for row, rhs in scaled
        )
    ]
    return MonomialIdeal._from_trusted(members, ideal.num_vars)


def integral_closure_power(ideal: MonomialIdeal, n: int, **limits) -> MonomialIdeal:
    """The integral closure of I^n.

    A monomial t^a lies in it iff a pairs to >= n with every vertex of
    Q(I).  Minimal such a satisfy a_k <= n * (max generator exponent in
    coordinate k), so a finite box scan plus divisibility filtering finds
    the minimal generators.  `limits` go to :func:`enumerate_vertices`.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"integral closure of I^n requires an integer n >= 1, got {n!r}")
    return _closure_box_scan(
        ideal, enumerate_vertices(covering_polyhedron(ideal), **limits), n
    )


def closure_witness_scale(ideal: MonomialIdeal) -> int:
    """Lcm of the denominators of all vertices of Q(I)."""
    verts = enumerate_vertices(covering_polyhedron(ideal))
    return math.lcm(*(x.denominator for u in verts for x in u))


def closure_member_by_power_scan(
    ideal: MonomialIdeal,
    a: Exponent,
    n: int,
    scale_bound: int | None = None,
) -> int | None:
    """Smallest p <= scale_bound with p*a in I^(p*n), else None.

    Membership of t^a in the closure of I^n is equivalent to such a scaled
    power relation for some p >= 1; clearing the vertex denominators
    bounds the p that needs to be tried.  Used as the independent route in
    closure cross-checks.
    """
    if scale_bound is None:
        scale_bound = closure_witness_scale(ideal)
    for p in range(1, scale_bound + 1):
        if power_contains(ideal, tuple(p * x for x in a), p * n):
            return p
    return None


def closure_gaps(ideal: MonomialIdeal, bound: int, **limits):
    """Yield, for n = 1..bound, the generators of the closure of I^n outside I^n.

    I^n lies in its closure, so I^n is integrally closed iff the tuple for n
    is empty.  Each power is computed only when the caller asks for it.
    `limits` go to :func:`integral_closure_power`.
    """
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    for n in range(1, bound + 1):
        closure = integral_closure_power(ideal, n, **limits)
        power = ideal ** n
        yield tuple(g for g in closure.gens if not power.contains(g))


def is_normal_up_to(ideal: MonomialIdeal, bound: int, **limits) -> bool:
    """Does I^n equal its integral closure for every n = 1..bound?

    Stops at the first power that is not closed.
    """
    return not any(closure_gaps(ideal, bound, **limits))


# ------------------------------------------------------- combined checks


def decomposition_is_minimal(dec: IrreducibleDecomposition) -> bool:
    supports = [c.support() for c in dec.components]
    return len(supports) == len(set(supports))


@dataclass(frozen=True)
class PolyhedralConditionsReport:
    """The three polyhedral conditions that accompany I^n == I^(n) for all n.

    (a) the closure of I^n is the intersection of the closures of the
        component powers, checked for n = 1..`bound` (`closure_per_power`).
        It is only evaluated when the irreducible decomposition is minimal
        (pairwise distinct radicals); otherwise both fields are None,
    (b) the Newton polyhedron equals the irreducible polyhedron,
    (c) the vertices of Q(I) are exactly the entrywise inverses of the
        component exponent vectors.

    With V the vertices of Q(I) and C the irreducible columns, (b) is
    V <= C by blocking duality, (c) is V == C, and the right side of (a)
    is the closure box scan with rows C, as the closure of q_a^n is
    {t^x : sum x_i / a_i >= n}; the module docstring gives the proofs.

    When the caller also supplies whether I^n == I^(n) holds for every n,
    `consistent` records the implication equality => a, b, c (None when
    the antecedent is unknown or the decomposition is not minimal, since
    the implication then asserts nothing checkable).  Equality known only
    up to a bound is no such antecedent: a failing condition then means
    the powers differ at some larger n.
    """

    bound: int
    minimal: bool
    closure_intersections: bool | None
    closure_per_power: tuple[tuple[int, bool], ...] | None
    newton_equals_irreducible: bool
    vertices_are_component_inverses: bool
    powers_equal: bool | None
    consistent: bool | None


def polyhedral_conditions_check(
    ideal: MonomialIdeal,
    bound: int,
    powers_equal: bool | None = None,
    **limits,
) -> PolyhedralConditionsReport:
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")
    dec = irreducible_decomposition(ideal)
    minimal = decomposition_is_minimal(dec)
    vertices = enumerate_vertices(covering_polyhedron(ideal), **limits)
    columns = irreducible_polyhedron(dec).columns
    per_power = holds = None
    if minimal:
        per_power = tuple(
            (n, _closure_box_scan(ideal, vertices, n)
             == _closure_box_scan(ideal, columns, n))
            for n in range(1, bound + 1)
        )
        holds = all(ok for _, ok in per_power)
    b = set(vertices) <= set(columns)
    c = set(vertices) == set(columns)
    if powers_equal is None or not minimal:
        consistent = None
    elif not powers_equal:
        consistent = True
    else:
        consistent = holds and b and c
    return PolyhedralConditionsReport(
        bound=bound,
        minimal=minimal,
        closure_intersections=holds,
        closure_per_power=per_power,
        newton_equals_irreducible=b,
        vertices_are_component_inverses=c,
        powers_equal=powers_equal,
        consistent=consistent,
    )


@dataclass(frozen=True)
class DualNtfReport:
    """Symbolic-ordinary power equality of the dual edge ideal vs its
    polyhedral characterization (normality plus Newton == irreducible).

    Both sides of the equivalence are bounded computations, so a
    disagreement is only reported as a finite-bound caveat: whichever side
    looks true might still fail at a power beyond the bound.
    """

    bound: int
    powers_equal: bool
    normal: bool
    newton_equals_irreducible: bool
    rhs: bool
    agree: bool
    caveat: str | None


def dual_ntf_check(
    graph: WeightedOrientedGraph, bound: int, **limits
) -> DualNtfReport:
    dual = alexander_dual(graph)
    ideal = dual.ideal
    powers_equal = powers_equal_up_to(ideal, bound)
    normal = is_normal_up_to(ideal, bound, **limits)
    # NP(I) == IP(I) iff V <= C; see the module docstring.
    vertices = enumerate_vertices(covering_polyhedron(ideal), **limits)
    np_eq_ip = set(vertices) <= set(irreducible_polyhedron(dual.decomposition).columns)
    rhs = normal and np_eq_ip
    agree = powers_equal == rhs
    caveat = None
    if not agree:
        caveat = (
            f"sides disagree at bound {bound}: the equivalence holds for all powers "
            "jointly, so the side that looks true here must fail beyond the bound"
        )
    return DualNtfReport(
        bound=bound,
        powers_equal=powers_equal,
        normal=normal,
        newton_equals_irreducible=np_eq_ip,
        rhs=rhs,
        agree=agree,
        caveat=caveat,
    )


# --------------------------------------------------- solver exchange format


def format_fraction_vector(v) -> str:
    return "(" + ",".join(str(Fraction(x)) for x in v) + ")"


def emit_constraint_block(
    poly: CoveringFormPolyhedron, vertices: tuple[FractionVector, ...] | None = None
) -> str:
    """Text block in the common solver exchange layout.

    `amb_space`, a `constraints` count, one row per inequality with its
    right-hand side, then (optionally) a VerticesOfPolyhedron section with
    one space-separated vertex per line, fractions kept exact.
    """
    s = poly.num_vars
    lines = [f"amb_space {s}", f"constraints {s + len(poly.columns)}"]
    for i in range(s):
        lines.append(" ".join("1" if k == i else "0" for k in range(s)) + " >= 0")
    for c in poly.columns:
        lines.append(" ".join(str(x) for x in c) + " >= 1")
    if vertices is not None:
        lines.append(f"VerticesOfPolyhedron {len(vertices)}")
        for v in vertices:
            lines.append(" ".join(str(x) for x in v))
    return "\n".join(lines) + "\n"


_OUTPUT_KEYWORDS = {"SupportHyperplanes", "ExtremeRays", "VerticesOfPolyhedron"}


def parse_constraint_block(text: str) -> CoveringFormPolyhedron:
    """Parse the solver exchange layout back into covering form.

    Rows with right-hand side 0 must be the coordinate nonnegativity rows
    (unit vectors) and may be omitted; rows with right-hand side 1 become
    columns.  Trailing output-request keywords are ignored.
    """

    def fail(lineno, message):
        raise FormatError(f"line {lineno}: {message}")

    amb: int | None = None
    expected: int | None = None
    seen = 0
    columns = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "amb_space":
            if amb is not None:
                fail(lineno, "duplicate amb_space")
            if len(fields) != 2 or not fields[1].isdigit() or int(fields[1]) < 1:
                fail(lineno, "expected: amb_space <dimension>")
            amb = int(fields[1])
        elif fields[0] == "constraints":
            if amb is None:
                fail(lineno, "constraints before amb_space")
            if len(fields) != 2 or not fields[1].isdigit():
                fail(lineno, "expected: constraints <count>")
            expected = int(fields[1])
        elif fields[0] in _OUTPUT_KEYWORDS:
            # An output section (and any data rows under it) ends the input.
            break
        else:
            if amb is None:
                fail(lineno, "constraint row before amb_space")
            if len(fields) != amb + 2 or fields[-2] != ">=":
                fail(lineno, f"expected {amb} coefficients, '>=' and a right-hand side")
            try:
                row = tuple(Fraction(tok) for tok in fields[:amb])
                rhs = Fraction(fields[-1])
            except (ValueError, ZeroDivisionError):
                fail(lineno, "coefficients must be integers or fractions p/q")
            if any(x < 0 for x in row):
                fail(lineno, "covering form needs nonnegative coefficients")
            seen += 1
            if rhs == 0:
                if sum(1 for x in row if x) != 1 or max(row) != 1:
                    fail(lineno, "right-hand side 0 is only for coordinate rows x_i >= 0")
            elif rhs == 1:
                columns.append(row)
            else:
                fail(lineno, f"right-hand side must be 0 or 1, got {rhs}")
    if amb is None:
        raise FormatError("missing amb_space line")
    if expected is not None and seen != expected:
        raise FormatError(f"declared {expected} constraints but found {seen}")
    if not columns:
        raise FormatError("no constraint rows with right-hand side 1")
    return CoveringFormPolyhedron(amb, tuple(columns))
