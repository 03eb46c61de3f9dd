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
powers fall out of the Newton description by a pruned search of a finite
box, which sets one coordinate at a time under three exact rules:
- drop a prefix when some row cannot be met even with the coordinates still
  unset at their bounds: no point of the box below that prefix is a member;
- drop a row once a prefix meets it: coordinates only add, so a met row
  never again changes a bound, a member or a child;
- stop raising a coordinate at sat, the least value meeting every short row
  it touches: one below a larger value still meets them, so it gives only
  multiples; if those are all the short rows, sat completes a member.

One enumeration, of the vertex set V of Q(I), decides every question about
the Newton and irreducible polyhedra; C are the irreducible polyhedron's
columns.  These are the blockers of Q(I) = conv(V) + R^s_{>=0} and of
conv(C) + R^s_{>=0} (Fulkerson, "Blocking and anti-blocking pairs of
polyhedra", Math. Programming 1, 1971), so they are equal iff those are.
Each c in C lies in Q(I): a generator g in q_a has g_i >= a_i > 0 for some
i, so g . c >= 1.  A vertex of Q(I) in conv(C) + R^s_{>=0}, being no proper
combination of points of Q(I), is a c; so NP(I) = IP(I) iff V <= C.
- The vertices of NP(I) = {x >= 0 : x . v >= 1, v in V} are generators,
  and a generator g is one iff no other generator is tight on every row
  tight at g (the v with v . g = 1 and the i with g_i = 0): a vertex's
  tight rows have rank s, and a generator that is no vertex lies inside a
  face of dimension >= 1, one of whose vertices is such a generator.
- The closure of q_a^n is {t^x : sum x_i / a_i >= n}, so the component
  closures intersect to the closure search with rows C, in the same box as
  the closure of I^n, x_k <= n * max_g g_k: lowering a minimal x_k by one
  breaks a row with a_k > 0, so x_k <= n * a_k, a generator's exponent.
  As C lies in Q(I), that intersection holds the closure of I^n, and
  equals it iff each generator of the search meets every v in V to >= n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .decomposition import IrreducibleDecomposition, irreducible_decomposition
from .errors import DomainError, FormatError, ResourceLimitExceeded
from .ideals import Exponent, MonomialIdeal, _check_bound, _powers, power_contains
from .ideals import _check_power, _check_vectors, _fail, _read_int

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
        _check_vectors(columns, self.num_vars, "column")


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _integer_rows(rows):
    """Each rational row r as (d * r, d), with d the lcm of its denominators."""
    for r in rows:
        d = math.lcm(*(x.denominator for x in r))
        yield tuple(int(x * d) for x in r), d


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
    for bit, (c, d) in enumerate(_integer_rows(poly.columns), start=dim):
        row = (-d, *c)
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


def _generators_at_vertices(ideal: MonomialIdeal, hrep: CoveringFormPolyhedron):
    """The generators of I that are vertices of NP(I), for `hrep` =
    :func:`newton_hrep` (I), by the tight-row rule of the module docstring."""
    rows = list(_integer_rows(hrep.columns))
    tight = [
        sum(1 << j for j, (v, d) in enumerate(rows) if _dot(v, g) == d)
        | sum(1 << (len(rows) + i) for i, e in enumerate(g) if not e)
        for g in ideal.gens
    ]
    return tuple(
        g for i, (g, t) in enumerate(zip(ideal.gens, tight))
        if not any(u & t == t for j, u in enumerate(tight) if j != i)
    )


def irreducible_polyhedron(dec: IrreducibleDecomposition) -> CoveringFormPolyhedron:
    """Columns are the entrywise inverses of the components' exponent vectors."""
    columns = [
        tuple(Fraction(1, e) if e else Fraction(0) for e in c.alpha)
        for c in dec.components
    ]
    return CoveringFormPolyhedron(dec.num_vars, columns)


# -------------------------------------------------------- integral closure


def _closure_box_scan(ideal: MonomialIdeal, rows, n: int) -> MonomialIdeal:
    """Minimal t^a in the box a_k <= n * max_g g_k with a . r >= n per row r.

    A depth-first search sets a_0, a_1, ... in turn, keeping each short row
    with what it still needs, under the rules of the module docstring.  At
    coordinate k the values below `low` leave some row short even with
    a_k+1.. at their bounds; `sat` meets every short row touching a_k, and
    when those are all, `stop` is `sat` and that prefix, padded with zeros,
    is a member.  So the search emits every minimal member and only members,
    and its stack holds at most one prefix per value of each coordinate.
    """
    scaled = [(row, n * d) for row, d in _integer_rows(rows)]
    s = ideal.num_vars
    bounds = [n * max(g[k] for g in ideal.gens) for k in range(s)]
    # reach[k][j]: the most that coordinates k.. can add to row j.
    reach = [(0,) * len(scaled)]
    for k in reversed(range(s)):
        reach.append(tuple(
            r + row[k] * bounds[k] for r, (row, _) in zip(reach[-1], scaled)
        ))
    reach.reverse()
    columns = [tuple(row[k] for row, _ in scaled) for k in range(s)]
    members = []
    stack = [((), list(enumerate(rhs for _, rhs in scaled)))]
    while stack:
        prefix, short = stack.pop()
        k = len(prefix)
        column, rest = columns[k], reach[k + 1]
        low = sat = stop = 0
        for j, left in short:
            if c := column[j]:
                if (x := -((rest[j] - left) // c)) > low:
                    low = x
                if (x := -(-left // c)) > sat:
                    sat = x
            else:
                stop = bounds[k] + 1
                if left > rest[j]:
                    low = stop
        stop = max(stop, sat)
        if stop <= bounds[k]:
            members.append((*prefix, stop, *(0,) * (s - k - 1)))
        for v in range(low, min(stop, sat + 1, bounds[k] + 1)):
            stack.append(((*prefix, v), [
                (j, rem) for j, left in short if (rem := left - column[j] * v) > 0
            ]))
    return MonomialIdeal._from_trusted(members, ideal.num_vars)


def integral_closure_power(ideal: MonomialIdeal, n: int, **limits) -> MonomialIdeal:
    """The integral closure of I^n.

    A monomial t^a lies in it iff a pairs to >= n with every vertex of
    Q(I).  Minimal such a satisfy a_k <= n * (max generator exponent in
    coordinate k), so a pruned search of that box (the rules are in the
    module docstring) plus divisibility filtering finds the minimal
    generators.  `limits` go to :func:`enumerate_vertices`.
    """
    _check_power(n, "integral closure of I^n")
    return _closure_box_scan(
        ideal, enumerate_vertices(covering_polyhedron(ideal), **limits), n
    )


def closure_member_by_power_scan(ideal: MonomialIdeal, a: Exponent, n: int) -> int | None:
    """Smallest p with p*a in I^(p*n), else None.

    Membership of t^a in the closure of I^n is equivalent to such a scaled
    power relation for some p >= 1, and p need not exceed the lcm of the
    denominators of the vertices of Q(I), which clears them.  Used as the
    independent route in closure cross-checks.
    """
    verts = enumerate_vertices(covering_polyhedron(ideal))
    for p in range(1, math.lcm(*(x.denominator for u in verts for x in u)) + 1):
        if power_contains(ideal, tuple(p * x for x in a), p * n):
            return p
    return None


def closure_gaps(ideal: MonomialIdeal, bound: int, **limits):
    """Yield, for n = 1..bound, the generators of the closure of I^n outside I^n.

    I^n lies in its closure, so I^n is integrally closed iff the tuple for n
    is empty.  The vertices of Q(I) are enumerated once, at the first
    request; each power is read from the power chain only when the caller
    asks for it.  `limits` go to :func:`enumerate_vertices`.
    """
    powers = _powers(ideal, bound)
    vertices = enumerate_vertices(covering_polyhedron(ideal), **limits)
    for n, power in enumerate(powers, 1):
        yield tuple(_closure_box_scan(ideal, vertices, n)._split(power)[1])


def is_normal_up_to(ideal: MonomialIdeal, bound: int, **limits) -> bool:
    """Does I^n equal its integral closure for every n = 1..bound?

    Stops at the first power that is not closed.
    """
    return not any(closure_gaps(ideal, bound, **limits))


# ------------------------------------------------------- combined checks


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
    V <= C by blocking duality, (c) is V == C, and (a) at n holds iff every
    generator x of the closure search with rows C has x . v >= n for each
    v in V; the module docstring gives the proofs.

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
    _check_bound(bound)
    dec = irreducible_decomposition(ideal)
    supports = [c.support() for c in dec.components]
    minimal = len(supports) == len(set(supports))
    vertices = enumerate_vertices(covering_polyhedron(ideal), **limits)
    columns = irreducible_polyhedron(dec).columns
    per_power = holds = None
    if minimal:
        rows = list(_integer_rows(vertices))
        per_power = tuple(
            (n, all(
                _dot(x, v) >= n * d
                for x in _closure_box_scan(ideal, columns, n).gens
                for v, d in rows
            ))
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


# --------------------------------------------------- solver exchange format


def format_fraction_vector(v) -> str:
    return "(" + ",".join(str(Fraction(x)) for x in v) + ")"


def emit_constraint_block(
    poly: CoveringFormPolyhedron, vertices: tuple[FractionVector, ...]
) -> str:
    """Text block in the common solver exchange layout.

    `amb_space`, a `constraints` count, one row per inequality with its
    right-hand side, then a VerticesOfPolyhedron section with one
    space-separated vertex per line, fractions kept exact.
    """
    s = poly.num_vars
    lines = [f"amb_space {s}", f"constraints {s + len(poly.columns)}"]
    for i in range(s):
        lines.append(" ".join("1" if k == i else "0" for k in range(s)) + " >= 0")
    for c in poly.columns:
        lines.append(" ".join(str(x) for x in c) + " >= 1")
    lines.append(f"VerticesOfPolyhedron {len(vertices)}")
    lines.extend(" ".join(str(x) for x in v) for v in vertices)
    return "\n".join(lines) + "\n"


_OUTPUT_KEYWORDS = {"SupportHyperplanes", "ExtremeRays", "VerticesOfPolyhedron"}


def parse_constraint_block(text: str) -> CoveringFormPolyhedron:
    """Parse the solver exchange layout back into covering form.

    Rows with right-hand side 0 must be the coordinate nonnegativity rows
    (unit vectors) and may be omitted; rows with right-hand side 1 become
    columns.  Trailing output-request keywords are ignored.
    """
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
                _fail(lineno, "duplicate amb_space")
            amb = _read_int(fields[1], lineno) if len(fields) == 2 and fields[1].isdigit() else 0
            if amb < 1:
                _fail(lineno, "expected: amb_space <dimension>")
        elif fields[0] == "constraints":
            if amb is None:
                _fail(lineno, "constraints before amb_space")
            if len(fields) != 2 or not fields[1].isdigit():
                _fail(lineno, "expected: constraints <count>")
            expected = _read_int(fields[1], lineno)
        elif fields[0] in _OUTPUT_KEYWORDS:
            # An output section (and any data rows under it) ends the input.
            break
        else:
            if amb is None:
                _fail(lineno, "constraint row before amb_space")
            if len(fields) != amb + 2 or fields[-2] != ">=":
                _fail(lineno, f"expected {amb} coefficients, '>=' and a right-hand side")
            try:
                row = tuple(Fraction(tok) for tok in fields[:amb])
                rhs = Fraction(fields[-1])
            except (ValueError, ZeroDivisionError):
                _fail(lineno, "coefficients must be integers or fractions p/q")
            if any(x < 0 for x in row):
                _fail(lineno, "covering form needs nonnegative coefficients")
            seen += 1
            if rhs == 0:
                if sum(1 for x in row if x) != 1 or max(row) != 1:
                    _fail(lineno, "right-hand side 0 is only for coordinate rows x_i >= 0")
            elif rhs == 1:
                columns.append(row)
            else:
                _fail(lineno, f"right-hand side must be 0 or 1, got {rhs}")
    if amb is None:
        raise FormatError("missing amb_space line")
    if expected is not None and seen != expected:
        raise FormatError(f"declared {expected} constraints but found {seen}")
    if not columns:
        raise FormatError("no constraint rows with right-hand side 1")
    return CoveringFormPolyhedron(amb, tuple(columns))
