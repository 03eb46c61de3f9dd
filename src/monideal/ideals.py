"""Exact arithmetic for monomial ideals.

A monomial t^a in s variables is stored as its exponent vector, a length-s
tuple of naturals.  A :class:`MonomialIdeal` keeps the unique minimal
generating set: a divisibility antichain sorted by total degree and then
lexicographically.  That canonical form makes ideal equality plain tuple
equality and keeps every printed output reproducible.  Exponents are Python
ints, so arithmetic never overflows.

Conventions: the zero ideal has no generators, the unit ideal is generated
by the zero vector, and variables are written t1..ts (1-indexed).

Vectors are validated in one place, :func:`_check_vectors`, which checks
the vectors that come from outside: those given to
:meth:`MonomialIdeal.from_gens` (and so to :func:`parse_ideal`), the `gens`
of the public constructor, irreducible ideals, polyhedron columns and the
monomials asked about by `contains` and :func:`power_contains`.  Entries
must be ints (Fractions for columns); nothing is coerced.
Results derived from ideals the library already holds (products,
intersections, localizations, closures) go through the private
:meth:`MonomialIdeal._from_trusted`, which minimalizes without checking
again.  Only vectors built from valid operands may be passed to it.

Divisibility is tested on one bitset kernel.  It indexes a list of vectors
by the bits of Python ints: the mask of a coordinate and a threshold x
holds the vectors whose entry there is at least x.  :func:`_multiples`
ANDs one mask per coordinate and so finds every multiple of t^g in the
list at once; the big-int operations run in C.  :func:`_at_least` only
keeps each column as `bytes`, with entries above 255 clamped to 255, and a
mask is built from those bytes the first time a query needs it.  For a
threshold of 256 or more the clamped bytes cannot tell the entries apart,
so its mask is read from the column of ints, and exponents of any size
stay exact.
A query reads the tables of the nonzero coordinates of t^g only.
Minimalization sorts its candidates by total degree alone, drops the
multiples of each minimal generator in one step, and puts only the kept
generators in graded-lex order at the end.  The membership split behind
intersection, inclusion and `contains` ORs the multiples of the other
ideal's generators.  An intersection J ^ K passes through the generators of either
side that lie in the other side, and pairs only the rest: if u in J lies in
K, then u lies in J ^ K, and every lcm(u, v) is a multiple of u, so those
lcms add nothing.  Products and intersections build their candidates column
by column, one list of sums or maxima per coordinate over all pairs, and
zip the columns into vectors, so no Python function is called per pair.

Every power comes from one chain, :func:`_powers`: I, I^2, ..., each the
previous power times I.  `**` reads its last item, and the walks over n
read it one power at a time.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

from .errors import DimensionMismatch, DomainError, FormatError, ResourceLimitExceeded

Exponent = tuple[int, ...]


def graded_lex_key(v: Exponent):
    """Sort key: total degree first, ties broken lexicographically."""
    return (sum(v), v)


# _REACH[x] is a bytes.translate table that maps a byte b to the digit "1"
# if b >= x and to "0" otherwise.
_REACH = [b"0" * x + b"1" * (256 - x) for x in range(256)]


def _at_least(vecs):
    """Per-coordinate tables from which :func:`_multiples` reads masks.

    For coordinate i the table is ``(column, raw, memo)``: the column
    itself, the column reversed as `bytes` with every value above 255
    clamped to 255, and an empty dict that memoizes the masks built from
    them.  Reversed, the last vector comes first, so a string of binary
    digits read from `raw` by ``int(digits, 2)`` has bit j for
    ``vecs[j]``.  No mask is built here: a list of a handful of vectors
    pays for one `bytes` per column, and masks for values that no query
    asks for are never made.
    """
    tables = []
    for column in zip(*vecs):
        try:
            raw = bytes(column)[::-1]
        except ValueError:
            raw = bytes([x if x < 256 else 255 for x in column])[::-1]
        tables.append((column, raw, {}))
    return tables


def _multiples(tables, g):
    """Bitmask of the vectors indexed by `tables` that t^g divides.

    Coordinate by coordinate, AND in the mask of the vectors whose entry
    is at least g_i: a vector survives iff it reaches g_i in every
    coordinate.  A mask is built the first time a threshold x is asked
    for and kept in the column's memo.  For x <= 255 it is `raw`
    translated by ``_REACH[x]``; the clamp at 255 keeps this exact, since
    a clamped entry is above 255 and so reaches x either way.  For
    x >= 256 the clamped bytes cannot tell the entries apart, so the mask
    is read from the column itself by comparing ints, and exponents of
    any size stay exact.  Only the tables of the support of g are read:
    a zero g_i holds every vector.  The result is 0 when no vector
    reaches some g_i, and -1 (every bit) when g is the zero vector, which
    divides everything.
    """
    hit = -1
    for i, x in enumerate(g):
        if x:
            column, raw, memo = tables[i]
            mask = memo.get(x)
            if mask is None:
                if x < 256:
                    digits = raw.translate(_REACH[x])
                else:
                    digits = bytes(map(x.__le__, reversed(column))).translate(_REACH[1])
                mask = memo[x] = int(digits, 2)
            hit &= mask
    return hit


def _sift(vecs, gens):
    """Split `vecs` into those divisible by one of `gens` and the rest,
    each list in the order of `vecs`."""
    if not vecs:
        return [], []  # no tables to read a mask from
    tables = _at_least(vecs)
    hit = 0
    for g in gens:
        hit |= _multiples(tables, g)
    inside: list[Exponent] = []
    outside: list[Exponent] = []
    bits = format(hit & ((1 << len(vecs)) - 1), f"0{len(vecs)}b")
    for v, bit in zip(vecs, reversed(bits)):
        (inside if bit == "1" else outside).append(v)
    return inside, outside


def minimal_generators(vectors) -> tuple[Exponent, ...]:
    """Divisibility antichain of `vectors`, canonically sorted.

    The distinct vectors are sorted by total degree only, ties in no
    particular order, and indexed by the bits of `alive`, which starts
    with every bit set.  The lowest alive vector is minimal.  A proper
    divisor of it has smaller degree, so it comes earlier, and every
    earlier vector was either emitted or cleared as a multiple of an
    emitted one; either way an emitted vector divides the divisor and so
    would have cleared this vector already.  It is emitted, and all its
    multiples are cleared at once with the mask of :func:`_multiples`.
    Only the kept vectors are then put in graded-lex order, so the
    candidates, usually many more, are never compared lexicographically.
    """
    vecs = list(set(vectors))
    vecs.sort(key=sum)
    if len(vecs) < 2:
        return tuple(vecs)
    tables = _at_least(vecs)
    alive = (1 << len(vecs)) - 1
    out: list[Exponent] = []
    while alive:
        low = alive & -alive
        v = vecs[low.bit_length() - 1]
        out.append(v)
        # v is among its own multiples; clearing `low` as well bounds the
        # rounds by the vector count even if a table were wrong.
        alive &= ~(low | _multiples(tables, v))
    out.sort()
    out.sort(key=sum)  # stable, so this is graded-lex order
    return tuple(out)


def _check_vectors(vectors, num_vars: int, noun: str = "generator", entry=int):
    """The `vectors` as a tuple of tuples, refusing a ring without an int
    count of variables and vectors that are not length-`num_vars` vectors
    of nonnegative `entry` values; messages call each vector a `noun`."""
    if not isinstance(num_vars, int) or num_vars < 1:
        raise ValueError(f"need an int count of at least one variable, got {num_vars!r}")
    vecs = tuple(map(tuple, vectors))
    for v in vecs:
        if len(v) != num_vars:
            raise DimensionMismatch(
                f"{noun} {v} has length {len(v)}, expected {num_vars}"
            )
        if not all(isinstance(e, entry) for e in v):
            raise ValueError(f"{noun} {v} has a non-{entry.__name__} entry")
        if any(e < 0 for e in v):
            raise ValueError(f"{noun} {v} has a negative exponent")
    return vecs


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its canonical minimal generators.

    Instances are immutable and hashable; build them with
    :meth:`from_gens` rather than the raw constructor, which checks the
    vectors, stores them as tuples and refuses generators that are not
    already canonical int vectors.
    """

    num_vars: int
    gens: tuple[Exponent, ...]

    def __post_init__(self):
        gens = _check_vectors(self.gens, self.num_vars)
        if gens != minimal_generators(gens):
            raise ValueError(
                f"generators {gens} are not the canonical minimal int vectors; "
                "build the ideal with MonomialIdeal.from_gens"
            )
        object.__setattr__(self, "gens", gens)

    @staticmethod
    def from_gens(vectors, num_vars: int) -> "MonomialIdeal":
        """The ideal generated by `vectors`, in canonical minimal form."""
        return MonomialIdeal._from_trusted(_check_vectors(vectors, num_vars), num_vars)

    @staticmethod
    def _from_trusted(vectors, num_vars: int) -> "MonomialIdeal":
        """Minimalize vectors derived from valid ideals, skipping the checks.

        Every vector must already be a tuple of naturals of length
        `num_vars`; see the module docstring for who may call this.
        """
        ideal = object.__new__(MonomialIdeal)
        object.__setattr__(ideal, "num_vars", num_vars)
        object.__setattr__(ideal, "gens", minimal_generators(vectors))
        return ideal

    @staticmethod
    def zero(num_vars: int) -> "MonomialIdeal":
        return MonomialIdeal(num_vars, ())

    @staticmethod
    def unit(num_vars: int) -> "MonomialIdeal":
        return MonomialIdeal(num_vars, ((0,) * num_vars,))

    # ------------------------------------------------------------ predicates

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return bool(self.gens) and sum(self.gens[0]) == 0

    def contains(self, a: Exponent) -> bool:
        """Is the monomial t^a in the ideal?"""
        return bool(_sift(_check_vectors((a,), self.num_vars, "monomial"), self.gens)[0])

    def __le__(self, other: "MonomialIdeal") -> bool:
        """Ideal inclusion: every generator of self lies in other."""
        self._check_compatible(other)
        return not _sift(self.gens, other.gens)[1]

    def _check_compatible(self, other: "MonomialIdeal"):
        if not isinstance(other, MonomialIdeal):
            raise TypeError(f"expected a MonomialIdeal, got {type(other).__name__}")
        if self.num_vars != other.num_vars:
            raise DimensionMismatch(
                f"ideals live in {self.num_vars} and {other.num_vars} variables"
            )

    # ------------------------------------------------------------ arithmetic

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Product J * K, generated by the sums of all generator pairs.

        The sums are formed a column at a time: column i of the candidates
        lists x + y for every pair of entries of column i of J and of K,
        in the same pair order in every column, so zipping the columns
        back together gives the sum vectors with no Python call per pair.
        """
        self._check_compatible(other)
        pairs = zip(zip(*self.gens), zip(*other.gens))
        cols = [[x + y for x in cu for y in cv] for cu, cv in pairs]
        return MonomialIdeal._from_trusted(list(zip(*cols)), self.num_vars)

    def __pow__(self, n: int) -> "MonomialIdeal":
        _check_power(n, "ideal power")
        return _last(_powers(self, n))

    def __and__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection J ^ K, through the generators the two sides share.

        J ^ K is generated by the lcms of all pairs of generators.  A
        generator u of J that lies in K passes through: u lies in J ^ K,
        and every lcm(u, v) is a multiple of u, so those lcms add nothing.
        The same holds for K.  So only the generators of each side outside
        the other side are paired, and the members join the lcms as they
        are before minimalization.  The lcms are formed column by column, as the sums of :meth:`__mul__`
        are, with an entrywise max in place of the sum.
        """
        self._check_compatible(other)
        in_j, out_j = _sift(self.gens, other.gens)
        in_k, out_k = _sift(other.gens, self.gens)
        cols = [
            [x if x >= y else y for x in cu for y in cv]
            for cu, cv in zip(zip(*out_j), zip(*out_k))
        ]
        return MonomialIdeal._from_trusted(
            in_j + in_k + list(zip(*cols)), self.num_vars
        )

    def __str__(self) -> str:
        return format_ideal(self)


def intersect_all(ideals, num_vars: int) -> MonomialIdeal:
    """Left fold of pairwise intersection; empty input gives the unit ideal
    in `num_vars` variables."""
    ideals = list(ideals)
    if not ideals:
        return MonomialIdeal.unit(num_vars)
    out = ideals[0]
    for j in ideals[1:]:
        out = out & j
    return out


def _check_bound(bound):
    if not isinstance(bound, int):
        raise DomainError(f"bound must be an integer, got {bound!r}")
    if bound < 1:
        raise DomainError(f"bound must be >= 1, got {bound}")


def _check_power(n, noun):
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"{noun} requires an integer n >= 1, got {n!r}")


def _powers(ideal: MonomialIdeal, bound: int):
    """I^1..I^bound, each formed when asked for as the previous power times
    I; the bound is checked at the call, before any power is formed."""
    _check_bound(bound)
    return accumulate(repeat(ideal, bound), mul)


def _last(items):
    """The last item of an iterator, keeping no earlier one alive."""
    return deque(items, maxlen=1).pop()


def power_contains(ideal: MonomialIdeal, a: Exponent, n: int) -> bool:
    """Is t^a in I^n, decided without expanding the power's generators?

    Searches for nonnegative multiplicities (c_1..c_q) with sum n whose
    weighted generator sum divides a, pruning a branch as soon as some
    coordinate overflows.  Equivalent to `(ideal ** n).contains(a)` but
    usable for the large n that turn up when scaled membership relations
    p*a in I^{p*n} are scanned.
    """
    _check_power(n, "ideal power")
    (a,) = _check_vectors((a,), ideal.num_vars, "monomial")
    if ideal.is_unit():
        return True
    gens = ideal.gens
    if not gens or sum(a) < n * sum(gens[0]):  # gens sorted by degree
        return False

    # Depth-first over (next generator, multiplicity still to place, room
    # left in a); an explicit stack, since the depth is the generator count.
    # Larger multiplicities are pushed last, so they are tried first.
    stack = [(0, n, a)]
    while stack:
        i, left, room = stack.pop()
        if left == 0:
            return True
        if i == len(gens):
            continue
        g = gens[i]
        cap = min(room[k] // g[k] for k in range(len(room)) if g[k])
        for c in range(min(cap, left) + 1):
            stack.append((i + 1, left - c, tuple(r - c * e for r, e in zip(room, g))))
    return False


# ---------------------------------------------------------------- text forms
#
# Monomials are written either multiplicatively (t3*t1^2) or as exponent
# vectors ((2,0,1)); the two may be mixed inside one ideal.  Ideals are
# comma separated lists, with "0" for the zero ideal and "1" for the unit
# ideal, optionally wrapped in one pair of parentheses; the parentheses of
# a lone vector such as (2,1) are its own.

# Parsing a term builds a dense vector of this many entries: one term at
# the limit peaks near 19 MB of process memory, one at 10^6 near 40 MB.
PARSE_VARIABLE_LIMIT = 100_000
# All terms together build at most this many entries: 10 terms at the
# variable limit peak near 63 MB, where 100 terms peaked near 277 MB.
PARSE_ENTRY_LIMIT = 1_000_000

_FACTOR_RE = re.compile(r"^t(\d+)(?:\^(\d+))?$")
_GROUP_RE = re.compile(r"\([^()]*\)")
# A lone exponent vector such as (2,1): two or more integers in parentheses.
_LONE_VECTOR_RE = re.compile(r"\(\s*[+-]?\d+(?:\s*,\s*[+-]?\d+)+\s*\)")


def _fail(lineno: int | None, message: str):
    raise FormatError(message if lineno is None else f"line {lineno}: {message}")


def _read_int(digits: str, lineno: int | None = None) -> int:
    """`int` of a token its format has matched as digits, refusing one past
    the interpreter's limit on `int(str)` (4,300 digits by default)."""
    try:
        return int(digits)
    except ValueError:
        pass
    _fail(lineno, f"an integer of {len(digits)} digits is too long")


def _directives(text: str):
    """(lineno, fields) for each line of a line-oriented format that keeps a
    field once its `#` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


def _check_entry_counts(text: str):
    """Refuse stripped ideal text with too many entries, before any walk over
    its characters.  Each comma ends a term or an entry of a vector, so the
    commas plus one bound terms times variables.  A vector is a group in
    parentheses with none inside; a group spanning the text is one only if
    its body is a list of integers, else it is the outer wrapper."""
    if text.count(",") >= PARSE_ENTRY_LIMIT:
        raise ResourceLimitExceeded(
            f"{text.count(',') + 1} comma-separated entries exceed the parser's "
            f"limit of {PARSE_ENTRY_LIMIT} exponent entries"
        )
    for m in _GROUP_RE.finditer(text):
        entries = text.count(",", *m.span()) + 1
        if entries > PARSE_VARIABLE_LIMIT and (
            m.span() != (0, len(text)) or _LONE_VECTOR_RE.fullmatch(text)
        ):
            raise ResourceLimitExceeded(
                f"{entries} variables exceed the parser's limit {PARSE_VARIABLE_LIMIT}"
            )


def _split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FormatError("unbalanced ')' in ideal text")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise FormatError("unbalanced '(' in ideal text")
    parts.append("".join(cur))
    return parts


def _parse_term(term: str):
    """Return ("vec", tuple) or ("factors", [(index, exp), ...])."""
    term = term.strip()
    if not term:
        raise FormatError("empty monomial in ideal text")
    if term.startswith("("):
        if not term.endswith(")"):
            raise FormatError(f"malformed exponent vector {term!r}")
        body = term[1:-1].strip()
        try:
            vec = tuple(int(tok) for tok in body.split(",")) if body else ()
        except ValueError:
            raise FormatError(f"malformed exponent vector {term!r}") from None
        if not vec:
            raise FormatError(f"empty exponent vector {term!r}")
        if any(e < 0 for e in vec):
            raise FormatError(f"negative exponent in vector {term!r}")
        return ("vec", vec)
    if term == "1":
        return ("factors", [])
    factors = []
    for factor in term.split("*"):
        factor = factor.strip()
        m = _FACTOR_RE.match(factor)
        if not m:
            raise FormatError(f"malformed monomial factor {factor!r}")
        index = _read_int(m.group(1))
        exp = _read_int(m.group(2)) if m.group(2) is not None else 1
        if index < 1:
            raise FormatError(f"variable index must be >= 1 in {factor!r}")
        factors.append((index, exp))
    return ("factors", factors)


def _strip_outer_parens(text: str) -> str:
    """Drop an optional pair of parentheses around the whole text, but not
    those of a lone exponent vector: (2,1) is one generator, (1) the unit."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")") and not _LONE_VECTOR_RE.fullmatch(text):
        depth = 0
        for pos, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and pos != len(text) - 1:
                    return text  # the first '(' closes early: not an outer wrapper
        return text[1:-1].strip()
    return text


def parse_ideal(text: str, num_vars: int | None = None) -> MonomialIdeal:
    """Parse an ideal from its textual form.

    When `num_vars` is omitted it is inferred: from the (common) length of
    any exponent vectors present, otherwise from the largest variable index
    used.  "0" parses to the zero ideal and needs an explicit `num_vars`.
    """
    text = re.sub(r"#.*", "", text).strip()
    _check_entry_counts(text)
    body = " ".join(_strip_outer_parens(text).split())
    if body == "0":
        if num_vars is None:
            raise FormatError("the zero ideal needs an explicit variable count")
        return MonomialIdeal.zero(num_vars)
    if not body:
        raise FormatError("empty ideal text")
    terms = [_parse_term(t) for t in _split_top_level(body)]
    vec_lengths = {len(payload) for kind, payload in terms if kind == "vec"}
    if len(vec_lengths) > 1:
        raise FormatError(f"exponent vectors of different lengths: {sorted(vec_lengths)}")
    max_index = max(
        (i for kind, payload in terms if kind == "factors" for i, _ in payload),
        default=0,
    )
    if num_vars is None:
        num_vars = vec_lengths.pop() if vec_lengths else max_index
        if num_vars == 0:
            num_vars = 1  # the ideal (1) in an unnamed ring: default to one variable
    if num_vars > PARSE_VARIABLE_LIMIT:
        raise ResourceLimitExceeded(
            f"{num_vars} variables exceed the parser's limit {PARSE_VARIABLE_LIMIT}"
        )
    if len(terms) * num_vars > PARSE_ENTRY_LIMIT:
        raise ResourceLimitExceeded(
            f"{len(terms)} terms in {num_vars} variables exceed the parser's limit "
            f"of {PARSE_ENTRY_LIMIT} exponent entries"
        )
    if vec_lengths and next(iter(vec_lengths)) != num_vars:
        raise FormatError(
            f"exponent vectors have length {vec_lengths.pop()}, expected {num_vars}"
        )
    if max_index > num_vars:
        raise FormatError(f"variable t{max_index} out of range for {num_vars} variables")
    vectors = []
    for kind, payload in terms:
        if kind == "vec":
            vectors.append(payload)
        else:
            v = [0] * num_vars
            for index, exp in payload:
                v[index - 1] += exp
            vectors.append(tuple(v))
    return MonomialIdeal.from_gens(vectors, num_vars)


def _pure_powers(v: Exponent) -> list[str]:
    """t_i^{v_i} for each v_i > 0, in variable order, with ^1 left out."""
    return [f"t{i + 1}" if e == 1 else f"t{i + 1}^{e}" for i, e in enumerate(v) if e]


def format_monomial(v: Exponent) -> str:
    return "*".join(_pure_powers(v)) or "1"


def format_ideal(ideal: MonomialIdeal) -> str:
    if ideal.is_zero():
        return "(0)"
    return "(" + ", ".join(format_monomial(g) for g in ideal.gens) + ")"
