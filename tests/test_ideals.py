"""Core monomial ideal arithmetic, canonical form, and the text format."""

import random
import re
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from monideal.errors import DimensionMismatch, DomainError, FormatError, ResourceLimitExceeded
from monideal.ideals import (
    PARSE_ENTRY_LIMIT,
    PARSE_VARIABLE_LIMIT,
    MonomialIdeal,
    _sift,
    format_ideal,
    format_monomial,
    graded_lex_key,
    minimal_generators,
    parse_ideal,
    power_contains,
)
from monideal.decomposition import IrreducibleIdeal, irreducible_decomposition
from monideal.polyhedra import CoveringFormPolyhedron, integral_closure_power
from monideal.symbolic import symbolic_power_min

from conftest import ideals, random_ideal
from oracles import divides, vec_add, vec_max, vec_sub_clamped


def test_vector_helpers():
    assert vec_add((1, 2), (0, 3)) == (1, 5)
    assert vec_max((1, 2), (0, 3)) == (1, 3)
    assert vec_sub_clamped((1, 2), (3, 1)) == (0, 1)
    assert divides((1, 0), (1, 2))
    assert not divides((2, 0), (1, 2))


def test_graded_lex_order():
    vecs = [(2, 0), (0, 1), (1, 1), (0, 2)]
    assert sorted(vecs, key=graded_lex_key) == [(0, 1), (0, 2), (1, 1), (2, 0)]


def test_minimal_generators_drops_multiples():
    gens = minimal_generators([(1, 0), (1, 2), (2, 0), (0, 3)])
    assert gens == ((1, 0), (0, 3))


def test_zero_and_unit():
    z = MonomialIdeal.zero(2)
    u = MonomialIdeal.unit(2)
    assert z.is_zero() and not z.is_unit()
    assert u.is_unit() and not u.is_zero()
    assert not z.contains((0, 0))
    assert u.contains((0, 0)) and u.contains((5, 7))
    assert z.gens == ()
    assert u.gens == ((0, 0),)


def test_from_gens_canonicalizes():
    I = MonomialIdeal.from_gens([(1, 2), (2, 0), (1, 0)], 2)
    assert I.gens == ((1, 0),)
    with pytest.raises(DimensionMismatch):
        MonomialIdeal.from_gens([(1, 2, 3)], 2)


def test_membership_and_inclusion():
    I = parse_ideal("(t1*t2^2, t2*t3)")
    assert I.contains((1, 2, 0))
    assert I.contains((2, 3, 1))
    assert not I.contains((1, 1, 0))
    assert I <= parse_ideal("(t2)", num_vars=3)
    assert not parse_ideal("(t2)", num_vars=3) <= I


def test_product_and_power():
    I = parse_ideal("(t1, t2)")
    assert (I * I).gens == ((0, 2), (1, 1), (2, 0))
    assert I ** 1 == I
    assert I ** 3 == I * I * I
    with pytest.raises(DomainError):
        I ** 0


def test_intersection():
    I = parse_ideal("(t1^2, t2)")
    J = parse_ideal("(t1)", num_vars=2)
    assert (I & J).gens == ((1, 1), (2, 0))  # t2 meets (t1) in t1*t2
    assert (I & J) == (J & I)


@given(ideals())
def test_generators_form_an_antichain(I):
    for a in I.gens:
        for b in I.gens:
            if a != b:
                assert not divides(a, b)


@given(ideals())
def test_generators_sorted_canonically(I):
    assert list(I.gens) == sorted(I.gens, key=graded_lex_key)


@given(ideals(), ideals())
def test_product_contains_pairwise_sums(I, J):
    if I.num_vars != J.num_vars:
        return
    P = I * J
    for a in I.gens:
        for b in J.gens:
            assert P.contains(vec_add(a, b))


@given(ideals(max_vars=3, max_gens=4, max_exp=2), st.integers(min_value=1, max_value=3))
@settings(max_examples=30)
def test_power_contains_matches_expanded_power(I, n):
    """The membership search agrees with expanding I^n."""
    expanded = I ** n
    probes = list(expanded.gens[:4])
    cap = n * 2 + 1
    probes.append(tuple(min(cap, e * n) for e in I.gens[0]))
    probes.append((0,) * I.num_vars)
    probes.append(tuple(1 for _ in range(I.num_vars)))
    for a in probes:
        assert power_contains(I, a, n) == expanded.contains(a)


def test_power_contains_validates():
    I = parse_ideal("(t1)")
    with pytest.raises(DomainError):
        power_contains(I, (1,), 0)
    with pytest.raises(DimensionMismatch):
        power_contains(I, (1, 0), 1)
    assert power_contains(MonomialIdeal.unit(2), (0, 0), 5)


@pytest.mark.parametrize("n", [0, 2.5])
@pytest.mark.parametrize(
    "noun, call",
    [
        ("ideal power", lambda I, n: I ** n),
        ("ideal power", lambda I, n: power_contains(I, (1, 1), n)),
        ("symbolic power", symbolic_power_min),
        ("integral closure of I^n", integral_closure_power),
    ],
    ids=["pow", "power_contains", "symbolic_power", "integral_closure_power"],
)
def test_power_exponent_is_refused(noun, call, n):
    """Each entry point names its own power in the one shared refusal."""
    message = f"{noun} requires an integer n >= 1, got {n!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(parse_ideal("t1*t2"), n)


# ------------------------------------------------------------- text format


def test_parse_basic_forms():
    assert parse_ideal("0", num_vars=2).is_zero()
    assert parse_ideal("1", num_vars=2).is_unit()
    assert parse_ideal("(1)", num_vars=1).is_unit()
    I = parse_ideal("t1*t2^2, t2*t3")
    assert I.num_vars == 3
    assert I.gens == ((0, 1, 1), (1, 2, 0))


@pytest.mark.parametrize(
    "text, gens",
    [
        ("(2,1)", ((2, 1),)),
        ("(1,0)", ((1, 0),)),
        (" ( 2 , 1 ) ", ((2, 1),)),
        ("((2,1))", ((2, 1),)),
        ("(0,0)", ((0, 0),)),
    ],
)
def test_parse_reads_a_lone_exponent_vector(text, gens):
    """The parentheses of a lone vector are its own, not an outer wrapper."""
    assert parse_ideal(text).gens == gens


def test_a_lone_vector_past_the_variable_limit_is_refused_unwalked(monkeypatch):
    """Its commas refuse a lone vector, as they refuse one in a wrapper."""
    import monideal.ideals as ideals_module

    def walked(text):
        raise AssertionError("the text was walked")

    monkeypatch.setattr(ideals_module, "_strip_outer_parens", walked)
    limit = PARSE_VARIABLE_LIMIT
    with pytest.raises(ResourceLimitExceeded, match=f"{limit + 1} variables exceed"):
        parse_ideal("(" + "0," * limit + "1)")


def test_parse_infers_num_vars_from_largest_index():
    I = parse_ideal("(t2)")
    assert I.num_vars == 2
    assert parse_ideal("(t2)", num_vars=5).num_vars == 5


def test_parse_accepts_comments_and_blank_lines():
    I = parse_ideal("# the running example\n\n(t1*t2^2, t2*t3)\n")
    assert I == parse_ideal("(t1*t2^2, t2*t3)")


def test_parse_rejects_malformed_input():
    with pytest.raises(FormatError, match="malformed monomial factor 't2\\^\\^2'"):
        parse_ideal("(t1*t2^^2)")
    with pytest.raises(FormatError, match="variable index must be >= 1"):
        parse_ideal("(t1, t0)")
    with pytest.raises(FormatError, match="empty ideal text"):
        parse_ideal("")
    with pytest.raises(FormatError):
        parse_ideal("(t3)", num_vars=2)


def test_parse_refuses_variable_counts_past_its_limit():
    """The count is checked before any dense vector is built."""
    limit = PARSE_VARIABLE_LIMIT
    assert parse_ideal(f"t{limit}").gens == ((0,) * (limit - 1) + (1,),)
    tracemalloc.start()
    try:
        for text, num_vars in [
            (f"t{limit + 1}", None),
            ("t100000000", None),
            ("t1", limit + 1),
            ("1", 10**8),
        ]:
            with pytest.raises(ResourceLimitExceeded, match=f"limit {limit}"):
                parse_ideal(text, num_vars)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_parse_refuses_more_entries_than_its_budget():
    """Terms times variables is checked before any dense vector is built:
    100 terms in 100,000 variables are refused at once, and the budget
    takes exactly 10 terms at the variable limit."""
    limit = PARSE_VARIABLE_LIMIT
    assert PARSE_ENTRY_LIMIT == 10 * limit
    text = ", ".join(f"t{i}*t{limit}" for i in range(1, 101))
    tracemalloc.start()
    try:
        with pytest.raises(
            ResourceLimitExceeded,
            match=f"100 terms in {limit} variables exceed the parser's limit of {PARSE_ENTRY_LIMIT}",
        ):
            parse_ideal(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    eleven = ", ".join(f"t{i}" for i in range(1, 12))
    with pytest.raises(ResourceLimitExceeded, match="11 terms"):
        parse_ideal(eleven, num_vars=limit)
    assert len(parse_ideal(eleven.rsplit(",", 1)[0], num_vars=limit).gens) == 10


def test_parse_refuses_long_text_before_walking_it(monkeypatch):
    """Comma counts bound the entries, so text past the entry budget, or a
    vector past the variable limit, is refused before any walk over its
    characters.  The outer wrapper of many terms is no vector."""
    import monideal.ideals as ideals_module

    limit = PARSE_VARIABLE_LIMIT
    assert len(parse_ideal("((" + "0," * (limit - 1) + "1))").gens[0]) == limit
    assert parse_ideal("(" + "t1, " * limit + "t1)").gens == ((1,),)

    def walked(text):
        raise AssertionError("the text was walked")

    monkeypatch.setattr(ideals_module, "_strip_outer_parens", walked)
    monkeypatch.setattr(ideals_module, "_split_top_level", walked)
    with pytest.raises(ResourceLimitExceeded, match=f"{limit + 1} variables exceed"):
        parse_ideal("t1, ((" + "0," * limit + "1))")
    with pytest.raises(ResourceLimitExceeded, match=f"{10 * limit} variables exceed"):
        parse_ideal("((" + "0," * (10 * limit - 1) + "1))")
    with pytest.raises(
        ResourceLimitExceeded,
        match=f"{PARSE_ENTRY_LIMIT + 1} comma-separated entries exceed the parser's limit",
    ):
        parse_ideal("((" + "0," * PARSE_ENTRY_LIMIT + "1))")


def test_format_monomial():
    assert format_monomial((0, 0)) == "1"
    assert format_monomial((1, 2, 0)) == "t1*t2^2"


def test_format_ideal_special_cases():
    assert format_ideal(MonomialIdeal.zero(3)) == "(0)"
    assert format_ideal(MonomialIdeal.unit(3)) == "(1)"
    assert format_ideal(parse_ideal("(t2*t3, t1*t2^2)")) == "(t2*t3, t1*t2^2)"


@given(ideals())
def test_format_parse_round_trip(I):
    assert parse_ideal(format_ideal(I), num_vars=I.num_vars) == I


@given(ideals())
def test_canonical_form_is_permutation_equivariant(I):
    """Reversing the variable order then renormalizing permutes the gens."""
    s = I.num_vars
    flipped = MonomialIdeal.from_gens([g[::-1] for g in I.gens], s)
    assert frozenset(g[::-1] for g in flipped.gens) == frozenset(I.gens)


# ------------------------------------------------- bitset kernel and trust


def naive_minimal_generators(vectors):
    """Reference antichain: tuple-by-tuple divisibility, no bitsets."""
    vecs = sorted(set(vectors), key=graded_lex_key)
    return tuple(
        v for v in vecs if not any(divides(k, v) for k in vecs if k != v)
    )


def long_vectors(rng, num_vars, size):
    """`size` vectors whose exponents are small, spread over many values,
    or near 2^70, so that each column holds many distinct values."""
    def exponent():
        kind = rng.randrange(4)
        if kind == 0:
            return rng.randint(0, 3)
        if kind == 1:
            return rng.randint(0, 60)
        if kind == 2:
            return 2**70 + rng.randint(-2, 2)
        return rng.randint(0, 2**70)

    return [tuple(exponent() for _ in range(num_vars)) for _ in range(size)]


@st.composite
def exponent_lists(draw):
    """Vectors of one common length whose exponents are small or huge: short
    drawn lists, or long seeded ones (up to 300 vectors in up to 7
    variables), whose masks span several machine words."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        return long_vectors(rng, rng.randint(1, 7), rng.randint(65, 300))
    num_vars = draw(st.integers(min_value=1, max_value=4))
    exponent = st.one_of(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**70),
    )
    vector = st.tuples(*[exponent] * num_vars)
    return draw(st.lists(vector, max_size=12))


@given(exponent_lists())
def test_minimal_generators_matches_naive(vectors):
    assert minimal_generators(vectors) == naive_minimal_generators(vectors)


@given(exponent_lists(), st.randoms(use_true_random=False))
def test_minimal_generators_ignores_input_order(vectors, rng):
    """Candidates are presorted by degree alone, so vectors of one degree
    meet in whatever order the input and the set give them.  The result
    must still be the same graded-lex antichain for every order of the
    input, duplicates included: every permutation of a short list, and
    shuffles of a long one."""
    expected = naive_minimal_generators(vectors)
    doubled = vectors + vectors[: len(vectors) // 2 + 1]
    if len(doubled) <= 5:
        orders = permutations(doubled)
    else:
        orders = [rng.sample(doubled, len(doubled)) for _ in range(2)]
    for order in orders:
        assert minimal_generators(order) == expected


def test_minimal_generators_edge_cases():
    big = 2**64
    assert minimal_generators([(big, 0), (big + 1, 0), (0, big)]) == ((0, big), (big, 0))
    assert minimal_generators([(big, 1), (big - 1, 2)]) == ((big - 1, 2), (big, 1))
    assert minimal_generators([(127,), (128,), (3,), (200,)]) == ((3,),)
    assert minimal_generators([(5,), (0,)]) == ((0,),)
    assert minimal_generators([(0, 0, 0), (1, 2, 3)]) == ((0, 0, 0),)
    # Incomparable neighbours: neither may read as dividing the other.
    assert minimal_generators([(1, 0), (0, 1)]) == ((0, 1), (1, 0))
    assert minimal_generators([]) == ()


@given(ideals(), ideals())
def test_trusted_arithmetic_matches_from_gens(I, J):
    if I.num_vars != J.num_vars:
        return
    s = I.num_vars
    assert I * J == MonomialIdeal.from_gens(
        [vec_add(v, w) for v in I.gens for w in J.gens], s
    )
    assert I & J == MonomialIdeal.from_gens(
        [vec_max(v, w) for v in I.gens for w in J.gens], s
    )


def test_column_candidates_match_pairwise_forms():
    """Products and intersections form their candidates column by column.
    On seeded ideals they must agree with the pairwise sums and lcms,
    minimalized tuple by tuple: with the zero ideal on either side, with
    one side inside the other, and with 254-257 and 2^70 in one column."""
    rng = random.Random(20261019)
    cases = []
    for _ in range(40):
        num_vars = rng.randint(1, 5)
        J, K = random_ideal(rng, num_vars), random_ideal(rng, num_vars)
        cases += [(J, K), (J, MonomialIdeal.from_gens(J.gens + K.gens, num_vars))]
    edge = (254, 255, 256, 257, 2**70)
    for num_vars in (2, 4):
        def tail():
            return tuple(rng.randint(0, 3) for _ in range(num_vars - 2))

        # Antichains: the first exponent rises as the second falls.
        J = MonomialIdeal.from_gens(
            [(e, len(edge) - i) + tail() for i, e in enumerate(edge)], num_vars
        )
        K = MonomialIdeal.from_gens(
            [(e, i) + tail() for i, e in enumerate(reversed(edge))], num_vars
        )
        assert sorted(g[0] for g in J.gens) == sorted(g[0] for g in K.gens) == list(edge)
        zero = MonomialIdeal.zero(num_vars)
        cases += [(J, K), (J, zero), (zero, K), (zero, zero)]
    for J, K in cases:
        for A, B in ((J, K), (K, J)):
            assert A * B == MonomialIdeal(
                A.num_vars,
                naive_minimal_generators(vec_add(v, w) for v in A.gens for w in B.gens),
            )
            assert A & B == naive_intersection(A, B)


def naive_intersection(J, K):
    """Reference J ^ K: the lcms of all generator pairs, minimalized tuple
    by tuple, with no pass-through and no bitsets."""
    return MonomialIdeal(
        J.num_vars,
        naive_minimal_generators(vec_max(v, w) for v in J.gens for w in K.gens),
    )


def ideal_with_top(rng, num_vars, top):
    """A random ideal whose largest generator exponent is exactly `top`."""
    while True:
        I = random_ideal(rng, num_vars, max_exp=top)
        if max(map(max, I.gens)) == top:
            return I


@st.composite
def ideal_pairs(draw):
    """Two ideals in one ring: random, one inside the other, one of them
    zero or unit, or with largest exponents straddling a power of two."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    num_vars = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["random", "nested", "trivial", "straddle"]))
    if kind == "straddle":
        low, high = draw(st.sampled_from([(3, 4), (7, 8)]))
        J = ideal_with_top(rng, num_vars, low)
        K = ideal_with_top(rng, num_vars, high)
    else:
        J = random_ideal(rng, num_vars)
        if kind == "random":
            K = random_ideal(rng, num_vars)
        elif kind == "nested":
            K = MonomialIdeal.from_gens(J.gens + random_ideal(rng, num_vars).gens, num_vars)
        else:
            K = draw(st.sampled_from([MonomialIdeal.zero, MonomialIdeal.unit]))(num_vars)
    return (J, K) if draw(st.booleans()) else (K, J)


@st.composite
def long_ideal_pairs(draw):
    """Two ideals in one ring from long seeded vector lists, either of them
    possibly the zero or the unit ideal."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    num_vars = rng.randint(1, 7)

    def side():
        kind = draw(st.sampled_from(["long", "long", "zero", "unit"]))
        if kind == "zero":
            return MonomialIdeal.zero(num_vars)
        if kind == "unit":
            return MonomialIdeal.unit(num_vars)
        vecs = long_vectors(rng, num_vars, rng.randint(1, 300))
        return MonomialIdeal.from_gens(vecs, num_vars)

    return side(), side()


@given(st.one_of(ideal_pairs(), long_ideal_pairs()))
def test_split_matches_tuple_divisibility(pair):
    J, K = pair
    inside = [u for u in J.gens if any(divides(v, u) for v in K.gens)]
    outside = [u for u in J.gens if u not in inside]
    assert _sift(J.gens, K.gens) == (inside, outside)
    assert (J <= K) == (not outside)
    assert [u for u in J.gens if K.contains(u)] == inside


@given(ideal_pairs())
@settings(max_examples=120)
def test_intersection_matches_all_pairs_lcms(pair):
    J, K = pair
    assert J & K == naive_intersection(J, K)
    assert (J <= K) == all(any(divides(v, u) for v in K.gens) for u in J.gens)


def test_membership_with_straddling_exponents():
    """The largest exponents 3 and 4 straddle a power of two: a kernel that
    sized its exponent fields from (t1^3, t2) alone would no longer read
    t1^4 as a multiple of t1^3."""
    J = parse_ideal("t1^3, t2", num_vars=2)
    K = parse_ideal("t1^4", num_vars=2)
    assert K <= J and not J <= K
    assert J & K == K == naive_intersection(J, K)


BYTE_EDGE = (254, 255, 256, 257, 2**70 - 2, 2**70 + 2)


def test_kernel_at_the_byte_boundary():
    """One column holds entries on both sides of 255 and near 2^70.  The
    kernel's byte columns clamp all but 254 to 255, so the thresholds 255,
    256 and 2^70 must still split them as tuple divisibility does."""
    # An antichain: the first exponent rises as the second falls.
    J = MonomialIdeal.from_gens([(e, 5 - i) for i, e in enumerate(BYTE_EDGE)], 2)
    assert sorted(g[0] for g in J.gens) == list(BYTE_EDGE)
    tops = [(x, c) for x in (255, 256, 2**70) for c in range(6)]
    for K in [MonomialIdeal.from_gens([t], 2) for t in tops] + [
        MonomialIdeal.from_gens([(255, 5), (256, 3), (2**70, 1)], 2)
    ]:
        for A, B in ((J, K), (K, J)):
            inside = [u for u in A.gens if any(divides(v, u) for v in B.gens)]
            outside = [u for u in A.gens if u not in inside]
            assert _sift(A.gens, B.gens) == (inside, outside)
            assert (A <= B) == (not outside)
        assert J & K == naive_intersection(J, K)
        vectors = list(J.gens + K.gens)
        assert minimal_generators(vectors) == naive_minimal_generators(vectors)
    vectors = [(e, c) for e in BYTE_EDGE + (2**70,) for c in range(3)]
    assert minimal_generators(vectors) == naive_minimal_generators(vectors)
    column = [(e,) for e in BYTE_EDGE + (2**70,)]
    assert minimal_generators(column[1:]) == ((255,),)


def test_from_gens_refuses_bad_vectors():
    with pytest.raises(DimensionMismatch):
        MonomialIdeal.from_gens([(1, 0), (1, 0, 0)], 2)
    with pytest.raises(DimensionMismatch):
        MonomialIdeal.from_gens([(1,)], 2)
    with pytest.raises(ValueError, match="negative exponent"):
        MonomialIdeal.from_gens([(1, -1)], 2)
    with pytest.raises(DimensionMismatch):
        MonomialIdeal(2, ((1, 0, 0),))
    with pytest.raises(ValueError, match="negative exponent"):
        MonomialIdeal(2, ((0, -2),))


def test_constructor_stores_a_list_of_generators_as_a_tuple():
    I = MonomialIdeal(2, [(0, 1), (1, 0)])
    assert I.gens == ((0, 1), (1, 0)) and hash(I) == hash(MonomialIdeal.from_gens(I.gens, 2))
    assert len(irreducible_decomposition(I).components) == 1


@pytest.mark.parametrize(
    "gens, entry_refusal",
    [
        (((1.0, 0),), "generator (1.0, 0) has a non-int entry"),
        (((1, 0), (0, 1)), None),
        (((1, 0), (1, 1)), None),
        (((1, 0), (1, 0)), None),
    ],
    ids=["float", "order", "not-minimal", "repeated"],
)
def test_constructor_refuses_generators_it_cannot_represent(gens, entry_refusal):
    """A non-int entry is refused by from_gens as well, never coerced; a
    vector list that is not canonical is refused by the constructor alone."""
    message = entry_refusal or (
        f"generators {gens} are not the canonical minimal int vectors; "
        "build the ideal with MonomialIdeal.from_gens"
    )
    with pytest.raises(ValueError, match=re.escape(message)):
        MonomialIdeal(2, gens)
    if entry_refusal:
        with pytest.raises(ValueError, match=re.escape(entry_refusal)):
            MonomialIdeal.from_gens(gens, 2)
    else:
        assert MonomialIdeal.from_gens(gens, 2).gens in {((1, 0),), ((0, 1), (1, 0))}


NOT_AN_INT_COUNT = "need an int count of at least one variable, got 2.0"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MonomialIdeal.from_gens([(1.5, 1)], 2), "generator (1.5, 1) has a non-int entry"),
        (lambda: MonomialIdeal.from_gens([(1, 1)], 2.0), NOT_AN_INT_COUNT),
        (lambda: MonomialIdeal(2, ((1.5, 1),)), "generator (1.5, 1) has a non-int entry"),
        (lambda: MonomialIdeal(2.0, ((1, 1),)), NOT_AN_INT_COUNT),
        (lambda: IrreducibleIdeal(2, (1.5, 1)), "alpha (1.5, 1) has a non-int entry"),
        (lambda: IrreducibleIdeal(2.0, (1, 1)), NOT_AN_INT_COUNT),
        (lambda: CoveringFormPolyhedron(2.0, [(1, 1)]), NOT_AN_INT_COUNT),
        (lambda: parse_ideal("t1*t2").contains((1.5, 1)), "monomial (1.5, 1) has a non-int entry"),
        (lambda: parse_ideal("t1*t2").contains((-1, 1)), "monomial (-1, 1) has a negative exponent"),
        (
            lambda: power_contains(parse_ideal("t1*t2"), (1.5, 1), 1),
            "monomial (1.5, 1) has a non-int entry",
        ),
        (
            lambda: power_contains(parse_ideal("t1*t2"), (-1, 1), 1),
            "monomial (-1, 1) has a negative exponent",
        ),
    ],
    ids=[
        "from_gens-float-entry",
        "from_gens-float-count",
        "constructor-float-entry",
        "constructor-float-count",
        "irreducible-float-entry",
        "irreducible-float-count",
        "polyhedron-float-count",
        "contains-float-entry",
        "contains-negative-entry",
        "power_contains-float-entry",
        "power_contains-negative-entry",
    ],
)
def test_outside_vectors_are_refused_not_coerced(build, message):
    """Every vector from outside passes the one check: an entry or a
    variable count that is no int is refused, never rounded, and a
    monomial asked about must be an exponent vector too."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_from_gens_refuses_a_ring_without_variables():
    with pytest.raises(ValueError, match="at least one variable"):
        MonomialIdeal.from_gens([], 0)


def test_power_contains_deep_generator_list():
    """1,201 generators of one degree: the search goes 1,201 levels deep."""
    I = MonomialIdeal.from_gens([(i, 1200 - i) for i in range(1201)], 2)
    assert len(I.gens) == 1201
    assert power_contains(I, (1200, 1200), 2)
    assert not power_contains(I, (1199, 1200), 2)
