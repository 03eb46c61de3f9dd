"""Exact computations with monomial ideals and edge ideals of weighted
oriented graphs: irreducible decompositions, associated primes, symbolic
and ordinary powers, strong vertex covers, and the covering / Newton /
irreducible polyhedra tying them together."""

from .decomposition import (
    IrreducibleDecomposition,
    IrreducibleIdeal,
    MonomialPrime,
    associated_primes,
    embedded_primes,
    irreducible_decomposition,
    minimal_primes,
)
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    DomainError,
    FormatError,
    ResourceLimitExceeded,
    UnknownFixture,
)
from .graphs import (
    WeightedOrientedGraph,
    alexander_dual,
    classify,
    decomposition_via_covers,
    edge_ideal,
    is_strong_cover,
    parse_graph,
    strong_covers,
)
from .ideals import (
    MonomialIdeal,
    format_ideal,
    format_monomial,
    intersect_all,
    parse_ideal,
)
from .polyhedra import (
    CoveringFormPolyhedron,
    covering_polyhedron,
    enumerate_vertices,
    integral_closure_power,
    irreducible_polyhedron,
    is_normal_up_to,
    newton_hrep,
    polyhedral_conditions_check,
)
from .symbolic import (
    compare_powers,
    compare_powers_up_to,
    is_ntf_up_to,
    localize,
    max_ass,
    powers_equal_up_to,
    symbolic_power_ass,
    symbolic_power_min,
)

__all__ = [
    "ConsistencyError",
    "CoveringFormPolyhedron",
    "DimensionMismatch",
    "DomainError",
    "FormatError",
    "IrreducibleDecomposition",
    "IrreducibleIdeal",
    "MonomialIdeal",
    "MonomialPrime",
    "ResourceLimitExceeded",
    "UnknownFixture",
    "WeightedOrientedGraph",
    "alexander_dual",
    "associated_primes",
    "classify",
    "compare_powers",
    "compare_powers_up_to",
    "covering_polyhedron",
    "decomposition_via_covers",
    "edge_ideal",
    "embedded_primes",
    "enumerate_vertices",
    "format_ideal",
    "format_monomial",
    "integral_closure_power",
    "intersect_all",
    "irreducible_decomposition",
    "irreducible_polyhedron",
    "is_normal_up_to",
    "is_ntf_up_to",
    "is_strong_cover",
    "localize",
    "max_ass",
    "minimal_primes",
    "newton_hrep",
    "parse_graph",
    "parse_ideal",
    "polyhedral_conditions_check",
    "powers_equal_up_to",
    "strong_covers",
    "symbolic_power_ass",
    "symbolic_power_min",
]

__version__ = "0.1.0"
