"""Shared exception types for the whole package."""


class DimensionMismatch(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class DomainError(ValueError):
    """An operation was applied outside its mathematical domain.

    Typical causes: asking for the decomposition of the zero or unit ideal,
    the zeroth power of an ideal, or the cover ideal of a set that is not a
    strong vertex cover.
    """


class UnknownFixture(DomainError, KeyError):
    """No built-in fixture has the requested name.

    A KeyError too, since it is a failed lookup; its message is printed as
    is, without the quotes KeyError would add.
    """

    __str__ = DomainError.__str__


class ResourceLimitExceeded(RuntimeError):
    """The instance exceeds a configured size limit.

    The message names the limit; pass a larger one explicitly to proceed.
    """


class FormatError(ValueError):
    """Malformed textual input (monomial, ideal, graph or constraint file)."""


class ConsistencyError(RuntimeError):
    """Two computations that must agree did not; indicates a bug."""
