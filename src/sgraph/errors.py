"""Exception types shared across the toolkit."""


class SgraphError(Exception):
    """Base class for every error raised by this package."""


class SelfLoopError(SgraphError, ValueError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(SgraphError, ValueError):
    """The same vertex pair appears more than once in an edge list."""


class BadSignError(SgraphError, ValueError):
    """An edge sign is not +1 or -1."""


class VertexOutOfRangeError(SgraphError, ValueError):
    """A vertex label is outside 0..n-1."""


class NotBipartiteError(SgraphError, ValueError):
    """The underlying graph has an odd cycle.

    The offending cycle is attached as ``witness``.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"graph is not bipartite: odd cycle {witness.vertices}")


class UnderlyingGraphMismatchError(SgraphError, ValueError):
    """Two graphs do not share the same labeled underlying graph."""


class ConvergenceFailureError(SgraphError, ArithmeticError):
    """The eigensolver failed or returned an inaccurate result."""


class NotEquitableError(SgraphError, ValueError):
    """A vertex partition is not equitable for the given matrix."""


class ZeroVectorError(SgraphError, ValueError):
    """A Rayleigh quotient was requested for the zero vector."""


class EdgePresentError(SgraphError, ValueError):
    """An edge that must be absent is present."""


class EdgeAbsentError(SgraphError, ValueError):
    """An edge that must be present is absent."""


class NotNegativeEdgeError(SgraphError, ValueError):
    """An edge that must be negative is positive."""


class BadParamsError(SgraphError, ValueError):
    """Numeric parameters violate a precondition (e.g. r < 3 or n < 6)."""


class BudgetExceededError(SgraphError, ValueError):
    """A search request exceeds the configured enumeration budget."""


class ParseError(SgraphError, ValueError):
    """A graph file is malformed.  ``line`` is the 1-based offending line."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class StructureCheckError(SgraphError, AssertionError):
    """A spectrum-structure verification clause failed.

    ``clause`` names the violated check.
    """

    def __init__(self, clause, message):
        self.clause = clause
        super().__init__(f"{clause}: {message}")
