"""Exception types shared across the package."""


class GlgError(Exception):
    """Base class for all package errors."""


class SchemaError(GlgError):
    """Malformed input data (JSON instance files, bad labels, loops)."""


class UnknownVertex(SchemaError):
    """An edge, arc or query referenced a vertex that is not in the graph."""


class VertexCollision(GlgError):
    """Two graphs that must be disjoint share vertex labels."""


class NotAnEdge(GlgError):
    """A vertex pair that must be an edge of the graph is not."""


class CyclicDigraph(GlgError):
    """The digraph contains a directed cycle.

    The offending cycle is attached as a vertex tuple.
    """

    def __init__(self, message, cycle=()):
        super().__init__(message)
        self.cycle = tuple(cycle)


class CompetitionMismatch(GlgError):
    """A digraph's competition graph differs from the expected graph."""

    def __init__(self, message, missing=(), extra=()):
        super().__init__(message)
        self.missing = frozenset(missing)
        self.extra = frozenset(extra)


class InvalidInput(GlgError):
    """A witness does not realize its target: a clique out of order, a base
    vertex missing, or the wrong number of extras."""


class HypothesisNotMet(GlgError):
    """The instance does not satisfy the hypotheses of the requested result:
    a base that is not connected or has no edge, or a base and a pinned edge
    that a construction cannot serve."""


class EmptyGraph(GlgError):
    """The operation is undefined on a graph with no vertices."""


class NonPositiveM(GlgError):
    """Cocktail party graphs require m >= 1."""


class BudgetExceeded(GlgError):
    """The exact search ran out of budget before reaching a conclusion.

    Carries the best lower bound established so far (or None).
    """

    def __init__(self, message, lower_bound=None):
        super().__init__(message)
        self.lower_bound = lower_bound


class ConstructionFailed(GlgError):
    """A construction's self-verification failed; this is an internal error."""
