"""Exception types shared across the package.

Each type is one cause of refusal, and the CLI gives each type one exit
code: SchemaError (and its UnknownVertex) 2, the three failures that
verify reports (CyclicDigraph, CompetitionMismatch, InvalidInput) 1,
HypothesisNotMet 3, ConstructionFailed 4 and BudgetExceeded 5.
"""


class GlgError(Exception):
    """Base class for all package errors."""


class SchemaError(GlgError):
    """Malformed input or a bad value: a JSON document of the wrong shape,
    a bad label or a loop, edge labels that collide, a pinned pair that is
    not an edge, or a cocktail-party size below one."""


class UnknownVertex(SchemaError):
    """An edge, arc or query referenced a vertex that is not in the graph."""


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


class BudgetExceeded(GlgError):
    """The exact search is beyond its budget: the graph and its extras
    exceed the vertex cap, or the node budget ran out before a conclusion.

    Carries the best lower bound established so far (or None).
    """

    def __init__(self, message, lower_bound=None):
        super().__init__(message)
        self.lower_bound = lower_bound


class ConstructionFailed(GlgError):
    """A construction's self-verification failed; this is an internal error."""
