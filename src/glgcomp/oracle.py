"""Ground-truth engine: exact competition numbers on small graphs.

competition_number climbs k, asking the exact search
(search.find_realization) at each, which returns its witness's checked
certificate or None, a proof that k extras do not suffice.  Everything here
is exhaustive within an explicit budget: running out of it raises
BudgetExceeded and is never silently treated as evidence.
"""

from .errors import BudgetExceeded
from .graph_core import _tails, opsut_lower_bound
from .search import DEFAULT_BUDGET, find_realization


def competition_number(graph, budget=None):
    """Exact competition number with a verified witness.

    Ascends k from the larger of the clique-cover lower bound and the
    edge-clique-cover bound (0 on the empty graph); returns
    (k, certificate).  Raises BudgetExceeded (carrying the best-known lower
    bound) when the vertex count plus k would leave the vertex cap, or
    when the node budget runs out.

    A graph that no k could be searched on is refused before either bound
    is computed, against a bound that needs no search: 1 when the graph
    has a vertex and none isolated, else 0, since the last vertex of an
    acyclic digraph has no out-neighbour and so is isolated in C(D).  That
    refusal reports this bound, which may be below the other two.
    """
    budget = budget or DEFAULT_BUDGET
    _check_budget(graph, 1 if graph.vertices and all(graph._rows) else 0,
                  budget)
    k = opsut_lower_bound(graph) if graph.vertices else 0
    if any(graph._rows):
        k = max(k, _edge_cover_bound(graph))
    while True:
        _check_budget(graph, k, budget)
        try:
            cert = find_realization(graph, k, budget)
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                "node budget ran out while testing %d extras: %s" % (k, exc),
                lower_bound=k) from exc
        if cert is not None:
            return k, cert
        k += 1


def _check_budget(graph, k, budget):
    """Raise BudgetExceeded, with lower bound k, unless a search with k
    extras fits the budget; none with more extras would then either."""
    if len(graph.vertices) + k > budget.max_total_vertices:
        raise BudgetExceeded(
            "competition number is at least %d but the search budget is "
            "exhausted" % k, lower_bound=k)


def _edge_cover_bound(graph):
    """Opsut's k >= theta_e - |V| + 2 on a graph with an edge, theta_e being
    its edge clique cover number.

    In an acyclic realization only the vertices from the third on have
    in-neighbourhoods holding an edge, so n + k - 2 cliques cover every
    edge.  An edge in no triangle lies in no clique but itself, so each of
    the t such edges takes a clique of its own, and any other edge one
    more: theta_e >= t + [m > t].
    """
    rows = graph._rows
    edges = [(i, j) for i, tail in enumerate(_tails(graph)) for j in tail]
    t = sum(1 for i, j in edges if set(rows[i]).isdisjoint(rows[j]))
    return t + (len(edges) > t) - len(rows) + 2
