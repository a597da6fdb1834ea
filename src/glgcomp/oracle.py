"""Ground-truth engine: exact competition numbers on small graphs.

Everything here is exhaustive within an explicit budget.  A missing witness
is reported as None (a proof of nonexistence); running out of budget raises
BudgetExceeded and is never silently treated as evidence.
"""

from .errors import BudgetExceeded
from .graph_core import Digraph, opsut_lower_bound
from .realization import verify_realization, _digraph_from_body
from .search import DEFAULT_BUDGET, find_realization, fresh_labels


def _witness_digraph(graph, order, cliques, tail):
    extras = fresh_labels(graph.vertices, len(tail))
    entries = list(zip(order, cliques)) + list(zip(extras, tail))
    return _digraph_from_body(entries), [label for label, _ in entries]


def realization_search(graph, k, budget=None):
    """Exact search for a digraph realizing graph plus k isolated extras.

    Returns a verified digraph, or None when none exists (a definitive
    answer, not a timeout).  Raises BudgetExceeded when the node budget
    runs out before the search is complete.
    """
    budget = budget or DEFAULT_BUDGET
    got = find_realization(graph, k, budget=budget)
    if got is None:
        return None
    order, cliques, tail = got
    digraph, ordering = _witness_digraph(graph, order, cliques, tail)
    verify_realization(digraph, graph, k, ordering=ordering)
    return digraph


def competition_number(graph, budget=None):
    """Exact competition number with a verified witness.

    Ascends k from the clique-cover lower bound; returns (k, digraph).
    Raises BudgetExceeded (carrying the best-known lower bound) when either
    k or the total vertex count would leave the budget.
    """
    budget = budget or DEFAULT_BUDGET
    if not graph.vertices:
        return 0, Digraph([], [])
    k = opsut_lower_bound(graph)
    while True:
        if k > budget.max_k or len(graph.vertices) + k > budget.max_total_vertices:
            raise BudgetExceeded(
                "competition number is at least %d but the search budget is "
                "exhausted" % k, lower_bound=k)
        try:
            digraph = realization_search(graph, k, budget)
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                "node budget ran out while testing %d extras" % k,
                lower_bound=k) from exc
        if digraph is not None:
            return k, digraph
        k += 1
