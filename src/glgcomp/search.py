"""Exhaustive search for edge-clique realizations of a graph.

A realization of graph G with k extra vertices is an ordering of the
vertices of G plus k trailing extra vertices, together with one clique of G
per position, such that each position's clique lies entirely among the
earlier G-vertices and every edge of G appears inside at least one clique.
Reading the cliques as in-neighborhoods yields an acyclic digraph whose
competition graph is G plus k isolated vertices.  The search returns it in
the shape every construction uses: a body of (vertex, clique) entries for
the vertices of G in placement order, and a tail of the k extras' cliques.

The search works on bitmasks and memoizes dominance: for a fixed set of
placed vertices, only Pareto-maximal covered-edge sets are explored.  Each
call also keeps two caches of its own: the independent-edge lower bound per
uncovered-edge mask, and the candidate cliques per placed-vertex mask, each
stored with the edges it covers.  The path holds clique masks; they are
decoded to vertex sets once, when a witness is returned.  The caches change
only the cost of a node: the nodes expanded, their order and the witness
returned are those of the uncached search.  The memo and the caches belong
to one call and are released when it returns, raises or runs out of budget.
"""

import itertools

from .errors import BudgetExceeded, NotAClique
from .graph_core import is_clique, maximal_cliques


class SearchBudget:
    """Knobs bounding the exhaustive search."""

    __slots__ = ("max_total_vertices", "max_k", "max_nodes")

    def __init__(self, max_total_vertices=11, max_k=4, max_nodes=2_000_000):
        self.max_total_vertices = max_total_vertices
        self.max_k = max_k
        self.max_nodes = max_nodes


DEFAULT_BUDGET = SearchBudget()


def fresh_labels(taken, count, stem="z"):
    """`count` labels of the form stem1, stem2, ... avoiding the taken set."""
    taken = set(taken)
    out = []
    i = 1
    while len(out) < count:
        cand = "%s%d" % (stem, i)
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        i += 1
    return out


def find_realization(graph, k, added_cliques=None, budget=None):
    """Search for a realization of `graph` with k extra vertices.

    added_cliques: optional sequence of exactly the cliques assigned to the
        extra vertices; when given, k is taken from its length and the
        search only orders the real vertices.

    Returns (body, tail) on success, where body is a tuple of
    (vertex, clique) entries for the real vertices in placement order and
    tail gives the k extra in-neighborhoods; returns None when no
    realization exists; raises BudgetExceeded when the node budget runs out.
    """
    budget = budget or DEFAULT_BUDGET
    max_nodes = budget.max_nodes
    vs = graph.vertices
    n = len(vs)
    bits = [1 << i for i in range(n)]
    vbit = dict(zip(vs, bits))
    edges = sorted(graph.edges)
    ebit = {e: 1 << i for i, e in enumerate(edges)}
    target = (1 << len(edges)) - 1

    fixed_cover = None
    if added_cliques is not None:
        fixed_cover = [frozenset(c) for c in added_cliques]
        for c in fixed_cover:
            if not is_clique(graph, c):
                raise NotAClique("fixed extra clique %r is not a clique" % (sorted(c),))
        k = len(fixed_cover)

    def vertex_mask(vertices):
        m = 0
        for v in vertices:
            m |= vbit[v]
        return m

    def members(vmask):
        return frozenset(v for v, b in zip(vs, bits) if b & vmask)

    def pairs_mask(vmask):
        mask = 0
        members = [v for v in vs if vbit[v] & vmask]
        for a, b in itertools.combinations(members, 2):
            mask |= ebit[(a, b)]
        return mask

    pairs_cache = {}

    def cover_of(vmask):
        got = pairs_cache.get(vmask)
        if got is None:
            got = pairs_cache[vmask] = pairs_mask(vmask)
        return got

    clique_masks = [vertex_mask(c) for c in maximal_cliques(graph)]
    clique_covers = [(cm, cover_of(cm)) for cm in clique_masks]

    # Pairwise "can share a clique" relation between edges, for lower bounds.
    compatible = [0] * len(edges)
    for i, e in enumerate(edges):
        for j in range(i + 1, len(edges)):
            f = edges[j]
            quad = set(e) | set(f)
            if is_clique(graph, quad):
                compatible[i] |= 1 << j
                compatible[j] |= 1 << i

    lb_cache = {}

    def independent_edges_lb(uncovered):
        """Greedy count of uncovered edges no two of which fit in one clique."""
        count = lb_cache.get(uncovered)
        if count is None:
            count = 0
            m = uncovered
            while m:
                low = m & -m
                count += 1
                m &= ~(low | compatible[low.bit_length() - 1])
            lb_cache[uncovered] = count
        return count

    cand_cache = {}

    def clique_candidates(placed):
        """Maximal traces of the cliques on the placed vertices, each with
        the edges it covers."""
        got = cand_cache.get(placed)
        if got is None:
            inters = set()
            for cm in clique_masks:
                inters.add(cm & placed)
            inters.discard(0)
            maximal = [m for m in inters
                       if not any(m != o and m & ~o == 0 for o in inters)]
            got = cand_cache[placed] = [(m, cover_of(m))
                                        for m in maximal or [0]]
        return got

    start_covered = 0
    if fixed_cover is not None:
        for c in fixed_cover:
            start_covered |= cover_of(vertex_mask(c))

    full = (1 << n) - 1
    slots = k if fixed_cover is None else 0
    memo = {}
    nodes = 0
    path = []

    def final_cover(uncovered, slots):
        """Cover the remaining edges with at most `slots` maximal cliques."""
        nonlocal nodes
        if not uncovered:
            return []
        if slots <= 0 or independent_edges_lb(uncovered) > slots:
            return None
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(
                "realization search exceeded %d nodes" % max_nodes)
        low = uncovered & -uncovered
        for cm, cover in clique_covers:
            if cover & low:
                rest = final_cover(uncovered & ~cover, slots - 1)
                if rest is not None:
                    return [cm] + rest
        return None

    def dfs(placed, covered):
        """Extend `path`; on success leave the witness on it and return the
        extras' clique masks (or fixed cliques)."""
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(
                "realization search exceeded %d nodes" % max_nodes)
        uncovered = target & ~covered
        if placed == full:
            if fixed_cover is not None:
                return list(fixed_cover) if covered == target else None
            if independent_edges_lb(uncovered) > k:
                return None
            tail = final_cover(uncovered, k)
            if tail is None:
                return None
            return tail + [0] * (k - len(tail))
        if independent_edges_lb(uncovered) > n - len(path) + slots:
            return None
        # Dominance: skip when an earlier visit of this placed set covered
        # a superset; otherwise keep only the Pareto-maximal covered sets.
        kept = memo.get(placed)
        if kept is None:
            memo[placed] = [covered]
        else:
            for c in kept:
                if covered & ~c == 0:
                    return None
            kept[:] = [c for c in kept if c & ~covered]
            kept.append(covered)
        cands = clique_candidates(placed)
        for i, bit in enumerate(bits):
            if bit & placed:
                continue
            nxt = placed | bit
            for cm, cover in cands:
                path.append((i, cm))
                got = dfs(nxt, covered | cover)
                if got is not None:
                    return got
                path.pop()
        return None

    try:
        tail = dfs(0, start_covered)
    finally:
        # dfs and final_cover reach themselves through their closure cells;
        # emptying the cells breaks that cycle, so the memo and the caches
        # are freed now rather than at the next cyclic garbage collection.
        dfs = final_cover = None
    if tail is None:
        return None
    if fixed_cover is None:
        tail = [members(cm) for cm in tail]
    body = tuple((vs[i], members(cm)) for i, cm in path)
    return body, tuple(tail)
