"""Exhaustive search for edge-clique realizations of a graph.

A realization of graph G with k extra vertices is an ordering of the
vertices of G plus k trailing extra vertices, together with one clique of G
per position, such that each position's clique lies entirely among the
earlier G-vertices and every edge of G appears inside at least one clique.
Reading the cliques as in-neighborhoods yields an acyclic digraph whose
competition graph is G plus k isolated vertices.  The search returns it in
the shape every construction uses: a body of (vertex, clique) entries for
the vertices of G in placement order, and a tail of the k extras' cliques.

The search builds the ordering from the back (Opsut 1982).  An edge at
v_j can lie only in the cliques of positions after v_j, so the last
G-vertex needs its edges covered by the extras, and in general a vertex
can be placed just before the vertices already placed only once all its
edges are covered.  The search first fixes the extras' cliques: each
combination of min(k, m) of the m maximal cliques with an edge.  Then it
repeatedly takes one ready vertex (every
incident edge covered), the lowest in `graph.vertices`, places it before
the vertices taken so far and branches on its clique.  The body is the
taken sequence reversed.

The search is complete.  Write R for the vertices not yet taken and
E for the ready ones.
* A ready vertex v can be taken next.  Given any completion that takes v
  later, take v first with the clique it had there, and drop v from the
  cliques of the vertices it overtakes, which now sit before it; v's edges
  are covered already, so every vertex stays ready when it is taken and
  the covered set after v is the same.
* v's clique may be a maximal trace M & (R - E), M a maximal clique of G.
  Members of E add only covered edges, and a larger clique inside R - {v}
  covers a superset, which can only help the rest.
* Dominance: for a fixed taken set, the future depends only on the
  covered set, and covering more never hurts.  A memo keeps the
  Pareto-maximal covered sets of the states explored from each taken set,
  shared across the extras' combinations, and skips any state covered by
  one of them.
A node is one state (taken set, covered set) entered by the search,
including the states it then finds stuck (no ready vertex) or dominated;
`max_nodes` caps their count, and a witness on n vertices takes at least
n + 1 of them.  Each call caches the candidate cliques per free-vertex
mask, each stored with the edges it covers.  The memo and the caches
belong to one call and are released when it returns, raises or runs out
of budget.
"""

import itertools

from .errors import BudgetExceeded
from .graph_core import maximal_cliques


class SearchBudget:
    """Knobs bounding the exhaustive search."""

    __slots__ = ("max_total_vertices", "max_k", "max_nodes")

    def __init__(self, max_total_vertices=13, max_k=4, max_nodes=2_000_000):
        self.max_total_vertices = max_total_vertices
        self.max_k = max_k
        self.max_nodes = max_nodes


DEFAULT_BUDGET = SearchBudget()


def fresh_labels(taken, count):
    """`count` labels of the form z1, z2, ... avoiding the taken set."""
    taken = set(taken)
    out = []
    i = 1
    while len(out) < count:
        cand = "z%d" % i
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        i += 1
    return out


def find_realization(graph, k, budget=None):
    """Search for a realization of `graph` with k extra vertices.

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
    incident = [0] * n
    for (a, b), eb in ebit.items():
        incident[vbit[a].bit_length() - 1] |= eb
        incident[vbit[b].bit_length() - 1] |= eb

    def vertex_mask(vertices):
        m = 0
        for v in vertices:
            m |= vbit[v]
        return m

    def members(vmask):
        return frozenset(v for v, b in zip(vs, bits) if b & vmask)

    def cover_of(vmask):
        mask = 0
        inside = [v for v in vs if vbit[v] & vmask]
        for a, b in itertools.combinations(inside, 2):
            mask |= ebit[(a, b)]
        return mask

    clique_masks = [vertex_mask(c) for c in maximal_cliques(graph)]

    cand_cache = {}

    def clique_candidates(free):
        """Maximal traces of the cliques on the free vertices that hold an
        edge, each with the edges it covers; the empty clique if none."""
        got = cand_cache.get(free)
        if got is None:
            inters = {cm & free for cm in clique_masks}
            maximal = [m for m in inters if m & (m - 1) and
                       not any(m != o and m & ~o == 0 for o in inters)]
            got = cand_cache[free] = [(m, cover_of(m)) for m in maximal] \
                or [(0, 0)]
        return got

    # Extras sit after every G-vertex, so each takes a whole maximal
    # clique, and two of them never share one.  Combinations covering more
    # come first, so the memo skips those they dominate.
    useful = [(cm, cover_of(cm)) for cm in clique_masks if cm & (cm - 1)]
    tails = [(combo, _union(cover for _, cover in combo))
             for combo in itertools.combinations(useful, min(k, len(useful)))]
    tails.sort(key=lambda t: -t[1].bit_count())

    full = (1 << n) - 1
    memo = {}
    nodes = 0
    path = []

    def dfs(taken, covered):
        """Extend `path` backwards from the taken vertices; on success leave
        the witness on it and return True."""
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceeded(
                "realization search exceeded %d nodes" % max_nodes)
        if taken == full:
            return True
        free = full & ~taken
        ready = 0
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            if incident[low.bit_length() - 1] & ~covered == 0:
                ready |= low
        if not ready:
            return False
        # Dominance: skip when an earlier visit of this taken set covered
        # a superset; otherwise keep only the Pareto-maximal covered sets.
        kept = memo.get(taken)
        if kept is None:
            memo[taken] = [covered]
        else:
            for c in kept:
                if covered & ~c == 0:
                    return False
            kept[:] = [c for c in kept if c & ~covered]
            kept.append(covered)
        low = ready & -ready
        i = low.bit_length() - 1
        taken |= low
        for cm, cover in clique_candidates(free & ~ready):
            path.append((i, cm))
            if dfs(taken, covered | cover):
                return True
            path.pop()
        return False

    try:
        for tail, covered in tails:
            if dfs(0, covered):
                body = tuple((vs[i], members(cm)) for i, cm in reversed(path))
                tail = [members(cm) for cm, _ in tail]
                tail += [frozenset()] * (k - len(tail))
                return body, tuple(tail)
        return None
    finally:
        # dfs reaches itself through its closure cell; emptying the cell
        # breaks that cycle, so the memo and the caches are freed now rather
        # than at the next cyclic garbage collection.
        dfs = None


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out
