"""Exhaustive search for edge-clique realizations of a graph.

A realization of graph G with k extra vertices is an ordering of the
vertices of G plus k trailing extra vertices, together with one clique of G
per position, such that each position's clique lies entirely among the
earlier G-vertices and every edge of G appears inside at least one clique.
Reading the cliques as in-neighborhoods yields an acyclic digraph whose
competition graph is G plus k isolated vertices.  The search builds it in
the form every construction uses (see realization), each vertex named by
its position in graph.vertices: a body of (position, clique) entries for
the vertices of G in placement order, each clique a frozenset of
positions, and a tail of the k extras' cliques; like every construction,
it returns the body's checked certificate (realization._certify).

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
n + 1 of them; running out names the extras' combination the search was
in.  Each combination takes at least one node, so a search with more
combinations than `max_nodes` is refused before they are listed.

Vertices, edges and cliques are bitmasks, and each vertex has a mask of
its incident edges.  The vertex masks are built from the graph's rows
for this call; edge j is the j-th pair of the rows' tails, in
sorted(graph.edges) order, with no edge set built.  A trace with an edge is a
clique of G[R - E], and it is maximal among the traces exactly when no
vertex of R - E is joined to all of its members.  One rule gives every
ready set: the ready set only grows with the covered set, and a vertex
whose last uncovered edge some cliques cover lies in one of them, so the
new ready set is the old one plus those members of the cliques just
placed whose edges are all covered.  A child applies it to the clique
just placed; each extras' combination applies it to its own cliques,
starting from the vertices with no edge.  The edges a clique covers,
those joining each member to an earlier one, are read off the incidence
masks.  Each call caches these covers per clique mask and the candidate
cliques per free-vertex mask.  The depth-first walk keeps one frame
per taken vertex on an explicit stack, so a witness may have more vertices
than Python's recursion limit has frames.  The memo and the caches
belong to one call and are released when it returns, raises or runs out
of budget.
"""

import itertools
import math

from .errors import BudgetExceeded
from .graph_core import (_bitmasks, _tails, bit_indices,
                         maximal_clique_masks)
from .realization import _certify


class SearchBudget:
    """Knobs bounding the exhaustive search: a cap on the graph's vertices
    plus extras, which also caps the extras, and a node budget."""

    __slots__ = ("max_total_vertices", "max_nodes")

    def __init__(self, *, max_total_vertices=13, max_nodes=2_000_000):
        self.max_total_vertices = max_total_vertices
        self.max_nodes = max_nodes


DEFAULT_BUDGET = SearchBudget()


def find_realization(graph, k, budget=None):
    """Search for a realization of `graph` with k extra vertices.

    Returns the witness's RealizationCertificate on success, whose body
    lists the real vertices in placement order and then the k extras, any
    beyond the maximal cliques with an edge taking an empty clique;
    returns None when no realization exists (a definitive answer, not a
    timeout); raises BudgetExceeded when the node budget runs out, and
    before any node when the extras' combinations alone outnumber it.
    """
    budget = budget or DEFAULT_BUDGET
    max_nodes = budget.max_nodes
    n = len(graph.vertices)
    adj = _bitmasks(graph)
    incident = [0] * n
    pairs = [(a, b) for a, tail in enumerate(_tails(graph)) for b in tail]
    for j, (a, b) in enumerate(pairs):
        incident[a] |= 1 << j
        incident[b] |= 1 << j
    full = (1 << n) - 1

    covers = {}

    def cover_of(vmask):
        """The edges with both ends in vmask: those joining each member to
        an earlier one."""
        got = covers.get(vmask)
        if got is None:
            got = seen = 0
            rest = vmask
            while rest:
                low = rest & -rest
                rest ^= low
                inc = incident[low.bit_length() - 1]
                got |= inc & seen
                seen |= inc
            covers[vmask] = got
        return got

    clique_masks = maximal_clique_masks(adj, full)

    def grows(t, free):
        """True iff some free vertex is joined to every member of t."""
        while t and free:
            low = t & -t
            t ^= low
            free &= adj[low.bit_length() - 1]
        return free != 0

    cand_cache = {}

    def clique_candidates(free):
        """Maximal traces of the cliques on the free vertices that hold an
        edge, each with the edges it covers; the empty clique if none."""
        got = cand_cache.get(free)
        if got is None:
            # A trace with an edge is a clique of G[free], and maximal among
            # the traces iff it is a maximal clique there.  The set's own
            # order is the branching order, so keep to it.
            got = cand_cache[free] = [
                (m, cover_of(m)) for m in {cm & free for cm in clique_masks}
                if m & (m - 1) and not grows(m, free)] or [(0, 0)]
        return got

    def ready_after(ready, placed, covered):
        """`ready` plus the members of `placed` whose edges `covered` holds."""
        while placed:
            bit = placed & -placed
            placed ^= bit
            if incident[bit.bit_length() - 1] & ~covered == 0:
                ready |= bit
        return ready

    # Extras sit after every G-vertex, so each takes a whole maximal
    # clique, and two of them never share one.  Combinations covering more
    # come first, so the memo skips those they dominate.
    useful = [(cm, cover_of(cm)) for cm in clique_masks if cm & (cm - 1)]
    r = min(k, len(useful))
    count = math.comb(len(useful), r)
    if count > max_nodes:  # each combination takes a node or more
        raise BudgetExceeded("the %d combinations of the extras' cliques "
                             "exceed %d nodes" % (count, max_nodes))
    tails = [(combo, _union(cover for _, cover in combo))
             for combo in itertools.combinations(useful, r)]
    tails.sort(key=lambda t: -t[1].bit_count())

    isolated = _union(1 << i for i in range(n) if not adj[i])
    memo = {}
    nodes = 0

    def dominated(taken, covered):
        """Dominance: True when an earlier visit of this taken set covered
        a superset; otherwise keep only the Pareto-maximal covered sets."""
        kept = memo.get(taken)
        if kept is None:
            memo[taken] = [covered]
            return False
        for c in kept:
            if covered & ~c == 0:
                return True
        kept[:] = [c for c in kept if c & ~covered]
        kept.append(covered)
        return False

    def extend(covered, ready, tail_no):
        """Take vertices backwards from the empty taken set, depth first,
        `ready` being the free ones whose edges `covered` holds; return the
        witness as (vertex index, clique mask) pairs in taking order, or
        None when this combination of the extras' cliques has none."""
        nonlocal nodes
        taken = 0
        path = []
        # One frame per taken vertex: its index, the state it leaves for
        # the children, and the clique candidates not yet tried.
        stack = []
        while True:
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceeded(
                    "realization search exceeded %d nodes in combination %d "
                    "of %d of the extras' cliques"
                    % (max_nodes, tail_no, len(tails)))
            if taken == full:
                return path
            if ready and not dominated(taken, covered):
                low = ready & -ready
                candidates = clique_candidates(full & ~taken & ~ready)
                stack.append((low.bit_length() - 1, taken | low, covered,
                              ready ^ low, iter(candidates)))
            while stack:
                i, taken, covered, ready, candidates = stack[-1]
                step = next(candidates, None)
                if step is not None:
                    break
                stack.pop()
            else:
                return None
            cm, cover = step
            del path[len(stack) - 1:]
            path.append((i, cm))
            covered |= cover
            ready = ready_after(ready, cm, covered)

    for tail_no, (tail, covered) in enumerate(tails, 1):
        placed = _union(cm for cm, _ in tail)
        path = extend(covered, ready_after(isolated, placed, covered), tail_no)
        if path is not None:
            body = [(i, frozenset(bit_indices(cm)))
                    for i, cm in reversed(path)]
            tail = [frozenset(bit_indices(cm)) for cm, _ in tail]
            tail += [frozenset()] * (k - len(tail))
            return _certify(body, tail, graph, "realization search")
    return None


def _union(masks):
    out = 0
    for m in masks:
        out |= m
    return out
