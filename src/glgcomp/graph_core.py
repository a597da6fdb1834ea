"""Core graph and digraph types plus clique machinery.

Vertices are opaque string labels.  Undirected edges are stored as sorted
2-tuples; arcs as (tail, head) tuples.  All derived orderings break ties
lexicographically so every operation is deterministic.
"""

import heapq
import itertools

from .errors import (CyclicDigraph, EmptyGraph, NotAClique, SchemaError,
                     SizeGuardExceeded, UnknownVertex, VertexCollision)

DEFAULT_SIZE_GUARD = 16


def normalize_edge(a, b):
    """Return the canonical (sorted) form of an undirected edge."""
    if not isinstance(a, str) or not isinstance(b, str):
        raise SchemaError("vertex labels must be strings, got %r, %r" % (a, b))
    if a == b:
        raise SchemaError("loop edge at %r is not allowed" % a)
    return (a, b) if a < b else (b, a)


def _label_set(vertices):
    """The vertex labels as a set, after checking they are distinct strings."""
    vs = list(vertices)
    for v in vs:
        if not isinstance(v, str):
            raise SchemaError("vertex labels must be strings, got %r" % (v,))
    vset = set(vs)
    if len(vset) != len(vs):
        raise SchemaError("duplicate vertex labels")
    return vset


class Graph:
    """Simple undirected graph."""

    __slots__ = ("vertices", "edges", "_adj")

    def __init__(self, vertices, edges=()):
        vset = _label_set(vertices)
        es = set()
        for pair in edges:
            a, b = pair
            e = normalize_edge(a, b)
            if e[0] not in vset:
                raise UnknownVertex("edge endpoint %r is not a vertex" % (e[0],))
            if e[1] not in vset:
                raise UnknownVertex("edge endpoint %r is not a vertex" % (e[1],))
            es.add(e)
        self.vertices = tuple(sorted(vset))
        self.edges = frozenset(es)
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        self._adj = {v: frozenset(nbrs) for v, nbrs in adj.items()}

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))

    def has_vertex(self, v):
        return v in self._adj

    def has_edge(self, a, b):
        return normalize_edge(a, b) in self.edges

    def neighbors(self, v):
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertex("no vertex %r" % (v,)) from None

    def degree(self, v):
        return len(self.neighbors(v))

    def induced(self, subset):
        sub = set(subset)
        for v in sub:
            if v not in self._adj:
                raise UnknownVertex("no vertex %r" % (v,))
        edges = [e for e in self.edges if e[0] in sub and e[1] in sub]
        return Graph(sorted(sub), edges)


class Digraph:
    """Simple digraph (no loops, no parallel arcs)."""

    __slots__ = ("vertices", "arcs", "_out", "_in")

    def __init__(self, vertices, arcs=()):
        vset = _label_set(vertices)
        arcset = set()
        for pair in arcs:
            t, h = pair
            if t == h:
                raise SchemaError("loop arc at %r is not allowed" % (t,))
            if t not in vset:
                raise UnknownVertex("arc tail %r is not a vertex" % (t,))
            if h not in vset:
                raise UnknownVertex("arc head %r is not a vertex" % (h,))
            arcset.add((t, h))
        self.vertices = tuple(sorted(vset))
        self.arcs = frozenset(arcset)
        out = {v: set() for v in self.vertices}
        inn = {v: set() for v in self.vertices}
        for t, h in self.arcs:
            out[t].add(h)
            inn[h].add(t)
        self._out = {v: frozenset(s) for v, s in out.items()}
        self._in = {v: frozenset(s) for v, s in inn.items()}

    def __eq__(self, other):
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.vertices == other.vertices and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.vertices, self.arcs))

    def __repr__(self):
        return "Digraph(%d vertices, %d arcs)" % (len(self.vertices), len(self.arcs))

    def out_neighbors(self, v):
        try:
            return self._out[v]
        except KeyError:
            raise UnknownVertex("no vertex %r" % (v,)) from None

    def in_neighbors(self, v):
        try:
            return self._in[v]
        except KeyError:
            raise UnknownVertex("no vertex %r" % (v,)) from None


def competition_edges(digraph):
    """The competition graph's edges as sorted pairs: u ~ v iff they share
    an out-neighbor."""
    edges = set()
    for x in digraph.vertices:
        edges.update(itertools.combinations(sorted(digraph.in_neighbors(x)), 2))
    return edges


def competition_graph(digraph):
    """The competition graph: u ~ v iff they share an out-neighbor."""
    return Graph(digraph.vertices, competition_edges(digraph))


def acyclic_ordering(digraph):
    """A topological ordering, lexicographically smallest among valid ones.

    Raises CyclicDigraph (with a cycle witness) when no ordering exists.
    """
    indeg = {v: len(digraph.in_neighbors(v)) for v in digraph.vertices}
    ready = [v for v in digraph.vertices if indeg[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in sorted(digraph.out_neighbors(v)):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != len(digraph.vertices):
        # Every vertex left over keeps a left-over in-neighbor, so walking
        # back through them must repeat a vertex; the walk between the two
        # visits, reversed, is a cycle.
        left = set(digraph.vertices) - set(order)
        walk, v = {}, min(left)  # vertex -> its place on the walk
        while v not in walk:
            walk[v] = len(walk)
            v = min(digraph.in_neighbors(v) & left)
        cycle = list(walk)[walk[v]:] + [v]
        raise CyclicDigraph("digraph is not acyclic", reversed(cycle))
    return tuple(order)


def is_acyclic_ordering(digraph, ordering):
    """True iff the sequence lists every vertex once with all arcs forward."""
    ordering = tuple(ordering)
    if sorted(ordering) != list(digraph.vertices):
        return False
    pos = {v: i for i, v in enumerate(ordering)}
    return all(pos[t] < pos[h] for t, h in digraph.arcs)


def is_clique(graph, subset):
    """True iff the subset induces a complete subgraph."""
    sub = sorted(set(subset))
    for v in sub:
        if not graph.has_vertex(v):
            raise UnknownVertex("no vertex %r" % (v,))
    for a, b in itertools.combinations(sub, 2):
        if (a, b) not in graph.edges:
            return False
    return True


def require_clique(graph, subset, what="set"):
    if not is_clique(graph, subset):
        raise NotAClique("%s %r is not a clique" % (what, sorted(set(subset))))


def isolated_vertices(graph):
    """Vertices without neighbors, sorted."""
    return tuple(v for v in graph.vertices if not graph.neighbors(v))


def simplicial_vertices(graph):
    """Vertices whose (open) neighborhood induces a clique.

    Isolated vertices qualify: the empty set counts as a clique.  Use
    isolated_vertices to tell the two cases apart.
    """
    return tuple(v for v in graph.vertices if is_clique(graph, graph.neighbors(v)))


def is_connected(graph):
    """True iff the graph is connected (the empty graph counts as connected)."""
    if not graph.vertices:
        return True
    seen = {graph.vertices[0]}
    frontier = [graph.vertices[0]]
    while frontier:
        v = frontier.pop()
        for w in graph.neighbors(v):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(graph.vertices)


def maximal_cliques(graph):
    """All maximal cliques (Bron-Kerbosch with pivoting), deterministically sorted."""
    adj = {v: set(graph.neighbors(v)) for v in graph.vertices}
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(frozenset(r))
            return
        pivot = max(sorted(p | x), key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    try:
        expand(set(), set(graph.vertices), set())
    finally:
        # expand reaches itself through its closure cell; emptying the cell
        # frees it, and the state it holds, now rather than at the next
        # cyclic garbage collection.
        expand = None
    return sorted(out, key=lambda c: tuple(sorted(c)))


def _guard(graph, guard, what):
    if len(graph.vertices) > guard:
        raise SizeGuardExceeded(
            "%s refused: %d vertices exceeds guard %d"
            % (what, len(graph.vertices), guard))


def vertex_clique_cover_number(graph, guard=DEFAULT_SIZE_GUARD):
    """Exact minimum number of cliques needed to partition the vertices."""
    _guard(graph, guard, "vertex clique cover")
    n = len(graph.vertices)
    if n == 0:
        return 0
    # Clique cover of G == proper coloring of the complement.
    vs = graph.vertices
    comp_adj = {
        v: frozenset(w for w in vs if w != v and w not in graph.neighbors(v))
        for v in vs
    }
    order = sorted(vs, key=lambda v: (-len(comp_adj[v]), v))

    # Greedy upper bound.
    greedy = {}
    for v in order:
        used = {greedy[w] for w in comp_adj[v] if w in greedy}
        c = 0
        while c in used:
            c += 1
        greedy[v] = c
    upper = max(greedy.values()) + 1

    def colorable(k):
        colors = {}

        def place(i):
            if i == len(order):
                return True
            v = order[i]
            used_count = max(colors.values(), default=-1) + 1
            for c in range(min(k, used_count + 1)):
                if all(colors.get(w) != c for w in comp_adj[v]):
                    colors[v] = c
                    if place(i + 1):
                        return True
                    del colors[v]
            return False

        try:
            return place(0)
        finally:
            place = None  # break the self-reference, as in maximal_cliques

    for k in range(1, upper):
        if colorable(k):
            return k
    return upper


def _greedy_independent_set_size(graph):
    """Size of a greedy independent set, smallest degree first.

    No clique holds two independent vertices, so this is a lower bound on
    the vertex clique cover number.
    """
    blocked = set()
    size = 0
    for v in sorted(graph.vertices, key=lambda w: (graph.degree(w), w)):
        if v not in blocked:
            size += 1
            blocked.add(v)
            blocked |= graph.neighbors(v)
    return size


def opsut_lower_bound(graph, guard=DEFAULT_SIZE_GUARD):
    """min over vertices v of the vertex clique cover number of N(v).

    A neighborhood above the size guard contributes a greedy independent
    set size instead, which is at most its clique cover number, so the
    result is still a lower bound on the competition number.
    """
    if not graph.vertices:
        raise EmptyGraph("opsut_lower_bound is undefined on the empty graph")
    best = None
    for v in graph.vertices:
        nbhd = graph.induced(graph.neighbors(v))
        if len(nbhd.vertices) > guard:
            theta = _greedy_independent_set_size(nbhd)
        else:
            theta = vertex_clique_cover_number(nbhd, guard)
        if best is None or theta < best:
            best = theta
        if best == 0:
            break
    return best


def semi_join(graph, clique, other):
    """Disjoint union of the two graphs plus all edges clique x V(other)."""
    clique = sorted(set(clique))
    for v in clique:
        if not graph.has_vertex(v):
            raise UnknownVertex("clique member %r is not in the base graph" % (v,))
    require_clique(graph, clique, "semi-join anchor")
    shared = set(graph.vertices) & set(other.vertices)
    if shared:
        raise VertexCollision("graphs share vertices: %r" % (sorted(shared),))
    vertices = list(graph.vertices) + list(other.vertices)
    edges = set(graph.edges) | set(other.edges)
    for k in clique:
        for w in other.vertices:
            edges.add(normalize_edge(k, w))
    return Graph(vertices, edges)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def graph_to_json(graph):
    return {
        "kind": "graph",
        "vertices": list(graph.vertices),
        "edges": [list(e) for e in sorted(graph.edges)],
    }


def _require_list_of_strings(obj, key):
    val = obj.get(key)
    if not isinstance(val, list) or not all(isinstance(x, str) for x in val):
        raise SchemaError("field %r must be a list of strings" % (key,))
    return val


def _require_pair_list(obj, key):
    val = obj.get(key)
    if not isinstance(val, list):
        raise SchemaError("field %r must be a list of vertex pairs" % (key,))
    pairs = []
    for item in val:
        if (not isinstance(item, list)) or len(item) != 2 \
                or not all(isinstance(x, str) for x in item):
            raise SchemaError("field %r contains a non-pair entry: %r" % (key, item))
        pairs.append((item[0], item[1]))
    return pairs


def graph_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError("graph document must be a JSON object")
    if obj.get("kind", "graph") != "graph":
        raise SchemaError("expected kind 'graph', got %r" % obj.get("kind"))
    vertices = _require_list_of_strings(obj, "vertices")
    edges = _require_pair_list(obj, "edges") if "edges" in obj else []
    return Graph(vertices, edges)


def digraph_to_json(digraph):
    return {
        "kind": "digraph",
        "vertices": list(digraph.vertices),
        "arcs": [list(a) for a in sorted(digraph.arcs)],
    }


def digraph_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError("digraph document must be a JSON object")
    if obj.get("kind", "digraph") != "digraph":
        raise SchemaError("expected kind 'digraph', got %r" % obj.get("kind"))
    vertices = _require_list_of_strings(obj, "vertices")
    arcs = _require_pair_list(obj, "arcs") if "arcs" in obj else []
    return Digraph(vertices, arcs)


def _dot_quote(label):
    return '"%s"' % label.replace("\\", "\\\\").replace('"', '\\"')


def _to_dot(keyword, name, vertices, links, connector, node_attrs):
    node_attrs = node_attrs or {}
    lines = ["%s %s {" % (keyword, name)]
    for v in vertices:
        attrs = node_attrs.get(v)
        if attrs:
            body = ", ".join("%s=%s" % (k, attrs[k]) for k in sorted(attrs))
            lines.append("  %s [%s];" % (_dot_quote(v), body))
        else:
            lines.append("  %s;" % _dot_quote(v))
    for a, b in sorted(links):
        lines.append("  %s %s %s;" % (_dot_quote(a), connector, _dot_quote(b)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(graph, name="G", node_attrs=None):
    """Deterministic DOT text for an undirected graph."""
    return _to_dot("graph", name, graph.vertices, graph.edges, "--",
                   node_attrs)


def digraph_to_dot(digraph, name="D", node_attrs=None):
    """Deterministic DOT text for a digraph."""
    return _to_dot("digraph", name, digraph.vertices, digraph.arcs, "->",
                   node_attrs)
