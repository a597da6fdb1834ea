"""Core graph and digraph types plus clique machinery.

Vertices are opaque string labels.  Undirected edges are stored as sorted
2-tuples; arcs as (tail, head) tuples.  All derived orderings break ties
lexicographically so every operation is deterministic.

Graph and Digraph check their input one link at a time, in one pass over
the given edges or arcs, so an error names the first offending one.

A Graph has one representation: its sorted label tuple, the label index
(each label -> its position) and one row per vertex, the sorted tuple of
its neighbours' positions, so it takes memory linear in vertices plus
edges.  Graph(vertices, edges) builds the rows after its checks;
glg_builder writes them through Graph._from_rows, the only constructor
that checks nothing.  The simplicial test, equality, hashing, induced
subgraphs and connectivity read the rows.  The edge set and the neighbour
sets are views, built from the rows on first use by the public readers
edges and neighbors (vertices is the label tuple) and by the body check's
mismatch report only: the constructions, the condition report, pendant
reduction, the search and the certificates read the rows.

One clique machinery works on vertex bitmasks: bit i stands for the i-th
vertex in label order, and adj[i] holds its neighbours.  A mask is as
wide as its highest bit, so _bitmasks builds them from the rows for one
call, only for the search and Opsut's bound.  Bron-Kerbosch
(maximal_clique_masks) lists the maximal cliques inside any vertex mask; it
walks an explicit stack, so a clique may have more members than Python's
recursion limit has frames.  The search passes the whole graph, and the
clique-cover number theta of a mask is the fewest of that mask's maximal
cliques whose union is the mask, found by trying k upward from a greedy
independent set.  Opsut's bound reads each neighbourhood N(v) as adj[v], so
no induced subgraph is built.

JSON and DOT list edges and arcs sorted by (first label, second label): a
graph's edges are each row's tail past the vertex's own position, rows
in label order (_tails).  A graph's JSON is written as text
(graph_json_text), byte for byte what json.dumps(..., sort_keys=True)
writes: each label is encoded once by json's own encode_basestring_ascii,
and each first end's row of pairs is one join (_pairs_text), with no list
or string per pair.  The realization certificate writes its text from the
same rows.  One reader, _read_links, checks the shape of every JSON
document, for graph_from_json, digraph_from_json and
glg_builder.weighted_graph_from_json alike; the Graph or Digraph
constructor then checks the labels and links.
"""

import bisect
import heapq
import itertools
from json.encoder import encode_basestring_ascii as _json_string

from .errors import CyclicDigraph, EmptyGraph, SchemaError, UnknownVertex

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


def _checked_edge(pair, vset):
    """One edge, normalized, after the checks Graph makes on it."""
    a, b = pair
    e = normalize_edge(a, b)
    if e[0] not in vset:
        raise UnknownVertex("edge endpoint %r is not a vertex" % (e[0],))
    if e[1] not in vset:
        raise UnknownVertex("edge endpoint %r is not a vertex" % (e[1],))
    return e


def _checked_arc(pair, vset):
    """One arc, as a tuple, after the checks Digraph makes on it."""
    t, h = pair
    if t == h:
        raise SchemaError("loop arc at %r is not allowed" % (t,))
    if t not in vset:
        raise UnknownVertex("arc tail %r is not a vertex" % (t,))
    if h not in vset:
        raise UnknownVertex("arc head %r is not a vertex" % (h,))
    return (t, h)


class Graph:
    """Simple undirected graph, held as rows: the i-th vertex's row is the
    sorted tuple of its neighbours' positions in the label order.  The edge
    set and the neighbour sets are views, each built from the rows on first
    use."""

    __slots__ = ("vertices", "_index", "_rows", "_edges", "_adj")

    def __init__(self, vertices, edges=()):
        vset = _label_set(vertices)
        es = {_checked_edge(pair, vset) for pair in edges}
        self.vertices = tuple(sorted(vset))
        index = self._index = dict(zip(self.vertices, range(len(vset))))
        rows = [[] for _ in self.vertices]
        for a, b in es:
            i, j = index[a], index[b]
            rows[i].append(j)
            rows[j].append(i)
        self._rows = tuple([tuple(sorted(row)) for row in rows])
        self._edges = self._adj = None

    @classmethod
    def _from_rows(cls, vertices, index, rows):
        """The graph on the sorted label tuple `vertices` whose i-th vertex
        is adjacent to the positions in rows[i], a sorted tuple; index maps
        each label to its position.  Nothing is checked: the caller built
        all three from labels that were checked already."""
        graph = cls.__new__(cls)
        graph.vertices = vertices
        graph._index = index
        graph._rows = rows
        graph._edges = graph._adj = None
        return graph

    @property
    def edges(self):
        """The edges as a frozenset of sorted pairs."""
        if self._edges is None:
            self._edges = frozenset(_edge_pairs(self))
        return self._edges

    def _adjacency(self):
        """Each label -> the frozenset of its neighbours' labels."""
        if self._adj is None:
            vs = self.vertices
            self._adj = {v: frozenset(map(vs.__getitem__, row))
                         for v, row in zip(vs, self._rows)}
        return self._adj

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self._rows == other._rows

    def __hash__(self):
        return hash((self.vertices, self._rows))

    def __repr__(self):
        return "Graph(%d vertices, %d edges)" % (
            len(self.vertices), sum(map(len, self._rows)) // 2)

    def neighbors(self, v):
        try:
            return (self._adj or self._adjacency())[v]
        except KeyError:
            raise UnknownVertex("no vertex %r" % (v,)) from None

    def induced(self, subset):
        sub = set(subset)
        for v in sub:
            if v not in self._index:
                raise UnknownVertex("no vertex %r" % (v,))
        vertices = tuple(sorted(sub))
        old = list(map(self._index.__getitem__, vertices))
        new = dict(zip(old, range(len(old))))  # old position -> new one
        rows = tuple([tuple([new[j] for j in self._rows[i] if j in new])
                      for i in old])
        return Graph._from_rows(vertices, dict(zip(vertices, range(len(old)))),
                                rows)


def _tails(graph):
    """Each vertex's later neighbours: its row past its own position.
    Read in label order, the tails list the edges in sorted(graph.edges)
    order."""
    return [row[bisect.bisect(row, i):] for i, row in enumerate(graph._rows)]


def _edge_pairs(graph):
    """The edges as (a, b) label pairs, in sorted order."""
    vs = graph.vertices
    return [(vs[i], vs[j])
            for i, tail in enumerate(_tails(graph)) for j in tail]


class Digraph:
    """Simple digraph (no loops, no parallel arcs); in- and out-adjacency
    are built on first use."""

    __slots__ = ("vertices", "arcs", "_out", "_in")

    def __init__(self, vertices, arcs=()):
        vset = _label_set(vertices)
        self.vertices = tuple(sorted(vset))
        self.arcs = frozenset({_checked_arc(pair, vset) for pair in arcs})
        self._out = self._in = None

    def _adjacency(self):
        if self._out is None:
            out = {v: set() for v in self.vertices}
            inn = {v: set() for v in self.vertices}
            for t, h in self.arcs:
                out[t].add(h)
                inn[h].add(t)
            self._in = {v: frozenset(s) for v, s in inn.items()}
            self._out = {v: frozenset(s) for v, s in out.items()}
        return self._out, self._in

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
            return self._adjacency()[0][v]
        except KeyError:
            raise UnknownVertex("no vertex %r" % (v,)) from None

    def in_neighbors(self, v):
        try:
            return self._adjacency()[1][v]
        except KeyError:
            raise UnknownVertex("no vertex %r" % (v,)) from None


def competition_graph(digraph):
    """The competition graph: u ~ v iff they share an out-neighbor."""
    edges = set()
    for x in digraph.vertices:
        edges.update(itertools.combinations(sorted(digraph.in_neighbors(x)), 2))
    return Graph(digraph.vertices, edges)


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
        for w in digraph.out_neighbors(v):
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


def simplicial_vertices(graph):
    """Vertices whose (open) neighborhood induces a clique.

    N(v) is one iff N(u) & N(v) has len(N(v)) - 1 members for each u in N(v).
    Isolated vertices qualify: the empty set counts as a clique.
    """
    rows = graph._rows
    return tuple(v for v, row, nbrs in zip(graph.vertices, rows,
                                           map(set, rows))
                 if all(len(nbrs.intersection(rows[u])) == len(row) - 1
                        for u in row))


def is_connected(graph):
    """True iff the graph is connected (the empty graph counts as connected)."""
    if not graph.vertices:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        for j in graph._rows[frontier.pop()]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(graph.vertices)


def bit_indices(mask):
    """The positions of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def maximal_clique_masks(adj, mask):
    """All maximal cliques of the subgraph induced on the set bits of mask,
    as vertex bitmasks; vertex i is adjacent to the set bits of adj[i].

    Bron-Kerbosch with pivoting: the pivot is the lowest vertex of P | X
    with the most neighbours in P, and the branches run over P minus its
    neighbours, lowest first.  The cliques are sorted by their vertex
    positions, read lowest first.
    """
    out = []
    # One frame per clique member chosen: the clique so far, the P and X it
    # branches from, and the branch vertices not yet tried.
    stack = []
    r, p, x = 0, mask, 0
    while True:
        if not p and not x:
            out.append(r)
        else:
            most = -1
            rest = p | x
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length() - 1
                count = (adj[u] & p).bit_count()
                if count > most:
                    most, pivot = count, u
            stack.append((r, p, x, p & ~adj[pivot]))
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            break
        r, p, x, branch = stack.pop()
        low = branch & -branch
        stack.append((r, p ^ low, x | low, branch ^ low))
        nbrs = adj[low.bit_length() - 1]
        r, p, x = r | low, p & nbrs, x & nbrs
    return sorted(out, key=bit_indices)


def _bitmasks(graph):
    """adj[i] has bit j set iff the i-th and j-th vertices (label order)
    are adjacent.  Built from the rows for one call of the search or of
    Opsut's bound; no graph keeps them, since a mask is as wide as its
    highest bit."""
    return [sum(map((1).__lshift__, row)) for row in graph._rows]


def _clique_cover_number(adj, mask):
    """The fewest maximal cliques of the subgraph induced on mask whose
    union is mask (a cover shrinks to a partition of as many cliques).

    Tries k upward from the greedy independent-set bound.
    """
    cliques = maximal_clique_masks(adj, mask)
    k = _greedy_independent_set_size(adj, mask)
    while not _covers(cliques, mask, k):
        k += 1
    return k


def _covers(cliques, rest, k):
    """True iff at most k of the cliques cover the set bits of rest: some
    clique holding the lowest of them is among those k."""
    if not rest:
        return True
    if not k:
        return False
    low = rest & -rest
    return any(_covers(cliques, rest & ~c, k - 1)
               for c in cliques if c & low)


def _greedy_independent_set_size(adj, mask):
    """Size of a greedy independent set inside mask: fewest neighbours in
    mask first, ties by label.

    No clique holds two independent vertices, so this is a lower bound on
    the clique cover number of mask.
    """
    blocked = size = 0
    for i in sorted(bit_indices(mask), key=lambda i: (adj[i] & mask).bit_count()):
        if not blocked >> i & 1:
            size += 1
            blocked |= adj[i] | 1 << i
    return size


def opsut_lower_bound(graph):
    """min over vertices v of theta(N(v)), the vertex clique cover number
    of v's neighborhood, read from the adjacency masks as
    _clique_cover_number(adj, adj[v]).

    A neighborhood above DEFAULT_SIZE_GUARD contributes a greedy independent
    set size instead, which is at most its clique cover number, so the
    result is still a lower bound on the competition number.
    """
    if not graph.vertices:
        raise EmptyGraph("opsut_lower_bound is undefined on the empty graph")
    adj = _bitmasks(graph)
    return min(_greedy_independent_set_size(adj, nbhd)
               if nbhd.bit_count() > DEFAULT_SIZE_GUARD
               else _clique_cover_number(adj, nbhd) for nbhd in adj)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _pairs_text(rows):
    """The JSON text of a list of [a, b] pairs, written row by row: rows
    yields (a, bs), a first end's JSON string and the JSON strings of its
    second ends in order.  Each row is one join, with no list or string
    made per pair; a row with no second ends writes nothing."""
    out = []
    for a, bs in rows:
        if bs:
            opener = "[" + a + ", "
            out.append(opener + ("], " + opener).join(bs) + "]")
    return "[" + ", ".join(out) + "]"


def _graph_text(graph, enc):
    """The graph's JSON document as text, with the label at position i
    written as enc[i], its JSON string: each vertex's row of edges is its
    tail."""
    rows = [list(map(enc.__getitem__, tail)) for tail in _tails(graph)]
    return '{"edges": %s, "kind": "graph", "vertices": [%s]}' % (
        _pairs_text(zip(enc, rows)), ", ".join(enc))


def graph_json_text(graph):
    """The graph's JSON document as text, byte for byte what
    json.dumps(..., sort_keys=True) writes for it."""
    return _graph_text(graph, list(map(_json_string, graph.vertices)))


def _read_links(obj, kind, key):
    """The vertices and the `key` pairs of a JSON document of this kind.

    The document must be an object whose kind, if it names one, is this
    kind, with a list of string labels under "vertices" and, unless the
    key is missing (no links), a list of two-string lists under `key`.
    """
    if not isinstance(obj, dict):
        raise SchemaError("%s document must be a JSON object" % kind)
    if obj.get("kind", kind) != kind:
        raise SchemaError("expected kind %r, got %r" % (kind, obj.get("kind")))
    vertices = obj.get("vertices")
    if not isinstance(vertices, list) \
            or not all(isinstance(x, str) for x in vertices):
        raise SchemaError("field 'vertices' must be a list of strings")
    links = obj.get(key, [])
    if not isinstance(links, list):
        raise SchemaError("field %r must be a list of vertex pairs" % (key,))
    pairs = []
    for item in links:
        if (not isinstance(item, list)) or len(item) != 2 \
                or not all(isinstance(x, str) for x in item):
            raise SchemaError("field %r contains a non-pair entry: %r" % (key, item))
        pairs.append((item[0], item[1]))
    return vertices, pairs


def graph_from_json(obj):
    return Graph(*_read_links(obj, "graph", "edges"))


def digraph_from_json(obj):
    return Digraph(*_read_links(obj, "digraph", "arcs"))


def _dot_quote(label):
    return '"%s"' % label.replace("\\", "\\\\").replace('"', '\\"')


def _to_dot(keyword, name, vertices, pairs, connector, node_attrs):
    lines = ["%s %s {" % (keyword, name)]
    for v in vertices:
        attrs = node_attrs.get(v)
        if attrs:
            body = ", ".join("%s=%s" % (k, attrs[k]) for k in sorted(attrs))
            lines.append("  %s [%s];" % (_dot_quote(v), body))
        else:
            lines.append("  %s;" % _dot_quote(v))
    for a, b in pairs:
        lines.append("  %s %s %s;" % (_dot_quote(a), connector, _dot_quote(b)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(graph):
    """Deterministic DOT text for an undirected graph."""
    return _to_dot("graph", "G", graph.vertices, _edge_pairs(graph), "--", {})


def digraph_to_dot(digraph, node_attrs=None):
    """Deterministic DOT text for a digraph."""
    return _to_dot("digraph", "D", digraph.vertices, sorted(digraph.arcs),
                   "->", node_attrs or {})
