"""Builders for line graphs, cocktail-party graphs, and their combination.

A combined graph is the line graph of a base graph H together with, for
each positively weighted base vertex v, a cocktail-party block fully joined
to the line-graph vertices arising from edges incident to v.  With no
weights it is the line graph L(H).

Vertex naming:
  * an edge {a, b} of the base graph becomes the vertex "e:a-b" (a < b);
  * cocktail-party vertices attached at base vertex v are "q:v:l:x" and
    "q:v:l:y" for levels l = 1..weight(v); the two vertices on the same
    level are partners (the unique non-adjacent pairs within a block).

This module owns the line-graph facts: CombinedGraph carries each edge's
vertex, each base vertex's edge bundle and each block's partner pairs, so
nothing ever needs to parse a label back apart or rebuild a bundle, and
is_simplicial_edge tells from the base graph alone when an edge vertex of
L(H) is simplicial.  It names each vertex by its position in the combined
graph's sorted label tuple, the identity the constructions' bodies use
(see realization): edge_positions maps each base edge to its position,
bundles each base vertex to the frozenset of its edge bundle's positions,
and pairs each base vertex to its block's partner pairs as positions.
edge_label names an edge's vertex, and incident_labels(v) gives v's
bundle by label.

generalized_line_graph writes the combined graph's rows (see graph_core)
and builds no edge tuple.  It labels the base's sorted edge pairs and the
blocks, sorts the labels, and sets star(v) to the positions of v's edge
bundle and of v's block, a clique of the combined graph.  An edge
vertex e:a-b is adjacent to star(a) and star(b) but itself, which is the
one position they share, and both vertices of a block level to star(v)
but the two of them, so they share one row; a zero-weight vertex adds no
block.  That graph equals the line graph semi-joined with one block per
weighted vertex in turn; tests/reference.py keeps that semi-join as the
reference definition the tests check the builder against.
"""

import itertools

from .errors import (NonPositiveM, SchemaError, UnknownVertex,
                     VertexCollision)
from .graph_core import Graph, _read_links, normalize_edge


def edge_label(a, b):
    a, b = normalize_edge(a, b)
    return "e:%s-%s" % (a, b)


def cocktail_label(v, level, side):
    if side not in ("x", "y"):
        raise SchemaError("cocktail side must be 'x' or 'y', got %r" % (side,))
    return "q:%s:%d:%s" % (v, level, side)


def is_simplicial_edge(h, f):
    """True iff the line-graph vertex of the edge f = xy of h is simplicial:
    an end of f is pendant, or both ends have degree two and a common
    neighbour.

    N(f) is the other edges at x and the other edges at y.  Those at x
    pairwise meet at x, and those at y at y; an edge at x meets an edge at
    y only at a common neighbour, so N(f) is a clique exactly in these cases.
    """
    x, y = f
    dx, dy = h.degree(x), h.degree(y)
    return min(dx, dy) == 1 or (
        dx == dy == 2 and bool(h.neighbors(x) & h.neighbors(y)))


def cocktail_party(m):
    """Cocktail-party graph on 2m vertices (complete minus a perfect matching).

    Returns (graph, pairs) where pairs lists the m non-adjacent partner
    pairs in level order, named x1..xm / y1..ym.
    """
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise NonPositiveM("cocktail-party size must be a positive integer, got %r" % (m,))
    pairs = [("x%d" % l, "y%d" % l) for l in range(1, m + 1)]
    vertices = [v for pair in pairs for v in pair]
    return Graph(vertices, _block_edges(pairs)), pairs


def _block_edges(pairs):
    """The cocktail-party edges on these partner pairs: every pair of
    their vertices but the partners."""
    block = [v for pair in pairs for v in pair]
    partners = set(pairs)
    return [e for e in itertools.combinations(block, 2) if e not in partners]


def check_weights(h, weights):
    """Validate a weight assignment: keys are vertices, values nonneg ints.

    Returns a total dict (missing vertices get weight 0).
    """
    full = dict.fromkeys(h.vertices, 0)
    for v, m in weights.items():
        if v not in full:
            raise UnknownVertex("weighted vertex %r is not in the base graph" % (v,))
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise SchemaError("weight of %r must be a nonnegative integer, got %r" % (v, m))
        full[v] = m
    return full


class CombinedGraph:
    """A built line graph with cocktail-party blocks and its base graph,
    with each vertex named by its position in graph.vertices: each base
    edge's position (edge_positions), each base vertex's edge bundle as a
    frozenset of positions (bundles) and its block's partner pairs as
    position pairs by level (pairs, empty for weight zero).
    incident_labels(v) is a bundle by label."""

    __slots__ = ("graph", "base", "edge_positions", "bundles", "pairs")

    def __init__(self, graph, base, edge_positions, bundles, pairs):
        self.graph = graph
        self.base = base
        self.edge_positions = edge_positions  # base edge -> its position
        self.bundles = bundles  # base vertex -> frozenset of positions
        self.pairs = pairs  # base vertex -> sequence of (x, y) positions

    def incident_labels(self, v):
        """The line-graph vertices of the edges at v, a clique of the line
        graph since these edges pairwise share v."""
        try:
            bundle = self.bundles[v]
        except KeyError:
            raise UnknownVertex("no vertex %r" % (v,)) from None
        return frozenset(map(self.graph.vertices.__getitem__, bundle))


def generalized_line_graph(h, weights):
    """Build the combined graph for base graph h and the given vertex
    weights; with no positive weight it is the line graph of h."""
    weights = check_weights(h, weights)
    labels = {e: "e:%s-%s" % e for e in h.edges}
    vertices = list(labels.values())
    blocks = {}
    for v in h.vertices:
        if weights[v]:
            # Labels "q:v:l:side", as cocktail_label writes them, are
            # distinct across (v, l, side), and never start like an edge
            # label "e:...".  Each level's x comes just before its y.
            blocks[v] = ["q:%s:%d:%s" % (v, l, side)
                         for l in range(1, weights[v] + 1) for side in "xy"]
            vertices += blocks[v]
    vertices.sort()
    index = dict(zip(vertices, range(len(vertices))))
    if len(index) != len(vertices):
        # Only edge labels can collide: the edges {"a-b", "c"} and
        # {"a", "b-c"} are both "e:a-b-c".
        raise VertexCollision("edge labels collide; rename base vertices")
    positions = {e: index[label] for e, label in labels.items()}
    star = {v: [] for v in h.vertices}
    for (a, b), i in positions.items():
        star[a].append(i)
        star[b].append(i)
    bundles = {v: frozenset(s) for v, s in star.items()}
    pairs = dict.fromkeys(h.vertices, ())
    for v, block in blocks.items():
        block = list(map(index.__getitem__, block))
        pairs[v] = list(zip(block[::2], block[1::2]))
        # An edge vertex's row is sorted whole, so only a block's star is.
        star[v] = sorted(star[v] + block)
    rows = [None] * len(vertices)
    for (a, b), i in positions.items():
        # The stars at a and b share the edge vertex and nothing else.
        row = star[a] + star[b]
        row.remove(i)
        row.remove(i)
        row.sort()
        rows[i] = tuple(row)
    for v in blocks:
        for x, y in pairs[v]:
            row = star[v].copy()
            row.remove(x)
            row.remove(y)
            rows[x] = rows[y] = tuple(row)
    # tuple() of a list, not of a map: CPython allocates a tuple from an
    # iterator of unknown length for 10 items and resizes it, and once
    # released it joins the free list of its final size, so each op on a
    # graph of 11-19 vertices would keep one more (up to 2,000 a size).
    graph = Graph._from_rows(tuple(vertices), index, tuple(rows))
    return CombinedGraph(graph, h, positions, bundles, pairs)


def weighted_graph_from_json(obj):
    h = Graph(*_read_links(obj, "vertex_weighted_graph", "edges"))
    raw_weights = obj.get("weights", {})
    if not isinstance(raw_weights, dict):
        raise SchemaError("field 'weights' must be an object")
    weights = check_weights(h, raw_weights)
    return h, weights
