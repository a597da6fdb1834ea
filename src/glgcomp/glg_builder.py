"""Builders for line graphs, cocktail-party graphs, and their combination.

A combined graph is the line graph of a base graph H together with, for
each positively weighted base vertex v, a cocktail-party block fully joined
to the line-graph vertices arising from edges incident to v.  With no
weights it is the line graph L(H).

Vertex naming, written only by generalized_line_graph:
  * an edge {a, b} of the base graph becomes the vertex "e:a-b" (a < b);
  * cocktail-party vertices attached at base vertex v are "q:v:l:x" and
    "q:v:l:y" for levels l = 1..weight(v); the two vertices on the same
    level are partners (the unique non-adjacent pairs within a block).

This module owns the line-graph facts: CombinedGraph carries each edge's
vertex, each base vertex's edge bundle and each block's partner pairs, so
nothing ever needs to parse a label back apart or rebuild a bundle, and
_simplicial_edge tells from the base graph's rows alone when an edge
vertex of L(H) is simplicial.  Both sides are named by position, as the
constructions' bodies name them (see realization): a base vertex by its
position in the base's sorted label tuple, and a combined vertex by its
position in the combined graph's.  edge_positions maps each base edge
(i, j), i < j, to its vertex's position, bundles[i] is the frozenset of the
positions of the i-th base vertex's edge bundle, and pairs[i] its block's
partner pairs as positions.

generalized_line_graph reads the base's rows and writes the combined
graph's (see graph_core), with no edge list of the combined graph and no
label view of either graph.  It labels the base's edges, read off its
rows in sorted order, and the blocks, sorts the labels, and sets star(v)
to the positions of v's edge bundle and of v's block, a clique of the
combined graph.  An edge vertex e:a-b is adjacent to star(a) and star(b)
but itself, which is the one position they share, and both vertices of a
block level to star(v) but the two of them, so they share one row; a
zero-weight vertex adds no block.  That graph equals the line graph
semi-joined with one block per weighted vertex in turn; tests/reference.py
keeps that semi-join, and the label naming above, as the reference
definitions the tests check the builder against.
"""

import itertools

from .errors import (NonPositiveM, SchemaError, UnknownVertex,
                     VertexCollision)
from .graph_core import Graph, _read_links


def _simplicial_edge(rows, i, j):
    """True iff the line-graph vertex of the edge joining the base vertices
    at positions i and j, whose neighbours are rows[i] and rows[j], is
    simplicial: an end of the edge is pendant, or both ends have degree two
    and a common neighbour.

    N(f) is the other edges at i and the other edges at j.  Those at i
    pairwise meet at i, and those at j at j; an edge at i meets an edge at
    j only at a common neighbour, so N(f) is a clique exactly in these
    cases.
    """
    ri, rj = rows[i], rows[j]
    return min(len(ri), len(rj)) == 1 or (
        len(ri) == len(rj) == 2 and not set(ri).isdisjoint(rj))


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


def _check_weights(h, weights):
    """Validate a weight assignment: keys are vertices, values nonneg ints.

    Returns the weights as a list indexed by position in h.vertices
    (missing vertices get weight 0).
    """
    by_position = [0] * len(h.vertices)
    for v, m in weights.items():
        i = h._index.get(v)
        if i is None:
            raise UnknownVertex("weighted vertex %r is not in the base graph" % (v,))
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise SchemaError("weight of %r must be a nonnegative integer, got %r" % (v, m))
        by_position[i] = m
    return by_position


class CombinedGraph:
    """A built line graph with cocktail-party blocks and its base graph,
    with each base vertex named by its position in base.vertices and each
    combined vertex by its position in graph.vertices: each base edge
    (i, j), i < j, maps to its vertex's position (edge_positions), and the
    i-th base vertex has its edge bundle as a frozenset of positions
    (bundles[i]) and its block's partner pairs as position pairs by level
    (pairs[i], empty for weight zero)."""

    __slots__ = ("graph", "base", "edge_positions", "bundles", "pairs")

    def __init__(self, graph, base, edge_positions, bundles, pairs):
        self.graph = graph
        self.base = base
        self.edge_positions = edge_positions  # (i, j) -> its position
        self.bundles = bundles  # i -> frozenset of positions
        self.pairs = pairs  # i -> sequence of (x, y) positions


def generalized_line_graph(h, weights):
    """Build the combined graph for base graph h and the given vertex
    weights; with no positive weight it is the line graph of h."""
    hv = h.vertices
    ends = [(i, j) for i, row in enumerate(h._rows) for j in row if j > i]
    labels = ["e:%s-%s" % (hv[i], hv[j]) for i, j in ends]
    blocks = []  # (base position, where its labels start, weight)
    for i, m in enumerate(_check_weights(h, weights)):
        if m:
            # Labels "q:v:l:side" are distinct across (v, l, side), and
            # never start like an edge label "e:...".  Each level's x
            # comes just before its y.
            blocks.append((i, len(labels), m))
            labels += ["q:%s:%d:%s" % (hv[i], l, side)
                       for l in range(1, m + 1) for side in "xy"]
    vertices = sorted(labels)
    index = dict(zip(vertices, range(len(vertices))))
    if len(index) != len(vertices):
        # Only edge labels can collide: the edges {"a-b", "c"} and
        # {"a", "b-c"} are both "e:a-b-c".
        raise VertexCollision("edge labels collide; rename base vertices")
    at = list(map(index.__getitem__, labels))  # each label's position
    star = [[] for _ in hv]
    for (a, b), p in zip(ends, at):
        star[a].append(p)
        star[b].append(p)
    bundles = list(map(frozenset, star))
    pairs = [()] * len(hv)
    rows = [None] * len(vertices)
    for i, start, m in blocks:
        block = at[start:start + 2 * m]
        pairs[i] = list(zip(block[::2], block[1::2]))
        # An edge vertex's row is sorted whole, so only a block's star is.
        star[i] = sorted(star[i] + block)
        for x, y in pairs[i]:
            row = star[i].copy()
            row.remove(x)
            row.remove(y)
            rows[x] = rows[y] = tuple(row)
    for (a, b), p in zip(ends, at):
        # The stars at a and b share the edge vertex and nothing else.
        row = star[a] + star[b]
        row.remove(p)
        row.remove(p)
        row.sort()
        rows[p] = tuple(row)
    # tuple() of a list, not of a map: CPython allocates a tuple from an
    # iterator of unknown length for 10 items and resizes it, and once
    # released it joins the free list of its final size, so each op on a
    # graph of 11-19 vertices would keep one more (up to 2,000 a size).
    graph = Graph._from_rows(tuple(vertices), index, tuple(rows))
    return CombinedGraph(graph, h, dict(zip(ends, at)), bundles, pairs)


def weighted_graph_from_json(obj):
    h = Graph(*_read_links(obj, "vertex_weighted_graph", "edges"))
    raw_weights = obj.get("weights", {})
    if not isinstance(raw_weights, dict):
        raise SchemaError("field 'weights' must be an object")
    _check_weights(h, raw_weights)
    return h, raw_weights
