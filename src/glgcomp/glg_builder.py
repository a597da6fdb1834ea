"""Builders for line graphs, cocktail-party graphs, and their combination.

A combined graph is the line graph of a base graph H together with, for
each positively weighted base vertex v, a cocktail-party block fully joined
to the line-graph vertices arising from edges incident to v.

Vertex naming:
  * an edge {a, b} of the base graph becomes the vertex "e:a-b" (a < b);
  * cocktail-party vertices attached at base vertex v are "q:v:l:x" and
    "q:v:l:y" for levels l = 1..weight(v); the two vertices on the same
    level are partners (the unique non-adjacent pairs within a block).

Label maps are carried alongside the graphs so nothing ever needs to parse
a label back apart.
"""

import itertools

from .errors import (NonPositiveM, SchemaError, UnknownVertex,
                     VertexCollision)
from .graph_core import (Graph, _require_list_of_strings, _require_pair_list,
                         normalize_edge, semi_join)


def edge_label(a, b):
    a, b = normalize_edge(a, b)
    return "e:%s-%s" % (a, b)


def cocktail_label(v, level, side):
    if side not in ("x", "y"):
        raise SchemaError("cocktail side must be 'x' or 'y', got %r" % (side,))
    return "q:%s:%d:%s" % (v, level, side)


def line_graph(h):
    """Line graph of h.

    Returns (graph, labels) where labels maps each edge of h (as a sorted
    tuple) to its vertex label in the line graph.
    """
    labels = {e: edge_label(*e) for e in h.edges}
    if len(set(labels.values())) != len(labels):
        raise VertexCollision("edge labels collide; rename base vertices")
    edges = set()
    for v in h.vertices:
        incident = sorted(labels[normalize_edge(v, w)] for w in h.neighbors(v))
        for p, q in itertools.combinations(incident, 2):
            edges.add((p, q))
    return Graph(sorted(labels.values()), edges), labels


def incident_edge_clique(h, v):
    """Line-graph vertices arising from edges of h incident to v.

    Always a clique of line_graph(h): these edges pairwise share v.
    """
    if not h.has_vertex(v):
        raise UnknownVertex("no vertex %r" % (v,))
    return frozenset(edge_label(v, w) for w in h.neighbors(v))


def cocktail_party(m, namer=None):
    """Cocktail-party graph on 2m vertices (complete minus a perfect matching).

    Returns (graph, pairs) where pairs lists the m non-adjacent partner
    pairs in level order.  The default naming is x1..xm / y1..ym.
    """
    if not isinstance(m, int) or m < 1:
        raise NonPositiveM("cocktail-party size must be a positive integer, got %r" % (m,))
    if namer is None:
        namer = lambda level, side: "%s%d" % (side, level)
    pairs = [(namer(l, "x"), namer(l, "y")) for l in range(1, m + 1)]
    vertices = [v for pair in pairs for v in pair]
    if len(set(vertices)) != len(vertices):
        raise VertexCollision("cocktail-party labels collide")
    partner = {}
    for x, y in pairs:
        partner[x] = y
        partner[y] = x
    edges = [(a, b) for a, b in itertools.combinations(sorted(vertices), 2)
             if partner[a] != b]
    return Graph(vertices, edges), pairs


def check_weights(h, weights):
    """Validate a weight assignment: keys are vertices, values nonneg ints.

    Returns a total dict (missing vertices get weight 0).
    """
    full = {v: 0 for v in h.vertices}
    for v, m in weights.items():
        if v not in full:
            raise UnknownVertex("weighted vertex %r is not in the base graph" % (v,))
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise SchemaError("weight of %r must be a nonnegative integer, got %r" % (v, m))
        full[v] = m
    return full


class CombinedGraph:
    """A built line graph with cocktail-party blocks, its base graph and
    each base vertex's cocktail-party pairs."""

    __slots__ = ("graph", "base", "cocktail_pairs")

    def __init__(self, graph, base, cocktail_pairs):
        self.graph = graph
        self.base = base
        self.cocktail_pairs = cocktail_pairs  # base vertex -> list of (x, y)

    def incident_labels(self, v):
        return incident_edge_clique(self.base, v)


def generalized_line_graph(h, weights):
    """Build the combined graph for base graph h and the given vertex weights."""
    weights = check_weights(h, weights)
    graph, _ = line_graph(h)
    cocktail_pairs = {}
    for v in h.vertices:
        m = weights[v]
        if m == 0:
            cocktail_pairs[v] = []
            continue
        block, pairs = cocktail_party(m, namer=lambda l, s, v=v: cocktail_label(v, l, s))
        cocktail_pairs[v] = pairs
        anchors = sorted(incident_edge_clique(h, v))
        graph = semi_join(graph, anchors, block)
    return CombinedGraph(graph, h, cocktail_pairs)


def weighted_graph_to_json(h, weights):
    weights = check_weights(h, weights)
    return {
        "kind": "vertex_weighted_graph",
        "vertices": list(h.vertices),
        "edges": [list(e) for e in sorted(h.edges)],
        "weights": {v: weights[v] for v in h.vertices if weights[v]},
    }


def weighted_graph_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError("weighted graph document must be a JSON object")
    if obj.get("kind", "vertex_weighted_graph") != "vertex_weighted_graph":
        raise SchemaError("expected kind 'vertex_weighted_graph', got %r"
                          % obj.get("kind"))
    vertices = _require_list_of_strings(obj, "vertices")
    edges = _require_pair_list(obj, "edges") if "edges" in obj else []
    h = Graph(vertices, edges)
    raw_weights = obj.get("weights", {})
    if not isinstance(raw_weights, dict):
        raise SchemaError("field 'weights' must be an object")
    weights = check_weights(h, raw_weights)
    return h, weights
