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

generalized_line_graph builds the combined graph in one pass: it collects
the line-graph edges, each block's cocktail-party edges and the block's
join to its anchor's edge bundle into one edge list and constructs the
Graph once.  That graph equals the line graph semi-joined with one block
per weighted vertex in turn (graph_core.semi_join), which stays the
reference definition.
"""

import itertools

from .errors import (NonPositiveM, SchemaError, UnknownVertex,
                     VertexCollision)
from .graph_core import (Graph, _require_list_of_strings, _require_pair_list,
                         normalize_edge)


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
    labels = _edge_labels(h)
    edges = _clique_edges(_bundles(h, labels).values())
    return Graph(labels.values(), edges), labels


def _edge_labels(h):
    """Each edge of h (a sorted tuple) -> its line-graph vertex label."""
    labels = {e: edge_label(*e) for e in h.edges}
    if len(set(labels.values())) != len(labels):
        raise VertexCollision("edge labels collide; rename base vertices")
    return labels


def _bundles(h, labels):
    """Each vertex of h -> the labels of its incident edges."""
    bundles = {v: [] for v in h.vertices}
    for e, label in labels.items():
        bundles[e[0]].append(label)
        bundles[e[1]].append(label)
    return {v: frozenset(b) for v, b in bundles.items()}


def _clique_edges(cliques):
    """Every pair within each clique."""
    return [pair for c in cliques for pair in itertools.combinations(c, 2)]


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
    full = {v: 0 for v in h.vertices}
    for v, m in weights.items():
        if v not in full:
            raise UnknownVertex("weighted vertex %r is not in the base graph" % (v,))
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise SchemaError("weight of %r must be a nonnegative integer, got %r" % (v, m))
        full[v] = m
    return full


class CombinedGraph:
    """A built line graph with cocktail-party blocks, its base graph,
    each base vertex's cocktail-party pairs and its edge bundle."""

    __slots__ = ("graph", "base", "cocktail_pairs", "_bundles")

    def __init__(self, graph, base, cocktail_pairs, bundles):
        self.graph = graph
        self.base = base
        self.cocktail_pairs = cocktail_pairs  # base vertex -> list of (x, y)
        self._bundles = bundles  # base vertex -> frozenset of edge labels

    def incident_labels(self, v):
        """The line-graph vertices of the edges at v: incident_edge_clique
        of the base graph, as built."""
        try:
            return self._bundles[v]
        except KeyError:
            raise UnknownVertex("no vertex %r" % (v,)) from None


def generalized_line_graph(h, weights):
    """Build the combined graph for base graph h and the given vertex weights."""
    weights = check_weights(h, weights)
    labels = _edge_labels(h)
    bundles = _bundles(h, labels)
    vertices = list(labels.values())
    edges = _clique_edges(bundles.values())
    cocktail_pairs = {}
    for v in h.vertices:
        # Labels "q:v:l:side" are distinct across (v, l, side), and never
        # start like an edge label "e:...".
        pairs = [(cocktail_label(v, l, "x"), cocktail_label(v, l, "y"))
                 for l in range(1, weights[v] + 1)]
        cocktail_pairs[v] = pairs
        block = [q for pair in pairs for q in pair]
        vertices += block
        edges += _block_edges(pairs)
        edges += [(a, q) for a in bundles[v] for q in block]
    return CombinedGraph(Graph(vertices, edges), h, cocktail_pairs, bundles)


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
