"""Reference definitions the tests check generalized_line_graph against.

The builder writes the combined graph's rows in one pass, and is the only
writer of its labels in the package.  These are the textbook steps it
replaces: the naming of an edge's vertex (edge_label) and of a block's
vertices (cocktail_label), the edge bundle of a base vertex, read off its
neighbours, and the semi-join of a graph with a block along a clique,
which is_clique tests pair by pair against the edge set.  The line graph
semi-joined with one cocktail-party block per weighted vertex, in turn,
is the combined graph (combined_graph).

The serializers list links by bucketing each pair under its first end.
sorted_links and to_dot are the writers they replace, which sort the whole
set of tuples.

patch_everywhere rebinds a package function in every glgcomp module that
binds it, so a test can count or refuse its calls whichever module makes
them.
"""

import itertools
import sys

from glgcomp import (Graph, UnknownVertex, VertexCollision, cocktail_party,
                     normalize_edge)


def edge_label(a, b):
    """The combined graph's vertex of the base edge {a, b}: "e:a-b", a < b."""
    a, b = normalize_edge(a, b)
    return "e:%s-%s" % (a, b)


def cocktail_label(v, level, side):
    """The combined graph's vertex on side x or y of level `level` of the
    block at the base vertex v: "q:v:level:side"."""
    return "q:%s:%d:%s" % (v, level, side)


def is_clique(graph, subset):
    """True iff every two members of subset are joined in graph.edges; the
    library reads rows, this reads the edge set."""
    return all(pair in graph.edges
               for pair in itertools.combinations(sorted(set(subset)), 2))


class NotAClique(Exception):
    """A semi-join anchor that is not a clique of its graph."""


def incident_edge_clique(h, v):
    """Line-graph vertices arising from edges of h incident to v.

    Always a clique of the line graph: these edges pairwise share v.
    """
    return frozenset(edge_label(v, w) for w in h.neighbors(v))


def semi_join(graph, clique, other):
    """Disjoint union of the two graphs plus all edges clique x V(other)."""
    clique = sorted(set(clique))
    for v in clique:
        if v not in graph.vertices:
            raise UnknownVertex("clique member %r is not in the base graph" % (v,))
    if not is_clique(graph, clique):
        raise NotAClique("semi-join anchor %r is not a clique" % (clique,))
    shared = set(graph.vertices) & set(other.vertices)
    if shared:
        raise VertexCollision("graphs share vertices: %r" % (sorted(shared),))
    vertices = list(graph.vertices) + list(other.vertices)
    edges = set(graph.edges) | set(other.edges)
    for k in clique:
        for w in other.vertices:
            edges.add(normalize_edge(k, w))
    return Graph(vertices, edges)


def combined_graph(h, weights):
    """The line graph of h, built from its edge pairs that share an end,
    semi-joined in vertex order with one cocktail-party block per
    positively weighted vertex, along that vertex's edge bundle."""
    pairs = [(edge_label(*e), edge_label(*f))
             for e, f in itertools.combinations(sorted(h.edges), 2)
             if set(e) & set(f)]
    current = Graph([edge_label(*e) for e in h.edges], pairs)
    for v in h.vertices:
        if weights.get(v):
            block, plain = cocktail_party(weights[v])
            name = {p: cocktail_label(v, level, side)
                    for level, pair in enumerate(plain, 1)
                    for side, p in zip("xy", pair)}
            block = Graph(map(name.get, block.vertices),
                          [(name[a], name[b]) for a, b in block.edges])
            current = semi_join(current, incident_edge_clique(h, v), block)
    return current


def sorted_links(links):
    """The JSON edge or arc list: every pair, as a list, in tuple order."""
    return [list(e) for e in sorted(links)]


def digraph_doc(d):
    """The digraph document of a Digraph: its vertices and its own arcs,
    sorted whole."""
    return {"kind": "digraph", "vertices": list(d.vertices),
            "arcs": sorted_links(d.arcs)}


def to_dot(keyword, name, vertices, links, connector, node_attrs):
    """DOT text with the links in tuple order."""
    def quote(label):
        return '"%s"' % label.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["%s %s {" % (keyword, name)]
    for v in vertices:
        attrs = node_attrs.get(v)
        if attrs:
            body = ", ".join("%s=%s" % (k, attrs[k]) for k in sorted(attrs))
            lines.append("  %s [%s];" % (quote(v), body))
        else:
            lines.append("  %s;" % quote(v))
    for a, b in sorted(links):
        lines.append("  %s %s %s;" % (quote(a), connector, quote(b)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def patch_everywhere(monkeypatch, original, replacement):
    """Replace the function original by replacement, through monkeypatch,
    under its own name in every loaded glgcomp module that binds it."""
    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "glgcomp" and \
                vars(module).get(name) is original:
            monkeypatch.setattr(module, name, replacement)
