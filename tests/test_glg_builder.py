import itertools
import random

import pytest

from glgcomp import (Graph, SchemaError, UnknownVertex, cocktail_party,
                     generalized_line_graph, simplicial_vertices,
                     weighted_graph_from_json)
from glgcomp.glg_builder import _check_weights, _simplicial_edge
from glgcomp.graph_core import graph_json_text, graph_to_dot
from corpus import atlas_graphs, connected_graphs, weight_maps
from reference import (cocktail_label, combined_graph, edge_label,
                       incident_edge_clique, neighbors, semi_join)


def star(n):
    leaves = ["v%d" % i for i in range(2, n + 2)]
    return Graph(["v1"] + leaves, [("v1", leaf) for leaf in leaves])


def path(n):
    verts = ["p%d" % i for i in range(n)]
    return Graph(verts, zip(verts, verts[1:]))


def bundle_positions(combined, h, v):
    """The reference bundle of the base vertex v, as positions in the
    combined graph."""
    index = combined.graph.vertices.index
    return frozenset(map(index, incident_edge_clique(h, v)))


class TestLabels:
    def test_edge_label_orders_endpoints(self):
        assert edge_label("b", "a") == "e:a-b"
        assert edge_label("a", "b") == "e:a-b"

    def test_cocktail_label(self):
        assert cocktail_label("v", 2, "x") == "q:v:2:x"
        assert cocktail_label("v", 1, "y") == "q:v:1:y"


class TestLineGraph:
    def test_star_becomes_complete(self):
        h = star(3)
        c = generalized_line_graph(h, {})
        assert len(c.graph.vertices) == 3
        assert len(c.graph.edges) == 3
        # Base edges are keyed by the positions of their ends.
        e = (h.vertices.index("v1"), h.vertices.index("v2"))
        assert c.graph.vertices[c.edge_positions[e]] == \
            edge_label("v1", "v2") == "e:v1-v2"

    def test_path_becomes_shorter_path(self):
        lg = generalized_line_graph(path(4), {}).graph
        assert len(lg.vertices) == 3
        assert len(lg.edges) == 2

    def test_two_edges_adjacent_iff_they_share_an_endpoint(self):
        for h in connected_graphs(5, min_edges=1, max_edges=6):
            c = generalized_line_graph(h, {})
            for e, f in itertools.combinations(sorted(h.edges), 2):
                touching = bool(set(e) & set(f))
                assert (edge_label(*f) in
                        neighbors(c.graph, edge_label(*e))) == touching

    def test_incident_edge_clique(self):
        h = path(3)
        assert incident_edge_clique(h, "p1") == frozenset(
            {"e:p0-p1", "e:p1-p2"})
        assert incident_edge_clique(h, "p0") == frozenset({"e:p0-p1"})
        with pytest.raises(UnknownVertex):
            incident_edge_clique(h, "nope")
        # The library keeps the same bundles on the combined graph.
        combined = generalized_line_graph(h, {})
        assert combined.bundles == [bundle_positions(combined, h, v)
                                    for v in h.vertices]

    def test_bundles_are_cliques_covering_all_line_graph_edges(self):
        for h in connected_graphs(5, min_edges=1, max_edges=6):
            lg = generalized_line_graph(h, {}).graph
            covered = set()
            for v in h.vertices:
                bundle = incident_edge_clique(h, v)
                for a, b in itertools.combinations(sorted(bundle), 2):
                    assert b in neighbors(lg, a)
                    covered.add((a, b))
            assert covered == set(lg.edges)

    def test_simplicial_edge_rule_matches_the_line_graph(self):
        # 12,342 edges: every edge of every atlas graph on at most 7
        # vertices.
        edges = 0
        for h in atlas_graphs(7):
            c = generalized_line_graph(h, {})
            simplicial = set(simplicial_vertices(c.graph))
            for f in h.edges:
                i, j = map(h.vertices.index, f)
                assert _simplicial_edge(h._rows, i, j) == \
                    (edge_label(*f) in simplicial)
                edges += 1
        assert edges == 12342


class TestCocktailParty:
    def test_sizes(self):
        for m in range(1, 5):
            g, pairs = cocktail_party(m)
            assert len(g.vertices) == 2 * m
            assert len(g.edges) == 2 * m * (m - 1)
            assert len(pairs) == m

    def test_partners_are_the_only_non_neighbors(self):
        g, pairs = cocktail_party(3)
        for x, y in pairs:
            assert y not in neighbors(g, x)
            assert neighbors(g, x) == frozenset(g.vertices) - {x, y}

    def test_default_names_and_bad_m(self):
        g, pairs = cocktail_party(2)
        assert pairs == [("x1", "y1"), ("x2", "y2")]
        assert set(g.vertices) == {"x1", "x2", "y1", "y2"}
        with pytest.raises(SchemaError, match="must be a positive integer"):
            cocktail_party(0)
        # bool is an int subclass, but True is not a block size.
        with pytest.raises(SchemaError, match="must be a positive integer"):
            cocktail_party(True)


class TestWeights:
    def test_fills_in_zeros_and_validates(self):
        h = path(3)
        # The weights by position in h.vertices.
        assert _check_weights(h, {"p0": 2}) == [2, 0, 0]
        assert _check_weights(h, {"p2": 1, "p1": 0}) == [0, 0, 1]
        with pytest.raises(UnknownVertex):
            _check_weights(h, {"zz": 1})
        with pytest.raises(SchemaError):
            _check_weights(h, {"p0": -1})
        with pytest.raises(SchemaError):
            _check_weights(h, {"p0": True})
        with pytest.raises(SchemaError):
            _check_weights(h, {"p0": "2"})


class TestGeneralizedLineGraph:
    def test_vertex_count_formula(self):
        for h in connected_graphs(4, min_edges=1, max_edges=4):
            for weights in itertools.islice(weight_maps(h.vertices), 12):
                combined = generalized_line_graph(h, weights)
                assert len(combined.graph.vertices) == (
                    len(h.edges) + 2 * sum(weights.values()))

    def test_block_adjacency_rules(self):
        h = star(3)
        combined = generalized_line_graph(h, {"v2": 2, "v3": 1})
        g = combined.graph
        # same-anchor block vertices: adjacent unless they are partners
        assert "q:v2:2:y" in neighbors(g, "q:v2:1:x")
        assert "q:v2:1:y" not in neighbors(g, "q:v2:1:x")
        # block vertices of different anchors are never adjacent
        assert "q:v3:1:x" not in neighbors(g, "q:v2:1:x")
        # a block sees exactly its anchor's edge bundle
        assert neighbors(g, "q:v3:1:x") == frozenset({"e:v1-v3"})
        assert combined.bundles[h.vertices.index("v2")] == \
            frozenset({g.vertices.index("e:v1-v2")})
        for q in ("q:v2:1:x", "q:v2:1:y", "q:v2:2:x", "q:v2:2:y"):
            assert q in neighbors(g, "e:v1-v2")
            assert q not in neighbors(g, "e:v1-v3")

    def test_matches_iterated_semi_join(self):
        # The one-pass build against the definition: the line graph
        # semi-joined with one block per weighted vertex in turn.
        for h in connected_graphs(5):
            for weights in itertools.islice(
                    weight_maps(h.vertices, max_weight=3, max_total=6), 0,
                    None, 5):
                combined = generalized_line_graph(h, weights)
                current = generalized_line_graph(h, {}).graph
                pairs = {}
                for v in h.vertices:
                    pairs[v] = []
                    if weights.get(v):
                        block, plain = cocktail_party(weights[v])
                        name = {p: cocktail_label(v, l, s)
                                for l, pair in enumerate(plain, 1)
                                for s, p in zip("xy", pair)}
                        pairs[v] = [(name[x], name[y]) for x, y in plain]
                        block = Graph(map(name.get, block.vertices),
                                      [(name[a], name[b])
                                       for a, b in block.edges])
                        current = semi_join(
                            current, sorted(incident_edge_clique(h, v)), block)
                assert combined.graph == current
                vs = combined.graph.vertices
                assert {v: [(vs[x], vs[y]) for x, y in block]
                        for v, block in zip(h.vertices, combined.pairs)} \
                    == pairs
                assert combined.bundles == [
                    bundle_positions(combined, h, v) for v in h.vertices]

    def test_colliding_edge_labels_are_refused(self):
        # Edges a-b~c and a~b-c are both labelled "e:a-b-c".
        h = Graph(["a-b", "c", "a", "b-c"], [("a-b", "c"), ("a", "b-c")])
        with pytest.raises(SchemaError, match="edge labels collide"):
            generalized_line_graph(h, {"c": 1})
        with pytest.raises(SchemaError, match="edge labels collide"):
            generalized_line_graph(h, {})

    def test_isolated_weighted_vertex_gets_a_detached_block(self):
        h = Graph(["a", "b", "c"], [("a", "b")])
        combined = generalized_line_graph(h, {"c": 1})
        g = combined.graph
        assert set(g.vertices) == {"e:a-b", "q:c:1:x", "q:c:1:y"}
        assert g.edges == frozenset()


def mask_instances():
    """Every atlas base of at most 5 vertices with every weight map of
    weights 0-2, then K5-K8, each with all weights 6 and with three seeded
    weight maps of weights 0-6."""
    for h in atlas_graphs(5):
        for values in itertools.product(range(3), repeat=len(h.vertices)):
            yield h, dict(zip(h.vertices, values))
    rng = random.Random(24)
    for n in range(5, 9):
        verts = ["k%d" % i for i in range(n)]
        h = Graph(verts, itertools.combinations(verts, 2))
        yield h, dict.fromkeys(verts, 6)
        for _ in range(3):
            yield h, {v: rng.randint(0, 6) for v in verts}


class TestBuilderRows:
    def test_builder_rows_match_the_edge_built_graphs(self):
        # The rows the builder writes against those Graph builds from the
        # edges, of its own graph and of the semi-join reference; every
        # reader of the builder's graph against the edge-built graph's.
        count = 0
        for h, weights in mask_instances():
            g = generalized_line_graph(h, weights).graph
            rows = g._rows
            assert isinstance(rows, tuple)
            assert all(isinstance(row, tuple) for row in rows)
            built = Graph(g.vertices, g.edges)
            assert rows == built._rows
            reference = combined_graph(h, weights)
            assert reference.vertices == g.vertices
            assert rows == reference._rows
            assert g.edges == built.edges == reference.edges
            assert all(neighbors(g, v) == neighbors(built, v)
                       for v in g.vertices)
            assert graph_json_text(g) == graph_json_text(built)
            assert graph_to_dot(g) == graph_to_dot(built)
            assert g == built and hash(g) == hash(built)
            count += 1
        assert count > 9000

    def test_row_graph_and_edge_graph_build_no_view_from_each_other(self):
        g = generalized_line_graph(path(4), {"p1": 2}).graph
        assert g._edges is None
        h = Graph(g.vertices, g.edges)
        assert h._edges is None
        assert h == g and hash(h) == hash(g)
        assert graph_json_text(h) == graph_json_text(g)
        assert h._edges is None


class TestWeightedJson:
    def test_round_trip(self):
        h = path(3)
        weights = {"p1": 2}
        doc = {"kind": "vertex_weighted_graph", "vertices": ["p0", "p1", "p2"],
               "edges": [["p0", "p1"], ["p1", "p2"]], "weights": {"p1": 2}}
        h2, w2 = weighted_graph_from_json(doc)
        assert h2 == h
        # The map comes back as given, checked but not filled in.
        assert w2 == weights == doc["weights"]
        assert _check_weights(h2, w2) == _check_weights(h, weights) == [0, 2, 0]

    def test_refuses_bad_weights(self):
        doc = {"kind": "vertex_weighted_graph", "vertices": ["a", "b"],
               "edges": [["a", "b"]]}
        with pytest.raises(UnknownVertex):
            weighted_graph_from_json(dict(doc, weights={"c": 1}))
        with pytest.raises(SchemaError):
            weighted_graph_from_json(dict(doc, weights={"a": -1}))
        with pytest.raises(SchemaError):
            weighted_graph_from_json(dict(doc, weights=[1, 0]))

    def test_rejects_wrong_kind(self):
        with pytest.raises(SchemaError):
            weighted_graph_from_json({"kind": "graph", "vertices": [],
                                      "edges": []})
