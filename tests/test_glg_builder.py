import itertools

import pytest

from glgcomp import (Graph, NonPositiveM, SchemaError, UnknownVertex,
                     VertexCollision, check_weights, cocktail_label,
                     cocktail_party, edge_label, generalized_line_graph,
                     incident_edge_clique, line_graph, semi_join,
                     weighted_graph_from_json, weighted_graph_to_json)
from corpus import connected_graphs, weight_maps


def star(n):
    leaves = ["v%d" % i for i in range(2, n + 2)]
    return Graph(["v1"] + leaves, [("v1", leaf) for leaf in leaves])


def path(n):
    verts = ["p%d" % i for i in range(n)]
    return Graph(verts, zip(verts, verts[1:]))


class TestLabels:
    def test_edge_label_orders_endpoints(self):
        assert edge_label("b", "a") == "e:a-b"
        assert edge_label("a", "b") == "e:a-b"

    def test_cocktail_label(self):
        assert cocktail_label("v", 2, "x") == "q:v:2:x"
        assert cocktail_label("v", 1, "y") == "q:v:1:y"


class TestLineGraph:
    def test_star_becomes_complete(self):
        lg, labels = line_graph(star(3))
        assert len(lg.vertices) == 3
        assert len(lg.edges) == 3
        assert labels[("v1", "v2")] == "e:v1-v2"

    def test_path_becomes_shorter_path(self):
        lg, _ = line_graph(path(4))
        assert len(lg.vertices) == 3
        assert len(lg.edges) == 2

    def test_two_edges_adjacent_iff_they_share_an_endpoint(self):
        for h in connected_graphs(5, min_edges=1, max_edges=6):
            lg, labels = line_graph(h)
            for e, f in itertools.combinations(sorted(h.edges), 2):
                touching = bool(set(e) & set(f))
                assert lg.has_edge(labels[e], labels[f]) == touching

    def test_incident_edge_clique(self):
        h = path(3)
        assert incident_edge_clique(h, "p1") == frozenset(
            {"e:p0-p1", "e:p1-p2"})
        assert incident_edge_clique(h, "p0") == frozenset({"e:p0-p1"})
        with pytest.raises(UnknownVertex):
            incident_edge_clique(h, "nope")

    def test_bundles_are_cliques_covering_all_line_graph_edges(self):
        for h in connected_graphs(5, min_edges=1, max_edges=6):
            lg, _ = line_graph(h)
            covered = set()
            for v in h.vertices:
                bundle = incident_edge_clique(h, v)
                for a, b in itertools.combinations(sorted(bundle), 2):
                    assert lg.has_edge(a, b)
                    covered.add((a, b))
            assert covered == set(lg.edges)


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
            assert not g.has_edge(x, y)
            assert g.neighbors(x) == frozenset(g.vertices) - {x, y}

    def test_custom_namer_and_bad_m(self):
        g, pairs = cocktail_party(2, namer=lambda l, s: "%s%d" % (s, l))
        assert set(g.vertices) == {"x1", "x2", "y1", "y2"}
        with pytest.raises(NonPositiveM):
            cocktail_party(0)


class TestWeights:
    def test_fills_in_zeros_and_validates(self):
        h = path(3)
        total = check_weights(h, {"p0": 2})
        assert total == {"p0": 2, "p1": 0, "p2": 0}
        with pytest.raises(UnknownVertex):
            check_weights(h, {"zz": 1})
        with pytest.raises(SchemaError):
            check_weights(h, {"p0": -1})
        with pytest.raises(SchemaError):
            check_weights(h, {"p0": True})
        with pytest.raises(SchemaError):
            check_weights(h, {"p0": "2"})


class TestGeneralizedLineGraph:
    def test_zero_weights_is_plain_line_graph(self):
        h = path(4)
        combined = generalized_line_graph(h, {})
        lg, _ = line_graph(h)
        assert combined.graph == lg

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
        assert g.has_edge("q:v2:1:x", "q:v2:2:y")
        assert not g.has_edge("q:v2:1:x", "q:v2:1:y")
        # block vertices of different anchors are never adjacent
        assert not g.has_edge("q:v2:1:x", "q:v3:1:x")
        # a block sees exactly its anchor's edge bundle
        assert g.neighbors("q:v3:1:x") == frozenset({"e:v1-v3"})
        bundle = combined.incident_labels("v2")
        assert bundle == frozenset({"e:v1-v2"})
        for q in ("q:v2:1:x", "q:v2:1:y", "q:v2:2:x", "q:v2:2:y"):
            assert g.has_edge("e:v1-v2", q)
            assert not g.has_edge("e:v1-v3", q)

    def test_matches_iterated_semi_join(self):
        # The one-pass build against the definition: the line graph
        # semi-joined with one block per weighted vertex in turn.
        for h in connected_graphs(5):
            for weights in itertools.islice(
                    weight_maps(h.vertices, max_weight=3, max_total=6), 0,
                    None, 5):
                combined = generalized_line_graph(h, weights)
                current, _ = line_graph(h)
                pairs = {}
                for v in h.vertices:
                    pairs[v] = []
                    if weights.get(v):
                        block, pairs[v] = cocktail_party(
                            weights[v],
                            namer=lambda l, s, v=v: cocktail_label(v, l, s))
                        current = semi_join(
                            current, sorted(incident_edge_clique(h, v)), block)
                assert combined.graph == current
                assert combined.cocktail_pairs == pairs
                for v in h.vertices:
                    assert combined.incident_labels(v) == \
                        incident_edge_clique(h, v)

    def test_colliding_edge_labels_are_refused(self):
        # Edges a-b~c and a~b-c are both labelled "e:a-b-c".
        h = Graph(["a-b", "c", "a", "b-c"], [("a-b", "c"), ("a", "b-c")])
        with pytest.raises(VertexCollision):
            generalized_line_graph(h, {"c": 1})
        with pytest.raises(VertexCollision):
            line_graph(h)

    def test_isolated_weighted_vertex_gets_a_detached_block(self):
        h = Graph(["a", "b", "c"], [("a", "b")])
        combined = generalized_line_graph(h, {"c": 1})
        g = combined.graph
        assert set(g.vertices) == {"e:a-b", "q:c:1:x", "q:c:1:y"}
        assert g.edges == frozenset()


class TestWeightedJson:
    def test_round_trip(self):
        h = path(3)
        weights = {"p1": 2}
        doc = weighted_graph_to_json(h, weights)
        assert doc["kind"] == "vertex_weighted_graph"
        h2, w2 = weighted_graph_from_json(doc)
        assert h2 == h
        assert check_weights(h2, w2) == check_weights(h, weights)

    def test_zero_weights_omitted(self):
        doc = weighted_graph_to_json(path(2), {"p0": 0, "p1": 1})
        assert doc["weights"] == {"p1": 1}

    def test_rejects_wrong_kind(self):
        with pytest.raises(SchemaError):
            weighted_graph_from_json({"kind": "graph", "vertices": [],
                                      "edges": []})
