import itertools

import pytest

import glgcomp.realization
from glgcomp import (CompetitionMismatch, Digraph, Graph, HypothesisNotMet,
                     InvalidInput, NotAnEdge, PreconditionViolated,
                     acyclic_ordering, cocktail_party, competition_graph,
                     cp_realization, find_realization, generalized_line_graph,
                     glg_realization, incident_edge_clique, is_connected,
                     line_graph, single_extra_edge_realization,
                     single_extra_unit_realization, verify_realization)
from corpus import atlas_graphs, connected_graphs, cycle_graph, grid


def path(n):
    verts = ["p%d" % i for i in range(n)]
    return Graph(verts, zip(verts, verts[1:]))


def star(n):
    leaves = ["v%d" % i for i in range(2, n + 2)]
    return Graph(["v1"] + leaves, [("v1", leaf) for leaf in leaves])


class TestVerifyRealization:
    def test_accepts_a_valid_witness(self):
        d = Digraph(["a", "b", "z"], [("a", "z"), ("b", "z")])
        cert = verify_realization(d, Graph(["a", "b"], [("a", "b")]), 1)
        assert cert.added == ("z",)
        assert cert.k == 1
        assert cert.ordering == acyclic_ordering(d)

    def test_reports_missing_and_extra_edges(self):
        d = Digraph(["a", "b", "c", "z"], [("a", "z"), ("b", "z")])
        base = Graph(["a", "b", "c"], [("a", "c")])
        with pytest.raises(CompetitionMismatch) as exc:
            verify_realization(d, base, 1)
        assert exc.value.missing == frozenset({("a", "c")})
        assert exc.value.extra == frozenset({("a", "b")})

    def test_rejects_wrong_k_and_missing_vertices(self):
        d = Digraph(["a", "b"], [])
        with pytest.raises(InvalidInput):
            verify_realization(d, Graph(["a", "b"], []), 1)
        with pytest.raises(InvalidInput):
            verify_realization(d, Graph(["a", "c"], []), 0)

    def test_supplied_ordering_is_validated(self):
        d = Digraph(["a", "b"], [("a", "b")])
        base = Graph(["a"], [])
        cert = verify_realization(d, base, 1, ordering=("a", "b"))
        assert cert.ordering == ("a", "b")
        with pytest.raises(InvalidInput):
            verify_realization(d, base, 1, ordering=("b", "a"))

    def test_extras_must_be_isolated_in_the_competition_graph(self):
        d = Digraph(["a", "b", "z"], [("a", "b"), ("z", "b")])
        with pytest.raises(CompetitionMismatch):
            verify_realization(d, Graph(["a", "b"], []), 1)

    def test_mismatch_sets_are_those_of_the_competition_graph(self):
        # Mutants of a witness, kept acyclic by adding arcs only forward in
        # its ordering: every dropped arc, an arc from one extra to the
        # other, and arcs between real vertices.  The mismatch must be the
        # competition graph against the target plus isolated extras.
        r = glg_realization(star(3), {"v2": 2, "v4": 1})
        target = r.combined.graph
        expected = Graph(list(target.vertices) + list(r.added), target.edges)
        order = r.certificate.ordering
        arcs = set(r.digraph.arcs)
        forward = [(order[i], order[j]) for i in range(len(order) - 2)
                   for j in range(i + 1, len(order) - 2)]
        kinds = {
            "dropped": [arcs - {a} for a in sorted(arcs)],
            "from an extra": [arcs | {(order[-2], order[-1])}],
            "between real vertices": [arcs | {a} for a in forward[::7]
                                      if a not in arcs],
        }
        for kind, mutants in kinds.items():
            mismatched = 0
            for mutant in mutants:
                d = Digraph(order, mutant)
                actual = competition_graph(d)
                missing = expected.edges - actual.edges
                extra = actual.edges - expected.edges
                if not missing and not extra:
                    verify_realization(d, target, 2)
                    continue
                mismatched += 1
                with pytest.raises(CompetitionMismatch) as exc:
                    verify_realization(d, target, 2)
                assert exc.value.missing == missing
                assert exc.value.extra == extra
            assert mismatched, kind

    def test_certificate_serializes(self):
        d = Digraph(["a", "b", "z"], [("a", "z"), ("b", "z")])
        cert = verify_realization(d, Graph(["a", "b"], [("a", "b")]), 1)
        doc = cert.to_json()
        assert doc["kind"] == "realization_certificate"
        assert doc["k"] == 1
        assert doc["added"] == ["z"]
        assert doc["digraph"]["kind"] == "digraph"
        assert doc["base_graph"]["kind"] == "graph"


def line_graph_realization(h, e=None):
    """glg_realization with all weights zero, which realizes the line graph
    of h, as (digraph, z1, z2) with z1 pinned to the smaller endpoint."""
    r = glg_realization(h, {}, e)
    return r.digraph, r.pinned[r.edge[0]], r.pinned[r.edge[1]]


class TestLineGraphRealization:
    def test_single_edge_base_case(self):
        h = Graph(["u", "v"], [("u", "v")])
        d, z1, z2 = line_graph_realization(h)
        assert d.arcs == frozenset({("e:u-v", z1), ("e:u-v", z2)})

    def test_path_pins_the_endpoint_bundles(self):
        h = path(3)
        d, z1, z2 = line_graph_realization(h, ("p0", "p1"))
        assert d.in_neighbors(z1) == incident_edge_clique(h, "p0")
        assert d.in_neighbors(z2) == incident_edge_clique(h, "p1")

    def test_every_edge_of_every_small_graph(self, monkeypatch):
        # On a connected base the star schedule never needs the search.
        def no_search(*args, **kwargs):
            raise AssertionError("a connected base reached exact search")

        monkeypatch.setattr(glgcomp.realization, "find_realization",
                            no_search)
        for h in connected_graphs(5, min_edges=1, max_edges=6):
            lg, _ = line_graph(h)
            for e in sorted(h.edges):
                d, z1, z2 = line_graph_realization(h, e)
                cert = verify_realization(d, lg, 2)
                assert set(cert.added) == {z1, z2}
                assert d.in_neighbors(z1) == incident_edge_clique(h, e[0])
                assert d.in_neighbors(z2) == incident_edge_clique(h, e[1])

    def test_large_grid_pins_both_bundles(self):
        # 1,104 base edges: far deeper than any recursion over edges could go.
        h = grid(24)
        e = ("g00_00", "g00_01")
        r = glg_realization(h, {}, e)
        for endpoint in e:
            assert r.digraph.in_neighbors(r.pinned[endpoint]) == \
                incident_edge_clique(h, endpoint)

    def test_rejects_non_edges_and_empty_graphs(self):
        with pytest.raises(NotAnEdge):
            line_graph_realization(path(3), ("p0", "p2"))
        with pytest.raises(PreconditionViolated):
            line_graph_realization(Graph(["a"], []))

    def test_works_when_another_component_has_edges(self):
        h = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        lg, _ = line_graph(h)
        d, z1, z2 = line_graph_realization(h, ("a", "b"))
        verify_realization(d, lg, 2)
        assert d.in_neighbors(z1) == incident_edge_clique(h, "a")

    def test_components_that_hand_on_more_go_first(self):
        # The 4-cycle hands on two cliques and the edge x0-x1 none; in that
        # order, x0-x1 and the pinned lone edge a-b take one each.
        h = Graph(["a", "b", "c0", "c1", "c2", "c3", "x0", "x1"],
                  [("a", "b"), ("c0", "c1"), ("c1", "c2"), ("c2", "c3"),
                   ("c0", "c3"), ("x0", "x1")])
        d, _, _ = line_graph_realization(h, ("a", "b"))
        verify_realization(d, line_graph(h)[0], 2)

    def test_every_edge_of_every_small_disconnected_graph(self, monkeypatch):
        # 1,678 (base, edge) pairs.  Pinned extras on a lone edge e take
        # {e} and cover nothing, so a refused pair must have no realization
        # of the line graph without extras; the search that checks this is
        # not the one patched out of the construction.
        def no_search(*args, **kwargs):
            raise AssertionError("the line-graph chain reached exact search")

        monkeypatch.setattr(glgcomp.realization, "find_realization",
                            no_search)
        refused = 0
        for h in atlas_graphs(7):
            if not h.edges or is_connected(h):
                continue
            lg, _ = line_graph(h)
            for e in sorted(h.edges):
                try:
                    d, z1, z2 = line_graph_realization(h, e)
                except PreconditionViolated:
                    refused += 1
                    assert h.degree(e[0]) == h.degree(e[1]) == 1
                    assert find_realization(lg, 0) is None
                    continue
                verify_realization(d, lg, 2)
                assert d.in_neighbors(z1) == incident_edge_clique(h, e[0])
                assert d.in_neighbors(z2) == incident_edge_clique(h, e[1])
        assert refused == 16


class TestCpRealization:
    def test_small_blocks_verify(self):
        for m in range(1, 6):
            d = cp_realization(m).digraph
            g, pairs = cocktail_party(m)
            extras = set(d.vertices) - set(g.vertices)
            verify_realization(d, g, len(extras))
            assert len(extras) == 2
            # The leading pair starts empty and the extras feed nothing.
            lead = pairs[0] if m == 1 else (pairs[0][0], pairs[1][0])
            for v in lead:
                assert d.in_neighbors(v) == frozenset()
            for z in extras:
                assert d.out_neighbors(z) == frozenset()


class TestGraphBuilds:
    # A structural guard with no timing: the combined graph is constructed
    # once, however many blocks it has, and verification constructs none.
    def test_one_graph_per_combined_graph_and_none_per_verify(
            self, monkeypatch):
        h = path(4)
        weights = {"p0": 1, "p2": 2, "p3": 3}
        r = glg_realization(h, weights)
        built = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        combined = generalized_line_graph(h, weights)
        assert len(built) == 1
        verify_realization(r.digraph, combined.graph, 2)
        assert len(built) == 1


class TestGlgRealization:
    def test_pinned_vertices_keep_their_bundles(self):
        h = path(4)
        weights = {"p2": 2, "p3": 1}
        r = glg_realization(h, weights)
        combined = generalized_line_graph(h, weights)
        verify_realization(r.digraph, combined.graph, 2)
        u, v = r.edge
        for endpoint in (u, v):
            pin = r.pinned[endpoint]
            assert r.digraph.in_neighbors(pin) == \
                combined.incident_labels(endpoint)

    def test_positive_weights_make_the_pins_real_vertices(self):
        h = path(4)
        r = glg_realization(h, {"p2": 1})
        combined = generalized_line_graph(h, {"p2": 1}).graph
        assert set(r.pinned.values()) <= set(combined.vertices)
        assert set(r.added).isdisjoint(r.pinned.values())

    def test_competition_graph_is_exactly_target_plus_two(self):
        h = star(3)
        weights = {"v2": 2}
        r = glg_realization(h, weights)
        target = generalized_line_graph(h, weights).graph
        cg = competition_graph(r.digraph)
        assert cg.edges == target.edges
        assert set(cg.vertices) == set(target.vertices) | set(r.added)

    def test_edge_selection(self):
        h = path(4)
        r = glg_realization(h, {"p0": 1}, e=("p2", "p3"))
        assert r.edge == ("p2", "p3")
        with pytest.raises(NotAnEdge):
            glg_realization(h, {}, e=("p0", "p3"))

    def test_heavy_weights_isolated_block_and_a_chosen_edge(self):
        # Blocks in vertex order: m = 3, 1, 4, 1, 6 on the path, then m = 2
        # on the isolated vertex "i", whose anchor clique is empty.
        h = Graph(["a", "b", "c", "d", "e", "i"],
                  [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
        weights = {"a": 3, "b": 1, "c": 4, "d": 1, "e": 6, "i": 2}
        r = glg_realization(h, weights, e=("c", "d"))
        combined = generalized_line_graph(h, weights)
        cert = verify_realization(r.digraph, combined.graph, 2)
        assert set(cert.added) == set(r.added)
        assert set(r.added).isdisjoint(combined.graph.vertices)
        assert r.edge == ("c", "d")
        assert r.pinned == {"c": "q:a:1:x", "d": "q:a:2:x"}
        for endpoint in r.edge:
            assert r.digraph.in_neighbors(r.pinned[endpoint]) == \
                combined.incident_labels(endpoint)


class TestSingleExtraUnits:
    def test_all_unit_weights_verify(self):
        h = path(3)
        weights = {v: 1 for v in h.vertices}
        d = single_extra_unit_realization(h, weights).digraph
        target = generalized_line_graph(h, weights).graph
        verify_realization(d, target, 1)

    def test_partial_support_is_fine(self):
        h = star(3)
        d = single_extra_unit_realization(h, {"v2": 1}).digraph
        target = generalized_line_graph(h, {"v2": 1}).graph
        verify_realization(d, target, 1)

    def test_requires_unit_weights_and_a_nonzero_one(self):
        h = path(3)
        with pytest.raises(HypothesisNotMet):
            single_extra_unit_realization(h, {"p0": 2})
        with pytest.raises(HypothesisNotMet):
            single_extra_unit_realization(h, {})

    def test_requires_connected_base(self):
        h = Graph(["a", "b", "c"], [("a", "b")])
        with pytest.raises(HypothesisNotMet):
            single_extra_unit_realization(h, {"a": 1})


class TestSingleExtraEdge:
    def test_unit_edge_with_heavier_weights_elsewhere(self):
        h = path(3)
        weights = {"p0": 1, "p1": 1, "p2": 2}
        d = single_extra_edge_realization(h, weights).digraph
        target = generalized_line_graph(h, weights).graph
        verify_realization(d, target, 1)

    def test_pure_unit_edge(self):
        h = Graph(["u", "v"], [("u", "v")])
        d = single_extra_edge_realization(h, {"u": 1, "v": 1}).digraph
        target = generalized_line_graph(h, {"u": 1, "v": 1}).graph
        verify_realization(d, target, 1)

    def test_requires_a_unit_weighted_edge(self):
        h = path(3)
        with pytest.raises(HypothesisNotMet):
            single_extra_edge_realization(h, {"p0": 1, "p2": 1})
