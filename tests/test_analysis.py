import itertools
import json
import random
import time

import pytest

import glgcomp.analysis
import glgcomp.realization
from glgcomp import (EXACTLY_ONE, EXACTLY_TWO, EXACTLY_ZERO, UNDETERMINED,
                     Graph, HypothesisNotMet, SearchBudget,
                     check_conditions, classify, competition_number,
                     find_realization, generalized_line_graph,
                     glg_realization, pendant_reduce,
                     simplicial_vertices, single_extra_realization,
                     verify_realization)
from corpus import (atlas_graphs, connected_chordal_graphs, cycle_graph,
                    random_triangle_free)
from reference import incident_edge_clique, patch_everywhere


def path(n):
    verts = ["p%d" % i for i in range(n)]
    return Graph(verts, zip(verts, verts[1:]))


def star(n):
    leaves = ["v%d" % i for i in range(2, n + 2)]
    return Graph(["v1"] + leaves, [("v1", leaf) for leaf in leaves])


class TestCheckConditions:
    def test_unit_weight_flags(self):
        h = path(4)
        report = check_conditions(h, {"p2": 2, "p3": 1})
        assert report.has_unit_weight is True
        assert report.zero_weight_anchor_simplicial is True
        assert report.unit_weight_edge is None
        assert report.all_weights_unit is False

    def test_unit_edge_is_the_smallest_one(self):
        h = path(4)
        report = check_conditions(h, {v: 1 for v in h.vertices})
        assert report.unit_weight_edge == ("p0", "p1")
        assert report.all_weights_unit is True

    def test_star_with_one_heavy_leaf(self):
        report = check_conditions(star(3), {"v2": 2})
        assert report.has_unit_weight is False
        assert report.unit_weight_edge is None
        assert report.all_weights_unit is False
        # the other leaves' bundles hit simplicial vertices of the target
        assert report.zero_weight_anchor_simplicial is True

    def test_hypothesis_flags_are_recorded_not_raised(self):
        h = Graph(["a", "b", "c"], [("a", "b")])
        report = check_conditions(h, {})
        assert report.hypotheses == {"connected": False, "has_edge": True}

    def test_json_shape(self):
        report = check_conditions(path(2), {"p0": 1, "p1": 1})
        doc = json.loads(report.json_text())
        # one_extra is derived from the flags, and stays out of the JSON.
        assert report.one_extra
        assert set(doc) == {"kind", "has_unit_weight",
                            "zero_weight_anchor_simplicial",
                            "unit_weight_edge", "all_weights_unit",
                            "hypotheses"}
        assert doc["kind"] == "condition_report"
        assert doc["unit_weight_edge"] == ["p0", "p1"]
        assert doc["all_weights_unit"] is True

    def test_zero_weight_anchor_matches_the_combined_graph(self):
        # 8,919 instances: every atlas base on at most 5 vertices with an
        # edge, under every weight map with weights 0-2.  The reference
        # builds the combined graph and reads its simplicial vertices.
        instances = 0
        for h in atlas_graphs(5):
            if not h.edges:
                continue
            for values in itertools.product(range(3), repeat=len(h.vertices)):
                weights = dict(zip(h.vertices, values))
                combined = generalized_line_graph(h, weights)
                simplicial = set(simplicial_vertices(combined.graph))
                expected = any(
                    weights[v] == 0 and incident_edge_clique(h, v) & simplicial
                    for v in h.vertices)
                report = check_conditions(h, weights)
                assert report.zero_weight_anchor_simplicial == expected
                instances += 1
        assert instances == 8919


class TestSimplicialOrIsolated:
    # simplicial_vertices counts isolated vertices too, so its emptiness is
    # the classifier's "neither simplicial nor isolated" rule.
    def test_cycles_have_neither(self):
        for n in (4, 5, 6):
            assert not simplicial_vertices(cycle_graph(n))

    def test_chordal_graphs_always_do(self):
        for g in connected_chordal_graphs(5):
            assert simplicial_vertices(g)

    def test_isolated_vertex_counts(self):
        assert simplicial_vertices(Graph(["a"], [])) == ("a",)


class TestPendantReduce:
    def test_strips_a_pendant_path_down_to_the_cycle(self):
        g = Graph(["a", "b", "c", "d", "e"],
                  [("a", "b"), ("b", "c"), ("c", "d"), ("b", "d"),
                   ("d", "e")])
        reduced, removed = pendant_reduce(g)
        assert set(removed) == {"a", "e"}
        assert set(reduced.vertices) == {"b", "c", "d"}

    def test_cycle_is_untouched(self):
        g = cycle_graph(5)
        reduced, removed = pendant_reduce(g)
        assert reduced == g and removed == ()
        # Nothing is removed, so the graph itself comes back, not a copy.
        assert reduced is g

    def test_stops_at_two_vertices(self):
        reduced, removed = pendant_reduce(path(4))
        assert len(reduced.vertices) == 2
        assert len(removed) == 2

    def test_removals_are_lexicographic(self):
        reduced, removed = pendant_reduce(path(3))
        assert removed == ("p0",)

    def test_requires_connected(self):
        with pytest.raises(HypothesisNotMet):
            pendant_reduce(Graph(["a", "b", "c"], [("a", "b")]))

    def test_long_weighted_path_in_one_pass(self):
        # Rebuilding the graph after each deletion took 4.5 s of CPU time
        # here, growing quadratically; one pass takes about 0.04 s.
        start = time.process_time()
        verdict = classify(path(2000), {"p0": 2})
        assert verdict.k_value == EXACTLY_TWO
        assert verdict.evidence[-1][1] == "pendant-reduction"
        assert time.process_time() - start < 1

    def test_preserves_competition_number_on_samples(self):
        for g, expected in [(path(5), 1), (cycle_graph(4), 2)]:
            reduced, _ = pendant_reduce(g)
            assert competition_number(reduced)[0] == \
                competition_number(g)[0] == expected


class TestClassify:
    def assert_certified(self, verdict, h, weights, k):
        target = generalized_line_graph(h, weights or {}).graph
        names = [n for n in ("single_extra", "oracle_witness", "two_extra")
                 if n in verdict.certificates]
        cert = verdict.certificates[names[0]]
        assert cert.k <= 2
        verify_realization(cert.digraph, cert.base, cert.k)

    def test_each_witness_is_verified_once(self, monkeypatch):
        # Count calls of the body check that _certify and verify_realization
        # share, under every name a glgcomp module holds it by.  The star
        # is settled by the search, whose witness is checked once too.
        original = glgcomp.realization._check_body
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        patch_everywhere(monkeypatch, original, counting)
        abc = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        for h, weights in ((abc, {"a": 1, "c": 1}), (abc, {}),
                           (star(3), {"v2": 2})):
            del calls[:]
            verdict = classify(h, weights)
            assert verdict.k_value == EXACTLY_ONE
            assert len(calls) == len(verdict.certificates) == 2

    def test_one_extra_verdicts_pad_their_single_extra_witness(
            self, monkeypatch):
        # A one-extra or zero verdict builds no two-extra construction: its
        # two-extra witness is the single-extra witness plus isolated extras.
        def refuse(*args, **kwargs):
            raise AssertionError("classify built the two-extra construction")

        monkeypatch.setattr(glgcomp.analysis, "glg_realization", refuse)
        for h, weights in ((path(4), {}),
                           (path(3), {v: 1 for v in path(3).vertices}),
                           (path(3), {"p0": 1, "p1": 1, "p2": 2}),
                           (Graph(["u", "v"], [("u", "v")]), {})):
            verdict = classify(h, weights)
            assert verdict.k_value in (EXACTLY_ONE, EXACTLY_ZERO)
            one = verdict.certificates["single_extra"]
            two = verdict.certificates["two_extra"]
            n = len(one.base.vertices)
            assert two.k == 2
            assert two.body[:n] == one.body[:n]
            assert [c for _, c in two.body[n:]] == \
                [c for _, c in one.body[n:]] + [frozenset()] * (2 - one.k)
            target = generalized_line_graph(h, weights).graph
            verify_realization(two.digraph, target, 2)

    def test_other_verdicts_keep_the_two_extra_construction(self):
        # Pendant reduction, a search witness and a search refutation.
        for h, weights in ((cycle_graph(4), {}), (star(3), {"v2": 2}),
                           (path(3), {"p0": 2, "p1": 1, "p2": 2})):
            verdict = classify(h, weights)
            assert verdict.certificates["two_extra"].json_text() == \
                glg_realization(h, weights).certificate.json_text()

    def test_line_graph_of_an_edge_is_zero(self):
        verdict = classify(Graph(["u", "v"], [("u", "v")]))
        assert verdict.k_value == EXACTLY_ZERO
        assert verdict.evidence[-1][1] == "single-extra-construction"
        cert = verdict.certificates["single_extra"]
        assert cert.k == 0 and cert.added == ()

    def test_plain_line_graph_with_simplicial_vertex_is_one(self):
        verdict = classify(path(4))
        assert verdict.k_value == EXACTLY_ONE
        assert any(src == "single-extra-construction"
                   for _, src in verdict.evidence)
        assert verdict.certificates["single_extra"].k == 1

    def test_plain_line_graph_without_simplicial_vertex_is_two(self):
        verdict = classify(cycle_graph(4))
        assert verdict.k_value == EXACTLY_TWO
        assert any(src == "pendant-reduction"
                   for _, src in verdict.evidence)
        assert "two_extra" in verdict.certificates

    def test_all_unit_weights_give_one_constructively(self):
        h = path(3)
        verdict = classify(h, {v: 1 for v in h.vertices})
        assert verdict.k_value == EXACTLY_ONE
        assert any(src == "single-extra-construction"
                   for _, src in verdict.evidence)
        cert = verdict.certificates["single_extra"]
        verify_realization(cert.digraph, cert.base, 1)

    def test_unit_edge_with_heavy_weights_gives_one(self):
        h = path(3)
        verdict = classify(h, {"p0": 1, "p1": 1, "p2": 2})
        assert verdict.k_value == EXACTLY_ONE
        assert "single_extra" in verdict.certificates

    def test_pendant_reduction_certifies_two(self):
        h = path(4)
        verdict = classify(h, {"p2": 2, "p3": 1})
        assert verdict.k_value == EXACTLY_TWO
        assert any(src == "pendant-reduction" for _, src in verdict.evidence)

    def test_oracle_fallback(self):
        verdict = classify(star(3), {"v2": 2})
        assert verdict.k_value == EXACTLY_ONE
        assert any(src == "oracle" for _, src in verdict.evidence)
        assert "oracle_witness" in verdict.certificates

    def test_honest_undetermined_when_over_budget(self):
        # 14 combined vertices: above the default cap of 13 with no extra.
        verdict = classify(star(4), {"v2": 5})
        assert verdict.k_value == UNDETERMINED
        claim, source = verdict.evidence[-1]
        assert source == "oracle"
        assert "14 vertices and 1 extra" in claim and "cap of 13" in claim
        # the two-extra witness still bounds the value from above
        cert = verdict.certificates["two_extra"]
        verify_realization(cert.digraph, cert.base, 2)

    def test_node_budget_evidence_says_how_far_the_search_got(self):
        # A witness on the 7 combined vertices takes at least 8 nodes.
        verdict = classify(star(3), {"v2": 2}, SearchBudget(max_nodes=3))
        assert verdict.k_value == UNDETERMINED
        claim, source = verdict.evidence[-1]
        assert source == "oracle" and "combination" in claim

    def test_refused_search_is_seen(self, monkeypatch):
        # The control for the tests that refuse the exact search: a star
        # whose verdict the search settles must then fail.
        def refuse(*args, **kwargs):
            raise AssertionError("classify ran the exact search")

        patch_everywhere(monkeypatch, find_realization, refuse)
        with pytest.raises(AssertionError, match="exact search"):
            classify(star(3), {"v2": 2})

    def test_unit_weight_edge_needs_no_search_budget(self, monkeypatch):
        # Weight two on d leaves the unit edge a-b, whose chain settles the
        # value with no search, under a budget that allows none.
        def refuse(*args, **kwargs):
            raise AssertionError("classify ran the exact search")

        patch_everywhere(monkeypatch, find_realization, refuse)
        h = Graph(list("abcde"), zip("abcd", "bcde"))
        weights = {"a": 1, "b": 1, "d": 2}
        verdict = classify(h, weights,
                           SearchBudget(max_total_vertices=0, max_nodes=10))
        assert verdict.k_value == EXACTLY_ONE
        cert = verdict.certificates["single_extra"]
        assert cert.k == 1
        verify_realization(cert.digraph,
                           generalized_line_graph(h, weights).graph, 1)

    def test_bigger_budget_resolves_it(self):
        roomy = SearchBudget(max_total_vertices=14, max_nodes=5_000_000)
        verdict = classify(star(4), {"v2": 4}, budget=roomy)
        assert verdict.k_value == EXACTLY_ONE
        assert verdict.evidence[-1][1] == "oracle"
        witness = verdict.certificates["oracle_witness"]
        assert witness.k == 1
        verify_realization(witness.digraph,
                           generalized_line_graph(star(4), {"v2": 4}).graph, 1)

    def test_hypotheses_are_enforced(self):
        with pytest.raises(HypothesisNotMet):
            classify(Graph(["a", "b"], []))
        with pytest.raises(HypothesisNotMet):
            classify(Graph(["a", "b", "c"], [("a", "b")]))

    def test_verdict_json(self):
        doc = json.loads(classify(cycle_graph(4)).json_text())
        assert doc["kind"] == "verdict"
        assert doc["k_value"] == EXACTLY_TWO
        assert all(set(item) == {"claim", "source"}
                   for item in doc["evidence"])
        assert "two_extra" in doc["certificates"]


class TestNoLabelViews:
    """The constructions, the condition report and the classifier read
    the base, and the combined graph, by their rows: each graph is left
    as it was found, with neither its edge set nor its neighbour sets
    built."""

    @staticmethod
    def assert_no_views(*graphs):
        for g in graphs:
            assert g._edges is None and g._adj is None

    @staticmethod
    def two_paths():
        """Two components: the path p0-p1-p2-p3 and the edge q0-q1."""
        return Graph(["p0", "p1", "p2", "p3", "q0", "q1"],
                     [("p0", "p1"), ("p1", "p2"), ("p2", "p3"),
                      ("q0", "q1")])

    def test_constructions_and_report(self):
        for make in (lambda: path(4), self.two_paths):
            for weights in ({}, {"p1": 1}, {"p0": 1, "p1": 1, "p3": 2},
                            {"p2": 2}):
                for pin in (None, ("p2", "p1")):
                    h = make()
                    combined = glg_realization(h, weights, pin).combined
                    self.assert_no_views(h, combined.graph)
                h = make()
                check_conditions(h, weights)
                self.assert_no_views(h)

    def test_single_extra_realization(self):
        for weights in ({}, {"p1": 1}, {"p0": 1, "p1": 1, "p3": 2}):
            h = path(4)
            cert = single_extra_realization(h, weights)
            self.assert_no_views(h, cert.base)

    def test_competition_number(self):
        h = path(4)
        assert competition_number(h)[0] == 1
        self.assert_no_views(h)

    def test_every_verdict_rule(self):
        cases = [
            (Graph(["u", "v"], [("u", "v")]), {}, None,
             EXACTLY_ZERO, "single-extra-construction"),
            (path(4), {}, None, EXACTLY_ONE, "lower-bound"),
            (path(3), {"p0": 1, "p1": 1, "p2": 2}, None,
             EXACTLY_ONE, "lower-bound"),
            (path(4), {"p3": 2}, None, EXACTLY_TWO, "pendant-reduction"),
            (star(3), {"v2": 2}, None, EXACTLY_ONE, "oracle"),
            (path(3), {"p0": 2, "p1": 1, "p2": 2}, None,
             EXACTLY_TWO, "oracle"),
            (star(4), {"v2": 5}, None, UNDETERMINED, "oracle"),
            (star(3), {"v2": 2}, SearchBudget(max_nodes=3),
             UNDETERMINED, "oracle"),
        ]
        for h, weights, budget, value, source in cases:
            verdict = classify(h, weights, budget)
            assert (verdict.k_value, verdict.evidence[-1][1]) == \
                (value, source)
            self.assert_no_views(h, *(cert.base for cert in
                                      verdict.certificates.values()))


class TestAboveTheSearchCap:
    # Independent values on bases far above the search's vertex cap, with
    # the exact search made to fail if it is ever called.  A path's line
    # graph is a path and a tree's is chordal, so k = 1 (Roberts 1978); a
    # cycle's line graph is a triangle-free cycle, so k = |E| - |V| + 2 = 2.
    # A unit-weight edge gives k = 1 by the paper's sufficient condition.
    @pytest.fixture(autouse=True)
    def no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classify ran the exact search")

        patch_everywhere(monkeypatch, find_realization, refuse)

    @staticmethod
    def assert_value(h, value, weights=None):
        verdict = classify(h, weights)
        assert verdict.k_value == value, h
        for cert in verdict.certificates.values():
            verify_realization(cert.digraph, cert.base, cert.k)

    def test_paths_are_one(self):
        for n in range(12, 201):
            self.assert_value(path(n), EXACTLY_ONE)

    def test_cycles_are_two(self):
        for n in range(12, 201):
            h = cycle_graph(n)
            lg = generalized_line_graph(h, {}).graph
            assert len(lg.edges) - len(lg.vertices) + 2 == 2
            self.assert_value(h, EXACTLY_TWO)

    def test_random_trees_are_one(self):
        rng = random.Random(20261018)
        for _ in range(100):
            tree = random_triangle_free(rng, rng.randint(20, 200), 0)
            self.assert_value(tree, EXACTLY_ONE)

    def test_random_unit_edges_are_one(self):
        # The paper's second sufficient condition: an edge with weight one
        # at both ends, whatever the other weights are.
        rng = random.Random(20261019)
        for _ in range(100):
            n = rng.randint(20, 200)
            h = random_triangle_free(rng, n, rng.randint(0, n))
            weights = {v: rng.randint(0, 5) for v in h.vertices}
            a, b = rng.choice(sorted(h.edges))
            weights[a] = weights[b] = 1
            self.assert_value(h, EXACTLY_ONE, weights)
