import itertools
import json
import os
import sys

import pytest

from glgcomp import cli
from glgcomp.realization import _certify, _check_body, _positions
from glgcomp import (CompetitionMismatch, ConstructionFailed, Digraph, Graph,
                     HypothesisNotMet, InvalidInput, NotAnEdge, SchemaError,
                     SearchBudget, UnknownVertex, acyclic_ordering,
                     check_conditions, classify, cocktail_party,
                     competition_graph, competition_number, cp_realization,
                     find_realization, generalized_line_graph,
                     glg_realization, graph_json_text, is_connected,
                     simplicial_vertices,
                     single_extra_realization, verify_realization)
from corpus import atlas_graphs, connected_graphs, cycle_graph, grid
from reference import digraph_doc, incident_edge_clique, patch_everywhere


def path(n):
    verts = ["p%d" % i for i in range(n)]
    return Graph(verts, zip(verts, verts[1:]))


def star(n):
    leaves = ["v%d" % i for i in range(2, n + 2)]
    return Graph(["v1"] + leaves, [("v1", leaf) for leaf in leaves])


def ordering(cert):
    """The certificate's labels in placement order, read off its body."""
    return tuple([cert.labels[v] for v, _ in cert.body])


class TestVerifyRealization:
    def test_accepts_a_valid_witness(self):
        d = Digraph(["a", "b", "z"], [("a", "z"), ("b", "z")])
        cert = verify_realization(d, Graph(["a", "b"], [("a", "b")]), 1)
        assert cert.added == ("z",)
        assert cert.k == 1
        assert ordering(cert) == acyclic_ordering(d)

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
        order = ordering(r.certificate)
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
        doc = json.loads(cert.json_text())
        assert doc["kind"] == "realization_certificate"
        assert doc["k"] == 1
        assert doc["added"] == ["z"]
        assert doc["digraph"]["kind"] == "digraph"
        assert doc["base_graph"]["kind"] == "graph"

    def test_extras_sort_among_the_base_labels(self):
        # The extras a, c and e take the positions after b and d, but the
        # document lists every vertex, and each tail's heads, by label.
        d = Digraph(["e", "d", "c", "b", "a"],
                    [("b", "c"), ("d", "c"), ("b", "a"), ("c", "e")])
        cert = verify_realization(d, Graph(["b", "d"], [("b", "d")]), 3)
        assert cert.labels == ("b", "d", "a", "c", "e")
        assert cert.added == ("a", "c", "e")
        assert ordering(cert) == acyclic_ordering(d)
        doc = json.loads(cert.json_text())
        assert cert.json_text() == json.dumps(doc, sort_keys=True)
        assert doc["digraph"] == digraph_doc(d)
        assert doc["digraph"]["vertices"] == ["a", "b", "c", "d", "e"]
        assert doc["added"] == ["a", "c", "e"]


EMPTY = frozenset()
AB = frozenset({"a", "b"})
BC = frozenset({"b", "c"})


class TestCertify:
    # The path a-b-c with one extra: c takes {a, b}, the extra {b, c}.  The
    # flawed bodies name vertices by label, so they go through the label
    # step (_positions) to the body check, the extra named z1 as _certify
    # names it.
    base = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    body = [("a", EMPTY), ("b", EMPTY), ("c", AB)]

    def test_accepts_a_valid_body(self):
        cert = _certify([(0, EMPTY), (1, EMPTY), (2, fs(0, 1))], [fs(1, 2)],
                        self.base, "test")
        assert cert.added == ("z1",)
        assert ordering(cert) == ("a", "b", "c", "z1")
        assert cert.body == [(0, EMPTY), (1, EMPTY), (2, fs(0, 1)),
                             (3, fs(1, 2))]
        assert cert.labels == ("a", "b", "c", "z1")
        # The same body by label puts in the same positions.
        assert _positions(self.body + [("z1", BC)], self.base) == \
            (cert.body, cert.labels)
        assert cert.digraph.arcs == frozenset(
            {("a", "c"), ("b", "c"), ("b", "z1"), ("c", "z1")})
        assert verify_realization(cert.digraph, self.base, 1).added == \
            cert.added

    def test_wraps_a_flaw_as_construction_failed(self):
        # a before its in-neighbour b, in positions.
        with pytest.raises(ConstructionFailed) as exc:
            _certify([(0, fs(1)), (1, EMPTY), (2, fs(0, 1))], [fs(1, 2)],
                     self.base, "test")
        assert str(exc.value) == ("test produced an invalid witness: not an "
                                  "acyclic ordering: 'a' comes before its "
                                  "in-neighbor 'b'")
        assert type(exc.value.__cause__) is InvalidInput

    @pytest.mark.parametrize("body, tail, cause, message", [
        ([("a", frozenset({"b"})), ("b", EMPTY), ("c", AB)], [BC],
         InvalidInput, "not an acyclic ordering: 'a' comes before its "
         "in-neighbor 'b'"),
        ([("a", EMPTY), ("b", frozenset({"q"})), ("c", AB)], [BC],
         UnknownVertex, "arc tail 'q' is not a vertex"),
        ([("a", EMPTY), ("b", frozenset({"b"})), ("c", AB)], [BC],
         SchemaError, "loop arc at 'b' is not allowed"),
        ([("a", EMPTY), ("b", EMPTY), ("a", EMPTY), ("c", AB)], [BC],
         SchemaError, "duplicate vertex labels"),
        ([("a", EMPTY), ("b", EMPTY), ("c", EMPTY)], [BC],
         CompetitionMismatch, "competition graph differs from target: "
         "1 missing, 0 extra edges"),
        ([("a", EMPTY), ("b", EMPTY), ("c", AB)], [AB | BC],
         CompetitionMismatch, "competition graph differs from target: "
         "0 missing, 1 extra edges"),
        ([("a", EMPTY), ("b", EMPTY), ("w", EMPTY), ("c", AB)], [BC],
         InvalidInput, "expected 1 extra vertices, found 2"),
        ([("a", EMPTY), ("b", EMPTY)], [AB], InvalidInput,
         "digraph is missing base vertices: ['c']"),
        ([("a", EMPTY), ("b", EMPTY), (7, EMPTY), ("c", AB)], [BC],
         SchemaError, "vertex labels must be strings, got 7"),
        # Two flaws: the check meets them in body order, so the label step
        # must not refuse the unknown label first.
        ([("a", frozenset({"b"})), ("b", frozenset({"q"})), ("c", AB)],
         [BC], InvalidInput, "not an acyclic ordering: 'a' comes before "
         "its in-neighbor 'b'"),
        # A base vertex that no entry places is unknown as an in-neighbor.
        ([("a", EMPTY), ("b", frozenset({"c"}))], [AB], UnknownVertex,
         "arc tail 'c' is not a vertex"),
        # A repeated label is found after the walk, a non-string one after
        # that.
        ([("a", EMPTY), ("b", EMPTY), (7, EMPTY), ("a", EMPTY), ("c", AB)],
         [BC], SchemaError, "duplicate vertex labels"),
    ], ids=["later vertex", "unknown vertex", "own vertex", "repeated label",
            "missing edge", "extra edge", "extras count", "missing vertex",
            "non-string label", "later vertex before an unknown one",
            "unplaced base vertex", "repeated label before a non-string one"])
    def test_refuses_a_flawed_body(self, body, tail, cause, message):
        entries = body + [("z1", clique) for clique in tail]
        with pytest.raises(cause) as exc:
            _check_body(*_positions(entries, self.base), self.base,
                        len(tail))
        assert type(exc.value) is cause
        assert str(exc.value) == message


def fs(*labels):
    return frozenset(labels)


class TestCheckBodyMismatch:
    # The path a-b-c with two extras y and z placed among its vertices,
    # put in positions by the label step.  The edge check compares covers
    # with rows, and a mismatch lists, by label, the cliques' pairs that
    # base lacks and the base edges no clique holds.
    base = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])

    @pytest.mark.parametrize("entries, missing, extra", [
        ([("a", EMPTY), ("b", EMPTY), ("y", EMPTY), ("c", AB),
          ("z", EMPTY)], {("b", "c")}, set()),
        ([("a", EMPTY), ("b", EMPTY), ("c", AB), ("y", BC),
          ("z", fs("a", "c"))], set(), {("a", "c")}),
        ([("a", EMPTY), ("b", EMPTY), ("y", EMPTY), ("c", AB),
          ("z", fs("c", "y"))], {("b", "c")}, {("c", "y")}),
        ([("a", EMPTY), ("b", EMPTY), ("y", EMPTY), ("c", fs("a", "b", "y")),
          ("z", BC)], set(), {("a", "y"), ("b", "y")}),
        # The covers have the rows' sizes, but b's lacks c.
        ([("a", EMPTY), ("b", EMPTY), ("c", AB), ("y", fs("a", "c")),
          ("z", EMPTY)], {("b", "c")}, {("a", "c")}),
    ], ids=["missing edge", "extra edge", "two-clique with an extra",
            "extra in a clique that also covers an edge",
            "an edge swapped for a non-edge"])
    def test_mismatch_sets(self, entries, missing, extra):
        with pytest.raises(CompetitionMismatch) as exc:
            _check_body(*_positions(entries, self.base), self.base, 2)
        assert exc.value.missing == missing
        assert exc.value.extra == extra

    def test_a_clique_of_extras_alone_is_an_extra_edge(self):
        # The base's covers are exact; only the extras' covers show the
        # pair y-z.
        entries = [("a", EMPTY), ("b", EMPTY), ("y", AB), ("z", EMPTY),
                   ("c", fs("y", "z")), ("w", BC)]
        with pytest.raises(CompetitionMismatch) as exc:
            _check_body(*_positions(entries, self.base), self.base, 3)
        assert exc.value.missing == set()
        assert exc.value.extra == {("y", "z")}

    def test_a_one_member_clique_may_hold_an_extra(self):
        entries = [("a", EMPTY), ("y", EMPTY), ("b", fs("y")), ("c", AB),
                   ("z", BC)]
        body, labels = _positions(entries, self.base)
        assert labels == ("a", "b", "c", "y", "z")
        assert _check_body(body, labels, self.base, 2) == ["y", "z"]


def line_graph_realization(h, e=None):
    """glg_realization with all weights zero, which realizes the line graph
    of h, as (digraph, z1, z2) with z1 pinned to the smaller endpoint."""
    r = glg_realization(h, {}, e)
    return (r.digraph, *r.pinned.values())


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

    def test_every_edge_of_every_small_graph(self):
        for h in connected_graphs(5, min_edges=1, max_edges=6):
            lg = generalized_line_graph(h, {}).graph
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
        with pytest.raises(HypothesisNotMet):
            line_graph_realization(Graph(["a"], []))

    def test_works_when_another_component_has_edges(self):
        h = Graph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        lg = generalized_line_graph(h, {}).graph
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
        verify_realization(d, generalized_line_graph(h, {}).graph, 2)

    def test_every_edge_of_every_small_disconnected_graph(self):
        # 1,678 (base, edge) pairs.  Pinned extras on a lone edge e take
        # {e} and cover nothing, so a refused pair must have no realization
        # of the line graph without extras, which exact search checks.
        refused = 0
        for h in atlas_graphs(7):
            if not h.edges or is_connected(h):
                continue
            lg = generalized_line_graph(h, {}).graph
            for e in sorted(h.edges):
                try:
                    d, z1, z2 = line_graph_realization(h, e)
                except HypothesisNotMet:
                    refused += 1
                    assert len(h.neighbors(e[0])) == len(h.neighbors(e[1])) == 1
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
    # once, however many blocks it has, verification and the condition
    # flags construct none, classify builds one combined graph, and a
    # construction builds no adjacency.
    @staticmethod
    def count_graphs(monkeypatch):
        built = []
        init = Graph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting_init)
        return built

    def test_one_graph_per_combined_graph_and_none_per_verify(
            self, monkeypatch):
        h = path(4)
        weights = {"p0": 1, "p2": 2, "p3": 3}
        r = glg_realization(h, weights)
        built = self.count_graphs(monkeypatch)
        # The builder writes the combined graph's rows and constructs it
        # from them, so count those graphs too.
        from_rows = Graph._from_rows

        def counting_from_rows(*args):
            graph = from_rows(*args)
            built.append(graph)
            return graph

        monkeypatch.setattr(Graph, "_from_rows", counting_from_rows)
        combined = generalized_line_graph(h, weights)
        assert len(built) == 1
        verify_realization(r.digraph, combined.graph, 2)
        assert len(built) == 1

    def test_construction_builds_no_adjacency(self):
        # Adjacency is built on first use, and neither the combined graph
        # nor the certificate digraph of a construction needs it.
        r = glg_realization(path(4), {"p0": 1, "p2": 2, "p3": 3})
        assert r.combined.graph._adj is None
        assert r.digraph._in is None and r.digraph._out is None

    def test_check_conditions_builds_no_graph(self, monkeypatch):
        h = path(4)
        built = self.count_graphs(monkeypatch)
        check_conditions(h, {"p2": 2, "p3": 1})
        assert built == []

    def test_classify_builds_one_combined_graph(self, monkeypatch):
        # Count calls under every name a glgcomp module holds the builder by.
        original = generalized_line_graph
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "glgcomp" and getattr(
                    module, "generalized_line_graph", None) is original:
                monkeypatch.setattr(module, "generalized_line_graph",
                                    counting)
        for weights in ({"p2": 2, "p3": 1}, {"p0": 1, "p2": 1}, {}):
            del calls[:]
            classify(path(4), weights)
            assert len(calls) == 1, weights


    @staticmethod
    def count_digraphs(monkeypatch):
        built = []
        init = Digraph.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Digraph, "__init__", counting_init)
        return built

    def test_constructions_build_no_digraph(self, monkeypatch, tmp_path,
                                            fixtures_dir):
        built = self.count_digraphs(monkeypatch)
        glg_realization(path(4), {"p0": 1, "p2": 2, "p3": 3})
        single_extra_realization(path(4), {"p0": 1, "p1": 1, "p3": 2})
        cp_realization(3)
        assert find_realization(path(3), 1) is not None
        out = str(tmp_path / "cert.json")
        assert cli.main(["realize", "two",
                         os.path.join(fixtures_dir, "star_leaf2.json"),
                         "-o", out]) == 0
        assert built == []

    def test_certificate_digraph_is_built_once(self, monkeypatch):
        cert = glg_realization(path(4), {"p2": 2}).certificate
        built = self.count_digraphs(monkeypatch)
        d = cert.digraph
        assert built == [d]
        assert cert.digraph is d
        assert built == [d]

    def test_verify_builds_no_digraph_beyond_its_input(self, monkeypatch):
        r = glg_realization(path(4), {"p2": 2})
        combined = generalized_line_graph(path(4), {"p2": 2})
        d = r.digraph
        built = self.count_digraphs(monkeypatch)
        cert = verify_realization(d, combined.graph, 2)
        assert cert.digraph is d
        cert.json_text()
        assert built == []


class TestCertificateJson:
    # The certificate writes its digraph's JSON from its body; it must be
    # the document listing the Digraph's own vertices and sorted arcs.
    @staticmethod
    def check(cert):
        assert json.loads(cert.json_text())["digraph"] == \
            digraph_doc(cert.digraph)

    def test_constructions_on_small_weighted_bases(self):
        for h in connected_graphs(5, min_edges=1):
            for values in itertools.product(range(3),
                                            repeat=len(h.vertices)):
                weights = dict(zip(h.vertices, values))
                self.check(glg_realization(h, weights).certificate)
                try:
                    self.check(single_extra_realization(h, weights))
                except HypothesisNotMet:
                    pass
        for m in range(1, 6):
            self.check(cp_realization(m))

    def test_search_witnesses(self):
        for g in connected_graphs(5, min_edges=1):
            self.check(competition_number(g)[1])


class TestEscapedLabels:
    # Base labels that JSON escapes: a quote, a backslash, a newline, a
    # non-ASCII letter and a non-BMP character (a surrogate pair under
    # ensure_ascii); none holds "-", so no two edge labels collide.
    LABELS = ['a"b', "c\\d", "e\nf", "\u00e9", "\U0001f600"]

    @staticmethod
    def check(text, doc):
        assert json.loads(text) == doc
        assert json.dumps(doc, sort_keys=True) == text

    @staticmethod
    def graph_doc(g):
        return {"kind": "graph", "vertices": list(g.vertices),
                "edges": [list(e) for e in sorted(g.edges)]}

    def test_certificates_and_graphs(self):
        h = Graph(self.LABELS, zip(self.LABELS, self.LABELS[1:]))
        weights = {self.LABELS[1]: 2, self.LABELS[4]: 1}
        combined = generalized_line_graph(h, weights)
        cert = glg_realization(h, weights).certificate
        as_edges = Graph(combined.graph.vertices, combined.graph.edges)
        for c in (cert, verify_realization(cert.digraph, combined.graph, 2),
                  verify_realization(cert.digraph, as_edges, 2)):
            doc = json.loads(c.json_text())
            self.check(c.json_text(), doc)
            assert doc["digraph"] == digraph_doc(c.digraph)
            assert doc["base_graph"] == self.graph_doc(c.base)
        for g in (h, combined.graph, as_edges):
            self.check(graph_json_text(g), self.graph_doc(g))


class TestGlgRealization:
    def test_pinned_vertices_keep_their_bundles(self):
        h = path(4)
        weights = {"p2": 2, "p3": 1}
        r = glg_realization(h, weights)
        combined = generalized_line_graph(h, weights)
        verify_realization(r.digraph, combined.graph, 2)
        for endpoint in r.pinned:
            pin = r.pinned[endpoint]
            assert r.digraph.in_neighbors(pin) == \
                incident_edge_clique(h, endpoint)

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
        assert tuple(r.pinned) == ("p2", "p3")
        with pytest.raises(NotAnEdge):
            glg_realization(h, {}, e=("p0", "p3"))

    def test_default_edge(self):
        # The smallest edge that is not a component of its own, else the
        # smallest edge.
        k4 = ["v0", "v1", "v2", "v3"]
        h = Graph(k4 + ["a", "b"],
                  list(itertools.combinations(k4, 2)) + [("a", "b")])
        assert tuple(glg_realization(h).pinned) == ("v0", "v1")
        lone = Graph(list("abcdef"), [("e", "f"), ("c", "d"), ("a", "b")])
        assert tuple(glg_realization(lone).pinned) == ("a", "b")
        assert tuple(glg_realization(lone, {"c": 2}).pinned) == ("a", "b")
        for h in connected_graphs(5, min_edges=1):
            assert tuple(glg_realization(h, {h.vertices[-1]: 1}).pinned) == \
                min(h.edges)

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
        assert tuple(r.pinned) == ("c", "d")
        assert r.pinned == {"c": "q:a:1:x", "d": "q:a:2:x"}
        for endpoint in r.pinned:
            assert r.digraph.in_neighbors(r.pinned[endpoint]) == \
                incident_edge_clique(h, endpoint)


class TestSingleExtraUnits:
    def test_all_unit_weights_verify(self):
        h = path(3)
        weights = {v: 1 for v in h.vertices}
        d = single_extra_realization(h, weights).digraph
        target = generalized_line_graph(h, weights).graph
        verify_realization(d, target, 1)

    def test_partial_support_is_fine(self):
        h = star(3)
        d = single_extra_realization(h, {"v2": 1}).digraph
        target = generalized_line_graph(h, {"v2": 1}).graph
        verify_realization(d, target, 1)

    def test_requires_unit_weights_and_a_nonzero_one(self):
        # Without a unit edge, a weight above one is refused.  All weights
        # zero is accepted when the line graph has a simplicial vertex: the
        # path needs one extra and K2 none; C4 is refused.
        h = path(3)
        with pytest.raises(HypothesisNotMet):
            single_extra_realization(h, {"p0": 2})
        assert single_extra_realization(h, {}).k == 1
        edge = Graph(["u", "v"], [("u", "v")])
        assert single_extra_realization(edge, {}).k == 0
        with pytest.raises(HypothesisNotMet):
            single_extra_realization(cycle_graph(4), {})

    def test_unweighted_bases_match_the_dichotomy(self):
        # Opsut: on a connected base, one extra exactly when the line graph
        # has a simplicial vertex, none for K2.
        for h in connected_graphs(6, min_edges=1):
            lg = generalized_line_graph(h, {}).graph
            try:
                cert = single_extra_realization(h, {})
            except HypothesisNotMet:
                assert not simplicial_vertices(lg)
                continue
            assert simplicial_vertices(lg)
            assert cert.k == (1 if lg.edges else 0)

    def test_requires_connected_base(self):
        h = Graph(["a", "b", "c"], [("a", "b")])
        with pytest.raises(HypothesisNotMet):
            single_extra_realization(h, {"a": 1})


class TestSingleExtraEdge:
    def test_unit_edge_with_heavier_weights_elsewhere(self):
        h = path(3)
        weights = {"p0": 1, "p1": 1, "p2": 2}
        d = single_extra_realization(h, weights).digraph
        target = generalized_line_graph(h, weights).graph
        verify_realization(d, target, 1)

    def test_pure_unit_edge(self):
        h = Graph(["u", "v"], [("u", "v")])
        d = single_extra_realization(h, {"u": 1, "v": 1}).digraph
        target = generalized_line_graph(h, {"u": 1, "v": 1}).graph
        verify_realization(d, target, 1)

    def test_requires_a_unit_weighted_edge(self):
        h = path(3)
        with pytest.raises(HypothesisNotMet):
            single_extra_realization(h, {"p0": 1, "p2": 2})

    def test_every_unit_edge_with_heavy_weights_needs_no_search(
            self, monkeypatch):
        # 987 instances with weights 0-2, some weight two and a unit edge:
        # the unit-weights chain does not apply, and the edge chain pins
        # the smallest unit edge.
        def refuse(*args, **kwargs):
            raise AssertionError("the unit-edge chain ran the exact search")

        patch_everywhere(monkeypatch, find_realization, refuse)
        instances = 0
        for h in connected_graphs(5, min_edges=1, max_edges=6):
            for combo in itertools.product(range(3), repeat=len(h.vertices)):
                weights = dict(zip(h.vertices, combo))
                if 2 not in combo or not any(
                        weights[a] == weights[b] == 1 for a, b in h.edges):
                    continue
                cert = single_extra_realization(h, weights)
                assert cert.k == 1
                combined = generalized_line_graph(h, weights)
                verify_realization(cert.digraph, combined.graph, 1)
                instances += 1
        assert instances == 987


class TestOneExtraRule:
    def test_condition_flags_agree_with_the_construction(self):
        # 3,708 instances: every connected base of 2-5 vertices and at most
        # six edges under every weight map with weights 0-2.  The report's
        # one_extra holds exactly when single_extra_realization succeeds,
        # and classify, which searches nothing with max_total_vertices = 0,
        # carries the same single-extra certificate exactly then.  1,513 of
        # them meet the conditions, so a changed predicate shows in the
        # count.
        no_search = SearchBudget(max_total_vertices=0)
        instances = applied = 0
        for h in connected_graphs(5, min_edges=1, max_edges=6):
            for combo in itertools.product(range(3), repeat=len(h.vertices)):
                weights = dict(zip(h.vertices, combo))
                applies = check_conditions(h, weights).one_extra
                certificates = classify(h, weights, no_search).certificates
                assert ("single_extra" in certificates) == applies, weights
                try:
                    cert = single_extra_realization(h, weights)
                except HypothesisNotMet:
                    assert not applies, weights
                else:
                    assert applies, weights
                    assert certificates["single_extra"].json_text() == \
                        cert.json_text(), weights
                    applied += 1
                instances += 1
        assert (instances, applied) == (3708, 1513)
