import collections
import functools
import gc
import itertools
import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glgcomp import (CyclicDigraph, Digraph, Graph, SchemaError,
                     UnknownVertex, acyclic_ordering, classify,
                     competition_graph, digraph_from_json, digraph_to_dot,
                     find_realization, generalized_line_graph,
                     glg_realization, graph_from_json, graph_json_text,
                     graph_to_dot, is_connected, normalize_edge,
                     opsut_lower_bound, simplicial_vertices,
                     weighted_graph_from_json)
from glgcomp.graph_core import (DEFAULT_SIZE_GUARD, _clique_cover_number,
                                _greedy_independent_set_size, bit_indices,
                                maximal_clique_masks)
from corpus import (atlas_graphs, complete_bipartite, connected_graphs,
                    cycle_graph, random_chordal, weight_maps)
from reference import (NotAClique, digraph_doc, is_clique, semi_join,
                       sorted_links, to_dot)


def complete_graph(n):
    verts = ["k%d" % i for i in range(n)]
    return Graph(verts, itertools.combinations(verts, 2))


def path_graph(n):
    verts = ["p%d" % i for i in range(n)]
    return Graph(verts, zip(verts, verts[1:]))


def adjacency_masks(g):
    """adj[i] has bit j set iff the i-th and j-th vertices of g are
    adjacent, read off its neighbour sets."""
    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    return [sum(map(bit.__getitem__, g.neighbors(v))) for v in g.vertices]


def full_mask(g):
    return (1 << len(g.vertices)) - 1


def maximal_cliques(g):
    """The maximal cliques of g as label sets, in maximal_clique_masks's
    order (sorted by their members read in label order)."""
    return [frozenset(g.vertices[i] for i in bit_indices(m))
            for m in maximal_clique_masks(adjacency_masks(g), full_mask(g))]


def clique_cover_number(g):
    """theta of the whole vertex set of g."""
    return _clique_cover_number(adjacency_masks(g), full_mask(g))


class TestGraphBasics:
    def test_normalizes_and_deduplicates_edges(self):
        g = Graph(["b", "a", "c"], [("b", "a"), ("a", "b"), ("c", "a")])
        assert g.vertices == ("a", "b", "c")
        assert g.edges == frozenset({("a", "b"), ("a", "c")})
        assert g.neighbors("a") == frozenset({"b", "c"})

    def test_rejects_loops_unknown_endpoints_duplicates(self):
        with pytest.raises(SchemaError):
            Graph(["a"], [("a", "a")])
        with pytest.raises(UnknownVertex):
            Graph(["a"], [("a", "b")])
        with pytest.raises(SchemaError):
            Graph(["a", "a"], [])

    def test_induced_subgraph(self):
        g = cycle_graph(4)
        sub = g.induced({"c0", "c1", "c2"})
        assert sub == path_graph(3).induced(set()) or len(sub.edges) == 2
        assert sub.vertices == ("c0", "c1", "c2")
        assert sub.edges == frozenset({("c0", "c1"), ("c1", "c2")})

    def test_induced_refuses_an_unknown_label(self):
        with pytest.raises(UnknownVertex, match="no vertex 'x'"):
            cycle_graph(4).induced({"c0", "x"})

    def test_equality_and_hash(self):
        g1 = Graph(["a", "b"], [("a", "b")])
        g2 = Graph(["b", "a"], [("b", "a")])
        assert g1 == g2 and hash(g1) == hash(g2)
        assert g1 != Graph(["a", "b"], [])

    def test_normalize_edge(self):
        assert normalize_edge("b", "a") == ("a", "b")
        with pytest.raises(SchemaError):
            normalize_edge("a", "a")


class TestDigraphBasics:
    def test_neighborhoods(self):
        d = Digraph(["a", "b", "c"], [("a", "c"), ("b", "c")])
        assert d.in_neighbors("c") == frozenset({"a", "b"})
        assert d.out_neighbors("a") == frozenset({"c"})
        assert d.in_neighbors("a") == frozenset()

    def test_rejects_bad_arcs(self):
        with pytest.raises(SchemaError):
            Digraph(["a"], [("a", "a")])
        with pytest.raises(UnknownVertex):
            Digraph(["a"], [("a", "b")])


# Malformed input, one case per kind of fault; most list a good link, then
# two bad ones.  The constructors check in bulk, and the error must still
# be the one a link-by-link scan raises at the first bad link.
MALFORMED = [
    (Graph, ["a", "b"], [("a", "b"), ("a", "z"), ("y", "a")],
     UnknownVertex, "edge endpoint 'z' is not a vertex"),
    (Graph, ["a", "b", "c"], [("a", "b"), ("c", "c"), ("a", "a")],
     SchemaError, "loop edge at 'c' is not allowed"),
    (Graph, ["a", 1], [], SchemaError, "vertex labels must be strings, got 1"),
    (Graph, ["a", "b"], [("a", "b"), ("b", 2)],
     SchemaError, "vertex labels must be strings, got 'b', 2"),
    (Graph, ["a", "b", "a"], [], SchemaError, "duplicate vertex labels"),
    (Graph, ["a", "b", "c"], [("a", "b"), ("a", "b", "c")],
     ValueError, "too many values to unpack (expected 2)"),
    (Graph, ["a", "b", "c"], [["a", "b"], ["c", "z"]],
     UnknownVertex, "edge endpoint 'z' is not a vertex"),
    (Digraph, ["a", "b"], [("a", "b"), ("z", "a"), ("a", "y")],
     UnknownVertex, "arc tail 'z' is not a vertex"),
    (Digraph, ["a", "b"], [("a", "b"), ("b", "y")],
     UnknownVertex, "arc head 'y' is not a vertex"),
    (Digraph, ["a", "b", "c"], [("a", "b"), ("c", "c"), ("a", "a")],
     SchemaError, "loop arc at 'c' is not allowed"),
    (Digraph, ["a", 1], [], SchemaError,
     "vertex labels must be strings, got 1"),
    (Digraph, ["a", "b"], [("a", "b"), ("b", 2)],
     UnknownVertex, "arc head 2 is not a vertex"),
    (Digraph, ["a", "b", "a"], [], SchemaError, "duplicate vertex labels"),
    (Digraph, ["a", "b", "c"], [("a", "b"), ("a", "b", "c")],
     ValueError, "too many values to unpack (expected 2)"),
    (Digraph, ["a", "b", "c"], [["a", "b"], ["c", "c"]],
     SchemaError, "loop arc at 'c' is not allowed"),
    (Digraph, ["a", "b", "c"], [["a", "b"], ["c", "z"]],
     UnknownVertex, "arc head 'z' is not a vertex"),
]


class TestMalformedInput:
    @pytest.mark.parametrize("cls, vertices, links, error, message", MALFORMED,
                             ids=["%s-%d" % (case[0].__name__, i)
                                  for i, case in enumerate(MALFORMED)])
    def test_names_the_first_offender(self, cls, vertices, links, error,
                                      message):
        # A one-shot iterator, as callers may pass.
        with pytest.raises(error) as exc:
            cls(vertices, iter(links))
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_pairs_given_as_lists_are_read_as_tuples(self):
        g = Graph(["a", "b", "c"], [["b", "a"], ["b", "c"]])
        assert g.edges == frozenset({("a", "b"), ("b", "c")})
        d = Digraph(["a", "b", "c"], [["b", "a"], ["b", "c"]])
        assert d.arcs == frozenset({("b", "a"), ("b", "c")})


def eager_neighbors(vertices, edges):
    adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


class TestLazyAdjacency:
    # The adjacency is built on first use; it must be the one an eager build
    # from the edges gives, on the bases, combined graphs and two-extra
    # digraphs of the acceptance corpora.
    def test_matches_an_eager_build(self):
        graphs, digraphs = list(atlas_graphs(5)), []
        for h in connected_graphs(7, min_edges=2, max_edges=6):
            weights = {h.vertices[0]: 2, h.vertices[-1]: 1}
            r = glg_realization(h, weights)
            graphs += [h, r.combined.graph]
            digraphs.append(r.digraph)
        for g in graphs:
            adj = eager_neighbors(g.vertices, g.edges)
            assert {v: g.neighbors(v) for v in g.vertices} == adj
        for d in digraphs:
            out = {v: {h for t, h in d.arcs if t == v} for v in d.vertices}
            inn = {v: {t for t, h in d.arcs if h == v} for v in d.vertices}
            assert {v: d.out_neighbors(v) for v in d.vertices} == out
            assert {v: d.in_neighbors(v) for v in d.vertices} == inn

    def test_unknown_vertex_is_still_refused(self):
        g, d = path_graph(2), Digraph(["a"], [])
        with pytest.raises(UnknownVertex):
            g.neighbors("x")
        with pytest.raises(UnknownVertex):
            d.in_neighbors("x")
        with pytest.raises(UnknownVertex):
            d.out_neighbors("x")
        assert "x" not in g.vertices and "p0" in g.vertices


class TestCompetitionGraph:
    def test_arcless_digraph_has_edgeless_competition_graph(self):
        d = Digraph(["a", "b", "c"], [])
        assert competition_graph(d).edges == frozenset()

    def test_shared_prey_makes_an_edge(self):
        d = Digraph(["a", "b", "c"], [("a", "c"), ("b", "c")])
        assert competition_graph(d).edges == frozenset({("a", "b")})

    def test_in_neighborhoods_induce_cliques(self):
        rng = random.Random(7)
        verts = ["v%d" % i for i in range(6)]
        for _ in range(30):
            arcs = {(a, b) for a in verts for b in verts
                    if a < b and rng.random() < 0.4}
            d = Digraph(verts, arcs)
            c = competition_graph(d)
            for v in verts:
                assert is_clique(c, d.in_neighbors(v))


def directed_cycle(n):
    verts = ["c%04d" % i for i in range(n)]
    return Digraph(verts, zip(verts, verts[1:] + verts[:1]))


class TestOrdering:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ordering_is_lexicographically_smallest(self, data):
        d = Digraph(["a", "b", "c"], [("c", "a")])
        assert acyclic_ordering(d) == ("b", "c", "a")
        # A drawn DAG: its arcs run forward in a shuffled order of the
        # labels, so the smallest ordering is seldom the labels' own.
        n = data.draw(st.integers(1, 12))
        labels = data.draw(st.permutations(["v%02d" % i for i in range(n)]))
        pairs = list(itertools.combinations(labels, 2))
        keep = data.draw(st.lists(st.booleans(), min_size=len(pairs),
                                  max_size=len(pairs)))
        arcs = [pair for pair, kept in zip(pairs, keep) if kept]
        g = nx.DiGraph(arcs)
        g.add_nodes_from(labels)
        assert acyclic_ordering(Digraph(labels, arcs)) == \
            tuple(nx.lexicographical_topological_sort(g))

    def test_cycle_raises_with_witness(self):
        # A 3-cycle, and a 1,500-cycle deeper than the recursion limit.
        for d in (Digraph(["a", "b", "c"],
                          [("a", "b"), ("b", "c"), ("c", "a")]),
                  directed_cycle(1500)):
            with pytest.raises(CyclicDigraph) as exc:
                acyclic_ordering(d)
            cyc = exc.value.cycle
            # closed walk with the starting vertex repeated at the end
            assert len(cyc) >= 3 and cyc[0] == cyc[-1]
            assert all((cyc[i], cyc[i + 1]) in d.arcs
                       for i in range(len(cyc) - 1))

    def test_is_acyclic_ordering(self):
        d = Digraph(["a", "b"], [("a", "b")])
        assert acyclic_ordering(d) == ("a", "b")


class TestCliquePredicates:
    def test_is_clique(self):
        g = cycle_graph(4)
        assert is_clique(g, {"c0", "c1"})
        assert is_clique(g, set())
        assert not is_clique(g, {"c0", "c2"})
        with pytest.raises(NotAClique):
            semi_join(g, {"c0", "c2"}, Graph(["x"], []))

    def test_simplicial_includes_isolated(self):
        g = Graph(["a", "b", "c"], [("a", "b")])
        assert simplicial_vertices(g) == ("a", "b", "c")

    def test_cycle_has_no_simplicial_vertex(self):
        for n in (4, 5, 6):
            assert simplicial_vertices(cycle_graph(n)) == ()

    def test_complete_graph_all_simplicial(self):
        g = complete_graph(4)
        assert simplicial_vertices(g) == g.vertices

    def test_maximal_cliques(self):
        g = Graph(["a", "b", "c", "d"],
                  [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        assert list(maximal_cliques(g)) == [frozenset({"a", "b", "c"}),
                                            frozenset({"c", "d"})]


class TestMaximalCliquesMatchNetworkx:
    # The same cliques as networkx's independent Bron-Kerbosch, in
    # maximal_clique_masks's documented order.
    @staticmethod
    def check(g):
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices)
        nxg.add_edges_from(g.edges)
        expected = sorted((frozenset(c) for c in nx.find_cliques(nxg)),
                          key=lambda c: tuple(sorted(c)))
        assert maximal_cliques(g) == expected, g

    def test_every_atlas_graph(self):
        for g in atlas_graphs(7):
            self.check(g)

    def test_random_graphs(self):
        rng = random.Random(4242)
        for _ in range(200):
            n = rng.randint(1, 30)
            verts = ["x%d" % i for i in range(n)]
            p = rng.random()
            self.check(Graph(verts, [e for e in itertools.combinations(verts, 2)
                                     if rng.random() < p]))

    def test_clique_deeper_than_the_recursion_limit(self):
        # K_1100: each member is chosen one level below the last.
        full = (1 << 1100) - 1
        adj = [full ^ (1 << i) for i in range(1100)]
        assert maximal_clique_masks(adj, full) == [full]


class TestConnectivity:
    def test_connected(self):
        assert is_connected(path_graph(4))
        assert not is_connected(Graph(["a", "b", "c"], [("a", "b")]))
        assert is_connected(Graph([], []))


def clique_cover_reference(g):
    """theta of a vertex subset of g, by a DP over the subsets: the lowest
    vertex goes into each clique of the subset that holds it in turn."""
    @functools.lru_cache(maxsize=None)
    def theta(rest):
        if not rest:
            return 0
        v = min(rest)
        best = len(rest)
        for clique in cliques_with(v, sorted(rest & g.neighbors(v))):
            best = min(best, 1 + theta(rest - clique))
        return best

    def cliques_with(v, pool):
        # Every clique of {v} + pool holding v: extend by later pool
        # members adjacent to all chosen so far.
        out = []
        stack = [(frozenset([v]), pool)]
        while stack:
            clique, cands = stack.pop()
            out.append(clique)
            for i, w in enumerate(cands):
                stack.append((clique | {w},
                              [u for u in cands[i + 1:] if u in g.neighbors(w)]))
        return out

    return lambda subset: theta(frozenset(subset))


class TestCoverNumbers:
    # Frozen values computed by hand: a 5-cycle needs 3 cliques to cover
    # its vertices.
    def test_vertex_cover_number_known_values(self):
        assert clique_cover_number(cycle_graph(5)) == 3
        assert clique_cover_number(complete_graph(4)) == 1
        assert clique_cover_number(Graph(["a", "b", "c"], [])) == 3
        assert clique_cover_number(Graph([], [])) == 0

    def test_matches_a_subset_dp_over_every_clique(self):
        # The reference tries every clique holding the lowest uncovered
        # vertex, maximal or not, with no lower bound, and memoizes by the
        # vertices left.  Some instance must need more cliques than its
        # greedy independent set, so the upward search runs past its
        # first round.
        graphs = list(atlas_graphs(7))
        for h in atlas_graphs(4):
            for weights in weight_maps(h.vertices, max_total=8):
                g = generalized_line_graph(h, weights).graph
                if len(g.vertices) <= 12:
                    graphs.append(g)
        above_greedy = 0
        for g in graphs:
            theta = clique_cover_reference(g)
            full = frozenset(g.vertices)
            adj, mask = adjacency_masks(g), full_mask(g)
            assert _clique_cover_number(adj, mask) == theta(full)
            if g.vertices:
                assert opsut_lower_bound(g) == min(
                    theta(g.neighbors(v)) for v in g.vertices)
            above_greedy += theta(full) > _greedy_independent_set_size(
                adj, mask)
        assert above_greedy > 0


class TestOpsutBound:
    def test_known_values(self):
        assert opsut_lower_bound(complete_graph(4)) == 1
        assert opsut_lower_bound(cycle_graph(4)) == 2
        assert opsut_lower_bound(complete_bipartite(2, 3)) == 2
        # an isolated vertex has an empty neighborhood: bound collapses to 0
        assert opsut_lower_bound(Graph(["a", "b", "c"], [("a", "b")])) == 0

    def test_empty_graph_gives_zero(self):
        # The empty graph's competition number is 0.
        assert opsut_lower_bound(Graph([], [])) == 0

    def test_triangle_free_graphs_give_the_minimum_degree(self):
        # Every neighbourhood is independent, so its clique cover number
        # is its size; above the size guard the greedy independent set is
        # the whole neighbourhood, so the bound stays exact there too.
        rng = random.Random(1982)
        above_guard = 0
        for _ in range(40):
            n = rng.randint(20, 200)
            left = rng.randint(n // 3, n // 2)
            verts = ["b%d" % i for i in range(n)]
            p = rng.uniform(0.1, 0.5)
            edges = [(a, b) for a in verts[:left] for b in verts[left:]
                     if rng.random() < p]
            edges += [(verts[0], b) for b in verts[left:]]
            edges += [(a, verts[left]) for a in verts[1:left]]
            g = Graph(verts, edges)
            degree = collections.Counter(x for e in g.edges for x in e)
            assert opsut_lower_bound(g) == min(degree[v] for v in verts)
            above_guard += min(degree.values()) > DEFAULT_SIZE_GUARD
        assert above_guard >= 5

    def test_connected_chordal_graphs_give_one(self):
        # A chordal graph has a simplicial vertex, whose neighbourhood is
        # one clique, and in a connected graph with an edge no
        # neighbourhood is empty.
        rng = random.Random(1978)
        for _ in range(40):
            g = random_chordal(rng, rng.randint(20, 200))
            assert is_connected(g) and g.edges
            assert opsut_lower_bound(g) == 1


C4_WEIGHTS = {"c1": 1, "c3": 2}


def c4_target():
    return generalized_line_graph(cycle_graph(4), C4_WEIGHTS).graph


def c4_masks():
    g = c4_target()
    return adjacency_masks(g), full_mask(g)


def order_a_three_cycle():
    d = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    try:
        acyclic_ordering(d)
    except CyclicDigraph:
        return
    raise AssertionError("a directed 3-cycle has an acyclic ordering")


class TestRecursionLeavesNoCycles:
    # Nothing these calls leave waits for the cyclic collector.
    # Bron-Kerbosch and the search walk explicit stacks, and no closure of
    # theirs reaches itself.  The clique-cover search recurses through a
    # module-level function, which holds no cell, and the cycle witness of
    # acyclic_ordering is found by a loop.
    @pytest.mark.parametrize("call", [
        lambda: maximal_clique_masks(*c4_masks()),
        lambda: _clique_cover_number(*c4_masks()),
        lambda: opsut_lower_bound(c4_target()),
        lambda: find_realization(c4_target(), 2),
        order_a_three_cycle,
        lambda: classify(cycle_graph(4), C4_WEIGHTS),
    ], ids=["maximal_cliques", "vertex_clique_cover_number",
            "opsut_lower_bound", "find_realization",
            "acyclic_ordering", "classify"])
    def test_no_cyclic_garbage(self, call):
        gc.collect()
        gc.disable()
        try:
            call()
            garbage = gc.collect()
        finally:
            gc.enable()
        assert garbage == 0


class TestSemiJoin:
    def test_joins_clique_to_whole_block(self):
        base = path_graph(3)
        block = Graph(["x", "y"], [])
        joined = semi_join(base, ["p0", "p1"], block)
        assert set(joined.vertices) == {"p0", "p1", "p2", "x", "y"}
        expected_new = {("p0", "x"), ("p0", "y"), ("p1", "x"), ("p1", "y")}
        assert joined.edges == base.edges | expected_new

    def test_rejects_non_clique_and_collision(self):
        base = path_graph(3)
        with pytest.raises(NotAClique):
            semi_join(base, ["p0", "p2"], Graph(["x"], []))
        with pytest.raises(SchemaError, match="graphs share vertices"):
            semi_join(base, ["p0"], Graph(["p1"], []))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2), st.integers(1, 3), st.data())
    def test_edge_count_formula(self, cliquesize, blocksize, data):
        base = complete_graph(4)
        clique = list(base.vertices)[:cliquesize]
        bverts = ["x%d" % i for i in range(blocksize)]
        bedges = [e for e in itertools.combinations(bverts, 2)
                  if data.draw(st.booleans())]
        block = Graph(bverts, bedges)
        joined = semi_join(base, clique, block)
        assert len(joined.edges) == (len(base.edges) + len(block.edges)
                                     + cliquesize * blocksize)


class TestSerialization:
    def test_graph_round_trip(self):
        for g in atlas_graphs(4)[:20]:
            assert graph_from_json(json.loads(graph_json_text(g))) == g

    def test_digraph_round_trip(self):
        d = Digraph(["a", "b", "c"], [("a", "c"), ("b", "c")])
        assert digraph_from_json(digraph_doc(d)) == d

    def test_rejects_malformed_documents(self):
        with pytest.raises(SchemaError):
            graph_from_json({"kind": "digraph", "vertices": [], "arcs": []})
        with pytest.raises(SchemaError):
            graph_from_json({"kind": "graph", "vertices": "ab", "edges": []})
        with pytest.raises(SchemaError):
            digraph_from_json({"kind": "digraph", "vertices": ["a"],
                               "arcs": [["a"]]})

    def test_dot_output_is_deterministic_and_sorted(self):
        g = Graph(["b", "a"], [("b", "a")])
        dot = graph_to_dot(g)
        assert dot == graph_to_dot(g)
        assert dot.index('"a"') < dot.index('"b"')
        assert '"a" -- "b"' in dot

    def test_dot_with_node_attrs(self):
        d = Digraph(["a", "z"], [("a", "z")])
        dot = digraph_to_dot(d, node_attrs={"z": {"shape": "box"}})
        assert '"z" [shape=box]' in dot or '"z" [shape="box"]' in dot
        assert '"a" -> "z"' in dot


# Each document reader: its kind, its links key, and the links it reads.
READERS = [
    ("graph", "edges", lambda doc: graph_from_json(doc).edges),
    ("digraph", "arcs", lambda doc: digraph_from_json(doc).arcs),
    ("vertex_weighted_graph", "edges",
     lambda doc: weighted_graph_from_json(doc)[0].edges),
]

# Documents every reader refuses, given its kind and links key.
MALFORMED = {
    "not an object": lambda kind, key: [kind],
    "wrong kind": lambda kind, key: {"kind": "tree", "vertices": []},
    "vertices not a list": lambda kind, key: {"kind": kind, "vertices": "ab"},
    "vertex not a string": lambda kind, key: {"kind": kind,
                                              "vertices": ["a", 1]},
    "links not a list": lambda kind, key: {"kind": kind, "vertices": ["a"],
                                           key: "ab"},
    "link not a pair": lambda kind, key: {"kind": kind, "vertices": ["a"],
                                          key: [["a"]]},
    "link end not a string": lambda kind, key: {"kind": kind,
                                                "vertices": ["a"],
                                                key: [["a", 1]]},
}


@pytest.mark.parametrize("kind, key, read", READERS,
                         ids=[kind for kind, _, _ in READERS])
class TestDocumentReaders:
    def test_missing_kind_is_the_readers_own(self, kind, key, read):
        doc = {"vertices": ["a", "b"], key: [["a", "b"]]}
        assert read(doc) == {("a", "b")}

    def test_missing_links_are_none(self, kind, key, read):
        assert read({"kind": kind, "vertices": ["a", "b"]}) == frozenset()

    @pytest.mark.parametrize("case", MALFORMED)
    def test_refuses_a_malformed_document(self, kind, key, read, case):
        with pytest.raises(SchemaError) as exc:
            read(MALFORMED[case](kind, key))
        if case == "not an object":
            assert str(exc.value) == "%s document must be a JSON object" % kind


def assert_links_in_tuple_order(g, d):
    """The writers list g's edges and d's arcs as a whole-set sort does."""
    assert json.loads(graph_json_text(g))["edges"] == sorted_links(g.edges)
    assert graph_to_dot(g) == to_dot("graph", "G", g.vertices, g.edges,
                                     "--", {})
    attrs = {v: {"shape": "box"} for v in d.vertices[::2]}
    assert digraph_to_dot(d, node_attrs=attrs) == to_dot(
        "digraph", "D", d.vertices, d.arcs, "->", attrs)


class TestLinkOrder:
    # Labels that share prefixes, mix case, hold DOT's escaped characters
    # or leave ASCII, where a wrong bucket order would show.
    LABELS = ["a", "a-b", "ab", "a b", "q:v:10:x", "q:v:2:x", "B", "b",
              "\u00e9t\u00e9", 'x"y', "z\\w"]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(alphabet='aAb -:10\u00e9"\\', min_size=1,
                            max_size=4), min_size=2, max_size=9, unique=True),
           st.data())
    def test_random_graphs_and_digraphs(self, labels, data):
        pairs = list(itertools.permutations(labels, 2))
        arcs = data.draw(st.lists(st.sampled_from(pairs), max_size=20))
        g = Graph(labels, arcs)
        assert_links_in_tuple_order(g, Digraph(labels, arcs))

    def test_prefix_case_and_non_ascii_labels(self):
        labels = self.LABELS
        g = Graph(labels, itertools.combinations(labels, 2))
        d = Digraph(labels, itertools.permutations(labels, 2))
        assert_links_in_tuple_order(g, d)
        assert json.loads(graph_json_text(g))["edges"][:4] == [
            ["B", "a"], ["B", "a b"], ["B", "a-b"], ["B", "ab"]]

    def test_isolated_vertices_and_in_arcs_only(self):
        # Every vertex but the first and last is isolated in g; in d, the
        # heads have in-arcs and no out-arcs, and "q:v:2:x" has none at all.
        labels = self.LABELS
        g = Graph(labels, [(labels[-1], labels[0])])
        d = Digraph(labels, [(t, h) for t in ("q:v:10:x", "b")
                             for h in ("a", "a b", "\u00e9t\u00e9")])
        assert_links_in_tuple_order(g, d)
        assert digraph_to_dot(d).split("\n")[len(labels) + 1] == \
            '  "b" -> "a";'
        assert json.loads(graph_json_text(Graph(labels)))["edges"] == []
