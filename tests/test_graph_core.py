import gc
import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glgcomp import (CyclicDigraph, Digraph, EmptyGraph, Graph, NotAClique,
                     SchemaError, SizeGuardExceeded, UnknownVertex,
                     acyclic_ordering, classify, competition_graph,
                     digraph_from_json, digraph_to_dot, digraph_to_json,
                     find_realization, generalized_line_graph,
                     graph_from_json, graph_to_dot, graph_to_json,
                     is_acyclic_ordering, is_clique, is_connected,
                     maximal_cliques, normalize_edge, opsut_lower_bound,
                     require_clique, semi_join, simplicial_vertices,
                     vertex_clique_cover_number)
from corpus import atlas_graphs, complete_bipartite, cycle_graph


def complete_graph(n):
    verts = ["k%d" % i for i in range(n)]
    return Graph(verts, itertools.combinations(verts, 2))


def path_graph(n):
    verts = ["p%d" % i for i in range(n)]
    return Graph(verts, zip(verts, verts[1:]))


class TestGraphBasics:
    def test_normalizes_and_deduplicates_edges(self):
        g = Graph(["b", "a", "c"], [("b", "a"), ("a", "b"), ("c", "a")])
        assert g.vertices == ("a", "b", "c")
        assert g.edges == frozenset({("a", "b"), ("a", "c")})
        assert g.has_edge("b", "a")
        assert g.neighbors("a") == frozenset({"b", "c"})
        assert g.degree("a") == 2

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
    def test_ordering_is_lexicographically_smallest(self):
        d = Digraph(["a", "b", "c"], [("c", "a")])
        assert acyclic_ordering(d) == ("b", "c", "a")

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
        assert is_acyclic_ordering(d, ("a", "b"))
        assert not is_acyclic_ordering(d, ("b", "a"))
        assert not is_acyclic_ordering(d, ("a",))


class TestCliquePredicates:
    def test_is_clique(self):
        g = cycle_graph(4)
        assert is_clique(g, {"c0", "c1"})
        assert is_clique(g, set())
        assert not is_clique(g, {"c0", "c2"})
        with pytest.raises(NotAClique):
            require_clique(g, {"c0", "c2"})

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
    # maximal_cliques's documented order.
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


class TestConnectivity:
    def test_connected(self):
        assert is_connected(path_graph(4))
        assert not is_connected(Graph(["a", "b", "c"], [("a", "b")]))
        assert is_connected(Graph([], []))


class TestCoverNumbers:
    # Frozen values computed by hand: a 5-cycle needs 3 cliques to cover
    # its vertices.
    def test_vertex_cover_number_known_values(self):
        assert vertex_clique_cover_number(cycle_graph(5)) == 3
        assert vertex_clique_cover_number(complete_graph(4)) == 1
        assert vertex_clique_cover_number(Graph(["a", "b", "c"], [])) == 3
        assert vertex_clique_cover_number(Graph([], [])) == 0

    def test_size_guard(self):
        big = Graph(["v%d" % i for i in range(17)], [])
        with pytest.raises(SizeGuardExceeded):
            vertex_clique_cover_number(big)
        assert vertex_clique_cover_number(big, guard=17) == 17


class TestOpsutBound:
    def test_known_values(self):
        assert opsut_lower_bound(complete_graph(4)) == 1
        assert opsut_lower_bound(cycle_graph(4)) == 2
        assert opsut_lower_bound(complete_bipartite(2, 3)) == 2
        # an isolated vertex has an empty neighborhood: bound collapses to 0
        assert opsut_lower_bound(Graph(["a", "b", "c"], [("a", "b")])) == 0

    def test_empty_graph_raises(self):
        with pytest.raises(EmptyGraph):
            opsut_lower_bound(Graph([], []))


C4_WEIGHTS = {"c1": 1, "c3": 2}


def c4_target():
    return generalized_line_graph(cycle_graph(4), C4_WEIGHTS).graph


def order_a_three_cycle():
    d = Digraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])
    try:
        acyclic_ordering(d)
    except CyclicDigraph:
        return
    raise AssertionError("a directed 3-cycle has an acyclic ordering")


class TestRecursionLeavesNoCycles:
    # maximal_cliques and the clique-cover colouring recurse through
    # closures that reach themselves through their cells; those cells are
    # emptied on return, so nothing waits for the cyclic collector.  The
    # cycle witness of acyclic_ordering is found by a loop.
    @pytest.mark.parametrize("call", [
        lambda: maximal_cliques(c4_target()),
        lambda: opsut_lower_bound(c4_target()),
        lambda: find_realization(c4_target(), 2),
        order_a_three_cycle,
        lambda: classify(cycle_graph(4), C4_WEIGHTS),
    ], ids=["maximal_cliques", "opsut_lower_bound", "find_realization",
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
        with pytest.raises(Exception):
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
            assert graph_from_json(graph_to_json(g)) == g

    def test_digraph_round_trip(self):
        d = Digraph(["a", "b", "c"], [("a", "c"), ("b", "c")])
        assert digraph_from_json(digraph_to_json(d)) == d

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
