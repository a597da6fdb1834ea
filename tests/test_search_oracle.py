import gc
import random
import time
import tracemalloc

import networkx as nx
import pytest

import glgcomp.oracle
from glgcomp import (EXACTLY_ONE, BudgetExceeded, Graph,
                     SearchBudget, classify, cocktail_party,
                     competition_graph, competition_number, find_realization,
                     generalized_line_graph, opsut_lower_bound,
                     verify_realization)
from glgcomp.realization import _fresh_labels
from corpus import (atlas_graphs, complete_bipartite, connected_graphs,
                    cycle_graph, random_chordal, random_connected,
                    random_triangle_free)


def path(n):
    verts = ["p%d" % i for i in range(n)]
    return Graph(verts, zip(verts, verts[1:]))


def complete(n):
    verts = ["k%d" % i for i in range(n)]
    return Graph(verts, [(a, b) for a in verts for b in verts if a < b])


class TestFreshLabels:
    def test_avoids_taken_names(self):
        assert _fresh_labels({"z1"}, 2) == ["z2", "z3"]


class TestFindRealization:
    def test_single_edge_needs_one_extra(self):
        g = Graph(["a", "b"], [("a", "b")])
        assert find_realization(g, 0) is None
        found = find_realization(g, 1)
        assert found is not None

    def test_edgeless_needs_none(self):
        g = Graph(["a", "b", "c"], [])
        assert find_realization(g, 0) is not None

    def test_four_cycle_refuted_at_one(self):
        assert find_realization(cycle_graph(4), 1) is None
        assert find_realization(cycle_graph(4), 2) is not None

    def test_witness_is_in_positions(self):
        # The path a-b-c at k = 1, with a, b and c at positions 0, 1 and
        # 2 and the extra at 3: c and b come first, a takes {b, c} and the
        # extra {a, b}.
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert find_realization(g, 1).body == [
            (2, frozenset()), (1, frozenset()), (0, frozenset({1, 2})),
            (3, frozenset({0, 1}))]

    def test_results_verify(self):
        for g in connected_graphs(5, min_edges=1):
            for k in (1, 2):
                cert = find_realization(g, k)
                if cert is None:
                    continue
                assert verify_realization(cert.digraph, g, k).added == \
                    cert.added
                break

    def test_budget_exhaustion_is_distinguished_from_refutation(self):
        tight = SearchBudget(max_nodes=3)
        with pytest.raises(BudgetExceeded):
            find_realization(cycle_graph(6), 2, budget=tight)

    def test_budget_message_says_how_far_the_search_got(self):
        # The memory test's instance below: its k = 1 search has 8
        # combinations of the extras' cliques, and the fifth is where
        # node 11 falls.
        target = generalized_line_graph(cycle_graph(4), {"c1": 1, "c3": 2}).graph
        with pytest.raises(BudgetExceeded) as exc:
            find_realization(target, 1, budget=SearchBudget(max_nodes=10))
        assert str(exc.value) == ("realization search exceeded 10 nodes in "
                                  "combination 5 of 8 of the extras' cliques")

    def test_memory_is_released_on_return(self):
        # A k = 1 refutation from the ACCEPTANCE 08 sweep: 54 nodes, with
        # 42 covered sets in the dominance memo, so a 20-node budget runs
        # out.  With the cyclic collector off, whatever the search still
        # holds after it returns or runs out of budget shows in the traced
        # memory.
        target = generalized_line_graph(cycle_graph(4), {"c1": 1, "c3": 2}).graph
        for budget in (None, SearchBudget(max_nodes=20)):
            gc.disable()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                try:
                    outcome = find_realization(target, 1, budget=budget)
                except BudgetExceeded as exc:
                    outcome = type(exc)
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
                gc.enable()
            assert outcome is (None if budget is None else BudgetExceeded)
            assert after - before < 64 * 1024


class TestSetUpScales:
    # The work before the first node grows with the witness, not with the
    # number of maximal cliques squared or with n times the extras'
    # combinations.  The CPU-time bounds sit at about a third of what a
    # pairwise trace-dominance filter and a full scan per combination
    # took (9 s and 27 s), and at over four times what the one-pass rules
    # take (0.3 s and 0.7 s).
    def test_heavy_block_is_settled_quickly(self):
        # A block of weight 13 gives thousands of maximal cliques.
        h = Graph(list("abcd"), [("c", "a"), ("c", "b"), ("c", "d")])
        start = time.process_time()
        verdict = classify(h, {"a": 13, "b": 1},
                           SearchBudget(max_total_vertices=100))
        assert verdict.k_value == EXACTLY_ONE
        assert time.process_time() - start < 3

    def test_thousand_vertex_base_reaches_its_node_budget_quickly(self):
        # 4,562 combined vertices and 3,546 combinations of the extras'
        # cliques at k = 1.
        rng = random.Random(5)
        h = random_connected(rng, 1000, 2000)
        weights = {v: rng.choice((0, 0, 2, 3)) for v in h.vertices}
        target = generalized_line_graph(h, weights).graph
        start = time.process_time()
        with pytest.raises(BudgetExceeded):
            find_realization(target, 1, SearchBudget(max_nodes=3000))
        assert time.process_time() - start < 8


class TestClosedForms:
    # Closed forms on 9-14 vertices, beyond the naive oracle's reach: a
    # connected triangle-free graph has k = |E| - |V| + 2, and a connected
    # chordal graph with an edge has k = 1 (Roberts 1978).  The search must
    # find a witness at k, which it certifies, and refute
    # k - 1.
    def check(self, g, k):
        assert find_realization(g, k).k == k, (g, k)
        assert find_realization(g, k - 1) is None, (g, k - 1)

    def test_triangle_free(self):
        rng = random.Random(601)
        for _ in range(60):
            g = random_triangle_free(rng, rng.randint(9, 14), rng.randint(0, 2))
            nxg = nx.Graph(list(g.edges))
            assert nx.is_connected(nxg) and not any(nx.triangles(nxg).values())
            self.check(g, len(g.edges) - len(g.vertices) + 2)

    def test_chordal(self):
        rng = random.Random(602)
        for _ in range(60):
            g = random_chordal(rng, rng.randint(9, 14))
            nxg = nx.Graph(list(g.edges))
            assert nx.is_connected(nxg) and nx.is_chordal(nxg)
            self.check(g, 1)


class TestRealizationSearch:
    def test_witness_is_verified(self):
        found = find_realization(path(3), 1)
        assert found is not None
        cert = verify_realization(found.digraph, path(3), 1)
        assert cert.k == 1

    def test_refutation_returns_none(self):
        assert find_realization(cycle_graph(4), 1) is None

    def test_path_deeper_than_the_recursion_limit(self):
        # Each of the 1,200 vertices is placed one level below the last.
        found = find_realization(path(1200), 1,
                                 SearchBudget(max_nodes=10 ** 6))
        assert found.k == 1 and len(found.body) == 1201


class TestCompetitionNumber:
    # Frozen values: a path needs one extra, chordless cycles need two,
    # K_{2,3} needs three, cocktail-party blocks on two or three pairs
    # need two, complete graphs need one.
    def test_known_values(self):
        assert competition_number(path(3))[0] == 1
        assert competition_number(complete(4))[0] == 1
        for n in (4, 5, 6):
            assert competition_number(cycle_graph(n))[0] == 2
        assert competition_number(complete_bipartite(2, 3))[0] == 3
        for m in (2, 3):
            assert competition_number(cocktail_party(m)[0])[0] == 2

    def test_complete_bipartite_within_the_vertex_cap(self):
        # Opsut's edge-clique-cover bound gives K_{3,3} 9 - 6 + 2 = 5
        # extras, and the search finds them on 11 vertices, within the cap
        # of 13.  K_{3,4} needs at least 12 - 7 + 2 = 7: 14 vertices, over.
        g = complete_bipartite(3, 3)
        k, cert = competition_number(g)
        assert k == 5
        assert verify_realization(cert.digraph, g, 5).k == 5
        with pytest.raises(BudgetExceeded) as exc:
            competition_number(complete_bipartite(3, 4))
        assert exc.value.lower_bound == 7

    def test_edgeless_and_empty(self):
        assert competition_number(Graph(["a", "b"], []))[0] == 0
        assert competition_number(Graph([], []))[0] == 0

    def test_witness_always_verifies(self):
        for g in connected_graphs(5):
            k, witness = competition_number(g)
            d = witness.digraph
            cert = verify_realization(d, g, k)
            cg = competition_graph(d)
            assert cg.edges == g.edges
            assert set(cg.vertices) == set(g.vertices) | set(cert.added)
            assert opsut_lower_bound(g) <= k if g.vertices else True

    def test_same_value_and_witness_as_the_ascent_from_opsut(self):
        # On the graphs of ACCEPTANCE 10, the higher starting bound skips
        # only refuted values: the answer is the one found by climbing
        # from the clique-cover bound.
        for g in atlas_graphs(5):
            k = opsut_lower_bound(g)
            while (cert := find_realization(g, k)) is None:
                k += 1
            got_k, got = competition_number(g)
            assert (got_k, got.json_text()) == (k, cert.json_text()), g

    def test_triangle_free_graphs_search_once(self, monkeypatch):
        # A connected triangle-free graph's bound is its value
        # |E| - |V| + 2, so the only search is the one that finds it.
        calls = []

        def counted(graph, k, budget=None):
            calls.append(k)
            return find_realization(graph, k, budget)

        monkeypatch.setattr(glgcomp.oracle, "find_realization", counted)
        rng = random.Random(603)
        for _ in range(30):
            g = random_triangle_free(rng, rng.randint(4, 10), rng.randint(0, 2))
            calls.clear()
            k, _ = competition_number(g)
            assert calls == [k] == [len(g.edges) - len(g.vertices) + 2], g

    def test_budget_exceeded_reports_lower_bound(self):
        tight = SearchBudget(max_total_vertices=5)
        with pytest.raises(BudgetExceeded) as exc:
            competition_number(cycle_graph(4), tight)
        assert exc.value.lower_bound is not None
        assert exc.value.lower_bound >= 2

    def test_over_the_cap_is_refused_before_opsut_bound(self, monkeypatch):
        # With a cap of 8 vertices in all, no k can be searched on these
        # graphs, so the refusal needs neither bound.  It reports 1 for a
        # graph with a vertex and none isolated, else 0.  Within the cap
        # Opsut's bound is computed as before.
        def refuse(graph):
            raise AssertionError("opsut_lower_bound ran")

        monkeypatch.setattr(glgcomp.oracle, "opsut_lower_bound", refuse)
        cap = SearchBudget(max_total_vertices=8)
        lone = Graph(["v%d" % i for i in range(9)], [("v0", "v1")])
        for g, bound in ((cycle_graph(8), 1), (complete(11), 1), (lone, 0)):
            with pytest.raises(BudgetExceeded) as exc:
                competition_number(g, cap)
            assert exc.value.lower_bound == bound
        with pytest.raises(BudgetExceeded) as exc:
            competition_number(Graph(["a", "b"], [("a", "b")]),
                               SearchBudget(max_total_vertices=0))
        assert exc.value.lower_bound == 1
        with pytest.raises(AssertionError, match="opsut_lower_bound ran"):
            competition_number(cycle_graph(8))
