import gc
import random
import tracemalloc

import networkx as nx
import pytest

from glgcomp import (BudgetExceeded, Digraph, Graph, SearchBudget,
                     cocktail_party, competition_graph, competition_number,
                     find_realization, fresh_labels, generalized_line_graph,
                     opsut_lower_bound, realization_search,
                     verify_realization)
from corpus import (complete_bipartite, connected_graphs, cycle_graph,
                    random_chordal, random_triangle_free)


def path(n):
    verts = ["p%d" % i for i in range(n)]
    return Graph(verts, zip(verts, verts[1:]))


def complete(n):
    verts = ["k%d" % i for i in range(n)]
    return Graph(verts, [(a, b) for a in verts for b in verts if a < b])


class TestFreshLabels:
    def test_avoids_taken_names(self):
        assert fresh_labels({"z1"}, 2) == ["z2", "z3"]
        assert fresh_labels(set(), 1, stem="w") == ["w1"]


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

    def test_results_verify(self):
        for g in connected_graphs(5, min_edges=1):
            for k in (1, 2):
                found = find_realization(g, k)
                if found is None:
                    continue
                body, tail = found
                extras = fresh_labels(g.vertices, k)
                entries = list(body) + list(zip(extras, tail))
                arcs = [(u, v) for v, clique in entries for u in clique]
                d = Digraph([v for v, _ in entries], arcs)
                verify_realization(d, g, k)
                break

    def test_budget_exhaustion_is_distinguished_from_refutation(self):
        tight = SearchBudget(max_nodes=3)
        with pytest.raises(BudgetExceeded):
            find_realization(cycle_graph(6), 2, budget=tight)

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


class TestClosedForms:
    # Closed forms on 9-14 vertices, beyond the naive oracle's reach: a
    # connected triangle-free graph has k = |E| - |V| + 2, and a connected
    # chordal graph with an edge has k = 1 (Roberts 1978).  The search must
    # find a witness at k, which realization_search verifies, and refute
    # k - 1.
    def check(self, g, k):
        assert realization_search(g, k).k == k, (g, k)
        assert realization_search(g, k - 1) is None, (g, k - 1)

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
        found = realization_search(path(3), 1)
        assert found is not None
        cert = verify_realization(found.digraph, path(3), 1)
        assert cert.k == 1

    def test_refutation_returns_none(self):
        assert realization_search(cycle_graph(4), 1) is None


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

    def test_budget_exceeded_reports_lower_bound(self):
        tight = SearchBudget(max_total_vertices=5)
        with pytest.raises(BudgetExceeded) as exc:
            competition_number(cycle_graph(4), tight)
        assert exc.value.lower_bound is not None
        assert exc.value.lower_bound >= 2
