"""Tests of the benchmark itself: checker, answer digest and tracer.

    python3 -m unittest discover -s bench/tests
"""

import os
import sys
import unittest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def small(workload, count):
    """A copy of a workload whose corpus is cut to its first `count`
    instances, so one pass takes a fraction of a second."""
    copy = type(workload)()
    copy.corpus = lambda seed: workload.corpus(seed)[:count]
    return copy


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.pkg = run.import_package()
        self.inst = {"vertices": ["a", "b", "c", "d"],
                     "edges": [("a", "b"), ("a", "c"), ("a", "d"), ("c", "d")],
                     "weights": {"b": 2, "d": 1}}
        h = self.pkg.graph_core.Graph(self.inst["vertices"],
                                      self.inst["edges"])
        real = self.pkg.realization.glg_realization(h, self.inst["weights"])
        self.vertices = list(real.digraph.vertices)
        self.arcs = sorted(real.digraph.arcs)
        self.extras = sorted(real.added)
        self.target = checker.combined_graph(**self.inst)
        self.package_graph = real.combined.graph

    def test_target_matches_the_package_builder(self):
        vertices, edges = self.target
        self.assertEqual(vertices, set(self.package_graph.vertices))
        self.assertEqual(edges, set(self.package_graph.edges))

    def test_accepts_the_package_witness(self):
        checker.check_witness(self.target, self.vertices, self.arcs, 2)

    def assertRejected(self, vertices, arcs, k=2):
        with self.assertRaises(checker.WitnessError):
            checker.check_witness(self.target, vertices, arcs, k)

    def test_rejects_a_dropped_prey(self):
        # Empty the largest in-neighbourhood: its competition edges vanish.
        heads = [h for _, h in self.arcs]
        head = max(heads, key=heads.count)
        self.assertGreater(heads.count(head), 2)
        self.assertRejected(self.vertices,
                            [a for a in self.arcs if a[1] != head])

    def test_rejects_a_cycle(self):
        tail, head = self.arcs[0]
        self.assertRejected(self.vertices, self.arcs + [(head, tail)])

    def test_rejects_an_extra_that_competes(self):
        # Give an extra the same prey as some real vertex.
        tail, head = next(a for a in self.arcs if a[0] not in self.extras)
        self.assertRejected(self.vertices,
                            self.arcs + [(self.extras[0], head)])

    def test_rejects_a_wrong_extra_count(self):
        self.assertRejected(self.vertices, self.arcs, k=1)
        self.assertRejected(self.vertices + ["zz"], self.arcs)

    def test_rejects_a_renamed_vertex(self):
        old = self.vertices[0]
        ren = lambda v: "renamed" if v == old else v
        self.assertRejected([ren(v) for v in self.vertices],
                            [(ren(t), ren(h)) for t, h in self.arcs])

    def test_lower_bound_facts(self):
        cycle = {"vertices": ["a", "b", "c", "d"],
                 "edges": [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
                 "weights": {}}
        self.assertTrue(checker.needs_two_extras(checker.combined_graph(**cycle)))
        path = dict(cycle, edges=cycle["edges"][:3])
        self.assertFalse(checker.needs_two_extras(checker.combined_graph(**path)))


class DigestTest(unittest.TestCase):
    def test_corpora_are_seeded(self):
        for make in (workloads.classify_mix, workloads.construct_blocks):
            self.assertEqual(make(3), make(3))
            self.assertNotEqual(make(3), make(4))
        self.assertEqual(len(workloads.classify_universe()), 395)

    def test_digest_is_stable_for_a_fixed_seed(self):
        workload = small(run.WORKLOADS["classify_mix"], 40)
        first = run.run_workload(workload, 7, 0.001, 0)[4]
        again = run.run_workload(workload, 7, 0.001, 0)[4]
        other = run.run_workload(workload, 8, 0.001, 0)[4]
        self.assertEqual(first["answer_digest"], again["answer_digest"])
        self.assertNotEqual(first["answer_digest"], other["answer_digest"])

    def test_digest_tracks_every_answer(self):
        outcomes = ["ok"] * 5
        base = run.answer_digest(outcomes)
        for i in range(5):
            changed = outcomes[:i] + ["raised:BudgetExceeded"] + outcomes[i + 1:]
            self.assertNotEqual(run.answer_digest(changed), base)
        self.assertNotEqual(run.answer_digest(outcomes[::-1] + ["ok"]), base)


class TracerTest(unittest.TestCase):
    def test_self_times_add_up_to_the_traced_op_time(self):
        workload = small(run.WORKLOADS["classify_mix"], 60)
        consistent, ops, _, metrics, _ = run.run_workload(workload, 5, 0.001, 1)
        self.assertTrue(consistent)
        self_sum = sum(metrics[layer + ".self_s"][0] for layer in tracer.LAYERS)
        op_s = metrics["trace.op_s"][0]
        self.assertAlmostEqual(self_sum / op_s, metrics["trace.self_share"][0])
        # The only time outside every span is the root wrapper's own entry
        # and exit, inside the benchmark's timer.
        self.assertGreater(self_sum / op_s, 0.95)
        self.assertLessEqual(self_sum / op_s, 1.0)
        self.assertGreaterEqual(metrics["analysis.calls"][0], ops)

    def test_uninstall_restores_every_name(self):
        pkg = run.import_package()
        before = {id(m): dict(vars(m)) for m in vars(pkg).values()}
        tr = tracer.Tracer().install()
        self.assertIsNot(pkg.analysis.classify, before[id(pkg.analysis)]["classify"])
        self.assertIs(pkg.analysis.glg_realization, pkg.realization.glg_realization)
        tr.uninstall()
        for mod in vars(pkg).values():
            self.assertEqual(dict(vars(mod)), before[id(mod)])


if __name__ == "__main__":
    unittest.main()
