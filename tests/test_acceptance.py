"""Acceptance gate: ten end-to-end checks, one reported line each.

Each test prints a single PASS/FAIL line (straight to the real stdout so it
survives capture).  Sweeps are exhaustive where stated; where an exact
search would outgrow the default budget the sweep is capped to instances
with at most thirteen total vertices, and the cap is stated here.
"""

import itertools
import json
import os
import random

import pytest

import naive_oracle
from corpus import (complete_bipartite, connected_chordal_graphs,
                    connected_graphs, cycle_graph, atlas_graphs)
from reference import incident_edge_clique, patch_everywhere
from glgcomp import (BudgetExceeded, Graph, check_conditions, classify,
                     cocktail_party, competition_number, cp_realization,
                     digraph_from_json, find_realization,
                     generalized_line_graph, glg_realization,
                     graph_from_json, opsut_lower_bound, pendant_reduce,
                     simplicial_vertices, single_extra_realization,
                     verify_realization,
                     weighted_graph_from_json)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

ORACLE_VERTEX_CAP = 13  # largest digraph the exact search will take on

VERDICT_K = {"exactly-zero": 0, "exactly-one": 1, "exactly-two": 2}


def no_search(*args, **kwargs):
    raise AssertionError("the exact search ran")


@pytest.fixture
def report(capfd):
    """One PASS/FAIL line per criterion, written past pytest's capture."""
    def _report(number, label, ok, detail=""):
        line = "ACCEPTANCE %02d %s: %s" % (number, label,
                                           "PASS" if ok else "FAIL")
        if detail:
            line += " (%s)" % detail
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


def load_fixture(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


def sampled_weight_maps(h, rng, count):
    """Sample weight maps with values in {0,1,2} summing to at most four."""
    verts = list(h.vertices)
    seen = set()
    maps = []
    for _ in range(count * 20):
        if len(maps) >= count:
            break
        weights = {}
        budget = rng.randint(0, 4)
        while budget > 0:
            v = rng.choice(verts)
            add = min(rng.randint(1, 2), budget, 2 - weights.get(v, 0))
            if add:
                weights[v] = weights.get(v, 0) + add
                budget -= add
            else:
                budget -= 1  # stuck on a saturated vertex; shrink anyway
        key = tuple(sorted(weights.items()))
        if key not in seen:
            seen.add(key)
            maps.append(weights)
    return maps


def test_01_two_extra_sweep(report):
    rng = random.Random(20260826)
    instances = 0
    for h in connected_graphs(7, min_edges=2, max_edges=6):
        for weights in sampled_weight_maps(h, rng, 11):
            instances += 1
            combined = generalized_line_graph(h, weights)
            for e in sorted(h.edges):
                r = glg_realization(h, weights, e)
                cert = verify_realization(r.digraph, combined.graph, 2)
                assert set(cert.added) == set(r.added)
                for endpoint in e:
                    pin = r.pinned[endpoint]
                    assert r.digraph.in_neighbors(pin) == \
                        incident_edge_clique(h, endpoint)
    report(1, "two-extra realizations across the weighted sweep",
           instances >= 500, "%d instances, every edge pinned" % instances)


def test_02_oracle_against_known_families(report):
    for g in connected_chordal_graphs(6):
        k, _ = competition_number(g)
        assert k == 1, "chordal %r gave %d" % (g, k)
    for n in (4, 5, 6):
        assert competition_number(cycle_graph(n))[0] == 2
    assert competition_number(complete_bipartite(2, 3))[0] == 3
    report(2, "oracle matches chordal/cycle/bipartite values", True,
           "%d chordal graphs, three cycles, K_{2,3}"
           % len(connected_chordal_graphs(6)))


def test_03_cocktail_party_blocks(report):
    for m in (2, 3):
        g, _ = cocktail_party(m)
        assert competition_number(g)[0] == 2
    for m in range(1, 6):
        d = cp_realization(m).digraph
        g, _ = cocktail_party(m)
        verify_realization(d, g, 2)
    report(3, "cocktail-party blocks need two extras and realize with two",
           True, "oracle for m=2,3; construction for m=1..5")


def test_04_line_graph_dichotomy(report, monkeypatch):
    count = 0
    for h in connected_graphs(7, min_edges=1, max_edges=6):
        lg = generalized_line_graph(h, {}).graph
        k, _ = competition_number(lg)
        assert k <= 2
        assert (k == 2) == (not simplicial_vertices(lg)), \
            "dichotomy failed on the line graph of %r" % (h,)
        # classify settles every line graph without the exact search.
        with monkeypatch.context() as patched:
            patch_everywhere(patched, find_realization, no_search)
            verdict = classify(h)
        assert VERDICT_K[verdict.k_value] == k, h
        count += 1
    report(4, "line graphs: value at most two, exactly two iff "
              "no simplicial vertex; classify agrees without search", True,
           "%d base graphs" % count)


def test_05_pendant_reduction_classifies_the_path_instance(report):
    h, weights = weighted_graph_from_json(load_fixture("path4_w21.json"))
    verdict = classify(h, weights)
    assert verdict.k_value == "exactly-two"
    assert any(src == "pendant-reduction" for _, src in verdict.evidence)
    target = generalized_line_graph(h, weights).graph
    reduced, removed = pendant_reduce(target)
    assert removed
    k, _ = competition_number(target)
    assert k == 2
    report(5, "weighted path classified exactly-two via pendant reduction",
           True, "oracle agrees: k=2")


def test_06_shipped_witness_fixture(report):
    h, weights = weighted_graph_from_json(load_fixture("star_leaf2.json"))
    digraph = digraph_from_json(load_fixture("star_leaf2_digraph.json"))
    target = generalized_line_graph(h, weights).graph
    cert = verify_realization(digraph, target, 1)
    assert cert.k == 1
    assert competition_number(target)[0] == 1
    report_flags = check_conditions(h, weights)
    assert report_flags.unit_weight_edge is None
    assert report_flags.all_weights_unit is False
    report(6, "shipped digraph fixture verifies at one extra", True,
           "oracle agrees; no unit edge")


def test_07_single_extra_sweep(report):
    built = agreed = 0
    for h in connected_graphs(6, min_edges=1, max_edges=5):
        verts = list(h.vertices)
        for mask in range(1, 1 << len(verts)):
            weights = {v: 1 for i, v in enumerate(verts) if mask >> i & 1}
            target = generalized_line_graph(h, weights).graph
            d = single_extra_realization(h, weights).digraph
            verify_realization(d, target, 1)
            built += 1
            if len(target.vertices) + 1 <= ORACLE_VERTEX_CAP:
                assert competition_number(target)[0] == 1
                agreed += 1
    # weight-two vertices away from a unit edge exercise the edge chain
    for h in connected_graphs(6, min_edges=1, max_edges=5):
        edge = min(h.edges)
        for heavy in set(h.vertices) - set(edge):
            weights = {edge[0]: 1, edge[1]: 1, heavy: 2}
            target = generalized_line_graph(h, weights).graph
            if len(target.vertices) + 1 > ORACLE_VERTEX_CAP:
                continue
            d = single_extra_realization(h, weights).digraph
            verify_realization(d, target, 1)
            assert competition_number(target)[0] == 1
            built += 1
            agreed += 1
    report(7, "single-extra constructions verify and the oracle agrees",
           True, "%d built, %d oracle-checked (cap: %d total vertices)"
           % (built, agreed, ORACLE_VERTEX_CAP))


def test_08_necessity_of_the_unit_conditions(report):
    checked = 0
    for h in connected_graphs(5, min_edges=1, max_edges=4):
        verts = list(h.vertices)
        for combo in itertools.product((0, 1, 2), repeat=len(verts)):
            if not any(combo):
                continue
            weights = {v: w for v, w in zip(verts, combo) if w}
            target = generalized_line_graph(h, weights).graph
            if len(target.vertices) + 1 > ORACLE_VERTEX_CAP:
                continue
            try:
                found = find_realization(target, 1)
            except BudgetExceeded:
                continue
            checked += 1
            if found is not None:
                flags = check_conditions(h, weights)
                assert flags.has_unit_weight or \
                    flags.zero_weight_anchor_simplicial, \
                    "value one without either condition on %r %r" \
                    % (h, weights)
    report(8, "value one implies a unit weight or a simplicial-anchored "
              "zero weight", True,
           "%d instances (cap: %d total vertices)"
           % (checked, ORACLE_VERTEX_CAP))


def test_09_lower_bound_never_exceeds_the_oracle(report):
    checked = 0
    for g in atlas_graphs(5):
        if not g.vertices:
            continue
        k, _ = competition_number(g)
        assert opsut_lower_bound(g) <= k
        checked += 1
    report(9, "clique-cover lower bound never exceeds the exact value",
           True, "%d graphs on up to five vertices" % checked)


def test_10_two_independent_oracles_agree(report):
    compared = 0
    for g in atlas_graphs(5):
        for k in (0, 1, 2):
            fast = find_realization(g, k) is not None
            slow = naive_oracle.has_realization(g, k)
            assert fast == slow, "oracles disagree on %r at k=%d" % (g, k)
            compared += 1
    report(10, "search oracle agrees with the naive enumeration", True,
           "%d (graph, k) pairs" % compared)
