import json
import os
import subprocess
import sys
import types

import pytest

import glgcomp
from glgcomp import CombinedGraph, Graph, SearchBudget, glg_realization
from glgcomp.cli import main
from corpus import grid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def heavy_leaf(tmp_path):
    # A star whose leaf "a" carries an 18-vertex block: the neighborhood of
    # e:a-c has 20 vertices, above the exact clique-cover size guard.
    return write(tmp_path, "heavy.json",
                 {"kind": "vertex_weighted_graph",
                  "vertices": ["a", "b", "c", "d"],
                  "edges": [["a", "c"], ["b", "c"], ["c", "d"]],
                  "weights": {"a": 9}})


@pytest.fixture
def star_instance(fixtures_dir):
    return os.path.join(fixtures_dir, "star_leaf2.json")


@pytest.fixture
def star_digraph(fixtures_dir):
    return os.path.join(fixtures_dir, "star_leaf2_digraph.json")


class TestBuild:
    def test_build_glg_writes_graph_json(self, capsys, tmp_path,
                                         star_instance):
        out = str(tmp_path / "g.json")
        code, _, _ = run(capsys, "build", "glg", star_instance, "-o", out)
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["kind"] == "graph"
        assert len(doc["vertices"]) == 3 + 4  # three edges, one weight-2 block

    def test_build_cp_requires_m(self, capsys):
        code, _, err = run(capsys, "build", "cp")
        assert code == 2 and "--m" in err

    def test_build_cp(self, capsys, tmp_path):
        out = str(tmp_path / "cp.json")
        dot = str(tmp_path / "cp.dot")
        code, _, _ = run(capsys, "build", "cp", "--m", "2", "-o", out,
                         "--dot", dot)
        assert code == 0
        doc = json.loads(open(out).read())
        assert len(doc["vertices"]) == 4 and len(doc["edges"]) == 4
        first = open(dot).read()
        run(capsys, "build", "cp", "--m", "2", "--dot", dot)
        assert open(dot).read() == first  # byte-for-byte reproducible

    def test_build_line(self, capsys, tmp_path):
        # A graph document has no weights: build glg writes its line graph.
        src = write(tmp_path, "p.json",
                    {"kind": "graph", "vertices": ["a", "b", "c"],
                     "edges": [["a", "b"], ["b", "c"]]})
        code, out, _ = run(capsys, "build", "glg", src)
        assert code == 0
        doc = json.loads(out)
        assert sorted(doc["vertices"]) == ["e:a-b", "e:b-c"]


class TestRealize:
    def test_two_extra_certificate(self, capsys, tmp_path, star_instance):
        out = str(tmp_path / "cert.json")
        dot = str(tmp_path / "cert.dot")
        code, _, _ = run(capsys, "realize", "two", star_instance, "-o", out,
                         "--dot", dot)
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["kind"] == "realization_certificate"
        assert doc["k"] == 2
        assert "shape=box" in open(dot).read()

    def test_two_extra_certificate_fields(self, capsys, tmp_path,
                                          fixtures_dir):
        # Every certificate the CLI writes, k = 1 and the oracle's included;
        # a loop rather than parametrize keeps this test's id.
        cases = [(("realize", "two"), "path4_w12.json", "-o", 2),
                 (("realize", "one"), "edge_units.json", "-o", 1),
                 (("compnum",), "c4.json", "--witness", 2)]
        out = str(tmp_path / "cert.json")
        for command, fixture, flag, k in cases:
            src = os.path.join(fixtures_dir, fixture)
            code, _, _ = run(capsys, *command, src, flag, out)
            assert code == 0
            doc = json.loads(open(out).read())
            assert set(doc) == {"kind", "digraph", "base_graph", "k",
                                "added", "ordering"}
            assert doc["k"] == k
            assert sorted(doc["ordering"]) == doc["digraph"]["vertices"]
            assert doc["ordering"][-k:] == doc["added"]

    def test_two_extra_on_a_large_grid(self, capsys, tmp_path):
        h = grid(24)
        src = write(tmp_path, "grid.json",
                    {"kind": "vertex_weighted_graph",
                     "vertices": list(h.vertices),
                     "edges": [list(e) for e in sorted(h.edges)]})
        code, out, _ = run(capsys, "realize", "two", src)
        assert code == 0
        assert json.loads(out)["k"] == 2

    def test_two_extra_default_edge_on_a_disconnected_base(self, capsys,
                                                           tmp_path):
        # K4 plus a lone edge a-b: pinned at a-b, the K4's two cliques have
        # one position to go to, so the default edge must lie in the K4.
        k4 = ["v0", "v1", "v2", "v3"]
        src = write(tmp_path, "k4k2.json",
                    {"kind": "vertex_weighted_graph",
                     "vertices": k4 + ["a", "b"],
                     "edges": [[x, y] for x in k4 for y in k4 if x < y]
                     + [["a", "b"]]})
        code, out, _ = run(capsys, "realize", "two", src)
        assert code == 0
        assert json.loads(out)["k"] == 2
        code, _, err = run(capsys, "realize", "two", src, "--edge", "a,b")
        assert code == 3 and "component of its own" in err

    def test_one_units_rejects_heavy_weights(self, capsys, star_instance):
        # A weight above one and no edge with weight one at both ends; the
        # message names both of the paper's sufficient conditions.
        code, _, err = run(capsys, "realize", "one", star_instance)
        assert code == 3 and "hypothesis" in err
        assert "weight one at both ends" in err and "above one" in err

    def test_one_units_on_unweighted_bases(self, capsys, tmp_path,
                                           fixtures_dir):
        # A path's line graph has a simplicial vertex (one extra), K2's is
        # K1 (none), and C4's has none, so one extra cannot do.
        for vertices, k in ((["a", "b", "c", "d"], 1), (["a", "b"], 0)):
            src = write(tmp_path, "path.json",
                        {"kind": "graph", "vertices": vertices,
                         "edges": [list(p) for p in zip(vertices,
                                                        vertices[1:])]})
            code, out, _ = run(capsys, "realize", "one", src)
            assert code == 0
            assert json.loads(out)["k"] == k
        src = os.path.join(fixtures_dir, "c4.json")
        code, _, err = run(capsys, "realize", "one", src)
        assert code == 3 and "simplicial" in err

    def test_one_pair_on_a_unit_edge(self, capsys, fixtures_dir):
        src = os.path.join(fixtures_dir, "edge_units.json")
        code, out, _ = run(capsys, "realize", "one", src)
        assert code == 0
        assert json.loads(out)["k"] == 1

    def test_edge_flag_only_for_two(self, capsys, fixtures_dir):
        src = os.path.join(fixtures_dir, "edge_units.json")
        code, _, _ = run(capsys, "realize", "one", src,
                         "--edge", "u,v")
        assert code == 2


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux")
class TestMemoryAtScale:
    # realize two on the 200 x 200 grid with weight one at two corners
    # (79,604 combined vertices), in a process of its own that prints its
    # own peak RSS, so no other test's memory counts.  The graph's rows
    # take memory linear in its links: the run peaks at about 170 MB on
    # Linux with CPython 3.11, where adjacency masks in label order took
    # 1.34 GB.
    PEAK_KB = 256 * 1024
    SCRIPT = ("import resource, sys; from glgcomp.cli import main; "
              "code = main(['realize', 'two'] + sys.argv[1:]); "
              "print(code, "
              "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")

    def test_two_extra_on_the_200_grid(self, tmp_path):
        n = 200
        vs = ["g%03d_%03d" % (i, j) for i in range(n) for j in range(n)]
        edges = [[vs[i * n + j], vs[i * n + j + 1]]
                 for i in range(n) for j in range(n - 1)]
        edges += [[vs[i * n + j], vs[i * n + j + n]]
                  for i in range(n - 1) for j in range(n)]
        src = write(tmp_path, "grid200.json",
                    {"kind": "vertex_weighted_graph", "vertices": vs,
                     "edges": edges, "weights": {vs[0]: 1, vs[-1]: 1}})
        out = tmp_path / "cert.json"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(glgcomp.__file__)))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, src,
                               "-o", str(out)],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        code, peak_kb = map(int, proc.stdout.split())
        assert code == 0
        head = b'{"added": ["z1", "z2"], '
        tail = b'"q:g199_199:1:y", "z1", "z2"]}\n'
        with open(out, "rb") as handle:
            assert handle.read(len(head)) == head
            handle.seek(-len(tail), os.SEEK_END)
            assert handle.read() == tail
        assert peak_kb < self.PEAK_KB, peak_kb


class TestCompnum:
    def test_plain_and_json_output(self, capsys, fixtures_dir):
        src = os.path.join(fixtures_dir, "c4.json")
        code, out, _ = run(capsys, "compnum", src)
        assert code == 0 and "2" in out
        code, out, _ = run(capsys, "compnum", src, "--json")
        assert json.loads(out)["value"] == 2

    def test_witness_file_verifies(self, capsys, tmp_path, fixtures_dir):
        src = os.path.join(fixtures_dir, "c4.json")
        wit = str(tmp_path / "wit.json")
        code, _, _ = run(capsys, "compnum", src, "--witness", wit)
        assert code == 0
        assert json.loads(open(wit).read())["k"] == 2

    def test_budget_exhaustion_exit_code(self, capsys, fixtures_dir):
        src = os.path.join(fixtures_dir, "c4.json")
        code, _, err = run(capsys, "compnum", src, "--max-vertices", "4")
        assert code == 5 and "budget" in err.lower()
        # The node budget's report says how far the search got.
        code, _, err = run(capsys, "compnum", src, "--max-nodes", "3")
        assert code == 5 and "combination" in err

    def test_large_neighborhood_reports_a_lower_bound(self, capsys,
                                                      heavy_leaf):
        code, _, err = run(capsys, "compnum", heavy_leaf)
        assert code == 5 and "lower bound 1" in err

    def test_many_extras_are_refused_before_their_combinations(
            self, capsys, tmp_path):
        # The 10 x 10 grid needs at least 82 extras (Opsut's edge bound),
        # within a cap of 2,000 vertices; its C(180, 82) combinations of
        # the extras' cliques exceed the node budget before one is listed.
        g = grid(10)
        src = write(tmp_path, "grid10.json", {
            "kind": "graph", "vertices": list(g.vertices),
            "edges": [list(e) for e in sorted(g.edges)]})
        code, out, err = run(capsys, "compnum", src, "--max-vertices", "2000")
        assert code == 5 and out == ""
        assert "lower bound 82" in err and "combinations" in err

    def test_path_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # The search places the 1,200 vertices one level below the last.
        verts = ["p%04d" % i for i in range(1200)]
        src = write(tmp_path, "path1200.json", {
            "kind": "graph", "vertices": verts,
            "edges": [[a, b] for a, b in zip(verts, verts[1:])]})
        code, out, _ = run(capsys, "compnum", src, "--max-vertices", "2000",
                           "--json")
        assert code == 0 and json.loads(out)["value"] == 1


class TestVerify:
    def test_valid_witness(self, capsys, tmp_path, star_instance,
                           star_digraph):
        target = str(tmp_path / "target.json")
        run(capsys, "build", "glg", star_instance, "-o", target)
        code, out, _ = run(capsys, "verify", star_digraph, target, "--k", "1")
        assert code == 0 and "valid" in out

    def test_mismatch_lists_edges(self, capsys, tmp_path, star_instance,
                                  star_digraph):
        target = str(tmp_path / "target.json")
        run(capsys, "build", "glg", star_instance, "-o", target)
        doc = json.loads(open(star_digraph).read())
        doc["arcs"] = doc["arcs"][len(doc["arcs"]) // 2:]
        broken = write(tmp_path, "broken.json", doc)
        code, _, err = run(capsys, "verify", broken, target, "--k", "1")
        assert code == 1 and "missing edge" in err

    def test_wrong_k(self, capsys, tmp_path, star_instance, star_digraph):
        # Both witnesses that do not realize their target but are acyclic
        # and cover its edges: a wrong number of extras, and a base vertex
        # the digraph lacks.  A loop rather than parametrize keeps the id.
        target = str(tmp_path / "target.json")
        run(capsys, "build", "glg", star_instance, "-o", target)
        doc = json.loads(open(target).read())
        doc["vertices"].append("w")
        missing = write(tmp_path, "missing.json", doc)
        cases = [(target, "2", "expected 2 extra vertices, found 1"),
                 (missing, "1", "digraph is missing base vertices: ['w']")]
        for graph, k, message in cases:
            code, out, err = run(capsys, "verify", star_digraph, graph,
                                 "--k", k)
            assert code == 1 and out == "", message
            assert err == "INVALID: %s\n" % message

    def test_long_directed_cycle_is_invalid(self, capsys, tmp_path):
        # Deeper than the recursion limit; its competition graph is edgeless.
        verts = ["c%04d" % i for i in range(1500)]
        arcs = [[a, b] for a, b in zip(verts, verts[1:] + verts[:1])]
        digraph = write(tmp_path, "cycle.json", {"kind": "digraph",
                                                 "vertices": verts,
                                                 "arcs": arcs})
        target = write(tmp_path, "empty.json", {"kind": "graph",
                                                "vertices": verts,
                                                "edges": []})
        code, _, err = run(capsys, "verify", digraph, target, "--k", "0")
        assert code == 1 and "INVALID:" in err


class TestClassify:
    def test_fixture_verdict(self, capsys, fixtures_dir):
        # Each instance fixture with its verdict and the source of the
        # evidence that settled it, as the README Fixtures paragraph states.
        expected = {
            "c4": ("exactly-two", "pendant-reduction"),
            "edge_units": ("exactly-one", "lower-bound"),
            "path4_w12": ("exactly-one", "oracle"),
            "path4_w21": ("exactly-two", "pendant-reduction"),
            "star_leaf2": ("exactly-one", "oracle"),
        }
        for name, (verdict, source) in expected.items():
            src = os.path.join(fixtures_dir, name + ".json")
            code, out, _ = run(capsys, "classify", src)
            assert code == 0 and "verdict: %s\n" % verdict in out, name
            code, out, _ = run(capsys, "classify", src, "--json")
            doc = json.loads(out)
            assert code == 0, name
            assert doc["k_value"] == verdict, name
            assert doc["evidence"][-1]["source"] == source, name

    def test_conditions_flag(self, capsys, fixtures_dir):
        src = os.path.join(fixtures_dir, "star_leaf2.json")
        code, out, _ = run(capsys, "classify", src, "--conditions")
        doc = json.loads(out)
        assert doc["kind"] == "condition_report"
        assert doc["unit_weight_edge"] is None
        assert doc["all_weights_unit"] is False

    def test_disconnected_base_exits_three(self, capsys, tmp_path):
        # The README's exit-3 cases for the base itself: no edge
        # (classify and every realize mode), or not connected (classify
        # and realize one; realize two builds on any base with an edge).
        edgeless = {"vertices": ["a", "b"], "edges": []}
        disconnected = {"vertices": ["a", "b", "c"], "edges": [["a", "b"]]}
        cases = [(edgeless, ("classify",), "at least one edge"),
                 (edgeless, ("realize", "one"), "at least one edge"),
                 (edgeless, ("realize", "two"), "at least one edge"),
                 (disconnected, ("classify",), "must be connected"),
                 (disconnected, ("realize", "one"), "must be connected")]
        for base, command, message in cases:
            src = write(tmp_path, "base.json",
                        dict(base, kind="vertex_weighted_graph", weights={}))
            code, _, err = run(capsys, *command, src)
            assert code == 3, (base, command)
            assert "hypothesis not met" in err and message in err, err

    def test_large_neighborhood_is_undetermined(self, capsys, heavy_leaf):
        code, out, _ = run(capsys, "classify", heavy_leaf, "--json")
        assert code == 0
        assert json.loads(out)["k_value"] == "at-most-two-undetermined"


class TestWriteJson:
    # Every writer, each command with the argv it runs: {src} is the
    # instance, {out} the file written (stdout without one), and {digraph}
    # and {graph} the two-extra certificate's digraph and base graph.
    @pytest.mark.parametrize("command", [
        ("realize", "two", "{src}", "-o", "{out}"),
        ("build", "glg", "{src}", "-o", "{out}"),
        ("classify", "{src}", "--json"),
        ("compnum", "{src}", "--json"),
        ("compnum", "{src}", "--witness", "{out}"),
        ("verify", "{digraph}", "{graph}", "--k", "2", "--json"),
        ("classify", "{src}", "--conditions")])
    def test_escaped_labels(self, capsys, tmp_path, command):
        # Certificates, verdicts, condition reports and graphs are written,
        # to a file or to stdout, as one sorted-key line, on labels JSON
        # escapes, a non-BMP one included (a surrogate pair).  The classify
        # verdict splices in the text of its certificates; the report's
        # unit-weight edge joins a quote and a backslash.
        labels = ['a"b', "c\\d", "e\nf", "\u00e9", "\U0001f600"]
        edges = list(zip(labels, labels[1:]))
        h = Graph(labels, edges)
        weights = {labels[1]: 2, labels[4]: 1}
        if "--conditions" in command:
            weights = {labels[0]: 1, labels[1]: 1}
        cert = json.loads(glg_realization(h, weights).certificate.json_text())
        paths = {
            "src": write(tmp_path, "base.json",
                         {"kind": "vertex_weighted_graph", "vertices": labels,
                          "edges": [list(e) for e in edges],
                          "weights": weights}),
            "out": str(tmp_path / "out.json"),
            "digraph": write(tmp_path, "digraph.json", cert["digraph"]),
            "graph": write(tmp_path, "graph.json", cert["base_graph"])}
        code, text, _ = run(capsys, *[a.format(**paths) for a in command])
        assert code == 0
        if "{out}" in command:
            text = (tmp_path / "out.json").read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        if "--conditions" in command:
            assert json.loads(text)["unit_weight_edge"] == labels[:2]


class TestPublicApi:
    def test_exported_names(self):
        names = {n for n, v in vars(glgcomp).items()
                 if not n.startswith("_")
                 and not isinstance(v, types.ModuleType)}
        assert names == {
            "BudgetExceeded", "CombinedGraph", "CompetitionMismatch",
            "ConditionReport", "ConstructionFailed", "CyclicDigraph",
            "DEFAULT_BUDGET", "Digraph", "EXACTLY_ONE", "EXACTLY_TWO",
            "EXACTLY_ZERO", "EmptyGraph", "GlgError", "GlgRealization",
            "Graph", "HypothesisNotMet", "InvalidInput", "NonPositiveM",
            "NotAnEdge", "RealizationCertificate", "SchemaError",
            "SearchBudget", "UNDETERMINED", "UnknownVertex", "Verdict",
            "VertexCollision", "acyclic_ordering", "check_conditions",
            "classify", "cocktail_party",
            "competition_graph", "competition_number", "cp_realization",
            "digraph_from_json", "digraph_to_dot", "find_realization",
            "generalized_line_graph", "glg_realization",
            "graph_from_json", "graph_json_text", "graph_to_dot",
            "is_connected", "normalize_edge", "opsut_lower_bound",
            "pendant_reduce", "simplicial_vertices",
            "single_extra_realization", "verify_realization",
            "weighted_graph_from_json"}

    def test_graph_readers_and_budget_fields(self):
        assert not {"degree", "has_vertex", "has_edge"} & set(dir(Graph))
        assert "incident_labels" not in dir(CombinedGraph)
        assert SearchBudget.__slots__ == ("max_total_vertices", "max_nodes")
        assert "ordering" not in dir(glgcomp.RealizationCertificate)
        assert "edge" not in dir(glgcomp.GlgRealization)


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "compnum", "/nonexistent/file.json")
        assert code == 2

    def test_missing_kind_field(self, capsys, tmp_path):
        src = write(tmp_path, "bad.json", {"vertices": [], "edges": []})
        code, _, _ = run(capsys, "compnum", src)
        assert code == 2

    def test_negative_budget_flags(self, capsys, tmp_path):
        src = write(tmp_path, "k2.json",
                    {"kind": "graph", "vertices": ["a", "b"],
                     "edges": [["a", "b"]]})
        for command in ("classify", "compnum"):
            for flag in ("--max-nodes", "--max-vertices"):
                code, out, err = run(capsys, command, src, flag, "-1")
                assert code == 2 and "non-negative" in err, (command, flag)
                assert out == ""

    def test_no_flag_caps_the_extras(self, capsys, tmp_path):
        # The vertex cap alone bounds the extras.
        src = write(tmp_path, "k2.json",
                    {"kind": "graph", "vertices": ["a", "b"],
                     "edges": [["a", "b"]]})
        for command in ("classify", "compnum"):
            with pytest.raises(SystemExit) as exc:
                main([command, src, "--max-k", "4"])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_negative_extra_count(self, capsys, star_instance,
                                  star_digraph):
        code, out, err = run(capsys, "verify", star_digraph, star_instance,
                             "--k", "-1")
        assert code == 2 and "non-negative" in err
        assert out == ""
        # Rejected before any file is read.
        code, _, err = run(capsys, "verify", "/nonexistent/d.json",
                           "/nonexistent/g.json", "--k", "-1")
        assert code == 2 and "non-negative" in err

    def test_not_json(self, capsys, tmp_path):
        # Not JSON, not UTF-8, and nested deeper than the decoder can go.
        p = tmp_path / "junk.json"
        for junk in (b"not json at all", b"\xff\xfe{}", b"[" * 100000):
            p.write_bytes(junk)
            code, out, err = run(capsys, "classify", str(p))
            assert code == 2 and out == "", junk[:10]
            assert "not valid JSON" in err

    def test_graph_document_as_the_digraph(self, capsys, tmp_path,
                                           star_instance):
        # The digraph reader owns the kind check: a graph document in the
        # digraph's place is an input error naming the kind it expected.
        target = str(tmp_path / "target.json")
        run(capsys, "build", "glg", star_instance, "-o", target)
        code, out, err = run(capsys, "verify", target, target, "--k", "1")
        assert code == 2 and out == ""
        assert "expected kind 'digraph'" in err
