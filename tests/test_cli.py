import json
import os

import pytest

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
        src = write(tmp_path, "p.json",
                    {"kind": "graph", "vertices": ["a", "b", "c"],
                     "edges": [["a", "b"], ["b", "c"]]})
        code, out, _ = run(capsys, "build", "line", src)
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
                 (("realize", "one-units"), "edge_units.json", "-o", 1),
                 (("realize", "one-pair"), "edge_units.json", "-o", 1),
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
        code, _, err = run(capsys, "realize", "one-units", star_instance)
        assert code == 3 and "hypothesis" in err

    def test_one_pair_on_a_unit_edge(self, capsys, fixtures_dir):
        src = os.path.join(fixtures_dir, "edge_units.json")
        code, out, _ = run(capsys, "realize", "one-pair", src)
        assert code == 0
        assert json.loads(out)["k"] == 1

    def test_edge_flag_only_for_two(self, capsys, fixtures_dir):
        src = os.path.join(fixtures_dir, "edge_units.json")
        code, _, _ = run(capsys, "realize", "one-units", src,
                         "--edge", "u,v")
        assert code == 2


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

    def test_large_neighborhood_reports_a_lower_bound(self, capsys,
                                                      heavy_leaf):
        code, _, err = run(capsys, "compnum", heavy_leaf)
        assert code == 5 and "lower bound 1" in err


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
        target = str(tmp_path / "target.json")
        run(capsys, "build", "glg", star_instance, "-o", target)
        code, _, _ = run(capsys, "verify", star_digraph, target, "--k", "2")
        assert code == 1

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
        src = os.path.join(fixtures_dir, "path4_w21.json")
        code, out, _ = run(capsys, "classify", src)
        assert code == 0 and "exactly-two" in out
        code, out, _ = run(capsys, "classify", src, "--json")
        assert json.loads(out)["k_value"] == "exactly-two"

    def test_conditions_flag(self, capsys, fixtures_dir):
        src = os.path.join(fixtures_dir, "star_leaf2.json")
        code, out, _ = run(capsys, "classify", src, "--conditions")
        doc = json.loads(out)
        assert doc["kind"] == "condition_report"
        assert doc["unit_weight_edge"] is None
        assert doc["all_weights_unit"] is False

    def test_disconnected_base_exits_three(self, capsys, tmp_path):
        src = write(tmp_path, "disc.json",
                    {"kind": "vertex_weighted_graph",
                     "vertices": ["a", "b", "c"], "edges": [["a", "b"]],
                     "weights": {}})
        code, _, err = run(capsys, "classify", src)
        assert code == 3

    def test_large_neighborhood_is_undetermined(self, capsys, heavy_leaf):
        code, out, _ = run(capsys, "classify", heavy_leaf, "--json")
        assert code == 0
        assert json.loads(out)["k_value"] == "at-most-two-undetermined"


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "compnum", "/nonexistent/file.json")
        assert code == 2

    def test_missing_kind_field(self, capsys, tmp_path):
        src = write(tmp_path, "bad.json", {"vertices": [], "edges": []})
        code, _, _ = run(capsys, "compnum", src)
        assert code == 2

    def test_not_json(self, capsys, tmp_path):
        p = tmp_path / "junk.json"
        p.write_text("not json at all")
        code, _, _ = run(capsys, "classify", str(p))
        assert code == 2
