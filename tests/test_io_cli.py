"""File formats and the command-line interface."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import matvines
import matvines.io as mio
from matvines import (GraphInputError, LabeledGraph, PosetInputError,
                      VineClass, c_vine, canonical_form, check_mat_labeling,
                      classify, d_vine, from_forest_sequence, omega, psi,
                      to_forest_sequence, truncate)
from matvines.cli import main
from test_labeled_graph import glued_mat_graph


@pytest.fixture
def d4_path(tmp_path, d4_graph):
    path = tmp_path / "d4.json"
    mio.save_structure(d4_graph, path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestFormats:
    def test_graph_round_trip(self, tmp_path, d4_graph):
        path = tmp_path / "g.json"
        mio.save_structure(d4_graph, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "mat-graph/v1"
        assert mio.load_structure(path) == d4_graph

    def test_duplicate_edge_detected_on_load(self, tmp_path):
        doc = {"format": "mat-graph/v1", "vertices": ["a", "b"],
               "edges": [["a", "b", 1], ["b", "a", 1]]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphInputError, match="duplicate"):
            mio.load_structure(path)

    def test_vine_round_trip(self, tmp_path):
        p = d_vine(4)
        path = tmp_path / "v.json"
        mio.save_structure(p, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "vine/v1"
        assert mio.load_structure(path) == p

    def test_vine_bad_cover_reference(self, tmp_path):
        doc = {"format": "vine/v1",
               "nodes": [{"id": "a", "rank": 1, "covers": ["zz"]}]}
        path = tmp_path / "v.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(PosetInputError):
            mio.load_structure(path)

    def test_forest_sequence_round_trip(self, tmp_path):
        f = to_forest_sequence(c_vine(4))
        path = tmp_path / "f.json"
        mio.save_structure(f, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "vine-forests/v1"
        loaded = mio.load_structure(path)
        assert loaded == f
        assert from_forest_sequence(loaded) == from_forest_sequence(f)

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "nope/v9"}))
        with pytest.raises(GraphInputError):
            mio.load_structure(path)

    def test_dot_exports_are_deterministic(self, d4_graph):
        dot = mio.graph_to_dot(d4_graph)
        assert dot == mio.graph_to_dot(d4_graph)
        assert '"v1" -- "v2" [label=1];' in dot
        vdot = mio.vine_to_dot(d_vine(3))
        assert "rank=same" in vdot
        assert '"1" -> "12";' in vdot


class TestCheckCommand:
    def test_valid_graph_exits_zero(self, capsys, d4_path):
        code, doc = run_cli(capsys, "check", d4_path)
        assert code == 0 and doc["ok"]

    def test_violation_exits_one_with_tag(self, capsys, tmp_path):
        g = LabeledGraph.build("abc", [("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        path = tmp_path / "bad.json"
        mio.save_structure(g, path)
        code, doc = run_cli(capsys, "check", str(path))
        assert code == 1
        assert doc["violation"]["tag"] == "ML1"

    def test_missing_file_exits_two(self, capsys, tmp_path):
        assert main(["check", str(tmp_path / "missing.json")]) == 2

    def test_vine_check_levels(self, capsys, tmp_path):
        p = d_vine(3)
        path = tmp_path / "v.json"
        mio.save_structure(p, path)
        code, doc = run_cli(capsys, "check", str(path))
        assert code == 0 and doc["kind"] == "r_vine"
        # a vine that is not locally regular fails the default requirement
        bad = {"format": "vine/v1", "nodes": [
            {"id": "1", "rank": 1, "covers": []},
            {"id": "2", "rank": 1, "covers": []},
            {"id": "3", "rank": 1, "covers": []},
            {"id": "4", "rank": 1, "covers": []},
            {"id": "a", "rank": 2, "covers": ["1", "2"]},
            {"id": "b", "rank": 2, "covers": ["3", "4"]},
            {"id": "top", "rank": 3, "covers": ["a", "b"]}]}
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        code, doc = run_cli(capsys, "check", str(bad_path))
        assert code == 1 and doc["kind"] == "vine"
        code, doc = run_cli(capsys, "check", str(bad_path), "--require", "vine")
        assert code == 0


class TestForestInput:
    def test_check_accepts_forest_sequences(self, capsys, tmp_path):
        f = to_forest_sequence(d_vine(3))
        path = tmp_path / "f.json"
        mio.save_structure(f, path)
        code, doc = run_cli(capsys, "check", str(path))
        assert code == 0 and doc["kind"] == "r_vine"

    def test_a_level_that_is_not_a_list_is_refused(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"format": "vine-forests/v1",
                                    "elements": ["1", "2"], "forests": [5]}))
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")


class TestConvertCommand:
    def test_psi_then_omega_round_trip(self, capsys, tmp_path, d4_path, d4_graph):
        vine_path = str(tmp_path / "vine.json")
        code, doc = run_cli(capsys, "convert", "--psi", d4_path,
                            "--out", vine_path, "--roundtrip")
        assert code == 0
        assert doc["roundtrip"]["ok"]
        assert len(mio.load_structure(vine_path).nodes) == 10
        back_path = str(tmp_path / "back.json")
        code, doc = run_cli(capsys, "convert", "--omega", vine_path,
                            "--out", back_path)
        assert code == 0
        assert mio.load_structure(back_path).labels == d4_graph.labels

    def test_direction_mismatch_exits_two(self, capsys, tmp_path, d4_path):
        assert main(["convert", "--omega", d4_path,
                     "--out", str(tmp_path / "x.json")]) == 2

    def test_dot_side_output(self, capsys, tmp_path, d4_path):
        vine_path = str(tmp_path / "vine.json")
        dot_path = tmp_path / "vine.dot"
        code, _ = run_cli(capsys, "convert", "--psi", d4_path,
                          "--out", vine_path, "--dot", str(dot_path))
        assert code == 0
        assert dot_path.read_text().startswith("digraph")

    def test_input_file_is_not_mutated(self, capsys, tmp_path, d4_path):
        before = open(d4_path).read()
        run_cli(capsys, "convert", "--psi", d4_path,
                "--out", str(tmp_path / "v.json"))
        assert open(d4_path).read() == before


class TestEnumerateCommand:
    def test_dimension_five(self, capsys):
        code, doc = run_cli(capsys, "enumerate", "5")
        assert code == 0
        assert doc["class_count"] == 6 == doc["formula_count"]

    def test_zero_is_an_input_error(self, capsys):
        assert main(["enumerate", "0"]) == 2

    def test_resource_bound_exits_three(self, capsys):
        assert main(["enumerate", "8"]) == 3

    def test_emit_representatives(self, capsys, tmp_path):
        outdir = tmp_path / "reps"
        code, doc = run_cli(capsys, "enumerate", "4",
                            "--emit-representatives", str(outdir))
        assert code == 0
        files = sorted(outdir.glob("*.json"))
        assert len(files) == 2
        for f in files:
            g = mio.load_structure(f)
            assert g.is_complete()

    def test_emitted_file_names(self, capsys, tmp_path):
        outdir = tmp_path / "reps"
        code, doc = run_cli(capsys, "enumerate", "5",
                            "--emit-representatives", str(outdir))
        assert code == 0
        assert sorted(f.name for f in outdir.glob("*.json")) == [
            "K5_1121231234.json", "K5_1121231324.json", "K5_1121232134.json",
            "K5_1121232314.json", "K5_1121242133.json", "K5_1122132314.json"]
        for f in outdir.glob("*.json"):
            assert canonical_form(mio.load_structure(f)).decode() == \
                "5:" + ",".join(f.name[3:-5])

    def test_refused_emit_leaves_no_class_file(self, capsys, tmp_path):
        # one class's file name is taken by a directory: the other class's
        # file must not be written either
        outdir = tmp_path / "reps"
        (outdir / "K4_112213.json").mkdir(parents=True)
        before = set(tmp_path.rglob("*"))
        assert main(["enumerate", "4", "--emit-representatives",
                     str(outdir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert set(tmp_path.rglob("*")) == before


class TestOtherCommands:
    def test_count_ideals_standard_kind(self, capsys):
        code, doc = run_cli(capsys, "count-ideals", "--kind", "d_vine",
                            "--dim", "3")
        assert code == 0
        assert doc["all"] == 14 and doc["catalan"] == 14
        assert doc["full_support"] == 5

    def test_count_ideals_from_file(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        mio.save_structure(c_vine(3), path)
        code, doc = run_cli(capsys, "count-ideals", str(path),
                            "--mode", "full_support")
        assert code == 0 and doc["full_support"] == 5 and "all" not in doc

    def test_count_ideals_with_ranks_against_the_covers(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"format": "vine/v1", "nodes": [
            {"id": "a", "rank": 2, "covers": []},
            {"id": "b", "rank": 1, "covers": ["a"]}]}))
        code, doc = run_cli(capsys, "count-ideals", str(path))
        assert code == 0 and doc["all"] == 3 and doc["full_support"] == 2

    def test_truncate_marginalize_sampling(self, capsys, tmp_path):
        vine_path = tmp_path / "c4.json"
        mio.save_structure(c_vine(4), vine_path)
        out = tmp_path / "t.json"
        code, doc = run_cli(capsys, "truncate", str(vine_path), "--k", "3",
                            "--direction", "lower", "--out", str(out))
        assert code == 0 and doc["nodes"] == 9
        code, doc = run_cli(capsys, "sampling-order", str(out),
                            "--order", "1,3,4,2")
        assert code == 0 and doc["ok"]
        code, doc = run_cli(capsys, "sampling-order", str(out),
                            "--order", "2,3,4,1")
        assert code == 1
        marg = tmp_path / "m.json"
        code, doc = run_cli(capsys, "marginalize", str(vine_path),
                            "--node", "2", "--out", str(marg))
        assert code == 0 and doc["graded"] is False

    @pytest.mark.parametrize("kind", ["truncated_c4", "glued_30"])
    def test_found_sampling_order_passes_its_own_check(self, capsys, tmp_path,
                                                        kind):
        p = (truncate(c_vine(4), 3, "lower") if kind == "truncated_c4"
             else psi(glued_mat_graph(random.Random(30), 30)))
        path = tmp_path / "v.json"
        mio.save_structure(p, path)
        code, doc = run_cli(capsys, "sampling-order", str(path))
        assert code == 0 and doc["ok"]
        assert sorted(doc["order"]) == sorted(p.minimals)
        code, doc = run_cli(capsys, "sampling-order", str(path),
                            "--order", ",".join(doc["order"]))
        assert code == 0 and doc["ok"]

    def test_embed(self, capsys, tmp_path, lrv_graph):
        vine_path = tmp_path / "p.json"
        mio.save_structure(psi(lrv_graph), vine_path)
        out = tmp_path / "r.json"
        map_out = tmp_path / "map.json"
        code, doc = run_cli(capsys, "embed", str(vine_path), "--out", str(out),
                            "--map-out", str(map_out))
        assert code == 0 and doc["target_nodes"] == 15
        stored = json.loads(map_out.read_text())
        assert stored["map"] == doc["map"]

    def test_glue_merge_extend(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        mio.save_structure(LabeledGraph.build(["a", "b"], [("a", "b", 1)]), a)
        mio.save_structure(LabeledGraph.build(["b", "c"], [("b", "c", 1)]), b)
        glued = tmp_path / "glued.json"
        code, doc = run_cli(capsys, "glue", str(a), str(b), "--out", str(glued))
        assert code == 0 and doc["edges"] == 2
        merged = tmp_path / "merged.json"
        code, doc = run_cli(capsys, "merge", str(a), str(b), "--out", str(merged))
        assert code == 0 and doc["edges"] == 3
        extended = tmp_path / "ext.json"
        code, doc = run_cli(capsys, "extend", str(glued), "--out", str(extended))
        assert code == 0
        assert mio.load_structure(extended).labels == \
            mio.load_structure(merged).labels

    def test_glue_conflict_exits_two(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        mio.save_structure(LabeledGraph.build(["a", "b"], [("a", "b", 1)]), a)
        mio.save_structure(LabeledGraph.build(["a", "b"], [("a", "b", 2)]), b)
        assert main(["glue", str(a), str(b), "--out",
                     str(tmp_path / "x.json")]) == 2

    def test_canon_is_stable_under_renaming(self, capsys, tmp_path, d4_graph):
        p1 = tmp_path / "g1.json"
        p2 = tmp_path / "g2.json"
        mio.save_structure(d4_graph, p1)
        renamed = d4_graph.relabel_vertices(
            {"v1": "x", "v2": "y", "v3": "z", "v4": "w"})
        mio.save_structure(renamed, p2)
        _, doc1 = run_cli(capsys, "canon", str(p1))
        _, doc2 = run_cli(capsys, "canon", str(p2))
        assert doc1["canonical"] == doc2["canonical"]

    def test_canon_of_a_star(self, capsys, tmp_path):
        # ten leaves are 10! vertex orders; they are twins, so one is tried
        leaves = [f"leaf{i}" for i in range(10)]
        path = tmp_path / "star.json"
        mio.save_structure(LabeledGraph.build(
            leaves + ["centre"], [("centre", v, 1) for v in leaves]), path)
        code, doc = run_cli(capsys, "canon", str(path))
        assert code == 0
        # the leaves first, so every row is 0 but the centre's last row
        assert doc == {"canonical": "11:" + ",".join(["0"] * 45 + ["1"] * 10)}


# A 14-vertex MAT-labeled graph (random_mat_labeled_graph, seed 0); a
# search over the labels of its 71 missing edges runs for more than 6 s.
GRAPH_14 = LabeledGraph.build(
    [f"v{i}" for i in range(1, 15)],
    [("v1", "v10", 1), ("v1", "v13", 1), ("v1", "v2", 1), ("v1", "v4", 1),
     ("v1", "v6", 1), ("v10", "v4", 2), ("v10", "v6", 3), ("v11", "v6", 1),
     ("v11", "v8", 2), ("v13", "v6", 2), ("v14", "v3", 1), ("v14", "v7", 2),
     ("v2", "v4", 2), ("v2", "v6", 3), ("v3", "v5", 1), ("v3", "v7", 1),
     ("v3", "v9", 1), ("v4", "v6", 2), ("v5", "v9", 2), ("v6", "v8", 1)])


def assert_completes(out, *pieces):
    assert out.is_complete() and check_mat_labeling(out).ok
    assert classify(psi(out)).kind == VineClass.R_VINE
    for piece in pieces:
        assert all(out.labels[e] == k for e, k in piece.labels.items())


class TestCompletionCommands:
    def test_extend_fourteen_vertices(self, capsys, tmp_path):
        src, dst = tmp_path / "g.json", tmp_path / "complete.json"
        mio.save_structure(GRAPH_14, src)
        code, doc = run_cli(capsys, "extend", str(src), "--out", str(dst))
        assert code == 0 and doc == {"out": str(dst), "vertices": 14, "edges": 91}
        assert_completes(mio.load_structure(dst), GRAPH_14)

    def test_embed_twelve_vertex_vine(self, capsys, tmp_path):
        p = psi(GRAPH_14.restrict([f"v{i}" for i in range(1, 13)]))
        src, dst = tmp_path / "p.json", tmp_path / "r.json"
        mio.save_structure(p, src)
        code, doc = run_cli(capsys, "embed", str(src), "--out", str(dst))
        target = mio.load_structure(dst)
        assert code == 0 and doc["target_nodes"] == len(target.nodes) == 78
        assert classify(target).kind == VineClass.R_VINE
        assert sorted(doc["map"]) == sorted(p.nodes)
        assert_completes(omega(target), omega(p))

    def test_merge_overlapping_complete_pieces(self, capsys, tmp_path):
        # two 8-vertex D-vines sharing the labeled triangle on 6, 7, 8
        a = omega(d_vine(8))
        b = a.relabel_vertices({str(i): str(i + 5) for i in range(1, 9)})
        pa, pb, dst = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        mio.save_structure(a, pa)
        mio.save_structure(b, pb)
        code, doc = run_cli(capsys, "merge", str(pa), str(pb), "--out", str(dst))
        assert code == 0 and doc == {"out": str(dst), "vertices": 13, "edges": 78}
        assert_completes(mio.load_structure(dst), a, b)


class TestImport:
    def test_no_third_party_modules(self):
        # the package runs on the standard library alone
        src = str(Path(matvines.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        probe = ("import sys, matvines, matvines.cli; "
                 "print('networkx' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def nested_pair(depth):
    ref = "1"
    for _ in range(depth):
        ref = [ref, "2"]
    return ref


GRAPH, VINE, FORESTS = "mat-graph/v1", "vine/v1", "vine-forests/v1"
MALFORMED = {
    "bad_utf8": b'{"format": "mat-graph/v1", "vertices": ["\xff"], "edges": []}',
    "deep_brackets": b"[" * 100_000,
    "deep_forest_pair": {"format": FORESTS, "elements": ["1", "2"],
                         "forests": [[nested_pair(900)]]},
    "not_json": b'{"format": ',
    "empty_file": b"",
    "top_level_list": [],
    "wrong_format": {"format": "nope/v9"},
    "unhashable_format": {"format": [GRAPH]},
    "missing_format": {"vertices": ["a"], "edges": []},
    "vertices_not_list": {"format": GRAPH, "vertices": "ab", "edges": []},
    "edges_not_list": {"format": GRAPH, "vertices": ["a", "b"], "edges": {}},
    "edge_row_short": {"format": GRAPH, "vertices": ["a", "b"],
                       "edges": [["a", "b"]]},
    "edge_row_string": {"format": GRAPH, "vertices": ["a", "b"], "edges": ["ab"]},
    "edge_undeclared": {"format": GRAPH, "vertices": ["a", "b"],
                        "edges": [["a", "z", 1]]},
    "edge_loop": {"format": GRAPH, "vertices": ["a", "b"], "edges": [["a", "a", 1]]},
    "label_boolean": {"format": GRAPH, "vertices": ["a", "b"],
                      "edges": [["a", "b", True]]},
    "label_zero": {"format": GRAPH, "vertices": ["a", "b"], "edges": [["a", "b", 0]]},
    "label_string": {"format": GRAPH, "vertices": ["a", "b"],
                     "edges": [["a", "b", "1"]]},
    "nodes_not_list": {"format": VINE, "nodes": {}},
    "node_row_incomplete": {"format": VINE, "nodes": [{"id": "a"}]},
    "rank_boolean": {"format": VINE,
                     "nodes": [{"id": "a", "rank": True, "covers": []}]},
    "covers_not_list": {"format": VINE,
                        "nodes": [{"id": "a", "rank": 1, "covers": "b"}]},
    "unknown_cover": {"format": VINE,
                      "nodes": [{"id": "a", "rank": 1, "covers": ["zz"]}]},
    "self_cover": {"format": VINE, "nodes": [{"id": "a", "rank": 1, "covers": ["a"]}]},
    "cyclic_covers": {"format": VINE,
                      "nodes": [{"id": "a", "rank": 1, "covers": ["b"]},
                                {"id": "b", "rank": 2, "covers": ["a"]}]},
    "forest_fields_not_lists": {"format": FORESTS, "elements": "12", "forests": []},
    "forest_triple": {"format": FORESTS, "elements": ["1", "2", "3"],
                      "forests": [[["1", "2", "3"]]]},
    "forest_loop": {"format": FORESTS, "elements": ["1", "2"],
                    "forests": [[["1", "1"]]]},
    "forest_number_reference": {"format": FORESTS, "elements": ["1", "2"],
                                "forests": [[["1", 2]]]},
    "forest_unknown_reference": {"format": FORESTS, "elements": ["1", "2"],
                                 "forests": [[["1", "9"]]]},
    "forest_repeated_pair": {"format": FORESTS, "elements": ["1", "2"],
                             "forests": [[["1", "2"], ["2", "1"]]]},
}


def file_reading_commands(path, out):
    return [["check", path], ["convert", "--psi", path, "--out", out],
            ["convert", "--omega", path, "--out", out], ["count-ideals", path],
            ["truncate", path, "--k", "1", "--direction", "lower", "--out", out],
            ["marginalize", path, "--node", "1", "--out", out],
            ["sampling-order", path], ["embed", path, "--out", out],
            ["glue", path, path, "--out", out], ["merge", path, path, "--out", out],
            ["extend", path, "--out", out], ["canon", path]]


class TestMalformedInput:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_every_file_command_exits_two(self, capsys, tmp_path, name):
        doc = MALFORMED[name]
        path = tmp_path / f"{name}.json"
        path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        out = tmp_path / "out.json"
        for argv in file_reading_commands(str(path), str(out)):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: "), argv
        assert not out.exists()


def writing_commands(graph, vine, out, dot, map_out, reps):
    """Every command that writes, each output flag with a path that works."""
    return {
        "convert_psi": ["convert", "--psi", graph, "--out", out, "--dot", dot],
        "convert_omega": ["convert", "--omega", vine, "--out", out, "--dot", dot],
        "truncate": ["truncate", vine, "--k", "2", "--direction", "lower",
                     "--out", out, "--dot", dot],
        "marginalize": ["marginalize", vine, "--node", "v1", "--out", out],
        "embed": ["embed", vine, "--out", out, "--map-out", map_out],
        "glue": ["glue", graph, graph, "--out", out],
        "merge": ["merge", graph, graph, "--out", out],
        "extend": ["extend", graph, "--out", out, "--dot", dot],
        "enumerate": ["enumerate", "4", "--emit-representatives", reps],
    }


WRITE_FAILURES = [
    (name, flag, kind)
    for name, argv in writing_commands("g", "v", "o", "d", "m", "r").items()
    for flag in argv if flag.startswith(("--out", "--dot", "--map-out", "--emit"))
    for kind in (("file_as_directory", "under_a_file") if flag.startswith("--emit")
                 else ("under_a_missing_directory", "directory_as_file"))]


class TestUnwritableOutput:
    @pytest.fixture
    def inputs(self, tmp_path, d4_graph):
        graph, vine = tmp_path / "g.json", tmp_path / "v.json"
        mio.save_structure(d4_graph, graph)
        mio.save_structure(psi(d4_graph), vine)
        (tmp_path / "a_file").write_text("")
        (tmp_path / "a_directory").mkdir()
        good = tmp_path / "good"
        return writing_commands(str(graph), str(vine), str(good / "o.json"),
                                str(good / "o.dot"), str(good / "map.json"),
                                str(good / "reps"))

    def test_every_command_writes_with_good_paths(self, capsys, tmp_path, inputs):
        (tmp_path / "good").mkdir()
        for argv in inputs.values():
            assert main(argv) == 0, argv
            capsys.readouterr()

    @pytest.mark.parametrize("name, flag, kind", WRITE_FAILURES)
    def test_each_unwritable_path_exits_two(self, capsys, tmp_path, inputs,
                                            name, flag, kind):
        (tmp_path / "good").mkdir()
        bad = {"under_a_missing_directory": tmp_path / "missing" / "x",
               "directory_as_file": tmp_path / "a_directory",
               "file_as_directory": tmp_path / "a_file",
               "under_a_file": tmp_path / "a_file" / "sub"}[kind]
        argv = list(inputs[name])
        argv[argv.index(flag) + 1] = str(bad)
        before = set(tmp_path.rglob("*"))
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: cannot write "), captured.err
        assert "Traceback" not in captured.err
        # the other output of a two-output command is not left behind
        assert set(tmp_path.rglob("*")) == before, argv


class TestArgumentConflicts:
    @pytest.mark.parametrize("extra", [["--kind", "d_vine", "--dim", "3"],
                                       ["--dim", "3"], ["--kind", "d_vine"]])
    def test_count_ideals_refuses_ignored_arguments(self, capsys, tmp_path, extra):
        path = tmp_path / "v.json"
        mio.save_structure(c_vine(3), path)
        assert main(["count-ideals", str(path), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["count-ideals"], ["count-ideals", "--dim", "3"],
                                      ["enumerate", "5", "--jobs", "0"],
                                      ["enumerate", "5", "--jobs", "-3"]])
    def test_refused_with_exit_two(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
