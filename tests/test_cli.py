"""Command-line interface tests.

Everything runs in-process through main(argv) so exit codes, stdout, stderr,
and written artifacts can be checked without spawning subprocesses."""

import json
import sys

import pytest

from bergecolor import (
    PrismSpec,
    gen_prism,
    gen_square_free_berge,
    parse_coloring_lines,
    read_col,
    tree_to_json,
    verify_coloring,
    write_col,
)
from bergecolor import cli
from bergecolor.cli import main

from conftest import complete, cycle, path_graph


def col(tmp_path, g, name="g.col"):
    path = tmp_path / name
    write_col(g, str(path))
    return str(path)


# --------------------------------------------------------------------- color


def test_color_to_stdout(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    assert main(["color", path]) == 0
    out, err = capsys.readouterr()
    c = parse_coloring_lines(out)
    assert verify_coloring(cycle(6), c).ok
    assert "colored 6 vertices with 2 colors" in err


def test_color_writes_artifacts(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    out_f = str(tmp_path / "c6.sol")
    rep_f = str(tmp_path / "c6.report.json")
    tr_f = str(tmp_path / "c6.trace")
    tree_f = str(tmp_path / "c6.tree.json")
    rc = main(
        ["color", path, "-o", out_f, "--report", rep_f, "--trace", tr_f,
         "--tree", tree_f]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""  # coloring went to the file

    c = parse_coloring_lines(open(out_f).read())
    assert verify_coloring(cycle(6), c).ok

    rep = json.load(open(rep_f))
    assert rep["schema"] == "bergecolor-report/1"
    assert rep["command"] == "color"
    assert rep["status"] == "success"
    assert rep["input"] == {"path": path, "n": 6, "m": 6}
    assert rep["checks"] == {"square_free": True, "berge": True}
    assert rep["omega"] == 2 and rep["colors_used"] == 2
    assert rep["stats"] == {
        "frames_tried": 6,
        "frames_pruned": 1,
        "swaps_applied": 0,
        "leaf_count": 3,
        "node_count": 5,
        "max_depth": 3,
    }
    assert isinstance(rep["wall_time_s"], float)

    assert open(tr_f).read() == ""  # no swaps on C6

    tree = json.load(open(tree_f))
    assert tree["schema"] == "bergecolor-tree/1"
    assert tree["root"]["vertices"] == [0, 1, 2, 3, 4, 5]


def test_color_trace_lines(tmp_path):
    g = gen_square_free_berge(9, 3)  # known to need six merge swaps
    path = col(tmp_path, g)
    tr_f = str(tmp_path / "t.trace")
    assert main(["color", path, "-o", str(tmp_path / "o"), "--trace", tr_f]) == 0
    events = [json.loads(line) for line in open(tr_f)]
    assert len(events) == 6
    assert all(e["event"] == "swap" for e in events)


def test_color_tree_dot(tmp_path):
    path = col(tmp_path, cycle(6))
    tree_f = str(tmp_path / "c6.dot")
    assert main(["color", path, "-o", str(tmp_path / "o"), "--tree", tree_f]) == 0
    text = open(tree_f).read()
    assert text.startswith("digraph decomposition {")
    assert text.endswith("}\n")


def test_color_square_input(tmp_path, capsys):
    path = col(tmp_path, cycle(4))
    rep_f = str(tmp_path / "r.json")
    assert main(["color", path, "--report", rep_f]) == 3
    assert "error:" in capsys.readouterr().err
    rep = json.load(open(rep_f))
    assert rep["status"] == "not-square-free"
    assert rep["witness"] == [0, 1, 2, 3]
    assert rep["checks"] == {"square_free": False, "berge": None}


def test_color_odd_hole_input(tmp_path, capsys):
    path = col(tmp_path, cycle(5))
    rep_f = str(tmp_path / "r.json")
    assert main(["color", path, "--report", rep_f]) == 4
    assert "error:" in capsys.readouterr().err
    rep = json.load(open(rep_f))
    assert rep["status"] == "not-berge"
    assert rep["witness"] == ["odd-hole", [0, 1, 2, 3, 4]]
    assert rep["checks"] == {"square_free": True, "berge": False}


def test_color_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.col"
    path.write_text("p edge 3 1\ne 1 4\n")
    assert main(["color", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_color_missing_file(tmp_path, capsys):
    assert main(["color", str(tmp_path / "absent.col")]) == 1
    assert "error:" in capsys.readouterr().err


def test_color_jobs_flag_same_output(tmp_path):
    g = gen_prism(PrismSpec((16, 18, 20)))
    path = col(tmp_path, g)
    a = str(tmp_path / "a.sol")
    b = str(tmp_path / "b.sol")
    assert main(["color", path, "-o", a, "--jobs", "1"]) == 0
    assert main(["color", path, "-o", b, "--jobs", "4"]) == 0
    assert open(a).read() == open(b).read()


def test_color_berge_cap_below_n_reports_unchecked(tmp_path):
    path = col(tmp_path, cycle(6))
    rep_f = str(tmp_path / "r.json")
    rc = main(["color", path, "-o", str(tmp_path / "o"), "--berge-cap", "5",
               "--report", rep_f])
    assert rc == 0
    assert json.load(open(rep_f))["checks"] == {"square_free": True, "berge": None}


@pytest.mark.parametrize(
    "argv",
    [
        ["color", "g.col", "--berge-cap", "-1"],
        ["color", "g.col", "--jobs", "0"],
        ["analyze", "g.col", "--berge-cap", "-1"],
    ],
)
def test_out_of_range_options_rejected_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_color_deep_tree_writes_json(tmp_path, monkeypatch):
    # a path decomposes about one level per vertex, deeper than the
    # interpreter's recursion limit allows a recursive walk or json.dumps
    trees = []
    monkeypatch.setattr(
        cli, "tree_to_json", lambda t: trees.append(t) or tree_to_json(t)
    )
    path = col(tmp_path, path_graph(600))
    rep_f = str(tmp_path / "r.json")
    tree_f = tmp_path / "t.json"
    try:
        rc = main(["color", path, "-o", str(tmp_path / "o"), "--report", rep_f,
                   "--tree", str(tree_f)])
        assert rc == 0
        with open(tree_f, "rb") as fh:
            assert fh.read(32).startswith(b'{\n  "root": {\n    "children": [')
            fh.seek(-4, 2)
            assert fh.read() == b'"\n}\n'
    finally:
        tree_f.unlink(missing_ok=True)  # over 300 MB, nearly all indentation
    stats = json.load(open(rep_f))["stats"]
    (tree,) = trees
    assert tree.depth() == stats["max_depth"] > sys.getrecursionlimit() // 2
    assert tree.node_count() == stats["node_count"]


@pytest.mark.parametrize("command", ["color", "verify", "analyze"])
def test_non_ascii_graph_file_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "bad.col"
    path.write_bytes(b"p edge 2 1\ne 1 2\nc caf\xc3\xa9\n")
    argv = [command, str(path)]
    if command == "verify":
        sol = tmp_path / "s.sol"
        sol.write_text("v 1 1\nv 2 2\n")
        argv += ["--coloring", str(sol)]
    assert main(argv) == 2
    assert "line 3: non-ASCII byte 0xc3" in capsys.readouterr().err


def test_color_trust_berge_skips_check(tmp_path):
    path = col(tmp_path, cycle(6))
    rep_f = str(tmp_path / "r.json")
    rc = main(["color", path, "-o", str(tmp_path / "o"), "--trust-berge",
               "--report", rep_f])
    assert rc == 0
    assert json.load(open(rep_f))["checks"]["berge"] is None


# -------------------------------------------------------------------- verify


def test_verify_valid_coloring(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    sol = tmp_path / "c6.sol"
    sol.write_text("v 1 1\nv 2 2\nv 3 1\nv 4 2\nv 5 1\nv 6 2\n")
    assert main(["verify", path, "--coloring", str(sol)]) == 0
    assert "coloring valid: 2 colors" in capsys.readouterr().out


def test_verify_coloring_conflict(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    sol = tmp_path / "c6.sol"
    sol.write_text("v 1 1\nv 2 1\nv 3 1\nv 4 2\nv 5 1\nv 6 2\n")
    assert main(["verify", path, "--coloring", str(sol)]) == 1
    assert "improper-edge (0, 1)" in capsys.readouterr().out


def test_verify_coloring_too_many_colors(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    sol = tmp_path / "c6.sol"
    sol.write_text("v 1 1\nv 2 2\nv 3 1\nv 4 2\nv 5 1\nv 6 3\n")
    assert main(["verify", path, "--coloring", str(sol)]) == 1
    assert "too-many-colors" in capsys.readouterr().out


def test_verify_coloring_json_form(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    sol = tmp_path / "c6.json"
    sol.write_text(json.dumps({
        "schema": "bergecolor-coloring/1",
        "colors": [[0, 1], [1, 2], [2, 1], [3, 2], [4, 1], [5, 2]],
    }))
    assert main(["verify", path, "--coloring", str(sol)]) == 0


def test_verify_coloring_garbage_file(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    sol = tmp_path / "junk"
    sol.write_text("not a coloring\n")
    assert main(["verify", path, "--coloring", str(sol)]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"schema": "bergecolor-coloring/1"},  # no "colors"
        {"colors": 5},
        {"colors": [[0, 1, 2]]},
        {"colors": [[0, 1], [1, 2], [1, 1], [2, 1], [3, 2], [4, 1], [5, 2]]},
    ],
)
def test_verify_coloring_malformed_json(tmp_path, capsys, doc):
    path = col(tmp_path, cycle(6))
    sol = tmp_path / "c6.json"
    sol.write_text(json.dumps(doc))
    assert main(["verify", path, "--coloring", str(sol)]) == 2
    assert "bad coloring file" in capsys.readouterr().err


def test_verify_coloring_conflicting_duplicate_line(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    sol = tmp_path / "c6.sol"
    sol.write_text("v 1 1\nv 2 1\nv 2 2\nv 3 1\nv 4 2\nv 5 1\nv 6 2\n")
    assert main(["verify", path, "--coloring", str(sol)]) == 2
    assert "line 3: vertex 2 already has color 1" in capsys.readouterr().err


def test_verify_partition_valid(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    part = tmp_path / "p.json"
    part.write_text(json.dumps({
        "K1": [1], "K2": [], "K3": [3, 4], "L": [0, 5], "R": [2],
    }))
    assert main(["verify", path, "--partition", str(part)]) == 0
    assert "partition valid" in capsys.readouterr().out


def test_verify_partition_invalid(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    part = tmp_path / "p.json"
    # K2 = {2} is no clique extension: 2 is adjacent to neither 1 nor 4
    part.write_text(json.dumps({
        "K1": [1], "K2": [2], "K3": [3, 4], "L": [0, 5], "R": [],
    }))
    assert main(["verify", path, "--partition", str(part)]) == 1
    assert "partition invalid: condition" in capsys.readouterr().out


def test_verify_partition_not_a_partition(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    part = tmp_path / "p.json"
    part.write_text(json.dumps({
        "K1": [1], "K2": [], "K3": [3], "L": [0, 5], "R": [2],  # 4 missing
    }))
    assert main(["verify", path, "--partition", str(part)]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_partition_bad_json(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    part = tmp_path / "p.json"
    part.write_text("{oops")
    assert main(["verify", path, "--partition", str(part)]) == 2


def test_verify_partition_undecodable_bytes(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    part = tmp_path / "p.json"
    part.write_bytes(b'{"K1": [1], "\xff": []}')
    assert main(["verify", path, "--partition", str(part)]) == 2


# ----------------------------------------------------------------------- gen


def test_gen_prism(tmp_path, capsys):
    out = str(tmp_path / "prism.col")
    assert main(["gen", "prism", "2", "2", "2", "-o", out]) == 0
    g = read_col(out)
    assert (g.n, g.m) == (9, 12)
    assert g.edges() == gen_prism(PrismSpec((2, 2, 2))).edges()
    meta = json.load(open(out + ".json"))
    assert meta == {
        "schema": "bergecolor-instance/1",
        "construction": "prism",
        "params": {"lengths": [2, 2, 2]},
        "n": 9,
        "m": 12,
    }
    assert "wrote" in capsys.readouterr().err


def test_gen_hyperprism(tmp_path):
    out = str(tmp_path / "hp.col")
    assert main(["gen", "hyperprism", "2,2", "2", "2", "-o", out]) == 0
    g = read_col(out)
    assert g.n == 12
    meta = json.load(open(out + ".json"))
    assert meta["params"] == {"strips": [[2, 2], [2], [2]]}


def test_gen_lk4(tmp_path):
    out = str(tmp_path / "lk4.col")
    assert main(["gen", "lk4", "2", "2", "2", "2", "2", "2", "-o", out]) == 0
    assert read_col(out).n == 12


def test_gen_random_matches_library(tmp_path):
    out = str(tmp_path / "r.col")
    assert main(["gen", "random", "15", "-o", out, "--seed", "3"]) == 0
    assert read_col(out).edges() == gen_square_free_berge(15, 3).edges()
    meta = json.load(open(out + ".json"))
    assert meta["params"] == {"n": 15, "seed": 3}


def test_gen_bad_params(tmp_path, capsys):
    out = str(tmp_path / "x.col")
    assert main(["gen", "prism", "1", "2", "3", "-o", out]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["gen", "random", "-o", out]) == 1
    assert main(["gen", "hyperprism", "2,2", "2", "-o", out]) == 1


def test_gen_then_color_round_trip(tmp_path, capsys):
    out = str(tmp_path / "p.col")
    sol = str(tmp_path / "p.sol")
    assert main(["gen", "prism", "4", "4", "4", "-o", out]) == 0
    assert main(["color", out, "-o", sol]) == 0
    assert main(["verify", out, "--coloring", sol]) == 0


# ------------------------------------------------------------------- analyze


def test_analyze_prism(tmp_path, capsys):
    path = col(tmp_path, gen_prism(PrismSpec((2, 2, 2))))
    rep_f = str(tmp_path / "a.json")
    assert main(["analyze", path, "--report", rep_f]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["square_free"] is True
    assert rep["berge"] is True
    assert rep["omega"] == 3
    assert rep["maximal_cliques"] == 8
    assert rep["good_partition"] is True
    assert json.load(open(rep_f)) == rep


def test_analyze_clique_has_no_partition(tmp_path, capsys):
    path = col(tmp_path, complete(4))
    assert main(["analyze", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["good_partition"] is False
    assert rep["triads"] == 0


def test_analyze_square(tmp_path, capsys):
    path = col(tmp_path, cycle(4))
    assert main(["analyze", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["square_free"] is False
    assert rep["square"] == [0, 1, 2, 3]
    assert rep["good_partition"] is None


def test_analyze_beyond_berge_cap(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    assert main(["analyze", path, "--berge-cap", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["berge"] is None


# ------------------------------------------------------------------- general


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert "bergecolor" in capsys.readouterr().out
