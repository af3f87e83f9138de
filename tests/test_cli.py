"""Command-line interface tests.

Everything runs in-process through main(argv) so exit codes, stdout, stderr,
and written artifacts can be checked without spawning subprocesses."""

import io
import json
import os
import stat
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecolor import (
    BergeViolation,
    GoodPartition,
    InternalViolation,
    PrismSpec,
    SolveStats,
    TreeNode,
    gen_prism,
    gen_square_free_berge,
    parse_coloring_lines,
    read_col,
    tree_to_dot,
    tree_to_json,
    verify_coloring,
    write_col,
)
from bergecolor import cli, generators, solver
from bergecolor.cli import build_parser, main
from bergecolor.graphs import mask_of, maximal_cliques_in

from conftest import NO_PARTITION_GRAPHS, complete, cycle, hexagon_chain, path_graph
from oracles import true_twin_blowup


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
        "frames_tried": 0,
        "frames_pruned": 0,
        "swaps_applied": 0,
        "leaf_count": 2,
        "node_count": 3,
        "max_depth": 2,
    }
    assert isinstance(rep["wall_time_s"], float)

    assert open(tr_f).read() == ""  # no swaps on C6

    tree = json.load(open(tree_f))
    assert tree["schema"] == "bergecolor-tree/3"
    assert tree["nodes"][0]["vertices"] == [0, 1, 2, 3, 4, 5]
    assert [n.get("peeled") for n in tree["nodes"]] == [
        None, [1, 5, 0], [1, 2, 3, 4, 5]
    ]
    assert len(tree["nodes"]) == rep["stats"]["node_count"]


def test_color_trace_lines(tmp_path):
    g = gen_square_free_berge(25, 1)  # known to need six merge swaps
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


@pytest.mark.parametrize("command", ["color", "analyze"])
def test_vertex_count_over_the_limit_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "huge.col"
    path.write_text("p edge 10000000 0\n")
    assert main([command, str(path)]) == 2
    assert "line 1: 10000000 vertices is over the limit" in capsys.readouterr().err


def test_color_missing_file(tmp_path, capsys):
    assert main(["color", str(tmp_path / "absent.col")]) == 1
    assert "error:" in capsys.readouterr().err


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
        ["color", "g.col", "--trust-berge", "--berge-cap", "-1"],
        ["analyze", "g.col", "--berge-cap", "-1"],
    ],
)
def test_out_of_range_options_rejected_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    assert ei.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def _split_chain(n):
    """A decomposition-shaped tree over the path 0..n-1, built bottom-up:
    each internal node cuts its lowest vertex off (R = {i}, K2 = {i + 1}),
    its first child is the rest of the chain and its second the edge
    {i, i + 1}, so the tree is n - 3 levels deep."""
    node = TreeNode(vertices=mask_of(range(n - 4, n)))
    for i in range(n - 5, -1, -1):
        node = TreeNode(
            vertices=mask_of(range(i, n)),
            partition=GoodPartition(
                k1=mask_of(()),
                k2=mask_of({i + 1}),
                k3=mask_of(()),
                l=mask_of(range(i + 2, n)),
                r=mask_of({i}),
                triad=(i, i + 2, i + 4),
            ),
            children=(node, TreeNode(vertices=mask_of((i, i + 1)))),
        )
    return node


def test_color_deep_tree_writes_json(tmp_path, monkeypatch):
    # tree export, depth() and iter_nodes() must work on a tree deeper than
    # the interpreter's recursion limit allows a recursive walk of.  Peeling
    # colors a path in one node, so a stand-in for color() returns a real
    # coloring with a chain of one-vertex splits in place of its tree.
    n = 600
    real = cli.color

    def deep(g, **kwargs):
        result = real(g, **kwargs)
        result.tree = _split_chain(g.n)
        result.stats = SolveStats(
            node_count=2 * g.n - 7, leaf_count=g.n - 3, max_depth=g.n - 3
        )
        return result

    trees = []
    monkeypatch.setattr(cli, "color", deep)
    monkeypatch.setattr(
        cli, "tree_to_json", lambda t: trees.append(t) or tree_to_json(t)
    )
    path = col(tmp_path, path_graph(n))
    rep_f = str(tmp_path / "r.json")
    tree_f = tmp_path / "t.json"
    rc = main(["color", path, "-o", str(tmp_path / "o"), "--report", rep_f,
               "--tree", str(tree_f)])
    assert rc == 0
    assert tree_f.stat().st_size < 10_000_000
    with open(tree_f) as fh:
        doc = json.load(fh)  # at the default recursion limit
    stats = json.load(open(rep_f))["stats"]
    (tree,) = trees
    # one compact node per line; comparing through a bool keeps pytest from
    # diffing two multi-megabyte strings when they differ
    want = ('{"nodes": [\n'
            + ",\n".join(json.dumps(node, sort_keys=True) for node in doc["nodes"])
            + '\n], "schema": "bergecolor-tree/3"}\n')
    same = tree_f.read_text() == want
    assert same, "the tree file is not one compact JSON node per line"
    assert doc == tree_to_json(tree)
    assert doc["nodes"][0]["vertices"] == list(range(n))
    assert len(doc["nodes"]) == stats["node_count"] == tree.node_count()
    assert tree.leaf_count() == stats["leaf_count"]
    assert tree.depth() == stats["max_depth"] > sys.getrecursionlimit() // 2
    assert tree_to_dot(tree).count("->") == stats["node_count"] - 1


def _stack_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_color_deep_chain_within_a_low_recursion_limit(tmp_path, capsys):
    # a 300-hexagon chain has a decomposition tree 301 levels deep; the
    # solve walks it with explicit stacks, so 200 frames above this one are
    # enough
    g = hexagon_chain(300)
    path = col(tmp_path, g)
    out_f = tmp_path / "chain.sol"
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 200)
    try:
        rc = main(["color", path, "-o", str(out_f)])
    finally:
        sys.setrecursionlimit(old)
    assert rc == 0
    c = parse_coloring_lines(out_f.read_text())
    assert verify_coloring(g, c).ok
    assert sorted(set(c.values())) == [1, 2]
    assert "colored 1202 vertices with 2 colors" in capsys.readouterr().err


def test_color_large_clique(tmp_path, capsys):
    # exited 1 with a recursion error: leaf coloring recursed once per
    # vertex, and now the node peels every vertex instead
    path = col(tmp_path, complete(1100))
    rep_f = tmp_path / "r.json"
    out_f = tmp_path / "k.sol"
    assert main(["color", path, "-o", str(out_f), "--report", str(rep_f)]) == 0
    c = parse_coloring_lines(out_f.read_text())
    assert sorted(c.values()) == list(range(1, 1101))
    rep = json.load(open(rep_f))
    assert rep["omega"] == rep["colors_used"] == 1100
    assert rep["stats"]["node_count"] == 1
    assert "Traceback" not in capsys.readouterr().err


def test_color_error_writes_report(tmp_path, capsys):
    # C5 is not Berge; with the check skipped its core is a leaf that the
    # peel cannot empty, and the leaf check raises BergeViolation from
    # inside color(), which blames the input
    path = col(tmp_path, cycle(5))
    rep_f = str(tmp_path / "r.json")
    assert main(["color", path, "--trust-berge", "--report", rep_f]) == 4
    err = capsys.readouterr().err
    assert "leaf core of 5 vertices has no simplicial vertex" in err
    rep = json.load(open(rep_f))
    assert rep["status"] == "not-berge"
    assert rep["error"] in err
    assert isinstance(rep["wall_time_s"], float)
    assert rep["checks"]["square_free"] is True


def test_color_heawood_exits_0(tmp_path, capsys):
    # the Heawood graph has no simplicial vertex and no good partition; its
    # leaf core is bipartite and 2-colored, with the Berge check run or not
    path = col(tmp_path, NO_PARTITION_GRAPHS["heawood"]())
    sol = str(tmp_path / "h.sol")
    for flags in ([], ["--trust-berge"]):
        assert main(["color", path, "-o", sol, *flags]) == 0
        assert main(["verify", path, "--coloring", sol]) == 0
        assert max(parse_coloring_lines(open(sol).read()).values()) == 2
    assert "error" not in capsys.readouterr().err


def test_color_heawood_with_a_true_twin_exits_0(tmp_path, capsys):
    # vertex 0 doubled: no simplicial vertex, no good partition and not
    # bipartite, but its twin classes form the Heawood graph; 3 colors
    path = col(tmp_path, true_twin_blowup(NO_PARTITION_GRAPHS["heawood"](), [0]))
    sol = str(tmp_path / "h.sol")
    for flags in ([], ["--trust-berge"]):
        assert main(["color", path, "-o", sol, *flags]) == 0
        assert main(["verify", path, "--coloring", sol]) == 0
        assert max(parse_coloring_lines(open(sol).read()).values()) == 3
    assert "error" not in capsys.readouterr().err


def test_parser_is_reused_without_carrying_flags(tmp_path, capsys):
    # main parses every call with one parser; a flag given to one call
    # must not reach the next
    path = col(tmp_path, cycle(5))
    assert main(["color", path, "--trust-berge"]) == 4  # the leaf check fails
    assert main(["color", path]) == 4  # the Berge check runs again
    assert cli.build_parser() is cli.build_parser()
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "n,flags",
    [
        (5, ["--trust-berge"]),  # the peel leaves a leaf's core non-empty
        (7, ["--trust-berge"]),  # the merge runs out of swaps
        (101, []),  # over the default --berge-cap of 64
    ],
)
def test_color_not_berge_with_the_check_skipped(tmp_path, capsys, n, flags):
    # with the Berge check skipped, a failed leaf check or merge proves the
    # input is not Berge; it exits 4 like a named hole, not 5 like a bug
    path = col(tmp_path, cycle(n))
    rep_f = str(tmp_path / "r.json")
    assert main(["color", path, "--report", rep_f, *flags]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: input is not Berge (")
    assert "no odd hole or antihole was named" in err
    assert "internal violation" not in err and "Traceback" not in err
    rep = json.load(open(rep_f))
    assert rep["status"] == "not-berge"
    assert rep["checks"] == {"square_free": True, "berge": False}
    assert rep["witness"] is None
    assert rep["error"] in err


def test_berge_violation_with_the_check_run_is_internal(tmp_path, capsys, monkeypatch):
    # once the Berge check has passed, running out of swaps is a bug
    def exhausted(*args, **kwargs):
        raise BergeViolation("no reducing swap left")

    monkeypatch.setattr(solver, "merge_colorings", exhausted)
    path = col(tmp_path, cycle(6))
    rep_f = str(tmp_path / "r.json")
    assert main(["color", path, "--report", rep_f]) == 5
    assert "internal violation: no reducing swap left" in capsys.readouterr().err
    rep = json.load(open(rep_f))
    assert rep["status"] == "error"
    # the check ran and passed before the merge failed
    assert rep["checks"] == {"square_free": True, "berge": True}


@pytest.mark.parametrize("flags", [["--trust-berge"], ["--berge-cap", "5"]])
def test_internal_error_with_the_check_skipped_leaves_berge_unknown(
    tmp_path, capsys, monkeypatch, flags
):
    # an error that does not blame the input says nothing of Berge-ness
    # when the check did not run
    def broken(*args, **kwargs):
        raise InternalViolation("merged coloring is improper")

    monkeypatch.setattr(solver, "merge_colorings", broken)
    path = col(tmp_path, cycle(6))
    rep_f = str(tmp_path / "r.json")
    assert main(["color", path, "--report", rep_f, *flags]) == 5
    assert "internal violation: merged coloring is improper" in capsys.readouterr().err
    rep = json.load(open(rep_f))
    assert rep["status"] == "error"
    assert rep["checks"] == {"square_free": True, "berge": None}


def test_color_long_odd_hole_is_not_berge(tmp_path, capsys):
    # the hole is longer than the recursion limit; the odd-hole search keeps
    # its own stack and names it
    path = col(tmp_path, cycle(1201), "c1201.col")
    rep_f = str(tmp_path / "r.json")
    assert main(["color", path, "--berge-cap", "1300", "--report", rep_f]) == 4
    assert "odd-hole" in capsys.readouterr().err
    rep = json.load(open(rep_f))
    assert rep["status"] == "not-berge"
    assert rep["witness"] == ["odd-hole", list(range(1201))]


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
        {"colors": [[float("inf"), 1]]},  # JSON's Infinity has no int value
        {"colors": [[0.9, 1], [True, 2.5]]},  # int() would truncate these
        # a proper 2-coloring of C6 but for the types of its values
        {"colors": [[0, 1.0], [1, 2], [2, True], [3, 2], [4, 1], [5.0, 2]]},
        # nested deeper than the json module's recursion allows
        '{"colors": ' + "[" * 100_000,
    ],
)
def test_verify_coloring_malformed_json(tmp_path, capsys, doc):
    path = col(tmp_path, cycle(6))
    sol = tmp_path / "c6.json"
    sol.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["verify", path, "--coloring", str(sol)]) == 2
    assert "bad coloring file" in capsys.readouterr().err


def test_verify_coloring_conflicting_duplicate_line(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    sol = tmp_path / "c6.sol"
    sol.write_text("v 1 1\nv 2 1\nv 2 2\nv 3 1\nv 4 2\nv 5 1\nv 6 2\n")
    assert main(["verify", path, "--coloring", str(sol)]) == 2
    assert "line 3: vertex 2 already has color 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, code, said",
    [
        ('{"colors": [[0, 1], [1099511627776, 1]]}', 1, "unknown-vertex (1099511627776,)"),
        ("v 1 1\nv 1099511627777 1\n", 1, "unknown-vertex (1099511627776,)"),
        ('{"colors": [[0, 1], [-1, 1]]}', 1, "unknown-vertex (-1,)"),
        ('{"colors": [[0, 0], [1, 2], [2, 1], [3, 2], [4, 1], [5, 2]]}', 1,
         "bad-color-value (0, 0)"),
        ('{"colors": [[0, -2], [1, 2], [2, 1], [3, 2], [4, 1], [5, 2]]}', 1,
         "bad-color-value (0, -2)"),
        ('{"colors": [[0, true], [1, 2]]}', 2, "True is not an integer"),
        ('{"colors": [[0, 1000000000], [1, 2]]}', 1, "uncolored-vertex (2,)"),
        ("v 1 1000000000\nv 2 2\n", 1, "uncolored-vertex (2,)"),
    ],
    ids=[
        "json-vertex-2**40", "sol-vertex-2**40", "json-vertex--1", "json-color-0",
        "json-color--2", "json-color-true", "json-color-10**9", "sol-color-10**9",
    ],
)
def test_verify_coloring_out_of_range_values_cost_no_memory(tmp_path, capsys, text, code, said):
    # a coloring file's vertices and colors are checked as values before
    # any of them is shifted into a class mask: 1 << 2**40 alone would be a
    # 128 GiB int, and a class list for color 10**9 several GB
    path = col(tmp_path, cycle(6))
    sol = tmp_path / "c6.sol"
    sol.write_text(text)
    build_parser()  # built once per process, outside the measurement
    tracemalloc.start()
    try:
        rc = main(["verify", path, "--coloring", str(sol)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rc == code
    out, err = capsys.readouterr()
    assert said in out + err


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


def test_verify_partition_vertex_out_of_range(tmp_path, capsys):
    # rejected before it becomes a mask: 1 << 2**40 would be a 128 GiB int
    path = col(tmp_path, cycle(6))
    part = tmp_path / "p.json"
    part.write_text(json.dumps({
        "K1": [1], "K2": [], "K3": [3, 4], "L": [0, 5], "R": [2, 2**40],
    }))
    assert main(["verify", path, "--partition", str(part)]) == 1
    assert f"vertex {2**40} out of range 0..5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",  # not an object
        '{"K1": [1]}',  # K2, K3, L and R missing
        '{"K1": [1.0], "K2": [], "K3": [3, 4], "L": [0, 5], "R": [2]}',
    ],
)
def test_verify_partition_not_five_integer_lists(tmp_path, capsys, text):
    # a parse error, as for a coloring file of the same fault
    path = col(tmp_path, cycle(6))
    part = tmp_path / "p.json"
    part.write_text(text)
    assert main(["verify", path, "--partition", str(part)]) == 2
    assert "bad partition file" in capsys.readouterr().err


def test_verify_partition_bad_json(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    part = tmp_path / "p.json"
    part.write_text("{oops")
    assert main(["verify", path, "--partition", str(part)]) == 2


def test_verify_partition_nested_too_deep(tmp_path, capsys):
    path = col(tmp_path, cycle(6))
    part = tmp_path / "p.json"
    part.write_text("[" * 100_000)
    assert main(["verify", path, "--partition", str(part)]) == 2
    assert "bad partition file" in capsys.readouterr().err


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
    capsys.readouterr()
    for argv in (["prism", "a", "2", "2"], ["hyperprism", "2,x", "2", "2"],
                 ["lk4", "2", "2", "2", "2", "2", "2.5"], ["random", "ten"]):
        assert main(["gen", *argv, "-o", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: parameter ") and "not an integer" in err
        assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "params, n",
    [
        (["prism", "10000000001", "1", "1"], 10000000006),
        (["hyperprism", "10000000001", "1", "1"], 10000000006),
        (["lk4", "1000000", "2", "2", "2", "2", "2"], 1000010),
        (["random", "10000000000"], 10000000000),
    ],
)
def test_gen_over_the_vertex_limit_builds_nothing(tmp_path, capsys, monkeypatch, params, n):
    # `color` refuses a file over the parser's vertex limit, so `gen` refuses
    # to write one, from the vertex count alone; the generators' Graph is
    # stubbed out, since building such a graph runs out of memory or time
    def unbuilt(*args, **kwargs):
        raise AssertionError("a graph over the vertex limit was built")

    unbuilt._of_masks = unbuilt
    monkeypatch.setattr(generators, "Graph", unbuilt)
    out = str(tmp_path / "huge.col")
    assert main(["gen", *params, "-o", out]) == 1
    assert capsys.readouterr().err == f"error: {n} vertices is over the limit of 1000000\n"
    assert not os.path.exists(out) and not os.path.exists(out + ".json")


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


def test_analyze_enumerates_maximal_cliques_once(tmp_path, capsys, monkeypatch):
    # analyze enumerates the cliques it reports; the partition search does
    # not, since the prism splits off a single vertex before any frame
    calls = 0

    def counted(g, allowed):
        nonlocal calls
        calls += 1
        return maximal_cliques_in(g, allowed)

    for mod in ("bergecolor.cli", "bergecolor.graphs", "bergecolor.partition"):
        monkeypatch.setattr(f"{mod}.maximal_cliques_in", counted)
    path = col(tmp_path, gen_prism(PrismSpec((2, 2, 2))))
    assert main(["analyze", path]) == 0
    assert json.loads(capsys.readouterr().out)["good_partition"] is True
    assert calls == 1


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


def test_analyze_large_clique(tmp_path, capsys):
    # deeper than the recursion limit if the clique search recursed per vertex
    path = col(tmp_path, complete(1100))
    assert main(["analyze", path]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["omega"], rep["maximal_cliques"], rep["triads"]) == (1100, 1, 0)
    assert rep["good_partition"] is False


# ------------------------------------------------------------- file output


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_output_files_follow_the_umask(tmp_path, capsys, umask_022):
    # every file the CLI writes gets the mode open(path, "w") would give it
    # (0o666 less the umask), and no temp file is left beside them
    def path(name):
        return str(tmp_path / name)

    assert main(["gen", "prism", "2", "2", "2", "-o", path("g.col")]) == 0
    assert main([
        "color", path("g.col"), "-o", path("g.sol"), "--report", path("g.report"),
        "--trace", path("g.trace"), "--tree", path("g.tree.json"),
    ]) == 0
    assert main(["color", path("g.col"), "--tree", path("g.dot")]) == 0
    assert main(["analyze", path("g.col"), "--report", path("g.analysis")]) == 0
    names = [
        "g.analysis", "g.col", "g.col.json", "g.dot", "g.report", "g.sol",
        "g.trace", "g.tree.json",
    ]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for p in tmp_path.iterdir():
        assert stat.S_IMODE(p.stat().st_mode) == 0o644, p.name


def test_failed_rename_leaves_no_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    assert main(["gen", "prism", "2", "2", "2", "-o", str(tmp_path / "g.col")]) == 1
    assert "rename refused" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------- fuzz


@st.composite
def dimacs_texts(draw, stray: bool = True):
    """DIMACS text of a graph with n <= 12; with `stray`, sometimes a stray
    line too."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [f"p edge {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
    strays = st.one_of(
        st.builds("e {} {}".format, st.integers(-1, 14), st.integers(-1, 14)),
        st.sampled_from(["c note", "", "p edge 2 1", "e 1", "x 1 2", "p edge a 0"]),
    )
    for line in draw(st.lists(strays, max_size=2)) if stray else ():
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


# floats that no int() conversion takes as they are
ODD_FLOATS = st.sampled_from([1.5, 1e300, float("inf"), float("-inf"), float("nan")])
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-2, 14) | ODD_FLOATS | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["colors", "K1", "K2", "K3", "L", "R"]), inner),
    max_leaves=12,
)
ANY_BYTES = st.binary(max_size=300)
# coloring files: 'v i c' lines, and JSON whose pairs hold any scalars
COLORING_FILES = (
    ANY_BYTES
    | st.lists(
        st.builds("v {} {}".format, st.integers(-1, 14), st.integers(-1, 14)), max_size=14
    ).map(lambda lines: "\n".join(lines).encode())
    | st.lists(st.lists(JSON_SCALARS, min_size=2, max_size=2), max_size=5).map(
        lambda pairs: json.dumps({"colors": pairs}).encode()
    )
    | JSON_VALUES.map(lambda v: json.dumps(v).encode())
)
# partition files: JSON with the five keys, vertex lists or any values
PARTITION_FILES = (
    ANY_BYTES
    | st.fixed_dictionaries(
        {key: st.lists(st.integers(-1, 12), max_size=5) | JSON_VALUES
         for key in ("K1", "K2", "K3", "L", "R")}
    ).map(lambda d: json.dumps(d).encode())
    | JSON_VALUES.map(lambda v: json.dumps(v).encode())
)
# (arguments, graph files, second files): color and analyze see stray DIMACS
# lines; the verify commands see well-formed graphs, so that the coloring
# or partition file is read
FUZZ_COMMANDS = {
    "color": (
        ["color", "{g}", "--report", "{d}/report"],
        ANY_BYTES | dimacs_texts().map(str.encode),
        None,
    ),
    "analyze": (["analyze", "{g}"], ANY_BYTES | dimacs_texts().map(str.encode), None),
    "verify-coloring": (
        ["verify", "{g}", "--coloring", "{f}"],
        ANY_BYTES | dimacs_texts(stray=False).map(str.encode),
        COLORING_FILES,
    ),
    "verify-partition": (
        ["verify", "{g}", "--partition", "{f}"],
        ANY_BYTES | dimacs_texts(stray=False).map(str.encode),
        PARTITION_FILES,
    ),
}


@pytest.mark.parametrize("name", list(FUZZ_COMMANDS))
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_any_input_maps_to_an_exit_code(name, data):
    args, graph_files, second_files = FUZZ_COMMANDS[name]
    with tempfile.TemporaryDirectory() as d:
        files = {"g": os.path.join(d, "g.col"), "f": os.path.join(d, "second"), "d": d}
        with open(files["g"], "wb") as fh:
            fh.write(data.draw(graph_files, label="graph"))
        if second_files is not None:
            with open(files["f"], "wb") as fh:
                fh.write(data.draw(second_files, label="second"))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([arg.format(**files) for arg in args])
    assert rc in range(6)
    assert "Traceback" not in out.getvalue() + err.getvalue()


# ------------------------------------------------------------------- general


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert "bergecolor" in capsys.readouterr().out
