"""Tests for the decomposition solver: leaf coloring, the full pipeline,
tree invariants, and serialization of the decomposition record."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecolor import (
    ColoringVerdict,
    Graph,
    Infeasible,
    NotBerge,
    NotSquareFree,
    PartialColoring,
    PrismSpec,
    color,
    gen_prism,
    gen_square_free_berge,
    leaf_color,
    omega,
    tree_to_dot,
    tree_to_json,
    verify_coloring,
)

from conftest import complete, complete_minus_star, cycle
from oracles import naive_chromatic_number


def pc(d):
    return PartialColoring(d)


# ---------------------------------------------------------------- leaf_color


def test_leaf_color_even_cycle():
    c = leaf_color(cycle(6), 2)
    assert c.is_proper_on(cycle(6))
    assert c.colors_used() == 2


def test_leaf_color_clique_needs_n():
    c = leaf_color(complete(4), 4)
    assert c.colors_used() == 4
    with pytest.raises(Infeasible):
        leaf_color(complete(4), 3)


def test_leaf_color_odd_cycle():
    with pytest.raises(Infeasible):
        leaf_color(cycle(5), 2)
    c = leaf_color(cycle(5), 3)
    assert c.is_proper_on(cycle(5))
    assert c.colors_used() == 3


def test_leaf_color_empty_graph():
    assert leaf_color(Graph(0), 0).colors == {}


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_leaf_color_is_exact(g):
    chi = naive_chromatic_number(g)
    c = leaf_color(g, chi)
    assert c.is_proper_on(g)
    assert c.colors_used() <= chi
    if chi > 1:
        with pytest.raises(Infeasible):
            leaf_color(g, chi - 1)


# ----------------------------------------------------------- verify_coloring


def test_verify_accepts_proper_optimal():
    v = verify_coloring(cycle(6), pc({0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2}))
    assert v.ok and bool(v)
    assert v.reason is None


def test_verify_uncolored_vertex():
    v = verify_coloring(cycle(6), pc({0: 1, 1: 2, 2: 1, 3: 2, 4: 1}))
    assert not v.ok
    assert v.reason == "uncolored-vertex"
    assert v.witness == (5,)


def test_verify_unknown_vertex():
    v = verify_coloring(cycle(6), pc({0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1}))
    assert v.reason == "unknown-vertex"
    assert v.witness == (6,)


@pytest.mark.parametrize("badval", [0, -2, True])
def test_verify_bad_color_value(badval):
    v = verify_coloring(cycle(6), pc({0: badval, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2}))
    assert v.reason == "bad-color-value"
    assert v.witness == (0, badval)


def test_verify_improper_edge():
    v = verify_coloring(cycle(6), pc({0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 2}))
    assert v.reason == "improper-edge"
    assert v.witness == (0, 1)


def test_verify_too_many_colors():
    # proper with 3 colors, but omega(C6) = 2
    v = verify_coloring(cycle(6), pc({0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 3}))
    assert v.reason == "too-many-colors"
    assert v.witness == (3, 2)


def test_verdict_is_falsy_only_when_bad():
    assert bool(ColoringVerdict(True))
    assert not bool(ColoringVerdict(False, "improper-edge", (0, 1)))


# ------------------------------------------------------------------- color()


def test_color_trivial_graphs():
    r = color(Graph(0))
    assert r.colors_used == 0
    assert r.tree.vertices == ()
    r = color(Graph(1))
    assert r.coloring.colors == {0: 1}


def test_color_even_cycle_frozen():
    r = color(cycle(6))
    assert r.colors_used == 2
    assert verify_coloring(cycle(6), r.coloring).ok
    p = r.tree.partition
    assert (p.k1, p.k2, p.k3) == ({1}, frozenset(), {3, 4})
    assert (p.l, p.r) == ({0, 5}, {2})
    assert r.tree.triad == (0, 2, 4)
    assert r.tree.children[0].vertices == (0, 1, 3, 4, 5)
    assert r.tree.children[1].vertices == (1, 2, 3, 4)
    assert r.stats.frames_tried == 6
    assert r.stats.frames_pruned == 1
    assert r.stats.node_count == 5
    assert r.stats.leaf_count == 3
    assert r.stats.max_depth == 3
    assert r.stats.berge_checked


def test_color_clique_is_single_leaf():
    r = color(complete(4))
    assert r.colors_used == 4
    assert r.stats.frames_tried == 0
    assert r.stats.node_count == 1
    assert r.tree.is_leaf()
    assert r.tree.partition is None and r.tree.triad is None


def test_color_triad_free_is_single_leaf():
    # near-complete graph without stable sets of size three: nothing to
    # anchor a split, so the solver must go straight to exact leaf coloring
    g = complete_minus_star(7, 3)
    r = color(g)
    assert r.colors_used == omega(g) == 6
    assert r.stats.frames_tried == 0
    assert r.stats.node_count == 1


@pytest.mark.parametrize("lengths", [(2, 2, 2), (3, 3, 3), (2, 4, 6), (5, 5, 5)])
def test_color_prisms_use_three_colors(lengths):
    g = gen_prism(PrismSpec(lengths))
    r = color(g)
    assert r.colors_used == 3
    assert verify_coloring(g, r.coloring).ok
    assert not r.tree.is_leaf()


def test_color_rejects_square():
    with pytest.raises(NotSquareFree) as ei:
        color(cycle(4))
    assert ei.value.witness == (0, 1, 2, 3)


def test_color_rejects_odd_hole():
    with pytest.raises(NotBerge):
        color(cycle(5))


def test_trust_berge_still_fails_loud():
    # C5 sneaks past the skipped Berge check but has no triad, so the
    # leaf step demands a 2-coloring of an odd cycle and must refuse
    with pytest.raises(Infeasible):
        color(cycle(5), trust_berge=True)


def test_berge_cap_skips_check():
    r = color(cycle(6), berge_cap=3)
    assert r.colors_used == 2
    assert not r.stats.berge_checked
    assert color(cycle(6)).stats.berge_checked


# ------------------------------------------------------------ tree structure


def _check_tree(g, tree):
    for node in tree.iter_nodes():
        if node.is_leaf():
            assert node.partition is None and node.triad is None
        else:
            p = node.partition
            vs = set(node.vertices)
            for part in (p.k1, p.k2, p.k3, p.l, p.r):
                assert part <= vs
            assert node.children[0].vertices == tuple(sorted(vs - p.r))
            assert node.children[1].vertices == tuple(sorted(vs - p.l))
            assert set(node.triad) & p.l and set(node.triad) & p.r
    triads = [n.triad for n in tree.iter_nodes() if n.triad is not None]
    assert len(triads) == len(set(triads))
    assert tree.node_count() <= max(1, 3 * g.n**3)
    assert tree.depth() <= max(1, g.n)


def test_tree_structure_on_generated_graphs():
    for n, seed in [(9, 3), (12, 0), (15, 1), (20, 2), (24, 0)]:
        g = gen_square_free_berge(n, seed)
        r = color(g)
        _check_tree(g, r.tree)
        assert r.stats.node_count == r.tree.node_count()
        assert r.stats.leaf_count == r.tree.leaf_count()
        assert r.stats.max_depth == r.tree.depth()


def test_trace_events_record_strict_progress():
    ev = []
    g = gen_square_free_berge(9, 3)
    r = color(g, trace=ev)
    assert r.stats.swaps_applied == 6
    assert len(ev) == 6
    for e in ev:
        assert set(e) == {
            "event", "side", "seed", "pair", "class", "bad_before",
            "bad_after", "node_n",
        }
        assert e["event"] == "swap"
        assert e["side"] in (1, 2)
        assert e["class"] in ("free", "general")
        assert e["bad_after"] < e["bad_before"]
        assert len(e["pair"]) == 2


# ------------------------------------------------------------- serialization


def test_tree_to_json_shape():
    r = color(cycle(6))
    doc = tree_to_json(r.tree)
    assert doc["schema"] == "bergecolor-tree/1"
    root = doc["root"]
    assert root["vertices"] == [0, 1, 2, 3, 4, 5]
    assert len(root["children"]) == 2
    assert root["triad"] == [0, 2, 4]
    assert root["partition"] == {
        "K1": [1], "K2": [], "K3": [3, 4], "L": [0, 5], "R": [2],
    }
    json.dumps(doc)  # must be serializable as-is


def test_tree_to_json_leaf():
    doc = tree_to_json(color(complete(4)).tree)
    assert doc["root"] == {"vertices": [0, 1, 2, 3]}


def test_tree_to_dot():
    r = color(cycle(6))
    dot = tree_to_dot(r.tree)
    assert dot.startswith("digraph decomposition {")
    assert dot.endswith("}\n")
    assert dot.count("->") == r.tree.node_count() - 1
    assert "leaf" in dot
    assert "triad=(0, 2, 4)" in dot
