"""Tests for the decomposition solver: the full pipeline, the leaf check,
tree invariants, and serialization of the decomposition record."""

import hashlib
import json
import random

import pytest

from bergecolor import (
    BergeViolation,
    ColoringVerdict,
    Graph,
    InternalViolation,
    NotBerge,
    NotSquareFree,
    PartialColoring,
    PrismSpec,
    SolveStats,
    color,
    gen_prism,
    gen_square_free_berge,
    line_graph,
    omega,
    tree_to_dot,
    tree_to_json,
    verify_coloring,
)
from bergecolor import partition, solver
from bergecolor.graphs import (
    bit_list,
    contains_square,
    mask_of,
    maximal_cliques_in,
)

from conftest import (
    NO_PARTITION_GRAPHS,
    complete,
    complete_minus_star,
    cycle,
    path_graph,
)
from oracles import (
    brute_good_partition,
    clique_gluing,
    naive_chromatic_number,
    naive_color_peeled,
    naive_is_clique,
    naive_peel,
    naive_subgraph,
    naive_verify_coloring,
    true_twin_blowup,
)
from test_output_digest import DEEP_SPINES


# ----------------------------------------------------------- verify_coloring
#
# A coloring read from a file reaches verify_coloring as a {vertex: color}
# dict whose entries may be anything; most of these tests pass one.


def test_verify_accepts_proper_optimal():
    v = verify_coloring(cycle(6), {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2})
    assert v.ok and bool(v)
    assert v.reason is None


def test_verify_uncolored_vertex():
    v = verify_coloring(cycle(6), {0: 1, 1: 2, 2: 1, 3: 2, 4: 1})
    assert not v.ok
    assert v.reason == "uncolored-vertex"
    assert v.witness == (5,)


def test_verify_unknown_vertex():
    colors = {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1}
    v = verify_coloring(cycle(6), colors)
    assert v.reason == "unknown-vertex"
    assert v.witness == (6,)
    assert verify_coloring(cycle(6), PartialColoring(colors)) == v


@pytest.mark.parametrize("badval", [0, -2, True])
def test_verify_bad_color_value(badval):
    v = verify_coloring(cycle(6), {0: badval, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2})
    assert v.reason == "bad-color-value"
    assert v.witness == (0, badval)


def test_verify_improper_edge():
    v = verify_coloring(cycle(6), {0: 1, 1: 1, 2: 1, 3: 2, 4: 1, 5: 2})
    assert v.reason == "improper-edge"
    assert v.witness == (0, 1)


def test_verify_too_many_colors():
    # proper with 3 colors, but omega(C6) = 2
    v = verify_coloring(cycle(6), {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 3})
    assert v.reason == "too-many-colors"
    assert v.witness == (3, 2)


def test_verdict_is_falsy_only_when_bad():
    assert bool(ColoringVerdict(True))
    assert not bool(ColoringVerdict(False, "improper-edge", (0, 1)))


# ------------------------------------------------------------------- color()


def test_color_trivial_graphs():
    r = color(Graph(0))
    assert r.colors_used == 0
    assert r.tree.vertices == 0
    r = color(Graph(1))
    assert r.coloring.colors == {0: 1}


def test_color_even_cycle_frozen():
    r = color(cycle(6))
    assert r.colors_used == 2
    assert verify_coloring(cycle(6), r.coloring).ok
    assert r.coloring.colors == {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2}
    # C6 has no simplicial vertex, so the root searches the whole cycle
    assert r.tree.peeled == ()
    p = r.tree.partition
    # the single-vertex partition of vertex 0: no frame is built
    assert [bit_list(m) for m in p.sets()] == [[1], [], [5], [0], [2, 3, 4]]
    assert r.tree.triad == (0, 2, 4)
    # both children are paths, peeled whole into leaves with an empty core
    first, second = r.tree.children
    assert bit_list(first.vertices) == [0, 1, 5]
    assert first.peeled == (1, 5, 0)
    assert bit_list(second.vertices) == [1, 2, 3, 4, 5]
    assert second.peeled == (1, 2, 3, 4, 5)
    assert first.is_leaf() and second.is_leaf()
    assert r.stats.frames_tried == 0
    assert r.stats.frames_pruned == 0
    assert r.stats.node_count == 3
    assert r.stats.leaf_count == 2
    assert r.stats.max_depth == 2
    assert r.stats.berge_checked


def test_color_long_path_is_one_node():
    # one node peels the whole path; the recursive solve used to nest once
    # per vertex and overflow the interpreter's stack
    g = path_graph(1000)
    r = color(g)
    assert r.colors_used == 2
    assert verify_coloring(g, r.coloring).ok
    assert r.stats.node_count == 1
    assert r.tree.peeled == tuple(range(1000))


def _color_bipartite_draw(n: int, seed: int) -> SolveStats:
    g = gen_square_free_berge(n, seed)
    r = color(g)
    assert r.colors_used == 2
    assert verify_coloring(g, r.coloring).ok
    return r.stats


# Bipartite draws whose frame search once ran for minutes; no benchmark
# workload holds them.  Every node now splits off a single vertex, so no
# frame is built.  With the frame search alone, each child resuming its
# anchor scan where its parent's succeeded, (200, 0) took 201 nodes, 665
# frames tried and 4,106,640 pruned, and (400, 33) 941 tried and
# 15,222,058 pruned; with every child scanning from its first pair,
# (200, 0) took 52,500,020 pruned and (400, 33) 316,643,746.


def test_random_200_0_colors():
    stats = _color_bipartite_draw(200, 0)
    assert stats.node_count == 199
    assert stats.frames_tried == 0
    assert stats.frames_pruned == 0


def test_random_400_33_colors():
    stats = _color_bipartite_draw(400, 33)
    assert stats.node_count == 293
    assert stats.frames_tried == 0
    assert stats.frames_pruned == 0


def test_graphs_without_good_partitions_color_with_two_colors():
    # no simplicial vertex and no good partition: the root is a leaf whose
    # core is the whole graph, 2-colored by BFS layer parity
    for name, make in NO_PARTITION_GRAPHS.items():
        g = make()
        r = color(g)
        assert r.colors_used == 2, name
        assert verify_coloring(g, r.coloring).ok, name
        assert r.tree.is_leaf() and r.tree.peeled == (), name
        assert r.stats.frames_tried == 0 and r.stats.frames_pruned > 0, name


def test_leaf_color_two_colors_a_bipartite_core_by_layer_parity():
    # two Heawood graphs side by side: each component's layers alternate
    # from its lowest vertex, so both lowest vertices take color 1
    heawood = NO_PARTITION_GRAPHS["heawood"]()
    edges = heawood.edges()
    g = Graph(28, edges + [(u + 14, v + 14) for u, v in edges])
    c, clique = solver.leaf_color(g, g.full_mask)
    assert c.colors_used() == 2 and c.color_of(0) == c.color_of(14) == 1
    assert verify_coloring(g, c).ok
    # the witness is the edge at the lowest core vertex
    assert clique == 1 << 0 | 1 << 1
    # an odd cycle in the core: no coloring is made up for it
    with pytest.raises(BergeViolation, match="is not bipartite"):
        solver.leaf_color(cycle(5), cycle(5).full_mask)
    c, clique = solver.leaf_color(g, 0)
    assert c.classes == [] and clique == 0


def _twin_blowups():
    """The 12 blow-ups of the graphs without good partitions: each with
    vertex 0 given a true twin, and with every vertex given one."""
    out = {}
    for name, make in NO_PARTITION_GRAPHS.items():
        h = make()
        out[f"{name}+0"] = true_twin_blowup(h, [0])
        out[f"{name}+all"] = true_twin_blowup(h, range(h.n))
    return out


def test_leaf_color_weights_the_classes_of_true_twins():
    # Heawood with vertex 0 doubled (vertex 14): the quotient by closed
    # neighbourhoods is the Heawood graph, class {0, 14} of weight 2 on the
    # side of 0; k = 3, reached first by {0, 14} and its lowest neighbour 1
    g = _twin_blowups()["heawood+0"]
    c, clique = solver.leaf_color(g, g.full_mask)
    assert clique == 1 << 0 | 1 << 14 | 1 << 1
    assert verify_coloring(g, c).ok and c.colors_used() == 3 == omega(g)
    # a class takes 1..w on the first side and the top w of 3 on the other
    assert (c.color_of(0), c.color_of(14), c.color_of(1), c.color_of(2)) == (1, 2, 3, 1)


def test_twin_blowups_of_leaf_cores_color_with_omega_colors():
    # no simplicial vertex and no good partition, and not bipartite: the
    # root is a leaf whose core is colored through its twin classes
    blowups = _twin_blowups()
    assert brute_good_partition(blowups["heawood+0"]) is None
    for name, g in blowups.items():
        assert not contains_square(g), name
        r = color(g, berge_cap=16)
        assert r.stats.berge_checked == (g.n <= 16), name
        assert r.colors_used == omega(g) == (3 if name.endswith("+0") else 4), name
        assert verify_coloring(g, r.coloring).ok, name
        assert r.tree.is_leaf() and r.tree.peeled == (), name


def _clique_gluings():
    """80 seeded clique gluings of two or three parts: 40 of small random
    draws, most with n <= 11, and 40 of the graphs without good partitions,
    their line graphs and larger random draws."""
    rng = random.Random(25)
    bases = [make() for make in NO_PARTITION_GRAPHS.values()]
    pool = bases + [line_graph(h) for h in bases]
    out = []
    for seed in range(80):
        parts = []
        for _ in range(rng.randint(2, 3)):
            if seed < 40:
                parts.append(gen_square_free_berge(rng.randint(3, 6), rng.randrange(20)))
            elif rng.random() < 0.6:
                parts.append(rng.choice(pool))
            else:
                parts.append(gen_square_free_berge(rng.randint(10, 40), rng.randrange(20)))
        out.append(clique_gluing(parts, seed))
    return out


# SHA-256 pins of the two gluing families' output (see `_frame_record`):
# the only digests that cover nodes running the frame phase.  Pinned with
# every frame phase scanning its anchor pairs from the first, and each
# child resuming its vertex scan at the lowest vertex of its parent's L.
GLUINGS_EXPECTED = (
    "f10ed0f126a4be7ea9536c3a1eaab0164a94fbf8bab6b633763fe40d1127ef88"
)
BLOWUP_GLUINGS_EXPECTED = (
    "10e57212fa45215744c4805e86c3781ec50e5cfe1f5c8052966a1d8a2a5a7173"
)


def _frame_record(h, r, events: list) -> None:
    """Add one solve to the digest `h`: its sorted coloring, tree, swap
    trace, and frames tried and pruned."""
    record = [
        sorted(r.coloring.colors.items()),
        tree_to_json(r.tree),
        events,
        [r.stats.frames_tried, r.stats.frames_pruned],
    ]
    h.update(json.dumps(record, sort_keys=True).encode() + b"\n")


def test_clique_gluings_color_with_omega_colors():
    # square-free Berge by construction, so the Berge check is skipped; the
    # gluings with a bipartite girth-6 part keep the frame phase at work
    small = framed = searched = 0
    h = hashlib.sha256()
    for g in _clique_gluings():
        events: list = []
        r = color(g, trust_berge=True, trace=events)
        _frame_record(h, r, events)
        assert r.colors_used == omega(g)
        assert verify_coloring(g, r.coloring).ok
        assert naive_is_clique(g, bit_list(r.clique))
        assert r.clique.bit_count() == omega(g)
        if g.n <= 11:
            assert r.colors_used == naive_chromatic_number(g)
            small += 1
        framed += r.stats.frames_tried > 0
        searched += r.stats.frames_pruned > 0
    assert small >= 30 and framed >= 5 and searched >= 20
    assert h.hexdigest() == GLUINGS_EXPECTED


def _blowup_gluings():
    """30 seeded clique gluings of two or three parts, each part a twin
    blow-up of a graph without good partitions or a random draw."""
    rng = random.Random(26)
    pool = list(_twin_blowups().values())
    out = []
    for seed in range(30):
        parts = []
        for _ in range(rng.randint(2, 3)):
            if rng.random() < 0.7:
                parts.append(rng.choice(pool))
            else:
                parts.append(gen_square_free_berge(rng.randint(10, 40), rng.randrange(20)))
        out.append(clique_gluing(parts, 100 + seed))
    return out


def test_twin_blowup_gluings_color_with_omega_colors():
    h = hashlib.sha256()
    for g in _blowup_gluings():
        events: list = []
        r = color(g, trust_berge=True, trace=events)
        _frame_record(h, r, events)
        assert r.colors_used == omega(g)
        assert verify_coloring(g, r.coloring).ok
        assert naive_is_clique(g, bit_list(r.clique))
        assert r.clique.bit_count() == omega(g)
    assert h.hexdigest() == BLOWUP_GLUINGS_EXPECTED


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


def test_color_checks_for_squares_once(monkeypatch):
    # the Berge check is told that the square check has passed; a square is
    # still reported before an odd hole
    calls = 0

    def counted(g):
        nonlocal calls
        calls += 1
        return contains_square(g)

    monkeypatch.setattr("bergecolor.graphs.contains_square", counted)
    r = color(gen_prism(PrismSpec((3, 3, 3))))
    assert r.stats.berge_checked and calls == 1
    square_and_hole = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 0)] + [
        (4 + i, 4 + (i + 1) % 5) for i in range(5)
    ])
    with pytest.raises(NotSquareFree):
        color(square_and_hole)


def test_color_enumerates_maximal_cliques_once(corpus_graphs, monkeypatch):
    # the witness clique certifies omega, so Bron-Kerbosch runs only in a
    # frame phase, once, after its first anchor pair: never on the corpus,
    # whose nodes all split off a single vertex or peel to an empty core
    phases = []  # per frame phase: [anchor pairs reached, enumerations]
    search, pairs = partition._frame_search, partition._anchored_pairs

    def counted_search(*args):
        phases.append([0, 0])
        return search(*args)

    def counted_pairs(*args):
        for pair in pairs(*args):
            phases[-1][0] += 1
            yield pair

    def counted(g, allowed):
        assert phases and phases[-1][0] > 0
        phases[-1][1] += 1
        return maximal_cliques_in(g, allowed)

    monkeypatch.setattr(partition, "_frame_search", counted_search)
    monkeypatch.setattr(partition, "_anchored_pairs", counted_pairs)
    for mod in ("bergecolor.graphs", "bergecolor.partition"):
        monkeypatch.setattr(f"{mod}.maximal_cliques_in", counted)
    for name, g in corpus_graphs:
        color(g)
    assert phases and all(calls == 0 for _, calls in phases)
    for make in NO_PARTITION_GRAPHS.values():
        color(make())
    assert all(calls == (reached > 0) for reached, calls in phases)
    assert sum(calls for _, calls in phases) == len(NO_PARTITION_GRAPHS)


def test_verify_with_given_clique_number_matches(corpus_graphs):
    # the final check of color() passes omega(g); the verdict is the one
    # verify_coloring reaches by computing omega itself.  Each coloring is
    # mutated, and its dict form, its PartialColoring built from the dict
    # and its class list taken as is all get the reference's verdict
    reasons = set()
    for name, g in corpus_graphs:
        classes = color(g, trust_berge=True).coloring.classes
        c = PartialColoring.of_classes(classes).colors
        w = omega(g)
        u, v = g.edges()[0]
        cu, cv = c[u] - 1, c[v] - 1
        moved = classes[:]  # v moved into its neighbour u's class
        moved[cv] &= ~(1 << v)
        moved[cu] |= 1 << v
        dropped = classes[:]  # the last vertex uncolored
        dropped[c[g.n - 1] - 1] &= ~(1 << (g.n - 1))
        extra = classes[:] + [1 << v]  # v alone in one extra color
        extra[cv] &= ~(1 << v)
        evens = mask_of(range(0, g.n, 2))
        variants = [
            (c, classes),
            ({**c, v: c[u]}, moved),
            ({k: col for k, col in c.items() if k != g.n - 1}, dropped),
            ({**c, v: w + 1}, extra),
            ({**c, u: w + 1, v: w + 2}, None),  # proper, over omega
            ({**c, g.n: 1}, [classes[0] | 1 << g.n, *classes[1:]]),  # out of range
            # by parity: improper pairs in both classes, the first named
            ({k: k % 2 + 1 for k in range(g.n)}, [evens, g.full_mask & ~evens]),
        ]
        for colors, masks in variants:
            want = verify_coloring(g, PartialColoring(colors))
            assert (want.reason, want.witness) == naive_verify_coloring(g, colors, w)
            assert verify_coloring(g, colors) == want, name
            assert verify_coloring(g, colors, clique_number=w) == want, name
            if masks is not None:
                pc = PartialColoring.of_classes(masks)
                assert verify_coloring(g, pc, clique_number=w) == want, name
            reasons.add(want.reason)
        # v kept in its own class and added to u's has no dict form
        shared = classes[:]
        shared[cu] |= 1 << v
        verdict = verify_coloring(g, PartialColoring.of_classes(shared))
        assert verdict == ColoringVerdict(False, "shared-vertex", (v,)), name
    assert reasons == {
        None,
        "improper-edge",
        "uncolored-vertex",
        "too-many-colors",
        "unknown-vertex",
    }


def test_trust_berge_still_fails_loud():
    # C5 sneaks past the skipped Berge check, but it has no triad, so no
    # good partition, and no simplicial vertex: the leaf check refuses its
    # core of five vertices
    with pytest.raises(BergeViolation, match="leaf core of 5 vertices"):
        color(cycle(5), trust_berge=True)


def test_berge_cap_skips_check():
    r = color(cycle(6), berge_cap=3)
    assert r.colors_used == 2
    assert not r.stats.berge_checked
    assert color(cycle(6)).stats.berge_checked


# ------------------------------------------------------------ tree structure


def _check_tree(g, tree):
    for node in tree.iter_nodes():
        vs = node.vertices
        assert len(set(node.peeled)) == len(node.peeled)
        assert mask_of(node.peeled) & ~vs == 0
        if node.is_leaf():
            assert node.partition is None and node.triad is None
        else:
            # the partition and the children cover the core exactly
            core = vs & ~mask_of(node.peeled)
            p = node.partition
            assert p.k1 | p.k2 | p.k3 | p.l | p.r == core
            assert sum(m.bit_count() for m in p.sets()) == core.bit_count()
            assert node.children[0].vertices == core & ~p.r
            assert node.children[1].vertices == core & ~p.l
            # the triad comes from the verification of condition (v): three
            # pairwise non-adjacent core vertices meeting L and R
            t = mask_of(node.triad)
            assert t.bit_count() == 3 and t & ~core == 0
            assert all(g.mask(v) & t == 0 for v in node.triad)
            assert t & p.l and t & p.r
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
    g = gen_square_free_berge(25, 1)
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
        assert e["class"] == "free"
        assert e["bad_after"] < e["bad_before"]
        assert len(e["pair"]) == 2


def test_witness_clique_certifies_omega(corpus_graphs):
    # the solve's own clique has omega(g) vertices and is a clique of g; the
    # two gluing tests check the same on their families
    graphs = [g for _, g in corpus_graphs]
    graphs += [gen_square_free_berge(n, s) for n in (40, 80, 120) for s in range(5)]
    graphs += [make() for make in NO_PARTITION_GRAPHS.values()]
    graphs += list(_twin_blowups().values())
    for g in graphs:
        r = color(g, trust_berge=True)
        assert naive_is_clique(g, bit_list(r.clique))
        assert r.clique.bit_count() == r.colors_used == omega(g)


def test_color_refuses_a_witness_that_is_no_clique(monkeypatch):
    # C6's witness is an edge; a non-edge of two vertices, or one vertex
    # against a 2-coloring, fails the final check
    solve = solver._solve
    for fake, message in ((1 << 0 | 1 << 2, "not a clique"), (1 << 0, "has 1")):
        def faked(g, stats, events, fake=fake):
            coloring, _, tree = solve(g, stats, events)
            return coloring, fake, tree

        monkeypatch.setattr(solver, "_solve", faked)
        with pytest.raises(InternalViolation, match=message):
            color(cycle(6))


def test_peel_removes_simplicial_vertices_until_none_is_left(corpus_graphs, monkeypatch):
    # at every node: the peel of the piece, seeded with the parent's cutset
    # and run in the input's labels, equals full ascending scans of the
    # whole piece (so the seeds miss no simplicial vertex); each peeled
    # vertex's neighbourhood at removal is a clique, no core vertex is
    # simplicial in the core, and each peeled vertex's color is at most the
    # size of that neighbourhood plus one
    peel, extend = solver._peel, solver._color_peeled
    peeled_total = seeded = 0

    def checked_peel(g, seeds, keep):
        nonlocal peeled_total, seeded
        core, peeled = peel(g, seeds, keep)
        piece, order = naive_subgraph(g, bit_list(keep))
        expected = [(order[v], {order[u] for u in nb}) for v, nb in naive_peel(piece)]
        assert [(v, set(bit_list(nb))) for v, nb in peeled] == expected
        rest = set(bit_list(keep))
        for v, nb in peeled:
            assert naive_is_clique(g, bit_list(nb))
            rest.discard(v)
        assert core == mask_of(rest)
        for u in rest:
            assert not naive_is_clique(g, [w for w in rest if g.adjacent(u, w)])
        peeled_total += len(peeled)
        seeded += seeds != keep
        return core, peeled

    def checked_extend(core, peeled, clique):
        coloring, clique2 = extend(core, peeled, clique)
        colors = coloring.colors
        for v, nb in peeled:
            assert colors[v] <= nb.bit_count() + 1 <= clique2.bit_count()
            assert colors[v] not in {colors[u] for u in bit_list(nb)}
        return coloring, clique2

    monkeypatch.setattr(solver, "_peel", checked_peel)
    monkeypatch.setattr(solver, "_color_peeled", checked_extend)
    # in these two draws a K2 vertex becomes simplicial in a child
    graphs = [g for _, g in corpus_graphs]
    graphs += [gen_square_free_berge(51, 5), gen_square_free_berge(57, 4)]
    for g in graphs:
        r = color(g, trust_berge=True)
        assert r.colors_used == omega(g)
    assert peeled_total > 1000 and seeded > 500


def test_peel_coloring_matches_the_dict_version(corpus_graphs, monkeypatch):
    # at every node, the class-mask peel coloring gives each peeled vertex
    # the color, and the piece's witness clique the size k, that the lowest
    # color missing from its neighbourhood's colors gives on a
    # {vertex: color} dict
    extend = solver._color_peeled
    nodes = 0

    def checked(coloring, peeled, clique):
        nonlocal nodes
        want = naive_color_peeled(coloring.colors, peeled, clique.bit_count())
        out, clique2 = extend(coloring, peeled, clique)
        assert (out.colors, clique2.bit_count()) == want
        nodes += 1
        return out, clique2

    monkeypatch.setattr(solver, "_color_peeled", checked)
    total = 0
    for _, g in corpus_graphs:
        total += color(g, trust_berge=True).stats.node_count
    assert nodes == total > 1000


def test_each_node_searches_once_and_each_leaf_is_checked_empty(corpus_graphs, monkeypatch):
    # one search per node, one leaf check per leaf and one merge per
    # internal node, each through the solver's module attribute; every
    # leaf core is empty, and no Graph is constructed during a solve
    init = Graph.__init__
    search, check, merge = (
        solver.find_good_partition, solver.leaf_color, solver.merge_colorings
    )
    calls = {"init": 0, "search": 0, "leaf": 0, "merge": 0}
    cores = []

    def counting_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    def checked_leaf(g, core):
        cores.append(core)
        return check(g, core)

    graphs = [g for _, g in corpus_graphs]
    graphs += [gen_square_free_berge(n, s) for n, s in DEEP_SPINES]
    monkeypatch.setattr(Graph, "__init__", counting_init)
    monkeypatch.setattr(solver, "find_good_partition", counting("search", search))
    monkeypatch.setattr(solver, "leaf_color", counting("leaf", checked_leaf))
    monkeypatch.setattr(solver, "merge_colorings", counting("merge", merge))
    nodes = leaves = 0
    for g in graphs:
        stats = color(g, trust_berge=True).stats
        nodes += stats.node_count
        leaves += stats.leaf_count
    assert calls["init"] == 0
    assert calls["search"] == nodes > 1400
    assert calls["leaf"] == len(cores) == leaves > 800
    assert calls["merge"] == nodes - leaves
    assert set(cores) == {0}


# ------------------------------------------------------------- serialization


def test_tree_to_json_shape():
    r = color(cycle(6))
    doc = tree_to_json(r.tree)
    assert doc["schema"] == "bergecolor-tree/3"
    nodes = doc["nodes"]
    assert len(nodes) == r.tree.node_count()
    root = nodes[0]
    assert root["vertices"] == [0, 1, 2, 3, 4, 5]
    assert len(root["children"]) == 2
    assert root["triad"] == [0, 2, 4]
    assert root["partition"] == {
        "K1": [1], "K2": [], "K3": [5], "L": [0], "R": [2, 3, 4],
    }
    # pre-order, first child first: the first child follows its parent, and
    # the second follows the first child's whole subtree
    assert [n["vertices"] for n in nodes] == [
        bit_list(t.vertices) for t in r.tree.iter_nodes()
    ]
    assert root["children"] == [1, 1 + r.tree.children[0].node_count()]
    # only a node that peeled vertices carries the key, in removal order
    assert "peeled" not in root
    assert [n.get("peeled") for n in nodes[1:]] == [
        list(t.peeled) for t in r.tree.iter_nodes()
    ][1:] == [[1, 5, 0], [1, 2, 3, 4, 5]]
    json.dumps(doc)  # must be serializable as-is


def test_tree_to_json_leaf():
    doc = tree_to_json(color(complete(4)).tree)
    assert doc["nodes"] == [{"vertices": [0, 1, 2, 3], "peeled": [0, 1, 2, 3]}]
    assert tree_to_json(color(cycle(6)).tree)["nodes"][0].keys() == {
        "vertices", "partition", "triad", "children"
    }


def test_tree_to_dot():
    r = color(cycle(6))
    dot = tree_to_dot(r.tree)
    assert dot.startswith("digraph decomposition {")
    assert dot.endswith("}\n")
    assert dot.count("->") == r.tree.node_count() - 1
    assert "leaf" in dot
    assert "triad=(0, 2, 4)" in dot
    assert dot.count("peeled=") == 2 and "peeled=5" in dot
