import random
import tracemalloc
from bisect import bisect_left
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecolor import (
    Frame,
    GoodPartition,
    Graph,
    InternalViolation,
    MalformedPartition,
    NotSquareFree,
    color,
    find_good_partition,
    find_triads,
    gen_square_free_berge,
    nested_order,
    refine_frame,
    verify_good_partition,
)
from bergecolor import partition
from bergecolor.graphs import bit_list, component_mask, mask_of, maximal_cliques_in
from bergecolor.partition import (
    _anchored_pairs,
    _disjoint_paths,
    _path_hits,
    _separate,
    _vertex_partition,
)

from conftest import NO_PARTITION_GRAPHS, complete, complete_minus_star, cycle
from oracles import (
    brute_good_partition,
    enumerate_frames,
    naive_anchor_pairs,
    naive_components,
    naive_disjoint_paths,
    naive_good_partition_check,
    naive_shortest_interior,
    naive_skipped_pairs,
    naive_both_sides_vertex,
    naive_subgraph,
    naive_vertex_partition,
    naive_violating_path,
)


def gp(k1=(), k2=(), k3=(), l=(), r=()):
    return GoodPartition(
        k1=mask_of(k1),
        k2=mask_of(k2),
        k3=mask_of(k3),
        l=mask_of(l),
        r=mask_of(r),
    )


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 0):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


# --- verify_good_partition ---------------------------------------------------


def test_c6_partition_valid():
    c6 = cycle(6)
    verdict = verify_good_partition(c6, gp(k1=[0], k3=[3], l=[1, 2], r=[4, 5]))
    assert verdict.ok and bool(verdict)


def test_c6_partition_nonclique_k2():
    # moving 2 into K2 breaks "K1 union K2 is a clique" (0 and 2 non-adjacent)
    c6 = cycle(6)
    verdict = verify_good_partition(c6, gp(k1=[0], k2=[2], k3=[3], l=[1], r=[4, 5]))
    assert not verdict.ok and verdict.condition == "ii"


def test_malformed_partition_raises():
    c6 = cycle(6)
    with pytest.raises(MalformedPartition):
        verify_good_partition(c6, gp(k1=[0], k3=[3], l=[1, 2], r=[4]))  # 5 missing
    with pytest.raises(MalformedPartition):
        verify_good_partition(c6, gp(k1=[0, 1], k3=[3], l=[1, 2], r=[4, 5]))
    with pytest.raises(MalformedPartition):
        verify_good_partition(c6, gp(k1=[0], k3=[3], l=[1, 2], r=[4, 5, 6]))


def test_condition_i_violations():
    c6 = cycle(6)
    v = verify_good_partition(c6, gp(k1=[0], k3=[3], l=[], r=[1, 2, 4, 5]))
    assert not v.ok and v.condition == "i"
    # 2-3 is an edge crossing L-R
    v = verify_good_partition(c6, gp(k1=[0], l=[1, 2], r=[3, 4, 5]))
    assert not v.ok and v.condition == "i" and set(v.witness) == {2, 3}


def test_condition_iii_violation():
    # K1 = {0,1} is a clique; the path 0-3-2 reaches K3 = {2} through L while
    # 3 misses vertex 1, so no path vertex is complete to K1
    g = Graph(5, [(0, 1), (0, 3), (3, 2)])
    v = verify_good_partition(g, gp(k1=[0, 1], k3=[2], l=[3], r=[4]))
    assert not v.ok and v.condition == "iii"
    assert v.witness == (2, 3, 0)  # reported K3-end first


def test_condition_iv_violation():
    # K1-K3 edge exists and L-vertex 2 sees both ends
    g = Graph(4, [(0, 1), (0, 2), (1, 2)])
    v = verify_good_partition(g, gp(k1=[0], k3=[1], l=[2], r=[3]))
    assert not v.ok and v.condition == "iv"
    assert v.witness[0] == 2


def test_condition_v_violation():
    # C5 split leaves no triad straddling L and R
    c5 = cycle(5)
    v = verify_good_partition(c5, gp(k1=[0], k3=[2], l=[1], r=[3, 4]))
    assert not v.ok and v.condition == "v"


def test_verify_prism_partition():
    import bergecolor as bc

    p = bc.gen_prism(bc.PrismSpec((2, 2, 2)))
    part = gp(k1=[1, 2], k3=[6], l=[0], r=[3, 4, 5, 7, 8])
    assert verify_good_partition(p, part).ok


@given(graphs(max_n=7, min_n=2), st.randoms(use_true_random=False))
@settings(max_examples=250, deadline=None)
def test_verify_matches_naive_checker(g, rnd):
    labels = [rnd.randrange(5) for _ in range(g.n)]
    parts = [
        frozenset(v for v in range(g.n) if labels[v] == i) for i in range(5)
    ]
    p = gp(*parts)
    assert bool(verify_good_partition(g, p)) == naive_good_partition_check(
        g, *[set(s) for s in parts]
    )


# --- nested_order ------------------------------------------------------------


def test_nested_order_sorts_by_reach():
    # clique {0,1,2} against clique {3,4}: 0 sees both, 1 sees one, 2 none
    g = Graph(
        5,
        [(0, 1), (0, 2), (1, 2), (3, 4), (0, 3), (0, 4), (1, 3)],
    )
    assert nested_order(g, mask_of([2, 0, 1]), mask_of([3, 4])) == [0, 1, 2]


def test_nested_order_tie_breaks_ascending():
    g = Graph(4, [(0, 1), (2, 3)])  # neither 0 nor 1 sees {2,3}
    assert nested_order(g, mask_of([1, 0]), mask_of([2, 3])) == [0, 1]


def test_nested_order_raises_on_square():
    # 0 sees only 2, 1 sees only 3: neighborhoods incomparable
    g = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    with pytest.raises(NotSquareFree) as exc:
        nested_order(g, mask_of([0, 1]), mask_of([2, 3]))
    a, b, c, d = exc.value.witness
    assert g.adjacent(a, b) and g.adjacent(b, c) and g.adjacent(c, d)
    assert g.adjacent(d, a) and not g.adjacent(a, c) and not g.adjacent(b, d)


# --- refine_frame ------------------------------------------------------------


def _prism():
    import bergecolor as bc

    return bc.gen_prism(bc.PrismSpec((2, 2, 2)))


def test_refine_frame_hand_worked_prism():
    p = _prism()
    fr = Frame(q1=mask_of((1, 2)), q3=mask_of((6,)), x=0, y=3, c1=1, c3=6)
    part = refine_frame(p, fr)
    assert part is not None
    assert part == gp(k1=[1, 2], k2=[], k3=[6], l=[0], r=[3, 4, 5, 7, 8])
    assert verify_good_partition(p, part).ok


def test_refine_frame_empty_anchor_drops_side():
    # with no anchor on the Q1 side the cutset is just {6}, which does not
    # separate 0 from 3, so the frame dies
    p = _prism()
    fr = Frame(q1=mask_of((1, 2)), q3=mask_of((6,)), x=0, y=3, c1=None, c3=6)
    assert refine_frame(p, fr) is None


# The hand-worked prism frame: K'1 = {1, 2} anchored at 1, K'3 = {6}, x = 0
# and y = 3.  Rung i runs i - (6 + i) - (3 + i), so N(0) = {1, 2, 6} and
# N(7) = {1, 4}.  Each guard test feeds the loop a witness that the real
# condition tests never give.
_HAND_WORKED = Frame(q1=mask_of((1, 2)), q3=mask_of((6,)), x=0, y=3, c1=1, c3=6)


def test_refine_frame_iii_repair_that_keeps_k1_is_internal(monkeypatch):
    # a path whose last interior vertex 0 sees all of K'1 leaves K'1 whole
    monkeypatch.setattr(partition, "_violating_path", lambda g, k1, k3, lm: (6, 0, 1))
    with pytest.raises(InternalViolation, match=r"condition \(iii\) repair did not shrink K'1"):
        refine_frame(_prism(), _HAND_WORKED)


def test_refine_frame_iv_repair_that_keeps_k3_is_internal(monkeypatch):
    # vertex 7 has no neighbour in K'3, so removing N(7) keeps K'3 whole
    monkeypatch.setattr(partition, "_both_sides_vertex", lambda g, k1, k3, lm: 7)
    with pytest.raises(InternalViolation, match=r"condition \(iv\) repair did not shrink K'3"):
        refine_frame(_prism(), _HAND_WORKED)


class _Uncounted(int):
    """A mask whose size reads as zero."""

    def bit_count(self):
        return 0


def test_refine_frame_repair_past_its_budget_is_internal(monkeypatch):
    # a repair that passes its guard strictly shrinks K'1 or K'3, so the
    # repairs stay within |K'1| + |K'3| by themselves; with both sides'
    # sizes read as zero, one legitimate repair (a path ending in 7 shrinks
    # K'1 to {1}) is over the budget
    truncated = partition._truncated_side
    monkeypatch.setattr(
        partition, "_truncated_side", lambda *args: _Uncounted(truncated(*args))
    )
    monkeypatch.setattr(partition, "_violating_path", lambda g, k1, k3, lm: (6, 7, 1))
    with pytest.raises(InternalViolation, match="refinement exceeded its shrink budget"):
        refine_frame(_prism(), _HAND_WORKED)


def test_refine_frame_never_returns_a_rejected_partition(monkeypatch):
    # a verdict that fails on a condition no repair handles is a bug
    monkeypatch.setattr(partition, "_clique_defect", lambda g, m: (1, 2))
    with pytest.raises(InternalViolation, match="emitted a bad partition: condition ii"):
        refine_frame(_prism(), _HAND_WORKED)


# Real frames whose refinement repairs condition (iv) once, at the vertex
# given, and then returns (K1, K2, K3, L, R) or dies.  The searches of the
# benchmark workloads never meet such a repair.
_IV_REPAIRS = [
    (
        (6, 4),
        Frame(q1=0b11, q3=0b1100, x=4, y=5, c1=1, c3=3),
        4,
        ([1], [], [2], [3, 4], [0, 5]),
    ),
    (
        (7, 2),
        Frame(q1=0b110, q3=0b11000, x=0, y=6, c1=2, c3=3),
        0,
        ([2], [], [4], [0, 3, 5], [1, 6]),
    ),
    ((6, 5), Frame(q1=0b100001, q3=0b1100, x=4, y=1, c1=5, c3=3), 4, None),
]


@pytest.mark.parametrize("draw, frame, vertex, sets", _IV_REPAIRS)
def test_refine_frame_repairs_condition_iv(monkeypatch, draw, frame, vertex, sets):
    witnesses = []
    both_sides = partition._both_sides_vertex

    def spy(*args):
        u = both_sides(*args)
        if u is not None:
            witnesses.append(u)
        return u

    monkeypatch.setattr(partition, "_both_sides_vertex", spy)
    g = gen_square_free_berge(*draw)
    part = refine_frame(g, frame)
    assert witnesses == [vertex]
    if sets is None:
        assert part is None
    else:
        assert tuple(bit_list(m) for m in part.sets()) == sets
        assert verify_good_partition(g, part).ok


def test_refine_frame_output_always_verifies(corpus_graphs):
    # every partition a refinement emits must pass the checker (it re-verifies
    # internally; this guards the guard)
    checked = 0
    for name, g in corpus_graphs:
        if g.n > 20:
            continue
        for i, fr in enumerate(enumerate_frames(g)):
            if i >= 40:
                break
            part = refine_frame(g, fr)
            if part is not None:
                assert verify_good_partition(g, part).ok, name
                checked += 1
    assert checked > 50


def _random_cuts(g, rng, cliques):
    """Twenty (K1, K3, L) mask triples for g: half from a frame (two
    maximal cliques, random parts of their two sides, L random among the
    other vertices), half from a random split of the vertices into five
    sets, L often the largest, so K1 and K3 need not be cliques."""
    out = []
    for _ in range(20):
        if cliques and rng.random() < 0.5:
            q1, q3 = rng.choice(cliques), rng.choice(cliques)
            k1 = q1 & ~q3 & (rng.getrandbits(g.n) | rng.getrandbits(g.n))
            k3 = q3 & ~q1 & (rng.getrandbits(g.n) | rng.getrandbits(g.n))
            lm = rng.getrandbits(g.n) & ~(q1 | q3)
        else:
            weights = [1, 1, 1, rng.randint(1, 8), 1]
            part = rng.choices(range(5), weights, k=g.n)
            k1, k3, lm = (
                mask_of(v for v in range(g.n) if part[v] == s) for s in (0, 2, 3)
            )
        out.append((k1, k3, lm))
    return out


def test_cut_masks_match_the_per_vertex_scans(corpus_graphs):
    # conditions (iii) and (iv) are tested from the cut's neighbourhoods;
    # the witnesses are those of the scans over every vertex of L, on
    # corpus graphs and on random graphs, most of them not Berge
    rng = random.Random(17)
    graphs = [g for _, g in corpus_graphs if g.n <= 40]
    for _ in range(300):
        n = rng.randint(0, 30)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append(Graph(n, edges))
    paths = long = both = 0
    for g in graphs:
        for k1, k3, lm in _random_cuts(g, rng, maximal_cliques_in(g, g.full_mask)):
            path = partition._violating_path(g, k1, k3, lm)
            assert path == naive_violating_path(g, k1, k3, lm)
            u = partition._both_sides_vertex(g, k1, k3, lm)
            assert u == naive_both_sides_vertex(g, k1, k3, lm)
            paths += path is not None
            long += path is not None and len(path) > 3
            both += u is not None
    assert paths > 1000 and long > 300 and both > 1000


# --- enumeration and search --------------------------------------------------


def test_enumerate_frames_canonical_and_counted():
    c6 = cycle(6)
    frames = list(enumerate_frames(c6))
    assert len(frames) == 420
    anchors = [(f.x, f.y) for f in frames]
    assert anchors == sorted(anchors, key=lambda t: (t[0], t[1]))
    # every frame invariant holds: cliques avoid x,y; anchors contained
    for f in frames[:60]:
        q1, q3 = set(bit_list(f.q1)), set(bit_list(f.q3))
        c1 = set() if f.c1 is None else {f.c1}
        c3 = set() if f.c3 is None else {f.c3}
        assert f.x not in q1 and f.x not in q3
        assert f.y not in q1 and f.y not in q3
        assert c1 <= q1 - q3
        assert c3 <= q3 - q1
        assert all(c is None or isinstance(c, int) for c in (f.c1, f.c3))


def test_no_frames_without_triads():
    assert list(enumerate_frames(complete(4))) == []
    assert list(enumerate_frames(complete_minus_star(7, 3))) == []


def test_find_good_partition_c6_frozen(frame_phase):
    stats = {}
    part = find_good_partition(cycle(6), stats)
    assert part == gp(k1=[1], k2=[], k3=[3, 4], l=[0, 5], r=[2])
    assert stats == {"frames_tried": 5, "frames_pruned": 1}


def test_find_good_partition_c6_single_vertex_frozen():
    # vertex 0 splits off: its neighbours 1 and 5 are non-adjacent, so K2 is
    # empty, K1 = {1} and K3 = {5}; no frame is built
    stats = {}
    part = find_good_partition(cycle(6), stats)
    assert part == gp(k1=[1], k2=[], k3=[5], l=[0], r=[2, 3, 4])
    assert part.triad == (0, 2, 4)
    assert stats == {"frames_tried": 0, "frames_pruned": 0}


def test_find_good_partition_prism_frozen():
    part = find_good_partition(_prism())
    assert (part.k1, part.k3) == (mask_of([1, 2]), mask_of([6]))
    assert (part.l, part.r) == (mask_of([0]), mask_of([3, 4, 5, 7, 8]))


def test_find_good_partition_none_on_cliques():
    assert find_good_partition(complete(4)) is None
    assert find_good_partition(complete(1)) is None
    assert find_good_partition(complete_minus_star(8, 5)) is None


def _prune_cases(corpus_graphs):
    """(graph, anchor pairs): every small corpus graph with its first three
    anchor pairs, and omega-2 draws up to n = 40 with eight pairs spread over
    all of theirs."""
    for _, g in corpus_graphs:
        if g.n <= 12:
            yield g, list(islice(_anchored_pairs(g, g.full_mask), 3))
    for n, seed in ((20, 2), (30, 4), (40, 3), (40, 5)):
        g = gen_square_free_berge(n, seed)
        pairs = list(_anchored_pairs(g, g.full_mask))
        yield g, pairs[:: len(pairs) // 8 + 1]


def test_path_prune_is_sound(corpus_graphs):
    checked = skipped = 0
    for g, pairs in _prune_cases(corpus_graphs):
        for x, y in pairs:
            paths = _disjoint_paths(g, x, y, g.full_mask)
            used = 0
            for interior in paths:
                _assert_x_y_path(g, x, y, interior)
                assert not used & interior
                used |= interior
            # the greedy search stops only once the paths cut y off from x
            rest = set(range(g.n)) - set(bit_list(used))
            assert not any({x, y} <= c for c in naive_components(g, rest))

            cliques = maximal_cliques_in(g, g.full_mask & ~(1 << x) & ~(1 << y))
            hits, every = _path_hits(paths, cliques)
            assert every == (1 << len(paths)) - 1
            path_sets = [set(bit_list(p)) for p in paths]
            for q1, h1 in zip(cliques, hits):
                for q3, h3 in zip(cliques, hits):
                    union = set(bit_list(q1 | q3))
                    checked += 1
                    # the mask test says whether the union meets every path
                    assert (h1 | h3 == every) == all(union & p for p in path_sets)
                    if h1 | h3 == every:
                        continue  # the search runs the separation BFS
                    skipped += 1
                    rest = set(range(g.n)) - union
                    assert any({x, y} <= c for c in naive_components(g, rest))
    assert skipped > 10000 and checked > skipped


def test_disjoint_paths_match_naive(corpus_graphs):
    # the search stops once x's or y's neighbours are used up; the list it
    # returns is the one the search run until a BFS fails returns
    pairs = 0
    for g in _small_graphs(corpus_graphs):
        for x, y in _anchored_pairs(g, g.full_mask):
            want = [mask_of(p) for p in naive_disjoint_paths(g, x, y)]
            assert _disjoint_paths(g, x, y, g.full_mask) == want
            pairs += 1
    assert pairs > 35000


def test_search_tries_frames_in_canonical_order(corpus_graphs, monkeypatch, frame_phase):
    # the frames handed to refine_frame are, in order, a subsequence of all
    # frames in canonical order, ending at the first that refines
    tried = []
    refine = partition.refine_frame

    def recording(g, frame, paths=None, *, within=None):
        tried.append(frame)
        return refine(g, frame, paths, within=within)

    monkeypatch.setattr(partition, "refine_frame", recording)
    for _, g in corpus_graphs:
        if g.n > 12:
            continue
        tried.clear()
        part = find_good_partition(g)
        frames = enumerate_frames(g)
        assert all(f in frames for f in tried)  # consumes `frames` in order
        if part is not None:
            assert refine(g, tried[-1]) == part


def test_anchored_pairs_are_lexicographic(corpus_graphs):
    # the non-adjacent pairs sharing a triad, ascending from the first
    graphs = [cycle(6), cycle(7), _prism(), complete(4), Graph(0), Graph(3)]
    graphs += [g for _, g in corpus_graphs if g.n <= 12]
    for g in graphs:
        assert list(_anchored_pairs(g, g.full_mask)) == list(naive_anchor_pairs(g))


def test_started_search_tries_frames_in_canonical_order(
    corpus_graphs, monkeypatch, frame_phase
):
    # the start vertex moves only the vertex phase: from any start, the
    # frames handed to refine_frame are those of the search from 0
    tried = []
    refine = partition.refine_frame

    def recording(g, frame, paths=None, *, within=None):
        tried.append(frame)
        return refine(g, frame, paths, within=within)

    monkeypatch.setattr(partition, "refine_frame", recording)
    searches = 0
    for _, g in corpus_graphs:
        if g.n > 30:
            continue
        tried.clear()
        want = find_good_partition(g)
        want_tried = tried[:]
        for start in (1, g.n // 2, g.n - 1):
            tried.clear()
            assert find_good_partition(g, start=start) == want
            assert tried == want_tried
            searches += 1
    assert searches > 300


def test_started_search_is_complete(corpus_graphs):
    # a good partition is found from every start vertex or from none, below
    # 0 and past the last vertex included.  Every corpus graph has one.  Of
    # the graphs without, the Heawood graph has triads, so anchor pairs,
    # whatever the start; the others have no triad
    graphs = [g for _, g in corpus_graphs if g.n <= 30]
    graphs += [complete(1), complete(4), complete_minus_star(8, 5), Graph(0)]
    graphs.append(NO_PARTITION_GRAPHS["heawood"]())
    found = missed = 0
    for g in graphs:
        want = find_good_partition(g) is not None
        for start in range(-2, g.n + 3):
            part = find_good_partition(g, start=start)
            assert (part is not None) == want
            found += want
            missed += not want
    assert found > 3000 and missed >= 50


def test_a_start_far_past_the_last_vertex_costs_no_memory():
    # a start at or past n scans from vertex 0; 1 << 10**8 alone is an int
    # of 12 MB
    g = cycle(6)
    want = find_good_partition(g)
    tracemalloc.start()
    try:
        part = find_good_partition(g, start=10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part == want is not None
    assert peak < 1 << 20


def _small_graphs(corpus_graphs):
    """The corpus graphs with n <= 30 and four omega-2 draws."""
    graphs = [g for _, g in corpus_graphs if g.n <= 30]
    draws = ((26, 5), (28, 0), (32, 2), (40, 5))  # omega 2, pairs skipped at the root
    return graphs + [gen_square_free_berge(n, s) for n, s in draws]


def test_vertex_phase_scans_from_its_start(corpus_graphs):
    # the partition found is the single-vertex partition of the first vertex,
    # ascending from the start and wrapping around, whose partition is good;
    # only when no vertex has one do frames run
    found = framed = 0
    for g in _small_graphs(corpus_graphs):
        good = [x for x in range(g.n) if naive_vertex_partition(g, x)]
        for s in (0, 1, g.n // 3, g.n // 2, g.n - 1, g.n + 2):
            stats = {}
            part = find_good_partition(g, stats, start=s)
            order = [x for x in good if x >= s] + [x for x in good if x < s]
            if not order:
                assert part is None or stats["frames_tried"] > 0
                framed += 1
                continue
            want = naive_vertex_partition(g, order[0])
            assert [set(bit_list(m)) for m in part.sets()] == list(want)
            assert stats == {"frames_tried": 0, "frames_pruned": 0}
            found += 1
    assert found > 400 and framed > 0


def test_single_vertex_partition_carries_its_triad(corpus_graphs):
    # the triad is the one the verifier finds: it holds L's one vertex and
    # meets R; the partition's identity is its five sets alone
    checked = 0
    for g in _small_graphs(corpus_graphs):
        for s in (0, g.n // 2):
            part = _vertex_partition(g, s, g.full_mask)
            if part is None:
                continue
            assert part.l & mask_of(part.triad) and part.r & mask_of(part.triad)
            assert verify_good_partition(g, part).witness == part.triad
            assert part == GoodPartition(*part.sets())
            checked += 1
    assert checked > 250


def test_vertex_phase_within_a_mask_is_the_phase_on_its_subgraph(corpus_graphs):
    # searched as a mask of g, from a start vertex in g's labels, the vertex
    # phase answers as it does on the subgraph built apart, relabelled back
    rng = random.Random(25)
    found = 0
    for g in _small_graphs(corpus_graphs):
        for _ in range(3):
            keep = mask_of(v for v in range(g.n) if rng.random() < 0.85)
            sub, order = naive_subgraph(g, bit_list(keep))
            for s in (0, g.n // 3, g.n // 2 + 1, g.n):
                part = _vertex_partition(g, s, keep)
                want = _vertex_partition(sub, bisect_left(order, s), sub.full_mask)
                if want is None:
                    assert part is None
                    continue
                moved = [mask_of(order[v] for v in bit_list(m)) for m in want.sets()]
                assert part.sets() == tuple(moved)
                assert part.triad == tuple(order[v] for v in want.triad)
                found += 1
    assert found > 500


def test_bipartite_girth_6_graphs_have_no_good_partition():
    # triads, and so anchor pairs, but no good partition: the search is
    # complete, and a brute force over every clique pair and every L/R split
    # of the rest agrees on the Heawood graph
    for name, make in NO_PARTITION_GRAPHS.items():
        g = make()
        assert find_triads(g), name
        assert find_good_partition(g) is None, name
    heawood = NO_PARTITION_GRAPHS["heawood"]()
    assert find_good_partition(heawood) is None
    assert brute_good_partition(heawood) is None


def _naive_split(g, cut, x, y, within=None):
    """What _separate must return, from oracles.naive_components."""
    within = g.full_mask if within is None else within
    comps = naive_components(g, set(bit_list(within & ~cut)))
    lside = next(c for c in comps if x in c)
    if y in lside:
        return None
    return mask_of(lside), within & ~cut & ~mask_of(lside)


def _assert_x_y_path(g, x, y, interior):
    """`interior` is a non-empty mask, without x and y, whose vertices with
    x and y induce a path from x to y.  An induced path's vertex set fixes
    its order, so equal masks say as much as equal vertex sequences."""
    assert interior and not interior & (1 << x | 1 << y)
    on = interior | 1 << x | 1 << y
    degrees = {v: (g.mask(v) & on).bit_count() for v in bit_list(on)}
    assert degrees.pop(x) == degrees.pop(y) == 1
    assert set(degrees.values()) == {2}
    assert any({x, y} <= c for c in naive_components(g, set(bit_list(on))))


def _assert_learned(g, x, y, cut, interior, within):
    """`interior` is the interior of an induced x-y path that is a shortest
    one in G - cut, G the subgraph induced on `within`; and it is the one
    `oracles.naive_shortest_interior` picks by its tie rule, which fixes
    every later prune decision."""
    _assert_x_y_path(g, x, y, interior)
    assert not interior & cut
    # breadth-first distance from x to y in G - cut, over vertex sets
    assert not interior & ~within
    rest, reach, dist = within & ~cut, 1 << x, 0
    while not (reach >> y) & 1:
        reach |= mask_of(w for v in bit_list(reach) for w in bit_list(g.mask(v) & rest))
        dist += 1
    assert interior.bit_count() == dist - 1
    assert interior == mask_of(naive_shortest_interior(g, x, y, set(bit_list(rest))))


def test_learned_paths_avoid_their_cuts(corpus_graphs, monkeypatch, frame_phase):
    # every interior that a separation test adds, at every node of a solve,
    # is a shortest x-y path of G - cut, for the cut that test was given
    separate = partition._separate
    learned = 0

    def checked(g, cut, x, y, paths, within):
        nonlocal learned
        before = len(paths)
        out = separate(g, cut, x, y, paths, within)
        assert out == _naive_split(g, cut, x, y, within)
        if len(paths) > before:
            assert out is None and len(paths) == before + 1
            _assert_learned(g, x, y, cut, paths[-1], within)
            learned += 1
        return out

    monkeypatch.setattr(partition, "_separate", checked)
    larger = [g for _, g in corpus_graphs if g.n > 30]
    # omega-2 draws that learn paths at many nodes; the other graphs learn
    # fewer
    larger += [gen_square_free_berge(50, 2), gen_square_free_berge(60, 7)]
    for g in larger + _small_graphs(corpus_graphs):
        color(g, trust_berge=True)
    assert learned > 150


def test_separate_with_learned_paths_matches_components(corpus_graphs):
    # random cuts, each shrinking by one to three vertices at a time until
    # empty, as refinement shrinks its cutset; every split agrees with a
    # naive component search with no path list, while paths are learned,
    # and once they are
    rng = random.Random(9)
    skipped_by_learned = 0
    for g in _small_graphs(corpus_graphs):
        pairs = list(_anchored_pairs(g, g.full_mask))
        for x, y in pairs[:: len(pairs) // 5 + 1]:
            paths = _disjoint_paths(g, x, y, g.full_mask)
            disjoint = paths[:]
            inside = [v for v in range(g.n) if v not in (x, y)]
            cuts = []
            for _ in range(2):
                order = rng.sample(inside, len(inside))
                for _ in range(rng.randrange(len(order) // 2)):
                    order.pop()
                while order:
                    cuts.append(mask_of(order))
                    del order[: rng.randint(1, 3)]
            for _ in range(2):
                for cut in cuts:
                    want = _naive_split(g, cut, x, y)
                    assert _separate(g, cut, x, y, [], g.full_mask) == want
                    # the BFS stops at the first layer that reaches y
                    layers = []
                    seen = component_mask(g, 1 << x, g.full_mask & ~cut, 1 << y, layers)
                    assert seen == mask_of(v for m in layers for v in bit_list(m))
                    if want is None:
                        assert [m >> y & 1 for m in layers] == [0] * (len(layers) - 1) + [1]
                    else:
                        assert seen == want[0]
                    # answered by a learned path alone
                    if all(cut & pm for pm in disjoint) and any(
                        not cut & pm for pm in paths[len(disjoint):]
                    ):
                        skipped_by_learned += 1
                    n_before = len(paths)
                    assert _separate(g, cut, x, y, paths, g.full_mask) == want
                    if len(paths) > n_before:
                        _assert_learned(g, x, y, cut, paths[-1], g.full_mask)
    assert skipped_by_learned > 150


def test_search_within_a_mask_is_the_search_on_its_subgraph(corpus_graphs):
    # the subgraph induced on a random vertex mask is square-free Berge
    # again; searched as a mask of g, from start vertices given in g's
    # labels, it answers as the search on the subgraph built apart, from
    # the first of its vertices at or after the start, moved to g's labels
    rng = random.Random(12)
    searches = found = 0
    for g in _small_graphs(corpus_graphs):
        for _ in range(3):
            keep = mask_of(v for v in range(g.n) if rng.random() < 0.85)
            sub, order = naive_subgraph(g, bit_list(keep))
            pairs = list(_anchored_pairs(g, keep))
            assert pairs == [
                (order[x], order[y]) for x, y in _anchored_pairs(sub, sub.full_mask)
            ]
            for start in (0, g.n // 3, g.n // 2 + 1, g.n):
                stats, want_stats = {}, {}
                part = find_good_partition(g, stats, start=start, within=keep)
                want = find_good_partition(
                    sub, want_stats, start=bisect_left(order, start)
                )
                assert stats == want_stats
                searches += 1
                if want is None:
                    assert part is None
                    continue
                moved = [mask_of(order[v] for v in bit_list(s)) for s in want.sets()]
                assert part.sets() == tuple(moved)
                assert part.triad == tuple(order[v] for v in want.triad)
                found += 1
    assert searches > 500 and found > 400


def test_pruned_counts_skipped_clique_pairs(corpus_graphs, frame_phase):
    total = 0
    for g in _small_graphs(corpus_graphs):
        stats = {}
        find_good_partition(g, stats)
        assert stats["frames_pruned"] == naive_skipped_pairs(g)
        total += stats["frames_pruned"]
    assert total > 5000


# --- serialization -----------------------------------------------------------


def test_partition_json_round_trip():
    part = gp(k1=[1, 2], k3=[6], l=[0], r=[3, 4, 5, 7, 8])
    assert GoodPartition.from_json(part.to_json(), 9) == part
    assert part.to_json()["K1"] == [1, 2]  # sorted lists


def test_partition_from_json_rejects_junk():
    with pytest.raises(MalformedPartition):
        GoodPartition.from_json({"K1": [0]}, 3)
    with pytest.raises(MalformedPartition):
        GoodPartition.from_json(
            {"K1": [0], "K2": [], "K3": "x", "L": [1], "R": [2]}, 3
        )


@pytest.mark.parametrize("vertex", [2**40, -1, 3, True])
def test_partition_from_json_rejects_vertices_out_of_range(vertex):
    # checked before the vertex is shifted into a mask: 1 << 2**40 alone
    # would be a 128 GiB int
    obj = {"K1": [0], "K2": [], "K3": [], "L": [1], "R": [2, vertex]}
    tracemalloc.start()
    try:
        with pytest.raises(MalformedPartition):
            GoodPartition.from_json(obj, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_verify_rejects_masks_that_do_not_partition():
    # a partition built from masks is checked by the verifier
    with pytest.raises(MalformedPartition, match="vertex 3 out of range"):
        verify_good_partition(cycle(3), gp(k1=[0], l=[1], r=[2, 3]))
    with pytest.raises(MalformedPartition, match="two sets"):
        verify_good_partition(cycle(3), gp(k1=[0], l=[1], r=[1, 2]))
    with pytest.raises(MalformedPartition, match="vertex 2 is in no set"):
        verify_good_partition(cycle(3), gp(k1=[0], l=[1]))
