import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecolor import (
    Frame,
    GoodPartition,
    Graph,
    MalformedPartition,
    NotSquareFree,
    enumerate_frames,
    find_good_partition,
    nested_order,
    refine_frame,
    verify_good_partition,
)

from conftest import complete, complete_minus_star, cycle
from oracles import naive_good_partition_check


def gp(k1=(), k2=(), k3=(), l=(), r=()):
    return GoodPartition(
        k1=frozenset(k1),
        k2=frozenset(k2),
        k3=frozenset(k3),
        l=frozenset(l),
        r=frozenset(r),
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
    p = GoodPartition(k1=parts[0], k2=parts[1], k3=parts[2], l=parts[3], r=parts[4])
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
    assert nested_order(g, [2, 0, 1], [3, 4]) == [0, 1, 2]


def test_nested_order_tie_breaks_ascending():
    g = Graph(4, [(0, 1), (2, 3)])  # neither 0 nor 1 sees {2,3}
    assert nested_order(g, [1, 0], [2, 3]) == [0, 1]


def test_nested_order_raises_on_square():
    # 0 sees only 2, 1 sees only 3: neighborhoods incomparable
    g = Graph(4, [(0, 1), (2, 3), (0, 2), (1, 3)])
    with pytest.raises(NotSquareFree) as exc:
        nested_order(g, [0, 1], [2, 3])
    a, b, c, d = exc.value.witness
    assert g.adjacent(a, b) and g.adjacent(b, c) and g.adjacent(c, d)
    assert g.adjacent(d, a) and not g.adjacent(a, c) and not g.adjacent(b, d)


# --- refine_frame ------------------------------------------------------------


def _prism():
    import bergecolor as bc

    return bc.gen_prism(bc.PrismSpec((2, 2, 2)))


def test_refine_frame_hand_worked_prism():
    p = _prism()
    fr = Frame(q1=(1, 2), q3=(6,), x=0, y=3, c1=frozenset({1}), c3=frozenset({6}))
    part = refine_frame(p, fr)
    assert part is not None
    assert part.k1 == {1, 2} and part.k2 == set() and part.k3 == {6}
    assert part.l == {0} and part.r == {3, 4, 5, 7, 8}
    assert verify_good_partition(p, part).ok


def test_refine_frame_empty_anchor_drops_side():
    # with no anchor on the Q1 side the cutset is just {6}, which does not
    # separate 0 from 3, so the frame dies
    p = _prism()
    fr = Frame(q1=(1, 2), q3=(6,), x=0, y=3, c1=frozenset(), c3=frozenset({6}))
    assert refine_frame(p, fr) is None


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


# --- enumeration and search --------------------------------------------------


def test_enumerate_frames_canonical_and_counted():
    c6 = cycle(6)
    frames = list(enumerate_frames(c6))
    assert len(frames) == 420
    anchors = [(f.x, f.y) for f in frames]
    assert anchors == sorted(anchors, key=lambda t: (t[0], t[1]))
    # every frame invariant holds: cliques avoid x,y; anchors contained
    for f in frames[:60]:
        assert f.x not in f.q1 and f.x not in f.q3
        assert f.y not in f.q1 and f.y not in f.q3
        assert f.c1 <= set(f.q1) - set(f.q3)
        assert f.c3 <= set(f.q3) - set(f.q1)
        assert len(f.c1) <= 1 and len(f.c3) <= 1


def test_no_frames_without_triads():
    assert list(enumerate_frames(complete(4))) == []
    assert list(enumerate_frames(complete_minus_star(7, 3))) == []


def test_find_good_partition_c6_frozen():
    stats = {}
    part = find_good_partition(cycle(6), stats)
    assert part.k1 == {1} and part.k2 == set() and part.k3 == {3, 4}
    assert part.l == {0, 5} and part.r == {2}
    assert stats == {"frames_tried": 5, "frames_pruned": 1}


def test_find_good_partition_prism_frozen():
    part = find_good_partition(_prism())
    assert part.k1 == {1, 2} and part.k3 == {6}
    assert part.l == {0} and part.r == {3, 4, 5, 7, 8}


def test_find_good_partition_none_on_cliques():
    assert find_good_partition(complete(4)) is None
    assert find_good_partition(complete(1)) is None
    assert find_good_partition(complete_minus_star(8, 5)) is None


# --- serialization -----------------------------------------------------------


def test_partition_json_round_trip():
    part = gp(k1=[1, 2], k3=[6], l=[0], r=[3, 4, 5, 7, 8])
    assert GoodPartition.from_json(part.to_json()) == part
    assert part.to_json()["K1"] == [1, 2]  # sorted lists


def test_partition_from_json_rejects_junk():
    with pytest.raises(MalformedPartition):
        GoodPartition.from_json({"K1": [0]})
    with pytest.raises(MalformedPartition):
        GoodPartition.from_json(
            {"K1": [0], "K2": [], "K3": "x", "L": [1], "R": [2]}
        )
