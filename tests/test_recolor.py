import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecolor import (
    BergeViolation,
    GoodPartition,
    Graph,
    InternalViolation,
    PartialColoring,
    align_colorings,
    apply_swap,
    bichromatic_component,
    coloring_from_json,
    coloring_to_json,
    coloring_to_lines,
    color,
    gen_square_free_berge,
    merge_colorings,
    parse_coloring_lines,
    verify_good_partition,
)
from bergecolor import recolor
from bergecolor.graphs import bit_list, mask_of
from bergecolor.recolor import find_reducing_swap

from conftest import cycle
from oracles import is_proper_on, naive_reducing_swap
from test_output_digest import DEEP_SPINES


def pc(mapping) -> PartialColoring:
    return PartialColoring(dict(mapping))


@st.composite
def colored_graphs(draw, max_n: int = 8):
    """A graph plus a proper coloring built greedily from a drawn order."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(n, edges)
    order = draw(st.permutations(range(n)))
    colors: dict[int, int] = {}
    for v in order:
        used = {colors[u] for u in g.neighbors(v) if u in colors}
        colors[v] = next(c for c in range(1, n + 1) if c not in used)
    return g, PartialColoring(colors)


# --- serialization -----------------------------------------------------------


def test_lines_round_trip():
    c = pc({0: 1, 2: 3, 1: 1})
    text = coloring_to_lines(c)
    assert text == "v 1 1\nv 2 1\nv 3 3\n"
    assert parse_coloring_lines(text) == c.colors


def test_parse_lines_errors():
    with pytest.raises(ValueError, match="line 1"):
        parse_coloring_lines("w 1 2\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_coloring_lines("v 1 2\nv 0 2\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_coloring_lines("v 1\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_coloring_lines("v 1 x\n")


def test_parse_duplicate_vertices():
    # a repeated line is harmless; a vertex given two colors is not
    assert parse_coloring_lines("v 1 2\nv 1 2\n") == {0: 2}
    with pytest.raises(ValueError, match="line 2"):
        parse_coloring_lines("v 1 2\nv 1 3\n")
    with pytest.raises(ValueError, match="two colors"):
        coloring_from_json({"colors": [[0, 2], [0, 3]]})


def test_json_round_trip():
    c = pc({0: 1, 5: 2})
    obj = coloring_to_json(c)
    assert obj["schema"] == "bergecolor-coloring/1"
    assert coloring_from_json(obj) == c.colors


def test_partial_coloring_helpers():
    g = cycle(4)
    c = pc({0: 1, 1: 2, 2: 1, 3: 2})
    assert is_proper_on(g, c)
    assert c.max_color() == 2 and c.colors_used() == 2
    assert set(c.colors) == {0, 1, 2, 3}
    bad = pc({0: 1, 1: 1, 2: 2, 3: 2})
    assert not is_proper_on(g, bad)
    # one vertex mask per color; `colors` is a fresh dict on every read
    assert c.classes == [mask_of([0, 2]), mask_of([1, 3])]
    c.colors[0] = 2
    assert c.colors[0] == 1 and c.color_of(0) == 1 and c.color_of(9) == 0
    for entry in ({0: 0}, {-1: 1}, {True: 1}, {0: 1.0}, {0.0: 1}):
        with pytest.raises(ValueError):
            PartialColoring(entry)


def test_is_proper_on_matches_an_edge_scan():
    rng = random.Random(5)
    verdicts = []
    for _ in range(600):
        n = rng.randint(0, 16)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        domain = [v for v in range(n) if rng.random() < 0.8]
        rng.shuffle(domain)
        colors: dict[int, int] = {}
        for v in domain:  # greedy, so proper until a vertex is recolored below
            used = {colors[u] for u in g.neighbors(v) if u in colors}
            colors[v] = min(set(range(1, n + 2)) - used)
        if domain and rng.random() < 0.5:
            colors[rng.choice(domain)] = rng.randint(1, 4)
        naive = all(
            colors[u] != colors[v] for u, v in g.edges() if u in colors and v in colors
        )
        assert is_proper_on(g, pc(colors)) == naive
        verdicts.append(naive)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


# --- alignment ---------------------------------------------------------------


def test_align_forces_anchor_colors():
    c1 = pc({0: 1, 1: 2})
    c2 = pc({0: 2, 1: 3, 2: 1})
    out = align_colorings(c1, c2, mask_of([0, 1]))
    assert out.colors[0] == 1 and out.colors[1] == 2
    # the map is a bijection on colors, so 2's color stays distinct
    assert out.colors[2] not in (1, 2)


def test_align_rejects_inconsistency():
    # anchor vertices force color 1 to map to both 1 and 2
    c1 = pc({0: 1, 1: 2})
    c2 = pc({0: 1, 1: 1})
    with pytest.raises(ValueError):
        align_colorings(c1, c2, mask_of([0, 1]))
    with pytest.raises(ValueError):
        align_colorings(pc({0: 1}), pc({}), mask_of([0]))


@given(colored_graphs(), colored_graphs())
@settings(max_examples=150, deadline=None)
def test_align_is_proper_color_permutation(a, b):
    g1, c1 = a
    g2, c2 = b
    anchor = sorted(set(c1.colors) & set(c2.colors))[:2]
    forced = {(c2.colors[v], c1.colors[v]) for v in anchor}
    if len({s for s, _ in forced}) != len(forced) or len(
        {t for _, t in forced}
    ) != len(forced):
        return  # non-bijective anchors are rejected; covered elsewhere
    out = align_colorings(c1, c2, mask_of(anchor))
    # a color permutation keeps properness and distinctness
    assert is_proper_on(g2, out)
    old = [c2.colors[v] for v in sorted(c2.colors)]
    new = [out.colors[v] for v in sorted(out.colors)]
    mapping = {}
    for o, nw in zip(old, new):
        assert mapping.setdefault(o, nw) == nw
    assert len(set(mapping.values())) == len(mapping)
    for v in anchor:
        assert out.colors[v] == c1.colors[v]


# --- swaps -------------------------------------------------------------------


def test_bichromatic_component_c6():
    g = cycle(6)
    # vertices 3 and 5 carry color 3, cutting the pair-(1,2) subgraph in two
    c = pc({0: 1, 1: 2, 2: 1, 3: 3, 4: 1, 5: 3})
    assert bit_list(bichromatic_component(g, c, 0, (1, 2))) == [0, 1, 2]
    assert bit_list(bichromatic_component(g, c, 4, (1, 2))) == [4]
    with pytest.raises(ValueError):
        bichromatic_component(g, c, 3, (1, 2))


def test_apply_swap_exchanges_pair():
    c = pc({0: 1, 1: 2, 2: 3})
    out = apply_swap(c, mask_of([0, 1]), (1, 2))
    assert out.colors == {0: 2, 1: 1, 2: 3}
    with pytest.raises(ValueError):
        apply_swap(c, mask_of([2]), (1, 2))


@given(colored_graphs())
@settings(max_examples=150, deadline=None)
def test_swap_is_involution_and_proper(gc):
    g, c = gc
    u = 0
    col = c.colors[u]
    other = col % g.n + 1 if g.n > 1 else col + 1
    pair = (min(col, other), max(col, other)) if col != other else (col, col + 1)
    comp = bichromatic_component(g, c, u, pair)
    once = apply_swap(c, comp, pair)
    assert is_proper_on(g, once)  # swapping a whole component keeps properness
    twice = apply_swap(once, comp, pair)
    assert twice.colors == c.colors


# --- merging -----------------------------------------------------------------


def _split_color(g, part):
    """Color both sides of a partition independently (exact, tiny graphs)."""
    from bergecolor import color

    keep1 = bit_list(g.full_mask & ~part.r)
    keep2 = bit_list(g.full_mask & ~part.l)
    g1, m1 = g.subgraph(keep1)
    g2, m2 = g.subgraph(keep2)
    r1 = color(g1, trust_berge=True)
    r2 = color(g2, trust_berge=True)
    c1 = PartialColoring({m1[i]: c for i, c in r1.coloring.colors.items()})
    c2 = PartialColoring({m2[i]: c for i, c in r2.coloring.colors.items()})
    return c1, c2, max(r1.colors_used, r2.colors_used)


def test_merge_prism_yields_proper_3_coloring():
    import bergecolor as bc

    g = bc.gen_prism(bc.PrismSpec((2, 2, 2)))
    part = bc.find_good_partition(g)
    c1, c2, k = _split_color(g, part)
    events = []
    merged = merge_colorings(g, part, c1, c2, k, trace=events.append)
    assert is_proper_on(g, merged)
    assert set(merged.colors) == set(range(g.n))
    assert merged.max_color() <= k
    for ev in events:
        assert ev["bad_after"] < ev["bad_before"]


def test_merge_rejects_wrong_domains():
    import bergecolor as bc

    g = bc.gen_prism(bc.PrismSpec((2, 2, 2)))
    part = bc.find_good_partition(g)
    c1, c2, k = _split_color(g, part)
    with pytest.raises(ValueError):
        merge_colorings(g, part, c2, c1, k)
    with pytest.raises(ValueError):
        merge_colorings(g, part, c1, c2, k - 1)


def test_merge_c7_exhausts_swaps():
    # C7 passes every partition condition here, but its two path-sides are
    # 2-colorable while the cycle needs 3: the swap search must run dry and
    # say so, not hand back a bad coloring
    g = cycle(7)
    part = GoodPartition(
        k1=mask_of({0}),
        k2=mask_of(()),
        k3=mask_of({3}),
        l=mask_of({1, 2}),
        r=mask_of({4, 5, 6}),
    )
    assert verify_good_partition(g, part).ok
    c1 = pc({0: 1, 1: 2, 2: 1, 3: 2})
    c2 = pc({3: 2, 4: 1, 5: 2, 6: 1, 0: 2})
    with pytest.raises(BergeViolation):
        merge_colorings(g, part, c1, c2, 2)


def test_find_reducing_swap_classes():
    import bergecolor as bc

    g = bc.gen_prism(bc.PrismSpec((2, 2, 2)))
    part = bc.find_good_partition(g)
    c1, c2, k = _split_color(g, part)
    c2a = align_colorings(c1, c2, part.k1 | part.k2)
    bad = mask_of(u for u in bit_list(part.k3) if c1.colors[u] != c2a.colors[u])
    if bad:
        cand = find_reducing_swap(g, part, c1, c2a, bad)
        assert cand is not None
        # every candidate is a bad vertex with its own color pair
        u = cand.seed
        assert cand.side in (1, 2) and bad >> u & 1
        assert cand.pair == tuple(sorted((c1.color_of(u), c2a.color_of(u))))
        assert cand.pair[0] < cand.pair[1]


def test_find_reducing_swap_is_the_first_of_every_swap():
    # on random states, proper or not, the search over each bad vertex's own
    # pair returns what the search over every (side, seed in K3, color pair)
    # returns after it: the first swap that reduces, or None
    rng = random.Random(28)
    found = {True: 0, False: 0}
    for _ in range(1500):
        n = rng.randint(4, 13)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        where = [rng.randrange(5) for _ in range(n)]
        sets = [mask_of(v for v in range(n) if where[v] == i) for i in range(5)]
        part = GoodPartition(*sets)
        k = rng.randint(2, 5)
        c1 = {v: rng.randint(1, k) for v in range(n) if where[v] != 4}
        c2 = {v: rng.randint(1, k) for v in range(n) if where[v] != 3}
        k3 = set(bit_list(part.k3))
        bad = mask_of(v for v in k3 if c1[v] != c2[v])
        cand = find_reducing_swap(g, part, pc(c1), pc(c2), bad)
        want = naive_reducing_swap(g, set(bit_list(part.k1 | part.k2)), k3, c1, c2)
        got = cand and (
            cand.side, cand.seed, cand.pair, frozenset(bit_list(cand.component)),
            cand.coloring.colors,
        )
        assert got == want
        found[want is not None] += 1
    assert found[True] > 300 and found[False] > 300


def test_merge_inside_a_piece_is_the_merge_on_its_subgraph(frame_phase):
    # the prism's vertex i is vertex 2i + 1 of a larger graph whose other
    # vertices see every prism vertex; merged over the prism's partition,
    # in the larger graph's labels, the colorings and swaps are those of the
    # merge on the prism itself, moved to those labels
    import bergecolor as bc

    p = bc.gen_prism(bc.PrismSpec((3, 5, 7)))
    part = bc.find_good_partition(p)
    c1, c2, k = _split_color(p, part)
    odd = [2 * i + 1 for i in range(p.n)]
    edges = [(odd[u], odd[v]) for u, v in p.edges()]
    edges += [(2 * i, w) for i in range(p.n) for w in odd]
    g = Graph(2 * p.n, edges)

    def up(c):
        return pc({odd[v]: col for v, col in c.colors.items()})

    big = GoodPartition(*(mask_of(odd[v] for v in bit_list(s)) for s in part.sets()))
    want_events, events = [], []
    want = merge_colorings(p, part, c1, c2, k, trace=want_events.append)
    merged = merge_colorings(g, big, up(c1), up(c2), k, trace=events.append)
    assert want_events  # the merge swaps
    assert merged.colors == up(want).colors
    # a seed is a rank in the partition's vertices, the same in both labellings
    assert events == want_events


# --- the merge's local checks against whole-coloring checks -----------------


def _moved(c: PartialColoring, v: int, col: int) -> PartialColoring:
    """c with vertex v moved into the class of color `col`."""
    classes = [m & ~(1 << v) for m in c.classes]
    classes += [0] * (col - len(classes))
    classes[col - 1] |= 1 << v
    return PartialColoring.of_classes(classes)


def _joins(g, p, c1, c2, k) -> bool:
    """The verdict of the whole-coloring checks on a merge's final sides:
    they agree on the cut, and their union is proper with at most k colors."""
    d1, d2 = c1.colors, c2.colors
    if any(d1[v] != d2[v] for v in bit_list(p.k1 | p.k2 | p.k3)):
        return False
    union = PartialColoring({**d2, **d1})
    return is_proper_on(g, union) and union.max_color() <= k


def test_local_merge_checks_accept_what_whole_coloring_checks_accept(
    corpus_graphs, monkeypatch, frame_phase
):
    # every swap and every join of the merges that color the corpus and the
    # deep spines goes through the local checks and through the whole-
    # coloring reference, and so do random moves from each: a random subset
    # of two classes exchanged, a swapped vertex moved into a neighbour's
    # class, and one vertex of a final side recolored within that side
    rng = random.Random(17)
    check_swap, join = recolor._proper_after_swap, recolor._join
    swaps, verdicts, cut_moves = 0, {True: 0, False: 0}, 0
    g = None

    def checked_swap(g_, c, moved):
        nonlocal swaps
        assert check_swap(g_, c, moved) is is_proper_on(g_, c) is True
        swaps += 1
        palette = c.max_color()
        for _ in range(4):
            i, j = sorted(rng.sample(range(1, palette + 2), 2))
            subset = (c.members(i) | c.members(j)) & rng.getrandbits(g_.n)
            after = recolor.apply_swap(c, subset, (i, j))
            ok = check_swap(g_, after, subset)
            assert ok == is_proper_on(g_, after)
            verdicts[ok] += 1
        v = rng.choice(bit_list(moved))
        others = bit_list(g_.mask(v) & c.vertices())
        if others:
            mutated = _moved(c, v, c.color_of(rng.choice(others)))
            assert not check_swap(g_, mutated, moved)
            assert not is_proper_on(g_, mutated)
        return True

    def checked_join(p, c1, c2, k):
        nonlocal cut_moves
        out = join(p, c1, c2, k)
        assert _joins(g, p, c1, c2, k) and is_proper_on(g, out)
        verdicts[True] += 1
        for side in (1, 2):
            c = c1 if side == 1 else c2
            v = rng.choice(bit_list(c.vertices()))
            free = [
                t for t in range(1, k + 2)
                if t != c.color_of(v) and not g.mask(v) & c.members(t)
            ]
            mutated = _moved(c, v, rng.choice(free))  # the side stays proper
            m1, m2 = (mutated, c2) if side == 1 else (c1, mutated)
            want = _joins(g, p, m1, m2, k)
            try:
                join(p, m1, m2, k)
                got = True
            except InternalViolation:
                got = False
            assert got == want
            verdicts[want] += 1
            if (p.k1 | p.k2 | p.k3) >> v & 1:
                assert not got  # a cut vertex recolored on one side
                cut_moves += 1
        return out

    monkeypatch.setattr(recolor, "_proper_after_swap", checked_swap)
    monkeypatch.setattr(recolor, "_join", checked_join)
    graphs = [h for _, h in corpus_graphs]
    graphs += [gen_square_free_berge(n, s) for n, s in DEEP_SPINES]
    for g in graphs:
        color(g, trust_berge=True)
    assert swaps > 300 and cut_moves > 400
    assert verdicts[True] > 1000 and verdicts[False] > 1000


def _prism_merge():
    import bergecolor as bc

    g = bc.gen_prism(bc.PrismSpec((3, 5, 7)))
    part = bc.find_good_partition(g)
    c1, c2, k = _split_color(g, part)
    return g, part, c1, c2, k


def test_merge_raises_on_a_swapped_vertex_moved_into_a_neighbours_class(
    monkeypatch, frame_phase
):
    # the merge applies the swapped coloring that find_reducing_swap
    # simulated; in each candidate it returns, one swapped vertex is moved
    # into the class of a neighbour
    g, part, c1, c2, k = _prism_merge()
    search = recolor.find_reducing_swap

    def searched(*args):
        cand = search(*args)
        out = cand.coloring
        v = bit_list(cand.component)[0]
        u = bit_list(g.mask(v) & out.vertices())[0]
        return dataclasses.replace(cand, coloring=_moved(out, v, out.color_of(u)))

    monkeypatch.setattr(recolor, "find_reducing_swap", searched)
    with pytest.raises(InternalViolation, match="improper side coloring"):
        merge_colorings(g, part, c1, c2, k)


def test_merge_raises_on_a_cut_vertex_recolored_on_one_side(monkeypatch):
    # once c2 is aligned, a K1 ∪ K2 vertex of it takes a color that no vertex
    # has: c2 stays proper, but the sides no longer agree on the cut
    g, part, c1, c2, k = _prism_merge()
    align = recolor.align_colorings

    def aligned(a, b, anchor):
        out = align(a, b, anchor)
        return _moved(out, (anchor & -anchor).bit_length() - 1, out.max_color() + 1)

    monkeypatch.setattr(recolor, "align_colorings", aligned)
    assert part.k1 | part.k2
    with pytest.raises(InternalViolation, match="agreement|disagree on the cut"):
        merge_colorings(g, part, c1, c2, k)
