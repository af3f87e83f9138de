import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecolor import (
    BergeViolation,
    GoodPartition,
    Graph,
    PartialColoring,
    align_colorings,
    apply_swap,
    bichromatic_component,
    coloring_from_json,
    coloring_to_json,
    coloring_to_lines,
    merge_colorings,
    parse_coloring_lines,
    verify_good_partition,
)
from bergecolor.recolor import find_reducing_swap

from conftest import cycle


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
    assert parse_coloring_lines(text).colors == c.colors


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
    assert parse_coloring_lines("v 1 2\nv 1 2\n").colors == {0: 2}
    with pytest.raises(ValueError, match="line 2"):
        parse_coloring_lines("v 1 2\nv 1 3\n")
    with pytest.raises(ValueError, match="two colors"):
        coloring_from_json({"colors": [[0, 2], [0, 3]]})


def test_json_round_trip():
    c = pc({0: 1, 5: 2})
    obj = coloring_to_json(c)
    assert obj["schema"] == "bergecolor-coloring/1"
    assert coloring_from_json(obj).colors == c.colors


def test_partial_coloring_helpers():
    g = cycle(4)
    c = pc({0: 1, 1: 2, 2: 1, 3: 2})
    assert c.is_proper_on(g)
    assert c.max_color() == 2 and c.colors_used() == 2
    assert c.domain() == {0, 1, 2, 3}
    bad = pc({0: 1, 1: 1, 2: 2, 3: 2})
    assert not bad.is_proper_on(g)


# --- alignment ---------------------------------------------------------------


def test_align_forces_anchor_colors():
    c1 = pc({0: 1, 1: 2})
    c2 = pc({0: 2, 1: 3, 2: 1})
    out = align_colorings(c1, c2, [0, 1])
    assert out.colors[0] == 1 and out.colors[1] == 2
    # the map is a bijection on colors, so 2's color stays distinct
    assert out.colors[2] not in (1, 2)


def test_align_rejects_inconsistency():
    # anchor vertices force color 1 to map to both 1 and 2
    c1 = pc({0: 1, 1: 2})
    c2 = pc({0: 1, 1: 1})
    with pytest.raises(ValueError):
        align_colorings(c1, c2, [0, 1])
    with pytest.raises(ValueError):
        align_colorings(pc({0: 1}), pc({}), [0])


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
    out = align_colorings(c1, c2, anchor)
    # a color permutation keeps properness and distinctness
    assert out.is_proper_on(g2)
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
    assert bichromatic_component(g, c, 0, (1, 2)) == {0, 1, 2}
    assert bichromatic_component(g, c, 4, (1, 2)) == {4}
    with pytest.raises(ValueError):
        bichromatic_component(g, c, 3, (1, 2))


def test_apply_swap_exchanges_pair():
    c = pc({0: 1, 1: 2, 2: 3})
    out = apply_swap(c, [0, 1], (1, 2))
    assert out.colors == {0: 2, 1: 1, 2: 3}
    with pytest.raises(ValueError):
        apply_swap(c, [2], (1, 2))


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
    assert once.is_proper_on(g)  # swapping a whole component keeps properness
    twice = apply_swap(once, comp, pair)
    assert twice.colors == c.colors


# --- merging -----------------------------------------------------------------


def _split_color(g, part):
    """Color both sides of a partition independently (exact, tiny graphs)."""
    from bergecolor import color

    vall = set(range(g.n))
    keep1 = sorted(vall - part.r)
    keep2 = sorted(vall - part.l)
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
    assert merged.is_proper_on(g)
    assert merged.domain() == set(range(g.n))
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
        k1=frozenset({0}),
        k2=frozenset(),
        k3=frozenset({3}),
        l=frozenset({1, 2}),
        r=frozenset({4, 5, 6}),
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
    c2a = align_colorings(c1, c2, sorted(part.k1 | part.k2))
    bad = sorted(u for u in part.k3 if c1.colors[u] != c2a.colors[u])
    if bad:
        cand = find_reducing_swap(g, part, c1, c2a, bad)
        assert cand is not None
        assert cand.side in (1, 2) and cand.cls in ("free", "general")
        assert cand.pair[0] < cand.pair[1]
