import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecolor import (
    Graph,
    NotBerge,
    NotSquareFree,
    PrismSpec,
    contains_square,
    find_triads,
    gen_prism,
    gen_square_free_berge,
    is_berge,
    maximal_cliques,
    omega,
    require_berge,
    require_square_free,
)
from bergecolor.graphs import (
    _count_triads,
    _find_odd_hole,
    _bipartition,
    _peel,
    bit_list,
    cliques_within,
    component_mask,
    iter_bits,
    mask_of,
    maximal_cliques_in,
)

from conftest import complete, complete_minus_star, cycle, path_graph
from oracles import (
    naive_bfs_layers,
    naive_is_berge,
    naive_is_bipartite,
    naive_maximal_cliques,
    naive_maximal_cliques_in,
    naive_odd_hole,
    naive_omega,
    naive_peel,
    naive_squares,
    naive_subgraph,
    naive_triads,
)


@st.composite
def graphs(draw, max_n: int = 9):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def sparse_graphs(draw, max_n: int = 16):
    """A cycle of length 3 to 9 with pendant trees hung on it and a few
    chords, relabelled at random: the peel strips the trees, and the core
    left is bipartite or not, with or without triangles."""
    k = draw(st.integers(3, 9))
    n = draw(st.integers(k, max_n))
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(draw(st.integers(0, v - 1)), v) for v in range(k, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=3, unique=True))
    label = draw(st.permutations(range(n)))
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def test_mask_helpers_round_trip():
    assert mask_of([0, 3, 5]) == 0b101001
    assert bit_list(0b101001) == [0, 3, 5]
    assert list(iter_bits(0)) == []
    assert bit_list(mask_of(range(7))) == list(range(7))


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (1, 2)])  # duplicate edge collapses
    assert g.m == 2
    assert g.adjacent(0, 1) and g.adjacent(1, 0)
    assert not g.adjacent(0, 2)
    assert g.neighbors(1) == [0, 2]
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert g.edges() == [(0, 1), (1, 2)]


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_edges_match_a_pairwise_listing(g):
    pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adjacent(u, v)]
    assert g.edges() == pairs


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_of_masks_rebuilds_the_graph(g):
    h = Graph._of_masks(list(g._masks))
    assert h == g
    assert h.m == g.m


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_subgraph_relabels_in_order():
    g = cycle(6)
    h, keep = g.subgraph([5, 1, 3, 2])
    assert keep == (1, 2, 3, 5)
    # edges of C6 inside {1,2,3,5}: 1-2, 2-3
    assert h.edges() == [(0, 1), (1, 2)]


def _random_graph(rng: random.Random, n: int) -> Graph:
    p = rng.random()
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_subgraph_matches_an_edge_list_rebuild():
    rng = random.Random(11)
    for _ in range(300):
        g = _random_graph(rng, rng.randint(0, 40))
        vertices = [v for v in range(g.n) if rng.random() < rng.random()]
        rng.shuffle(vertices)
        h, keep = g.subgraph(vertices + vertices[:3])
        want, want_keep = naive_subgraph(g, vertices)
        assert keep == want_keep
        assert [h.mask(v) for v in range(h.n)] == [want.mask(v) for v in range(want.n)]
        assert (h.n, h.m) == (want.n, want.m)


def _random_subset(rng: random.Random, n: int) -> set[int]:
    p = rng.random()
    return {v for v in range(n) if rng.random() < p}


def test_component_mask_matches_a_multi_source_bfs():
    # several seeds, some outside `allowed`, with and without a stop mask:
    # the layers are the reference's distance groups, and the mask returned
    # is their union
    rng = random.Random(23)
    for _ in range(2000):
        n = rng.randint(0, 14)
        g = _random_graph(rng, n)
        seeds, allowed = _random_subset(rng, n), _random_subset(rng, n)
        stop = _random_subset(rng, n) if rng.random() < 0.6 else set()
        want = naive_bfs_layers(g, seeds, allowed, stop)
        layers = []
        seen = component_mask(g, mask_of(seeds), mask_of(allowed), mask_of(stop), layers)
        assert layers == [mask_of(layer) for layer in want]
        assert seen == mask_of(set().union(*want))
        assert component_mask(g, mask_of(seeds), mask_of(allowed), mask_of(stop)) == seen


def test_is_bipartite_matches_a_two_colouring():
    rng = random.Random(29)
    verdicts = {True: 0, False: 0}
    for _ in range(2000):
        n = rng.randint(0, 14)
        g = _random_graph(rng, n)
        allowed = _random_subset(rng, n)
        want = naive_is_bipartite(g, allowed)
        sides = _bipartition(g, mask_of(allowed))
        assert (sides is not None) is want
        verdicts[want] += 1
        # the two sides cover the allowed vertices, each without an edge
        if want:
            even, odd = sides
            assert not even & odd and even | odd == mask_of(allowed)
            assert not any(g.mask(v) & side for side in sides for v in bit_list(side))
    assert min(verdicts.values()) > 300


def test_cliques_within_matches_a_fresh_search(corpus_graphs):
    # corpus graphs and random graphs (mostly not Berge), each with random
    # vertex subsets, the two-vertex deletions of frame search among them
    rng = random.Random(13)
    graphs = [g for _, g in corpus_graphs]
    graphs += [_random_graph(rng, rng.randint(0, 30)) for _ in range(200)]
    for g in graphs:
        cliques = [mask_of(c) for c in maximal_cliques(g)]
        keeps = [0, g.full_mask]
        keeps += [rng.getrandbits(g.n) & rng.getrandbits(g.n) for _ in range(2)]
        keeps += [rng.getrandbits(g.n) | rng.getrandbits(g.n) for _ in range(2)]
        if g.n >= 2:
            x, y = rng.sample(range(g.n), 2)
            keeps.append(g.full_mask & ~(1 << x) & ~(1 << y))
        for keep in keeps:
            want = maximal_cliques_in(g, keep)
            assert cliques_within(g, cliques, keep) == want


def test_maximal_cliques_in_match_naive_within_random_masks(corpus_graphs):
    # listed by lowest vertex, as masks: the naive list of cliques grown one
    # higher vertex at a time, sorted, on corpus graphs and random graphs
    # (mostly not Berge), each with random vertex subsets
    rng = random.Random(19)
    graphs = [g for _, g in corpus_graphs if g.n <= 40]
    graphs += [_random_graph(rng, rng.randint(0, 12)) for _ in range(300)]
    for g in graphs:
        keeps = [0, g.full_mask]
        keeps += [rng.getrandbits(g.n) for _ in range(2)]
        keeps += [rng.getrandbits(g.n) | rng.getrandbits(g.n) for _ in range(2)]
        for keep in keeps:
            assert maximal_cliques_in(g, keep) == naive_maximal_cliques_in(g, keep)


def test_complement_is_involution():
    g = cycle(7)
    assert g.complement().complement() == g
    assert g.complement().m == 7 * 6 // 2 - 7


def test_complement_matches_the_pairwise_complement():
    # every pair of distinct vertices is an edge of exactly one of g and
    # its complement; n = 0 and 1 included
    rng = random.Random(5)
    for n in [0, 1, *(rng.randint(2, 40) for _ in range(60))]:
        p = rng.random()
        every = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, [e for e in every if rng.random() < p])
        pairs = [(u, v) for u, v in every if not g.adjacent(u, v)]
        assert g.complement() == Graph(n, pairs)
        assert g.complement().m == len(pairs)


def test_contains_square_examples():
    assert contains_square(cycle(4)) == (0, 1, 2, 3)
    assert contains_square(cycle(5)) is None
    assert contains_square(cycle(6)) is None
    assert contains_square(complete(4)) is None
    # K_{2,3} has plenty of squares; the reported one is lexicographically first
    k23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert contains_square(k23) == (0, 2, 1, 3)


@given(graphs())
@settings(max_examples=300, deadline=None)
def test_contains_square_matches_naive(g):
    got = contains_square(g)
    want = naive_squares(g)
    if got is None:
        assert want == []
    else:
        a, b, c, d = got
        assert g.adjacent(a, b) and g.adjacent(b, c)
        assert g.adjacent(c, d) and g.adjacent(d, a)
        assert not g.adjacent(a, c) and not g.adjacent(b, d)
        assert got == min(want)


@given(sparse_graphs())
@settings(max_examples=300, deadline=None)
def test_contains_square_matches_naive_on_pendant_trees(g):
    # tree vertices often have fewer than two neighbours above them, and
    # the scan skips those
    want = naive_squares(g)
    assert contains_square(g) == (min(want) if want else None)


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_find_triads_matches_naive(g):
    assert set(find_triads(g)) == naive_triads(g)
    assert find_triads(g) == sorted(find_triads(g))


def test_count_triads_matches_the_listing(corpus_graphs):
    # analyze counts the triads without building them
    counted = 0
    for _, g in corpus_graphs:
        assert _count_triads(g) == len(find_triads(g))
        counted += _count_triads(g)
    assert _count_triads(Graph(0)) == 0 and counted > 100000


def test_maximal_cliques_examples():
    assert maximal_cliques(complete(4)) == [(0, 1, 2, 3)]
    assert maximal_cliques(Graph(3)) == [(0,), (1,), (2,)]
    assert maximal_cliques(Graph(0)) == []
    assert maximal_cliques(cycle(5)) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    # as masks: empty masks, and vertices isolated in the graph or only
    # inside the mask
    assert maximal_cliques_in(Graph(0), 0) == []
    assert maximal_cliques_in(cycle(5), 0) == []
    g = Graph(5, [(1, 2), (2, 3)])
    assert maximal_cliques_in(g, g.full_mask) == [0b1, 0b110, 0b1100, 0b10000]
    assert maximal_cliques_in(g, 0b11011) == [0b1, 0b10, 0b1000, 0b10000]


def test_maximal_cliques_of_a_large_clique_need_no_deep_stack():
    assert sys.getrecursionlimit() < 1100
    k = complete(1100)
    assert maximal_cliques(k) == [tuple(range(1100))]
    # as masks: in a random mask, and with one edge gone
    keep = random.Random(23).getrandbits(1100)
    assert maximal_cliques_in(k, keep) == [keep]
    edges = [(u, v) for u, v in k.edges() if (u, v) != (0, 1)]
    assert maximal_cliques_in(Graph(1100, edges), k.full_mask) == [
        k.full_mask & ~0b10,
        k.full_mask & ~0b1,
    ]


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_maximal_cliques_match_naive(g):
    got = maximal_cliques(g)
    assert {frozenset(c) for c in got} == naive_maximal_cliques(g)
    assert got == sorted(got)  # canonical order
    assert omega(g) == naive_omega(g)


def test_is_berge_examples():
    assert is_berge(cycle(6)).ok
    assert is_berge(complete(5)).ok
    v5 = is_berge(cycle(5))
    assert not v5.ok and v5.witness == ("odd-hole", (0, 1, 2, 3, 4))
    v7 = is_berge(cycle(7))
    assert not v7.ok and v7.witness[0] == "odd-hole"
    co7 = is_berge(cycle(7).complement())
    assert not co7.ok and co7.witness[0] == "odd-antihole"
    # C5 is self-complementary; the hole is reported before the antihole
    assert is_berge(cycle(5)).witness[0] == "odd-hole"


@given(graphs(max_n=8))
@settings(max_examples=150, deadline=None)
def test_is_berge_matches_naive(g):
    assert is_berge(g).ok == naive_is_berge(g)


@given(graphs(max_n=12))
@settings(max_examples=400, deadline=None)
def test_odd_hole_witness_is_the_ordered_search_witness(g):
    # the peel, the bipartite test and the core restriction only skip work:
    # the same hole is named as by the search over all of g, in g and in
    # its complement (where is_berge looks for antiholes)
    assert _find_odd_hole(g) == naive_odd_hole(g)
    co = g.complement()
    assert _find_odd_hole(co) == naive_odd_hole(co)


@given(sparse_graphs())
@settings(max_examples=400, deadline=None)
def test_odd_hole_witness_on_cycles_with_trees_and_chords(g):
    assert _find_odd_hole(g) == naive_odd_hole(g)


def _glue_odd_hole(rng: random.Random, g: Graph) -> tuple[Graph, set[int]]:
    """g with a C5, C7, C9 or C11 glued on along one vertex or one edge,
    relabelled at random with the hole's lowest vertex above 0, and the
    hole's vertices.  The glued vertex or edge is a clique cutset, so the
    hole is the only odd hole when g is Berge."""
    k = rng.choice((5, 7, 9, 11))
    edges = g.edges()
    shared = list(rng.choice(edges)) if edges and rng.random() < 0.5 else [rng.randrange(g.n)]
    hole = shared + list(range(g.n, g.n + k - len(shared)))
    edges += [(hole[i], hole[(i + 1) % k]) for i in range(k)]
    n = g.n + k - len(shared)
    label = list(range(n))
    rng.shuffle(label)
    zero = label.index(0)
    if zero in hole:
        other = rng.choice([v for v in range(n) if v not in hole])
        label[zero], label[other] = label[other], 0
    return Graph(n, [(label[u], label[v]) for u, v in edges]), {label[v] for v in hole}


@pytest.mark.parametrize("seed", range(24))
def test_odd_hole_witness_on_larger_draws(seed):
    # at n <= 12 the re-peel after each start vertex rarely cascades; here
    # each square-free Berge draw has 20 to 60 vertices
    rng = random.Random(seed)
    g, hole = _glue_odd_hole(rng, gen_square_free_berge(rng.randint(20, 60), seed))
    found = _find_odd_hole(g)
    assert found == naive_odd_hole(g)
    assert set(found) == hole and min(hole) > 0
    plain = gen_square_free_berge(rng.randint(40, 60), seed)
    assert _find_odd_hole(plain) == naive_odd_hole(plain) is None


@given(graphs(max_n=10), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_peel_of_a_kept_set_matches_naive_peel(g, rnd):
    # seeds equal to keep vouch for nothing: the peel of g[keep], in g's
    # labels, is the full ascending scans of the induced subgraph.  One
    # draw in four keeps the whole graph, whose first scan runs in plain
    # vertex order
    if rnd.randrange(4) == 0:
        keep = g.full_mask
    else:
        keep = mask_of(v for v in range(g.n) if rnd.random() < 0.7)
    piece, order = naive_subgraph(g, bit_list(keep))
    want = [(order[v], {order[u] for u in nb}) for v, nb in naive_peel(piece)]
    core, peeled = _peel(g, keep, keep)
    assert [(v, set(bit_list(nb))) for v, nb in peeled] == want
    assert core == keep & ~mask_of(v for v, _ in want)


def _peel_sweep_graphs():
    """Paths, trees and prisms with trees hung on them, n up to 60, each
    relabelled at random: the peel strips whole paths and branches one
    vertex at a time, so a removal's single neighbour lies above or below it
    as the labels fall."""
    rng = random.Random(2024)
    for i in range(240):
        kind = i % 3
        if kind == 0:
            n = rng.randint(1, 60)
            edges = [(v, v + 1) for v in range(n - 1)]
        elif kind == 1:
            n = rng.randint(1, 60)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
        else:
            parity = rng.randint(0, 1)
            rungs = tuple(parity + 2 * rng.randint(1, 4) for _ in range(3))
            prism = gen_prism(PrismSpec(rungs))
            n = rng.randint(prism.n, 60)
            edges = prism.edges() + [(rng.randrange(v), v) for v in range(prism.n, n)]
        label = list(range(n))
        rng.shuffle(label)
        yield Graph(n, [(label[u], label[v]) for u, v in edges]), rng


def test_peel_sweep_matches_naive_peel():
    # each graph peeled whole, its first scan in plain vertex order, and on
    # a kept set, against the full ascending scans; the one-neighbour removals
    # must queue their neighbour both above and below themselves
    above = below = 0
    for g, rng in _peel_sweep_graphs():
        for keep in (g.full_mask, mask_of(v for v in range(g.n) if rng.random() < 0.8)):
            piece, order = naive_subgraph(g, bit_list(keep))
            want = [(order[v], {order[u] for u in nb}) for v, nb in naive_peel(piece)]
            core, peeled = _peel(g, keep, keep)
            assert [(v, set(bit_list(nb))) for v, nb in peeled] == want
            assert core == keep & ~mask_of(v for v, _ in want)
            for v, nb in peeled:
                if nb.bit_count() == 1:
                    above += nb > 1 << v
                    below += nb < 1 << v
    assert above > 1000 and below > 1000


@given(graphs(max_n=8))
@settings(max_examples=150, deadline=None)
def test_is_berge_square_free_flag_skips_only_the_square_check(g):
    if contains_square(g) is None:
        assert is_berge(g, square_free=True) == is_berge(g)


def test_long_odd_hole_is_found_without_recursion():
    # a hole longer than the recursion limit: the search keeps its own stack
    verdict = is_berge(cycle(1201), cap=1201)
    assert verdict.witness == ("odd-hole", tuple(range(1201)))
    assert sys.getrecursionlimit() < 1201


def test_is_berge_witness_is_a_hole():
    verdict = is_berge(cycle(9))
    kind, cyc = verdict.witness
    assert kind == "odd-hole" and len(cyc) == 9
    g = cycle(9)
    for i, v in enumerate(cyc):
        assert g.adjacent(v, cyc[(i + 1) % len(cyc)])
        for j in range(i + 2, len(cyc)):
            if (j + 1) % len(cyc) != i:
                assert not g.adjacent(v, cyc[j])


def test_is_berge_respects_cap():
    big = cycle(65)
    with pytest.raises(ValueError):
        is_berge(big, cap=64)  # refuses rather than guessing
    assert not is_berge(big, cap=big.n).ok


def test_require_square_free():
    require_square_free(cycle(6))
    with pytest.raises(NotSquareFree) as exc:
        require_square_free(cycle(4))
    assert exc.value.witness == (0, 1, 2, 3)


def test_require_berge():
    require_berge(cycle(6))
    with pytest.raises(NotBerge) as exc:
        require_berge(cycle(5))
    assert exc.value.witness == ("odd-hole", (0, 1, 2, 3, 4))


def test_triad_free_graphs_have_no_triads():
    for n, t in [(4, 0), (5, 2), (8, 4), (9, 8)]:
        g = complete_minus_star(n, t)
        assert find_triads(g) == []
        assert contains_square(g) is None


def test_path_graph_triads():
    assert find_triads(path_graph(5)) == [(0, 2, 4)]
