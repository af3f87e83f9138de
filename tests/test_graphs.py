import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecolor import (
    Graph,
    NotBerge,
    NotSquareFree,
    components,
    contains_square,
    find_triads,
    is_berge,
    is_clique,
    maximal_cliques,
    omega,
    require_berge,
    require_square_free,
)
from bergecolor.graphs import bit_list, iter_bits, mask_of

from conftest import complete, complete_minus_star, cycle, path_graph
from oracles import (
    naive_components,
    naive_is_berge,
    naive_maximal_cliques,
    naive_omega,
    naive_squares,
    naive_triads,
)


@st.composite
def graphs(draw, max_n: int = 9):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


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


def test_complement_is_involution():
    g = cycle(7)
    assert g.complement().complement() == g
    assert g.complement().m == 7 * 6 // 2 - 7


def test_components_on_split_graph():
    g = Graph(6, [(0, 1), (1, 2), (4, 5)])
    assert components(g) == [frozenset({0, 1, 2}), frozenset({3}), frozenset({4, 5})]
    assert components(g, [0, 2, 4, 5]) == [
        frozenset({0}),
        frozenset({2}),
        frozenset({4, 5}),
    ]


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_components_match_naive(g):
    got = {frozenset(c) for c in components(g)}
    want = {frozenset(c) for c in naive_components(g, set(range(g.n)))}
    assert got == want


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


@given(graphs())
@settings(max_examples=200, deadline=None)
def test_find_triads_matches_naive(g):
    assert set(find_triads(g)) == naive_triads(g)
    assert find_triads(g) == sorted(find_triads(g))


def test_maximal_cliques_examples():
    assert maximal_cliques(complete(4)) == [(0, 1, 2, 3)]
    assert maximal_cliques(Graph(3)) == [(0,), (1,), (2,)]
    assert maximal_cliques(Graph(0)) == []
    assert maximal_cliques(cycle(5)) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]


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
    assert not is_berge(big, cap=64, force=True).ok


def test_is_clique():
    g = complete(4)
    assert is_clique(g, [0, 1, 2])
    assert is_clique(g, [])
    assert is_clique(g, [2])
    assert not is_clique(cycle(4), [0, 1, 2])


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
