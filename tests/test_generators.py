"""Tests for the instance generators: parameter validation, frozen labelings,
structural invariants, and the determinism of the seeded random family."""

import hashlib
import random
import warnings

import pytest

from bergecolor import (
    GenerationExhausted,
    GeneratorWarning,
    Graph,
    HyperprismSpec,
    PrismSpec,
    SpecError,
    contains_square,
    gen_hyperprism,
    gen_lk4_subdivision,
    gen_prism,
    gen_square_free_berge,
    is_berge,
    line_graph,
    omega,
    sidecar_metadata,
)
from bergecolor import generators

from conftest import (
    EVEN_PRISMS,
    HYPERPRISMS,
    LK4S,
    ODD_PRISMS,
    complete,
    cycle,
)
from oracles import (
    contains_induced_prism,
    naive_grow_c4free_bipartite,
    naive_line_graph,
    naive_strips_graph,
)


# ------------------------------------------------------------ spec validation


@pytest.mark.parametrize(
    "lengths",
    [(1, 2, 3), (2, 2, 3), (0, 2, 2), (-1, 3, 3), (2, 2), (2, 2, 2, 2)],
)
def test_prism_spec_rejected(lengths):
    with pytest.raises(SpecError):
        PrismSpec(lengths)


def test_prism_spec_vertex_count():
    assert PrismSpec((2, 2, 2)).n == 9
    assert PrismSpec((3, 5, 7)).n == 18


@pytest.mark.parametrize(
    "strips",
    [
        ((), (2,), (2,)),
        ((2, 3), (2,), (2,)),
        ((2,), (2,)),
        ((2,), (0,), (2,)),
        ((2,), (3,), (3,)),
    ],
)
def test_hyperprism_spec_rejected(strips):
    with pytest.raises(SpecError):
        HyperprismSpec(strips)


def test_hyperprism_spec_vertex_count():
    assert HyperprismSpec(((2, 2), (2,), (2,))).n == 12
    assert HyperprismSpec(((3,), (3,), (3,))).n == 12


@pytest.mark.parametrize(
    "lengths",
    [(2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2, 2), (0, 2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 3)],
)
def test_lk4_lengths_rejected(lengths):
    with pytest.raises(SpecError):
        gen_lk4_subdivision(lengths)


@pytest.mark.parametrize(
    "build, n",
    [
        (lambda: PrismSpec((10000000001, 1, 1)), 10000000006),
        (lambda: HyperprismSpec(((10000000001,), (1,), (1,))), 10000000006),
        (lambda: gen_lk4_subdivision((1000000, 2, 2, 2, 2, 2)), 1000010),
        (lambda: gen_square_free_berge(10000000000, 0), 10000000000),
    ],
)
def test_over_the_vertex_limit_is_refused_before_building(monkeypatch, build, n):
    # a graph that read_col could not read back is refused from its vertex
    # count; Graph is stubbed out, since building one runs out of memory
    def unbuilt(*args, **kwargs):
        raise AssertionError("a graph over the vertex limit was built")

    unbuilt._of_masks = unbuilt
    monkeypatch.setattr(generators, "Graph", unbuilt)
    with pytest.raises(SpecError) as exc:
        build()
    assert str(exc.value) == f"{n} vertices is over the limit of 1000000"


# -------------------------------------------------------------------- prisms


def test_prism_222_frozen_labeling():
    g = gen_prism(PrismSpec((2, 2, 2)))
    assert g.n == 9
    assert g.edges() == [
        (0, 1), (0, 2), (0, 6), (1, 2), (1, 7), (2, 8),
        (3, 4), (3, 5), (3, 6), (4, 5), (4, 7), (5, 8),
    ]
    assert contains_square(g) is None
    assert is_berge(g).ok
    assert omega(g) == 3


def test_prism_odd_rungs():
    g = gen_prism(PrismSpec((3, 3, 3)))
    assert g.n == 12
    assert contains_square(g) is None
    assert is_berge(g).ok


def test_prism_unit_rungs_warn():
    # all-unit rungs are legal parameters but the result has squares
    with pytest.warns(GeneratorWarning, match="square"):
        g = gen_prism(PrismSpec((1, 1, 1)))
    assert g.n == 6
    assert contains_square(g) is not None


@pytest.mark.parametrize("lengths", EVEN_PRISMS + ODD_PRISMS)
def test_prism_family_is_clean(lengths):
    with warnings.catch_warnings():
        warnings.simplefilter("error", GeneratorWarning)
        g = gen_prism(PrismSpec(lengths))
    assert g.n == 3 + sum(lengths)
    assert contains_square(g) is None


# --------------------------------------------------------------- hyperprisms


def test_degenerate_hyperprism_is_a_prism():
    hp = gen_hyperprism(HyperprismSpec(((2,), (2,), (2,))))
    pr = gen_prism(PrismSpec((2, 2, 2)))
    assert hp.n == pr.n
    assert hp.edges() == pr.edges()


def test_hyperprism_two_rung_strip():
    g = gen_hyperprism(HyperprismSpec(((2, 2), (2,), (2,))))
    assert g.n == 12
    assert contains_square(g) is None
    assert is_berge(g).ok


def test_hyperprism_odd_rungs():
    g = gen_hyperprism(HyperprismSpec(((3, 3), (3,), (3,))))
    assert contains_square(g) is None
    assert is_berge(g).ok


def test_hyperprism_two_fat_strips_warn():
    # two strips with two rungs each: four starts induce a square
    with pytest.warns(GeneratorWarning, match="square"):
        gen_hyperprism(HyperprismSpec(((2, 2), (2, 2), (2,))))


def _rungs(strips):
    return [(si, ln) for si, strip in enumerate(strips) for ln in strip]


@pytest.mark.parametrize("strips", HYPERPRISMS)
def test_hyperprism_structure(strips):
    with warnings.catch_warnings():
        warnings.simplefilter("error", GeneratorWarning)
        g = gen_hyperprism(HyperprismSpec(strips))
    rungs = _rungs(strips)
    nrungs = len(rungs)

    # start-start and end-end edges exactly between different strips
    for i in range(nrungs):
        for j in range(i + 1, nrungs):
            cross = rungs[i][0] != rungs[j][0]
            assert g.adjacent(i, j) == cross
            assert g.adjacent(nrungs + i, nrungs + j) == cross
            assert not g.adjacent(i, nrungs + j) or (i == j and rungs[i][1] == 1)

    # each rung is a path start -> interiors -> end, interiors of degree 2
    nxt = 2 * nrungs
    for i, (_, length) in enumerate(rungs):
        chain = [i] + list(range(nxt, nxt + length - 1)) + [nrungs + i]
        nxt += length - 1
        for a, b in zip(chain, chain[1:]):
            assert g.adjacent(a, b)
        for v in chain[1:-1]:
            assert g.degree(v) == 2
    assert nxt == g.n


def test_strips_graph_matches_the_edge_list_reference():
    specs = [tuple((x,) for x in ls) for ls in EVEN_PRISMS + ODD_PRISMS]
    specs += HYPERPRISMS
    rng = random.Random(11)
    for _ in range(500):
        specs.append(tuple(
            tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 4))
        ))
    for strips in specs:
        assert generators._strips_graph(strips) == naive_strips_graph(strips), strips


# --------------------------------------------------------------- line graphs


def test_line_graph_of_c5_is_c5():
    lg = line_graph(cycle(5))
    assert lg.n == 5
    assert sorted(lg.degree(v) for v in range(5)) == [2, 2, 2, 2, 2]
    assert lg.edges() == [(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)]


def test_line_graph_degree_identity():
    for h in [cycle(6), complete(4), Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])]:
        lg = line_graph(h)
        assert lg.n == h.m
        for i, (u, v) in enumerate(h.edges()):
            assert lg.degree(i) == h.degree(u) + h.degree(v) - 2


def test_line_graph_of_edgeless():
    assert line_graph(Graph(3)).n == 0


def test_line_graph_matches_the_pairwise_reference():
    rng = random.Random(5)
    for _ in range(3000):
        n = rng.randint(0, 12)
        p = rng.random()
        h = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        assert line_graph(h) == naive_line_graph(h)


# ----------------------------------------------------------- lk4 subdivision


def test_lk4_all_twos():
    g = gen_lk4_subdivision((2, 2, 2, 2, 2, 2))
    assert g.n == 12
    assert contains_square(g) is None
    assert is_berge(g).ok
    assert omega(g) == 3


def test_lk4_contains_a_prism():
    # branch vertices of the K4 leave triangles in the line graph; three
    # subdivided branches between two of them carry an induced prism
    g = gen_lk4_subdivision((2, 2, 2, 2, 2, 2))
    assert contains_induced_prism(g)


@pytest.mark.parametrize("lengths", LK4S)
def test_lk4_family_is_clean(lengths):
    with warnings.catch_warnings():
        warnings.simplefilter("error", GeneratorWarning)
        g = gen_lk4_subdivision(lengths)
    assert g.n == sum(lengths)
    assert contains_square(g) is None


# -------------------------------------------------------------- seeded random


def test_random_rejects_negative():
    with pytest.raises(SpecError):
        gen_square_free_berge(-1, 0)


def test_random_empty_and_tiny():
    assert gen_square_free_berge(0, 0).n == 0
    g = gen_square_free_berge(1, 0)
    assert (g.n, g.m) == (1, 0)


def test_random_is_deterministic():
    for n, seed in [(8, 0), (12, 7), (25, 3), (40, 1)]:
        a = gen_square_free_berge(n, seed)
        b = gen_square_free_berge(n, seed)
        assert a.n == b.n and a.edges() == b.edges()


def test_random_frozen_instance():
    # pins the construction stream itself: any drift in draw order or
    # parameter ranges changes this instance
    g = gen_square_free_berge(12, 7)
    assert g.edges() == [(0, 7), (1, 11), (3, 10), (6, 7), (6, 8), (6, 11)]


# the edge lists of every draw with n <= 60 and seed 0..7, then five larger
# ones, hashed; any change to a draw or to the order of the edges moves it
_DRAWS_SHA256 = "fe87049a1da1875ae54525ad8346b151e30bb40b45e4dcb300154730f8f8d35e"


def test_random_draws_are_pinned():
    h = hashlib.sha256()
    draws = [(n, s) for n in range(61) for s in range(8)]
    draws += [(120, 0), (180, 7), (300, 2), (400, 6), (800, 3)]
    for n, s in draws:
        g = gen_square_free_berge(n, s)
        h.update(f"{n} {s} {g.edges()}\n".encode())
    assert h.hexdigest() == _DRAWS_SHA256


def test_c4free_growth_draws_as_randrange_does():
    # every end drawn as randrange draws it: the same graph, and the stream
    # left where randrange leaves it; bit counts change at powers of two
    special = [1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]
    rng = random.Random(2024)
    triples = [(a, b, rng.randint(0, a + b)) for a in special for b in special]
    while len(triples) < 2000:
        a, b = rng.randint(1, 70), rng.randint(1, 70)
        triples.append((a, b, rng.randint(0, 2 * (a + b))))
    for i, (left, right, target) in enumerate(triples):
        r1, r2 = random.Random(i), random.Random(i)
        got = generators._grow_c4free_bipartite(r1, left, right, target)
        want = naive_grow_c4free_bipartite(r2, left, right, target)
        assert got == want, (left, right, target)
        assert r1.getstate() == r2.getstate(), (left, right, target)


class _BoundedRandom(random.Random):
    """A Random that fails after 1,000 getrandbits calls, so that a draw
    that could never end fails instead of hanging."""

    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        assert self.calls <= 1000, "the draw does not end"
        return super().getrandbits(k)


@pytest.mark.parametrize("left, right", [(0, 5), (5, 0), (0, 0), (-1, 3)])
def test_c4free_growth_refuses_an_empty_side(left, right):
    with pytest.raises(ValueError):
        generators._grow_c4free_bipartite(_BoundedRandom(0), left, right, 3)


def test_random_seeds_differ():
    diffs = 0
    for seed in range(4):
        a = gen_square_free_berge(20, seed)
        b = gen_square_free_berge(20, seed + 10)
        diffs += a.edges() != b.edges()
    assert diffs > 0


def test_random_output_is_square_free():
    for n in range(1, 41):
        for seed in range(3):
            g = gen_square_free_berge(n, seed)
            assert g.n == n
            assert contains_square(g) is None, (n, seed)


def test_random_output_is_berge_when_checkable():
    for n in range(1, 21):
        for seed in range(3):
            g = gen_square_free_berge(n, seed)
            assert is_berge(g).ok, (n, seed)


def test_random_exhaustion_is_loud(monkeypatch):
    monkeypatch.setattr(generators, "_MAX_ATTEMPTS", 0)
    with pytest.raises(GenerationExhausted):
        gen_square_free_berge(10, 0)


# ------------------------------------------------------------------- sidecar


def test_sidecar_metadata_shape():
    g = gen_prism(PrismSpec((2, 2, 2)))
    doc = sidecar_metadata("prism", {"lengths": [2, 2, 2]}, g)
    assert doc == {
        "schema": "bergecolor-instance/1",
        "construction": "prism",
        "params": {"lengths": [2, 2, 2]},
        "n": 9,
        "m": 12,
    }
