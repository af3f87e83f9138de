"""Shared fixtures: small named graphs and the acceptance corpus.

Corpus entries are (name, builder) pairs rather than graphs so determinism
tests can construct the same instance twice from scratch.
"""

from __future__ import annotations

import pytest

from bergecolor import (
    Graph,
    HyperprismSpec,
    PrismSpec,
    gen_hyperprism,
    gen_lk4_subdivision,
    gen_prism,
    gen_square_free_berge,
)
from bergecolor import partition


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def hexagon_chain(k: int) -> Graph:
    """k hexagons in a row, each sharing an edge with the next: two paths
    of 2k + 1 vertices joined at every even position.  Bipartite with girth
    6 and n = 4k + 2; its decomposition tree is k + 1 levels deep."""
    top, bot = range(2 * k + 1), range(2 * k + 1, 4 * k + 2)
    edges = [(p[j], p[j + 1]) for p in (top, bot) for j in range(2 * k)]
    edges += [(top[j], bot[j]) for j in range(0, 2 * k + 1, 2)]
    return Graph(4 * k + 2, edges)


def lcf_graph(n: int, shifts: tuple[int, ...]) -> Graph:
    """The cycle 0, 1, ..., n - 1 plus a chord from each i to
    i + shifts[i % len(shifts)] (mod n): the graph of LCF notation."""
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    edges |= {tuple(sorted((i, (i + shifts[i % len(shifts)]) % n))) for i in range(n)}
    return Graph(n, sorted(edges))


def pg23_incidence() -> Graph:
    """The point-line incidence graph of the projective plane of order 3:
    points 0..12, and line i (vertex 13 + i) through the points i + d for
    d in the perfect difference set {0, 1, 3, 9} mod 13."""
    line = (0, 1, 3, 9)
    edges = [(p, 13 + i) for i in range(13) for p in range(13) if (p - i) % 13 in line]
    return Graph(26, edges)


# Bipartite graphs of girth at least 6 and minimum degree at least 3: each
# has triads, no simplicial vertex and no good partition, so the whole
# graph is a leaf core that the peel leaves as it is.
NO_PARTITION_GRAPHS = {
    "heawood": lambda: lcf_graph(14, (5, -5)),
    "moebius-kantor": lambda: lcf_graph(16, (5, -5)),
    "pappus": lambda: lcf_graph(18, (5, 7, -7, 7, -7, -5)),
    "desargues": lambda: lcf_graph(20, (5, -5, 9, -9)),
    "tutte-coxeter": lambda: lcf_graph(30, (-13, -9, 7, -7, 9, 13)),
    "pg23-incidence": pg23_incidence,
}


def complete_minus_star(n: int, t: int) -> Graph:
    """K_n with the edges from vertex 0 to 1..t removed; triad-free and
    square-free for any 0 <= t < n."""
    dropped = {(0, i) for i in range(1, t + 1)}
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in dropped
    ]
    return Graph(n, edges)


EVEN_PRISMS = [
    (2, 2, 2), (2, 2, 4), (2, 4, 4), (4, 4, 4), (2, 4, 6),
    (6, 6, 6), (2, 2, 8), (4, 6, 8), (10, 10, 10), (16, 18, 20),
]
ODD_PRISMS = [
    (3, 3, 3), (3, 3, 5), (3, 5, 5), (5, 5, 5), (3, 5, 7),
    (7, 7, 7), (3, 3, 9), (9, 9, 9), (13, 15, 17),
]
HYPERPRISMS = [
    ((2, 2), (2,), (2,)),
    ((2, 2, 2), (2,), (2,)),
    ((4, 2), (2,), (4,)),
    ((2, 2), (4,), (6,)),
    ((4, 4), (4,), (4,)),
    ((6, 2), (2,), (2,)),
    ((2, 2, 2, 2), (2,), (2,)),
    ((4, 4, 2), (2,), (4,)),
    ((3, 3), (3,), (3,)),
    ((3, 5), (3,), (5,)),
    ((5, 5), (5,), (5,)),
    ((3, 3, 3), (3,), (3,)),
    ((7, 3), (5,), (3,)),
]
LK4S = [
    (2, 2, 2, 2, 2, 2),
    (2, 2, 2, 2, 2, 4),
    (4, 4, 4, 4, 4, 4),
    (2, 4, 2, 4, 2, 4),
    (6, 6, 6, 6, 6, 6),
    (2, 2, 4, 4, 6, 6),
    (3, 3, 3, 2, 2, 2),
    (5, 3, 3, 2, 2, 4),
    (3, 3, 5, 2, 4, 2),
    (2, 2, 2, 4, 4, 4),
]
EVEN_CYCLES = [6, 8, 10, 12, 14, 16]


def build_corpus() -> list[tuple[str, object]]:
    """(name, zero-argument builder) for every acceptance instance."""
    entries: list[tuple[str, object]] = []
    for ls in EVEN_PRISMS + ODD_PRISMS:
        entries.append(
            (f"prism{ls}", lambda ls=ls: gen_prism(PrismSpec(ls)))
        )
    for strips in HYPERPRISMS:
        entries.append(
            (
                f"hyperprism{strips}",
                lambda strips=strips: gen_hyperprism(HyperprismSpec(strips)),
            )
        )
    for ls in LK4S:
        entries.append((f"lk4{ls}", lambda ls=ls: gen_lk4_subdivision(ls)))
    for n in EVEN_CYCLES:
        entries.append((f"C{n}", lambda n=n: cycle(n)))
    for n in range(6, 15):
        for seed in range(6):
            entries.append(
                (
                    f"random(n={n},seed={seed})",
                    lambda n=n, seed=seed: gen_square_free_berge(n, seed),
                )
            )
    for n in range(15, 41):
        for seed in range(3):
            entries.append(
                (
                    f"random(n={n},seed={seed})",
                    lambda n=n, seed=seed: gen_square_free_berge(n, seed),
                )
            )
    for n in range(41, 61):
        entries.append(
            (f"random(n={n},seed=0)", lambda n=n: gen_square_free_berge(n, 0))
        )
    return entries


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_graphs(corpus):
    return [(name, make()) for name, make in corpus]


@pytest.fixture
def frame_phase(monkeypatch):
    """Switch off the vertex phase of `find_good_partition` and the
    solver's leaf skip, so that every search, the solver's included, runs
    the frame phase alone: tests of frame order, pruning and merge swaps
    need it, since a single-vertex good partition would otherwise be found
    first at most nodes, and the solver's search would skip the frame
    phase on every core that `leaf_color` colors.  The skip is switched
    off by patching the leaf test as the search sees it; `leaf_color`
    still uses the real one."""
    monkeypatch.setattr(partition, "_vertex_partition", lambda *args: None)
    monkeypatch.setattr(partition, "_twin_bipartition", lambda *args: None)
