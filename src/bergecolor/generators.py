"""Instance generators: prisms, hyperprisms, line graphs of subdivided K4,
and seeded random square-free Berge graphs.

Labeling is stable and documented per generator so that runs, DIMACS files,
and tests can refer to vertices by number.  Every constructive generator
validates its output (no induced square; Berge-checked up to a size cap) and
reports departures with GeneratorWarning rather than failing, because some
legal parameter choices, such as unit prism rungs, genuinely produce squares.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

from .errors import GenerationExhausted, SpecError
from .graphs import Graph, contains_square, is_berge, iter_bits


class GeneratorWarning(UserWarning):
    """A generated instance failed a structural validation check."""


def _validate(g: Graph, what: str, berge_cap: int = 20) -> None:
    sq = contains_square(g)
    if sq is not None:
        warnings.warn(f"{what} contains an induced square {sq}", GeneratorWarning)
    elif g.n <= berge_cap:
        verdict = is_berge(g, cap=berge_cap)
        if not verdict.ok:
            kind, cyc = verdict.witness
            warnings.warn(f"{what} contains an {kind} {cyc}", GeneratorWarning)


@dataclass(frozen=True)
class PrismSpec:
    """Three rung lengths, all at least 1 and of equal parity (mixed parity
    would create an odd hole)."""

    lengths: tuple[int, int, int]

    def __post_init__(self):
        ls = self.lengths
        if len(ls) != 3 or any(not isinstance(x, int) or x < 1 for x in ls):
            raise SpecError(f"prism needs three integer rung lengths >= 1, got {ls}")
        if len({x % 2 for x in ls}) != 1:
            raise SpecError(f"prism rung lengths must share parity, got {ls}")

    @property
    def n(self) -> int:
        return 3 + sum(self.lengths)


@dataclass(frozen=True)
class HyperprismSpec:
    """Three strips, each a nonempty tuple of rung lengths; all lengths share
    one parity.  Note that two strips with two or more rungs each force an
    induced square (two starts of one strip plus two of the other)."""

    strips: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

    def __post_init__(self):
        if len(self.strips) != 3 or any(len(s) == 0 for s in self.strips):
            raise SpecError("hyperprism needs three nonempty strips")
        lengths = [x for s in self.strips for x in s]
        if any(not isinstance(x, int) or x < 1 for x in lengths):
            raise SpecError(f"rung lengths must be integers >= 1, got {self.strips}")
        if len({x % 2 for x in lengths}) != 1:
            raise SpecError(f"all rung lengths must share parity, got {self.strips}")

    @property
    def n(self) -> int:
        return sum(x + 1 for s in self.strips for x in s)


def gen_prism(spec: PrismSpec) -> Graph:
    """Two triangles joined by three disjoint paths: the hyperprism with one
    rung per strip.

    Labels: triangle corners 0,1,2 (side A) and 3,4,5 (side B); rung i runs
    from i to 3+i, its interior vertices numbered consecutively from 6,
    rung by rung.
    """
    return _strips_graph(tuple((x,) for x in spec.lengths), f"prism{spec.lengths}")


def gen_hyperprism(spec: HyperprismSpec) -> Graph:
    """Three strips of parallel disjoint rungs; the rung starts of different
    strips are pairwise all-adjacent, likewise the rung ends, and there are
    no other edges between strips.

    Labels: with R rungs total (strip-major order), starts are 0..R-1, ends
    R..2R-1, and interiors follow rung by rung.  With one rung per strip this
    is gen_prism's labeling.
    """
    return _strips_graph(spec.strips, f"hyperprism{spec.strips}")


def _strips_graph(strips: tuple[tuple[int, ...], ...], what: str) -> Graph:
    rungs = [
        (strip_idx, length)
        for strip_idx, strip in enumerate(strips)
        for length in strip
    ]
    nrungs = len(rungs)
    edges = []
    for i in range(nrungs):
        for j in range(i + 1, nrungs):
            if rungs[i][0] != rungs[j][0]:
                edges.append((i, j))  # starts of different strips
                edges.append((nrungs + i, nrungs + j))  # ends likewise
    nxt = 2 * nrungs
    for i, (_, length) in enumerate(rungs):
        chain = [i] + list(range(nxt, nxt + length - 1)) + [nrungs + i]
        nxt += length - 1
        edges.extend(zip(chain, chain[1:]))
    g = Graph(nxt, edges)
    _validate(g, what)
    return g


def line_graph(h: Graph) -> Graph:
    """Vertices are h's edges in sorted order; adjacency is sharing an end."""
    he = h.edges()
    n = len(he)
    edges = []
    for i in range(n):
        a, b = he[i]
        for j in range(i + 1, n):
            c, d = he[j]
            if a == c or a == d or b == c or b == d:
                edges.append((i, j))
    return Graph(n, edges)


# the four triangles of K4 in terms of edge indices 01,02,03,12,13,23
_K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_K4_TRIANGLES = ((0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5))


def gen_lk4_subdivision(lengths: tuple[int, ...]) -> Graph:
    """Line graph of K4 with its six edges subdivided into paths.

    `lengths` gives the path length of each K4 edge in the order
    01, 02, 03, 12, 13, 23.  The subdivided K4 is bipartite exactly when
    every K4 triangle gets an even total length; anything else is rejected.
    Labels follow the sorted edge list of the subdivided graph.
    """
    if len(lengths) != 6 or any(not isinstance(x, int) or x < 1 for x in lengths):
        raise SpecError(f"need six branch lengths >= 1, got {lengths}")
    for t in _K4_TRIANGLES:
        if sum(lengths[i] for i in t) % 2 != 0:
            raise SpecError(
                f"triangle {t} has odd total length; the subdivision is not bipartite"
            )
    n = 4
    edges = []
    for (u, v), length in zip(_K4_EDGES, lengths):
        chain = [u] + list(range(n, n + length - 1)) + [v]
        n += length - 1
        edges.extend(zip(chain, chain[1:]))
    g = line_graph(Graph(n, edges))
    _validate(g, f"lk4{tuple(lengths)}")
    return g


def _grow_c4free_bipartite(
    rng: random.Random, left: int, right: int, target_edges: int
) -> Graph:
    """Random bipartite graph with no 4-cycle, grown edge by edge; gives up
    on an edge that would close a square and moves on."""
    n = left + right
    masks = [0] * n
    edges = []
    budget = 6 * target_edges + 20
    while len(edges) < target_edges and budget > 0:
        budget -= 1
        u = rng.randrange(left)
        v = left + rng.randrange(right)
        if (masks[u] >> v) & 1:
            continue
        # a second common neighborhood link would close a 4-cycle
        if any(masks[p] & masks[u] for p in iter_bits(masks[v])):
            continue
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        edges.append((u, v))
    return Graph(n, edges)


def _random_bipartite(rng: random.Random, n: int) -> Graph | None:
    if n == 1:
        return Graph(1)
    left = rng.randint(max(1, n // 3), max(1, (2 * n) // 3))
    target = rng.randint(n // 2, (3 * n) // 2)
    return _grow_c4free_bipartite(rng, left, n - left, target)


def _random_line_of_bipartite(rng: random.Random, n: int) -> Graph | None:
    if n < 1:
        return None
    for _ in range(8):
        hn = rng.randint(n + 1, max(n + 2, (3 * n) // 2))
        left = rng.randint(max(1, hn // 3), max(1, (2 * hn) // 3))
        h = _grow_c4free_bipartite(rng, left, hn - left, n)
        if h.m == n:
            return line_graph(h)
    return None


def _compose(rng: random.Random, total: int, parts: int) -> list[int]:
    """Split `total` into `parts` positive integers, uniformly at random."""
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _random_prism(rng: random.Random, n: int) -> Graph | None:
    s = n - 3
    if s >= 6 and s % 2 == 0:  # three even lengths
        halves = _compose(rng, s // 2, 3)
        return gen_prism(PrismSpec(tuple(2 * h for h in halves)))
    if s >= 9 and s % 2 == 1:  # three odd lengths >= 3
        halves = _compose(rng, (s - 3) // 2, 3)
        return gen_prism(PrismSpec(tuple(2 * h + 1 for h in halves)))
    return None


def _random_hyperprism(rng: random.Random, n: int) -> Graph | None:
    # exactly one strip carries several rungs; a second would force a square
    for _ in range(8):
        extra = rng.randint(1, 3)  # rungs beyond one in the fat strip
        nrungs = 3 + extra
        rest = n - nrungs  # total rung length to distribute
        # unit rungs in two different strips would close a square, so odd
        # rungs start at 3, even at 2
        even_ok = rest >= 2 * nrungs and rest % 2 == 0
        odd_ok = rest >= 3 * nrungs and (rest - nrungs) % 2 == 0
        if even_ok and odd_ok:
            even_ok = rng.random() < 0.5
        if even_ok:
            lengths = [2 * h for h in _compose(rng, rest // 2, nrungs)]
        elif odd_ok:
            lengths = [2 * h + 1 for h in _compose(rng, (rest - nrungs) // 2, nrungs)]
        else:
            continue
        fat = 1 + extra
        strips = (tuple(lengths[:fat]), (lengths[fat],), (lengths[fat + 1],))
        return gen_hyperprism(HyperprismSpec(strips))
    return None


def gen_square_free_berge(
    n: int,
    seed: int,
    *,
    berge_check_cap: int = 20,
    max_attempts: int = 64,
) -> Graph:
    """Seeded random square-free Berge graph on exactly n vertices.

    Draws a construction kind (sparse bipartite, line graph of a bipartite
    graph, prism, hyperprism) and parameters from a generator seeded only
    with integers, so the same (n, seed) always gives the same graph, across
    processes.  Candidates are discarded if they contain a square or, up to
    berge_check_cap vertices, fail the Berge check; in practice the
    constructions are valid by design and the filter is a safety net.
    """
    if n < 0:
        raise SpecError(f"vertex count must be nonnegative, got {n}")
    if n == 0:
        return Graph(0)
    rng = random.Random(seed * 1_000_003 + n)
    kinds = ("bipartite", "line", "prism", "hyperprism")
    for _ in range(max_attempts):
        kind = kinds[rng.randrange(len(kinds))]
        if kind == "bipartite":
            g = _random_bipartite(rng, n)
        elif kind == "line":
            g = _random_line_of_bipartite(rng, n)
        elif kind == "prism":
            g = _random_prism(rng, n)
        else:
            g = _random_hyperprism(rng, n)
        if g is None or g.n != n:
            continue
        if contains_square(g) is not None:
            continue
        if g.n <= berge_check_cap and not is_berge(g, cap=berge_check_cap).ok:
            continue
        return g
    raise GenerationExhausted(
        f"no valid {n}-vertex graph within {max_attempts} attempts (seed {seed})"
    )


def sidecar_metadata(construction: str, params: dict, g: Graph) -> dict:
    """Reproducibility record written next to generated DIMACS files."""
    return {
        "schema": "bergecolor-instance/1",
        "construction": construction,
        "params": params,
        "n": g.n,
        "m": g.m,
    }
