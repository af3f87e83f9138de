"""Instance generators: prisms, hyperprisms, line graphs of subdivided K4,
and seeded random square-free Berge graphs.

Labeling is stable and documented per generator so that runs, DIMACS files,
and tests can refer to vertices by number.  Every named generator validates
its output (no induced square; Berge-checked up to a size cap) and reports
departures with GeneratorWarning rather than failing, because some legal
parameter choices, such as unit prism rungs, genuinely produce squares.
`gen_square_free_berge` runs the same checks once per candidate, as a
filter.
Prisms, hyperprisms, line graphs and C4-free bipartite graphs are built
as neighbourhood masks (`Graph._of_masks`), with no edge list.  The random
ends of a C4-free bipartite graph are drawn from `getrandbits` by the
rejection loop that `Random.randrange` runs, so each seed gives the graph
and leaves the generator state that randrange would.
A graph over `dimacs.MAX_VERTICES` vertices, which `read_col` could not read
back, is refused with SpecError from its vertex count, before anything is
built: by `PrismSpec`, `HyperprismSpec`, `gen_lk4_subdivision` and
`gen_square_free_berge`.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass

from .dimacs import MAX_VERTICES
from .errors import GenerationExhausted, SpecError
from .graphs import Graph, contains_square, is_berge


class GeneratorWarning(UserWarning):
    """A generated instance failed a structural validation check."""


# generated graphs up to this many vertices are Berge-checked
_BERGE_CHECK_CAP = 20
# candidate draws gen_square_free_berge makes before it gives up
_MAX_ATTEMPTS = 64


def _check_vertex_count(n: int) -> None:
    if n > MAX_VERTICES:
        raise SpecError(f"{n} vertices is over the limit of {MAX_VERTICES}")


def _validate(g: Graph, what: str) -> None:
    sq = contains_square(g)
    if sq is not None:
        warnings.warn(f"{what} contains an induced square {sq}", GeneratorWarning)
    elif g.n <= _BERGE_CHECK_CAP:
        verdict = is_berge(g, cap=_BERGE_CHECK_CAP, square_free=True)
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
        _check_vertex_count(self.n)

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
        _check_vertex_count(self.n)

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
    g = _strips_graph(tuple((x,) for x in spec.lengths))
    _validate(g, f"prism{spec.lengths}")
    return g


def gen_hyperprism(spec: HyperprismSpec) -> Graph:
    """Three strips of parallel disjoint rungs; the rung starts of different
    strips are pairwise all-adjacent, likewise the rung ends, and there are
    no other edges between strips.

    Labels: with R rungs total (strip-major order), starts are 0..R-1, ends
    R..2R-1, and interiors follow rung by rung.  With one rung per strip this
    is gen_prism's labeling.
    """
    g = _strips_graph(spec.strips)
    _validate(g, f"hyperprism{spec.strips}")
    return g


def _strips_graph(strips: tuple[tuple[int, ...], ...]) -> Graph:
    """The hyperprism of `strips`, labeled as in gen_hyperprism, built but
    not validated: gen_prism and gen_hyperprism validate what they return,
    and gen_square_free_berge filters its candidates itself.

    Built as neighbourhood masks, with no edge list: a start sees the
    starts of the other strips and an end their ends, and a rung's interior
    vertices are numbered consecutively, so interior w sees w - 1 and w + 1
    except where the rung meets its start or its end."""
    nrungs = sum(map(len, strips))
    starts = (1 << nrungs) - 1
    masks = [0] * (2 * nrungs)
    i = 0  # the rung's index, which is its start
    for strip in strips:
        other = starts & ~(((1 << len(strip)) - 1) << i)
        for length in strip:
            end, w = nrungs + i, len(masks)  # w: the first interior, if any
            if length == 1:
                masks[i] = other | 1 << end
                masks[end] = other << nrungs | 1 << i
            else:
                last = w + length - 2
                masks[i] = other | 1 << w
                masks[end] = other << nrungs | 1 << last
                masks.extend(5 << (x - 1) for x in range(w, last + 1))
                # the first interior sees the start, not w - 1; the last
                # sees the end, not last + 1
                masks[w] ^= 1 << (w - 1) | 1 << i
                masks[last] ^= 1 << (last + 1) | 1 << end
            i += 1
    return Graph._of_masks(masks)


def line_graph(h: Graph) -> Graph:
    """Vertices are h's edges in sorted order; adjacency is sharing an end.
    Each vertex of h keeps the mask of its incident edges, so edge i = (a, b)
    has the neighborhood inc[a] | inc[b] without i itself: one mask
    operation per vertex of the line graph, and no edge list."""
    he = h.edges()
    inc = [0] * h.n
    for i, (a, b) in enumerate(he):
        bit = 1 << i
        inc[a] |= bit
        inc[b] |= bit
    masks = []
    for i, (a, b) in enumerate(he):
        ia, ib = inc[a], inc[b]
        masks.append((ia | ib) & ~(1 << i))
        # an end's mask is dropped after its last edge, so the incidence
        # masks and the neighborhoods are not all held at once
        if ia.bit_length() == i + 1:
            inc[a] = 0
        if ib.bit_length() == i + 1:
            inc[b] = 0
    return Graph._of_masks(masks)


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
    _check_vertex_count(sum(lengths))  # one vertex per edge of the subdivided K4
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
    on an edge that would close a square and moves on.

    Each edge draws an end u below `left`, then an end v below `right`
    (shifted past the left side), by rejection on `rng.getrandbits`: for a
    bound k, k.bit_length() bits, drawn again until the value is below k.
    That is the loop `Random.randrange(k)` runs for an int k >= 1, bit
    count included, so the stream is consumed draw for draw as by
    randrange, with one call per draw in place of three frames.  A side
    below 1 vertex raises ValueError, as randrange does, before any edge
    is drawn: with k = 0 the loop would never end."""
    if target_edges > 0 and min(left, right) < 1:
        raise ValueError(f"empty range for an end: left {left}, right {right}")
    masks = [0] * (left + right)
    m = 0
    getrandbits = rng.getrandbits
    lbits, rbits = left.bit_length(), right.bit_length()
    for _ in range(6 * target_edges + 20):
        if m >= target_edges:
            break
        u = getrandbits(lbits)
        while u >= left:
            u = getrandbits(lbits)
        v = getrandbits(rbits)
        while v >= right:
            v = getrandbits(rbits)
        v += left
        nu = masks[u]
        if nu:  # else uv is new and closes no 4-cycle
            if (nu >> v) & 1:
                continue
            # a neighbour of v that shares a neighbour with u closes a 4-cycle
            nv = masks[v]
            while nv:
                low = nv & -nv
                if masks[low.bit_length() - 1] & nu:
                    break
                nv ^= low
            if nv:
                continue
        masks[u] = nu | (1 << v)
        masks[v] |= 1 << u
        m += 1
    return Graph._of_masks(masks)


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
        lengths = tuple(2 * h for h in _compose(rng, s // 2, 3))
    elif s >= 9 and s % 2 == 1:  # three odd lengths >= 3
        lengths = tuple(2 * h + 1 for h in _compose(rng, (s - 3) // 2, 3))
    else:
        return None
    # the spec checks the lengths; gen_square_free_berge checks the graph
    return _strips_graph(tuple((x,) for x in PrismSpec(lengths).lengths))


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
        return _strips_graph(HyperprismSpec(strips).strips)
    return None


def gen_square_free_berge(n: int, seed: int) -> Graph:
    """Seeded random square-free Berge graph on exactly n vertices.

    Draws a construction kind (sparse bipartite, line graph of a bipartite
    graph, prism, hyperprism) and parameters from a generator seeded only
    with integers, so the same (n, seed) always gives the same graph, across
    processes.  Candidates are discarded if they contain a square or, up to
    `_BERGE_CHECK_CAP` vertices, fail the Berge check; in practice the
    constructions are valid by design and the filter is a safety net.  It
    is each candidate's only check: prisms and hyperprisms are built
    unvalidated, so they raise no GeneratorWarning here.
    """
    if n < 0:
        raise SpecError(f"vertex count must be nonnegative, got {n}")
    _check_vertex_count(n)
    if n == 0:
        return Graph(0)
    rng = random.Random(seed * 1_000_003 + n)
    kinds = ("bipartite", "line", "prism", "hyperprism")
    for _ in range(_MAX_ATTEMPTS):
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
        if g.n <= _BERGE_CHECK_CAP and not is_berge(
            g, cap=_BERGE_CHECK_CAP, square_free=True
        ).ok:
            continue
        return g
    raise GenerationExhausted(
        f"no valid {n}-vertex graph within {_MAX_ATTEMPTS} attempts (seed {seed})"
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
