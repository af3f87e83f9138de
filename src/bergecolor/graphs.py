"""Immutable undirected graphs over vertex bitmasks, plus the structure queries
(squares, triads, maximal cliques, odd holes) every other module is built on.

Vertices are 0..n-1.  All neighborhoods are Python ints used as bitsets, which
is the fastest representation available for the n <= ~64 instances this engine
targets, and keeps every operation deterministic.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple

from .errors import NotBerge, NotSquareFree


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


class Graph:
    """A finite simple undirected graph.  Treat instances as immutable."""

    __slots__ = ("n", "_masks", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self._masks = tuple(masks)
        self._m = sum(m.bit_count() for m in masks) // 2

    @property
    def m(self) -> int:
        return self._m

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def adjacent(self, u: int, v: int) -> bool:
        return (self._masks[u] >> v) & 1 == 1

    def mask(self, v: int) -> int:
        """Neighborhood of v as a bitset."""
        return self._masks[v]

    def neighbors(self, v: int) -> list[int]:
        return bit_list(self._masks[v])

    def degree(self, v: int) -> int:
        return self._masks[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self._masks[u] >> (u + 1)
            for k in iter_bits(rest):
                out.append((u, u + 1 + k))
        return out

    def subgraph(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on the given vertices.

        Returns (subgraph, keep) where keep[i] is the original id of the
        subgraph's vertex i.  keep is sorted ascending, so relabeling is
        order-preserving and deterministic.
        """
        keep = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(keep)}
        edges = []
        km = mask_of(keep)
        for i, v in enumerate(keep):
            for w in iter_bits(self._masks[v] & km):
                if w > v:
                    edges.append((i, index[w]))
        return Graph(len(keep), edges), keep

    def complement(self) -> "Graph":
        edges = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if not self.adjacent(u, v)
        ]
        return Graph(self.n, edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._masks == other._masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self._masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


def component_mask(g: Graph, start: int, allowed: int) -> int:
    """Connected component of `start` inside the induced subgraph on `allowed`."""
    seen = (1 << start) & allowed
    frontier = seen
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= g.mask(v)
        nxt &= allowed & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def components(g: Graph, vertices: Iterable[int] | None = None) -> list[frozenset[int]]:
    """Connected components of the induced subgraph, sorted by smallest member."""
    allowed = g.full_mask if vertices is None else mask_of(vertices)
    out = []
    rest = allowed
    while rest:
        start = (rest & -rest).bit_length() - 1
        comp = component_mask(g, start, allowed)
        out.append(frozenset(iter_bits(comp)))
        rest &= ~comp
    return out


def contains_square(g: Graph) -> tuple[int, int, int, int] | None:
    """First induced 4-cycle in lexicographic order, as (a, b, c, d) with
    edges ab, bc, cd, da and non-edges ac, bd; None when square-free."""
    full = g.full_mask
    for a in range(g.n):
        na = g.mask(a)
        above_a = full & ~((1 << (a + 1)) - 1)
        for b in iter_bits(na & above_a):
            nb = g.mask(b)
            # c: adjacent to b, not to a, above a (so c != a, b)
            for c in iter_bits(nb & ~na & above_a):
                # d: common neighbor of a and c, above b, not adjacent to b
                above_b = full & ~((1 << (b + 1)) - 1)
                cand = na & g.mask(c) & above_b & ~nb
                if cand:
                    d = (cand & -cand).bit_length() - 1
                    return (a, b, c, d)
    return None


def _iter_triads(g: Graph) -> Iterator[tuple[int, int, int]]:
    full = g.full_mask
    for x in range(g.n):
        nonx = full & ~g.mask(x) & ~((1 << (x + 1)) - 1)
        for y in iter_bits(nonx):
            zs = nonx & ~g.mask(y) & ~((1 << (y + 1)) - 1)
            for z in iter_bits(zs):
                yield (x, y, z)


def find_triads(g: Graph) -> list[tuple[int, int, int]]:
    """All triples of pairwise non-adjacent vertices, ascending."""
    return list(_iter_triads(g))


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, each a sorted tuple, lexicographically sorted."""
    return maximal_cliques_in(g, g.full_mask)


def maximal_cliques_in(g: Graph, allowed: int) -> list[tuple[int, ...]]:
    """Maximal cliques of the induced subgraph on `allowed`, in original labels."""
    if allowed == 0:
        return []
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        # pivot: most candidate-neighbors, ties to lowest id
        best, best_cnt = -1, -1
        for u in iter_bits(p | x):
            cnt = (p & g.mask(u)).bit_count()
            if cnt > best_cnt:
                best, best_cnt = u, cnt
        for v in bit_list(p & ~g.mask(best)):
            nv = g.mask(v) & allowed
            expand(r | (1 << v), p & nv, x & nv)
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, allowed, 0)
    return sorted(tuple(iter_bits(m)) for m in out)


def omega(g: Graph) -> int:
    """Clique number."""
    if g.n == 0:
        return 0
    return max(len(c) for c in maximal_cliques(g))


class BergeVerdict(NamedTuple):
    ok: bool
    witness: tuple[str, tuple[int, ...]] | None  # ("odd-hole"|"odd-antihole", cycle)


def _find_odd_hole(g: Graph) -> tuple[int, ...] | None:
    """First chordless odd cycle of length >= 5 found by ordered DFS, or None.

    Paths are grown from their smallest vertex, so each hole is seen with a
    canonical anchor; the search order is fixed, hence the result is
    deterministic.  Worst case exponential: strictly a desk-scale check.
    """
    full = g.full_mask
    for s in range(g.n):
        above = full & ~((1 << (s + 1)) - 1)
        ns = g.mask(s)
        path = [s]
        # forbid[i] = vertices adjacent to path[i]; extension must avoid all but the last
        def dfs(last: int, pathmask: int, inner_forbid: int) -> tuple[int, ...] | None:
            # close the cycle: neighbor of both ends, no chord to the interior
            if len(path) >= 4 and (len(path) + 1) % 2 == 1:
                closers = g.mask(last) & ns & above & ~pathmask & ~inner_forbid
                if closers:
                    w = (closers & -closers).bit_length() - 1
                    return tuple(path) + (w,)
            ext = g.mask(last) & above & ~pathmask & ~inner_forbid & ~ns
            for w in bit_list(ext):
                path.append(w)
                hole = dfs(w, pathmask | (1 << w),
                           inner_forbid | (g.mask(last) & ~(1 << w)))
                if hole is not None:
                    return hole
                path.pop()
            return None

        for u in bit_list(ns & above):
            path.append(u)
            hole = dfs(u, (1 << s) | (1 << u), 0)
            if hole is not None:
                return hole
            path.pop()
    return None


def is_berge(g: Graph, *, cap: int = 64, force: bool = False) -> BergeVerdict:
    """Check for odd holes and odd antiholes by exhaustive search.

    Brute force with no cleverness beyond one shortcut: a square-free graph
    with no odd hole has no odd antihole either (the 5-antihole is a 5-hole,
    and longer antiholes contain 4-cycles).  Refuses n > cap unless forced,
    because the search is exponential in the worst case.
    """
    if g.n > cap and not force:
        raise ValueError(f"is_berge refused: n={g.n} exceeds cap={cap} (use force=True)")
    hole = _find_odd_hole(g)
    if hole is not None:
        return BergeVerdict(False, ("odd-hole", hole))
    if contains_square(g) is None:
        return BergeVerdict(True, None)
    anti = _find_odd_hole(g.complement())
    if anti is not None:
        return BergeVerdict(False, ("odd-antihole", anti))
    return BergeVerdict(True, None)


def is_clique(g: Graph, vertices: Iterable[int]) -> bool:
    vs = list(vertices)
    return all(g.adjacent(u, v) for u, v in itertools.combinations(vs, 2))


def require_square_free(g: Graph) -> None:
    sq = contains_square(g)
    if sq is not None:
        raise NotSquareFree(f"graph contains an induced 4-cycle {sq}", witness=sq)


def require_berge(g: Graph, *, cap: int = 64, force: bool = False) -> None:
    verdict = is_berge(g, cap=cap, force=force)
    if not verdict.ok:
        kind, cyc = verdict.witness
        raise NotBerge(f"graph contains an {kind} {cyc}", witness=verdict.witness)
