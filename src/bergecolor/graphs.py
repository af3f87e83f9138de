"""Immutable undirected graphs over vertex bitmasks, plus the structure queries
(squares, triads, maximal cliques, odd holes) every other module is built on.

Vertices are 0..n-1.  Neighborhoods and vertex sets are Python ints used as
bitsets: one int holds a set of any size, and a set operation is one pass in C
over its machine words.  No size limit is built in; the benchmark's instances
reach n = 400 and CI's deep-chain step colors n = 4,002.  Scans go by ascending id,
which keeps every operation deterministic.

The package passes vertex sets as masks: `maximal_cliques_in` lists the
maximal cliques as masks, vertex by lowest vertex, and `cliques_within`
derives a subgraph's list from them.  Only `maximal_cliques`, for callers
of the library, turns them into sorted tuples.
"""

from __future__ import annotations

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
        self._m = sum(map(int.bit_count, masks)) // 2

    @classmethod
    def _of_masks(cls, masks: list[int]) -> Graph:
        """The graph on len(masks) vertices whose neighborhood of v is
        `masks[v]`, taken as given: the masks must be symmetric, loop-free
        and inside the vertex range."""
        g = cls.__new__(cls)
        g.n = len(masks)
        g._masks = tuple(masks)
        g._m = sum(map(int.bit_count, g._masks)) // 2
        return g

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
        for u, m in enumerate(self._masks):
            rest = m >> (u + 1)
            while rest:
                low = rest & -rest
                out.append((u, u + low.bit_length()))
                rest ^= low
        return out

    def subgraph(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on the given vertices.

        Returns (subgraph, keep) where keep[i] is the original id of the
        subgraph's vertex i.  keep is sorted ascending, so relabeling is
        order-preserving and deterministic.
        """
        keep = tuple(iter_bits(mask_of(vertices)))
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (i, index[u]) for i, v in enumerate(keep) for u in self.neighbors(v) if u in index
        ]
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


def component_mask(
    g: Graph,
    seeds: int,
    allowed: int,
    stop: int = 0,
    layers: list[int] | None = None,
) -> int:
    """The vertices reachable from the mask `seeds` inside the induced
    subgraph on `allowed`: with one seed, its connected component.

    The search runs breadth-first, one layer at a time.  With a `stop` mask
    it ends at the first layer that meets `stop`, and returns the vertices
    seen up to and including that layer: everything reachable exactly when
    no reachable vertex is in `stop`.  `layers`, if given, receives each
    layer as a mask, the seeds in `allowed` first, so a caller can walk a
    shortest path back from the stop layer without a second search."""
    masks = g._masks
    seen = frontier = seeds & allowed
    while frontier:
        if layers is not None:
            layers.append(frontier)
        if frontier & stop:
            break
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def contains_square(g: Graph) -> tuple[int, int, int, int] | None:
    """First induced 4-cycle in lexicographic order, as (a, b, c, d) with
    edges ab, bc, cd, da and non-edges ac, bd; None when square-free.

    For each edge ab with a < b, the candidates d (adjacent to a, not to b,
    above b) do not depend on c, so they are found once as the mask D, and
    an (a, b) with D empty is skipped.  Each c (adjacent to b, not to a,
    above a) then closes a square with the lowest vertex of D ∩ N(c).

    b and d are both neighbours of a above it, so a vertex with fewer than
    two of them is skipped, and b stops below a's highest neighbour, which
    has no d above it.  Only (a, b) pairs with no square are skipped, so the
    first square found is the same."""
    masks = g._masks
    for a, na in enumerate(masks):
        above_a = -(2 << a)
        bs = na & above_a
        if not bs & (bs - 1):
            continue
        bs ^= 1 << (na.bit_length() - 1)
        while bs:
            bbit = bs & -bs
            bs ^= bbit
            nb = masks[bbit.bit_length() - 1]
            ds = na & ~nb & -(bbit << 1)
            if not ds:
                continue
            cs = nb & ~na & above_a
            while cs:
                cbit = cs & -cs
                cand = ds & masks[cbit.bit_length() - 1]
                if cand:
                    b, c = bbit.bit_length() - 1, cbit.bit_length() - 1
                    return (a, b, c, (cand & -cand).bit_length() - 1)
                cs ^= cbit
    return None


def find_triads(g: Graph) -> list[tuple[int, int, int]]:
    """All triples of pairwise non-adjacent vertices, ascending."""
    full = g.full_mask
    out = []
    for x in range(g.n):
        nonx = full & ~g.mask(x) & ~((1 << (x + 1)) - 1)
        for y in iter_bits(nonx):
            zs = nonx & ~g.mask(y) & ~((1 << (y + 1)) - 1)
            out.extend((x, y, z) for z in iter_bits(zs))
    return out


def _count_triads(g: Graph) -> int:
    """len(find_triads(g)) without listing them: for each non-adjacent pair
    x < y, the vertices above y adjacent to neither."""
    masks = g._masks
    full = g.full_mask
    total = 0
    for x in range(g.n):
        nonx = full & ~masks[x] & ~((2 << x) - 1)
        for y in iter_bits(nonx):
            total += (nonx & ~masks[y] & ~((2 << y) - 1)).bit_count()
    return total


def maximal_cliques(g: Graph) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques, each a sorted tuple, lexicographically sorted."""
    return [tuple(iter_bits(q)) for q in maximal_cliques_in(g, g.full_mask)]


def maximal_cliques_in(g: Graph, allowed: int) -> list[int]:
    """Maximal cliques of the induced subgraph on `allowed`, in original
    labels, as masks in the lexicographic order of their sorted vertex lists.

    The cliques are listed by lowest vertex v, ascending, so each vertex's
    group follows the last (Eppstein, Löffler & Strash 2010).  The cliques
    whose lowest vertex is v are v with the maximal cliques of its later
    neighbours P that no earlier neighbour extends:

    - a v with no later neighbour is a clique only when it is isolated;
    - a v with one later neighbour u gives {v, u} when no vertex of
      `allowed` is adjacent to both;
    - any other v runs Bron-Kerbosch with pivoting on P, its earlier
      neighbours excluded, and its group is sorted.

    The pivot is the vertex with the most neighbours in P, ties to the
    lowest id, and a vertex complete to P ends the pivot scan.  An explicit
    stack keeps large cliques clear of the recursion limit.
    """
    masks = g._masks
    out: list[int] = []
    rest = allowed
    while rest:
        low = rest & -rest
        rest ^= low
        nv = masks[low.bit_length() - 1] & allowed
        later = nv & rest
        if not later:
            if not nv:
                out.append(low)
            continue
        if not later & (later - 1):
            if not nv & masks[later.bit_length() - 1]:
                out.append(low | later)
            continue
        group = []
        stack = [(low, later, nv & ~later)]
        while stack:
            r, p, x = stack.pop()
            if not p:
                if not x:
                    group.append(r)
                continue
            size = p.bit_count()
            best, best_cnt = -1, -1
            for u in iter_bits(p | x):
                cnt = (p & masks[u]).bit_count()
                if cnt > best_cnt:
                    best, best_cnt = u, cnt
                    if cnt == size - (p >> u & 1):
                        break
            for v in iter_bits(p & ~masks[best]):
                nb = masks[v]
                stack.append((r | (1 << v), p & nb, x & nb))
                p &= ~(1 << v)
                x |= 1 << v
        out.extend(sorted(group, key=bit_list))
    return out


def cliques_within(g: Graph, cliques: list[int], keep: int) -> list[int]:
    """Maximal cliques of the subgraph induced on `keep`, as masks in the
    order of `maximal_cliques_in`, derived from `cliques`, the maximal
    cliques of g as masks in that order.

    Every maximal clique of G[keep] is Q ∩ keep for some maximal clique Q of
    G.  A Q inside keep stays maximal; a trimmed Q ∩ keep is maximal when no
    kept vertex is complete to it.  Maximal cliques form an antichain, so
    their lexicographic order is "the lowest vertex of the symmetric
    difference comes first", and each trimmed clique is placed by binary
    search on that rule.
    """
    out = []
    trimmed = set()
    for q in cliques:
        t = q & keep
        if t == q:
            out.append(q)
        elif t:
            trimmed.add(t)
    masks = g._masks
    for t in trimmed:
        common = keep
        for v in iter_bits(t):
            common &= masks[v]
            if not common:
                break
        if common:
            continue
        lo, hi = 0, len(out)
        while lo < hi:
            mid = (lo + hi) // 2
            diff = out[mid] ^ t
            if out[mid] & diff & -diff:
                lo = mid + 1
            else:
                hi = mid
        out.insert(lo, t)
    return out


def omega(g: Graph) -> int:
    """Clique number."""
    return max((q.bit_count() for q in maximal_cliques_in(g, g.full_mask)), default=0)


class BergeVerdict(NamedTuple):
    ok: bool
    witness: tuple[str, tuple[int, ...]] | None  # ("odd-hole"|"odd-antihole", cycle)


def _peel(g: Graph, seeds: int, keep: int) -> tuple[int, list[tuple[int, int]]]:
    """Remove simplicial vertices of the subgraph induced on `keep` by
    ascending scans over the remaining vertices, each scan removing every
    vertex whose remaining neighborhood is a clique, until a scan removes
    nothing.  Returns the vertices left, the core, as a mask, and each
    removed vertex with that neighborhood as a mask, in removal order.  The
    solver peels each decomposition piece with it, as a mask of the input
    graph, and `_find_odd_hole` the whole graph.

    A vertex whose remaining neighborhood has not changed since it failed
    the test would fail again, so a scan tests only the vertices that lost a
    neighbor since their last test: removing v queues its neighbors above v
    for this scan and those below v for the next.  The first scan tests only
    `seeds`; the caller vouches that no other kept vertex is simplicial in
    g[keep] (seeds equal to keep vouch for nothing)."""
    masks = g._masks
    rest = keep
    todo = seeds & keep
    peeled = []
    while todo:
        later = 0
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length() - 1
            nb = masks[v] & rest
            # nb is a clique when each member u misses only itself in it;
            # the scan stops at the first miss, leaving `left` non-zero
            left = nb
            while left:
                u = left & -left
                if nb & ~masks[u.bit_length() - 1] != u:
                    break
                left ^= u
            if not left:
                rest ^= low
                peeled.append((v, nb))
                todo |= nb & ~(low - 1)
                later |= nb & (low - 1)
        todo = later
    return rest, peeled


def _bipartition(g: Graph, allowed: int) -> tuple[int, int] | None:
    """The two sides, as masks, of the subgraph induced on `allowed`, or
    None when it has an odd cycle.  A BFS by layers runs from the lowest
    vertex of each component; the even layers form one side and the odd
    layers the other.  An edge inside one layer closes an odd cycle, and
    any other edge joins adjacent layers."""
    masks = g._masks
    sides = [0, 0]
    rest = allowed
    while rest:
        layers: list[int] = []
        rest &= ~component_mask(g, rest & -rest, allowed, 0, layers)
        for i, layer in enumerate(layers):
            for v in iter_bits(layer):
                if masks[v] & layer:
                    return None
            sides[i & 1] |= layer
    return sides[0], sides[1]


def _find_odd_hole(g: Graph) -> tuple[int, ...] | None:
    """First chordless odd cycle of length >= 5 found by ordered DFS, or None.

    Paths are grown from their smallest vertex, so each hole is seen with a
    canonical anchor; the search order is fixed, hence the result is
    deterministic.  Three cheap steps cut the search:

    - Peel: no simplicial vertex lies on a hole (a hole vertex has two
      non-adjacent neighbours on it), so every hole survives in the core
      left by `_peel`, and the search runs on the core alone.  It skips only
      branches through vertices on no hole, which find nothing, so the
      first hole it finds is the one the search on all of g finds.
    - Bipartite core: a core with no odd cycle has no odd hole.  (An odd
      cycle in a triangle-free core always yields one, since a shortest
      odd cycle is chordless; the search below then names it.)
    - Re-peel: a hole whose lowest vertex is above s lies in what is left
      once s is removed, so after the search from s the rest is peeled
      again.  Removing s changes only its neighbours' neighbourhoods, so
      the peel is seeded with them.  A vertex simplicial in the rest lies on
      no hole in it, so the later searches skip only branches that close
      no hole, and the first hole found stays the same.

    The DFS keeps an explicit stack, so a long hole stays clear of the
    recursion limit.  Worst case exponential on cores with triangles.
    """
    core, _ = _peel(g, g.full_mask, g.full_mask)
    if _bipartition(g, core) is not None:
        return None
    masks = g._masks
    rest = core
    while rest:
        s = (rest & -rest).bit_length() - 1
        above = rest ^ (1 << s)
        ns = masks[s] & above
        path = [s]
        # one entry per path vertex: its extensions not yet tried, the
        # vertices a path through them must avoid (all but the last vertex's
        # neighbours; none from s, whose neighbours ns covers), the path mask
        stack = [(ns, 0, 1 << s)]
        while stack:
            ext, forbid, pathmask = stack[-1]
            if not ext:
                stack.pop()
                path.pop()
                continue
            low = ext & -ext
            stack[-1] = (ext ^ low, forbid, pathmask)
            w = low.bit_length() - 1
            path.append(w)
            pathmask |= low
            forbid &= ~low
            nw = masks[w]
            # close the cycle: neighbor of both ends, no chord to the interior
            if len(path) >= 4 and len(path) % 2 == 0:
                closers = nw & ns & ~pathmask & ~forbid
                if closers:
                    return tuple(path) + ((closers & -closers).bit_length() - 1,)
            stack.append((nw & above & ~pathmask & ~forbid & ~ns, forbid | nw, pathmask))
        rest, _ = _peel(g, ns, above)
    return None


def is_berge(g: Graph, *, cap: int = 64, square_free: bool = False) -> BergeVerdict:
    """Check for odd holes, then odd antiholes (odd holes of the complement),
    with `_find_odd_hole`: a peel and a bipartiteness test settle
    triangle-free cores at once, and an ordered search names the first hole
    otherwise.  A square-free graph with no odd hole has no odd antihole
    either (the 5-antihole is a 5-hole, and longer antiholes contain
    4-cycles), so its complement is never searched.  `square_free=True`
    says the caller has already found g square-free, so it is not checked
    again.  Refuses n > cap, because the search on cores with triangles is
    exponential in the worst case; a caller that accepts the cost passes a
    larger cap.
    """
    if g.n > cap:
        raise ValueError(f"is_berge refused: n={g.n} exceeds cap={cap}")
    hole = _find_odd_hole(g)
    if hole is not None:
        return BergeVerdict(False, ("odd-hole", hole))
    if square_free or contains_square(g) is None:
        return BergeVerdict(True, None)
    anti = _find_odd_hole(g.complement())
    if anti is not None:
        return BergeVerdict(False, ("odd-antihole", anti))
    return BergeVerdict(True, None)


def require_square_free(g: Graph) -> None:
    sq = contains_square(g)
    if sq is not None:
        raise NotSquareFree(f"graph contains an induced 4-cycle {sq}", witness=sq)


def require_berge(g: Graph, *, cap: int = 64, square_free: bool = False) -> None:
    verdict = is_berge(g, cap=cap, square_free=square_free)
    if not verdict.ok:
        kind, cyc = verdict.witness
        raise NotBerge(f"graph contains an {kind} {cyc}", witness=verdict.witness)
