"""Brute-force reference implementations used to freeze expected values.

Everything here recomputes from scratch using subset enumeration and naive
searches, deliberately sharing no logic with the package beyond reading
adjacency.  Keep these dumb; their only virtue is being obviously correct.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations, product

from bergecolor import DimacsError, Frame, Graph, refine_frame
from bergecolor.dimacs import MAX_VERTICES
from bergecolor.graphs import bit_list, iter_bits


def naive_is_clique(g: Graph, vs) -> bool:
    return all(g.adjacent(a, b) for a, b in combinations(sorted(vs), 2))


def naive_peel(g: Graph) -> list[tuple[int, frozenset[int]]]:
    """Simplicial vertices removed by full ascending scans, each scan testing
    every remaining vertex, until a scan removes nothing; each removed vertex
    with its remaining neighbours at removal, in removal order."""
    rest = set(range(g.n))
    out = []
    removed = True
    while removed:
        removed = False
        for v in sorted(rest):
            nb = frozenset(u for u in rest if g.adjacent(u, v))
            if naive_is_clique(g, nb):
                rest.discard(v)
                out.append((v, nb))
                removed = True
    return out


def is_proper_on(g: Graph, c) -> bool:
    """No two adjacent vertices that coloring `c` colors share a color, each
    vertex tested against the mask of its own color class over the whole
    coloring.  The merge once ran this on the swapped side after every swap
    and on its result; it now checks only what each step can change."""
    colors = c.colors
    classes: dict[int, int] = {}
    for v, cv in colors.items():
        classes[cv] = classes.get(cv, 0) | 1 << v
    return not any(g.mask(v) & classes[cv] for v, cv in colors.items())


def naive_verify_coloring(g: Graph, colors: dict, w: int) -> tuple:
    """(reason, witness) of a `{vertex: color}` dict's verdict, None and
    None when it passes, from one look at each vertex and each vertex pair:
    vertices outside 0..n-1, uncolored vertices, colors that are not
    positive ints, the first adjacent pair u < v of one color, then more
    than `w` colors."""
    for v in colors:
        if not (isinstance(v, int) and 0 <= v < g.n):
            return "unknown-vertex", (v,)
    for v in range(g.n):
        if v not in colors:
            return "uncolored-vertex", (v,)
    for v, col in colors.items():
        if not isinstance(col, int) or isinstance(col, bool) or col < 1:
            return "bad-color-value", (v, col)
    for u, v in combinations(range(g.n), 2):
        if g.adjacent(u, v) and colors[u] == colors[v]:
            return "improper-edge", (u, v)
    used = len(set(colors.values()))
    if used > w:
        return "too-many-colors", (used, w)
    return None, None


def naive_color_peeled(
    colors: dict[int, int], peeled: list[tuple[int, int]], k: int
) -> tuple[dict[int, int], int]:
    """The peeled vertices colored on a `{vertex: color}` dict, last removed
    first, each with the lowest color missing from its neighbourhood."""
    colors = dict(colors)
    for v, nb in reversed(peeled):
        taken = {colors[u] for u in iter_bits(nb)}
        col = 1
        while col in taken:
            col += 1
        colors[v] = col
        k = max(k, nb.bit_count() + 1)
    return colors, k


def naive_reducing_swap(
    g: Graph, k12: set[int], k3: set[int], c1: dict[int, int], c2: dict[int, int]
) -> tuple | None:
    """The first swap that leaves K1 ∪ K2 alone and makes fewer vertices of
    K3 take different colors in `c1` and `c2`, as (side, seed, pair,
    component, the side's colors after the swap), or None.  Candidates in
    two phases: each bad vertex ascending with its own color pair, side 1
    then 2; then every (side, seed in K3, color pair i < j holding the
    seed's color), ascending.  Each is simulated on a copy of its side."""
    bad = [v for v in sorted(k3) if c1[v] != c2[v]]
    cands = []
    for u in bad:
        pair = tuple(sorted((c1[u], c2[u])))
        cands += [(1, u, pair), (2, u, pair)]
    palette = max([*c1.values(), *c2.values()], default=0)
    for side, colors in ((1, c1), (2, c2)):
        for seed in sorted(k3):
            for i, j in combinations(range(1, palette + 1), 2):
                if colors[seed] in (i, j):
                    cands.append((side, seed, (i, j)))
    for side, seed, (i, j) in cands:
        colors = c1 if side == 1 else c2
        two = {v for v, col in colors.items() if col in (i, j)}
        comp = next(comp for comp in naive_components(g, two) if seed in comp)
        if comp & k12:
            continue
        swapped = {v: (i + j - col if v in comp else col) for v, col in colors.items()}
        a, b = (swapped, c2) if side == 1 else (c1, swapped)
        if sum(a[v] != b[v] for v in k3) < len(bad):
            return side, seed, (i, j), frozenset(comp), swapped
    return None


def naive_parse_col(text: str) -> Graph:
    """DIMACS .col text parsed one line at a time, every check made on the
    line it applies to; raises DimacsError at the first bad line."""
    n = None
    edges = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise DimacsError(line_no, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError(line_no, f"malformed problem line: {line!r}")
            try:
                n, m = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(line_no, f"non-integer sizes: {line!r}")
            if n < 0 or m < 0:
                raise DimacsError(line_no, "negative size")
            if n > MAX_VERTICES:
                raise DimacsError(
                    line_no, f"{n} vertices is over the limit of {MAX_VERTICES}"
                )
        elif fields[0] == "e":
            if n is None:
                raise DimacsError(line_no, "edge before problem line")
            if len(fields) != 3:
                raise DimacsError(line_no, f"malformed edge line: {line!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(line_no, f"non-integer endpoint: {line!r}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(line_no, f"endpoint out of range 1..{n}: {line!r}")
            if u == v:
                raise DimacsError(line_no, f"self-loop at {u}")
            edges.add((min(u, v) - 1, max(u, v) - 1))
        else:
            raise DimacsError(line_no, f"unknown line type {fields[0]!r}")
    if n is None:
        raise DimacsError(1, "missing problem line")
    return Graph(n, sorted(edges))


def naive_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph built from an edge list, relabelled in ascending
    order; returns (subgraph, keep) as Graph.subgraph does."""
    keep = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[v], index[w]) for v, w in combinations(keep, 2) if g.adjacent(v, w)]
    return Graph(len(keep), edges), keep


def naive_maximal_cliques(g: Graph) -> set[frozenset[int]]:
    """All maximal cliques by filtering every vertex subset; n <= ~14."""
    vs = list(range(g.n))
    cliques = [
        frozenset(s)
        for size in range(1, g.n + 1)
        for s in combinations(vs, size)
        if naive_is_clique(g, s)
    ]
    out = set()
    for c in cliques:
        if not any(c < d for d in cliques):
            out.add(c)
    return out


def naive_omega(g: Graph) -> int:
    if g.n == 0:
        return 0
    return max(len(c) for c in naive_maximal_cliques(g))


def naive_squares(g: Graph) -> list[tuple[int, int, int, int]]:
    """All induced 4-cycles, as (a, b, c, d) in cycle order with a minimal."""
    out = []
    for quad in combinations(range(g.n), 4):
        a = quad[0]
        for b, c, d in [
            (quad[1], quad[2], quad[3]),
            (quad[1], quad[3], quad[2]),
            (quad[2], quad[1], quad[3]),
        ]:
            if (
                g.adjacent(a, b)
                and g.adjacent(b, c)
                and g.adjacent(c, d)
                and g.adjacent(d, a)
                and not g.adjacent(a, c)
                and not g.adjacent(b, d)
            ):
                out.append((a, b, c, d))
    return out


def naive_triads(g: Graph) -> set[tuple[int, int, int]]:
    return {
        t
        for t in combinations(range(g.n), 3)
        if not any(g.adjacent(a, b) for a, b in combinations(t, 2))
    }


def _induced_cycle_length(adj, sub) -> int | None:
    """len(sub) if the induced subgraph on sub is a single cycle, else None."""
    sub = list(sub)
    if len(sub) < 4:
        return None
    deg = {v: sum(1 for u in sub if u != v and adj(u, v)) for v in sub}
    if any(d != 2 for d in deg.values()):
        return None
    seen = {sub[0]}
    frontier = [sub[0]]
    while frontier:
        v = frontier.pop()
        for u in sub:
            if u not in seen and adj(u, v):
                seen.add(u)
                frontier.append(u)
    return len(sub) if len(seen) == len(sub) else None


def naive_is_berge(g: Graph) -> bool:
    """Subset scan for odd holes in the graph and its complement; n <= ~11."""

    def g_adj(u, v):
        return g.adjacent(u, v)

    def co_adj(u, v):
        return u != v and not g.adjacent(u, v)

    for size in range(5, g.n + 1, 2):
        for sub in combinations(range(g.n), size):
            if _induced_cycle_length(g_adj, sub):
                return False
            if _induced_cycle_length(co_adj, sub):
                return False
    return True


def naive_odd_hole(g: Graph) -> tuple[int, ...] | None:
    """The first odd hole of the ordered search over all of g, recursive and
    with no peel or bipartiteness shortcut: the witness `_find_odd_hole`
    must name.  Recurses once per path vertex, so n stays well under the
    recursion limit."""
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


def naive_chromatic_number(g: Graph) -> int:
    """Exact chi by backtracking over k = 1, 2, ...; fine up to n ~ 16."""
    if g.n == 0:
        return 0
    order = sorted(range(g.n), key=lambda v: -g.degree(v))
    for k in range(1, g.n + 1):
        colors: dict[int, int] = {}

        def place(i: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            used = {colors[u] for u in g.neighbors(v) if u in colors}
            top = min(k, max(colors.values(), default=0) + 1)
            for c in range(1, top + 1):  # colors beyond the first unused are symmetric
                if c not in used:
                    colors[v] = c
                    if place(i + 1):
                        return True
                    del colors[v]
            return False

        if place(0):
            return k
    raise AssertionError("unreachable")


def naive_components(g: Graph, allowed: set[int]) -> list[set[int]]:
    left = set(allowed)
    out = []
    while left:
        start = min(left)
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for u in g.neighbors(v):
                if u in left and u not in comp:
                    comp.add(u)
                    frontier.append(u)
        out.append(comp)
        left -= comp
    return out


def naive_bfs_layers(g: Graph, seeds: set[int], allowed: set[int], stop: set[int]) -> list[set[int]]:
    """The vertices of `allowed` reachable from `seeds` inside it, grouped by
    distance from the nearest seed, up to and including the first group
    that meets `stop`."""
    dist = {v: 0 for v in seeds & allowed}
    queue = deque(sorted(dist))
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if u in allowed and u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    layers = [set() for _ in range(max(dist.values(), default=-1) + 1)]
    for v, d in dist.items():
        layers[d].add(v)
    for i, layer in enumerate(layers):
        if layer & stop:
            return layers[: i + 1]
    return layers


def naive_is_bipartite(g: Graph, allowed: set[int]) -> bool:
    """Whether the subgraph induced on `allowed` has a proper 2-colouring,
    grown by depth-first search from each uncoloured vertex."""
    side: dict[int, int] = {}
    for s in sorted(allowed):
        if s in side:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in allowed:
                    continue
                if u not in side:
                    side[u] = 1 - side[v]
                    stack.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def naive_line_graph(h: Graph) -> Graph:
    """The line graph by comparing every pair of h's edges, sorted."""
    he = h.edges()
    edges = [
        (i, j)
        for i, j in combinations(range(len(he)), 2)
        if set(he[i]) & set(he[j])
    ]
    return Graph(len(he), edges)


def naive_strips_graph(strips) -> Graph:
    """The hyperprism of `strips` through an edge list, labeled as
    gen_hyperprism documents: starts, then ends, then each rung's interior
    in rung order."""
    rungs = [(s, length) for s, strip in enumerate(strips) for length in strip]
    nrungs = len(rungs)
    edges = []
    for i, j in combinations(range(nrungs), 2):
        if rungs[i][0] != rungs[j][0]:
            edges += [(i, j), (nrungs + i, nrungs + j)]
    nxt = 2 * nrungs
    for i, (_, length) in enumerate(rungs):
        chain = [i, *range(nxt, nxt + length - 1), nrungs + i]
        nxt += length - 1
        edges.extend(zip(chain, chain[1:]))
    return Graph(nxt, edges)


def naive_grow_c4free_bipartite(
    rng: random.Random, left: int, right: int, target_edges: int
) -> Graph:
    """The C4-free bipartite growth with each end drawn by `rng.randrange`:
    the draw order that every seeded random graph is pinned to."""
    masks = [0] * (left + right)
    m = 0
    budget = 6 * target_edges + 20
    while m < target_edges and budget > 0:
        budget -= 1
        u = rng.randrange(left)
        v = left + rng.randrange(right)
        if (masks[u] >> v) & 1:
            continue
        if any(masks[w] & masks[u] for w in iter_bits(masks[v])):
            continue  # u and a neighbour of v share a neighbour: a square
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        m += 1
    return Graph(left + right, [(u, v) for u in range(left) for v in iter_bits(masks[u])])


def _chordless_k1_k3_paths_ok(g: Graph, k1, k3, l) -> bool:
    """Condition on connections between the two clique ends: every chordless
    path from k1 to k3, inner vertices in l, edges between k1 and k3 ignored,
    must contain an l-vertex adjacent to all of k1.  Checked by enumerating
    every such path."""

    def adj(u, v):  # adjacency with the k1-k3 edges deleted
        if (u in k1 and v in k3) or (u in k3 and v in k1):
            return False
        return g.adjacent(u, v)

    full_l = {v for v in l if all(g.adjacent(v, w) for w in k1)}

    def extend(path: list[int]) -> bool:
        last = path[-1]
        for nxt in sorted(l | k3):
            if nxt in path or not adj(last, nxt):
                continue
            # chordless: the new vertex may touch only its predecessor
            if any(adj(nxt, p) for p in path[:-1]):
                continue
            if nxt in k3:
                if not any(v in full_l for v in path):
                    return False
                continue
            if not extend(path + [nxt]):
                return False
        return True

    return all(extend([a]) for a in sorted(k1))


def naive_good_partition_check(g: Graph, k1, k2, k3, l, r) -> bool:
    """Direct transcription of the five partition conditions."""
    k1, k2, k3, l, r = map(set, (k1, k2, k3, l, r))
    parts = [k1, k2, k3, l, r]
    if sum(len(p) for p in parts) != g.n or set().union(*parts) != set(range(g.n)):
        return False
    if not l or not r:
        return False
    if any(g.adjacent(u, v) for u in l for v in r):
        return False
    if not naive_is_clique(g, k1 | k2) or not naive_is_clique(g, k2 | k3):
        return False
    if not _chordless_k1_k3_paths_ok(g, k1, k3, l):
        return False
    k1_k3_edge = any(g.adjacent(u, v) for u in k1 for v in k3)
    both_sides = any(
        any(g.adjacent(u, v) for v in k1) and any(g.adjacent(u, v) for v in k3)
        for u in l
    )
    if k1_k3_edge and both_sides:
        return False
    for x in l:
        for y in r:
            for z in range(g.n):
                if z != x and z != y and not g.adjacent(z, x) and not g.adjacent(z, y):
                    return True
    return False


def naive_violating_path(g: Graph, k1m: int, k3m: int, lm: int) -> tuple[int, ...] | None:
    """Shortest chordless path breaking condition (iii), or None, as
    `partition._violating_path` finds it, by scans over each vertex of L and
    a BFS that records each vertex's parent.

    Returns (u, p1, ..., pt, v) with u in K3, v in K1, interior in L, no
    interior vertex complete to K1, chordless once K1-K3 edges are ignored.
    Search: restrict L to L'' (drop K1-complete vertices), run a multi-source
    BFS from {has a K3-neighbor} to {has a K1-neighbor}; the earliest hit,
    lowest id first, ends a shortest violating path, and any shortest
    L''-path plus its endpoint attachments is automatically chordless.
    """
    if k1m == 0 or k3m == 0:
        return None
    l2 = 0
    for v in iter_bits(lm):
        if g.mask(v) & k1m != k1m:
            l2 |= 1 << v
    start = 0
    bad = 0
    for v in iter_bits(l2):
        nb = g.mask(v)
        if nb & k3m:
            start |= 1 << v
        if nb & k1m:
            bad |= 1 << v
    if start == 0 or bad == 0:
        return None

    if start & bad:
        hit = start & bad
        t = (hit & -hit).bit_length() - 1
        interior = [t]
    else:
        parent: dict[int, int] = {}
        seen = start
        frontier = start
        t = None
        while frontier and t is None:
            nxt = 0
            for v in iter_bits(frontier):
                fresh = g.mask(v) & l2 & ~seen & ~nxt
                for w in iter_bits(fresh):
                    parent[w] = v
                nxt |= fresh
            hit = nxt & bad
            if hit:
                t = (hit & -hit).bit_length() - 1
            seen |= nxt
            frontier = nxt
        if t is None:
            return None
        interior = [t]
        while interior[-1] in parent:
            interior.append(parent[interior[-1]])
        interior.reverse()

    first_k3 = g.mask(interior[0]) & k3m
    last_k1 = g.mask(interior[-1]) & k1m
    u = (first_k3 & -first_k3).bit_length() - 1
    v = (last_k1 & -last_k1).bit_length() - 1
    return (u, *interior, v)


def naive_both_sides_vertex(g: Graph, k1m: int, k3m: int, lm: int) -> int | None:
    """Condition (iv) witness as `partition._both_sides_vertex` finds it, by
    a scan over K1 for a K1-K3 edge and one over L for the lowest vertex
    with neighbors in K1 and K3."""
    edge = False
    for a in iter_bits(k1m):
        if g.mask(a) & k3m:
            edge = True
            break
    if not edge:
        return None
    for v in iter_bits(lm):
        nb = g.mask(v)
        if nb & k1m and nb & k3m:
            return v
    return None


def _naive_maximal_cliques_avoiding(g: Graph, drop) -> list[tuple[int, ...]]:
    """Maximal cliques of G minus `drop`, as sorted tuples in lexicographic
    order: every clique grown one higher vertex at a time, kept when no
    other remaining vertex is adjacent to all of it."""
    rest = [v for v in range(g.n) if v not in drop]
    out = []
    stack = [(v,) for v in rest]
    while stack:
        q = stack.pop()
        grow = [v for v in rest if v > q[-1] and all(g.adjacent(v, u) for u in q)]
        stack.extend(q + (v,) for v in grow)
        if not any(
            v not in q and all(g.adjacent(v, u) for u in q) for v in rest
        ):
            out.append(q)
    return sorted(out)


def naive_maximal_cliques_in(g: Graph, allowed: int) -> list[int]:
    """`_naive_maximal_cliques_avoiding` the vertices outside the mask
    `allowed`, each clique as a mask, in the same order."""
    drop = {v for v in range(g.n) if not (allowed >> v) & 1}
    return [sum(1 << v for v in q) for q in _naive_maximal_cliques_avoiding(g, drop)]


def naive_anchor_pairs(g: Graph):
    """Ordered pairs (x, y), ascending: non-adjacent, with a third vertex
    non-adjacent to both."""
    for x in range(g.n):
        for y in range(g.n):
            if y == x or g.adjacent(x, y):
                continue
            if any(
                z not in (x, y) and not g.adjacent(z, x) and not g.adjacent(z, y)
                for z in range(g.n)
            ):
                yield x, y


def _naive_frames_of(q1, q3, x, y):
    """The frames of one clique pair, anchor choices none first, then
    ascending."""
    side1 = sorted(set(q1) - set(q3))
    side3 = sorted(set(q3) - set(q1))
    m1, m3 = sum(1 << v for v in q1), sum(1 << v for v in q3)
    for c1 in [None, *side1]:
        for c3 in [None, *side3]:
            yield Frame(q1=m1, q3=m3, x=x, y=y, c1=c1, c3=c3)


def enumerate_frames(g: Graph):
    """All frames in the canonical order of the good-partition search:
    anchor pairs (x, y) ascending, then both maximal cliques of G minus
    {x, y} in lexicographic order, then anchor choices, none first."""
    for x, y in naive_anchor_pairs(g):
        cliques = _naive_maximal_cliques_avoiding(g, (x, y))
        for q1 in cliques:
            for q3 in cliques:
                yield from _naive_frames_of(q1, q3, x, y)


def naive_skipped_pairs(g: Graph) -> int:
    """Clique pairs the good-partition search skips without refinement.

    Walks the anchor pairs (x, y) in ascending order: non-adjacent, with a
    third vertex non-adjacent to both.  For each, every ordered pair (Q1, Q3)
    of maximal cliques of G minus {x, y}, in lexicographic order, is counted
    when x and y stay in one component of G minus (Q1 ∪ Q3).  A pair that
    separates them has its frames handed to the package's refine_frame,
    anchor choices none first, then ascending; the walk stops at the first
    frame that refines to a partition.
    """
    skipped = 0
    for x, y in naive_anchor_pairs(g):
        cliques = _naive_maximal_cliques_avoiding(g, (x, y))
        for q1 in cliques:
            for q3 in cliques:
                rest = set(range(g.n)) - set(q1) - set(q3)
                if any({x, y} <= c for c in naive_components(g, rest)):
                    skipped += 1
                    continue
                for frame in _naive_frames_of(q1, q3, x, y):
                    if refine_frame(g, frame) is not None:
                        return skipped
    return skipped


def naive_shortest_interior(g: Graph, x: int, y: int, allowed) -> tuple[int, ...] | None:
    """Interior, from the x end, of a shortest x-y path whose vertices after
    x lie in the vertex set `allowed`, or None when there is none: breadth
    -first layers from x, as sets; then, walking back from y, the lowest-id
    neighbour in each earlier layer."""
    layers = [{x}]
    seen = {x}
    while y not in seen:
        nxt = {
            w for v in layers[-1] for w in g.neighbors(v)
            if w in allowed and w not in seen
        }
        if not nxt:
            return None
        seen |= nxt
        layers.append(nxt)
    interior = []
    v = y
    for layer in reversed(layers[1:-1]):
        v = min(u for u in layer if g.adjacent(u, v))
        interior.append(v)
    interior.reverse()
    return tuple(interior)


def naive_disjoint_paths(g: Graph, x: int, y: int) -> list[tuple[int, ...]]:
    """Internally disjoint x-y paths, greedily: a shortest x-y path
    (`naive_shortest_interior`), then a shortest one avoiding the interiors
    found so far, until the next search finds no path.  Each path is its
    interior, from the x end."""
    paths = []
    allowed = set(range(g.n))
    while (interior := naive_shortest_interior(g, x, y, allowed)) is not None:
        paths.append(interior)
        allowed -= set(interior)
    return paths


def naive_vertex_partition(g: Graph, x: int):
    """The single-vertex partition of x, (K1, K2, K3, {x}, R) as sets, when
    it is a good partition of g, else None: N is x's neighbourhood and R
    the rest, K2 the members of N adjacent to all others, K1 the component
    of N - K2 holding its lowest vertex and K3 the rest of N - K2, which
    must both be non-empty cliques."""
    nb = set(g.neighbors(x))
    r = set(range(g.n)) - nb - {x}
    k2 = {v for v in nb if all(g.adjacent(v, u) for u in nb - {v})}
    rest = nb - k2
    if not r or not rest:
        return None
    k1 = next(c for c in naive_components(g, rest) if min(rest) in c)
    k3 = rest - k1
    if not k3 or not naive_is_clique(g, k1) or not naive_is_clique(g, k3):
        return None
    if not naive_good_partition_check(g, k1, k2, k3, {x}, r):
        return None
    return (k1, k2, k3, {x}, r)


def brute_good_partition(g: Graph):
    """Exhaustive search for any valid partition; returns one or None.

    Clique pairs give the three cutset pieces, the rest must split into two
    anticomplete halves, i.e. a bipartition of the leftover components.
    """
    vs = list(range(g.n))
    cliques = [
        set(s)
        for size in range(0, g.n + 1)
        for s in combinations(vs, size)
        if naive_is_clique(g, s)
    ]
    for a in cliques:
        for b in cliques:
            k1, k2, k3 = a - b, a & b, b - a
            rest = set(vs) - a - b
            if not rest:
                continue
            comps = naive_components(g, rest)
            if len(comps) < 2:
                continue
            for pick in range(1, 2 ** len(comps) - 1):
                l = set().union(
                    *(c for i, c in enumerate(comps) if pick >> i & 1)
                )
                r = rest - l
                if naive_good_partition_check(g, k1, k2, k3, l, r):
                    return (k1, k2, k3, l, r)
    return None


def brute_good_partition_exists_5n(g: Graph) -> bool:
    """Independent cross-check of brute_good_partition for n <= 6: label every
    vertex with one of the five parts directly."""
    n = g.n
    for code in range(5**n):
        parts = [set(), set(), set(), set(), set()]
        c = code
        for v in range(n):
            parts[c % 5].add(v)
            c //= 5
        if naive_good_partition_check(g, *parts):
            return True
    return False


def naive_is_prism(g: Graph) -> bool:
    """Is g exactly a prism: two disjoint triangles joined by three disjoint
    chordless paths, no other edges?"""
    deg3 = [v for v in range(g.n) if g.degree(v) == 3]
    if len(deg3) != 6 or any(g.degree(v) != 2 for v in range(g.n) if v not in deg3):
        return False
    triangles = [
        set(t) for t in combinations(deg3, 3) if naive_is_clique(g, t)
    ]
    for t1, t2 in combinations(triangles, 2):
        if t1 & t2:
            continue
        # walk the unique non-triangle edge out of each t1 corner; the three
        # walks must be disjoint, end in t2, and cover every other vertex
        interior = set(range(g.n)) - t1 - t2
        used: set[int] = set()
        rungs = 0
        ok = True
        for a in sorted(t1):
            path = [a]
            while ok:
                last = path[-1]
                if last in t2:
                    break
                nxt = [
                    u
                    for u in g.neighbors(last)
                    if u not in used
                    and u not in path
                    and (u in interior or u in t2)
                    and (last != a or u not in t1)
                ]
                if len(nxt) != 1:
                    ok = False
                else:
                    path.append(nxt[0])
            if not ok:
                break
            used |= set(path[1:-1])
            rungs += 1
        if ok and rungs == 3 and used == interior:
            return True
    return False


def contains_induced_prism(g: Graph) -> bool:
    """Any induced subgraph forming a prism; subset scan, n <= ~14."""
    for size in range(6, g.n + 1):
        for sub in combinations(range(g.n), size):
            h, _ = g.subgraph(list(sub))
            if naive_is_prism(h):
                return True
    return False


def clique_gluing(parts: list[Graph], seed: int) -> Graph:
    """The graphs `parts`, glued one after another onto what is built so
    far, each along a clique of one or two vertices (a vertex, or an edge
    when both sides have one, at a coin flip), then relabelled by a random
    permutation; `seed` draws every choice.

    No square, hole or antihole has a clique cutset, so gluing square-free
    Berge graphs along cliques gives a square-free Berge graph (Tarjan 1985
    decomposes by clique separators), and its clique number is the largest
    of the parts'."""
    rng = random.Random(seed)
    n = parts[0].n
    edges = {tuple(e) for e in parts[0].edges()}
    for h in parts[1:]:
        theirs = h.edges()
        if edges and theirs and rng.random() < 0.5:
            shared, glued = rng.choice(sorted(edges)), rng.choice(theirs)
        else:
            shared, glued = (rng.randrange(n),), (rng.randrange(h.n),)
        place = dict(zip(glued, shared))
        for v in range(h.n):
            if v not in place:
                place[v] = n
                n += 1
        edges |= {tuple(sorted((place[a], place[b]))) for a, b in theirs}
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))


def true_twin_blowup(g: Graph, vertices) -> Graph:
    """g with each vertex of `vertices` given one true twin: a new vertex,
    numbered from g.n up in the order given, adjacent to the vertex and to
    all of its neighbours, twins included.

    Replacing vertices by cliques keeps a graph perfect (Lovász 1972), so
    a Berge graph stays Berge; and two true twins lie on no chordless cycle
    of length 4 or more, so no square appears."""
    copies = {v: [v] for v in range(g.n)}
    n = g.n
    for v in vertices:
        copies[v].append(n)
        n += 1
    edges = set()
    for v in range(g.n):
        edges |= {(a, b) for a, b in combinations(copies[v], 2)}
        for u in range(v + 1, g.n):
            if g.adjacent(u, v):
                edges |= {tuple(sorted(e)) for e in product(copies[v], copies[u])}
    return Graph(n, sorted(edges))
