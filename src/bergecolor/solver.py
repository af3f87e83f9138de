"""Exact optimal coloring of square-free Berge graphs.

color() splits the graph along good partitions until no piece has one, colors
the leaf pieces by branch-and-bound with a clique-number target (which exact
coloring must hit, since the inputs are perfect), and merges sibling
colorings bottom-up with Kempe swaps.  The decomposition is recorded as a
binary tree whose internal nodes carry their partition and a witness triad.
The maximal cliques are enumerated once, at the root; every other node's
list is derived from its parent's and carried down with the node.

Each node first peels its simplicial vertices (those whose neighborhood is a
clique) and runs the search on what is left, its core.  The peel runs in
the parent's labels, before the piece is built, so only the core becomes a
graph of its own; a child's peel starts from the parent's cutset, the only
vertices that can have become simplicial.  A peeled vertex is colored last,
in the parent's labels, with the lowest color missing from its neighborhood
at removal: a clique of at most omega - 1 vertices, so a color within omega
is always free (Gavril 1972, perfect elimination orderings).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .errors import Infeasible, InternalViolation
from .graphs import (
    Graph,
    _iter_triads,
    _peel,
    cliques_within,
    induced,
    iter_bits,
    mask_of,
    maximal_cliques,
    omega,
    relabel,
    require_berge,
    require_square_free,
)
from .partition import GoodPartition, find_good_partition
from .recolor import PartialColoring, merge_colorings


@dataclass
class SolveStats:
    frames_tried: int = 0  # frames handed to refine_frame
    frames_pruned: int = 0  # clique pairs skipped without refinement
    swaps_applied: int = 0
    leaf_count: int = 0
    node_count: int = 0
    max_depth: int = 0
    berge_checked: bool = False


@dataclass
class TreeNode:
    """One piece of the decomposition, in the labels of the original graph.

    `vertices` lists every vertex of the piece; `peeled` those removed as
    simplicial before the search, in removal order, and the rest form the
    core.  Internal nodes carry the partition that split the core, a triad
    witnessing condition (v), and exactly two children: the core minus R,
    then the core minus L.  Leaves carry neither.
    """

    vertices: tuple[int, ...]
    partition: GoodPartition | None = None
    triad: tuple[int, int, int] | None = None
    children: tuple["TreeNode", "TreeNode"] | None = None
    peeled: tuple[int, ...] = ()

    def is_leaf(self) -> bool:
        return self.children is None

    def iter_nodes(self):
        """Pre-order, first child first; an explicit stack keeps deep trees
        clear of the interpreter's recursion limit."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children or ()))

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    def leaf_count(self) -> int:
        return sum(1 for node in self.iter_nodes() if node.is_leaf())

    def depth(self) -> int:
        deepest, stack = 0, [(self, 1)]
        while stack:
            node, d = stack.pop()
            deepest = max(deepest, d)
            stack.extend((ch, d + 1) for ch in node.children or ())
        return deepest


@dataclass
class ColorResult:
    coloring: PartialColoring
    colors_used: int
    tree: TreeNode
    stats: SolveStats


@dataclass(frozen=True)
class ColoringVerdict:
    ok: bool
    reason: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_coloring(
    g: Graph, c: PartialColoring, *, clique_number: int | None = None
) -> ColoringVerdict:
    """Proper, total, positive integer colors, and at most omega(g) of them.
    `clique_number`, if given, is omega(g) as the caller has found it from
    g's maximal cliques; otherwise it is computed here."""
    for v in c.colors:
        if not (isinstance(v, int) and 0 <= v < g.n):
            return ColoringVerdict(False, "unknown-vertex", (v,))
    for v in range(g.n):
        if v not in c.colors:
            return ColoringVerdict(False, "uncolored-vertex", (v,))
    for v, col in c.colors.items():
        if not isinstance(col, int) or isinstance(col, bool) or col < 1:
            return ColoringVerdict(False, "bad-color-value", (v, col))
    for u, v in g.edges():
        if c.colors[u] == c.colors[v]:
            return ColoringVerdict(False, "improper-edge", (u, v))
    used = len(set(c.colors.values()))
    w = omega(g) if clique_number is None else clique_number
    if used > w:
        return ColoringVerdict(False, "too-many-colors", (used, w))
    return ColoringVerdict(True)


def leaf_color(g: Graph, target: int) -> PartialColoring:
    """Exact coloring with at most `target` colors by saturation-ordered
    backtracking.  Raises Infeasible when no such coloring exists."""
    n = g.n
    colors: dict[int, int] = {}
    # per-vertex count of colored neighbors holding each color
    nbr: list[dict[int, int]] = [dict() for _ in range(n)]

    def pick() -> int:
        best, best_key = -1, None
        for v in range(n):
            if v in colors:
                continue
            key = (len(nbr[v]), g.degree(v), -v)
            if best_key is None or key > best_key:
                best, best_key = v, key
        return best

    def backtrack(max_used: int) -> bool:
        if len(colors) == n:
            return True
        v = pick()
        # trying one fresh color beyond those in use kills palette symmetry
        for col in range(1, min(target, max_used + 1) + 1):
            if col in nbr[v]:
                continue
            colors[v] = col
            for w in g.neighbors(v):
                if w not in colors:
                    nbr[w][col] = nbr[w].get(col, 0) + 1
            if backtrack(max(max_used, col)):
                return True
            del colors[v]
            for w in g.neighbors(v):
                if w not in colors:
                    nbr[w][col] -= 1
                    if nbr[w][col] == 0:
                        del nbr[w][col]
        return False

    if not backtrack(0):
        raise Infeasible(f"graph admits no proper coloring with {target} colors")
    return PartialColoring(colors)


def _witness_triad(g: Graph, gp: GoodPartition) -> tuple[int, int, int]:
    """First triad, in ascending order, meeting both L and R."""
    for x, y, z in _iter_triads(g):
        tset = {x, y, z}
        if tset & gp.l and tset & gp.r:
            return (x, y, z)
    raise InternalViolation("verified partition lost its witness triad")


def _child(
    g: Graph, cliques: list[int], keep: int
) -> tuple[Graph, tuple[int, ...], list[int]]:
    """The subgraph induced on `keep`, its vertices' labels in g, and its
    maximal cliques as masks in its own labels, derived from g's."""
    sub, order, runs = induced(g, keep)
    return sub, order, relabel(cliques_within(g, cliques, keep), runs)


def _color_peeled(
    core: PartialColoring, back: tuple[int, ...], peeled: list[tuple[int, int]], k: int
) -> tuple[PartialColoring, int]:
    """Move the core's coloring to the parent's labels (core vertex i is
    back[i] there) and extend it to the peeled vertices, last removed first.
    Each one's neighborhood at removal is then a colored clique, so the
    lowest color missing from it is at most its size + 1; the piece's k
    grows to the largest such clique plus v."""
    colors = {back[i]: col for i, col in core.colors.items()}
    for v, nb in reversed(peeled):
        size = nb.bit_count()
        taken = {colors[u] for u in iter_bits(nb)}
        colors[v] = min(set(range(1, size + 2)) - taken)
        k = max(k, size + 1)
    return PartialColoring(colors), k


def _solve(
    g: Graph,
    orig: tuple[int, ...],
    cliques: list[int],
    keep: int,
    seeds: int,
    start: tuple[int, int],
    depth: int,
    stats: SolveStats,
    events: list[dict],
) -> tuple[PartialColoring, int, TreeNode]:
    """Color the piece of g induced on `keep`, building one tree node, and
    return its coloring in g's labels.  Vertex i of g is orig[i] in the root
    graph and g's maximal cliques are `cliques` (masks, lexicographic
    order); counters and swap events go into the run's `stats` and `events`.

    The piece is peeled in g's labels, the first scan testing only `seeds`
    (see `_peel`), and only the core that is left is built as a graph of its
    own.  The core is then searched and split, or colored as a leaf.  The
    root passes every vertex as seeds.  A child passes its parent's cutset
    K1 ∪ K2 ∪ K3: the parent's core has no simplicial vertex, and L and R
    have no edges between them, so only cut vertices lose a neighbor.

    `start` is an anchor pair in root labels.  The frame search begins at
    the first of the core's anchor pairs at or after it, compared in root
    labels, and wraps around to the pairs before it.  The root passes
    (0, 0); a child passes its parent's anchor pair, so it resumes where the
    parent's search succeeded."""
    stats.node_count += 1
    stats.max_depth = max(stats.max_depth, depth)
    peeled = _peel(g, seeds, keep)
    node = TreeNode(
        vertices=tuple(orig[v] for v in iter_bits(keep)),
        peeled=tuple(orig[v] for v, _ in peeled),
    )
    # from here on g is the core; back gives its vertices' labels in the parent
    core = keep & ~mask_of(v for v, _ in peeled)
    g, back, cliques = _child(g, cliques, core)
    orig = tuple(orig[j] for j in back)

    # orig is increasing, so the first pair at or after `start` in root
    # labels is the first at or after (x0, y0) in the core's own
    x0 = bisect_left(orig, start[0])
    on_row = x0 < len(orig) and orig[x0] == start[0]
    y0 = bisect_left(orig, start[1]) if on_row else 0
    fstats: dict[str, int] = {}
    gp = find_good_partition(g, fstats, cliques=cliques, start=(x0, y0))
    stats.frames_tried += fstats.get("frames_tried", 0)
    stats.frames_pruned += fstats.get("frames_pruned", 0)

    if gp is None:
        stats.leaf_count += 1
        k = max((q.bit_count() for q in cliques), default=0)
        coloring = leaf_color(g, k)
    else:
        triad = _witness_triad(g, gp)
        full = g.full_mask
        cut = mask_of(gp.k1 | gp.k2 | gp.k3)
        anchor = (orig[gp.anchor[0]], orig[gp.anchor[1]])
        # the first child holds L, the second R; both answer in g's labels
        c1, k1, node1 = _solve(
            g, orig, cliques, full & ~mask_of(gp.r), cut, anchor, depth + 1,
            stats, events,
        )
        c2, k2, node2 = _solve(
            g, orig, cliques, full & ~mask_of(gp.l), cut, anchor, depth + 1,
            stats, events,
        )
        k = max(k1, k2)

        coloring = merge_colorings(
            g, gp, c1, c2, k,
            trace=lambda ev: events.append({**ev, "node_n": len(orig)}),
        )

        node.partition = GoodPartition(
            k1=frozenset(orig[i] for i in gp.k1),
            k2=frozenset(orig[i] for i in gp.k2),
            k3=frozenset(orig[i] for i in gp.k3),
            l=frozenset(orig[i] for i in gp.l),
            r=frozenset(orig[i] for i in gp.r),
        )
        node.triad = tuple(sorted(orig[v] for v in triad))
        node.children = (node1, node2)
    coloring, k = _color_peeled(coloring, back, peeled, k)
    return coloring, k, node


def color(
    g: Graph,
    *,
    berge_cap: int = 64,
    trust_berge: bool = False,
    trace: list | None = None,
) -> ColorResult:
    """Color g with exactly omega(g) colors.

    Rejects inputs with squares (NotSquareFree) and, when n is within
    berge_cap and the check is not trusted away, inputs with odd holes or
    antiholes (NotBerge).  The returned tree, stats and trace are byte-stable
    across runs.
    """
    require_square_free(g)
    stats = SolveStats()
    if not trust_berge and g.n <= berge_cap:
        require_berge(g, cap=berge_cap, square_free=True)
        stats.berge_checked = True

    events: list[dict] = []
    cliques = [mask_of(c) for c in maximal_cliques(g)]
    full = g.full_mask
    coloring, k, tree = _solve(
        g, tuple(range(g.n)), cliques, full, full, (0, 0), 1, stats, events
    )
    stats.swaps_applied = len(events)  # every event is one applied swap

    # omega(g) from the root's maximal cliques, never from the solve's own k;
    # the final check reuses it rather than enumerating the cliques again
    w = max((q.bit_count() for q in cliques), default=0)
    if k != w or coloring.colors_used() != w:
        raise InternalViolation(
            f"solver used {coloring.colors_used()} colors, clique number is {w}"
        )
    verdict = verify_coloring(g, coloring, clique_number=w)
    if not verdict:
        raise InternalViolation(f"final coloring invalid: {verdict.reason}")
    if stats.node_count > max(1, 3 * g.n**3):
        raise InternalViolation("decomposition tree exceeds the cubic node bound")
    if stats.max_depth > max(1, g.n):
        raise InternalViolation("decomposition deeper than the vertex count")
    triads = [frozenset(n.triad) for n in tree.iter_nodes() if n.triad is not None]
    if len(triads) != len(set(triads)):
        raise InternalViolation("two internal nodes share a witness triad")

    if trace is not None:
        trace.extend(events)
    return ColorResult(coloring=coloring, colors_used=k, tree=tree, stats=stats)


def _preorder(tree: TreeNode) -> list[tuple[TreeNode, list[int]]]:
    """Each node in iter_nodes() pre-order, with its children's positions."""
    nodes = list(tree.iter_nodes())
    pos = {id(node): i for i, node in enumerate(nodes)}
    return [(node, [pos[id(ch)] for ch in node.children or ()]) for node in nodes]


def tree_to_json(tree: TreeNode) -> dict:
    """The tree as a flat list of nodes in pre-order, root first; an internal
    node names its two children by their positions in that list, and a node
    that peeled vertices lists them in removal order."""
    nodes = []
    for node, kids in _preorder(tree):
        out: dict = {"vertices": list(node.vertices)}
        if node.peeled:
            out["peeled"] = list(node.peeled)
        if kids:
            out["partition"] = node.partition.to_json()
            out["triad"] = list(node.triad)
            out["children"] = kids
        nodes.append(out)
    return {"schema": "bergecolor-tree/3", "nodes": nodes}


def tree_to_dot(tree: TreeNode) -> str:
    lines = [
        "digraph decomposition {",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for i, (node, kids) in enumerate(_preorder(tree)):
        if kids:
            p = node.partition
            label = (
                f"|K1|={len(p.k1)} |K2|={len(p.k2)} |K3|={len(p.k3)} "
                f"|L|={len(p.l)} |R|={len(p.r)}\\ntriad={node.triad}"
            )
        else:
            label = f"leaf |V|={len(node.vertices)}"
        if node.peeled:
            label += f"\\npeeled={len(node.peeled)}"
        lines.append(f'  n{i} [label="{label}"];')
        lines.extend(f"  n{i} -> n{k};" for k in kids)
    lines.append("}")
    return "\n".join(lines) + "\n"
