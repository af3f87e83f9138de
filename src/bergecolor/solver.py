"""Exact optimal coloring of square-free Berge graphs.

color() splits the graph along good partitions until no piece has one, colors
the leaf pieces by branch-and-bound with a clique-number target (which exact
coloring must hit, since the inputs are perfect), and merges sibling
colorings bottom-up with Kempe swaps.  The decomposition is recorded as a
binary tree whose internal nodes carry their partition and a witness triad.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Infeasible, InternalViolation
from .graphs import Graph, _iter_triads, omega, require_berge, require_square_free
from .partition import GoodPartition, find_good_partition
from .recolor import PartialColoring, merge_colorings


@dataclass
class SolveStats:
    frames_tried: int = 0
    frames_pruned: int = 0
    swaps_applied: int = 0
    leaf_count: int = 0
    node_count: int = 0
    max_depth: int = 0
    berge_checked: bool = False


@dataclass
class TreeNode:
    """One piece of the decomposition, in the labels of the original graph.

    Internal nodes carry the partition that split them, a triad witnessing
    condition (v), and exactly two children: the piece minus R, then the
    piece minus L.  Leaves carry neither.
    """

    vertices: tuple[int, ...]
    partition: GoodPartition | None = None
    triad: tuple[int, int, int] | None = None
    children: tuple["TreeNode", "TreeNode"] | None = None

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


def verify_coloring(g: Graph, c: PartialColoring) -> ColoringVerdict:
    """Proper, total, positive integer colors, and at most omega(g) of them."""
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
    w = omega(g)
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


def _solve(
    g: Graph, orig: tuple[int, ...], depth: int, stats: SolveStats, events: list[dict]
) -> tuple[PartialColoring, int, TreeNode]:
    """Color g, whose vertex i is orig[i] in the root graph, building one tree
    node; counters and swap events go into the run's `stats` and `events`."""
    stats.node_count += 1
    stats.max_depth = max(stats.max_depth, depth)
    fstats: dict[str, int] = {}
    gp = find_good_partition(g, fstats)
    stats.frames_tried += fstats.get("frames_tried", 0)
    stats.frames_pruned += fstats.get("frames_pruned", 0)

    if gp is None:
        stats.leaf_count += 1
        k = omega(g)
        return leaf_color(g, k), k, TreeNode(vertices=orig)

    triad = _witness_triad(g, gp)
    all_vs = set(range(g.n))
    keep1 = sorted(all_vs - gp.r)  # the side holding L
    keep2 = sorted(all_vs - gp.l)
    g1, map1 = g.subgraph(keep1)
    g2, map2 = g.subgraph(keep2)
    # map1/map2 give this node's labels; compose with orig for root labels
    orig1 = tuple(orig[j] for j in map1)
    orig2 = tuple(orig[j] for j in map2)
    col1, k1, node1 = _solve(g1, orig1, depth + 1, stats, events)
    col2, k2, node2 = _solve(g2, orig2, depth + 1, stats, events)

    # children were solved in their own labels (map1/map2 give this node's)
    c1 = PartialColoring({map1[i]: col for i, col in col1.colors.items()})
    c2 = PartialColoring({map2[i]: col for i, col in col2.colors.items()})
    k = max(k1, k2)

    merged = merge_colorings(
        g, gp, c1, c2, k, trace=lambda ev: events.append({**ev, "node_n": len(orig)})
    )

    node = TreeNode(
        vertices=orig,
        partition=GoodPartition(
            k1=frozenset(orig[i] for i in gp.k1),
            k2=frozenset(orig[i] for i in gp.k2),
            k3=frozenset(orig[i] for i in gp.k3),
            l=frozenset(orig[i] for i in gp.l),
            r=frozenset(orig[i] for i in gp.r),
        ),
        triad=tuple(sorted(orig[v] for v in triad)),
        children=(node1, node2),
    )
    return merged, k, node


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
        require_berge(g, cap=berge_cap)
        stats.berge_checked = True

    events: list[dict] = []
    coloring, k, tree = _solve(g, tuple(range(g.n)), 1, stats, events)
    stats.swaps_applied = len(events)  # every event is one applied swap

    w = omega(g)
    if k != w or coloring.colors_used() != w:
        raise InternalViolation(
            f"solver used {coloring.colors_used()} colors, clique number is {w}"
        )
    verdict = verify_coloring(g, coloring)
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


def tree_to_json(tree: TreeNode) -> dict:
    root: dict = {}
    stack = [(tree, root)]
    while stack:
        node, out = stack.pop()
        out["vertices"] = list(node.vertices)
        if node.children is not None:
            out["partition"] = node.partition.to_json()
            out["triad"] = list(node.triad)
            out["children"] = [{} for _ in node.children]
            stack.extend(reversed(list(zip(node.children, out["children"]))))
    return {"schema": "bergecolor-tree/1", "root": root}


def tree_to_dot(tree: TreeNode) -> str:
    lines = [
        "digraph decomposition {",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    counter = [0]

    def walk(node: TreeNode) -> int:
        my_id = counter[0]
        counter[0] += 1
        if node.is_leaf():
            label = f"leaf |V|={len(node.vertices)}"
        else:
            p = node.partition
            label = (
                f"|K1|={len(p.k1)} |K2|={len(p.k2)} |K3|={len(p.k3)} "
                f"|L|={len(p.l)} |R|={len(p.r)}\\ntriad={node.triad}"
            )
        lines.append(f'  n{my_id} [label="{label}"];')
        if node.children is not None:
            for ch in node.children:
                ch_id = walk(ch)
                lines.append(f"  n{my_id} -> n{ch_id};")
        return my_id

    walk(tree)
    lines.append("}")
    return "\n".join(lines) + "\n"
