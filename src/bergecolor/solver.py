"""Exact optimal coloring of square-free Berge graphs.

color() splits the graph along good partitions until no piece has one and
merges sibling colorings bottom-up with Kempe swaps, using exactly the
clique number of colors (which exact coloring must hit, since the inputs
are perfect).  The decomposition is recorded as a binary tree whose
internal nodes carry their partition and a witness triad: the triad of
condition (v) that the partition's own verification found.  A clique of k
vertices that the solve already holds proves its k colors optimal.

Every piece is a vertex mask of the one input graph, and the whole
decomposition runs in the input's labels: no piece becomes a graph of its
own, and nothing is relabelled.  The search, the merge and the peel read
the piece's mask; since every tie goes to the lowest id, each answers as it
would on the piece built as a graph in ascending vertex order.  The tree is
walked with explicit stacks, so its depth is not bound by the interpreter's
recursion limit.

Each node first peels its simplicial vertices (those whose neighborhood is a
clique) and runs the search on what is left, its core.  A child's peel
starts from the parent's cutset, the only vertices that can have become
simplicial.  A peeled vertex is colored last with the lowest color missing
from its neighborhood at removal: a clique of at most omega - 1 vertices, so
a color within omega is always free (Gavril 1972, perfect elimination
orderings).  A leaf's core is empty, or bipartite once true twins are
merged, and then it is colored from that bipartition (see `leaf_color`).
Colorings are lists of color-class masks (see `recolor.PartialColoring`):
the peel extends the coloring the merge has just returned in place, adding
each vertex to the lowest class that misses its neighborhood.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .errors import BergeViolation, InternalViolation
from .graphs import (
    Graph,
    _bipartition,
    _peel,
    bit_list,
    iter_bits,
    mask_of,
    omega,
    require_berge,
    require_square_free,
)
from .partition import GoodPartition, _clique_defect, find_good_partition
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

    `vertices` is the piece as a vertex mask; `peeled` lists the vertices
    removed as simplicial before the search, in removal order, and the rest
    form the core.  Internal nodes carry the partition that split the core
    and exactly two children: the core minus R, then the core minus L.
    Leaves carry neither.
    """

    vertices: int
    partition: GoodPartition | None = None
    children: tuple["TreeNode", "TreeNode"] | None = None
    peeled: tuple[int, ...] = ()

    @property
    def triad(self) -> tuple[int, int, int] | None:
        """The partition's triad, ascending, that its verification found
        for condition (v): three pairwise non-adjacent core vertices meeting
        L and R.  None at a leaf."""
        return None if self.partition is None else self.partition.triad

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
    clique: int  # a clique of colors_used vertices, as a mask


@dataclass(frozen=True)
class ColoringVerdict:
    ok: bool
    reason: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_coloring(
    g: Graph,
    c: PartialColoring | Mapping[int, int],
    *,
    clique_number: int | None = None,
) -> ColoringVerdict:
    """Proper, total, positive integer colors, and at most omega(g) of them.

    `c` is a coloring or an untrusted `{vertex: color}` mapping, such as
    `parse_coloring_lines` returns.  A mapping's entries are checked as
    values first, in this order: every vertex an int in 0..n-1
    ("unknown-vertex"), every vertex of g colored ("uncolored-vertex"),
    every color a positive int ("bad-color-value"); so a huge vertex or
    color costs no memory.  Only then is it grouped into class masks, one
    per color used.  A coloring's classes are checked for a vertex outside
    0..n-1 ("unknown-vertex", the lowest), a vertex in two classes
    ("shared-vertex", the lowest; possible only through
    `PartialColoring.of_classes`) and an uncolored vertex, the lowest.

    Both forms then pass the same checks on the classes: each member's
    neighbourhood must miss its own class ("improper-edge", naming the
    lexicographically first adjacent pair (u, v), u < v, inside one class),
    and the non-empty classes must number at most omega(g)
    ("too-many-colors").  `clique_number`, if given, is the size of a
    clique of g that the caller has checked, and stands in for omega(g);
    otherwise omega(g) is computed here."""
    if isinstance(c, PartialColoring):
        classes = c.classes
        full = g.full_mask
        union = shared = 0
        for m in classes:
            shared |= union & m
            union |= m
        for reason, bad in (
            ("unknown-vertex", union & ~full),
            ("shared-vertex", shared),
            ("uncolored-vertex", full & ~union),
        ):
            if bad:
                return ColoringVerdict(False, reason, ((bad & -bad).bit_length() - 1,))
    else:
        for v in c:
            if not (isinstance(v, int) and 0 <= v < g.n):
                return ColoringVerdict(False, "unknown-vertex", (v,))
        if len(c) < g.n:
            v = next(v for v in range(g.n) if v not in c)
            return ColoringVerdict(False, "uncolored-vertex", (v,))
        for v, col in c.items():
            if not isinstance(col, int) or isinstance(col, bool) or col < 1:
                return ColoringVerdict(False, "bad-color-value", (v, col))
        by_color: dict[int, int] = {}
        for v, col in c.items():
            by_color[col] = by_color.get(col, 0) | 1 << v
        classes = list(by_color.values())
    masks = g._masks
    first = None
    for m in classes:
        rest = m
        while rest:
            low = rest & -rest
            hit = masks[low.bit_length() - 1] & m
            if hit:
                # the first member with a neighbour in its class sees only
                # later members there, so its pair is the class's first
                pair = (low.bit_length() - 1, (hit & -hit).bit_length() - 1)
                if first is None or pair < first:
                    first = pair
                break
            rest ^= low
    if first is not None:
        return ColoringVerdict(False, "improper-edge", first)
    used = sum(1 for m in classes if m)
    w = omega(g) if clique_number is None else clique_number
    if used > w:
        return ColoringVerdict(False, "too-many-colors", (used, w))
    return ColoringVerdict(True)


def leaf_color(g: Graph, core: int) -> tuple[PartialColoring, int]:
    """The coloring of a leaf's core, and a clique of as many vertices as
    it has colors, as a mask: both empty when the core is.

    A leaf is a piece of a square-free Berge graph with no good partition.
    Without a triad such a piece is chordal: a hole of length 4 is a
    square, an odd hole is not Berge, and an even hole of length 6 or more
    holds a triad.  Every non-empty chordal graph has a simplicial vertex
    (Dirac 1961), so the peel removes a triad-free leaf whole and its core
    is empty.  A leaf may hold triads, though: bipartite graphs of girth at
    least 6 and minimum degree at least 3, such as the Heawood graph, have
    no good partition and no simplicial vertex, and neither have their
    blow-ups by true twins (adjacent vertices with the same neighbours).

    The core's vertices are grouped into classes by their closed
    neighbourhood in the core, so true twins share a class; a class is a
    clique, complete or anticomplete to each other class.  The quotient,
    one lowest vertex per class, must be bipartite: its sides are the
    parities of its BFS layers, each component searched from its lowest
    vertex (`graphs._bipartition`).  k is the most vertices in a class and
    one adjacent class, the first such pair the witness clique.  A class of
    w vertices takes colors 1..w on the first side and the top w of 1..k
    on the other, so two adjacent classes never share a color.  A
    bipartite core has one vertex per class and is 2-colored by layer
    parity.  Raises BergeViolation on any other non-empty `core`, which
    has neither a simplicial vertex nor a good partition and is not such a
    blow-up: no coloring is made up for it.
    """
    if not core:
        return PartialColoring.of_classes([]), 0
    masks = g._masks
    by_nbhd: dict[int, int] = {}
    for v in iter_bits(core):
        key = (masks[v] | 1 << v) & core
        by_nbhd[key] = by_nbhd.get(key, 0) | 1 << v
    # each class under its lowest vertex, ascending
    classes = {(m & -m).bit_length() - 1: m for m in by_nbhd.values()}
    reps = mask_of(classes)
    sides = _bipartition(g, reps)
    if sides is None:
        raise BergeViolation(
            f"a leaf core of {core.bit_count()} vertices has no simplicial "
            "vertex and no good partition, and is not bipartite once true "
            "twins are merged"
        )
    clique = 0
    for v, m in classes.items():
        for u in iter_bits(masks[v] & reps):
            if m.bit_count() + classes[u].bit_count() > clique.bit_count():
                clique = m | classes[u]
        if m.bit_count() > clique.bit_count():
            clique = m
    k = clique.bit_count()
    colors = [0] * k
    for v, m in classes.items():
        first = 0 if sides[0] >> v & 1 else k - m.bit_count()
        for i, u in enumerate(iter_bits(m)):
            colors[first + i] |= 1 << u
    return PartialColoring.of_classes(colors), clique


def _color_peeled(
    coloring: PartialColoring, peeled: list[tuple[int, int]], clique: int
) -> tuple[PartialColoring, int]:
    """Extend the core's coloring, in place, to the peeled vertices, last
    removed first.  Each one's neighborhood at removal is then a colored
    clique, so the lowest class that misses it is at most its size + 1;
    the piece's witness clique becomes it with v wherever that is larger,
    and a tie keeps the witness."""
    classes = coloring.classes
    size = clique.bit_count()
    for v, nb in reversed(peeled):
        bit = 1 << v
        for i, m in enumerate(classes):
            if not m & nb:
                classes[i] = m | bit
                break
        else:
            classes.append(bit)
        k = nb.bit_count()
        if k >= size:
            clique, size = nb | bit, k + 1
    return coloring, clique


def _solve(
    g: Graph, stats: SolveStats, events: list[dict]
) -> tuple[PartialColoring, int, TreeNode]:
    """Color g by decomposition and return the coloring, a clique of as
    many vertices as it has colors (a mask) and the tree's root.  Every
    vertex, mask and partition is in g's labels.  Counters go into the
    run's `stats`, and each merge appends its swap events to `events`,
    naming a seed by its rank in the node's core (see `merge_colorings`).

    A piece is peeled, the first scan testing only its seeds (see `_peel`),
    and its core searched and split, or left as a leaf.  The root's seeds
    are all of g.  A child's are its parent's cutset K1 ∪ K2 ∪ K3: the
    parent's core has no simplicial vertex, and L and R have no edges
    between them, so only cut vertices lose a neighbor.

    The search's vertex phase begins at the first core vertex at or after
    a start vertex and wraps around.  The root starts at 0; a child at the
    lowest vertex of its parent's L, so it resumes where the parent's
    vertex phase succeeded.  The frame phase always scans from the first
    anchor pair.

    The pieces are visited from an explicit stack, each node before its
    children and the second child (the core minus L) before the first.
    That visit order, walked backwards, is the post-order of the tree,
    first child first; the colorings are built and merged in that walk,
    each node's from its two children's, and so is its witness clique: the
    larger child's, the first on a tie, which its peel may still raise."""
    fstats: dict[str, int] = {}
    # (piece, seeds, start vertex, depth)
    pending = [(g.full_mask, g.full_mask, 0, 1)]
    visited = []
    while pending:
        keep, seeds, start, depth = pending.pop()
        stats.node_count += 1
        stats.max_depth = max(stats.max_depth, depth)
        core, peeled = _peel(g, seeds, keep)
        node = TreeNode(vertices=keep, peeled=tuple(v for v, _ in peeled))
        gp = find_good_partition(g, fstats, start=start, within=core)
        visited.append((node, core, peeled, gp))
        if gp is None:
            stats.leaf_count += 1
            continue
        cut = gp.k1 | gp.k2 | gp.k3
        start = (gp.l & -gp.l).bit_length() - 1
        # the first child holds L, the second R
        pending.append((core & ~gp.r, cut, start, depth + 1))
        pending.append((core & ~gp.l, cut, start, depth + 1))
    stats.frames_tried += fstats.get("frames_tried", 0)
    stats.frames_pruned += fstats.get("frames_pruned", 0)

    # each finished subtree's (coloring, witness clique, root), the latest on top
    done: list[tuple[PartialColoring, int, TreeNode]] = []
    for node, core, peeled, gp in reversed(visited):
        if gp is None:
            coloring, clique = leaf_color(g, core)
        else:
            c2, q2, node2 = done.pop()
            c1, q1, node1 = done.pop()
            clique = q1 if q1.bit_count() >= q2.bit_count() else q2
            coloring = merge_colorings(
                g, gp, c1, c2, clique.bit_count(), trace=events.append
            )
            node.partition = gp
            node.children = (node1, node2)
        done.append((*_color_peeled(coloring, peeled, clique), node))
    return done.pop()


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
    coloring, clique, tree = _solve(g, stats, events)
    stats.swaps_applied = len(events)  # every event is one applied swap

    # a clique of k vertices and a proper k-coloring: k <= omega <= chi <= k
    k = clique.bit_count()
    if clique & ~g.full_mask or _clique_defect(g, clique):
        raise InternalViolation("the solver's witness is not a clique of the graph")
    if coloring.colors_used() != k:
        raise InternalViolation(
            f"solver used {coloring.colors_used()} colors, its witness clique has {k}"
        )
    verdict = verify_coloring(g, coloring, clique_number=k)
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
    return ColorResult(coloring, k, tree, stats, clique)


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
        out: dict = {"vertices": bit_list(node.vertices)}
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
            k1, k2, k3, l, r = (m.bit_count() for m in node.partition.sets())
            label = (
                f"|K1|={k1} |K2|={k2} |K3|={k3} |L|={l} |R|={r}"
                f"\\ntriad={node.triad}"
            )
        else:
            label = f"leaf |V|={node.vertices.bit_count()}"
        if node.peeled:
            label += f"\\npeeled={len(node.peeled)}"
        lines.append(f'  n{i} [label="{label}"];')
        lines.extend(f"  n{i} -> n{k};" for k in kids)
    lines.append("}")
    return "\n".join(lines) + "\n"
