"""Merging two partial colorings across a good partition.

G minus R and G minus L overlap exactly on the cutset K1 ∪ K2 ∪ K3.  After
permuting one palette so both colorings agree on the clique K1 ∪ K2, the only
disagreements left sit in K3 (the bad set).  Swapping a color pair on a
two-colored component that stays clear of K1 ∪ K2 never breaks the agreement,
and for square-free Berge inputs some such swap always shrinks the bad set,
so the loop below terminates with a proper coloring of all of G.  Running out
of reducing swaps is therefore a proof that the input was not square-free
Berge, reported as BergeViolation.

The search tries one swap per bad vertex u and side: u's own pair
{c1(u), c2(u)} on u's component.  No other swap reduces.  A swap on side s
exchanges colors i and j on the {i, j}-component C of its seed, and C must
avoid K1 ∪ K2.  Only the vertices of C change color, so only K3 ∩ C can
change whether it is bad, and the bad set shrinks only if some bad u in C
becomes good, which needs {i, j} = {c1(u), c2(u)}.  Then C is u's own
component for that pair: the swap is u's candidate on side s, with the same
component and the same result.

A coloring is one vertex mask per color, so the merge is set algebra on at
most k masks: a two-colored component is a search inside the union of two
classes, a swap moves it between them, aligning permutes the class list and
the merge ORs the two sides class by class.  The merge checks its own steps,
each where it can go wrong: after a swap, only the swapped vertices can meet
their new class, since the side was proper before it; and two proper sides
that agree on the cut join into a proper coloring, since L and R have no
edges between them.

A coloring read from a file is untrusted.  `parse_coloring_lines` and
`coloring_from_json` return it as a `{vertex: color}` dict, which
`solver.verify_coloring` checks against a graph; no mask is built from it
until a vertex or color has passed that check.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import zip_longest

from .errors import BergeViolation, InternalViolation
from .graphs import Graph, bit_list, component_mask, iter_bits
from .partition import GoodPartition


class PartialColoring:
    """A coloring of some of a graph's vertices with colors 1, 2, ..., held
    as one vertex mask per color: `classes[i]` is the set of vertices of
    color i + 1.  The classes are pairwise disjoint; an empty one is a color
    that no vertex has.

    `PartialColoring(colors)` builds the classes from a `{vertex: color}`
    mapping of non-negative int vertices to positive int colors.  `colors`
    is a view: a fresh `{vertex: color}` dict, ascending by vertex, built
    from the classes on each access, for output and inspection; changing it
    leaves the coloring as it was.

    The functions of this module never change a coloring they are given:
    `align_colorings`, `apply_swap` and `merge_colorings` each return a fresh
    one.  The solver extends a coloring it has just made in place, as it
    colors the peeled vertices of a piece."""

    __slots__ = ("classes",)

    def __init__(self, colors: Mapping[int, int] | None = None) -> None:
        classes: list[int] = []
        for v, col in (colors or {}).items():
            if not (_is_int(v) and _is_int(col) and v >= 0 and col >= 1):
                raise ValueError(f"vertex {v!r} cannot take color {col!r}")
            classes.extend([0] * (col - len(classes)))
            classes[col - 1] |= 1 << v
        self.classes = classes

    @classmethod
    def of_classes(cls, classes: list[int]) -> PartialColoring:
        """The coloring whose class of color i + 1 is `classes[i]`; the list
        is taken, not copied."""
        c = cls.__new__(cls)
        c.classes = classes
        return c

    def __repr__(self) -> str:
        return f"PartialColoring({self.colors!r})"

    @property
    def colors(self) -> dict[int, int]:
        by_vertex = [0] * self.vertices().bit_length()
        for i, m in enumerate(self.classes, 1):
            for v in iter_bits(m):
                by_vertex[v] = i
        return {v: col for v, col in enumerate(by_vertex) if col}

    def members(self, col: int) -> int:
        """The class of color `col`, as a mask; 0 for a color not in use."""
        return self.classes[col - 1] if 0 < col <= len(self.classes) else 0

    def color_of(self, v: int) -> int:
        """v's color, or 0 when v is uncolored."""
        for i, m in enumerate(self.classes, 1):
            if m >> v & 1:
                return i
        return 0

    def vertices(self) -> int:
        """The colored vertices, as a mask."""
        out = 0
        for m in self.classes:
            out |= m
        return out

    def max_color(self) -> int:
        top = len(self.classes)
        while top and not self.classes[top - 1]:
            top -= 1
        return top

    def colors_used(self) -> int:
        return sum(1 for m in self.classes if m)


def _is_int(value) -> bool:
    # bool is an int subclass; neither it nor a float is a vertex or a
    # color, and int() would truncate them silently
    return isinstance(value, int) and not isinstance(value, bool)


def coloring_to_lines(c: PartialColoring) -> str:
    """DIMACS-solution-style text, one `v <vertex> <color>` line, 1-based."""
    return "".join(f"v {v + 1} {col}\n" for v, col in c.colors.items())


def parse_coloring_lines(text: str) -> dict[int, int]:
    """`v <vertex> <color>` lines, 1-based, as an untrusted 0-based
    `{vertex: color}` dict."""
    colors: dict[int, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != "v" or len(fields) != 3:
            raise ValueError(f"line {line_no}: expected 'v <vertex> <color>'")
        try:
            v, col = int(fields[1]), int(fields[2])
        except ValueError:
            raise ValueError(f"line {line_no}: non-integer field")
        if v < 1 or col < 1:
            raise ValueError(f"line {line_no}: vertex and color are 1-based")
        if colors.setdefault(v - 1, col) != col:
            raise ValueError(f"line {line_no}: vertex {v} already has color {colors[v - 1]}")
    return colors


def coloring_to_json(c: PartialColoring) -> dict:
    return {
        "schema": "bergecolor-coloring/1",
        "colors": [[v, col] for v, col in c.colors.items()],
    }


def coloring_from_json(obj: dict) -> dict[int, int]:
    """The `"colors"` pairs of a coloring JSON document as an untrusted
    `{vertex: color}` dict."""
    colors: dict[int, int] = {}
    try:
        for v, col in obj["colors"]:
            for value in (v, col):
                if not _is_int(value):
                    raise ValueError(f"{value!r} is not an integer")
            if colors.setdefault(v, col) != col:
                raise ValueError(f"vertex {v} has two colors")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f'coloring JSON needs "colors" as [vertex, color] pairs: {exc}')
    return colors


def align_colorings(c1: PartialColoring, c2: PartialColoring, anchor: int) -> PartialColoring:
    """Permute c2's palette so it matches c1 on `anchor`, a vertex mask of a
    clique colored by both.  The forced part of the permutation is extended
    color by color, ascending, each mapping to the smallest free target, so
    the result is deterministic."""
    mapping: dict[int, int] = {}
    taken: set[int] = set()
    for v in iter_bits(anchor):
        s, t = c2.color_of(v), c1.color_of(v)
        if not s or not t:
            raise ValueError(f"anchor vertex {v} is not colored by both sides")
        if mapping.get(s, t) != t or (s not in mapping and t in taken):
            raise ValueError("anchor forces an inconsistent color permutation")
        mapping[s] = t
        taken.add(t)
    for s, m in enumerate(c2.classes, 1):
        if not m or s in mapping:
            continue
        t = 1
        while t in taken:
            t += 1
        mapping[s] = t
        taken.add(t)
    classes = [0] * max(taken, default=0)
    for s, t in mapping.items():
        classes[t - 1] = c2.classes[s - 1]
    return PartialColoring.of_classes(classes)


def bichromatic_component(
    g: Graph, c: PartialColoring, u: int, pair: tuple[int, int]
) -> int:
    """Component of u, as a mask, in the subgraph induced by the two colors
    of `pair`."""
    allowed = c.members(pair[0]) | c.members(pair[1])
    if not allowed >> u & 1:
        raise ValueError(f"vertex {u} does not carry a color from {pair}")
    return component_mask(g, 1 << u, allowed)


def apply_swap(
    c: PartialColoring, component: int, pair: tuple[int, int]
) -> PartialColoring:
    """Exchange the two colors of `pair` on the vertex mask `component`."""
    i, j = pair
    moved = component & (c.members(i) | c.members(j))
    if moved != component:
        stray = component & ~moved
        v = (stray & -stray).bit_length() - 1
        raise ValueError(f"vertex {v} carries color {c.color_of(v)}, not in {pair}")
    classes = c.classes + [0] * (max(i, j) - len(c.classes))
    if i != j:
        # the component leaves each class for the other
        classes[i - 1] ^= moved
        classes[j - 1] ^= moved
    return PartialColoring.of_classes(classes)


@dataclass(frozen=True)
class SwapCandidate:
    side: int  # 1 swaps the coloring of G minus R, 2 the coloring of G minus L
    seed: int
    pair: tuple[int, int]
    component: int  # the seed's two-colored component, as a mask
    coloring: PartialColoring  # the side's coloring after the swap


def _disagreement(c1: PartialColoring, c2: PartialColoring, within: int) -> int:
    """The vertices of `within`, as a mask, that c1 and c2 do not give one
    same color."""
    agree = 0
    for a, b in zip(c1.classes, c2.classes):
        agree |= a & b
    return within & ~agree


def _proper_after_swap(g: Graph, c: PartialColoring, moved: int) -> bool:
    """Whether c is proper, given that it was before the vertices of `moved`
    changed class: any new conflict is an edge from a moved vertex into its
    new class."""
    for m in c.classes:
        for v in iter_bits(moved & m):
            if g.mask(v) & m:
                return False
    return True


def _join(
    p: GoodPartition, c1: PartialColoring, c2: PartialColoring, k: int
) -> PartialColoring:
    """The union of a proper coloring of G minus R and one of G minus L.
    It is proper when the two agree on the cut, since L and R have no edges
    between them; anything less is an InternalViolation."""
    if _disagreement(c1, c2, p.k1 | p.k2 | p.k3):
        raise InternalViolation("the merged sides disagree on the cut")
    out = PartialColoring.of_classes(
        [a | b for a, b in zip_longest(c1.classes, c2.classes, fillvalue=0)]
    )
    if out.vertices() != p.k1 | p.k2 | p.k3 | p.l | p.r:
        raise InternalViolation("merged coloring misses vertices")
    if out.max_color() > k:
        raise InternalViolation(f"merged coloring exceeds {k} colors")
    return out


def find_reducing_swap(
    g: Graph,
    p: GoodPartition,
    c1: PartialColoring,
    c2: PartialColoring,
    bad: int,
) -> SwapCandidate | None:
    """First color swap that strictly shrinks the bad set `bad`, a vertex
    mask of K3, while leaving every K1 ∪ K2 color untouched.

    Order: each bad vertex u ascending, its own color pair, side 1 then 2.
    A candidate whose two-colored component touches K1 ∪ K2 is discarded
    outright; the rest are simulated and accepted only on strict
    improvement.  No other swap reduces (see the module docstring).  The
    candidate returned carries the component and the swapped coloring of
    its simulation.  Returns None when nothing reduces, which for a genuine
    square-free Berge input cannot happen.
    """
    k12m = p.k1 | p.k2
    base = bad.bit_count()
    for u in iter_bits(bad):
        a, b = c1.color_of(u), c2.color_of(u)
        pair = (min(a, b), max(a, b))
        for side, ch in ((1, c1), (2, c2)):
            comp = bichromatic_component(g, ch, u, pair)
            if comp & k12m:
                continue
            swapped = apply_swap(ch, comp, pair)
            x, y = (swapped, c2) if side == 1 else (c1, swapped)
            if _disagreement(x, y, p.k3).bit_count() < base:
                return SwapCandidate(side, u, pair, comp, swapped)
    return None


def merge_colorings(
    g: Graph,
    p: GoodPartition,
    c1: PartialColoring,
    c2: PartialColoring,
    k: int,
    trace=None,
) -> PartialColoring:
    """Combine a coloring of G minus R and one of G minus L into a proper
    coloring of G with at most k colors.

    `p` must be a verified good partition of G, the subgraph of g induced
    on the union of its five sets (all of g, or one decomposition piece),
    and c1/c2 proper colorings of their sides with at most k colors; the
    merge checks what its own steps change, not that.  `trace`, if given,
    is called with one dict per applied swap, in which `seed` is the swapped
    vertex's rank (from 0) among G's vertices, ascending, and `node_n` is
    G's vertex count; when G is all of g, the rank is the vertex itself.
    Raises BergeViolation when the swap search is exhausted with bad
    vertices left.
    """
    vall = p.k1 | p.k2 | p.k3 | p.l | p.r
    if c1.vertices() != vall & ~p.r:
        raise ValueError("c1 must color exactly G minus R")
    if c2.vertices() != vall & ~p.l:
        raise ValueError("c2 must color exactly G minus L")
    if max(c1.max_color(), c2.max_color()) > k:
        raise ValueError(f"input colorings exceed {k} colors")

    k12m = p.k1 | p.k2
    cur1, cur2 = c1, align_colorings(c1, c2, k12m)

    bad = _disagreement(cur1, cur2, p.k3)
    while bad:
        cand = find_reducing_swap(g, p, cur1, cur2, bad)
        if cand is None:
            raise BergeViolation(
                f"no swap reduces the bad set {bit_list(bad)}; "
                "the input cannot be square-free Berge"
            )
        if cand.side == 1:
            cur1 = cand.coloring
        else:
            cur2 = cand.coloring
        # a swap may never harm: still proper, anchor agreement intact,
        # strictly fewer bad vertices
        if not _proper_after_swap(g, cand.coloring, cand.component):
            raise InternalViolation("swap produced an improper side coloring")
        if _disagreement(cur1, cur2, k12m):
            raise InternalViolation("swap disturbed the K1 ∪ K2 agreement")
        before, bad = bad.bit_count(), _disagreement(cur1, cur2, p.k3)
        after = bad.bit_count()
        if after >= before:
            raise InternalViolation("accepted swap did not reduce the bad set")
        if trace is not None:
            trace(
                {
                    "event": "swap",
                    "side": cand.side,
                    "seed": (vall & ((1 << cand.seed) - 1)).bit_count(),
                    "pair": list(cand.pair),
                    # kept in the trace format; every swap is a bad vertex's own
                    "class": "free",
                    "bad_before": before,
                    "bad_after": after,
                    "node_n": vall.bit_count(),
                }
            )

    return _join(p, cur1, cur2, k)
