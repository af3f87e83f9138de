"""Merging two partial colorings across a good partition.

G minus R and G minus L overlap exactly on the cutset K1 ∪ K2 ∪ K3.  After
permuting one palette so both colorings agree on the clique K1 ∪ K2, the only
disagreements left sit in K3 (the bad set).  Swapping a color pair on a
two-colored component that stays clear of K1 ∪ K2 never breaks the agreement,
and for square-free Berge inputs some such swap always shrinks the bad set,
so the loop below terminates with a proper coloring of all of G.  Running out
of reducing swaps is therefore a proof that the input was not square-free
Berge, reported as BergeViolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BergeViolation, InternalViolation
from .graphs import Graph, component_mask, iter_bits, mask_of
from .partition import GoodPartition


@dataclass
class PartialColoring:
    """A map from some of a graph's vertices to colors 1, 2, ...  Treat as
    immutable; all operations hand back fresh instances."""

    colors: dict[int, int] = field(default_factory=dict)

    def domain(self) -> frozenset[int]:
        return frozenset(self.colors)

    def max_color(self) -> int:
        return max(self.colors.values(), default=0)

    def colors_used(self) -> int:
        return len(set(self.colors.values()))

    def is_proper_on(self, g: Graph) -> bool:
        dom = mask_of(self.colors)
        for v, cv in self.colors.items():
            for w in iter_bits(g.mask(v) & dom):
                if w > v and self.colors[w] == cv:
                    return False
        return True


def coloring_to_lines(c: PartialColoring) -> str:
    """DIMACS-solution-style text, one `v <vertex> <color>` line, 1-based."""
    return "".join(f"v {v + 1} {c.colors[v]}\n" for v in sorted(c.colors))


def parse_coloring_lines(text: str) -> PartialColoring:
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
    return PartialColoring(colors)


def coloring_to_json(c: PartialColoring) -> dict:
    return {
        "schema": "bergecolor-coloring/1",
        "colors": [[v, c.colors[v]] for v in sorted(c.colors)],
    }


def coloring_from_json(obj: dict) -> PartialColoring:
    colors: dict[int, int] = {}
    try:
        for v, col in obj["colors"]:
            if colors.setdefault(int(v), int(col)) != int(col):
                raise ValueError(f"vertex {v} has two colors")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f'coloring JSON needs "colors" as [vertex, color] pairs: {exc}')
    return PartialColoring(colors)


def align_colorings(c1: PartialColoring, c2: PartialColoring, anchor) -> PartialColoring:
    """Permute c2's palette so it matches c1 on `anchor` (a clique colored by
    both).  The forced part of the permutation is extended color by color,
    ascending, each mapping to the smallest free target, so the result is
    deterministic."""
    mapping: dict[int, int] = {}
    taken: set[int] = set()
    for v in sorted(anchor):
        if v not in c1.colors or v not in c2.colors:
            raise ValueError(f"anchor vertex {v} is not colored by both sides")
        s, t = c2.colors[v], c1.colors[v]
        if mapping.get(s, t) != t or (s not in mapping and t in taken):
            raise ValueError("anchor forces an inconsistent color permutation")
        mapping[s] = t
        taken.add(t)
    for s in sorted(set(c2.colors.values())):
        if s in mapping:
            continue
        t = 1
        while t in taken:
            t += 1
        mapping[s] = t
        taken.add(t)
    return PartialColoring({v: mapping[col] for v, col in c2.colors.items()})


def _bicomp_mask(g: Graph, c: PartialColoring, u: int, pair: tuple[int, int]) -> int:
    allowed = 0
    for v, col in c.colors.items():
        if col == pair[0] or col == pair[1]:
            allowed |= 1 << v
    return component_mask(g, u, allowed)


def bichromatic_component(
    g: Graph, c: PartialColoring, u: int, pair: tuple[int, int]
) -> frozenset[int]:
    """Component of u in the subgraph induced by the two colors of `pair`."""
    if c.colors.get(u) not in pair:
        raise ValueError(f"vertex {u} does not carry a color from {pair}")
    return frozenset(iter_bits(_bicomp_mask(g, c, u, pair)))


def apply_swap(
    c: PartialColoring, component, pair: tuple[int, int]
) -> PartialColoring:
    """Exchange the two colors of `pair` on `component`."""
    i, j = pair
    out = dict(c.colors)
    for v in component:
        col = out[v]
        if col == i:
            out[v] = j
        elif col == j:
            out[v] = i
        else:
            raise ValueError(f"vertex {v} carries color {col}, not in {pair}")
    return PartialColoring(out)


@dataclass(frozen=True)
class SwapCandidate:
    side: int  # 1 swaps the coloring of G minus R, 2 the coloring of G minus L
    seed: int
    pair: tuple[int, int]
    cls: str = "general"  # "free" when found in the free-vertex phase


def _bad_vertices(p: GoodPartition, c1: PartialColoring, c2: PartialColoring) -> list[int]:
    return sorted(u for u in p.k3 if c1.colors[u] != c2.colors[u])


def find_reducing_swap(
    g: Graph,
    p: GoodPartition,
    c1: PartialColoring,
    c2: PartialColoring,
    bad: list[int],
) -> SwapCandidate | None:
    """First color swap, in a fixed search order, that strictly shrinks the
    bad set while leaving every K1 ∪ K2 color untouched.

    Order: free candidates first (each bad vertex ascending, its own color
    pair, side 1 then 2), then every (side, seed in K3, color pair containing
    the seed's color) lexicographically.  Candidates whose two-colored
    component touches K1 ∪ K2 are discarded outright; the rest are simulated
    and accepted only on strict improvement.  Returns None when nothing
    reduces, which for a genuine square-free Berge input cannot happen.
    """
    k12m = mask_of(p.k1) | mask_of(p.k2)
    base = len(bad)
    sides = {1: c1, 2: c2}

    def reduces(side: int, seed: int, pair: tuple[int, int]) -> bool:
        ch = sides[side]
        comp = _bicomp_mask(g, ch, seed, pair)
        if comp & k12m:
            return False
        swapped = apply_swap(ch, iter_bits(comp), pair)
        a, b = (swapped, c2) if side == 1 else (c1, swapped)
        return len(_bad_vertices(p, a, b)) < base

    for u in bad:
        pair = (min(c1.colors[u], c2.colors[u]), max(c1.colors[u], c2.colors[u]))
        for side in (1, 2):
            if reduces(side, u, pair):
                return SwapCandidate(side, u, pair, cls="free")

    palette = max(c1.max_color(), c2.max_color())
    seeds = sorted(p.k3)
    for side in (1, 2):
        ch = sides[side]
        for seed in seeds:
            sc = ch.colors[seed]
            for i in range(1, palette + 1):
                for j in range(i + 1, palette + 1):
                    if sc != i and sc != j:
                        continue
                    if reduces(side, seed, (i, j)):
                        return SwapCandidate(side, seed, (i, j))
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

    `p` must be a verified good partition of g, c1/c2 proper colorings of
    their sides with at most k colors.  `trace`, if given, is called with one
    dict per applied swap.  Raises BergeViolation when the swap search is
    exhausted with bad vertices left.
    """
    vall = frozenset(range(g.n))
    if c1.domain() != vall - p.r:
        raise ValueError("c1 must color exactly G minus R")
    if c2.domain() != vall - p.l:
        raise ValueError("c2 must color exactly G minus L")
    if max(c1.max_color(), c2.max_color()) > k:
        raise ValueError(f"input colorings exceed {k} colors")

    anchor = sorted(p.k1 | p.k2)
    cur1, cur2 = c1, align_colorings(c1, c2, anchor)

    while True:
        bad = _bad_vertices(p, cur1, cur2)
        if not bad:
            break
        cand = find_reducing_swap(g, p, cur1, cur2, bad)
        if cand is None:
            raise BergeViolation(
                f"no swap reduces the bad set {bad}; "
                "the input cannot be square-free Berge"
            )
        ch = cur1 if cand.side == 1 else cur2
        comp = bichromatic_component(g, ch, cand.seed, cand.pair)
        swapped = apply_swap(ch, comp, cand.pair)
        if cand.side == 1:
            cur1 = swapped
        else:
            cur2 = swapped
        # a swap may never harm: still proper, anchor agreement intact,
        # strictly fewer bad vertices
        if not swapped.is_proper_on(g):
            raise InternalViolation("swap produced an improper side coloring")
        if any(cur1.colors[v] != cur2.colors[v] for v in anchor):
            raise InternalViolation("swap disturbed the K1 ∪ K2 agreement")
        new_bad = _bad_vertices(p, cur1, cur2)
        if len(new_bad) >= len(bad):
            raise InternalViolation("accepted swap did not reduce the bad set")
        if trace is not None:
            trace(
                {
                    "event": "swap",
                    "side": cand.side,
                    "seed": cand.seed,
                    "pair": list(cand.pair),
                    "class": cand.cls,
                    "bad_before": len(bad),
                    "bad_after": len(new_bad),
                }
            )

    merged = dict(cur2.colors)
    merged.update(cur1.colors)
    out = PartialColoring(merged)
    if out.domain() != vall:
        raise InternalViolation("merged coloring misses vertices")
    if not out.is_proper_on(g):
        raise InternalViolation("merged coloring is improper")
    if out.max_color() > k:
        raise InternalViolation(f"merged coloring exceeds {k} colors")
    return out
