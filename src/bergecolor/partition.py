"""Good partitions: verification, frame enumeration, and frame refinement.

A good partition of G is a partition (K1, K2, K3, L, R) of the vertices with

  (i)   L and R nonempty and with no edges between them;
  (ii)  K1 ∪ K2 and K2 ∪ K3 cliques;
  (iii) after deleting all K1-K3 edges, every chordless path from K1 to K3
        whose interior lies in L contains an L-vertex complete to K1;
  (iv)  no K1-K3 edges at all, or no L-vertex with neighbors in both;
  (v)   some triad (three pairwise non-adjacent vertices) contains an
        L-vertex and an R-vertex.

Removing the cutset K1 ∪ K2 ∪ K3 then splits G into L and R, and colorings of
G minus R and G minus L can be merged back (see recolor).  The search works by
enumerating frames, coarse templates built from pairs of maximal cliques and a
non-adjacent anchor pair (x, y), and refining each frame by deleting vertices
from the working cutset until the partition conditions hold or the frame dies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InternalViolation, MalformedPartition, NotSquareFree
from .graphs import (
    Graph,
    bit_list,
    component_mask,
    iter_bits,
    mask_of,
    maximal_cliques_in,
)


@dataclass(frozen=True)
class GoodPartition:
    k1: frozenset[int]
    k2: frozenset[int]
    k3: frozenset[int]
    l: frozenset[int]
    r: frozenset[int]

    def sets(self) -> tuple[frozenset[int], ...]:
        return (self.k1, self.k2, self.k3, self.l, self.r)

    def to_json(self) -> dict:
        return {
            "K1": sorted(self.k1),
            "K2": sorted(self.k2),
            "K3": sorted(self.k3),
            "L": sorted(self.l),
            "R": sorted(self.r),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GoodPartition":
        try:
            fields = [obj[key] for key in ("K1", "K2", "K3", "L", "R")]
        except (KeyError, TypeError) as exc:
            raise MalformedPartition(f"partition JSON needs keys K1,K2,K3,L,R: {exc}")
        sets = []
        for name, field in zip(("K1", "K2", "K3", "L", "R"), fields):
            if not isinstance(field, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in field
            ):
                raise MalformedPartition(f"{name} must be a list of integers")
            sets.append(frozenset(field))
        return cls(*sets)


@dataclass(frozen=True)
class Frame:
    """A refinement template: two maximal cliques of G minus {x, y}, the
    anchors x, y (non-adjacent, sharing a triad), and anchor vertices C1, C3
    (at most one each) marking how deep into Q1\\Q3 and Q3\\Q1 to cut."""

    q1: tuple[int, ...]
    q3: tuple[int, ...]
    x: int
    y: int
    c1: frozenset[int]
    c3: frozenset[int]


@dataclass(frozen=True)
class PartitionVerdict:
    ok: bool
    condition: str | None = None  # "i".."v" on failure
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _partition_masks(g: Graph, p: GoodPartition) -> tuple[int, int, int, int, int]:
    masks = []
    total = 0
    count = 0
    for s in p.sets():
        for v in s:
            if not (0 <= v < g.n):
                raise MalformedPartition(f"vertex {v} out of range 0..{g.n - 1}")
        m = mask_of(s)
        masks.append(m)
        total |= m
        count += len(s)
    if count != g.n or total != g.full_mask:
        if count > total.bit_count():
            raise MalformedPartition("some vertex appears in two sets")
        missing = g.full_mask & ~total
        if missing:
            v = (missing & -missing).bit_length() - 1
            raise MalformedPartition(f"vertex {v} is in no set")
        raise MalformedPartition("sets do not partition the vertex set")
    return tuple(masks)


def _clique_defect(g: Graph, m: int) -> tuple[int, int] | None:
    """First non-adjacent pair inside the vertex set `m`, or None if clique."""
    for v in iter_bits(m):
        above = m & ~((1 << (v + 1)) - 1)
        miss = above & ~g.mask(v)
        if miss:
            return (v, (miss & -miss).bit_length() - 1)
    return None


def _violating_path(g: Graph, k1m: int, k3m: int, lm: int) -> tuple[int, ...] | None:
    """Shortest chordless path breaking condition (iii), or None.

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


def _both_sides_vertex(g: Graph, k1m: int, k3m: int, lm: int) -> int | None:
    """Condition (iv) witness: lowest L-vertex with neighbors in K1 and K3,
    but only when a K1-K3 edge exists (otherwise (iv) holds vacuously)."""
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


def verify_good_partition(g: Graph, p: GoodPartition) -> PartitionVerdict:
    """Check conditions (i)-(v); report the first violated one with a witness.

    Raises MalformedPartition when the five sets fail to partition V(G).
    """
    k1m, k2m, k3m, lm, rm = _partition_masks(g, p)

    if lm == 0:
        return PartitionVerdict(False, "i", ("L empty",))
    if rm == 0:
        return PartitionVerdict(False, "i", ("R empty",))
    for v in iter_bits(lm):
        hit = g.mask(v) & rm
        if hit:
            return PartitionVerdict(False, "i", (v, (hit & -hit).bit_length() - 1))

    for m in (k1m | k2m, k2m | k3m):
        defect = _clique_defect(g, m)
        if defect:
            return PartitionVerdict(False, "ii", defect)

    path = _violating_path(g, k1m, k3m, lm)
    if path is not None:
        return PartitionVerdict(False, "iii", path)

    u = _both_sides_vertex(g, k1m, k3m, lm)
    if u is not None:
        return PartitionVerdict(False, "iv", (u,))

    full = g.full_mask
    for x in iter_bits(lm):
        nx = g.mask(x)
        for y in iter_bits(rm & ~nx):
            zs = full & ~nx & ~g.mask(y) & ~(1 << x) & ~(1 << y)
            if zs:
                return PartitionVerdict(True)
    return PartitionVerdict(False, "v", None)


def _separate(g: Graph, cut: int, x: int, y: int) -> tuple[int, int] | None:
    rest = g.full_mask & ~cut
    lmask = component_mask(g, x, rest)
    if (lmask >> y) & 1:
        return None
    return lmask, rest & ~lmask


def nested_order(g: Graph, members, others) -> list[int]:
    """Order `members` by decreasing neighborhood inside `others`, ties by
    ascending id.  Both sets must be cliques; then neighborhoods are totally
    ordered by inclusion unless the graph contains a square, in which case
    NotSquareFree is raised with the offending 4-cycle.
    """
    om = mask_of(others)
    items = sorted(
        members, key=lambda v: (-(g.mask(v) & om).bit_count(), v)
    )
    prev = None
    prev_nb = 0
    for v in items:
        nb = g.mask(v) & om
        if prev is not None and nb & ~prev_nb:
            gain = nb & ~prev_nb
            lost = prev_nb & ~nb
            b_new = (gain & -gain).bit_length() - 1
            b_old = (lost & -lost).bit_length() - 1
            raise NotSquareFree(
                "neighborhoods are not nested, so the graph has a square",
                witness=(prev, b_old, b_new, v),
            )
        prev, prev_nb = v, nb
    return items


def _truncated_side(g: Graph, side: int, other: int, c: frozenset[int]) -> int:
    """Step-1 cut: empty when C is empty, else keep the anchor vertex and
    everything at or below it in the nested ordering of the side."""
    if not c:
        return 0
    cv = min(c)
    keep = 0
    seen = False
    for v in nested_order(g, bit_list(side), bit_list(other)):
        if v == cv:
            seen = True
        if seen:
            keep |= 1 << v
    if not seen:
        raise ValueError(f"anchor {cv} is not in its frame side")
    return keep


def _emit(g: Graph, k1m: int, k2m: int, k3m: int, lm: int, rm: int) -> GoodPartition:
    cand = GoodPartition(
        k1=frozenset(iter_bits(k1m)),
        k2=frozenset(iter_bits(k2m)),
        k3=frozenset(iter_bits(k3m)),
        l=frozenset(iter_bits(lm)),
        r=frozenset(iter_bits(rm)),
    )
    verdict = verify_good_partition(g, cand)
    if not verdict:
        raise InternalViolation(
            f"refinement emitted a bad partition: condition {verdict.condition}, "
            f"witness {verdict.witness}"
        )
    return cand


def refine_frame(g: Graph, frame: Frame) -> GoodPartition | None:
    """Drive one frame to a good partition or to failure.

    Step 1 cuts each side of the frame down to its anchored tail and drops
    sides with no anchor.  Then two repair loops alternate: condition (iii)
    violations shrink K'1 around the last interior vertex of a shortest
    violating path, condition (iv) violations shrink K'3 away from the
    neighborhood of an L-vertex seeing both sides.  Every repair strictly
    shrinks the working cutset, and every change reruns the connectivity
    split; the frame dies the moment x and y fall into one component.
    The partition returned has been verified; a verification failure here
    means a bug, not bad input, and raises InternalViolation.
    """
    q1m, q3m = mask_of(frame.q1), mask_of(frame.q3)
    x, y = frame.x, frame.y
    k2m = q1m & q3m
    k1m = _truncated_side(g, q1m & ~q3m, q3m & ~q1m, frame.c1)
    k3m = _truncated_side(g, q3m & ~q1m, q1m & ~q3m, frame.c3)

    sep = _separate(g, k1m | k2m | k3m, x, y)
    if sep is None:
        return None
    lm, rm = sep
    if k1m == 0 or k3m == 0:
        return _emit(g, k1m, k2m, k3m, lm, rm)

    c1v = min(frame.c1)
    budget = k1m.bit_count() + k3m.bit_count()
    repairs = 0
    while True:
        # condition (iii) repairs
        while True:
            path = _violating_path(g, k1m, k3m, lm)
            if path is None:
                break
            vp = path[-2]
            nv = g.mask(vp)
            new_k1 = k1m & nv if (nv >> c1v) & 1 else k1m & ~nv
            if new_k1 == k1m or not (new_k1 >> c1v) & 1:
                raise InternalViolation("condition (iii) repair did not shrink K'1")
            k1m = new_k1
            repairs += 1
            if repairs > budget:
                raise InternalViolation("refinement exceeded its shrink budget")
            sep = _separate(g, k1m | k2m | k3m, x, y)
            if sep is None:
                return None
            lm, rm = sep

        # condition (iv) repairs; any shrink can enlarge L', so recheck (iii)
        u = _both_sides_vertex(g, k1m, k3m, lm)
        if u is None:
            return _emit(g, k1m, k2m, k3m, lm, rm)
        new_k3 = k3m & ~g.mask(u)
        if new_k3 == k3m:
            raise InternalViolation("condition (iv) repair did not shrink K'3")
        k3m = new_k3
        repairs += 1
        if repairs > budget:
            raise InternalViolation("refinement exceeded its shrink budget")
        sep = _separate(g, k1m | k2m | k3m, x, y)
        if sep is None:
            return None
        lm, rm = sep


def _anchored_pairs(g: Graph) -> Iterator[tuple[int, int]]:
    """Ordered pairs (x, y) of distinct non-adjacent vertices sharing a triad."""
    full = g.full_mask
    for x in range(g.n):
        nx = g.mask(x)
        for y in range(g.n):
            if y == x or (nx >> y) & 1:
                continue
            if full & ~nx & ~g.mask(y) & ~(1 << x) & ~(1 << y):
                yield (x, y)


def _frame_bases(g: Graph) -> Iterator[tuple[int, int, list[tuple[int, ...]]]]:
    cache: dict[frozenset[int], list[tuple[int, ...]]] = {}
    full = g.full_mask
    for x, y in _anchored_pairs(g):
        key = frozenset((x, y))
        cliques = cache.get(key)
        if cliques is None:
            cliques = maximal_cliques_in(g, full & ~(1 << x) & ~(1 << y))
            cache[key] = cliques
        yield x, y, cliques


def _frame_choices(
    q1: tuple[int, ...], q3: tuple[int, ...]
) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    side1 = sorted(set(q1) - set(q3))
    side3 = sorted(set(q3) - set(q1))
    c1s = [frozenset()] + [frozenset((v,)) for v in side1]
    c3s = [frozenset()] + [frozenset((v,)) for v in side3]
    for c1 in c1s:
        for c3 in c3s:
            yield c1, c3


def enumerate_frames(g: Graph) -> Iterator[Frame]:
    """All frames in canonical order: anchors (x, y) ascending, then both
    cliques in lexicographic order, then anchor choices (none first)."""
    for x, y, cliques in _frame_bases(g):
        for q1 in cliques:
            for q3 in cliques:
                for c1, c3 in _frame_choices(q1, q3):
                    yield Frame(q1=q1, q3=q3, x=x, y=y, c1=c1, c3=c3)


def find_good_partition(
    g: Graph, stats: dict | None = None
) -> GoodPartition | None:
    """First good partition reachable by refining frames in canonical order.

    Complete: if the graph has any good partition, some frame refines to one.
    One sound shortcut keeps the scan fast: when the union of the two cliques
    already fails to separate x from y, no refinement of any anchor choice can
    succeed (refined cutsets only shrink), so those frames are skipped; the
    result is the same partition the unpruned scan would return.  `stats`,
    if given, accumulates counters under keys "frames_tried" and
    "frames_pruned".
    """
    tried = 0
    pruned = 0
    found = None
    for x, y, cliques in _frame_bases(g):
        masks = [mask_of(c) for c in cliques]
        union_ok: dict[int, bool] = {}
        for q1, q1m in zip(cliques, masks):
            for q3, q3m in zip(cliques, masks):
                um = q1m | q3m
                ok = union_ok.get(um)
                if ok is None:
                    ok = _separate(g, um, x, y) is not None
                    union_ok[um] = ok
                if not ok:
                    n1 = len(set(q1) - set(q3))
                    n3 = len(set(q3) - set(q1))
                    pruned += (n1 + 1) * (n3 + 1)
                    continue
                for c1, c3 in _frame_choices(q1, q3):
                    tried += 1
                    gp = refine_frame(g, Frame(q1=q1, q3=q3, x=x, y=y, c1=c1, c3=c3))
                    if gp is not None:
                        found = gp
                        break
                if found:
                    break
            if found:
                break
        if found:
            break
    if stats is not None:
        stats["frames_tried"] = stats.get("frames_tried", 0) + tried
        stats["frames_pruned"] = stats.get("frames_pruned", 0) + pruned
    return found
