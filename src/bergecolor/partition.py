"""Good partitions: verification, frame refinement, and the search.

A good partition of G is a partition (K1, K2, K3, L, R) of the vertices with

  (i)   L and R nonempty and with no edges between them;
  (ii)  K1 ∪ K2 and K2 ∪ K3 cliques;
  (iii) after deleting all K1-K3 edges, every chordless path from K1 to K3
        whose interior lies in L contains an L-vertex complete to K1;
  (iv)  no K1-K3 edges at all, or no L-vertex with neighbors in both;
  (v)   some triad (three pairwise non-adjacent vertices) contains an
        L-vertex and an R-vertex.

Removing the cutset K1 ∪ K2 ∪ K3 then splits G into L and R, and colorings of
G minus R and G minus L can be merged back (see recolor).  The search first
looks for a single vertex to split off, L = {x}.  Only when none qualifies
does it enumerate frames, coarse templates built from pairs of maximal
cliques and a non-adjacent anchor pair (x, y), and refine each frame by
deleting vertices from the working cutset until the partition conditions
hold or the frame dies.

Every vertex set here is a mask: an int with bit v set for vertex v.  Sorted
vertex lists appear only in the JSON form of a partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import (
    InternalViolation,
    MalformedPartition,
    NotSquareFree,
    PartitionParseError,
)
from .graphs import (
    Graph,
    bit_list,
    cliques_within,
    component_mask,
    iter_bits,
    mask_of,
    maximal_cliques_in,
)


_KEYS = ("K1", "K2", "K3", "L", "R")


@dataclass(frozen=True)
class GoodPartition:
    """The five sets (K1, K2, K3, L, R), each a vertex mask."""

    k1: int
    k2: int
    k3: int
    l: int
    r: int
    # the triad, ascending, that the search's verification found for
    # condition (v); None when the partition was not found by the search
    triad: tuple[int, int, int] | None = field(default=None, compare=False)

    def sets(self) -> tuple[int, int, int, int, int]:
        return (self.k1, self.k2, self.k3, self.l, self.r)

    def to_json(self) -> dict:
        return {key: bit_list(m) for key, m in zip(_KEYS, self.sets())}

    @classmethod
    def from_json(cls, obj: dict, n: int) -> "GoodPartition":
        """The partition a JSON object lists, for a graph on vertices
        0..n-1.  Anything but an object whose five keys hold lists of
        integers raises PartitionParseError.  A vertex outside the range is
        rejected, as MalformedPartition, before it is shifted into a mask,
        so a huge one costs no memory."""
        try:
            fields = [obj[key] for key in _KEYS]
        except (KeyError, TypeError) as exc:
            raise PartitionParseError(f"partition JSON needs keys K1,K2,K3,L,R: {exc}")
        masks = []
        for name, members in zip(_KEYS, fields):
            if not isinstance(members, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in members
            ):
                raise PartitionParseError(f"{name} must be a list of integers")
            for v in members:
                if not 0 <= v < n:
                    raise MalformedPartition(f"vertex {v} out of range 0..{n - 1}")
            masks.append(mask_of(members))
        return cls(*masks)


@dataclass(frozen=True)
class Frame:
    """A refinement template: two maximal cliques Q1, Q3 of G minus {x, y}
    as masks, the anchors x, y (non-adjacent, sharing a triad), and anchor
    vertices C1 in Q1\\Q3 and C3 in Q3\\Q1, or None, marking how deep into
    each side to cut."""

    q1: int
    q3: int
    x: int
    y: int
    c1: int | None
    c3: int | None


@dataclass(frozen=True)
class PartitionVerdict:
    ok: bool
    condition: str | None = None  # "i".."v" on failure
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok


def _partition_masks(g: Graph, p: GoodPartition) -> tuple[int, int, int, int, int]:
    """The five masks, checked to partition V(G)."""
    masks = p.sets()
    total = p.k1 | p.k2 | p.k3 | p.l | p.r
    extra = total & ~g.full_mask
    if extra:
        v = (extra & -extra).bit_length() - 1
        raise MalformedPartition(f"vertex {v} out of range 0..{g.n - 1}")
    if sum(m.bit_count() for m in masks) > total.bit_count():
        raise MalformedPartition("some vertex appears in two sets")
    missing = g.full_mask & ~total
    if missing:
        v = (missing & -missing).bit_length() - 1
        raise MalformedPartition(f"vertex {v} is in no set")
    return masks


def _clique_defect(g: Graph, m: int) -> tuple[int, int] | None:
    """First non-adjacent pair inside the vertex set `m`, or None if clique."""
    for v in iter_bits(m):
        above = m & ~((1 << (v + 1)) - 1)
        miss = above & ~g.mask(v)
        if miss:
            return (v, (miss & -miss).bit_length() - 1)
    return None


def _neighbourhood(g: Graph, s: int) -> int:
    """The vertices with a neighbour in the mask `s`."""
    masks = g._masks
    out = 0
    for v in iter_bits(s):
        out |= masks[v]
    return out


def _violating_path(g: Graph, k1m: int, k3m: int, lm: int) -> tuple[int, ...] | None:
    """Shortest chordless path breaking condition (iii), or None.

    Returns (u, p1, ..., pt, v) with u in K3, v in K1, interior in L, no
    interior vertex complete to K1, chordless once K1-K3 edges are ignored.
    Search: restrict L to L'' (drop K1-complete vertices), and run one BFS
    by layers in L'' from all of {has a K3-neighbor}, stopping at the first
    layer that meets {has a K1-neighbor}.  The interior ends at the lowest
    vertex there and is walked back through the layers (`_walk_back`); any
    shortest L''-path plus its endpoint attachments is automatically
    chordless.

    L'' and the two end sets come from three masks over the cut, not from a
    look at each vertex of L: the union of K1's neighbourhoods, their
    intersection (the vertices complete to K1) and the union of K3's.
    """
    if k1m == 0 or k3m == 0:
        return None
    masks = g._masks
    nk1 = 0
    complete = -1
    for a in iter_bits(k1m):
        nk1 |= masks[a]
        complete &= masks[a]
    l2 = lm & ~complete
    start = l2 & _neighbourhood(g, k3m)
    bad = l2 & nk1
    if start == 0 or bad == 0:
        return None
    layers: list[int] = []
    component_mask(g, start, l2, bad, layers)
    hit = layers[-1] & bad
    if not hit:
        return None
    hit &= -hit
    on_path = hit | _walk_back(g, layers[:-1], hit.bit_length() - 1)
    interior = [(layer & on_path).bit_length() - 1 for layer in layers]

    first_k3 = masks[interior[0]] & k3m
    last_k1 = masks[interior[-1]] & k1m
    u = (first_k3 & -first_k3).bit_length() - 1
    v = (last_k1 & -last_k1).bit_length() - 1
    return (u, *interior, v)


def _both_sides_vertex(g: Graph, k1m: int, k3m: int, lm: int) -> int | None:
    """Condition (iv) witness: lowest L-vertex with neighbors in K1 and K3,
    but only when a K1-K3 edge exists (otherwise (iv) holds vacuously)."""
    nk1 = _neighbourhood(g, k1m)
    if not nk1 & k3m:
        return None
    both = lm & nk1 & _neighbourhood(g, k3m)
    if not both:
        return None
    return (both & -both).bit_length() - 1


def verify_good_partition(g: Graph, p: GoodPartition) -> PartitionVerdict:
    """Check conditions (i)-(v); report the first violated one with a witness.
    A passing verdict's witness is the triad, ascending, that satisfies (v).

    Raises MalformedPartition when the five sets fail to partition V(G).
    """
    return _verify_masks(g, _partition_masks(g, p), g.full_mask)


def _verify_masks(
    g: Graph, masks: tuple[int, int, int, int, int], within: int
) -> PartitionVerdict:
    """`verify_good_partition` for the five sets given as masks that
    partition `within`, checked as a partition of the subgraph induced on
    it; the triad of condition (v) is sought inside `within`.  It is the
    lowest x of L, then the lowest y of R with a z, then the lowest z, and
    a passing verdict carries it, ascending, as its witness."""
    k1m, k2m, k3m, lm, rm = masks
    verdict = _condition_i(g, lm, rm)
    if verdict is None:
        verdict = _condition_ii(g, k1m, k2m, k3m)
    if verdict is None:
        verdict = _conditions_iii_to_v(g, k1m, k3m, lm, rm, within)
    return verdict


def _condition_i(g: Graph, lm: int, rm: int) -> PartitionVerdict | None:
    """The failing verdict of condition (i), or None when it holds: L and R
    are nonempty, with no edge between them."""
    if lm == 0:
        return PartitionVerdict(False, "i", ("L empty",))
    if rm == 0:
        return PartitionVerdict(False, "i", ("R empty",))
    for v in iter_bits(lm):
        hit = g.mask(v) & rm
        if hit:
            return PartitionVerdict(False, "i", (v, (hit & -hit).bit_length() - 1))
    return None


def _condition_ii(g: Graph, k1m: int, k2m: int, k3m: int) -> PartitionVerdict | None:
    """The failing verdict of condition (ii), or None when it holds: K1 ∪ K2
    and K2 ∪ K3 are cliques."""
    for m in (k1m | k2m, k2m | k3m):
        defect = _clique_defect(g, m)
        if defect:
            return PartitionVerdict(False, "ii", defect)
    return None


def _conditions_iii_to_v(
    g: Graph, k1m: int, k3m: int, lm: int, rm: int, within: int
) -> PartitionVerdict:
    """`_verify_masks` once (i) and (ii) hold: the verdict of (iii), (iv)
    and (v), in that order."""
    path = _violating_path(g, k1m, k3m, lm)
    if path is not None:
        return PartitionVerdict(False, "iii", path)

    u = _both_sides_vertex(g, k1m, k3m, lm)
    if u is not None:
        return PartitionVerdict(False, "iv", (u,))

    for x in iter_bits(lm):
        nx = g.mask(x)
        for y in iter_bits(rm & ~nx):
            zs = within & ~nx & ~g.mask(y) & ~(1 << x) & ~(1 << y)
            if zs:
                z = (zs & -zs).bit_length() - 1
                return PartitionVerdict(True, witness=tuple(sorted((x, y, z))))
    return PartitionVerdict(False, "v", None)


def _walk_back(g: Graph, layers: list[int], t: int) -> int:
    """One vertex of each BFS layer in `layers`, as a mask: walking back
    from vertex t, which lies in the layer after the last, each step goes to
    the lowest-id neighbour, in the layer before, of the vertex reached."""
    masks = g._masks
    out = 0
    for layer in reversed(layers):
        back = layer & masks[t]
        back &= -back
        out |= back
        t = back.bit_length() - 1
    return out


def _separate(
    g: Graph, cut: int, x: int, y: int, paths: list[int], within: int
) -> tuple[int, int] | None:
    """(x's component, the rest) of G - cut, or None when x and y are
    connected there; G is the subgraph induced on `within`.  `paths` lists
    interiors of x-y paths as masks: a cut that misses one of them leaves x
    and y connected, and is answered without a BFS.

    Otherwise one BFS from x answers: it stops at the first layer that
    reaches y, so a connected x and y cost only the layers up to y's.  Its
    layers between x's and y's then yield the interior of a shortest x-y
    path of G - cut (`_walk_back` from y), which is appended to `paths`."""
    for pm in paths:
        if not cut & pm:
            return None
    rest = within & ~cut
    ybit = 1 << y
    layers: list[int] = []
    lmask = component_mask(g, 1 << x, rest, ybit, layers)
    if lmask & ybit:
        paths.append(_walk_back(g, layers[1:-1], y))
        return None
    return lmask, rest & ~lmask


def nested_order(g: Graph, members: int, others: int) -> list[int]:
    """The vertices of the mask `members`, ordered by decreasing
    neighborhood inside the mask `others`, ties by ascending id.  Both sets
    must be cliques; then neighborhoods are totally ordered by inclusion
    unless the graph contains a square, in which case NotSquareFree is
    raised with the offending 4-cycle.
    """
    items = sorted(
        iter_bits(members), key=lambda v: (-(g.mask(v) & others).bit_count(), v)
    )
    prev = None
    prev_nb = 0
    for v in items:
        nb = g.mask(v) & others
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


def _truncated_side(g: Graph, side: int, other: int, cv: int | None) -> int:
    """Step-1 cut: empty when there is no anchor, else keep the anchor
    vertex `cv` and everything at or below it in the nested ordering of the
    side."""
    if cv is None:
        return 0
    if not (side >> cv) & 1:
        raise ValueError(f"anchor {cv} is not in its frame side")
    order = nested_order(g, side, other)
    return mask_of(order[order.index(cv):])


def refine_frame(
    g: Graph,
    frame: Frame,
    paths: list[int] | None = None,
    *,
    within: int | None = None,
) -> GoodPartition | None:
    """Drive one frame to a good partition or to failure, in the subgraph
    induced on `within` (all of g by default), whose vertices the frame's
    cliques and anchors must be.

    Step 1 cuts each side of the frame down to its anchored tail and drops
    sides with no anchor.  Then each turn of one loop separates, verifies,
    and returns or repairs.  The connectivity split kills the frame the
    moment x and y fall into one component; otherwise the five sets go to
    the verifier's checks of conditions (iii)-(v).  A passing verdict is
    returned, and a failing one is repaired by what it names: a condition
    (iii) path shrinks K'1 around its last interior vertex, and a condition
    (iv) vertex, an L-vertex seeing both sides, shrinks K'3 away from its
    neighborhood.  With K'1 or K'3 empty neither condition can fail.  Every
    repair strictly shrinks the working cutset.
    `paths`, if given, is the search's list of x-y path interiors (see
    `_separate`): a cutset that misses one of them kills the frame without
    a BFS, and each BFS that finds x and y connected adds one.
    Condition (ii) is checked on the first turn only, since repairs only
    shrink K'1 and K'3, and condition (i) only on a passing partition,
    since L is a whole component of the piece minus the cutset and R the
    rest; so the partition returned is one the whole verifier would pass.
    It carries its (v) triad.  Any other failing condition means a bug,
    not bad input, and raises InternalViolation; so does a frame whose Q1
    or Q3 is not a clique, at the first turn.
    """
    if within is None:
        within = g.full_mask
    if paths is None:
        paths = []
    q1m, q3m = frame.q1, frame.q3
    x, y = frame.x, frame.y
    c1v = frame.c1
    k2m = q1m & q3m
    k1m = _truncated_side(g, q1m & ~q3m, q3m & ~q1m, c1v)
    k3m = _truncated_side(g, q3m & ~q1m, q1m & ~q3m, frame.c3)

    budget = k1m.bit_count() + k3m.bit_count()
    repairs = 0
    while True:
        sep = _separate(g, k1m | k2m | k3m, x, y, paths, within)
        if sep is None:
            return None
        lm, rm = sep
        verdict = _condition_ii(g, k1m, k2m, k3m) if repairs == 0 else None
        if verdict is None:
            verdict = _conditions_iii_to_v(g, k1m, k3m, lm, rm, within)
        if verdict:
            failed = _condition_i(g, lm, rm)
            if failed is None:
                return GoodPartition(k1m, k2m, k3m, lm, rm, triad=verdict.witness)
            verdict = failed
        if verdict.condition == "iii":
            nv = g.mask(verdict.witness[-2])
            new_k1 = k1m & nv if (nv >> c1v) & 1 else k1m & ~nv
            if new_k1 == k1m or not (new_k1 >> c1v) & 1:
                raise InternalViolation("condition (iii) repair did not shrink K'1")
            k1m = new_k1
        elif verdict.condition == "iv":
            # any shrink of K'3 can enlarge L', so (iii) is tested again
            new_k3 = k3m & ~g.mask(verdict.witness[0])
            if new_k3 == k3m:
                raise InternalViolation("condition (iv) repair did not shrink K'3")
            k3m = new_k3
        else:
            raise InternalViolation(
                f"refinement emitted a bad partition: condition {verdict.condition}, "
                f"witness {verdict.witness}"
            )
        repairs += 1
        if repairs > budget:
            raise InternalViolation("refinement exceeded its shrink budget")


def _anchored_pairs(g: Graph, within: int) -> Iterator[tuple[int, int]]:
    """Ordered pairs (x, y) of distinct non-adjacent vertices of `within`
    sharing a triad there, in lexicographic order.  Each row's candidates
    y are the bits of one mask, walked lazily."""
    masks = g._masks
    for x in iter_bits(within):
        far = within & ~masks[x] & ~(1 << x)
        for y in iter_bits(far):
            if far & ~masks[y] & ~(1 << y):
                yield (x, y)


def _disjoint_paths(g: Graph, x: int, y: int, within: int) -> list[int]:
    """Internally disjoint x-y paths in the subgraph induced on `within`,
    as the interiors, masks, that separation tests learn: each test cuts
    the interiors found so far and, while x and y stay connected, learns a
    shortest x-y path avoiding them, until the cut separates x from y.  x
    and y must be distinct and non-adjacent, so no interior is empty.
    Every x-y path leaves x and enters y through a neighbour, so once the
    interiors cover all of x's or all of y's neighbours the search stops
    without a BFS."""
    paths: list[int] = []
    used = 0
    nx, ny = g._masks[x] & within, g._masks[y] & within
    while nx & ~used and ny & ~used:
        if _separate(g, used, x, y, paths, within) is not None:
            break
        used |= paths[-1]
    return paths


def _path_hits(interiors: list[int], masks: list[int]) -> tuple[list[int], int]:
    """For each vertex set in `masks`, the bitmask of the path interiors in
    `interiors` (masks) that it meets; and the bitmask of all of them.  One
    pass over the sets per interior sets that interior's bit."""
    hits = [0] * len(masks)
    for j, pm in enumerate(interiors):
        bit = 1 << j
        hits = [h | bit if m & pm else h for h, m in zip(hits, masks)]
    return hits, (1 << len(interiors)) - 1


def _frame_choices(q1m: int, q3m: int) -> Iterator[tuple[int | None, int | None]]:
    """The anchor choices (C1, C3) of a clique pair: none first, then each
    vertex of its side, ascending."""
    c3s = [None, *iter_bits(q3m & ~q1m)]
    for c1 in [None, *iter_bits(q1m & ~q3m)]:
        for c3 in c3s:
            yield c1, c3


def _vertex_partition(g: Graph, start: int, within: int) -> GoodPartition | None:
    """The first good partition (K1, K2, K3, {x}, R) of the subgraph G
    induced on `within`, x scanned ascending from `start` and wrapping
    around, or None.

    N is x's neighbourhood in G and R the rest of G minus x; K2 is the
    members of N adjacent to every other member, K1 the component of
    N - K2 that holds its lowest vertex, and K3 the rest of N - K2.  x
    qualifies only when R, K1 and K3 are non-empty and K1 and K3 are
    cliques: then (i), (ii) and (iv) hold by construction, and (iii)
    because x is complete to K1.  The verifier still decides, and finds
    the triad of (v)."""
    masks = g._masks
    # any start at or past n scans from vertex 0; clamped, its mask has n bits
    below = within & ((1 << min(max(start, 0), g.n)) - 1)
    for xs in (within & ~below, below):
        for x in iter_bits(xs):
            xbit = 1 << x
            nx = masks[x] & within
            rm = within & ~nx & ~xbit
            if not rm:
                continue
            k2m = 0
            for v in iter_bits(nx):
                if not nx & ~masks[v] & ~(1 << v):
                    k2m |= 1 << v
            rest = nx & ~k2m
            k1m = component_mask(g, rest & -rest, rest)
            k3m = rest & ~k1m
            if not k3m or _clique_defect(g, k1m) or _clique_defect(g, k3m):
                continue
            verdict = _verify_masks(g, (k1m, k2m, k3m, xbit, rm), within)
            if verdict:
                return GoodPartition(k1m, k2m, k3m, xbit, rm, triad=verdict.witness)
    return None


def _frame_search(g: Graph, within: int) -> tuple[GoodPartition | None, int, int]:
    """The frame phase of `find_good_partition`: the first partition that
    a frame refines to, in canonical order, with the number of frames tried
    and of clique pairs pruned.  The maximal cliques of G are enumerated at
    the first anchor pair, and only if there is one."""
    cliques = None
    tried = 0
    pruned = 0
    for x, y in _anchored_pairs(g, within):
        if cliques is None:
            cliques = maximal_cliques_in(g, within)
        masks = cliques_within(g, cliques, within & ~(1 << x) & ~(1 << y))
        # the disjoint interiors; each BFS that finds x, y connected adds one
        paths = _disjoint_paths(g, x, y, within)
        hits, every = _path_hits(paths, masks)
        kinds = set(hits)
        # rows of Q1 with such a mask hold a pair that hits every path
        open_kinds = {a for a in kinds if any(a | b == every for b in kinds)}
        for q1m, h1 in zip(masks, hits):
            if h1 not in open_kinds:
                pruned += len(masks)
                continue
            for q3m, h3 in zip(masks, hits):
                if h1 | h3 != every or _separate(g, q1m | q3m, x, y, paths, within) is None:
                    pruned += 1
                    continue
                for c1, c3 in _frame_choices(q1m, q3m):
                    tried += 1
                    frame = Frame(q1=q1m, q3=q3m, x=x, y=y, c1=c1, c3=c3)
                    gp = refine_frame(g, frame, paths, within=within)
                    if gp is not None:
                        return gp, tried, pruned
    return None, tried, pruned


def find_good_partition(
    g: Graph,
    stats: dict | None = None,
    *,
    start: int = 0,
    within: int | None = None,
) -> GoodPartition | None:
    """A good partition of G, or None when G has none.

    The vertex phase (`_vertex_partition`) looks for one with L a single
    vertex, scanning the vertices ascending from `start` and wrapping
    around; the solver starts each child at the lowest vertex of its
    parent's L, so it does not fail again on the vertices the parent
    passed over.  Only when it finds none does the frame phase run: the
    first good partition reachable by refining frames in canonical order,
    anchor pairs (x, y) ascending from the first, then both cliques of G
    minus {x, y} in lexicographic order, then the anchor choices C1, C3,
    none first.  The partition returned carries the triad its verification
    found for condition (v); every partition either phase returns has
    passed the verifier.

    Complete: if the graph has any good partition, some frame refines to
    one, whatever the `start`.
    The frame scan skips a clique pair (Q1, Q3) when the union Q1 ∪ Q3
    fails to separate x from y: refinement only shrinks the cutset, so no
    anchor choice of that pair can succeed.  Two prunes find most such
    unions without a BFS, a list of learned paths spares most of the BFS
    runs that are left, and the result is the partition the unpruned scan
    returns:

    * Path prune.  A set that separates x from y meets the interior of every
      x-y path, so it meets each of the internally disjoint x-y paths found
      by `_disjoint_paths`.  Each clique gets a bitmask of the paths its
      vertices hit; a pair whose two masks together miss a path leaves that
      path in G - (Q1 ∪ Q3) and is skipped unseen.  Only pairs that hit
      every path run the separation test.
    * Row skip.  When no clique's mask covers the paths Q1 misses, every
      pair in Q1's row fails the path prune, so the row is skipped whole.
    * Learned paths.  Each anchor pair keeps one list of x-y path
      interiors, the disjoint ones first.  Every separation BFS that finds x
      and y connected, for a union or inside `refine_frame`, adds the
      interior of a shortest x-y path of G minus its cutset.  A later union
      or refinement cutset that misses a listed interior leaves that path
      whole, so it is answered "connected" without a BFS (Menger's argument
      again).  Learned paths answer repeated unions: one that left x and y
      connected misses the path its first test learned, and only a union
      that separates x from y, and whose frames all fail, runs its BFS
      again.  This skips BFS runs only; which pairs are skipped and which
      frames are tried, and so both counters, stay as they were.

    `within`, a vertex mask, restricts the search to the subgraph G induced
    on it; by default G is all of g.  Vertices, anchor pairs, cliques,
    separations and the partition returned are all in g's labels, and
    since every tie goes to the lowest id, the result is the search on G
    built as a graph of its own, relabelled back.  The solver searches each
    decomposition node this way, as a mask of the input graph.

    `stats`, if given, accumulates counters under keys "frames_tried" (frames
    handed to `refine_frame`) and "frames_pruned" (clique pairs skipped
    without refinement, one per pair, a skipped row counting every pair in
    it); both keys are always set, and the vertex phase adds 0 to each.
    The frame phase enumerates the maximal cliques of G once, at its first
    anchor pair, and each anchor pair derives those of G minus {x, y} from
    them with `cliques_within`.
    """
    if within is None:
        within = g.full_mask
    found = _vertex_partition(g, start, within)
    tried = pruned = 0
    if found is None:
        found, tried, pruned = _frame_search(g, within)
    if stats is not None:
        stats["frames_tried"] = stats.get("frames_tried", 0) + tried
        stats["frames_pruned"] = stats.get("frames_pruned", 0) + pruned
    return found
