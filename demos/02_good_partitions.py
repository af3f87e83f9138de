"""
Good partitions, by hand and by search
======================================

A good partition splits the vertices into five sets (K1, K2, K3, L, R) so
that L and R see nothing of each other, K1 u K2 and K2 u K3 are cliques, and
three path/triad conditions hold.  The solver colors L's side and R's side
separately and reconciles them across the cutset K1 u K2 u K3.

The search runs in two phases.  The vertex phase splits off a single
vertex x, L = {x}, when x's neighbourhood is two cliques joined through the
neighbours complete to the rest of it; only when no vertex qualifies does
the frame phase refine frames (two cliques around a non-edge).  This script
finds a partition of each kind, shows how much of the frame search each
took, and what the verifier says about a broken variant.  Each of the five
sets is a vertex mask, an int with bit v set for vertex v; `to_json()` lists
them.
"""

from bergecolor import (
    GoodPartition,
    Graph,
    find_good_partition,
    find_triads,
    verify_good_partition,
)


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


g = cycle(6)
print("triads of C6:", find_triads(g))

# the vertex phase: vertex 0's neighbours 1 and 5 are two one-vertex
# cliques, so {0} splits off from the far side of the cycle; no frame is built
stats = {}
part = find_good_partition(g, stats)
print("\nvertex phase found:", part.to_json())
print("frames tried:", stats["frames_tried"])
print("verifier says:", verify_good_partition(g, part))


def heawood_pair():
    """Two Heawood graphs sharing the edge 0-1.  Every neighbourhood holds
    three pairwise non-adjacent vertices, so no single vertex splits off."""
    edges = set()
    for base in (0, 12):
        label = {0: 0, 1: 1, **{v: base + v for v in range(2, 14)}}
        for i in range(14):
            j = (i + 5) % 14 if i % 2 == 0 else (i - 5) % 14
            for a, b in ((i, (i + 1) % 14), (i, j)):
                edges.add(tuple(sorted((label[a], label[b]))))
    return Graph(26, sorted(edges))


# the frame phase: it refines frames in a fixed order, and skips clique
# pairs whose union cannot separate the non-edge; here it finds the shared
# edge as the cutset
h = heawood_pair()
stats = {}
glued = find_good_partition(h, stats)
print("\nframe phase found:", glued.to_json())
print("frames tried:", stats["frames_tried"])
print("clique pairs pruned:", stats["frames_pruned"])
print("verifier says:", verify_good_partition(h, glued))

# pull vertex 3 out of R and into K1: 1 and 3 are not adjacent in C6,
# so K1 u K2 stops being a clique
broken = GoodPartition(
    k1=part.k1 | 1 << 3,
    k2=part.k2,
    k3=part.k3,
    l=part.l,
    r=part.r & ~(1 << 3),
)
verdict = verify_good_partition(g, broken)
print("\nbroken variant:", broken.to_json())
print("verifier says:", verdict)
print("violated condition:", verdict.condition, "witness:", verdict.witness)
