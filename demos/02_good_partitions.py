"""
Good partitions, by hand and by search
======================================

A good partition splits the vertices into five sets (K1, K2, K3, L, R) so
that L and R see nothing of each other, K1 u K2 and K2 u K3 are cliques, and
three path/triad conditions hold.  The solver colors L's side and R's side
separately and reconciles them across the cutset K1 u K2 u K3.

This script finds one on the 6-cycle, shows how much of the frame search it
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

# the search refines frames (two cliques around a non-edge) in a fixed
# order, and skips clique pairs whose union cannot separate the non-edge
stats = {}
part = find_good_partition(g, stats)
print("\nfound:", part.to_json())
print("frames tried:", stats["frames_tried"])
print("clique pairs pruned:", stats["frames_pruned"])
print("verifier says:", verify_good_partition(g, part))

# pull vertex 5 out of L and into K1: 1 and 5 are not adjacent in C6,
# so K1 u K2 stops being a clique
broken = GoodPartition(
    k1=part.k1 | 1 << 5,
    k2=part.k2,
    k3=part.k3,
    l=part.l & ~(1 << 5),
    r=part.r,
)
verdict = verify_good_partition(g, broken)
print("\nbroken variant:", broken.to_json())
print("verifier says:", verdict)
print("violated condition:", verdict.condition, "witness:", verdict.witness)
