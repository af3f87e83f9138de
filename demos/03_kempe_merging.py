"""
Merging two side colorings with Kempe swaps
===========================================

After a split along a good partition, the two sides come back with their own
colorings.  They already agree on K1 u K2 after palette alignment; vertices
of K3 colored differently by the two sides are the "bad" set.  Each Kempe
swap exchanges two colors on one bichromatic component chosen so the bad set
strictly shrinks, so the loop terminates and the union of the two sides is a
proper coloring.

This script plants a partition on a generated graph, colors the sides
independently, and logs every swap the merge makes.
"""

from bergecolor import (
    PartialColoring,
    color,
    find_good_partition,
    gen_square_free_berge,
    merge_colorings,
    omega,
    verify_coloring,
)
from bergecolor.graphs import bit_list

# this instance is known to need a handful of swaps
g = gen_square_free_berge(9, 3)
part = find_good_partition(g)
print("graph: n =", g.n, " m =", g.m, " omega =", omega(g))
print("partition:", part.to_json())


def solve_side(keep):
    """Color the side induced on the vertex mask `keep` and translate back
    to g's labels."""
    sub, mapping = g.subgraph(bit_list(keep))
    res = color(sub)
    return PartialColoring(
        {mapping[i]: c for i, c in res.coloring.colors.items()}
    )


# the partition's five sets are vertex masks
c1 = solve_side(g.full_mask & ~part.r)  # L's side
c2 = solve_side(g.full_mask & ~part.l)  # R's side
print("\nside 1 (no R):", dict(sorted(c1.colors.items())))
print("side 2 (no L):", dict(sorted(c2.colors.items())))

events = []
merged = merge_colorings(g, part, c1, c2, omega(g), trace=events.append)

print(f"\n{len(events)} swaps:")
for ev in events:
    print(
        f"  side {ev['side']}: swap colors {ev['pair']} around vertex "
        f"{ev['seed']} ({ev['class']}), bad {ev['bad_before']} -> {ev['bad_after']}"
    )

print("\nmerged:", dict(sorted(merged.colors.items())))
print("valid:", verify_coloring(g, merged).ok, "| colors:", merged.colors_used())
