"""
Coloring a prism end to end
===========================

A prism is two triangles joined by three disjoint paths.  With even rungs it
is square-free and Berge, its clique number is 3, and the solver must color
it with exactly 3 colors.  This script builds one, inspects it, colors it,
and checks the answer the same way the test suite does.
"""

from bergecolor import (
    PrismSpec,
    color,
    contains_square,
    gen_prism,
    is_berge,
    maximal_cliques,
    omega,
    verify_coloring,
)

g = gen_prism(PrismSpec((4, 4, 4)))
print(f"prism(4,4,4): {g.n} vertices, {g.m} edges")

# sanity: the input class the solver is built for
print("square-free:", contains_square(g) is None)
print("Berge:", is_berge(g).ok)
print("omega:", omega(g), "| maximal cliques:", len(maximal_cliques(g)))

result = color(g)
print("\ncolors used:", result.colors_used)
print("coloring:", dict(sorted(result.coloring.colors.items())))

verdict = verify_coloring(g, result.coloring)
print("verified:", verdict.ok)

s = result.stats
print(
    f"\nsearch: {s.frames_tried} frames tried "
    f"({s.frames_pruned} clique pairs skipped), "
    f"{s.swaps_applied} merge swaps"
)
print(
    f"tree: {s.node_count} nodes, {s.leaf_count} leaves, depth {s.max_depth}"
)
