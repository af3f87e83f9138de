"""
Exporting the decomposition tree
================================

color() records how it took the graph apart: a binary tree with one node
per piece.  Each node first peels the piece's simplicial vertices (whose
neighbourhood is a clique; they are colored last, greedily) and works on
the core that is left.  Internal nodes carry the good partition that split
the core and a witness triad; leaves colored their core directly.  The tree
serializes to JSON for programmatic use (schema bergecolor-tree/3, with a
node's peeled vertices under "peeled") and to DOT for rendering with
graphviz:

    python3 demos/05_decomposition_tree.py > tree.dot
    dot -Tpng tree.dot -o tree.png

The JSON summary goes to stderr so stdout stays a clean DOT document.
"""

import json
import sys

from bergecolor import HyperprismSpec, color, gen_hyperprism, tree_to_dot, tree_to_json

g = gen_hyperprism(HyperprismSpec(((4, 4, 2), (2,), (4,))))
result = color(g)

doc = tree_to_json(result.tree)
root = doc["nodes"][0]  # pre-order: the root comes first
print(f"n = {g.n}, colored with {result.colors_used}", file=sys.stderr)
print(
    f"tree: {result.tree.node_count()} nodes, "
    f"{result.tree.leaf_count()} leaves, depth {result.tree.depth()}",
    file=sys.stderr,
)
peeled = sum(len(node.peeled) for node in result.tree.iter_nodes())
print(f"simplicial vertices peeled, summed over the nodes: {peeled}", file=sys.stderr)
print("root split:", json.dumps(root["partition"]), file=sys.stderr)
print("root triad:", root["triad"], file=sys.stderr)

sys.stdout.write(tree_to_dot(result.tree))
