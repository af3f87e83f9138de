"""Exact coloring of square-free Berge graphs.

The solver splits the graph along good partitions (K1, K2, K3, L, R): a
cutset K1 ∪ K2 ∪ K3, with K1 ∪ K2 and K2 ∪ K3 cliques, whose removal leaves
L and R with no edges between them (see `partition`).  Each piece first
peels its simplicial vertices, those whose neighborhood is a clique, and
is split until no piece has a good partition.  The pieces are colored
bottom-up in one loop over the decomposition tree: sibling colorings are
merged with Kempe swaps (see `recolor`), and each peeled vertex takes the
lowest color missing from its neighborhood, so the whole graph ends up
with exactly omega colors (see `solver`).
"""

from .dimacs import format_col, parse_col, read_col, write_col
from .errors import (
    BergeColorError,
    BergeViolation,
    DimacsError,
    GenerationExhausted,
    InternalViolation,
    MalformedPartition,
    NotBerge,
    NotSquareFree,
    SpecError,
)
from .generators import (
    GeneratorWarning,
    HyperprismSpec,
    PrismSpec,
    gen_hyperprism,
    gen_lk4_subdivision,
    gen_prism,
    gen_square_free_berge,
    line_graph,
    sidecar_metadata,
)
from .graphs import (
    BergeVerdict,
    Graph,
    contains_square,
    find_triads,
    is_berge,
    maximal_cliques,
    omega,
    require_berge,
    require_square_free,
)
from .partition import (
    Frame,
    GoodPartition,
    PartitionVerdict,
    find_good_partition,
    nested_order,
    refine_frame,
    verify_good_partition,
)
from .recolor import (
    PartialColoring,
    align_colorings,
    apply_swap,
    bichromatic_component,
    coloring_from_json,
    coloring_to_json,
    coloring_to_lines,
    find_reducing_swap,
    merge_colorings,
    parse_coloring_lines,
)
from .solver import (
    ColorResult,
    ColoringVerdict,
    SolveStats,
    TreeNode,
    color,
    tree_to_dot,
    tree_to_json,
    verify_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "BergeColorError",
    "BergeVerdict",
    "BergeViolation",
    "ColorResult",
    "ColoringVerdict",
    "DimacsError",
    "Frame",
    "GenerationExhausted",
    "GeneratorWarning",
    "GoodPartition",
    "Graph",
    "HyperprismSpec",
    "InternalViolation",
    "MalformedPartition",
    "NotBerge",
    "NotSquareFree",
    "PartialColoring",
    "PartitionVerdict",
    "PrismSpec",
    "SolveStats",
    "SpecError",
    "TreeNode",
    "align_colorings",
    "apply_swap",
    "bichromatic_component",
    "color",
    "coloring_from_json",
    "coloring_to_json",
    "coloring_to_lines",
    "contains_square",
    "find_good_partition",
    "find_reducing_swap",
    "find_triads",
    "format_col",
    "gen_hyperprism",
    "gen_lk4_subdivision",
    "gen_prism",
    "gen_square_free_berge",
    "is_berge",
    "line_graph",
    "maximal_cliques",
    "merge_colorings",
    "nested_order",
    "omega",
    "parse_col",
    "parse_coloring_lines",
    "read_col",
    "refine_frame",
    "require_berge",
    "require_square_free",
    "sidecar_metadata",
    "tree_to_dot",
    "tree_to_json",
    "verify_coloring",
    "verify_good_partition",
    "write_col",
]
