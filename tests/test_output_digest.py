"""Pins the solver's output on the acceptance corpus with one SHA-256.

Each corpus instance contributes its sorted coloring, its tree_to_json
document, its swap trace and the counters of its SolveStats.  A refactor must
leave EXPECTED untouched; a change that alters output on purpose says so and
updates EXPECTED in the same commit.
"""

import hashlib
import json

from bergecolor import color, gen_square_free_berge, tree_to_json

STAT_FIELDS = (
    "frames_tried",
    "frames_pruned",
    "swaps_applied",
    "leaf_count",
    "node_count",
    "max_depth",
    "berge_checked",
)

# Last changed when the search began to split off a single vertex whose
# neighbourhood is two cliques before building any frame: nodes take other
# partitions, so trees, colorings, traces and counters changed.
EXPECTED = "8f685a33c7c31233f9d13139829f7b6e733a20693ec26bc27874c92e08a25837"


def corpus_digest(corpus) -> str:
    h = hashlib.sha256()
    for name, make in corpus:
        events: list = []
        r = color(make(), trace=events)
        record = [
            name,
            sorted(r.coloring.colors.items()),
            tree_to_json(r.tree),
            events,
            [getattr(r.stats, f) for f in STAT_FIELDS],
        ]
        h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_output_digest_on_acceptance_corpus(corpus):
    assert corpus_digest(corpus) == EXPECTED


# omega-2 draws on which the frame search alone skips tens of thousands of
# clique pairs per solve: (n, seed) -> (node_count, frames_tried,
# frames_pruned).  Every node now splits off a single vertex, so no frame
# is tried or pruned.  With the frame search alone, each child resuming its
# parent's anchor scan, these were (35, 97, 13686), (51, 167, 76146) and
# (39, 169, 26355); with every child scanning from its first anchor pair,
# (33, 178, 66272), (51, 179, 248132) and (39, 167, 58938).
PRUNE_HEAVY = {
    (40, 3): (33, 0, 0),
    (80, 1): (51, 0, 0),
    (100, 1): (39, 0, 0),
}
PRUNE_HEAVY_EXPECTED = (
    "6fe6ebcf7a98398ebd3ea9dc854d38ce551b427c96560884220188e6d3e76945"
)


def test_output_digest_where_frames_are_pruned():
    h = hashlib.sha256()
    for (n, seed), counts in PRUNE_HEAVY.items():
        events: list = []
        r = color(gen_square_free_berge(n, seed), trace=events)
        stats = r.stats
        assert (stats.node_count, stats.frames_tried, stats.frames_pruned) == counts
        record = [
            [n, seed],
            sorted(r.coloring.colors.items()),
            tree_to_json(r.tree),
            events,
        ]
        h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == PRUNE_HEAVY_EXPECTED


# omega >= 3 draws of the `large` kind: deep trees whose spines strip a few
# vertices per level, (400, 6) 55 levels deep.  Each record holds the sorted
# coloring, the tree, the swap events and the SolveStats counters.
DEEP_SPINES = ((180, 0), (240, 6), (300, 2), (400, 6))
DEEP_SPINES_EXPECTED = (
    "8f2bcfc5a80ed289f527f46bf488ccfda7abc2cb2d0442226b0a96894a4a20da"
)


def test_output_digest_on_deep_spines():
    h = hashlib.sha256()
    for n, seed in DEEP_SPINES:
        events: list = []
        r = color(gen_square_free_berge(n, seed), trace=events)
        record = [
            [n, seed],
            sorted(r.coloring.colors.items()),
            tree_to_json(r.tree),
            events,
            [getattr(r.stats, f) for f in STAT_FIELDS],
        ]
        h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    assert h.hexdigest() == DEEP_SPINES_EXPECTED
