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

# Last changed when each child began to resume its anchor-pair scan where
# its parent's search succeeded, instead of scanning from its first pair:
# nodes may take other partitions, so trees, colorings, traces and counters
# changed.
EXPECTED = "5af8b5bf84946090d7507c8ed9a1888b4003ccd8820a9ed5fd94e5038f2acb85"


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


# omega-2 draws on which frame search skips tens of thousands of clique pairs
# per solve: (n, seed) -> (node_count, frames_tried, frames_pruned).  With
# every child scanning from its first anchor pair these were (33, 178,
# 66272), (51, 179, 248132) and (39, 167, 58938).
PRUNE_HEAVY = {
    (40, 3): (35, 97, 13686),
    (80, 1): (51, 167, 76146),
    (100, 1): (39, 169, 26355),
}
PRUNE_HEAVY_EXPECTED = (
    "dbb2dca4282d43a9f8818aab0be39ed86c9c238f96ea69d1b115955c113824f0"
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
    "6b5bdb877899b34ddb725599a29bfdad9282864d2a411b768a2566496db1aa3f"
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
