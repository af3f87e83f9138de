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

# Last changed when frames_pruned began to count skipped clique pairs instead
# of frames; colorings, trees, traces and every other counter stayed the same.
EXPECTED = "1b39ad8dd031faf2dee45d8bc74edf846eb35c35ec40a54d4cb92ce1c2249c43"


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
# per solve: (n, seed) -> (node_count, frames_tried, frames_pruned).
PRUNE_HEAVY = {
    (40, 3): (33, 178, 66272),
    (80, 1): (51, 179, 248132),
    (100, 1): (39, 167, 58938),
}
PRUNE_HEAVY_EXPECTED = (
    "42ec86da1f564255947d536a4010bac03f19c1f10e3152e74373b32d17cc02b1"
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
