"""Pins the solver's output on the acceptance corpus with one SHA-256.

Each corpus instance contributes its sorted coloring, its tree_to_json
document, its swap trace and the counters of its SolveStats.  A refactor must
leave EXPECTED untouched; a change that alters output on purpose says so and
updates EXPECTED in the same commit.
"""

import hashlib
import json

from bergecolor import color, tree_to_json

STAT_FIELDS = (
    "frames_tried",
    "frames_pruned",
    "swaps_applied",
    "leaf_count",
    "node_count",
    "max_depth",
    "berge_checked",
)

EXPECTED = "b9d5e268ee99407b5aacd4390de4246f869ab16b5aa12fcab1eabfc983d989e5"


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
