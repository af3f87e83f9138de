"""Spans around the calls into the program's layers, recorded from outside.

For a traced pass, each function in TRACED is replaced by a wrapper on the
module attribute its callers look up at call time, so the program's source
is not touched.  A span is (name, start, end, parent span, instance).  Spans
are kept in flat arrays while the pass runs and are written out after it.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name).  The module is the caller's namespace:
# `component_mask` is traced as the partition module calls it, `omega` as
# the solver calls it, and so on.
TRACED = (
    ("bergecolor.cli", "main", "cli.main"),
    ("bergecolor.cli", "read_col", "dimacs.read_col"),
    ("bergecolor.cli", "color", "solver.color"),
    ("bergecolor.solver", "color", "solver.color"),
    ("bergecolor.solver", "require_square_free", "graphs.require_square_free"),
    ("bergecolor.solver", "require_berge", "graphs.require_berge"),
    ("bergecolor.solver", "omega", "graphs.omega"),
    ("bergecolor.solver", "find_good_partition", "partition.find_good_partition"),
    ("bergecolor.solver", "leaf_color", "solver.leaf_color"),
    ("bergecolor.solver", "merge_colorings", "recolor.merge_colorings"),
    ("bergecolor.solver", "verify_coloring", "solver.verify_coloring"),
    ("bergecolor.partition", "maximal_cliques_in", "graphs.maximal_cliques_in"),
    ("bergecolor.partition", "component_mask", "graphs.component_mask"),
    ("bergecolor.partition", "refine_frame", "partition.refine_frame"),
    ("bergecolor.recolor", "find_reducing_swap", "recolor.find_reducing_swap"),
    ("bergecolor.recolor", "apply_swap", "recolor.apply_swap"),
)


class Spans:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_instance = -1
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, fn, span_name: str):
        if span_name not in self.names:
            self.names.append(span_name)
        nid = self.names.index(span_name)
        name, parent, instance = self.name, self.parent, self.instance
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            instance.append(self.current_instance)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def dump(self, path: str) -> None:
        """One JSON header line, then the five arrays in header order."""
        fields = ("name", "parent", "instance", "start", "end")
        header = {
            "names": self.names,
            "count": len(self),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


@contextmanager
def installed(spans: Spans):
    """Route every TRACED attribute through `spans` until exit."""
    saved = []
    try:
        for mod_name, attr, span_name in TRACED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, spans.wrap(fn, span_name))
        yield spans
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


@dataclass
class Layer:
    total: float = 0.0
    self_time: float = 0.0
    calls: int = 0


def summarize(spans: Spans) -> tuple[dict[str, Layer], int]:
    """Per span name: summed duration, self time (duration minus the time
    covered by child spans) and call count.  Also returns the number of
    apply_swap calls made inside find_reducing_swap, the swap simulations."""
    n = len(spans)
    dur = [e - s for s, e in zip(spans.start, spans.end)]
    covered = [0.0] * n
    for i, p in enumerate(spans.parent):
        if p >= 0:
            covered[p] += dur[i]
    layers = {name: Layer() for name in spans.names}
    for i, nid in enumerate(spans.name):
        layer = layers[spans.names[nid]]
        layer.total += dur[i]
        layer.self_time += dur[i] - covered[i]
        layer.calls += 1
    sims = 0
    if "recolor.apply_swap" in spans.names:
        apply_id = spans.names.index("recolor.apply_swap")
        search_id = spans.names.index("recolor.find_reducing_swap")
        for i, nid in enumerate(spans.name):
            p = spans.parent[i]
            if nid == apply_id and p >= 0 and spans.name[p] == search_id:
                sims += 1
    return layers, sims
