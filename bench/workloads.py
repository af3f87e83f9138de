"""The benchmark's instances.

`corpus` repeats the acceptance corpus of the test suite.  Its parameters
are copied here rather than imported so that a later edit to the tests
cannot change what the benchmark measures.  `bipartite` and `large` are
draws of `gen_square_free_berge(n, s)` split by clique number; the workload
seed moves their `s` window to draws no earlier run has seen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from bergecolor import (
    Graph,
    HyperprismSpec,
    PrismSpec,
    gen_hyperprism,
    gen_lk4_subdivision,
    gen_prism,
    gen_square_free_berge,
)

from check import adjacency, clique_number

EVEN_PRISMS = [
    (2, 2, 2), (2, 2, 4), (2, 4, 4), (4, 4, 4), (2, 4, 6),
    (6, 6, 6), (2, 2, 8), (4, 6, 8), (10, 10, 10), (16, 18, 20),
]
ODD_PRISMS = [
    (3, 3, 3), (3, 3, 5), (3, 5, 5), (5, 5, 5), (3, 5, 7),
    (7, 7, 7), (3, 3, 9), (9, 9, 9), (13, 15, 17),
]
HYPERPRISMS = [
    ((2, 2), (2,), (2,)),
    ((2, 2, 2), (2,), (2,)),
    ((4, 2), (2,), (4,)),
    ((2, 2), (4,), (6,)),
    ((4, 4), (4,), (4,)),
    ((6, 2), (2,), (2,)),
    ((2, 2, 2, 2), (2,), (2,)),
    ((4, 4, 2), (2,), (4,)),
    ((3, 3), (3,), (3,)),
    ((3, 5), (3,), (5,)),
    ((5, 5), (5,), (5,)),
    ((3, 3, 3), (3,), (3,)),
    ((7, 3), (5,), (3,)),
]
LK4S = [
    (2, 2, 2, 2, 2, 2),
    (2, 2, 2, 2, 2, 4),
    (4, 4, 4, 4, 4, 4),
    (2, 4, 2, 4, 2, 4),
    (6, 6, 6, 6, 6, 6),
    (2, 2, 4, 4, 6, 6),
    (3, 3, 3, 2, 2, 2),
    (5, 3, 3, 2, 2, 4),
    (3, 3, 5, 2, 4, 2),
    (2, 2, 2, 4, 4, 4),
]
EVEN_CYCLES = [6, 8, 10, 12, 14, 16]

BIPARTITE_NS = (40, 50, 60, 80, 100)
BIPARTITE_WINDOW = 10
LARGE_NS = (120, 180, 240, 300, 400)
LARGE_WINDOW = 8
PATH_N = 300

WORKLOADS = ("corpus", "bipartite", "large")


@dataclass
class Case:
    name: str
    graph: Graph
    adj: list[int]
    omega: int  # from the benchmark's own clique search
    col_text: str | None = None  # DIMACS text, for cases run through the CLI
    col_path: str | None = None  # where write_files put it


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def _case(name: str, g: Graph) -> Case:
    adj = adjacency(g.n, g.edges())
    return Case(name, g, adj, clique_number(adj))


def _corpus_graphs():
    for ls in EVEN_PRISMS + ODD_PRISMS:
        yield f"prism{ls}", gen_prism(PrismSpec(ls))
    for strips in HYPERPRISMS:
        yield f"hyperprism{strips}", gen_hyperprism(HyperprismSpec(strips))
    for ls in LK4S:
        yield f"lk4{ls}", gen_lk4_subdivision(ls)
    for n in EVEN_CYCLES:
        yield f"C{n}", _cycle(n)
    for n in range(6, 15):
        for s in range(6):
            yield f"random(n={n},seed={s})", gen_square_free_berge(n, s)
    for n in range(15, 41):
        for s in range(3):
            yield f"random(n={n},seed={s})", gen_square_free_berge(n, s)
    for n in range(41, 61):
        yield f"random(n={n},seed=0)", gen_square_free_berge(n, 0)


def _col_text(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def _draws(ns, window: int, workload_seed: int, keep) -> list[Case]:
    out = []
    for n in ns:
        for s in range(workload_seed * window, (workload_seed + 1) * window):
            case = _case(f"random(n={n},seed={s})", gen_square_free_berge(n, s))
            if keep(case.omega):
                out.append(case)
    return out


def build(workload: str, workload_seed: int) -> list[Case]:
    if workload == "corpus":
        cases = []
        for name, g in _corpus_graphs():
            case = _case(name, g)
            case.col_text = _col_text(g)
            cases.append(case)
        return cases
    if workload == "bipartite":
        return _draws(BIPARTITE_NS, BIPARTITE_WINDOW, workload_seed, lambda w: w == 2)
    if workload == "large":
        cases = _draws(LARGE_NS, LARGE_WINDOW, workload_seed, lambda w: w >= 3)
        cases.append(_case(f"path({PATH_N})", _path(PATH_N)))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


def write_files(cases: list[Case], workdir: str) -> None:
    """Write the DIMACS text of the cases that have one into `workdir`.
    Kept out of the timed set-up: on a shared file system one write of the
    corpus varies by more than 100% within a run."""
    for i, case in enumerate(cases):
        if case.col_text is not None:
            case.col_path = os.path.join(workdir, f"{i:03d}.col")
            with open(case.col_path, "w", encoding="ascii") as fh:
                fh.write(case.col_text)
