"""Checks on the program's outputs that share no code with the program.

The clique number comes from a branch-and-bound search written here, and
coloring files are parsed here, so a bug in the solver's own verifier or
parser cannot make a wrong answer pass.
"""

from __future__ import annotations


def adjacency(n: int, edges) -> list[int]:
    """Neighbourhood bitmask of every vertex."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def clique_number(adj: list[int]) -> int:
    """Size of a largest clique: highest-vertex-first branching, pruned when
    the clique plus all remaining candidates cannot beat the best so far."""
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if size > best:
            best = size
        while cand and size + cand.bit_count() > best:
            v = cand.bit_length() - 1
            cand ^= 1 << v
            expand(size + 1, cand & adj[v])

    expand(0, (1 << len(adj)) - 1)
    return best


def parse_solution(text: str) -> dict[int, int]:
    """`v <vertex> <color>` lines, 1-based vertices, to {vertex: color}.
    Raises ValueError on any other line or on a vertex given twice."""
    colors: dict[int, int] = {}
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0] == "c":
            continue
        if len(fields) != 3 or fields[0] != "v":
            raise ValueError(f"bad solution line {line!r}")
        v, col = int(fields[1]) - 1, int(fields[2])
        if v in colors:
            raise ValueError(f"vertex {v + 1} colored twice")
        colors[v] = col
    return colors


def coloring_error(adj: list[int], omega: int, colors: dict[int, int]) -> str | None:
    """None when `colors` is a total, proper coloring of the graph using
    exactly `omega` positive integer colors; else what is wrong."""
    n = len(adj)
    if sorted(colors) != list(range(n)):
        return "coloring is not total over the vertex set"
    for v, col in colors.items():
        if type(col) is not int or col < 1:
            return f"vertex {v} has color {col!r}"
        nb = adj[v]
        while nb:
            w = nb.bit_length() - 1
            nb ^= 1 << w
            if colors[w] == col:
                return f"edge ({v}, {w}) is monochromatic"
    used = len(set(colors.values()))
    if used != omega:
        return f"{used} colors used, clique number is {omega}"
    return None
