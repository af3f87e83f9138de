"""DIMACS .col graph files: `p edge <n> <m>` header, `e <u> <v>` edges, 1-based."""

from __future__ import annotations

import os

from .errors import DimacsError
from .graphs import Graph


def parse_col(text: str) -> Graph:
    n = None
    edges: set[tuple[int, int]] = set()
    declared_m = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise DimacsError(line_no, "duplicate problem line")
            if len(fields) != 4 or fields[1] != "edge":
                raise DimacsError(line_no, f"malformed problem line: {line!r}")
            try:
                n, declared_m = int(fields[2]), int(fields[3])
            except ValueError:
                raise DimacsError(line_no, f"non-integer sizes: {line!r}")
            if n < 0 or declared_m < 0:
                raise DimacsError(line_no, "negative size")
        elif fields[0] == "e":
            if n is None:
                raise DimacsError(line_no, "edge before problem line")
            if len(fields) != 3:
                raise DimacsError(line_no, f"malformed edge line: {line!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise DimacsError(line_no, f"non-integer endpoint: {line!r}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(line_no, f"endpoint out of range 1..{n}: {line!r}")
            if u == v:
                raise DimacsError(line_no, f"self-loop at {u}")
            a, b = min(u, v) - 1, max(u, v) - 1
            edges.add((a, b))
        else:
            raise DimacsError(line_no, f"unknown line type {fields[0]!r}")
    if n is None:
        raise DimacsError(1, "missing problem line")
    return Graph(n, sorted(edges))


def read_col(path: str) -> Graph:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise DimacsError(line_no, f"non-ASCII byte {data[exc.start]:#04x}") from None
    return parse_col(text)


def format_col(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for piece in comment.splitlines():
            lines.append(f"c {piece}")
    lines.append(f"p edge {g.n} {g.m}")
    for u, v in g.edges():
        lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def write_col(g: Graph, path: str, comment: str | None = None) -> None:
    # write-to-temp + rename so readers never observe a partial file
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        fh.write(format_col(g, comment))
    os.replace(tmp, path)
